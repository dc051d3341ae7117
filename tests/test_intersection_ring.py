import dataclasses
import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from strategies import blowup_towers, models_of
from towerfile_reference import dense_row

from threefold import (
    CurveClass,
    DivisorClass,
    ValidationError,
    blow_up_curve,
    blow_up_point,
    make_base,
    make_custom_base,
    models_equivalent,
    multiply_divisors,
    pair,
    pairing_determinant,
    triple,
    validate_model,
)
from threefold.blowup_calculus import CurveCenterSpec
from threefold.intersection_ring import triple_products


# -- independent oracle: truncated power series in one variable -------------


def series_mul(a, b, order=4):
    out = [Q(0)] * order
    for i, ai in enumerate(a[:order]):
        for j, bj in enumerate(b[:order]):
            if i + j < order:
                out[i + j] += ai * bj
    return out


def series_inv(a, order=4):
    assert a[0] == 1
    out = [Q(1)] + [Q(0)] * (order - 1)
    for k in range(1, order):
        out[k] = -sum(a[i] * out[k - i] for i in range(1, k + 1) if i < len(a))
    return out


def chern_oracle(n, degrees):
    """[1, c1, c2, c3] of a complete intersection threefold in P^n."""
    num = [Q(1), Q(0), Q(0), Q(0)]
    for _ in range(n + 1):
        num = series_mul(num, [Q(1), Q(1), Q(0), Q(0)])
    den = [Q(1), Q(0), Q(0), Q(0)]
    for d in degrees:
        den = series_mul(den, [Q(1), Q(d), Q(0), Q(0)])
    return series_mul(num, series_inv(den))


def test_p3_tables_match_whitney_oracle():
    # (1+h)^4 truncated: c1 = 4h, c2 = 6h^2, c3 = 4h^3 so chi = 4
    oracle = chern_oracle(3, [])
    assert oracle == [Q(1), Q(4), Q(6), Q(4)]
    p3 = make_base("p3")
    validate_model(p3)
    assert p3.c1.coeffs == (Q(4),)
    assert p3.c2.coeffs == (Q(6),)
    assert p3.euler == 4 and p3.picard == 1
    h = p3.divisor({"h": 1})
    l = p3.curve({"l": 1})
    assert multiply_divisors(p3, h, h) == l
    assert pair(p3, h, l) == 1
    assert triple(p3, h, h, h) == 1
    assert p3.base_flags == frozenset({"picard-rank-1", "c2-movable-positive"})


def test_p2xp1_product_and_pairing_tables():
    m = make_base("p2xp1")
    validate_model(m)
    A = m.divisor({"A": 1})
    B = m.divisor({"B": 1})
    f1 = m.curve({"f1": 1})
    f2 = m.curve({"f2": 1})
    assert multiply_divisors(m, A, A).is_zero()
    assert multiply_divisors(m, A, B) == f1
    assert multiply_divisors(m, B, B) == f2
    assert pair(m, A, f1) == 0
    assert pair(m, A, f2) == 1
    assert pair(m, B, f1) == 1
    assert pair(m, B, f2) == 0
    assert m.c1 == m.divisor({"A": 2, "B": 3})
    assert m.c2 == m.curve({"f1": 6, "f2": 3})
    assert m.euler == 6 and m.picard == 2


def test_p1cubed_tables():
    m = make_base("p1cubed")
    validate_model(m)
    assert m.c1.coeffs == (Q(2), Q(2), Q(2))
    assert m.c2.coeffs == (Q(4), Q(4), Q(4))
    assert m.euler == 8 and m.picard == 3
    H1 = m.divisor({"H1": 1})
    H2 = m.divisor({"H2": 1})
    H3 = m.divisor({"H3": 1})
    assert multiply_divisors(m, H1, H2) == m.curve({"l3": 1})
    assert multiply_divisors(m, H1, H1).is_zero()
    assert triple(m, H1, H2, H3) == 1
    # c1^3 = 48 for the triple product of lines
    c1 = m.c1
    assert triple(m, c1, c1, c1) == 48


@pytest.mark.parametrize(
    "n,degrees,c1,c2",
    [
        (4, [2], 3, 4),
        (4, [1], 4, 6),  # hyperplane: same numbers as P3
        (5, [2, 2], 2, 3),
        (7, [2, 1, 1, 1], 3, 4),
    ],
)
def test_ci_chern_classes_match_series_oracle(n, degrees, c1, c2):
    oracle = chern_oracle(n, degrees)
    assert oracle[1] == c1 and oracle[2] == c2
    m = make_base("ci", n=n, degrees=degrees)
    validate_model(m)
    assert m.c1.coeffs == (Q(c1),)
    assert m.c2.coeffs == (Q(c2),)
    deg = 1
    for d in degrees:
        deg *= d
    assert m.pairing == {(0, 0): deg}
    assert m.euler == oracle[3] * deg
    assert "picard-rank-1" in m.base_flags
    assert "c2-movable-positive" in m.base_flags


def test_ci_quintic_euler_characteristic():
    assert make_base("ci", n=4, degrees=[5]).euler == -200


def test_ci_preconditions():
    with pytest.raises(ValidationError):
        make_base("ci", n=3, degrees=[])
    with pytest.raises(ValidationError):
        make_base("ci", n=4, degrees=[2, 2])
    with pytest.raises(ValidationError):
        make_base("ci", n=5, degrees=[2, 0])


def test_custom_base_rejects_asymmetric_mul2():
    with pytest.raises(ValidationError):
        make_custom_base(
            label="bad",
            divisor_names=["a", "b"],
            curve_names=["x", "y"],
            mul2={("a", "a"): {"x": 1}, ("a", "b"): {"x": 1}, ("b", "a"): {"y": 1}},
            pairing={("a", "x"): 1, ("b", "y"): 1},
            c1={"a": 1},
            c2={"x": 1},
            euler=4,
        )


def test_custom_base_rejects_singular_pairing():
    with pytest.raises(ValidationError, match="singular"):
        make_custom_base(
            label="bad",
            divisor_names=["a"],
            curve_names=["x"],
            mul2={("a", "a"): {"x": 1}},
            pairing={},
            c1={"a": 1},
            c2={"x": 1},
            euler=4,
        )


def test_custom_base_rejects_wrong_sizes():
    with pytest.raises(ValidationError):
        make_custom_base(
            label="bad",
            divisor_names=["a", "b"],
            curve_names=["x"],
            mul2={},
            pairing={("a", "x"): 1},
            c1={"a": 1},
            c2={"x": 1},
            euler=4,
        )


def test_dimension_mismatch_errors():
    p3 = make_base("p3")
    m2 = make_base("p2xp1")
    with pytest.raises(ValidationError):
        multiply_divisors(p3, m2.c1, m2.c1)
    with pytest.raises(ValidationError):
        pair(p3, p3.c1, m2.c2)
    with pytest.raises(ValidationError):
        p3.c1 + m2.c1


def _sample_models():
    p3 = make_base("p3")
    x1 = blow_up_point(p3)
    y1 = blow_up_curve(p3, CurveCenterSpec(curve_class=p3.curve({"l": 1}), genus=0))
    x2 = blow_up_curve(
        x1,
        CurveCenterSpec(curve_class=x1.curve({"l": 1, "L1": -1}), genus=0),
    )
    return [p3, make_base("p2xp1"), make_base("p1cubed"), x1, y1, x2]


def test_triple_product_fully_symmetric_on_random_classes():
    rng = random.Random(7)
    for model in _sample_models():
        nd = len(model.divisor_basis)
        for _ in range(100):
            vecs = [
                DivisorClass(tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nd)))
                for _ in range(3)
            ]
            base_val = triple(model, *vecs)
            for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
                assert triple(model, vecs[perm[0]], vecs[perm[1]], vecs[perm[2]]) == base_val


def test_multiply_divisors_bilinear():
    rng = random.Random(11)
    for model in _sample_models():
        nd = len(model.divisor_basis)

        def rand_div():
            return DivisorClass(tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nd)))

        for _ in range(25):
            d1, d1p, d2 = rand_div(), rand_div(), rand_div()
            a = Q(rng.randint(-5, 5), rng.randint(1, 4))
            lhs = multiply_divisors(model, d1.scale(a) + d1p, d2)
            rhs = multiply_divisors(model, d1, d2).scale(a) + multiply_divisors(model, d1p, d2)
            assert lhs == rhs
            assert multiply_divisors(model, d1, d2) == multiply_divisors(model, d2, d1)


def test_pairing_matrix_invertible_for_all_models():
    for model in _sample_models():
        assert pairing_determinant(model) != 0


def test_class_arithmetic_is_exact():
    c = DivisorClass((Q(1, 3), Q(2)))
    d = DivisorClass((Q(1, 6), Q(-1)))
    assert (c + d).coeffs == (Q(1, 2), Q(1))
    assert (c - d).coeffs == (Q(1, 6), Q(3))
    assert c.scale(Q(3)).coeffs == (Q(1), Q(6))
    assert (-d).coeffs == (Q(-1, 6), Q(1))
    assert CurveClass((Q(0), Q(0))).is_zero()


def test_divisor_and_curve_classes_stay_apart():
    d, c = DivisorClass((Q(1), Q(2))), CurveClass((Q(1), Q(2)))
    for x in (d, c):
        assert {type(x + x), type(x - x), type(-x), type(x.scale(2)), type(2 * x)} == {type(x)}
    assert d != c and hash(d) == hash(c)
    assert repr(d) == "DivisorClass(coeffs=(Fraction(1, 1), Fraction(2, 1)))"
    assert repr(c) == "CurveClass(coeffs=(Fraction(1, 1), Fraction(2, 1)))"


def test_generator_lookup_errors():
    p3 = make_base("p3")
    for build, kind in ((p3.divisor, "divisor"), (p3.curve, "curve")):
        with pytest.raises(ValidationError, match=f"^no {kind} generator named 'x' in P3$"):
            build({"x": 1})
        with pytest.raises(ValidationError, match=f"^{kind} vector has wrong length$"):
            build((1, 2))
    with pytest.raises(ValidationError, match="^no curve generator named 'y' in bad$"):
        make_custom_base(
            label="bad",
            divisor_names=["a"],
            curve_names=["x"],
            mul2={("a", "a"): {"x": 1}},
            pairing={("a", "x"): 1},
            c1={"a": 1},
            c2={"y": 1},
            euler=4,
        )


@pytest.mark.parametrize("euler", [4.0, True])
def test_custom_base_rejects_non_integer_euler(euler):
    # serialize_model would write "euler = 4.0", which parse_tower refuses
    with pytest.raises(ValidationError, match="euler must be an integer"):
        make_custom_base(
            label="bad",
            divisor_names=["a"],
            curve_names=["x"],
            mul2={("a", "a"): {"x": 1}},
            pairing={("a", "x"): 1},
            c1={"a": 1},
            c2={"x": 1},
            euler=euler,
        )


# -- sparse tables: canonical form, validation, hashing ----------------------


def _mixed_tower_model():
    """P3, four points, two lines and a conic through three of the points."""
    model = make_base("p3")
    for _ in range(4):
        model = blow_up_point(model)
    for coeffs in (
        {"l": 1, "L1": -1, "L2": -1},
        {"l": 1, "L3": -1, "L4": -1},
        {"l": 2, "L1": -1, "L2": -1, "L3": -1},
    ):
        model = blow_up_curve(model, CurveCenterSpec(model.curve(coeffs), genus=0))
    return model


def test_multiply_divisors_matches_dense_rows():
    # sparse and dense classes against the sum over every ordered pair of
    # dense rows
    rng = random.Random(13)
    model = _mixed_tower_model()
    nd = len(model.divisor_basis)
    for support in (1, 2, nd):
        for _ in range(20):
            d1, d2 = (
                DivisorClass(tuple(
                    Q(rng.randint(-3, 3), rng.randint(1, 2)) if k in picked else Q(0)
                    for k in range(nd)
                ))
                for picked in (rng.sample(range(nd), support), rng.sample(range(nd), support))
            )
            dense = [Q(0)] * nd
            for i, ci in enumerate(d1.coeffs):
                for j, cj in enumerate(d2.coeffs):
                    for a, v in enumerate(dense_row(model, i, j)):
                        dense[a] += ci * cj * v
            assert multiply_divisors(model, d1, d2).coeffs == tuple(dense)


def test_tables_are_canonical_sparse_dicts():
    model = _mixed_tower_model()
    assert all(i <= j for i, j in model.mul2)
    assert all(entry and all(entry.values()) for entry in model.mul2.values())
    assert all(model.pairing.values())
    assert dense_row(model, 5, 0) == dense_row(model, 0, 5)
    validate_model(model)


def _custom(mul2, pairing=None, divisors=("a", "b"), curves=("x", "y")):
    return make_custom_base(
        label="sparse",
        divisor_names=list(divisors),
        curve_names=list(curves),
        mul2=mul2,
        pairing=pairing if pairing is not None else {("a", "x"): 1, ("b", "y"): 1},
        c1={"a": 1},
        c2={"x": 1},
        euler=4,
    )


def test_custom_base_drops_zero_coefficients():
    plain = _custom({("a", "a"): {"x": 1}})
    padded = _custom(
        {("a", "a"): {"x": 1, "y": 0}, ("b", "a"): {"x": 0}, ("b", "b"): CurveClass((Q(0), Q(0)))},
        pairing={("a", "x"): 1, ("b", "y"): 1, ("a", "y"): 0},
    )
    assert padded.mul2 == {(0, 0): {0: 1}}
    assert padded.pairing == {(0, 0): 1, (1, 1): 1}
    assert padded == plain
    assert models_equivalent(padded, plain)


def test_custom_base_rejects_conflicting_orders():
    with pytest.raises(ValidationError, match="conflicting"):
        _custom({("a", "a"): {"x": 1}, ("a", "b"): {"y": 1}, ("b", "a"): {"y": 0}})


def test_validate_model_rejects_asymmetric_triple_product():
    # T(a, a; b) = pair(b, y) = 1 but T(a, b; a) = 0
    with pytest.raises(ValidationError, match=r"not symmetric on \(a, a, b\)"):
        _custom({("a", "a"): {"y": 1}})
    # three placements of one triple: T(b, c; a) = 1 against two zeros, and
    # T(a, b; c) = T(a, c; b) = 1 against T(b, c; a) = 0
    for mul2 in ({("b", "c"): {"x": 1}}, {("a", "b"): {"z": 1}, ("a", "c"): {"y": 1}}):
        with pytest.raises(ValidationError, match=r"not symmetric on \(a, b, c\)"):
            _custom(
                mul2,
                pairing={("a", "x"): 1, ("b", "y"): 1, ("c", "z"): 1},
                divisors=("a", "b", "c"),
                curves=("x", "y", "z"),
            )


@pytest.mark.parametrize(
    "tables, message",
    [
        ({"mul2": {(0, 1): {0: Q(1)}, (1, 1): {1: Q(1)}, (0, 0): {1: Q(0)}}}, "explicit zero"),
        ({"mul2": {(0, 1): {0: Q(1)}, (1, 1): {1: Q(1)}, (0, 0): {}}}, "empty"),
        ({"mul2": {(1, 0): {0: Q(1)}, (1, 1): {1: Q(1)}}}, "i <= j"),
        ({"mul2": {(0, 1): {0: Q(1)}, (1, 2): {1: Q(1)}}}, "i <= j"),
        ({"mul2": {(0, 1): {2: Q(1)}, (1, 1): {1: Q(1)}}}, "out of range"),
        ({"pairing": {(0, 1): Q(1), (1, 0): Q(1), (0, 0): Q(0)}}, "explicit zero"),
        ({"pairing": {(0, 1): Q(1), (1, 0): Q(1), (0, 2): Q(1)}}, "out of range"),
    ],
)
def test_validate_model_rejects_non_canonical_tables(tables, message):
    model = dataclasses.replace(make_base("p2xp1"), **tables)
    with pytest.raises(ValidationError, match=message):
        validate_model(model)


def test_models_hash_and_compare_by_tables():
    a = blow_up_point(make_base("p3"))
    b = blow_up_point(make_base("p3"))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, make_base("p3")}) == 2
    assert hash(_mixed_tower_model()) == hash(_mixed_tower_model())


def _leibniz_det(rows):
    n = len(rows)
    total = Q(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[x] > perm[y] for x in range(n) for y in range(x + 1, n))
        term = Q(-1) ** inversions
        for r in range(n):
            term *= rows[r][perm[r]]
        total += term
    return total


def test_pairing_determinant_matches_leibniz_on_sparse_pairings():
    rng = random.Random(17)
    assert pairing_determinant(make_base("p2xp1")) == -1
    for n in (2, 3, 4, 5):
        model = make_base("p3")
        for _ in range(n - 1):
            model = blow_up_point(model)
        for _ in range(40):
            rows = [
                [Q(rng.randint(-2, 2)) if rng.random() < 0.4 else Q(0) for _ in range(n)]
                for _ in range(n)
            ]
            pairing = {(i, a): v for i, row in enumerate(rows) for a, v in enumerate(row) if v}
            sparse = dataclasses.replace(model, pairing=pairing)
            assert pairing_determinant(sparse) == _leibniz_det(rows)


def test_class_coefficients_are_exact_and_fraction_tuples_are_kept():
    coeffs = (Q(1, 2), Q(-3))
    assert DivisorClass(coeffs).coeffs is coeffs
    # anything else is converted one entry at a time, and a float still refused
    assert DivisorClass([Q(1, 2), 3, "2/3"]).coeffs == (Q(1, 2), Q(3), Q(2, 3))
    assert all(type(c) is Q for c in CurveClass((1, Q(1))).coeffs)
    for bad in ((Q(1), 0.5), [0.5], (Q(1), None)):
        with pytest.raises(ValidationError, match="not an exact rational"):
            CurveClass(bad)


@pytest.mark.parametrize(
    "divisors, curves",
    [(["a"], ["x y"]), (["a b"], ["x"]), (["1a"], ["x"]), (["a"], ["x-1"]), (["a"], [""]), (["a"], [7])],
)
def test_custom_base_refuses_names_the_tower_format_cannot_read(divisors, curves):
    # `ring show` writes every generator name into the tower format, where a
    # name is one token [A-Za-z_][A-Za-z0-9_]*
    with pytest.raises(ValidationError, match="is not a token"):
        make_custom_base(
            label="names",
            divisor_names=divisors,
            curve_names=curves,
            mul2={},
            pairing={(divisors[0], curves[0]): 1},
            c1={},
            c2={},
            euler=4,
        )


def _triple_products_by_fresh_index(model):
    """triple_products as it was computed from an index of the pairing by
    curve, built anew on every call."""
    by_curve = {}
    for (k, a), v in model.pairing.items():
        by_curve.setdefault(a, []).append((k, v))
    out = {}
    for (i, j), entry in model.mul2.items():
        for a, v in entry.items():
            for k, p in by_curve.get(a, ()):
                out[(i, j, k)] = out.get((i, j, k), Q(0)) + v * p
    return {key: t for key, t in out.items() if t}


@settings(max_examples=40, deadline=None)
@given(blowup_towers())
def test_triple_products_read_the_stored_pairing_columns(tower):
    # every model of the tower, the older ones reading prefixes of a store
    # that later blowups appended to
    for model in models_of(tower):
        got = triple_products(model)
        assert list(got.items()) == list(_triple_products_by_fresh_index(model).items())
