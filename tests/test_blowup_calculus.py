import random
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import blowup_towers, classes, curve_centers, models_of

from threefold import (
    BlowupTower,
    CurveCenterSpec,
    CurveClass,
    DivisorClass,
    SurfaceData,
    ValidationError,
    blow_up_curve,
    blow_up_point,
    curve_step,
    gamma,
    line_strict_transform,
    make_base,
    make_custom_base,
    models_equivalent,
    multiply_divisors,
    pair,
    pairing_determinant,
    point_step,
    pullback_curve,
    pullback_divisor,
    pushforward_curve,
    pushforward_divisor,
    triple,
    validate_model,
)
from threefold.blowup_calculus import _next_step_index
from threefold.intersection_ring import (
    CURVE,
    DIVISOR,
    ONE,
    ZERO,
    BasisElement,
    ThreefoldModel,
    meets,
)


def test_point_blowup_of_p3():
    p3 = make_base("p3")
    x1 = blow_up_point(p3)
    validate_model(x1)
    assert x1.c1 == x1.divisor({"h": 4, "E1": -2})
    assert x1.c2 == x1.curve({"l": 6})
    assert x1.euler == 6 and x1.picard == 2
    E = x1.divisor({"E1": 1})
    L = x1.curve({"L1": 1})
    assert multiply_divisors(x1, E, E) == -L
    assert pair(x1, E, L) == -1
    # hand-composed: E.E = -L then pair(E, -L) = 1
    assert triple(x1, E, E, E) == 1
    h = x1.divisor({"h": 1})
    assert pair(x1, h, L) == 0
    assert multiply_divisors(x1, h, E).is_zero()


def test_curve_blowup_line_in_p3():
    p3 = make_base("p3")
    line = CurveCenterSpec(curve_class=p3.curve({"l": 1}), genus=0)
    assert gamma(p3, line) == 2  # 4*1 + 0 - 2
    y1 = blow_up_curve(p3, line)
    validate_model(y1)
    assert y1.euler == 6 and y1.picard == 2
    F = y1.divisor({"F1": 1})
    M = y1.curve({"M1": 1})
    assert triple(y1, F, F, F) == -2
    assert pair(y1, F, M) == -1
    assert pair(y1, y1.divisor({"h": 1}), M) == 0
    ff = multiply_divisors(y1, F, F)
    assert ff == y1.curve({"l": -1, "M1": 2})
    assert pushforward_curve(y1, ff) == -p3.curve({"l": 1})
    assert y1.c1 == y1.divisor({"h": 4, "F1": -1})
    # c2 = pi^!(c2 + C) - (c1.C) M = 7 l - 4 M
    assert y1.c2 == y1.curve({"l": 7, "M1": -4})


def test_exceptional_pairings_are_diagonal():
    # pair(E_i, L_j) = -1 exactly when i = j
    model = make_base("p3")
    for _ in range(3):
        model = blow_up_point(model)
    for i in range(1, 4):
        for j in range(1, 4):
            v = pair(model, model.divisor({f"E{i}": 1}), model.curve({f"L{j}": 1}))
            assert v == (-1 if i == j else 0)


def test_gamma_examples():
    p3 = make_base("p3")
    assert gamma(p3, CurveCenterSpec(p3.curve({"l": 1}), genus=0)) == 2
    # genus-3 plane quartic, class 4l: 16 + 6 - 2 = 20
    assert gamma(p3, CurveCenterSpec(p3.curve({"l": 4}), genus=3)) == 20
    x2 = blow_up_point(blow_up_point(p3))
    d12 = line_strict_transform(x2, [1, 2])
    assert pair(x2, x2.c1, d12.curve_class) == 0
    assert gamma(x2, d12) == -2


def test_zero_center_rejected():
    p3 = make_base("p3")
    with pytest.raises(ValidationError):
        CurveCenterSpec(curve_class=p3.zero_curve(), genus=0)


def test_genus_negative_rejected():
    p3 = make_base("p3")
    with pytest.raises(ValidationError):
        CurveCenterSpec(curve_class=p3.curve({"l": 1}), genus=-1)


def test_surface_data_kappa_consistency():
    p3 = make_base("p3")
    s = p3.divisor({"h": 2})
    center = CurveCenterSpec(
        curve_class=p3.curve({"l": 1}),
        genus=0,
        surface_data=SurfaceData(surface=s, mu=1, kappa=Q(2)),
    )
    blow_up_curve(p3, center)  # S.C = 2 matches
    bad = CurveCenterSpec(
        curve_class=p3.curve({"l": 1}),
        genus=0,
        surface_data=SurfaceData(surface=s, mu=1, kappa=Q(3)),
    )
    with pytest.raises(ValidationError, match="kappa"):
        blow_up_curve(p3, bad)


def _random_center_setting(rng):
    """A model a few blowups deep plus a random non-zero center on it."""
    base = rng.choice(["p3", "p2xp1", "p1cubed"])
    model = make_base(base)
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            model = blow_up_point(model)
        else:
            nc = len(model.curve_basis)
            vec = [Q(rng.randint(-2, 3)) for _ in range(nc)]
            if all(v == 0 for v in vec):
                vec[0] = Q(1)
            model = blow_up_curve(
                model, CurveCenterSpec(model.curve(vec), genus=rng.randint(0, 2))
            )
    nc = len(model.curve_basis)
    vec = [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nc)]
    if all(v == 0 for v in vec):
        vec[-1] = Q(1)
    center = CurveCenterSpec(model.curve(vec), genus=rng.randint(0, 3))
    return model, center


def test_blowup_identities_on_random_centers():
    """F^3 = -gamma, pushforward of F.F is -C, and the quadratic contraction
    identity triple(pi*xi - a F, pi*xi - a F, F) = 2a(xi.C) - a^2 gamma."""
    rng = random.Random(20240311)
    for _ in range(100):
        model, center = _random_center_setting(rng)
        g = gamma(model, center)
        after = blow_up_curve(model, center)
        n = len(after.divisor_basis)
        F = after.divisor({after.divisor_basis[-1].name: 1})
        assert triple(after, F, F, F) == -g
        assert pushforward_curve(after, multiply_divisors(after, F, F)) == -center.curve_class
        xi = DivisorClass(tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - 1)))
        a = Q(rng.randint(-4, 4), rng.randint(1, 3))
        zeta = pullback_divisor(after, xi) - F.scale(a)
        lhs = triple(after, zeta, zeta, F)
        xi_dot_c = pair(model, xi, center.curve_class)
        assert lhs == 2 * a * xi_dot_c - a * a * g


def test_euler_and_picard_bookkeeping():
    rng = random.Random(5)
    model = make_base("p3")
    for _ in range(12):
        before_euler, before_picard = model.euler, model.picard
        if rng.random() < 0.5:
            model = blow_up_point(model)
            assert model.euler == before_euler + 2
        else:
            g = rng.randint(0, 3)
            nc = len(model.curve_basis)
            vec = [Q(rng.randint(-1, 2)) for _ in range(nc)]
            if all(v == 0 for v in vec):
                vec[0] = Q(1)
            model = blow_up_curve(model, CurveCenterSpec(model.curve(vec), genus=g))
            assert model.euler == before_euler + 2 - 2 * g
        assert model.picard == before_picard + 1
        assert pairing_determinant(model) != 0


def test_chern_naturality_under_point_blowup():
    p3 = make_base("p3")
    x1 = blow_up_point(p3)
    xi = p3.divisor({"h": Q(5, 3)})
    assert pair(x1, pullback_divisor(x1, xi), pullback_curve(x1, p3.c2)) == pair(
        p3, xi, p3.c2
    )


def test_pullback_pushforward_roundtrip_and_product_compat():
    p3 = make_base("p3")
    for step in ("point", "curve"):
        if step == "point":
            after = blow_up_point(p3)
        else:
            after = blow_up_curve(p3, CurveCenterSpec(p3.curve({"l": 2}), genus=0))
        h = p3.divisor({"h": 1})
        up = pullback_divisor(after, h)
        assert pushforward_divisor(after, up) == h
        # pushforward drops the exceptional coordinate
        mixed = up - after.divisor({after.divisor_basis[-1].name: Q(3)})
        assert pushforward_divisor(after, mixed) == h
        assert triple(after, up, up, up) == triple(p3, h, h, h)


def test_pullback_requires_recorded_step():
    from threefold import parse_tower, serialize_model

    p3 = make_base("p3")
    x1 = blow_up_point(p3)
    # a re-parsed `ring show` model is a custom base: its history is gone
    shown = parse_tower(serialize_model(x1)).top()
    for model in (p3, shown):
        for fn, cls in (
            (pullback_divisor, model.c1), (pushforward_divisor, model.c1),
            (pullback_curve, model.c2), (pushforward_curve, model.c2),
        ):
            with pytest.raises(ValidationError) as err:
                fn(model, cls)
            assert str(err.value) == f"model {model.label!r} is not a recorded blowup of anything"
    for fn, cls, where in (
        (pullback_divisor, x1.c1, "the parent model"), (pushforward_divisor, p3.c1, "this model"),
        (pullback_curve, x1.c2, "the parent model"), (pushforward_curve, p3.c2, "this model"),
    ):
        with pytest.raises(ValidationError) as err:
            fn(x1, cls)
        assert str(err.value) == f"class not dimensioned for {where}"


def test_line_strict_transform_classes():
    p3 = make_base("p3")
    model = p3
    for _ in range(6):
        model = blow_up_point(model)
    d = line_strict_transform(model, [1, 2])
    assert d.curve_class == model.curve({"l": 1, "L1": -1, "L2": -1})
    assert d.genus == 0
    cubic = line_strict_transform(model, [1, 2, 3, 4, 5, 6], degree=3)
    assert cubic.curve_class == model.curve(
        {"l": 3, "L1": -1, "L2": -1, "L3": -1, "L4": -1, "L5": -1, "L6": -1}
    )
    # pairing with xi = deg_u pi*h - sum beta_l E_l
    u, betas = Q(7), [Q(i + 1) for i in range(6)]
    xi = model.divisor({"h": u, **{f"E{i+1}": -betas[i] for i in range(6)}})
    assert pair(model, xi, cubic.curve_class) == 3 * u - sum(betas)
    one = line_strict_transform(model, [4])
    assert pair(model, xi, one.curve_class) == u - betas[3]
    with pytest.raises(ValidationError):
        line_strict_transform(model, [1, 1])


def test_disjoint_curve_cross_terms_vanish():
    p3 = make_base("p3")
    x1 = blow_up_point(blow_up_point(p3))
    first = blow_up_curve(x1, line_strict_transform(x1, [1, 2]))
    # second disjoint line, pulled back class
    second_class = pullback_curve(first, x1.curve({"l": 1}))
    second = blow_up_curve(first, CurveCenterSpec(second_class, genus=0))
    F1 = second.divisor({"F1": 1})
    F2 = second.divisor({"F2": 1})
    # F1 pairs to zero against the pulled-back second center, so F1.F2 = 0
    assert pair(first, first.divisor({"F1": 1}), second_class) == 0
    assert multiply_divisors(second, F1, F2).is_zero()
    assert pair(second, F2, second.curve({"M1": 1})) == 0
    assert pair(second, F1, second.curve({"M2": 1})) == 0


def test_tower_evaluation():
    p3 = make_base("p3")
    x2 = blow_up_point(blow_up_point(p3))
    d12 = line_strict_transform(x2, [1, 2])
    tower = BlowupTower(p3, (point_step(), point_step(), curve_step(d12)))
    models = models_of(tower)
    assert len(models) == 4
    assert [m.picard for m in models] == [1, 2, 3, 4]
    assert models[-1].euler == 4 + 2 + 2 + 2
    assert tower.top().picard == 4


def test_blowup_adds_only_its_new_entries():
    # the parent's entries carry over untouched (padding is implicit); a
    # point adds E.E and pair(E, L), a curve the products F meets and F.F
    model = blow_up_point(blow_up_point(make_base("p3")))
    center = line_strict_transform(model, (1, 2))
    after = blow_up_curve(model, center)
    n = len(model.divisor_basis)
    assert {k: v for k, v in after.mul2.items() if n not in k} == model.mul2
    assert {k: v for k, v in after.pairing.items() if n not in k} == model.pairing
    # F meets h, E1 and E2 (each pairs 1 with l - L1 - L2); F.F = -C - 2M
    assert {k: v for k, v in after.mul2.items() if n in k} == {
        (0, n): {n: Q(1)},
        (1, n): {n: Q(1)},
        (2, n): {n: Q(1)},
        (n, n): {0: Q(-1), 1: Q(1), 2: Q(1), n: Q(-2)},
    }
    assert after.pairing[(n, n)] == -1
    point = blow_up_point(after)
    m = n + 1
    assert {k: v for k, v in point.mul2.items() if m in k} == {(m, m): {m: Q(-1)}}
    assert {k: v for k, v in point.pairing.items() if m in k} == {(m, m): Q(-1)}


def test_curve_blowup_skips_divisors_whose_pairing_cancels():
    # a pairs 1 with both x and y, so a.(x - y) = 0 and F.a needs no entry
    base = make_custom_base(
        label="skew",
        divisor_names=["a", "b"],
        curve_names=["x", "y"],
        mul2={},
        pairing={("a", "x"): 1, ("a", "y"): 1, ("b", "y"): 1},
        c1={"a": 1},
        c2={"x": 1},
        euler=4,
    )
    after = blow_up_curve(base, CurveCenterSpec(base.curve({"x": 1, "y": -1}), genus=0))
    assert (0, 2) not in after.mul2
    assert after.mul2[(1, 2)] == {2: Q(-1)}
    validate_model(after)


def test_genus_multiplicity_and_degree_must_be_integers():
    # a float or Fraction here used to reach the exact tables (F.F = 3.0 M
    # and euler 5.0 for genus 0.5); bool is rejected as well
    p3 = make_base("p3")
    line = p3.curve({"l": 1})
    for genus in (0.5, 1.0, Q(1), True):
        with pytest.raises(ValidationError, match="genus must be an integer"):
            CurveCenterSpec(line, genus=genus)
    for mu in (1.0, Q(2), True):
        with pytest.raises(ValidationError, match="mu must be an integer"):
            SurfaceData(surface=p3.divisor({"h": 1}), mu=mu)
    x1 = blow_up_point(p3)
    for degree in (1.5, 2.0, True):
        with pytest.raises(ValidationError, match="degree must be an integer"):
            line_strict_transform(x1, (1,), degree=degree)
    with pytest.raises(ValidationError, match="genus must be an integer"):
        line_strict_transform(x1, (1,), genus=0.0)


# -- the blowup and the product against their first, all-Fraction versions ----


def _reference_fresh_name(taken: set[str], stem: str) -> str:
    """The first name stem<k>, k = 1, 2, ..., not in taken: the scan the
    blowups' per-stem counters replace."""
    k = 1
    while f"{stem}{k}" in taken:
        k += 1
    return f"{stem}{k}"


def _reference_blow_up_curve(model: ThreefoldModel, center: CurveCenterSpec) -> ThreefoldModel:
    """blow_up_curve as first written: c1.C and gamma by two walks of the
    pairing, kappa by a third, c2 updated on every coordinate."""
    n = len(model.divisor_basis)
    if len(center.curve_class) != len(model.curve_basis):
        raise ValidationError("center class not dimensioned for this model")
    if center.surface_data is not None:
        sd = center.surface_data
        if len(sd.surface) != n:
            raise ValidationError("surface class not dimensioned for this model")
        kappa = pair(model, sd.surface, center.curve_class)
        if sd.kappa is not None and sd.kappa != kappa:
            raise ValidationError(f"surface_data kappa={sd.kappa} but S.C={kappa}")
    step_index = _next_step_index(model)
    g = gamma(model, center)
    c1_dot_c = pair(model, model.c1, center.curve_class)
    f_name = _reference_fresh_name(set(model.divisor_names()), "F")
    m_name = _reference_fresh_name(set(model.curve_names()), "M")
    cvec = center.curve_class.coeffs
    meets = _reference_meets(model, center.curve_class)
    mul2 = dict(model.mul2)
    for i, coeff in meets.items():
        if coeff:
            mul2[(i, n)] = {n: coeff}
    ff = {a: -c for a, c in enumerate(cvec) if c}
    if g:
        ff[n] = g
    mul2[(n, n)] = ff
    pairing = dict(model.pairing)
    pairing[(n, n)] = -ONE
    c1 = DivisorClass(model.c1.coeffs + (Q(-1),))
    c2 = CurveClass(tuple(a + b for a, b in zip(model.c2.coeffs, cvec)) + (-c1_dot_c,))
    label = center.label or f"C{step_index}"
    return ThreefoldModel(
        label=f"{model.label}+{label}",
        divisor_basis=model.divisor_basis + (BasisElement(f_name, DIVISOR, "exceptional", step_index),),
        curve_basis=model.curve_basis + (BasisElement(m_name, CURVE, "exceptional", step_index),),
        mul2=mul2,
        pairing=pairing,
        c1=c1,
        c2=c2,
        euler=model.euler + 2 - 2 * center.genus,
        picard=model.picard + 1,
        base_flags=frozenset(),
    )


def _reference_meets(model, c):
    """meets as first written: one walk of the whole pairing table."""
    cc = c.coeffs
    out = {}
    for (i, a), v in model.pairing.items():
        if cc[a]:
            out[i] = out.get(i, ZERO) + v * cc[a]
    return out


def _reference_pair(model, d, c):
    """pair as first written: one double sum over the pairing table."""
    dc, cc = d.coeffs, c.coeffs
    total = ZERO
    for (i, a), v in model.pairing.items():
        if dc[i] and cc[a]:
            total += dc[i] * v * cc[a]
    return total


def _reference_multiply_divisors(model, d1, d2):
    """multiply_divisors as first written, summing Fractions."""
    x, y = d1.coeffs, d2.coeffs
    acc = {}
    for (i, j), entry in model.mul2.items():
        f = x[i] * y[j] if i == j else x[i] * y[j] + x[j] * y[i]
        if f:
            for k, v in entry.items():
                acc[k] = acc.get(k, ZERO) + f * v
    return CurveClass(tuple(acc.get(k, ZERO) for k in range(len(model.curve_basis))))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as e:
        return str(e)


def _assert_same_model(got, want):
    assert got == want
    # the tables iterate in the same order too (the eigenclass residuals sum
    # over mul2 in its order, in floating point)
    assert list(got.mul2.items()) == list(want.mul2.items())
    assert list(got.pairing.items()) == list(want.pairing.items())
    assert (got.c1, got.c2, got.euler) == (want.c1, want.c2, want.euler)
    assert all(type(c) is Q for c in got.c1.coeffs + got.c2.coeffs)
    assert type(got.euler) is int
    assert (got.divisor_names(), got.curve_names()) == (want.divisor_names(), want.curve_names())


@settings(max_examples=150, deadline=None)
@given(blowup_towers())
def test_blow_up_curve_matches_reference(tower):
    want = [tower.base]
    for step in tower.steps:
        model = want[-1]
        if step.kind == "point":
            want.append(blow_up_point(model))
            continue
        center = step.center
        want.append(_reference_blow_up_curve(model, center))
        sd = center.surface_data
        if sd is not None:
            # a stated kappa is checked the same way, right or wrong
            kappa = pair(model, sd.surface, center.curve_class)
            for k in (kappa, kappa + Q(1, 2)):
                stated = replace(center, surface_data=replace(sd, kappa=k))
                got, ref = (_outcome(f, model, stated) for f in (blow_up_curve, _reference_blow_up_curve))
                if isinstance(ref, str):
                    assert got == ref
                else:
                    _assert_same_model(got, ref)
    got = models_of(tower)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        _assert_same_model(a, b)


@settings(max_examples=150, deadline=None)
@given(blowup_towers(), st.data())
def test_multiply_divisors_matches_reference(tower, data):
    model = tower.top()
    rho = model.picard
    d1 = DivisorClass(data.draw(classes(rho, max_den=7)))
    d2 = DivisorClass(data.draw(classes(rho, max_den=7)))
    got = multiply_divisors(model, d1, d2)
    assert got == _reference_multiply_divisors(model, d1, d2)
    assert all(type(c) is Q for c in got.coeffs)
    assert got == multiply_divisors(model, d2, d1)


@settings(max_examples=150, deadline=None)
@given(blowup_towers(), st.data())
def test_pair_and_meets_match_reference(tower, data):
    model = tower.top()
    rho = model.picard
    d = DivisorClass(data.draw(classes(rho, max_den=7)))
    c = CurveClass(data.draw(classes(rho, max_den=7)))
    assert pair(model, d, c) == _reference_pair(model, d, c)
    met = meets(model, c)
    # the same keys in the same order as one walk of the whole pairing
    assert list(met.items()) == list(_reference_meets(model, c).items())
    assert sum((d.coeffs[i] * m for i, m in met.items()), ZERO) == pair(model, d, c)
    for i in range(rho):
        e_i = DivisorClass(tuple(ONE if k == i else ZERO for k in range(rho)))
        assert met.get(i, ZERO) == _reference_pair(model, e_i, c)


@settings(max_examples=100, deadline=None)
@given(blowup_towers())
def test_each_model_of_a_tower_knows_its_step(tower):
    models = models_of(tower)
    assert models[0].divisor_basis[-1].origin == "base"
    for k, model in enumerate(models):
        if k:
            last = model.divisor_basis[-1], model.curve_basis[-1]
            assert [(e.origin, e.step) for e in last] == [("exceptional", k)] * 2
        assert _next_step_index(model) == k + 1


def _snapshot(model):
    """Everything a later blowup must leave alone: the tables (copied), the
    bases, and the class each generator name looks up."""
    lookups = tuple(
        (name, model.divisor({name: 1}), model.curve({e.name: 1}))
        for name, e in zip(model.divisor_names(), model.curve_basis)
    )
    return (
        dict(model.mul2.items()), dict(model.pairing.items()),
        model.divisor_basis, model.curve_basis, lookups,
    )


def _draw_step(data, rho):
    if data.draw(st.booleans()):
        return point_step()
    return curve_step(data.draw(curve_centers(rho)))


@settings(max_examples=100, deadline=None)
@given(blowup_towers(max_steps=5), st.data())
def test_branches_leave_earlier_models_alone_and_match_fresh_builds(tower, data):
    # the models of one tower share one store; blow the newest model up
    # twice (in place, then as a branch) and an older one twice more, and
    # grow one branch a step further
    models = models_of(tower)
    snapshots = [_snapshot(m) for m in models]
    older = data.draw(st.integers(0, len(models) - 1))
    branches = []  # (steps from the base, model)
    for k in sorted({len(models) - 1, older}, reverse=True):
        for _ in range(2):
            step = _draw_step(data, models[k].picard)
            branches.append((tower.steps[:k] + (step,), BlowupTower(models[k], (step,)).top()))
    steps, model = branches[-1]
    step = _draw_step(data, model.picard)
    branches.append((steps + (step,), BlowupTower(model, (step,)).top()))

    names = {e.name for _, m in branches for e in m.curve_basis} | set(models[-1].curve_names())
    later = [(m.mul2, m.pairing) for _, m in branches] + [(models[-1].mul2, models[-1].pairing)]
    for model, snapshot in zip(models, snapshots):
        assert _snapshot(model) == snapshot
        validate_model(model)
        # no entry of a later model or branch is found in this model's tables
        for tables in later:
            for own, copied, table in zip((model.mul2, model.pairing), snapshot, tables):
                for key in set(dict(table.items())) - set(copied):
                    assert key not in own and own.get(key) is None
                    with pytest.raises(KeyError):
                        own[key]
        # a generator of a later model or of a branch is unknown to this one
        for name in names - set(model.curve_names()):
            with pytest.raises(ValidationError, match="no curve generator"):
                model.curve({name: 1})
    for steps, model in branches:
        validate_model(model)
        fresh = BlowupTower(replace(tower.base), steps).top()
        assert models_equivalent(model, fresh)
        _assert_same_model(model, fresh)
