import random
from fractions import Fraction as Q

import pytest

from threefold import (
    BlowupTower,
    CurveCenterSpec,
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
    p3 = make_base("p3")
    with pytest.raises(ValidationError):
        pushforward_divisor(p3, p3.c1)
    with pytest.raises(ValidationError):
        pullback_divisor(p3, p3.c1)


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
    models = tower.evaluate()
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
