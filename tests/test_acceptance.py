"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.  Every tolerance and time budget is
pinned here; nothing is deferred to later calibration.

Two places deliberately recompute a value instead of transcribing the
printed one (both recorded in the project decision log):

- criterion 5's third boundary value: the quadratic's own definition gives
  g(n) = 3n/(2(n-3)); the printed 1/(n-3) does not satisfy it (the other
  two boundary values do, and positivity is unaffected);
- criterion 6's log-concavity clause lambda1^2 >= lambda2 is a theorem for
  automorphism actions, not for arbitrary unimodular matrices (about 5% of
  the random sample violates it, a counterexample is printed), so it is
  interval-certified here on validated actions over genuine models, which
  is the scope the detailed invariants give it.
"""

import hashlib
import itertools
import random
import time
from fractions import Fraction as Q

from threefold import (
    BlowupTower,
    CurveCenterSpec,
    DivisorClass,
    blow_up_curve,
    blow_up_point,
    ci_c2,
    curve_step,
    dynamical_degrees,
    effective_curve_check,
    euler_budget,
    g_quadratic,
    gamma,
    line_strict_transform,
    make_base,
    make_custom_base,
    multiply_divisors,
    pair,
    point_step,
    pullback_divisor,
    pushforward_curve,
    rationality_obstruction,
    replay_certificate,
    triple,
    ueno_report,
    validate_action,
)
from threefold.bareiss import int_matrix_det
from threefold.charpoly import characteristic_polynomial
from threefold.lattice_dynamics import (
    algebraic_compare,
    algebraic_square,
    lambda2_at_least_one_certified,
    square_dominance_certified,
)
from threefold.nef_conditions import (
    HOLDS,
    check_p3_points_lines,
    check_picard1,
    check_tower,
)
from threefold.radius import certified_radius_from_charpoly
from threefold.realroots import cauchy_root_bound, count_real_roots
from unimodular import matrix_adjugate_unimodular


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1: quotient-threefold bookkeeping ---------------------------------------


def test_criterion_1_ueno_bookkeeping():
    t0 = time.monotonic()
    r = ueno_report()
    elapsed = time.monotonic() - t0
    ok = (
        r.fixed_points == 8
        and r.period2_points == 56
        and r.singular_points == 36
        and r.chi_quotient == 20
        and r.chi_resolution == 92
        and r.picard_resolution == 45
        and r.identity_check
        and elapsed < 0.1
    )
    report(
        "1 (ueno bookkeeping)",
        ok,
        f"8/56/36/20/92/45 derived, chi=2+2rho, {elapsed * 1000:.1f} ms",
    )


# -- 2: points-and-lines forcing ----------------------------------------------


def test_criterion_2_p3_points_lines():
    t0 = time.monotonic()
    all_ok = True
    for n in range(1, 13):
        rep = check_p3_points_lines(n)
        ok = rep.forced and replay_certificate(rep.system, "deg_u", rep.result)
        all_ok = all_ok and ok
    elapsed = time.monotonic() - t0
    all_ok = all_ok and elapsed < 5.0
    report(
        "2 (p3 points+lines)",
        all_ok,
        f"n=1..12 all 'deg(u)=0 forced' with replayable certificates in {elapsed:.2f} s",
    )


# -- 3: blowup identity suite --------------------------------------------------


def test_criterion_3_blowup_identities():
    rng = random.Random(20240201)
    checked = 0
    for _ in range(100):
        model = make_base(rng.choice(["p3", "p2xp1", "p1cubed"]))
        for _ in range(rng.randint(0, 2)):
            model = blow_up_point(model)
        nc = len(model.curve_basis)
        vec = [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nc)]
        if all(v == 0 for v in vec):
            vec[0] = Q(1)
        center = CurveCenterSpec(model.curve(vec), genus=rng.randint(0, 3))
        g = gamma(model, center)
        after = blow_up_curve(model, center)
        nd = len(after.divisor_basis)
        F = after.divisor({after.divisor_basis[-1].name: 1})
        xi = DivisorClass(
            tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nd - 1))
        )
        a = Q(rng.randint(-4, 4), rng.randint(1, 3))
        zeta = pullback_divisor(after, xi) - F.scale(a)
        ok = (
            triple(after, zeta, zeta, F)
            == 2 * a * pair(model, xi, center.curve_class) - a * a * g
            and pushforward_curve(after, multiply_divisors(after, F, F))
            == -center.curve_class
            and triple(after, F, F, F) == -g
        )
        assert ok, (model.label, center, a)
        checked += 1
    report(
        "3 (blowup identities)",
        checked == 100,
        "100 random (xi, alpha, center) instances satisfy the contraction "
        "identity, F^3 = -gamma and the F.F pushforward exactly",
    )


# -- 4: ruled-surface lemma -----------------------------------------------------


def test_criterion_4_ruled_surface_scan():
    exceptions = 0
    admissible_count = 0
    for tau0 in range(0, 6):
        for a in range(0, 6):
            for b in range(-10, 11):
                r = effective_curve_check(tau0, Q(1), a, Q(b))
                if not r.admissible:
                    continue
                admissible_count += 1
                if r.self_int < 0:
                    exceptions += 1
                for g in range(-5, 0):
                    r2 = effective_curve_check(tau0, Q(g), a, Q(b))
                    if (a, b) != (0, 0) and r2.f_dot_v >= 0:
                        exceptions += 1
    report(
        "4 (ruled-surface lemma)",
        exceptions == 0 and admissible_count > 100,
        f"exhaustive scan, {admissible_count} admissible (tau0,a,b) cases, "
        "V.V >= 0 and F.V < 0 for gamma < 0, zero exceptions",
    )


# -- 5: complete intersections ---------------------------------------------------


def _series_oracle(n, degrees):
    """Integer truncated series for c(P^n)/c(N) mod h^4 (test-local oracle)."""

    def mul(a, b):
        return [
            sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b))
            for k in range(4)
        ]

    num = [1, 0, 0, 0]
    for _ in range(n + 1):
        num = mul(num, [1, 1, 0, 0])
    inv = [1, 0, 0, 0]
    for d in degrees:
        geom = [1, -d, d * d, -d * d * d]
        inv = mul(inv, geom)
    return mul(num, inv)


def test_criterion_5_complete_intersections():
    count = 0
    for n in range(4, 10):
        for degrees in itertools.product(range(1, 7), repeat=n - 3):
            rep = ci_c2(n, list(degrees))
            oracle = _series_oracle(n, degrees)
            assert rep.c2_coeff == oracle[2], (n, degrees)
            assert rep.c1_coeff == oracle[1], (n, degrees)
            assert rep.positive, (n, degrees)
            count += 1
    boundary_ok = True
    for n in range(4, 10):
        boundary_ok = boundary_ok and g_quadratic(n, n - 3) == 6
        boundary_ok = boundary_ok and g_quadratic(n, n - 1) == Q(2 * (n - 2), n - 3)
        # recomputed from the quadratic itself: 3n/(2(n-3)); the printed
        # 1/(n-3) is an arithmetic slip in the source (see decision log),
        # and positivity, the only thing used, holds either way.
        boundary_ok = boundary_ok and g_quadratic(n, n) == Q(3 * n, 2 * (n - 3))
        boundary_ok = boundary_ok and g_quadratic(n, n) > 0
    print(
        "[NOTE] criterion 5: g(n) asserted at its recomputed exact value "
        "3n/(2(n-3)) > 0; the printed closed form 1/(n-3) does not satisfy "
        "the quadratic's definition (decision log entry)"
    )
    report(
        "5 (complete intersections)",
        count == sum(6 ** (n - 3) for n in range(4, 10)) and boundary_ok,
        f"{count} degree vectors: c2 > 0 and equal to the series oracle; "
        "boundary values g(n-3)=6, g(n-1)=2(n-2)/(n-3), g(n)=3n/(2(n-3))>0",
    )


# -- 6: dynamics properties -------------------------------------------------------


def _sample_unimodular_with_real_eig(rng):
    while True:
        n = rng.choice([2, 3, 4])
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if int_matrix_det(A) not in (1, -1):
            continue
        p = characteristic_polynomial(A)
        if count_real_roots(p, Q(1), cauchy_root_bound(p)) > 0:
            return A


def _zero_product_model(rank):
    divisors = [f"d{i}" for i in range(1, rank)] + ["f"]
    curves = [f"c{i}" for i in range(1, rank)] + ["g"]
    return make_custom_base(
        label="synthetic",
        divisor_names=divisors,
        curve_names=curves,
        mul2={("f", "f"): {"g": 1}},
        pairing={(d, c): 1 for d, c in zip(divisors, curves)},
        c1={"f": 2},
        c2={"g": 3},
        euler=2 + 2 * rank,
    )


def _companion_plus_fixed(poly):
    k = len(poly) - 1
    m = [[0] * (k + 1) for _ in range(k + 1)]
    for i in range(1, k):
        m[i][i - 1] = 1
    for i in range(k):
        m[i][k - 1] = -poly[i]
    m[k][k] = 1
    return m


# sha256 of every certified lambda1 and lambda2 (minpoly, lo, hi) of the
# 1000 matrices below, pinned when the complex-dominant radii were still
# read from the factors of the whole symmetric square
CRITERION_6_RADII_DIGEST = "6b610714cd419aedac2534773172e1a025a4800f31f2f632d93425b342f737bf"


def test_criterion_6_dynamics_properties():
    t0 = time.monotonic()
    rng = random.Random(20240817)
    matrices = [_sample_unimodular_with_real_eig(rng) for _ in range(1000)]

    log_concavity_violations = 0
    counterexample = None
    digest = hashlib.sha256()
    for A in matrices:
        rep = dynamical_degrees(None, A)
        for lam in (rep.lambda1, rep.lambda2):
            digest.update(repr((lam.minpoly, str(lam.lo), str(lam.hi))).encode())
        rat = rationality_obstruction(characteristic_polynomial(A))
        assert rat.status == "consistent", A
        inv = matrix_adjugate_unimodular(A)
        l1_inv = certified_radius_from_charpoly(characteristic_polynomial(inv))
        assert abs(float(rep.lambda2) - float(l1_inv)) < 1e-9, A
        assert float(rep.lambda1) * float(l1_inv) >= 1 - 1e-12, A
        assert lambda2_at_least_one_certified(rep), A
        if algebraic_compare(algebraic_square(rep.lambda1), rep.lambda2) < 0:
            log_concavity_violations += 1
            if counterexample is None:
                counterexample = A
    assert digest.hexdigest() == CRITERION_6_RADII_DIGEST

    # log-concavity lambda1^2 >= lambda2, interval-certified on validated
    # actions over genuine models (its actual scope; see module docstring)
    model_actions = []
    x2 = blow_up_point(blow_up_point(make_base("p3")))
    model_actions.append((x2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    model_actions.append((x2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]))
    model_actions.append(
        (_zero_product_model(5), _companion_plus_fixed([1, -2, 0, -2, 1]))
    )
    model_actions.append(
        (_zero_product_model(4), _companion_plus_fixed([-1, -1, 0, 1]))
    )
    certified = 0
    for model, A in model_actions:
        assert validate_action(model, A).ok
        rep = dynamical_degrees(model, A)
        assert square_dominance_certified(rep), (model.label, A)
        certified += 1

    elapsed = time.monotonic() - t0
    print(
        f"[NOTE] criterion 6: lambda1^2 >= lambda2 fails for "
        f"{log_concavity_violations}/1000 random unimodular matrices "
        f"(first counterexample {counterexample}); the inequality is a "
        "theorem for automorphism actions only, so it is certified on the "
        f"{certified} validated model actions above (decision log entry)"
    )
    report(
        "6 (dynamics properties)",
        elapsed < 30.0 and certified == len(model_actions),
        "1000 random unimodular matrices: rationality consistent, "
        "lambda2(A) = lambda1(A^-1) to 1e-9, lambda1*lambda1(A^-1) >= 1, "
        f"lambda2 >= 1 certified; log-concavity certified on validated "
        f"model actions; {elapsed:.1f} s",
    )


# -- 7: condition propagation -------------------------------------------------------


def test_criterion_7_condition_propagation():
    base = make_base("p3")
    x2 = blow_up_point(blow_up_point(base))
    d12 = line_strict_transform(x2, [1, 2])
    c1_dot = pair(x2, x2.c1, d12.curve_class)
    tower = BlowupTower(base, (point_step(), point_step(), curve_step(d12)))
    verdict = check_tower(tower, "B")
    trace_ok = (
        verdict.status == HOLDS
        and verdict.step_tags() == ["T5", "T5", "T7"]
        and c1_dot == 0
        and verdict.trace[-1].witness("c1_dot_C") == 0
        and verdict.trace[-1].witness("two_g_minus_2") == -2
    )

    line_tower = BlowupTower(
        base, (curve_step(CurveCenterSpec(base.curve({"l": 1}), genus=0)),)
    )
    p1 = check_picard1(line_tower)
    picard_ok = (
        p1.alphas == (Q(1),)
        and p1.verdict_a.status == HOLDS
        and p1.verdict_b.status == HOLDS
    )
    report(
        "7 (condition propagation)",
        trace_ok and picard_ok,
        "trace [T5,T5,T7] with c1(X1).D12 = 0 != -2; picard1 on P3+line "
        "gives alpha = 1 with both Conditions holding",
    )


# -- 8: product-manifold tables -------------------------------------------------------


def test_criterion_8_p2xp1_tables():
    m = make_base("p2xp1")
    A = m.divisor({"A": 1})
    B = m.divisor({"B": 1})
    f1 = m.curve({"f1": 1})
    f2 = m.curve({"f2": 1})
    entries_ok = (
        multiply_divisors(m, A, A).is_zero()
        and multiply_divisors(m, A, B) == f1
        and multiply_divisors(m, B, A) == f1
        and multiply_divisors(m, B, B) == f2
        and pair(m, A, f1) == 0
        and pair(m, A, f2) == 1
        and pair(m, B, f1) == 1
        and pair(m, B, f2) == 0
    )
    chern_ok = m.c1 == m.divisor({"A": 2, "B": 3}) and m.c2 == m.curve(
        {"f1": 6, "f2": 3}
    )
    report(
        "8 (product-manifold tables)",
        entries_ok and chern_ok,
        "all eight intersection/pairing entries and both Chern classes exact",
    )


# -- 9: Euler budget -------------------------------------------------------------------


def test_criterion_9_euler_budget():
    ok = True
    for base in ((4, 1), (6, 2), (8, 3)):
        r = euler_budget(base, (92, 45))
        ok = ok and r.genus_slack == 0 and r.all_centers_rational_forced
    report(
        "9 (euler budget)",
        ok,
        "bases (4,1), (6,2), (8,3) -> slack 0, all centers forced rational",
    )
