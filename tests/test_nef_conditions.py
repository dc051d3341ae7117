import hashlib
import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from strategies import blowup_towers, models_of

from threefold import (
    BlowupTower,
    CurveCenterSpec,
    SurfaceData,
    ValidationError,
    blow_up_curve,
    blow_up_point,
    curve_step,
    line_strict_transform,
    make_base,
    make_custom_base,
    pair,
    point_step,
    replay_certificate,
)
from threefold.blowup_calculus import _center_numbers
from threefold.nef_conditions import (
    HOLDS,
    UNKNOWN,
    UNVERIFIED,
    ConditionVerdict,
    GeneralizedConfig,
    TraceEntry,
    _p3_points_lines_models,
    check_c2_positive_tower,
    check_generalized,
    check_p3_points_lines,
    check_picard1,
    check_tower,
    propagate_condition,
    seed_verdict,
)


def p3():
    return make_base("p3")


def test_seed_from_flags():
    assert seed_verdict(p3(), "A").status == HOLDS
    assert seed_verdict(make_base("p2xp1"), "B").status == HOLDS
    bare = make_custom_base(
        label="bare",
        divisor_names=["a"],
        curve_names=["x"],
        mul2={("a", "a"): {"x": 1}},
        pairing={("a", "x"): 1},
        c1={"a": 1},
        c2={"x": 1},
        euler=4,
    )
    assert seed_verdict(bare, "A").status == UNVERIFIED
    asserted = make_custom_base(
        label="asserted",
        divisor_names=["a"],
        curve_names=["x"],
        mul2={("a", "a"): {"x": 1}},
        pairing={("a", "x"): 1},
        c1={"a": 1},
        c2={"x": 1},
        euler=4,
        flags=["condition-B-asserted"],
    )
    assert seed_verdict(asserted, "B").status == HOLDS
    assert seed_verdict(asserted, "A").status == UNVERIFIED


def test_point_steps_propagate_any_condition():
    tower = BlowupTower(p3(), (point_step(),) * 3)
    for cond in ("A", "B"):
        v = check_tower(tower, cond)
        assert v.status == HOLDS
        assert v.step_tags() == ["T5", "T5", "T5"]


def test_line_propagates_condition_b_via_t7():
    base = p3()
    line = CurveCenterSpec(base.curve({"l": 1}), genus=0)
    tower = BlowupTower(base, (curve_step(line),))
    v = check_tower(tower, "B")
    assert v.status == HOLDS and v.step_tags() == ["T7"]
    assert v.trace[-1].witness("c1_dot_C") == 4


def test_point_then_line_through_it():
    base = p3()
    x1 = blow_up_point(base)
    d = CurveCenterSpec(x1.curve({"l": 1, "L1": -1}), genus=0)
    tower = BlowupTower(base, (point_step(), curve_step(d)))
    v = check_tower(tower, "B")
    assert v.status == HOLDS and v.step_tags() == ["T5", "T7"]
    # c1(X1).D = 4 - 2 = 2 != -2
    assert v.trace[-1].witness("c1_dot_C") == 2


def test_acceptance_tower_trace():
    base = p3()
    x2 = blow_up_point(blow_up_point(base))
    d12 = line_strict_transform(x2, [1, 2])
    tower = BlowupTower(base, (point_step(), point_step(), curve_step(d12)))
    v = check_tower(tower, "B")
    assert v.status == HOLDS
    assert v.step_tags() == ["T5", "T5", "T7"]
    assert v.trace[-1].witness("c1_dot_C") == 0
    assert v.trace[-1].witness("two_g_minus_2") == -2


def test_curve_with_no_applicable_case_is_unknown():
    base = p3()
    # class l with genus 3: c1.C = 4 = 2g - 2, no optional flags
    weird = CurveCenterSpec(base.curve({"l": 1}), genus=3)
    tower = BlowupTower(base, (curve_step(weird),))
    for cond in ("A", "B"):
        v = check_tower(tower, cond)
        assert v.status == UNKNOWN
        assert v.trace[-1].theorem == "none"


def test_t6_case1_odd_decomposable():
    base = p3()
    # conic: c1.C = 8 even -> case 1 needs odd, so use a line (c1.C = 4)? no:
    # 4 is even too.  Use class l/2... parity undefined.  Take p2xp1 fiber:
    m = make_base("p2xp1")
    # curve f2 = {pt} x P1: c1.f2 = pair(2A+3B, f2) = 2 -> even; f1: 3 -> odd
    odd_curve = CurveCenterSpec(
        m.curve({"f1": 1}), genus=0, normal_bundle_decomposable=True
    )
    assert pair(m, m.c1, odd_curve.curve_class) == 3
    tower = BlowupTower(m, (curve_step(odd_curve),))
    v = check_tower(tower, "A")
    assert v.status == HOLDS
    assert v.trace[-1].theorem == "T6" and v.trace[-1].case == "1-odd-decomposable"
    # without the decomposability assertion the case does not apply
    bare = CurveCenterSpec(m.curve({"f1": 1}), genus=0)
    v2 = check_tower(BlowupTower(m, (curve_step(bare),)), "A")
    assert v2.status == UNKNOWN


def test_t6_case1_fiber_of_exceptional_surface():
    # a fiber M1 of an exceptional ruled surface has c1 . M = 1 (odd) and,
    # being rational, a decomposable normal bundle: case 1 carries a holding
    # verdict through its blowup
    from threefold.nef_conditions import ConditionVerdict, TraceEntry

    base = p3()
    line = CurveCenterSpec(base.curve({"l": 1}), genus=0)
    x1 = blow_up_curve(base, line)
    fiber = CurveCenterSpec(
        x1.curve({"M1": 1}), genus=0, normal_bundle_decomposable=True
    )
    assert pair(x1, x1.c1, fiber.curve_class) == 1
    seed = ConditionVerdict("A", HOLDS, (TraceEntry(0, "base", "asserted"),))
    out = propagate_condition(seed, x1, curve_step(fiber))
    assert out.status == HOLDS
    assert out.trace[-1].theorem == "T6" and out.trace[-1].case == "1-odd-decomposable"
    assert out.trace[-1].witness("c1_dot_C") == 1


def test_t6_case2_negative_gamma_movable():
    base = p3()
    x2 = blow_up_point(blow_up_point(base))
    d12 = line_strict_transform(x2, [1, 2])  # gamma = -2
    moved = CurveCenterSpec(d12.curve_class, genus=0, movable_witness=True)
    tower = BlowupTower(base, (point_step(), point_step(), curve_step(moved)))
    v = check_tower(tower, "A")
    assert v.status == HOLDS
    assert v.trace[-1].case == "2-negative-gamma-movable"


def test_t6_case3_surface():
    base = p3()
    x2 = blow_up_point(blow_up_point(base))
    d12 = line_strict_transform(x2, [1, 2])
    # need 2 kappa < mu gamma = -2: the class h - 2E1 - E2 pairs with
    # D12 = l - L1 - L2 to kappa = 1 - 2 - 1 = -2, and 2(-2) < -2
    s = x2.divisor({"h": 1, "E1": -2, "E2": -1})
    kappa = pair(x2, s, d12.curve_class)
    assert kappa == -2
    cased = CurveCenterSpec(
        d12.curve_class, genus=0, surface_data=SurfaceData(surface=s, mu=1)
    )
    tower = BlowupTower(base, (point_step(), point_step(), curve_step(cased)))
    v = check_tower(tower, "A")
    assert v.status == HOLDS
    assert v.trace[-1].case == "3-surface"
    assert v.trace[-1].witness("kappa") == -2


def test_condition_b_prefers_t7_over_t6():
    m = make_base("p2xp1")
    center = CurveCenterSpec(
        m.curve({"f1": 1}), genus=0, normal_bundle_decomposable=True
    )
    v = check_tower(BlowupTower(m, (curve_step(center),)), "B")
    assert v.trace[-1].theorem == "T7"  # c1.C = 3 != -2 fires first


def test_propagation_is_monotone_in_flags():
    base = p3()
    x2 = blow_up_point(blow_up_point(base))
    d12 = line_strict_transform(x2, [1, 2])
    plain = CurveCenterSpec(d12.curve_class, genus=0)
    flagged = CurveCenterSpec(
        d12.curve_class,
        genus=0,
        movable_witness=True,
        normal_bundle_decomposable=True,
    )
    steps = (point_step(), point_step())
    for cond in ("A", "B"):
        v_plain = check_tower(BlowupTower(base, steps + (curve_step(plain),)), cond)
        v_flag = check_tower(BlowupTower(base, steps + (curve_step(flagged),)), cond)
        if v_plain.status == HOLDS:
            assert v_flag.status == HOLDS


def test_propagate_requires_holding_verdict():
    base = p3()
    from threefold.nef_conditions import ConditionVerdict, TraceEntry

    stuck = ConditionVerdict("A", UNKNOWN, (TraceEntry(0, "base", "x"),))
    out = propagate_condition(stuck, base, point_step())
    assert out is stuck


def test_propagate_refuses_a_center_of_a_later_model():
    # any later model of the tower may read a center, an earlier one may not
    x1 = blow_up_point(p3())
    center = CurveCenterSpec(x1.curve({"l": 1, "L1": -1}), genus=0)
    with pytest.raises(ValidationError, match="class not dimensioned for this model"):
        propagate_condition(seed_verdict(p3(), "A"), p3(), curve_step(center))
    assert propagate_condition(seed_verdict(p3(), "A"), blow_up_point(x1), curve_step(center)).status == UNKNOWN


# -- picard rank 1 -----------------------------------------------------------


def test_picard1_line_alpha_one():
    base = p3()
    line = CurveCenterSpec(base.curve({"l": 1}), genus=0)
    rep = check_picard1(BlowupTower(base, (curve_step(line),)))
    assert rep.alphas == (Q(1),)
    assert rep.verdict_a.status == HOLDS and rep.verdict_b.status == HOLDS


def test_picard1_conic_alpha_two_thirds():
    base = p3()
    conic = CurveCenterSpec(base.curve({"l": 2}), genus=0)
    rep = check_picard1(BlowupTower(base, (curve_step(conic),)))
    assert rep.alphas == (Q(2, 3),)


def test_picard1_zero_gamma_forces_alpha_zero():
    base = p3()
    # class l/2 with genus 0: c1.C = 2, gamma = 0, H.C = 1/2 > 0
    center = CurveCenterSpec(base.curve({"l": Q(1, 2)}), genus=0)
    rep = check_picard1(BlowupTower(base, (curve_step(center),)))
    assert rep.alphas == (Q(0),)


def test_picard1_points_then_curves_with_pushforward():
    base = p3()
    x1 = blow_up_point(base)
    d = CurveCenterSpec(x1.curve({"l": 1, "L1": -1}), genus=0)
    rep = check_picard1(BlowupTower(base, (point_step(), curve_step(d))))
    # pushed to the base the center is a line: alpha = 1
    assert rep.alphas == (Q(1),)
    assert rep.verdict_a.status == HOLDS


def test_picard1_rejects_nonpositive_ample_pairing():
    base = p3()
    bad = CurveCenterSpec(base.curve({"l": -1}), genus=0)
    with pytest.raises(ValidationError, match="ample pairing"):
        check_picard1(BlowupTower(base, (curve_step(bad),)))


def test_picard1_requires_rank1_flag_and_shape():
    m = make_base("p2xp1")
    rep = check_picard1(BlowupTower(m, (point_step(),)))
    assert rep.verdict_a.status == UNVERIFIED
    base = p3()
    line = CurveCenterSpec(base.curve({"l": 1}), genus=0)
    out_of_order = BlowupTower(base, (curve_step(line), point_step()))
    rep2 = check_picard1(out_of_order)
    assert rep2.verdict_a.status == UNVERIFIED


# -- c2-positive towers ------------------------------------------------------


def test_c2_positive_gives_condition_b():
    base = p3()
    x1 = blow_up_point(base)
    d = CurveCenterSpec(x1.curve({"l": 1, "L1": -1}), genus=0)
    tower = BlowupTower(base, (point_step(), curve_step(d)))
    assert check_c2_positive_tower(tower, "B").status == HOLDS


def test_c2_positive_condition_a_margin():
    base = p3()
    x1 = blow_up_point(base)
    # c1(X1).D = 2, g = 0: margin -2 - 2 = -4 < 0, A not granted
    d_fail = CurveCenterSpec(x1.curve({"l": 1, "L1": -1}), genus=0)
    tower = BlowupTower(base, (point_step(), curve_step(d_fail)))
    assert check_c2_positive_tower(tower, "A").status == UNKNOWN
    # c1(X1).D = 2 with g = 3: margin 4 - 2 = 2 >= 0, A granted
    d_ok = CurveCenterSpec(x1.curve({"l": 1, "L1": -1}), genus=3)
    tower2 = BlowupTower(base, (point_step(), curve_step(d_ok)))
    v = check_c2_positive_tower(tower2, "A")
    assert v.status == HOLDS
    assert v.trace[-1].witness("margin") == 2


def test_c2_positive_needs_flag():
    bare = make_custom_base(
        label="bare",
        divisor_names=["a"],
        curve_names=["x"],
        mul2={("a", "a"): {"x": 1}},
        pairing={("a", "x"): 1},
        c1={"a": 1},
        c2={"x": 1},
        euler=4,
    )
    v = check_c2_positive_tower(BlowupTower(bare, ()), "B")
    assert v.status == UNVERIFIED


# -- points and lines on P3 --------------------------------------------------


def closed_form_checks(report):
    """Engine-assembled coefficients must equal the symbolic expansion."""
    n = report.n
    eq_c2, eq_c1sq = report.system.equalities
    # zeta.c2: (6 + n(n-1)/2) u - (n-1) sum beta, no S term
    assert eq_c2.coeffs[0] == 6 + Q(n * (n - 1), 2)
    for l in range(1, n + 1):
        assert eq_c2.coeffs[l] == -(n - 1)
    assert eq_c2.coeffs[-1] == 0
    # zeta.c1^2: (16 - n(n-1)/2) u + (n-5) sum beta - 2S
    assert eq_c1sq.coeffs[0] == 16 - Q(n * (n - 1), 2)
    for l in range(1, n + 1):
        assert eq_c1sq.coeffs[l] == n - 5
    # no lines, no exceptional multipliers for n = 1
    assert eq_c1sq.coeffs[-1] == (-2 if n >= 2 else 0)


# n = 20 (rho = 211) used to exhaust memory with dense rho^3 tables; n = 30 is rho = 466
@pytest.mark.parametrize("n", [*range(1, 13), 20, 30])
def test_p3_points_lines_forced(n):
    report = check_p3_points_lines(n)
    assert report.forced, report.verdict
    assert report.maximum == 0
    assert replay_certificate(report.system, "deg_u", report.result)
    closed_form_checks(report)


def test_p3_points_lines_n30_under_2gib_address_space():
    import os
    import subprocess
    import sys

    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from threefold import check_p3_points_lines\n"
        "print(check_p3_points_lines(30).verdict)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "deg(u)=0 forced"


def test_p3_points_lines_n60_under_256mib_address_space():
    # rho = 1831: the models of the tower share one append-only store, so
    # the tables take O(nnz) memory (a copy per model took 412 MB)
    import os
    import subprocess
    import sys

    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "from threefold import check_p3_points_lines\n"
        "print(check_p3_points_lines(60).verdict)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "deg(u)=0 forced"


# sha256 of every report and X2 model below, pinned when the curve blowups
# and divisor products still summed Fractions coefficient by coefficient
P3_POINTS_LINES_DIGEST = "7bd5dda0e017d7a374e41f105e375b9e390334402bbcb6fa440345dd246bd05c"


def test_p3_points_lines_bytes_are_pinned():
    digest = hashlib.sha256()
    for n in [*range(1, 21), 24]:
        r = check_p3_points_lines(n)
        digest.update(repr((r.verdict, r.maximum, r.system, r.result, r.certificate_lines)).encode())
        x2 = _p3_points_lines_models(n)[1]
        digest.update(repr((
            x2.divisor_basis, x2.curve_basis, x2.c1, x2.c2, x2.euler, x2.picard,
            sorted((k, sorted(e.items())) for k, e in x2.mul2.items()),
            sorted(x2.pairing.items()),
        )).encode())
    assert digest.hexdigest() == P3_POINTS_LINES_DIGEST


def test_p3_points_lines_case_structure():
    # n <= 3: one line bound per point; 4 <= n <= 5 one aggregate row;
    # 6 <= n <= 9 one row per 6-subset; n >= 10 sign rows only
    def extra_rows(n):
        rep = check_p3_points_lines(n)
        sign = 1 + n + 1
        return len(rep.system.inequalities) - sign

    assert extra_rows(2) == 2
    assert extra_rows(4) == 1
    assert extra_rows(7) == len(list(itertools.combinations(range(7), 6)))
    assert extra_rows(11) == 0


def test_p3_points_lines_certificate_text():
    rep = check_p3_points_lines(2)
    assert rep.certificate_lines
    assert any("zeta.c2" in line for line in rep.certificate_lines)


def test_p3_points_lines_rejects_bad_n():
    with pytest.raises(ValidationError):
        check_p3_points_lines(0)


# -- generalized criterion ----------------------------------------------------


def theorem_config(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    incidence = tuple(
        tuple(Q(1) if l in pr else Q(0) for pr in pairs) for l in range(1, n + 1)
    )
    return GeneralizedConfig(
        n=n,
        curves=tuple((1, 0) for _ in pairs),
        incidence=incidence,
        lam=Q(n - 1),
    )


def test_generalized_reproduces_n_ge_10_threshold():
    assert check_generalized(theorem_config(10)).ok
    assert check_generalized(theorem_config(11)).ok
    rep9 = check_generalized(theorem_config(9))
    assert not rep9.ok and not rep9.density_ok  # (6+36)/8 = 21/4 <= 11/2


def test_generalized_single_conjunct_failures():
    # violate only the per-curve inequality: a high-genus curve
    cfg = GeneralizedConfig(
        n=1,
        curves=((1, 9),),  # degree-1 curve of genus 9: c1.D = 4 - 2e
        incidence=((Q(2),),),
        lam=Q(2),
    )
    rep = check_generalized(cfg)
    assert not rep.per_curve_ok
    # violate only the density bound: tiny gamma, big lambda
    cfg2 = GeneralizedConfig(
        n=1, curves=((1, 0),), incidence=((Q(0),),), lam=Q(100)
    )
    rep2 = check_generalized(cfg2)
    assert rep2.row_sums_ok and not rep2.density_ok
    # violate only the row sums
    cfg3 = GeneralizedConfig(
        n=1, curves=((1, 0), (1, 0)), incidence=((Q(1), Q(1)),), lam=Q(1)
    )
    rep3 = check_generalized(cfg3)
    assert not rep3.row_sums_ok


def test_generalized_requires_positive_lambda():
    with pytest.raises(ValidationError):
        GeneralizedConfig(n=1, curves=(), incidence=((),), lam=Q(0))


# -- the checkers against their fold over every model of the tower ----------


def _reference_propagate_condition(verdict, model_before, step):
    """propagate_condition as first written: c1.C and S.C paired on the
    model the step blows up."""
    if verdict.status != HOLDS:
        return verdict
    step_index = sum(1 for e in verdict.trace if e.step > 0) + 1
    if step.kind == "point":
        return verdict.with_entry(HOLDS, TraceEntry(step_index, "T5", "point"))
    center = step.center
    c1_dot_c = pair(model_before, model_before.c1, center.curve_class)
    g = center.genus
    gam = c1_dot_c + 2 * g - 2
    base_witnesses = (
        ("c1_dot_C", c1_dot_c),
        ("genus", g),
        ("two_g_minus_2", Q(2 * g - 2)),
        ("gamma", gam),
    )
    if verdict.condition == "B" and c1_dot_c != 2 * g - 2:
        return verdict.with_entry(HOLDS, TraceEntry(step_index, "T7", "c1C-not-2g-2", base_witnesses))
    odd = c1_dot_c.denominator == 1 and int(c1_dot_c) % 2 != 0
    if odd and center.normal_bundle_decomposable is True:
        return verdict.with_entry(HOLDS, TraceEntry(step_index, "T6", "1-odd-decomposable", base_witnesses))
    if gam < 0 and center.movable_witness is True:
        return verdict.with_entry(
            HOLDS, TraceEntry(step_index, "T6", "2-negative-gamma-movable", base_witnesses)
        )
    if center.surface_data is not None:
        sd = center.surface_data
        kappa = pair(model_before, sd.surface, center.curve_class)
        if 2 * kappa < sd.mu * gam:
            witnesses = base_witnesses + (("kappa", kappa), ("mu", Q(sd.mu)))
            return verdict.with_entry(HOLDS, TraceEntry(step_index, "T6", "3-surface", witnesses))
    return verdict.with_entry(UNKNOWN, TraceEntry(step_index, "none", "no-case-applies", base_witnesses))


def _reference_check_tower(tower, condition):
    """check_tower as first written: each step read on the model before it."""
    models = models_of(tower)
    verdict = seed_verdict(models[0], condition)
    if verdict.status != HOLDS:
        return verdict
    for k, step in enumerate(tower.steps):
        verdict = _reference_propagate_condition(verdict, models[k], step)
        if verdict.status != HOLDS:
            break
    return verdict


def _reference_check_c2_positive_tower(tower, condition):
    """check_c2_positive_tower as first written, on the model before each step."""
    models = models_of(tower)
    if "c2-movable-positive" not in tower.base.base_flags:
        return ConditionVerdict(condition, UNVERIFIED, (TraceEntry(0, "T4", "base-not-c2-positive"),))
    kinds = [step.kind for step in tower.steps]
    if ("curve", "point") in zip(kinds, kinds[1:]):
        return ConditionVerdict(condition, UNVERIFIED, (TraceEntry(0, "T4", "steps-not-points-then-curves"),))
    entries = [TraceEntry(0, "T4", "c2-movable-positive")]
    all_margins_ok = True
    for k, step in enumerate(tower.steps):
        if step.kind == "point":
            entries.append(TraceEntry(k + 1, "T4", "point"))
            continue
        center = step.center
        c1_dot_c = pair(models[k], models[k].c1, center.curve_class)
        margin = (2 * center.genus - 2) - c1_dot_c
        all_margins_ok = all_margins_ok and margin >= 0
        entries.append(
            TraceEntry(
                k + 1,
                "T4",
                "curve-margin",
                (
                    ("c1_dot_C", c1_dot_c),
                    ("two_g_minus_2", Q(2 * center.genus - 2)),
                    ("margin", margin),
                    ("margin_ok", margin >= 0),
                ),
            )
        )
    status = HOLDS if condition == "B" or all_margins_ok else UNKNOWN
    return ConditionVerdict(condition, status, tuple(entries))


@settings(max_examples=300, deadline=None)
@given(blowup_towers())
def test_checkers_reading_the_top_match_the_fold_over_every_model(tower):
    for condition in ("A", "B"):
        assert repr(check_tower(tower, condition)) == repr(_reference_check_tower(tower, condition))
        assert repr(check_c2_positive_tower(tower, condition)) == repr(
            _reference_check_c2_positive_tower(tower, condition)
        )


@settings(max_examples=150, deadline=None)
@given(blowup_towers())
def test_center_numbers_on_every_later_model_equal_the_pairing_below(tower):
    models = models_of(tower)
    for k, step in enumerate(tower.steps):
        if step.kind == "point":
            continue
        center, below = step.center, models[k]
        sd = center.surface_data
        want = (
            pair(below, below.c1, center.curve_class),
            None if sd is None else pair(below, sd.surface, center.curve_class),
        )
        for later in models[k:]:
            assert _center_numbers(later, center)[:2] == want
