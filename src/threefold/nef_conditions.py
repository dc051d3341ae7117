"""Condition A / Condition B decision procedures for blowup towers.

Condition A (resp. B) asks that every nef class with square zero and the
appropriate c1/c2 sign constraints be proportional to a rational class.
Either condition forces strong conclusions about automorphisms (zero
entropy for A, equal first and second dynamical degrees for B), and both
propagate along blowups under checkable hypotheses:

- point blowups always preserve the condition (tag T5);
- a curve blowup preserves Condition B when c1.C != 2g - 2 (tag T7);
- a curve blowup preserves either condition when one of three cases holds
  (tag T6): (1) c1.C odd with decomposable normal bundle, (2) gamma < 0
  with the center movable in its class, (3) a hypersurface through the
  center with 2 kappa < mu gamma.

Whole-tower theorems: a Picard-rank-1 base gives both conditions for
points-then-disjoint-curves towers with rational alpha witnesses (tag T3);
a base with c2 positive on movable classes gives Condition B for such
towers, plus Condition A when every center has c1.C <= 2g - 2 (tag T4).

The points-and-lines configuration on P3 is decided by an exact rational
feasibility computation whose every coefficient is recomputed through the
intersection engine, never transcribed.  Checkers return "unknown" rather
than "fails": the theorems are sufficient conditions only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .blowup_calculus import (
    BlowupStep,
    BlowupTower,
    _center_numbers,
    blow_up_curve,
    blow_up_point,
    line_strict_transform,
    point_step,
)
from .intersection_ring import (
    FLAG_C2_MOVABLE_POSITIVE,
    FLAG_CONDITION_A,
    FLAG_CONDITION_B,
    FLAG_PICARD_RANK_1,
    ONE,
    ZERO,
    ThreefoldModel,
    ValidationError,
    make_base,
    meets,
    multiply_divisors,
    pair,
)
from .linprog import (
    ConstraintSystem,
    FeasibleResult,
    LinearForm,
    rational_feasible,
    render_certificate,
)

QQ = Fraction

HOLDS = "holds-by-theorem"
UNKNOWN = "unknown"
UNVERIFIED = "hypotheses-unverified"

__all__ = [
    "HOLDS",
    "UNKNOWN",
    "UNVERIFIED",
    "TraceEntry",
    "ConditionVerdict",
    "propagate_condition",
    "check_tower",
    "Picard1Report",
    "check_picard1",
    "check_c2_positive_tower",
    "P3LinesReport",
    "check_p3_points_lines",
    "GeneralizedConfig",
    "GeneralizedReport",
    "check_generalized",
]


@dataclass(frozen=True)
class TraceEntry:
    """One justification step: which theorem/case was applied at which tower
    step (step 0 is the base), with the computed witnesses."""

    step: int
    theorem: str
    case: str = ""
    witnesses: tuple[tuple[str, object], ...] = ()

    def witness(self, key: str):
        for k, v in self.witnesses:
            if k == key:
                return v
        raise KeyError(key)


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str  # "A" or "B"
    status: str  # HOLDS, UNKNOWN, UNVERIFIED
    trace: tuple[TraceEntry, ...] = ()

    def __post_init__(self):
        if self.condition not in ("A", "B"):
            raise ValidationError("condition must be 'A' or 'B'")
        if self.status not in (HOLDS, UNKNOWN, UNVERIFIED):
            raise ValidationError(f"bad verdict status {self.status!r}")

    def step_tags(self) -> list[str]:
        return [e.theorem for e in self.trace if e.step > 0]

    def with_entry(self, status: str, entry: TraceEntry) -> "ConditionVerdict":
        return ConditionVerdict(self.condition, status, self.trace + (entry,))


def seed_verdict(model: ThreefoldModel, condition: str) -> ConditionVerdict:
    """Starting verdict for a base model, from its asserted hypothesis flags.

    A rank-1 base satisfies both conditions outright (every class is a
    rational multiple of the generator); a c2-movable-positive base does as
    well, by the zero-blowup case of the c2 tower theorem.  Explicit
    condition assertions on custom bases are honored; anything else starts
    unverified.
    """
    flags = model.base_flags
    assert_flag = FLAG_CONDITION_A if condition == "A" else FLAG_CONDITION_B
    if assert_flag in flags:
        case = "asserted"
    elif FLAG_PICARD_RANK_1 in flags:
        case = "picard-rank-1"
    elif FLAG_C2_MOVABLE_POSITIVE in flags:
        case = "c2-movable-positive"
    else:
        return ConditionVerdict(
            condition,
            UNVERIFIED,
            (TraceEntry(0, "base", "no-verified-hypotheses"),),
        )
    return ConditionVerdict(condition, HOLDS, (TraceEntry(0, "base", case),))


def propagate_condition(
    verdict: ConditionVerdict,
    model_before: ThreefoldModel,
    step: BlowupStep,
) -> ConditionVerdict:
    """Push a holding verdict through one blowup step.

    Point steps always carry the condition (T5).  Curve steps try, in order:
    T7 (Condition B only, c1.C != 2g-2), then the three T6 cases; cases
    whose optional flags are missing are skipped, never errors.  If nothing
    applies the verdict degrades to unknown.  The step's number is one past
    the steps already in the trace.  model_before is the model the step
    blows up, or any later model of the tower: the center reads the same.
    """
    if verdict.status != HOLDS:
        return verdict
    step_index = sum(1 for e in verdict.trace if e.step > 0) + 1
    if step.kind == "point":
        return verdict.with_entry(HOLDS, TraceEntry(step_index, "T5", "point"))

    center = step.center
    c1_dot_c, kappa = _center_numbers(model_before, center)[:2]
    g = center.genus
    gam = c1_dot_c + 2 * g - 2
    base_witnesses = (
        ("c1_dot_C", c1_dot_c),
        ("genus", g),
        ("two_g_minus_2", QQ(2 * g - 2)),
        ("gamma", gam),
    )

    if verdict.condition == "B" and c1_dot_c != 2 * g - 2:
        return verdict.with_entry(
            HOLDS, TraceEntry(step_index, "T7", "c1C-not-2g-2", base_witnesses)
        )

    odd = c1_dot_c.denominator == 1 and int(c1_dot_c) % 2 != 0
    if odd and center.normal_bundle_decomposable is True:
        return verdict.with_entry(
            HOLDS,
            TraceEntry(step_index, "T6", "1-odd-decomposable", base_witnesses),
        )

    if gam < 0 and center.movable_witness is True:
        return verdict.with_entry(
            HOLDS,
            TraceEntry(step_index, "T6", "2-negative-gamma-movable", base_witnesses),
        )

    if kappa is not None and 2 * kappa < center.surface_data.mu * gam:
        mu = QQ(center.surface_data.mu)
        return verdict.with_entry(
            HOLDS,
            TraceEntry(step_index, "T6", "3-surface", base_witnesses + (("kappa", kappa), ("mu", mu))),
        )

    return verdict.with_entry(
        UNKNOWN, TraceEntry(step_index, "none", "no-case-applies", base_witnesses)
    )


def check_tower(tower: BlowupTower, condition: str) -> ConditionVerdict:
    """Fold propagate_condition along the tower, seeding from the base flags
    and reading every center on the top model."""
    top = tower.top()
    verdict = seed_verdict(tower.base, condition)
    if verdict.status != HOLDS:
        return verdict
    for step in tower.steps:
        verdict = propagate_condition(verdict, top, step)
        if verdict.status != HOLDS:
            break
    return verdict


# ---------------------------------------------------------------------------
# Picard-rank-1 towers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Picard1Report:
    verdict_a: ConditionVerdict
    verdict_b: ConditionVerdict
    alphas: tuple[Fraction, ...]


def _whole_tower_gate(
    tower: BlowupTower, theorem: str, flag: str, no_flag_case: str
) -> TraceEntry | None:
    """The UNVERIFIED entry of a whole-tower theorem (T3, T4) whose base lacks
    its flag or whose steps are not all points then all curves; else None."""
    if flag not in tower.base.base_flags:
        return TraceEntry(0, theorem, no_flag_case)
    kinds = [step.kind for step in tower.steps]
    if ("curve", "point") in zip(kinds, kinds[1:]):
        return TraceEntry(0, theorem, "steps-not-points-then-curves")
    return None


def check_picard1(tower: BlowupTower) -> Picard1Report:
    """Both conditions for points-then-disjoint-curves towers over a rank-1
    base, with the forced alpha of each curve center as witness.

    Curve centers are pushed down to the base (the blowup order is re-
    arranged so the curves come first and the points become fibers of the
    exceptional ruled surfaces, or plain point blowups); each alpha is 0
    when gamma vanishes and 2 H.C / gamma otherwise, and rationality of all
    of them is what makes the conditions hold.
    """
    tower.top()  # builds, and so validates, every step
    gate = _whole_tower_gate(tower, "T3", FLAG_PICARD_RANK_1, "base-not-picard-rank-1")
    if gate is not None:
        return Picard1Report(
            ConditionVerdict("A", UNVERIFIED, (gate,)),
            ConditionVerdict("B", UNVERIFIED, (gate,)),
            (),
        )

    base = tower.base
    n_base_curves = len(base.curve_basis)
    H = base.divisor([ONE] + [ZERO] * (len(base.divisor_basis) - 1))
    alphas: list[Fraction] = []
    entries: list[TraceEntry] = [TraceEntry(0, "T3", "picard-rank-1-base")]
    for k, step in enumerate(tower.steps):
        if step.kind == "point":
            entries.append(
                TraceEntry(
                    k + 1,
                    "T3",
                    "point-as-fiber",
                    (("c1_dot_fiber", QQ(1)), ("odd", True)),
                )
            )
            continue
        center = step.center
        pushed = base.curve(center.curve_class.coeffs[:n_base_curves])
        h_dot_c = pair(base, H, pushed)
        if h_dot_c <= 0:
            raise ValidationError(
                f"invalid input: ample pairing H.C = {h_dot_c} must be positive "
                f"for center at step {k + 1}"
            )
        gam = pair(base, base.c1, pushed) + 2 * center.genus - 2
        alpha = ZERO if gam == 0 else 2 * h_dot_c / gam
        alphas.append(alpha)
        entries.append(
            TraceEntry(
                k + 1,
                "T3",
                "alpha-witness",
                (("H_dot_C", h_dot_c), ("gamma", gam), ("alpha", alpha)),
            )
        )

    trace = tuple(entries)
    return Picard1Report(
        verdict_a=ConditionVerdict("A", HOLDS, trace),
        verdict_b=ConditionVerdict("B", HOLDS, trace),
        alphas=tuple(alphas),
    )


# ---------------------------------------------------------------------------
# c2-positive towers
# ---------------------------------------------------------------------------


def check_c2_positive_tower(tower: BlowupTower, condition: str) -> ConditionVerdict:
    """Condition B for points-then-disjoint-curves towers over a base whose
    c2 pairs positively with every non-zero movable class; Condition A
    additionally needs every curve center to satisfy c1.C <= 2g - 2 (the
    per-center margin is recorded in the trace)."""
    if condition not in ("A", "B"):
        raise ValidationError("condition must be 'A' or 'B'")
    top = tower.top()
    gate = _whole_tower_gate(tower, "T4", FLAG_C2_MOVABLE_POSITIVE, "base-not-c2-positive")
    if gate is not None:
        return ConditionVerdict(condition, UNVERIFIED, (gate,))

    entries = [TraceEntry(0, "T4", "c2-movable-positive")]
    all_margins_ok = True
    for k, step in enumerate(tower.steps):
        if step.kind == "point":
            entries.append(TraceEntry(k + 1, "T4", "point"))
            continue
        center = step.center
        c1_dot_c = _center_numbers(top, center)[0]
        margin = (2 * center.genus - 2) - c1_dot_c
        ok = margin >= 0
        all_margins_ok = all_margins_ok and ok
        entries.append(
            TraceEntry(
                k + 1,
                "T4",
                "curve-margin",
                (
                    ("c1_dot_C", c1_dot_c),
                    ("two_g_minus_2", QQ(2 * center.genus - 2)),
                    ("margin", margin),
                    ("margin_ok", ok),
                ),
            )
        )

    if condition == "B":
        return ConditionVerdict("B", HOLDS, tuple(entries))
    status = HOLDS if all_margins_ok else UNKNOWN
    return ConditionVerdict("A", status, tuple(entries))


# ---------------------------------------------------------------------------
# P3 points-and-lines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class P3LinesReport:
    n: int
    verdict: str  # "deg(u)=0 forced" | "inconclusive"
    maximum: Fraction | None
    system: ConstraintSystem
    result: FeasibleResult
    certificate_lines: tuple[str, ...]

    @property
    def forced(self) -> bool:
        return self.verdict == "deg(u)=0 forced"


def _p3_points_lines_models(n: int):
    """Build X1 (P3 blown up in n points) and X2 (all connecting lines
    blown up on X1), returning (x1, x2, line count).  Only the current
    model is kept, so the line's shared tables are the only memory that
    grows with the tower."""
    x1 = make_base("p3")
    for _ in range(n):
        x1 = blow_up_point(x1)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    x2 = x1
    for (i, j) in pairs:
        x2 = blow_up_curve(x2, line_strict_transform(x2, (i, j), label=f"D{i}{j}"))
    return x1, x2, len(pairs)


def check_p3_points_lines(n: int) -> P3LinesReport:
    """Decide whether nef degrees are forced to zero for the configuration
    of n general points and all their connecting lines on P3.

    The two homogeneous equalities (pairing the class against c2 and
    against c1 squared) are expanded through the blowup engine; the
    exceptional multipliers enter only through their non-negative sum S.
    The nef inequalities depend on n: none beyond sign constraints for
    n >= 10, one cubic inequality per 6-subset for 6 <= n <= 9, the
    aggregate rational-normal-curve bound for n in {4, 5}, and the
    one-point line bounds for n <= 3.  The maximum of deg(u) is computed
    by the exact LP engine and "forced" means it is exactly zero, with the
    dual combination returned as a replayable certificate.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    x1, x2, n_lines = _p3_points_lines_models(n)

    nd = len(x2.divisor_basis)
    variables = ["deg_u"] + [f"beta{l}" for l in range(1, n + 1)] + ["S"]
    nv = len(variables)

    # zeta . c2(X2) and zeta . c1(X2)^2, coefficient per basis divisor
    c2_by_basis = meets(x2, x2.c2)
    c1sq_by_basis = meets(x2, multiply_divisors(x2, x2.c1, x2.c1))

    def point_coeffs(by_basis):
        # the deg_u and beta_l coefficients: h and -E_l paired with the class
        return [by_basis.get(0, ZERO)] + [-by_basis.get(l, ZERO) for l in range(1, n + 1)]

    def assemble(by_basis, label):
        alpha_coeffs = {-by_basis.get(k, ZERO) for k in range(n + 1, nd)}
        if len(alpha_coeffs) > 1:
            raise ValidationError(
                f"exceptional multiplier coefficients differ in {label}: {alpha_coeffs}"
            )
        s_coeff = alpha_coeffs.pop() if alpha_coeffs else ZERO
        return LinearForm(tuple(point_coeffs(by_basis) + [s_coeff]), label=label)

    equalities = (
        assemble(c2_by_basis, "zeta.c2(X2) = 0"),
        assemble(c1sq_by_basis, "zeta.c1(X2)^2 = 0"),
    )

    ineqs: list[LinearForm] = []

    def sign_row(idx, label):
        coeffs = [ZERO] * nv
        coeffs[idx] = ONE
        ineqs.append(LinearForm(tuple(coeffs), label=label))

    sign_row(0, "deg_u >= 0")
    for l in range(1, n + 1):
        sign_row(l, f"beta{l} >= 0")
    sign_row(nv - 1, "S >= 0")

    # xi . D for xi = deg_u * h - sum beta_l E_l and D a curve class on X1
    def nef_row_from_curve(curve_coeffs: dict, label: str):
        by_basis = meets(x1, x1.curve(curve_coeffs))
        ineqs.append(LinearForm(tuple(point_coeffs(by_basis) + [ZERO]), label=label))

    if n <= 3:
        for l in range(1, n + 1):
            nef_row_from_curve({"l": ONE, f"L{l}": -ONE}, f"line-through-p{l}")
    elif n <= 5:
        # aggregate rational-normal-curve bound, encoded as printed
        coeffs = [ZERO] * nv
        coeffs[0] = QQ(n, 3)
        for l in range(1, n + 1):
            coeffs[l] = -ONE
        ineqs.append(LinearForm(tuple(coeffs), label="rational-normal-curves(aggregate)"))
    elif n <= 9:
        for subset in itertools.combinations(range(1, n + 1), 6):
            cc = {"l": QQ(3)}
            for l in subset:
                cc[f"L{l}"] = -ONE
            nef_row_from_curve(cc, f"twisted-cubic{subset}")
    # n >= 10: nothing beyond the sign constraints

    system = ConstraintSystem(tuple(variables), equalities, tuple(ineqs))
    result = rational_feasible(system, "deg_u")
    forced = result.status == "optimal" and result.maximum == 0
    verdict = "deg(u)=0 forced" if forced else "inconclusive"
    cert_lines = tuple(render_certificate(system, result)) if forced else ()
    return P3LinesReport(
        n=n,
        verdict=verdict,
        maximum=result.maximum,
        system=system,
        result=result,
        certificate_lines=cert_lines,
    )


# ---------------------------------------------------------------------------
# the generalized points-and-curves criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneralizedConfig:
    """n blown-up points, disjoint curves D_j given by (degree, genus), the
    incidence table of exceptional planes against the curves, and the
    positive slack lambda."""

    n: int
    curves: tuple[tuple[int, int], ...]  # (degree, genus) per curve
    incidence: tuple[tuple[Fraction, ...], ...]  # [point l][curve j] = E_l . D_j
    lam: Fraction

    def __post_init__(self):
        if self.lam <= 0:
            raise ValidationError("lambda must be positive")
        if len(self.incidence) != self.n:
            raise ValidationError("incidence table needs one row per point")
        for row in self.incidence:
            if len(row) != len(self.curves):
                raise ValidationError("incidence row has wrong length")


@dataclass(frozen=True)
class GeneralizedReport:
    ok: bool
    row_sums_ok: bool
    density_ok: bool
    per_curve_ok: bool
    gamma_total: Fraction
    density_lhs: Fraction
    details: tuple[str, ...]


def check_generalized(config: GeneralizedConfig) -> GeneralizedReport:
    """The three-hypothesis criterion for points-then-curves towers on P3:
    bounded incidence row sums, (6 + gamma)/lambda > 11/2, and the
    per-curve c1 inequality, all computed through the engine."""
    n = config.n
    model = BlowupTower(make_base("p3"), (point_step(),) * n).top()

    details = []
    gamma_total = sum((QQ(deg) for deg, _g in config.curves), ZERO)

    row_sums_ok = True
    for l in range(1, n + 1):
        s = sum((config.incidence[l - 1][j] for j in range(len(config.curves))), ZERO)
        if s > config.lam:
            row_sums_ok = False
            details.append(f"row sum at point {l} is {s} > lambda = {config.lam}")

    density_lhs = (6 + gamma_total) / config.lam
    density_ok = density_lhs > QQ(11, 2)
    if not density_ok:
        details.append(f"(6 + gamma)/lambda = {density_lhs} <= 11/2")

    per_curve_ok = True
    for j, (deg, g) in enumerate(config.curves):
        coeffs = {"l": QQ(deg)}
        for l in range(1, n + 1):
            e = config.incidence[l - 1][j]
            if e:
                coeffs[f"L{l}"] = -e
        d = model.curve(coeffs)
        c1_dot = pair(model, model.c1, d)
        lhs = (QQ(1, 2) + 1 / config.lam) * c1_dot
        rhs = QQ(g - 1, 2)
        if lhs < rhs:
            per_curve_ok = False
            details.append(
                f"curve {j}: (1/2 + 1/lambda) c1.D = {lhs} < (g-1)/2 = {rhs}"
            )

    ok = row_sums_ok and density_ok and per_curve_ok
    return GeneralizedReport(
        ok=ok,
        row_sums_ok=row_sums_ok,
        density_ok=density_ok,
        per_curve_ok=per_curve_ok,
        gamma_total=gamma_total,
        density_lhs=density_lhs,
        details=tuple(details),
    )
