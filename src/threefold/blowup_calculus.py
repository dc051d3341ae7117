"""Blowup transforms of a ThreefoldModel at a point or along a smooth curve.

A point blowup adds an exceptional plane (divisor E, line class L); a curve
blowup adds an exceptional ruled surface (divisor F, fiber class M).  Both
extend the product and pairing tables, propagate the Chern classes, and bump
the Euler characteristic and Picard number.

Conventions for the new tables, with pi* the divisor pullback and pi^! the
curve-class pullback (pad by zero on the new exceptional curve coordinate):

  point:  pi*(a).pi*(b) = pi^!(a.b),  pi*(a).E = 0,  E.E = -L,
          pair(pi*(a), L) = 0, pair(E, pi^! c) = 0, pair(E, L) = -1,
          c1 -> pi*(c1) - 2E, c2 -> pi^!(c2), euler += 2.

  curve C of genus g, gamma = c1.C + 2g - 2:
          pi*(a).F = (a.C) M,  F.F = -pi^!(C) + gamma M,
          pair(pi*(a), M) = 0, pair(F, pi^! c) = 0, pair(F, M) = -1,
          c1 -> pi*(c1) - F, c2 -> pi^!(c2 + C) - (c1.C) M, euler += 2 - 2g.

These are the unique extensions reproducing F^3 = -gamma and the pushforward
identity of F.F onto -C, given that pullbacks pair to zero against the new
exceptional classes.  Disjointness of successive curve centers is the
caller's assertion; a center meeting an earlier exceptional divisor is
handled purely through its class (the E.C coefficient lands on M).

The tables are sparse (see ThreefoldModel), so the zero padding is implicit:
a blowup copies its parent's dicts shallowly and adds only its non-zero new
entries, E.E and pair(E, L) for a point, pi*(e_i).F for each e_i meeting C,
F.F and pair(F, M) for a curve.

A curve step costs one walk of the pairing plus work on the center's
non-zero coordinates: the walk gives e_i.C for every divisor generator, and
c1.C (hence gamma) and S.C for surface_data are sums over those e_i.C;
F.F and the c2 update touch only the support of C.  The O(rho) rest is
C-level copying: the two table dicts and the inherited Chern coefficients,
which are already Fractions and are not converted again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress

from .intersection_ring import (
    CURVE,
    DIVISOR,
    ONE,
    ZERO,
    BasisElement,
    CurveClass,
    DivisorClass,
    ThreefoldModel,
    ValidationError,
    pair,
)

QQ = Fraction


def _require_int(value, what: str) -> None:
    # a float or Fraction here would leak into the exact tables; bool is not a count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SurfaceData:
    """A hypersurface through a curve center: its class, the multiplicity of
    the curve in it, and kappa = S.C (recomputed from the class when omitted)."""

    surface: DivisorClass
    mu: int
    kappa: Fraction | None = None

    def __post_init__(self):
        _require_int(self.mu, "surface multiplicity mu")
        if self.mu < 1:
            raise ValidationError("surface multiplicity mu must be >= 1")


@dataclass(frozen=True)
class CurveCenterSpec:
    """A curve blowup center: its class in the current model, its genus, and
    optional geometric facts the lattice cannot see (asserted by the caller)."""

    curve_class: CurveClass
    genus: int
    disjoint_from: tuple[str, ...] = ()
    normal_bundle_decomposable: bool | None = None
    tau0: int | None = None
    surface_data: SurfaceData | None = None
    movable_witness: bool | None = None
    label: str = ""

    def __post_init__(self):
        _require_int(self.genus, "genus")
        if self.genus < 0:
            raise ValidationError("genus must be non-negative")
        if self.curve_class.is_zero():
            raise ValidationError("curve center class is zero")


@dataclass(frozen=True)
class BlowupStep:
    """One tower step: kind "point", or kind "curve" with a center."""

    kind: str
    center: CurveCenterSpec | None = None

    def __post_init__(self):
        if self.kind not in ("point", "curve"):
            raise ValidationError(f"bad blowup step kind {self.kind!r}")
        if self.kind == "curve" and self.center is None:
            raise ValidationError("curve step needs a center")


def point_step() -> BlowupStep:
    return BlowupStep("point")


def curve_step(center: CurveCenterSpec) -> BlowupStep:
    return BlowupStep("curve", center)


@dataclass(frozen=True)
class BlowupTower:
    """A base model plus an ordered list of blowup steps, and the models
    they build.

    Curve centers must be dimensioned for the model at their own step.  The
    models [base, after step 1, ..., after step k] are built once, on first
    use, and kept: evaluate() and top() read them, and with_step() extends
    them by one blowup, so a tower grown step by step (as the tower-file
    parser does) blows each step up exactly once.  Building them is what
    validates the centers.
    """

    base: ThreefoldModel
    steps: tuple[BlowupStep, ...] = ()

    @cached_property
    def _models(self) -> tuple[ThreefoldModel, ...]:
        models = [self.base]
        for step in self.steps:
            models.append(_blow_up(models[-1], step))
        return tuple(models)

    def evaluate(self) -> list[ThreefoldModel]:
        """One model per prefix: [base, after step 1, ..., after step k]."""
        return list(self._models)

    def top(self) -> ThreefoldModel:
        return self._models[-1]

    def with_step(self, step: BlowupStep) -> "BlowupTower":
        """This tower one step longer, reusing the models already built."""
        longer = BlowupTower(self.base, self.steps + (step,))
        # the dataclass is frozen; seed the cache the way cached_property fills it
        object.__setattr__(longer, "_models", self._models + (_blow_up(self.top(), step),))
        return longer


def _blow_up(model: ThreefoldModel, step: BlowupStep) -> ThreefoldModel:
    if step.kind == "point":
        return blow_up_point(model)
    return blow_up_curve(model, step.center)


# ---------------------------------------------------------------------------
# the two blowup transforms
# ---------------------------------------------------------------------------


def _fresh_name(taken: set[str], stem: str) -> str:
    k = 1
    while f"{stem}{k}" in taken:
        k += 1
    return f"{stem}{k}"


def blow_up_point(model: ThreefoldModel) -> ThreefoldModel:
    """Blow up a point: basis gains E (divisor) and L (line in E)."""
    n = len(model.divisor_basis)
    step_index = _next_step_index(model)
    taken_d = set(model.divisor_names())
    taken_c = set(model.curve_names())
    e_name = _fresh_name(taken_d, "E")
    l_name = _fresh_name(taken_c, "L")

    # pi*(a).E = 0 and pair(E, pi^! c) = 0 need no entry: E.E = -L, pair(E, L) = -1
    mul2 = dict(model.mul2)
    mul2[(n, n)] = {n: -ONE}
    pairing = dict(model.pairing)
    pairing[(n, n)] = -ONE

    c1 = DivisorClass(model.c1.coeffs + (QQ(-2),))
    c2 = CurveClass(model.c2.coeffs + (ZERO,))
    return ThreefoldModel(
        label=f"{model.label}+pt",
        divisor_basis=model.divisor_basis
        + (BasisElement(e_name, DIVISOR, "exceptional", step_index),),
        curve_basis=model.curve_basis
        + (BasisElement(l_name, CURVE, "exceptional", step_index),),
        mul2=mul2,
        pairing=pairing,
        c1=c1,
        c2=c2,
        euler=model.euler + 2,
        picard=model.picard + 1,
        base_flags=frozenset(),
        parent=model,
    )


def gamma(model: ThreefoldModel, center: CurveCenterSpec) -> Fraction:
    """Normal-bundle degree of the center: c1 . C + 2g - 2."""
    if len(center.curve_class) != len(model.curve_basis):
        raise ValidationError("center class not dimensioned for this model")
    return pair(model, model.c1, center.curve_class) + 2 * center.genus - 2


def blow_up_curve(model: ThreefoldModel, center: CurveCenterSpec) -> ThreefoldModel:
    """Blow up a smooth curve: basis gains F (ruled divisor) and M (fiber)."""
    n = len(model.divisor_basis)
    cvec = center.curve_class.coeffs
    if len(cvec) != len(model.curve_basis):
        raise ValidationError("center class not dimensioned for this model")
    sd = center.surface_data
    if sd is not None and len(sd.surface) != n:
        raise ValidationError("surface class not dimensioned for this model")
    step_index = _next_step_index(model)

    # the center's non-zero coordinates, ascending
    on_c = {a: cvec[a] for a in compress(range(len(cvec)), cvec)}
    # e_i . C for each divisor generator e_i, in the one walk over the pairing;
    # then D . C = sum_i D_i (e_i . C) for c1, and for the surface of surface_data
    meets: dict[int, Fraction] = {}
    for (i, a), v in model.pairing.items():
        if a in on_c:
            meets[i] = meets.get(i, ZERO) + v * on_c[a]
    if sd is not None:
        s = sd.surface.coeffs
        kappa = sum((s[i] * m for i, m in meets.items()), ZERO)
        if sd.kappa is not None and sd.kappa != kappa:
            raise ValidationError(
                f"surface_data kappa={sd.kappa} but S.C={kappa}"
            )
    c1v = model.c1.coeffs
    c1_dot_c = sum((c1v[i] * m for i, m in meets.items()), ZERO)
    g = c1_dot_c + 2 * center.genus - 2  # gamma(model, center)

    taken_d = set(model.divisor_names())
    taken_c = set(model.curve_names())
    f_name = _fresh_name(taken_d, "F")
    m_name = _fresh_name(taken_c, "M")

    # pi*(e_i) . F = (e_i . C) M
    mul2 = dict(model.mul2)
    for i, coeff in meets.items():
        if coeff:
            mul2[(i, n)] = {n: coeff}
    # F.F = -pi^!(C) + gamma M
    ff = {a: -c for a, c in on_c.items()}
    if g:
        ff[n] = g
    mul2[(n, n)] = ff
    pairing = dict(model.pairing)
    pairing[(n, n)] = -ONE

    # c1 -> pi*(c1) - F, c2 -> pi^!(c2 + C) - (c1.C) M; C touches only its support
    c2 = list(model.c2.coeffs)
    for a, c in on_c.items():
        c2[a] += c
    c2.append(-c1_dot_c)
    label = center.label or f"C{step_index}"
    return ThreefoldModel(
        label=f"{model.label}+{label}",
        divisor_basis=model.divisor_basis
        + (BasisElement(f_name, DIVISOR, "exceptional", step_index),),
        curve_basis=model.curve_basis
        + (BasisElement(m_name, CURVE, "exceptional", step_index),),
        mul2=mul2,
        pairing=pairing,
        c1=DivisorClass(c1v + (-ONE,)),
        c2=CurveClass(tuple(c2)),
        euler=model.euler + 2 - 2 * center.genus,
        picard=model.picard + 1,
        base_flags=frozenset(),
        parent=model,
    )


def _next_step_index(model: ThreefoldModel) -> int:
    depth = 0
    cur = model
    while cur.parent is not None:
        depth += 1
        cur = cur.parent
    return depth + 1


# ---------------------------------------------------------------------------
# pullback / pushforward between a model and its blowup
# ---------------------------------------------------------------------------


def _check_step_pair(model_after: ThreefoldModel):
    if model_after.parent is None:
        raise ValidationError(
            f"model {model_after.label!r} is not a recorded blowup of anything"
        )
    return model_after.parent


def pullback_divisor(model_after: ThreefoldModel, d: DivisorClass) -> DivisorClass:
    """pi* of a divisor class from the parent model (inject, zero on E/F)."""
    parent = _check_step_pair(model_after)
    if len(d) != len(parent.divisor_basis):
        raise ValidationError("class not dimensioned for the parent model")
    return DivisorClass(d.coeffs + (ZERO,))


def pushforward_divisor(model_after: ThreefoldModel, d: DivisorClass) -> DivisorClass:
    """pi_* of a divisor class: drop the exceptional coordinate."""
    parent = _check_step_pair(model_after)
    if len(d) != len(model_after.divisor_basis):
        raise ValidationError("class not dimensioned for this model")
    return DivisorClass(d.coeffs[:-1])


def pullback_curve(model_after: ThreefoldModel, c: CurveClass) -> CurveClass:
    """pi^! of a curve class from the parent model (inject, zero on L/M)."""
    parent = _check_step_pair(model_after)
    if len(c) != len(parent.curve_basis):
        raise ValidationError("class not dimensioned for the parent model")
    return CurveClass(c.coeffs + (ZERO,))


def pushforward_curve(model_after: ThreefoldModel, c: CurveClass) -> CurveClass:
    """pi_* of a curve class: drop the exceptional coordinate (L and M push to 0)."""
    _check_step_pair(model_after)
    if len(c) != len(model_after.curve_basis):
        raise ValidationError("class not dimensioned for this model")
    return CurveClass(c.coeffs[:-1])


# ---------------------------------------------------------------------------
# stock centers
# ---------------------------------------------------------------------------


def line_strict_transform(
    model: "ThreefoldModel | BlowupTower",
    point_indices: tuple[int, ...] | list[int],
    degree: int = 1,
    genus: int = 0,
    label: str = "",
) -> CurveCenterSpec:
    """Strict transform of a degree-d curve through chosen blown-up points.

    Accepts the current model or a tower (whose top model is used).  The
    model must contain curve generators named "l" (the base line class) and
    "L<i>" for each index; the class is d*l - sum of the chosen L_i with
    genus as given (0 for lines and rational normal curves).
    """
    if isinstance(model, BlowupTower):
        model = model.top()
    idx = list(point_indices)
    if len(set(idx)) != len(idx):
        raise ValidationError("repeated point indices")
    _require_int(degree, "degree")
    if degree < 1:
        raise ValidationError("degree must be positive")
    coeffs = {"l": Fraction(degree)}
    for i in idx:
        coeffs[f"L{i}"] = Fraction(-1)
    cls = model.curve(coeffs)
    return CurveCenterSpec(
        curve_class=cls,
        genus=genus,
        label=label or f"D({','.join(str(i) for i in idx)})",
    )
