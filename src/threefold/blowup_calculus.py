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
both blowups go through one constructor, which appends the step's new
products and pair(E, L) = pair(F, M) = -1 to the store the model's line of
blowups shares (intersection_ring._Tables), names the exceptional generators
from the store's per-stem counters, tags them with their step, and moves the
Chern classes, Euler and Picard numbers.  The new model reads the store
through prefix views, so nothing of the tables is copied, unless a model
that already has a child is blown up again: then its prefix is copied once.

A curve step costs work on the center's support only: intersection_ring
.meets reads the pairing columns of the center's non-zero coordinates and
gives e_i.C for every divisor generator that C meets; c1.C (hence gamma)
and S.C for surface_data are sums over those e_i.C (_center_numbers, which
the checkers call too); F.F and the c2 update touch only the support of C.  What is still O(rho) runs in C: the scan for
the support, and the copies of the bases and of the inherited Chern
coefficients, which are already Fractions and are not converted again.

No history is stored: a model is a blowup exactly when its last divisor
generator is exceptional, the step of that generator numbers the next one,
and the model below has rho - 1 generators of each kind.  A BlowupTower
keeps its top model only, on which every center's numbers can be read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .intersection_ring import (
    CURVE,
    DIVISOR,
    MINUS_ONE,
    ZERO,
    BasisElement,
    CurveClass,
    DivisorClass,
    MulTable,
    ThreefoldModel,
    ValidationError,
    _meets_on,
    _require_int,
    _require_line_text,
    _support,
    _Tables,
)

QQ = Fraction


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
        _require_line_text(self.label, "center label")


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
    """A base model plus an ordered list of blowup steps, and their top model.

    Curve centers must be dimensioned for the model at their own step.  Only
    the top model is kept (the checkers read each center on it): it is built
    once, on first use, and with_step() blows it up one step more, so a
    tower grown step by step (as the tower-file parser does) blows each step
    up exactly once.  Building it is what validates the centers.
    """

    base: ThreefoldModel
    steps: tuple[BlowupStep, ...] = ()

    @cached_property
    def _top(self) -> ThreefoldModel:
        model = self.base
        for step in self.steps:
            model = _blow_up(model, step)
        return model

    def top(self) -> ThreefoldModel:
        return self._top

    def with_step(self, step: BlowupStep) -> "BlowupTower":
        """This tower one step longer, blowing up only the top model."""
        longer = BlowupTower(self.base, self.steps + (step,))
        # the dataclass is frozen; seed the cache the way cached_property fills it
        object.__setattr__(longer, "_top", _blow_up(self.top(), step))
        return longer


def _blow_up(model: ThreefoldModel, step: BlowupStep) -> ThreefoldModel:
    if step.kind == "point":
        return blow_up_point(model)
    return blow_up_curve(model, step.center)


# ---------------------------------------------------------------------------
# the two blowup transforms
# ---------------------------------------------------------------------------


def _next_step_index(model: ThreefoldModel) -> int:
    basis = model.divisor_basis
    return basis[-1].step + 1 if basis and basis[-1].origin == "exceptional" else 1


def _exceptional_model(
    model: ThreefoldModel,
    stems: tuple[str, str],
    label: str,
    products: MulTable,
    c1_exceptional: Fraction,
    c2: tuple[Fraction, ...],
    euler_change: int,
) -> ThreefoldModel:
    """The blowup of model whose exceptional divisor and curve take the
    first fresh names on the two stems and pair to -1.

    products holds the new mul2 entries, those with the exceptional index
    n = rho; c1 gains c1_exceptional on the new divisor, c2 is the whole
    new second Chern class, and label ("C<step>" when empty) is appended
    to the model's.  The entries go to model's store when model is the
    newest model of its line, else to a copy of model's prefix.
    """
    step = _next_step_index(model)
    c1 = DivisorClass(model.c1.coeffs + (c1_exceptional,))
    c2 = CurveClass(c2)
    tables = model._tables
    if tables.rho != len(model.divisor_basis):
        tables = _Tables(model)
    d_name, c_name = tables.append(products, stems)
    mul2, pairing = tables.views()
    blown = ThreefoldModel(
        label=f"{model.label}+{label or f'C{step}'}",
        divisor_basis=model.divisor_basis + (BasisElement(d_name, DIVISOR, "exceptional", step),),
        curve_basis=model.curve_basis + (BasisElement(c_name, CURVE, "exceptional", step),),
        mul2=mul2,
        pairing=pairing,
        c1=c1,
        c2=c2,
        euler=model.euler + euler_change,
        picard=model.picard + 1,
        base_flags=frozenset(),
    )
    blown.__dict__["_tables"] = tables  # what the cached property would build, shared
    return blown


def blow_up_point(model: ThreefoldModel) -> ThreefoldModel:
    """Blow up a point: basis gains E (divisor) and L (line in E)."""
    n = len(model.divisor_basis)
    # pi*(a).E = 0 and pair(E, pi^! c) = 0 need no entry: E.E = -L
    return _exceptional_model(
        model, ("E", "L"), "pt", {(n, n): {n: MINUS_ONE}}, QQ(-2), model.c2.coeffs + (ZERO,), 2
    )


def _center_numbers(model: ThreefoldModel, center: CurveCenterSpec):
    """(c1.C, S.C or None without surface_data, on_c, met) for a center C:
    on_c maps C's support to its coordinates and met holds e_i.C for each
    divisor generator e_i that C meets.  model is the model C is blown up
    on or any later model of its tower, where the numbers are the same: a
    blowup keeps c1's old coordinates and pairs its new generators only with
    each other, so pi*D . pi^!C = D.C and E . pi^!C = 0."""
    cvec = center.curve_class.coeffs
    if len(cvec) > len(model.curve_basis):
        raise ValidationError("center class not dimensioned for this model")
    on_c = {a: cvec[a] for a in _support(cvec)}
    met = _meets_on(model, on_c)
    c1v = model.c1.coeffs
    c1_dot_c = sum((c1v[i] * m for i, m in met.items()), ZERO)
    kappa = None
    if center.surface_data is not None:
        s = center.surface_data.surface.coeffs
        kappa = sum((s[i] * m for i, m in met.items()), ZERO)
    return c1_dot_c, kappa, on_c, met


def gamma(model: ThreefoldModel, center: CurveCenterSpec) -> Fraction:
    """Normal-bundle degree of the center: c1 . C + 2g - 2."""
    if len(center.curve_class) != len(model.curve_basis):
        raise ValidationError("center class not dimensioned for this model")
    return _center_numbers(model, center)[0] + 2 * center.genus - 2


def blow_up_curve(model: ThreefoldModel, center: CurveCenterSpec) -> ThreefoldModel:
    """Blow up a smooth curve: basis gains F (ruled divisor) and M (fiber)."""
    n = len(model.divisor_basis)
    if len(center.curve_class) != len(model.curve_basis):
        raise ValidationError("center class not dimensioned for this model")
    sd = center.surface_data
    if sd is not None and len(sd.surface) != n:
        raise ValidationError("surface class not dimensioned for this model")
    c1_dot_c, kappa, on_c, met = _center_numbers(model, center)
    if sd is not None and sd.kappa is not None and sd.kappa != kappa:
        raise ValidationError(f"surface_data kappa={sd.kappa} but S.C={kappa}")
    g = c1_dot_c + (2 * center.genus - 2)  # gamma(model, center)

    # pi*(e_i) . F = (e_i . C) M
    products = {(i, n): {n: coeff} for i, coeff in met.items() if coeff}
    # F.F = -pi^!(C) + gamma M
    ff = {a: -c for a, c in on_c.items()}
    if g:
        ff[n] = g
    products[(n, n)] = ff

    # c1 -> pi*(c1) - F, c2 -> pi^!(c2 + C) - (c1.C) M; C touches only its support
    c2 = list(model.c2.coeffs)
    for a, c in on_c.items():
        c2[a] += c
    c2.append(-c1_dot_c)
    return _exceptional_model(
        model, ("F", "M"), center.label, products, MINUS_ONE, tuple(c2), 2 - 2 * center.genus
    )


# ---------------------------------------------------------------------------
# pullback / pushforward between a model and its blowup
# ---------------------------------------------------------------------------


def _check_step_pair(model_after: ThreefoldModel) -> None:
    basis = model_after.divisor_basis
    if not basis or basis[-1].origin != "exceptional":
        raise ValidationError(
            f"model {model_after.label!r} is not a recorded blowup of anything"
        )


def pullback_divisor(model_after: ThreefoldModel, d: DivisorClass) -> DivisorClass:
    """pi* of a divisor class from the model below (inject, zero on E/F)."""
    _check_step_pair(model_after)
    if len(d) != len(model_after.divisor_basis) - 1:
        raise ValidationError("class not dimensioned for the parent model")
    return DivisorClass(d.coeffs + (ZERO,))


def pushforward_divisor(model_after: ThreefoldModel, d: DivisorClass) -> DivisorClass:
    """pi_* of a divisor class: drop the exceptional coordinate."""
    _check_step_pair(model_after)
    if len(d) != len(model_after.divisor_basis):
        raise ValidationError("class not dimensioned for this model")
    return DivisorClass(d.coeffs[:-1])


def pullback_curve(model_after: ThreefoldModel, c: CurveClass) -> CurveClass:
    """pi^! of a curve class from the model below (inject, zero on L/M)."""
    _check_step_pair(model_after)
    if len(c) != len(model_after.curve_basis) - 1:
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
    model: ThreefoldModel,
    point_indices: tuple[int, ...] | list[int],
    degree: int = 1,
    genus: int = 0,
    label: str = "",
) -> CurveCenterSpec:
    """Strict transform of a degree-d curve through chosen blown-up points.

    The model must contain curve generators named "l" (the base line class) and
    "L<i>" for each index; the class is d*l - sum of the chosen L_i with
    genus as given (0 for lines and rational normal curves).
    """
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
