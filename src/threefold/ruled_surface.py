"""Intersection numbers on the exceptional ruled surface of a curve blowup.

F -> C carries a section C0 with C0.C0 = tau and C0.M = mu > 0, M.M = 0.
Writing e for the restriction of the line bundle of F to F itself, the two
relations e.M = -1 and e.e = -gamma force

    e = -(1/mu) C0 + (tau/mu^2 + gamma)/2 M,

which yields F.C0 = (gamma*mu - tau/mu)/2 and the decomposition of F.F used
by the blowup engine.  The admissibility ranges for effective curves
a C0 + b M on F with normalized invariant tau0 >= 0 are taken from the
standard ruled-surface classification and are encoded exactly as stated,
not re-derived:

    tau0 = 0:  a > 0 and b >= 0
    tau0 > 0:  a = 1, b >= 0   or   a >= 2, b >= -a*tau0/2

plus the section (1, 0) and the fiber (0, 1) themselves.  b is allowed to be
rational so property scans can sample densely; the inequalities are checked
identically.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .intersection_ring import ValidationError

QQ = Fraction


@record
class RuledSurfaceData:
    """Section invariants of an exceptional ruled surface: tau = C0.C0,
    mu = C0.M >= 1, gamma the blowup invariant, tau0 the normalized
    invariant when known."""

    tau: Fraction
    mu: int
    gamma: Fraction
    tau0: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "tau", QQ(self.tau))
        object.__setattr__(self, "gamma", QQ(self.gamma))
        if self.mu < 1:
            raise ValidationError("degenerate section: mu must be >= 1")


@record
class SectionNumbers:
    f_dot_c0: Fraction
    ff_c0_coeff: Fraction
    ff_m_coeff: Fraction


def section_and_ff(data: RuledSurfaceData) -> SectionNumbers:
    """F.C0 and the (C0, M) coefficients of F.F restricted to F."""
    tau, mu, g = data.tau, QQ(data.mu), data.gamma
    f_dot_c0 = (g * mu - tau / mu) / 2
    return SectionNumbers(
        f_dot_c0=f_dot_c0,
        ff_c0_coeff=-1 / mu,
        ff_m_coeff=(tau / mu**2 + g) / 2,
    )


@record
class EffectiveCurveReport:
    admissible: bool
    self_int: Fraction
    f_dot_v: Fraction


def is_admissible(tau0: int, a: int, b: Fraction) -> bool:
    """Whether a C0 + b M lies in the effective range for the given tau0 >= 0."""
    if (a, b) == (1, 0) or (a, b) == (0, 1):
        return True
    if tau0 == 0:
        return a > 0 and b >= 0
    return (a == 1 and b >= 0) or (a >= 2 and b >= QQ(-a * tau0, 2))


def effective_curve_check(tau0: int, gamma, a: int, b) -> EffectiveCurveReport:
    """Self-intersection and F-degree of V = a C0 + b M on a surface with
    normalized invariant tau0 >= 0 (mu = 1 throughout).

    self_int = a^2 tau0 + 2ab is non-negative for every admissible V, and
    f_dot_v = a (gamma - tau0)/2 - b is negative for every admissible
    non-zero V once gamma < 0.
    """
    if tau0 < 0:
        raise ValidationError("tau0 < 0 is outside the scope of this check")
    gamma = QQ(gamma)
    b = QQ(b)
    self_int = a * a * tau0 + 2 * a * b
    f_dot_v = a * (gamma - tau0) / 2 - b
    return EffectiveCurveReport(
        admissible=is_admissible(tau0, a, b),
        self_int=QQ(self_int),
        f_dot_v=f_dot_v,
    )
