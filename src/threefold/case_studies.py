"""Worked computations: quotient-threefold bookkeeping, the complete-
intersection c2 positivity lemma, and the Euler/Picard budget for towers.

The quotient pipeline takes one geometric input, the order-4 rotation that
multiplies each elliptic-curve factor by i, realized on the real torus
R^2/Z^2 as [[0, -1], [1, 0]].  Fixed and periodic point counts flow through
|det(A - I)| on the 6-torus, the orbifold Euler characteristic through
excision, and the resolution numbers through the 36 exceptional planes;
nothing downstream is hard-coded beyond the group order 4 and chi(P^2) = 3.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ._record import record
from .intersection_ring import ValidationError, chern_series_ci
from .bareiss import int_matrix_det

QQ = Fraction

ROTATION_I = ((0, -1), (1, 0))  # multiplication by i on R^2/Z^2


def torus_fixed_points(A) -> int:
    """Number of fixed points of the affine-free automorphism A on the
    torus R^m/Z^m: solutions of (A - I)z in Z^m, which is |det(A - I)|
    when A - I is invertible."""
    n = len(A)
    m = [[int(A[i][j]) - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    det = int_matrix_det(m)
    if det == 0:
        raise ValidationError("det(A - I) = 0: fixed points are not isolated")
    return abs(det)


def _block_diag(block, copies: int):
    k = len(block)
    n = k * copies
    out = [[0] * n for _ in range(n)]
    for c in range(copies):
        for i in range(k):
            for j in range(k):
                out[c * k + i][c * k + j] = block[i][j]
    return out


def _mat_mul_int(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def _hermitian_rank(n: int) -> int:
    """Z-rank of n x n Hermitian matrices over an imaginary quadratic order:
    n real diagonal entries plus two real dimensions per off-diagonal pair.
    This is the Picard number of the n-th power of a CM elliptic curve."""
    return n + 2 * comb(n, 2)


@record
class UenoReport:
    fixed_points: int
    period2_points: int
    singular_points: int
    chi_quotient: int
    chi_resolution: int
    picard_resolution: int
    identity_check: bool


def ueno_report() -> UenoReport:
    """Bookkeeping for the order-4 quotient of a triple product of elliptic
    curves and its resolution by exceptional planes.

    Every number is derived: fixed/period-2 counts from |det(A - I)| and
    |det(A^2 - I)| on the 6-torus, the quotient Euler characteristic by
    excision over the 4:1 covering, the resolution by swapping each
    singular point for a plane, and the Picard number from the Hermitian
    rank of the torus plus one class per exceptional plane.
    """
    order = 4
    chi_p2 = 3
    factors = 3

    A = _block_diag([list(r) for r in ROTATION_I], factors)
    A2 = _mat_mul_int(A, A)

    fixed = torus_fixed_points(A)  # fixed points of the generator
    period_le2 = torus_fixed_points(A2)  # period dividing 2
    period2 = period_le2 - fixed
    # period-2 points fall in orbits of size 2 under the generator
    singular = fixed + period2 // 2

    chi_torus = 0  # chi of a torus factor is 0, so the product's is too
    special = fixed + period2
    chi_free_part = (chi_torus - special) // order
    chi_quotient = chi_free_part + singular
    chi_resolution = chi_quotient - singular + singular * chi_p2

    picard_torus = _hermitian_rank(factors)
    picard_resolution = picard_torus + singular

    return UenoReport(
        fixed_points=fixed,
        period2_points=period2,
        singular_points=singular,
        chi_quotient=chi_quotient,
        chi_resolution=chi_resolution,
        picard_resolution=picard_resolution,
        identity_check=(chi_resolution == 2 + 2 * picard_resolution),
    )


# ---------------------------------------------------------------------------
# Euler/Picard budget for smooth blowup towers
# ---------------------------------------------------------------------------


@record
class EulerBudget:
    num_blowups: int
    genus_slack: int
    all_centers_rational_forced: bool
    feasible: bool

    def describe(self) -> str:
        if not self.feasible:
            return (
                f"infeasible: {self.num_blowups} blowups can add at most "
                f"2 each, Euler deficit {-self.genus_slack} cannot be met"
            )
        if self.all_centers_rational_forced:
            return (
                f"{self.num_blowups} blowups, zero genus slack: every curve "
                "center is forced to be a smooth rational curve"
            )
        return (
            f"{self.num_blowups} blowups with genus slack {self.genus_slack} "
            "(sum of 2g over curve centers may reach it)"
        )


def euler_budget(base: tuple[int, int], target: tuple[int, int]) -> EulerBudget:
    """Blowup count and genus slack between (chi, rho) pairs.

    Each blowup raises the Picard number by exactly 1 and the Euler
    characteristic by 2 - 2g (g = 0 for a point).  The slack
    chi0 + 2(rho - rho0) - chi is the total 2*sum(g) available; slack 0
    forces every curve center to be rational, negative slack means no
    smooth-blowup tower exists.
    """
    chi0, rho0 = base
    chi, rho = target
    if rho < rho0:
        raise ValidationError("target Picard number below the base")
    num = rho - rho0
    slack = chi0 + 2 * num - chi
    return EulerBudget(
        num_blowups=num,
        genus_slack=slack,
        all_centers_rational_forced=(slack == 0),
        feasible=(slack >= 0),
    )


# ---------------------------------------------------------------------------
# complete intersections
# ---------------------------------------------------------------------------


@record
class CiChernReport:
    c1_coeff: int
    c2_coeff: int
    positive: bool


def ci_c2(n: int, degrees) -> CiChernReport:
    """Chern coefficients of a complete intersection threefold in P^n by the
    closed form: c1 = (n+1 - sum d_j) h and

        c2 = ( n(n+1)/2 - sum_{i<j} d_i d_j - (n+1) sum d_j + (sum d_j)^2 ) h^2.
    """
    degrees = list(degrees)
    if n < 4:
        raise ValidationError("ambient dimension must be >= 4")
    if len(degrees) != n - 3:
        raise ValidationError(f"need exactly {n - 3} degrees for P^{n}")
    if any((not isinstance(d, int)) or d < 1 for d in degrees):
        raise ValidationError("degrees must be positive integers")
    s = sum(degrees)
    s2 = sum(d1 * d2 for i, d1 in enumerate(degrees) for d2 in degrees[i + 1 :])
    c1 = (n + 1) - s
    c2 = n * (n + 1) // 2 - s2 - (n + 1) * s + s * s
    return CiChernReport(c1_coeff=c1, c2_coeff=c2, positive=c2 > 0)


def ci_c2_series_check(n: int, degrees) -> bool:
    """Cross-check the closed form against the truncated Chern series."""
    series = chern_series_ci(n, list(degrees))
    rep = ci_c2(n, degrees)
    return series[1] == rep.c1_coeff and series[2] == rep.c2_coeff


def g_quadratic(n: int, x) -> Fraction:
    """The quadratic n(n+1)/2 - (n+1)x + ((n-2)/(2(n-3))) x^2 controlling
    c2 positivity of complete intersections; exact in x."""
    if n <= 3:
        raise ValidationError("n must be > 3 (denominator vanishes at n = 3)")
    x = QQ(x)
    return QQ(n * (n + 1), 2) - (n + 1) * x + QQ(n - 2, 2 * (n - 3)) * x * x
