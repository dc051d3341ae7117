"""The complex-dominant radius route that the split symmetric square replaced,
and the factoriser without its symmetry front end.

Kept only as the references of differential tests: the whole symmetric
square W of degree n(n+1)/2 is built from power sums in one piece, and the
minimal polynomial of its largest real root is read from the irreducible
factors of W's squarefree part; the square-root bounds find their scale by
a loop, and each square-root interval is also disk-certified on the
original polynomial.  threefold.radius must agree with it on every input
that reaches the fallback.  The factoriser's lift-only route factors every
polynomial by degree sets mod primes, Hensel lifting and recombination,
never through an even or reciprocal polynomial's half.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from threefold.factor import _factor_by_primes, minimal_polynomial_of_root
from threefold.polynomials import poly_squarefree
from threefold.radius import CERTIFIED_WIDTH, AlgebraicNumber
from threefold.realroots import (
    BoundaryRoot,
    count_real_roots,
    disk_root_count,
    isolate_real_roots,
    refine_root_interval,
)

QQ = Fraction


def reference_symmetric_square(sf) -> list[int]:
    """The integer polynomial of degree n(n+1)/2 whose roots are the
    products alpha_i alpha_j (i <= j) of the roots of sf: power sums
    (s_k^2 + s_2k) / 2 of the products of the roots a alpha_i of the monic
    a^(n-1) sf(x / a), a = lc(sf), turned back by Newton's identities and
    mapped back by x -> a^2 x."""
    n, a = len(sf) - 1, sf[-1]
    e = [1] + [sf[n - i] * a ** (i - 1) for i in range(1, n + 1)]
    m = n * (n + 1) // 2
    s = [0] * (2 * m + 1)
    for k in range(1, 2 * m + 1):
        acc = k * e[k] if k <= n else 0
        for i in range(1, min(k, n + 1)):
            acc += e[i] * s[k - i]
        s[k] = -acc
    sums = [0] + [(s[k] * s[k] + s[2 * k]) // 2 for k in range(1, m + 1)]
    h = [1]
    for k in range(1, m + 1):
        h.append(-sum(h[i] * sums[k - i] for i in range(k)) // k)
    return [c * a ** (2 * j) for j, c in enumerate(reversed(h))]


def reference_factor_squarefree(f) -> list[tuple]:
    """The irreducible factors of a primitive squarefree f (lc > 0,
    f(0) != 0), sorted, from f itself by the lift-only route."""
    return sorted(_factor_by_primes(tuple(f)))


def reference_sqrt_bounds(x: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) <= hi with hi - lo <= width, for x >= 0, the
    scale found by multiplying by 4 until 1 / scale <= width^2 / 4."""
    if x == 0:
        return QQ(0), QQ(0)
    scale = 1
    while QQ(1, scale) > width * width / 4:
        scale *= 4
    num, den = x.numerator * scale * scale, x.denominator
    s = isqrt(num * den)
    return QQ(s, den * scale), QQ(s + 1, den * scale)


def _perturbed_disk_count(sf, radius, direction) -> int:
    """disk_root_count at radius or, while a root lies on the circle, at
    radius moved by 10^-9, then by steps shrinking sevenfold, in the given
    direction (+1 grows, -1 shrinks)."""
    eps = QQ(1, 10**9)
    for _ in range(60):
        try:
            return disk_root_count(sf, radius)
        except BoundaryRoot:
            radius, eps = radius + direction * eps, eps / 7
    raise ValueError("could not find a root-free circle near the requested radius")


def reference_disk_check(sf, n, lo, hi) -> bool:
    """Disk counts around [lo, hi], widened by delta: every root of sf
    inside the outer disk, and not every root inside the inner one."""
    delta = max((hi - lo) / 4, QQ(1, 10**12))
    outer = _perturbed_disk_count(sf, hi + delta, +1)
    if outer != n:
        return False
    if lo - delta <= 0:
        return True
    inner = _perturbed_disk_count(sf, lo - delta, -1)
    return inner != n


def reference_fallback_radius(sf) -> AlgebraicNumber:
    """The certified radius of the squarefree sf (degree n <= 8) from the
    largest real root of its whole symmetric square."""
    n = len(sf) - 1
    cp_sf = poly_squarefree(reference_symmetric_square(sf))
    lam_lo, lam_hi = max(isolate_real_roots(cp_sf), key=lambda iv: iv[1])
    lam_lo, lam_hi = refine_root_interval(cp_sf, lam_lo, lam_hi, CERTIFIED_WIDTH**2 / 8)
    m_lam = minimal_polynomial_of_root(cp_sf, lam_lo, lam_hi)
    s = AlgebraicNumber(tuple(m_lam), lam_lo, lam_hi)
    m2 = [0] * (2 * len(s.minpoly) - 1)
    m2[::2] = s.minpoly
    for _round in range(80):
        lo = reference_sqrt_bounds(s.lo, CERTIFIED_WIDTH / 2)[0]
        hi = reference_sqrt_bounds(s.hi, CERTIFIED_WIDTH / 2)[1]
        if count_real_roots(m2, lo, hi) == 1 and reference_disk_check(sf, n, lo, hi):
            mp = minimal_polynomial_of_root(m2, lo, hi)
            lo2, hi2 = refine_root_interval(mp, lo, hi, CERTIFIED_WIDTH)
            return AlgebraicNumber(tuple(mp), lo2, hi2)
        s = s.refined(s.width / 2**8)
    raise ValueError("could not certify the spectral radius (tied moduli)")
