"""Real roots and roots in a disk of integer polynomials.

- Sturm-chain real-root counting/isolation with exact rational endpoints;
  an isolating interval is refined by the sign of the squarefree part.
- disk_root_count: number of distinct roots in |x| < R, via the Moebius map
  onto a half-plane and a fraction-free Routh table; a root on the circle
  raises BoundaryRoot, and the caller decides what that means (the radius
  layer leaves such a radius to its exact route).  Used to certify that no
  complex root escapes past the leading real root.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .polynomials import (
    QQ,
    _even_half,
    _int_key,
    _squarefree_int,
    _sturm_chain_int,
    poly_degree,
    poly_derivative,
    poly_mul,
    poly_trim,
)


# ---------------------------------------------------------------------------
# Sturm chains and real-root isolation
# ---------------------------------------------------------------------------
#
# The chains are polynomials' own: the remainder sequence that also gave
# the squarefree part, cached per integer-coefficient tuple.  Every sign
# evaluation at a rational num/den is done homogeneously in integers (sign
# of sum_i c_i num^i den^(d-i)), so counting, isolation and refinement
# never touch Fraction arithmetic in the inner loop.


def _halvings(num: int, den: int) -> int:
    """The least s >= 0 with 2^s >= num / den, for num, den > 0: how many
    halvings bring a length num to at most den."""
    return (-(-num // den) - 1).bit_length()


def _sign_at_rational(q: tuple, num: int, den: int) -> int:
    # sign of q(num/den) for den > 0: Horner on den^deg * q(num/den),
    # value = sum_i c_i num^i den^(deg-i), all in integers
    acc = 0
    power = 1
    for c in reversed(q):
        acc = acc * num + c * power
        power *= den
    if acc > 0:
        return 1
    if acc < 0:
        return -1
    return 0


def _variations(chain, num: int, den: int) -> int:
    """Sign changes along the chain at num/den (den > 0), zeros skipped."""
    changes, last = 0, 0
    for q in chain:
        s = _sign_at_rational(q, num, den)
        if s:
            if s != last and last:
                changes += 1
            last = s
    return changes


def _chain_for(p) -> tuple:
    return _sturm_chain_int(_squarefree_int(_int_key(p)))


def _even_rank(chain, num: int, den: int) -> int:
    """For an even p = h(x^2) with h(0) != 0 and the Sturm chain of h's
    squarefree part: the distinct real roots of p in (-inf, num/den] (den >
    0), less the number of positive roots of h.

    x -> x^2 maps the positive roots of p one to one and increasingly onto
    those of h, and x -> -x maps the negative ones onto the positive ones;
    so for t >= 0 the roots of p in (0, t] are those of h in (0, t^2], and
    for t < 0 the roots of p in (-inf, t] are the positive roots of h in
    [t^2, inf), the roots of h in (0, t^2] counted off except for t^2
    itself."""
    sq_num, sq_den = num * num, den * den
    below = _variations(chain, 0, 1) - _variations(chain, sq_num, sq_den)
    if num >= 0:
        return below
    return (_sign_at_rational(chain[0], sq_num, sq_den) == 0) - below


def count_real_roots(p, lo, hi) -> int:
    """Distinct real roots of p in (lo, hi]; p need not be squarefree.  An
    even p = h(x^2) with h(0) != 0 is counted on h's Sturm chain."""
    key = _int_key(p)
    lo, hi = QQ(lo), QQ(hi)
    half = _even_half(key)
    if half is not None:
        chain = _sturm_chain_int(_squarefree_int(half))
        return _even_rank(chain, hi.numerator, hi.denominator) - _even_rank(
            chain, lo.numerator, lo.denominator
        )
    chain = _sturm_chain_int(_squarefree_int(key))
    return _variations(chain, lo.numerator, lo.denominator) - _variations(
        chain, hi.numerator, hi.denominator
    )


def cauchy_root_bound(p) -> Fraction:
    """All roots have modulus < 1 + max |c_i / lead|."""
    p = poly_trim(p)
    lead = QQ(p[-1])
    if lead == 0:
        raise ValueError("zero polynomial")
    return 1 + max((abs(c) for c in p[:-1]), default=0) / abs(lead)


def isolate_real_roots(p) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals (lo, hi], one per distinct real root."""
    chain = _chain_for(p)
    bound = cauchy_root_bound(chain[0])
    out = []

    # (lo/den, hi/den] is bisected at (lo + hi)/(2 den)
    def recurse(lo, hi, den, v_lo, v_hi):
        count = v_lo - v_hi
        if count == 0:
            return
        if count == 1:
            out.append((QQ(lo, den), QQ(hi, den)))
            return
        mid, den = lo + hi, 2 * den
        v_mid = _variations(chain, mid, den)
        recurse(2 * lo, mid, den, v_lo, v_mid)
        recurse(mid, 2 * hi, den, v_mid, v_hi)

    b, den = bound.numerator, bound.denominator
    recurse(-b, b, den, _variations(chain, -b, den), _variations(chain, b, den))
    return out


def refine_root_interval(p, lo, hi, width) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval (lo, hi] of a root of p below `width`.

    The endpoints are bisected as integers over one common denominator.
    (lo, hi] must hold exactly one root, a simple root of the squarefree
    part sf, or ValueError("interval does not isolate a root") is raised.
    The root lies in (lo, mid] exactly when sf(mid) = 0 or sf changes sign
    between lo and mid; when lo is another root of sf, the sign just right
    of it is that of sf'(lo).  The root count is count_real_roots', so an
    even p is counted on its half's chain.  A width <= 0 is refused (no
    interval reaches it).
    """
    width = QQ(width)
    if width <= 0:
        raise ValueError("refinement width must be positive")
    lo, hi = QQ(lo), QQ(hi)
    if count_real_roots(p, lo, hi) != 1:
        raise ValueError("interval does not isolate a root")
    den = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)

    # a bisection doubles den and keeps b - a, so the number of bisections
    # that bring (b - a) / den down to width is known from the start
    steps = _halvings((b - a) * width.denominator, width.numerator * den)
    if steps:
        sf = _squarefree_int(_int_key(p))
        s_lo = _sign_at_rational(sf, a, den) or _sign_at_rational(poly_derivative(sf), a, den)
        for _ in range(steps):
            mid, den = a + b, 2 * den
            if _sign_at_rational(sf, mid, den) != s_lo:
                a, b = 2 * a, mid
            else:
                a, b = mid, 2 * b
    return QQ(a, den), QQ(b, den)


# ---------------------------------------------------------------------------
# roots-in-disk counting (Moebius + Routh)
# ---------------------------------------------------------------------------


class BoundaryRoot(Exception):
    """The tested circle carries a root, or the Routh table degenerates on it."""


def _routh_left_halfplane_count(p) -> int:
    """Number of roots with Re < 0 of an integer polynomial; raises
    BoundaryRoot on a degenerate table (roots on the imaginary axis or
    symmetric pairs).  The table is fraction-free: where the classical row
    is divided by the first entry c of the row above, this one is
    multiplied by |c| and divided by its content, a positive multiple of
    the classical row, so every sign and every zero are the same."""
    p = poly_trim(p)
    n = poly_degree(p)
    if n <= 0:
        return 0
    # rows ordered from the leading coefficient down
    coeffs = p[::-1]
    row1, row2 = coeffs[0::2], coeffs[1::2]
    width = len(row1)
    table = [row1, row2 + [0] * (width - len(row2))]
    for _ in range(n - 1):
        prev, cur = table[-2], table[-1]
        c0, p0 = cur[0], prev[0]
        if c0 == 0:
            raise BoundaryRoot
        if c0 < 0:
            c0, p0 = -c0, -p0
        new = [c0 * prev[j + 1] - p0 * cur[j + 1] for j in range(width - 1)]
        g = gcd(*new)
        if g > 1:
            new = [c // g for c in new]
        new.append(0)
        table.append(new)
        if not any(new) and len(table) <= n:
            raise BoundaryRoot
    firsts = [row[0] for row in table[: n + 1]]
    if any(f == 0 for f in firsts):
        raise BoundaryRoot
    # sign changes in the first column count roots with Re > 0
    changes = sum(1 for a, b in zip(firsts, firsts[1:]) if (a > 0) != (b > 0))
    return n - changes


@lru_cache(maxsize=64)
def _moebius_basis(n: int) -> tuple:
    """(1 + w)^k (1 - w)^(n - k) for k = 0..n, as integer coefficient tuples."""
    plus, minus = [[1]], [[1]]
    for _ in range(n):
        plus.append(poly_mul(plus[-1], [1, 1]))
        minus.append(poly_mul(minus[-1], [1, -1]))
    return tuple(tuple(poly_mul(plus[k], minus[n - k])) for k in range(n + 1))


def disk_root_count(p, radius: Fraction) -> int:
    """Distinct roots of p with |x| < radius (exact; raises BoundaryRoot if a
    root sits on the circle of that radius or the Routh table degenerates)."""
    sf = _squarefree_int(_int_key(p))
    n = len(sf) - 1
    if n <= 0:
        return 0
    # scale: for radius = a/b the roots of g(y) = b^n sf(a y / b) in the
    # unit disk are those of sf in |x| < radius
    radius = QQ(radius)
    a, b = radius.numerator, radius.denominator
    g = [c * a**i * b ** (n - i) for i, c in enumerate(sf)]
    # Moebius x = (1+w)/(1-w) maps Re w < 0 onto |x| < 1:
    # h(w) = (1-w)^n g((1+w)/(1-w)) = sum_k g_k (1+w)^k (1-w)^(n-k)
    h = [0] * (n + 1)
    for gk, basis in zip(g, _moebius_basis(n)):
        if gk:
            for j, v in enumerate(basis):
                h[j] += gk * v
    if h[-1] == 0:
        # degree drop means g(-1) = 0, i.e. a root at x = -radius
        raise BoundaryRoot
    return _routh_left_halfplane_count(h)
