"""Certified spectral radii of integer matrices.

certified_radius_from_charpoly: the largest root modulus of an integer
characteristic polynomial as an exact algebraic number (minimal polynomial
+ isolating interval).  Each distinct primitive polynomial is certified
once per process (one cache, keyed like the squarefree parts), so a
reciprocal characteristic polynomial and its reversal share one
certificate.  Only the real roots whose modulus can still lead are refined
to the certified width.  When the dominant modulus is not carried by real
roots alone, the squared radius is recovered as the largest real root of
the symmetric square of the squarefree part (the polynomial of its
pairwise root products), which always carries it; that polynomial is built
from power sums by Newton's identities in its two halves (Graeffe and
exterior square), its largest real root is found on its final dyadic node
from a float guess and confirmed by exact Sturm counts of the halves, and
only the half owning the root is factored.  Those counts are the whole
certificate of a complex-dominant radius: every root product has modulus
at most rho^2 and rho^2 is one of them, so the largest real root is rho^2.
An outer disk count below the degree proves complex dominance at the first
attempt, and no disk count follows it.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import isfinite, isqrt

from ._record import record
from .factor import _good_reduction, _odd_primes, minimal_polynomial_of_root
from .polynomials import (
    QQ,
    ZERO,
    EngineLimit,
    _int_key,
    _unfold_square,
    poly_degree,
    poly_derivative,
    poly_gcd,
    poly_mul,
    poly_negate_variable,
    poly_primitive_int,
    poly_squarefree,
    poly_to_str,
)
from .realroots import (
    _halvings,
    cauchy_root_bound,
    count_real_roots,
    disk_root_count_robust,
    isolate_real_roots,
    refine_root_interval,
)

ONE = Fraction(1)


def _symmetric_square(sf) -> tuple[list[int], list[int]]:
    """The two halves of the symmetric square of the integer polynomial sf
    (the polynomial of degree n(n+1)/2 whose roots are the products
    alpha_i alpha_j, i <= j, of the roots alpha_1..alpha_n of sf): its
    Graeffe polynomial, of degree n with the roots alpha_i^2, and its
    exterior square, of degree n(n-1)/2 with the roots alpha_i alpha_j
    (i < j).  Their product is the symmetric square, which is therefore
    never irreducible; each half is factored on its own.

    With a = lc(sf), g(x) = a^(n-1) sf(x / a) is monic with integer
    coefficients and the roots a alpha_i.  Newton's identities give the
    power sums s_k of those roots; the k-th power sums of the halves' roots
    are s_2k and (s_k^2 - s_2k) / 2, and Newton's identities turn these
    back into monic integer polynomials h with the roots a^2 alpha_i^2 and
    a^2 alpha_i alpha_j (each division by k is exact); h(a^2 x) has the
    roots alpha_i^2 or alpha_i alpha_j (Bostan, Flajolet, Salvy and
    Schost, J. Symbolic Comput. 41, 2006).
    """
    n, a = len(sf) - 1, sf[-1]
    # coefficients of g from x^(n-1) down: e[i] belongs to x^(n-i)
    e = [1] + [sf[n - i] * a ** (i - 1) for i in range(1, n + 1)]
    m = n * (n - 1) // 2
    s = [0] * (2 * max(n, m) + 1)
    for k in range(1, len(s)):
        acc = k * e[k] if k <= n else 0
        for i in range(1, min(k, n + 1)):
            acc += e[i] * s[k - i]
        s[k] = -acc

    def from_power_sums(sums):
        h = [1]  # h[i] belongs to x^(d-i), d = len(sums) - 1
        for k in range(1, len(sums)):
            h.append(-sum(h[i] * sums[k - i] for i in range(k)) // k)
        return [c * a ** (2 * j) for j, c in enumerate(reversed(h))]

    graeffe = from_power_sums([0] + [s[2 * k] for k in range(1, n + 1)])
    wedge = from_power_sums([0] + [(s[k] * s[k] - s[2 * k]) // 2 for k in range(1, m + 1)])
    return graeffe, wedge


@record
class AlgebraicNumber:
    """A real algebraic number: integer minimal polynomial plus an isolating
    rational interval [lo, hi] containing exactly that root."""

    minpoly: tuple[int, ...]
    lo: Fraction
    hi: Fraction

    def __float__(self) -> float:
        # the midpoint, rounded once: int / int is correctly rounded
        lo, hi = self.lo, self.hi
        return (lo.numerator * hi.denominator + hi.numerator * lo.denominator) / (
            2 * lo.denominator * hi.denominator)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def refined(self, width: Fraction) -> "AlgebraicNumber":
        if self.lo == self.hi:
            return self
        lo, hi = refine_root_interval(list(self.minpoly), self.lo, self.hi, width)
        return AlgebraicNumber(self.minpoly, lo, hi)

    def minpoly_str(self) -> str:
        return poly_to_str(list(self.minpoly))

    def is_one(self) -> bool:
        return self.lo == self.hi == 1


def _fraction_sqrt_bounds(x: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) <= hi with hi - lo <= width, for x >= 0."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return ZERO, ZERO
    # the least power of 4 with 1 / scale <= width^2 / 4, i.e. at least
    # 4 q^2 / p^2 for width = p / q
    scale = 1 << 2 * ((_halvings(4 * width.denominator**2, width.numerator**2) + 1) // 2)
    num = x.numerator * scale * scale
    den = x.denominator
    # sqrt(x) = sqrt(num/den)/scale = sqrt(num*den)/(den*scale)
    s = isqrt(num * den)
    lo = QQ(s, den * scale)
    hi = QQ(s + 1, den * scale)
    return lo, hi


# the most a certified radius interval (and its square's) may be wide
CERTIFIED_WIDTH = QQ(1, 10**10)


def _abs_interval(lo, hi):
    if hi <= 0:
        return -hi, -lo
    if lo >= 0:
        return lo, hi
    return ZERO, max(-lo, hi)


def _contenders(intervals):
    """The isolating intervals, in their order, whose root can still be the
    real root of largest modulus or tie with it at any finer width.

    Refinement only shrinks an interval, so the modulus interval of the
    eventual champion keeps an upper end at least the largest lower end L
    of them all.  A root whose modulus interval ends below the lowest lower
    end among those reaching L therefore lies strictly below the champion's
    modulus interval at every finer width: it can neither win nor overlap."""
    abs_iv = [_abs_interval(lo, hi) for lo, hi in intervals]
    floor = max(lo for lo, _ in abs_iv)
    bar = min(lo for lo, hi in abs_iv if hi >= floor)
    return [iv for iv, (_, hi) in zip(intervals, abs_iv) if hi >= bar]


def _dominant_real_root(sf, width):
    """The real root of largest modulus, or None if there is no real root.

    Returns (lo, hi) isolating that root with hi - lo <= width.  Candidates
    with overlapping modulus intervals are refined until a unique champion
    emerges; the only tie that survives refinement is an exact +-r pair
    (detected through gcd(p(x), p(-x))), where either sign serves.

    Only _contenders are refined to a round's width w: the roots are first
    separated at the coarse width 1/16, and each round drops the roots
    that can no longer win.  An interval refined to w lands on the
    dyadic node of the isolation tree at the depth w fixes, also after
    refinement to a coarser width, so the survivors' intervals, the
    champion and its overlaps are those of refining every root straight
    to w.
    """
    intervals = isolate_real_roots(sf)
    if not intervals:
        return None
    if len(intervals) > 1:
        intervals = _contenders([refine_root_interval(sf, lo, hi, QQ(1, 16)) for lo, hi in intervals])
    w = min(QQ(1, 10**6), width)
    even_part = None
    for _round in range(600):
        intervals = _contenders([refine_root_interval(sf, lo, hi, w) for lo, hi in intervals])
        abs_iv = [_abs_interval(lo, hi) for (lo, hi) in intervals]
        champion = max(range(len(abs_iv)), key=lambda k: abs_iv[k][1])
        overlapping = [
            k
            for k in range(len(abs_iv))
            if k != champion and abs_iv[k][1] >= abs_iv[champion][0]
        ]
        if not overlapping:
            return intervals[champion]
        if len(overlapping) == 1:
            # an exact opposite-sign twin has the same modulus; either works.
            # The champion has one exactly when gcd(sf(x), sf(-x)) has a root
            # in the champion's own (lo, hi]
            k = overlapping[0]
            same_sign = (intervals[k][1] <= 0) == (intervals[champion][1] <= 0)
            if not same_sign:
                if even_part is None:
                    even_part = poly_gcd(sf, poly_negate_variable(sf))
                lo, hi = intervals[champion]
                if poly_degree(even_part) > 0 and count_real_roots(even_part, lo, hi) > 0:
                    return intervals[champion]
        w = w / 2**16
    raise EngineLimit("_dominant_real_root", "real roots with pathologically close moduli")


# the width the fallback refines the squared radius to
_SQUARE_WIDTH = CERTIFIED_WIDTH**2 / 8


def _float_radius_squared(sf) -> float | None:
    """max |z|^2 over float approximations z of the roots of sf, by the
    Aberth-Ehrlich iteration (Aberth, Math. Comp. 27, 1973): simultaneous
    Newton steps, each corrected by the pull of the other approximations;
    None when the floats overflow or break down.  Only a guess: nothing is
    certified from it."""
    n = len(sf) - 1
    try:
        c = [x / sf[-1] for x in sf]  # int / int is correctly rounded
        # start on a circle of radius 2 max |c_i|^(1/(n-i)) (Fujiwara's
        # bound), at angles off any symmetry axis of the coefficients
        r = 2 * max(abs(c[i]) ** (1 / (n - i)) for i in range(n))
        zs = [r * cmath.exp(1j * (2 * cmath.pi * k / n + 0.4)) for k in range(n)]
        for _ in range(50):
            settled = True
            for k, z in enumerate(zs):
                val, der = 1, 0
                for a in reversed(c[:-1]):
                    der = der * z + val
                    val = val * z + a
                if val:
                    ratio = val / der
                    pull = sum(1 / (z - v) for j, v in enumerate(zs) if j != k)
                    step = ratio / (1 - ratio * pull)
                    zs[k] = z - step
                    settled = settled and abs(step) <= 1e-15 * abs(z)
            if settled:
                break
    except (OverflowError, ZeroDivisionError):
        return None
    guess = max(z.real * z.real + z.imag * z.imag for z in zs)
    return guess if isfinite(guess) else None


# bits of the Newton point below the depth of the node it chooses
_NEWTON_BITS = 24


def _located_node(cp_sf, graeffe, wedge, guess):
    """The node (lo, hi] that isolate_real_roots + refine_root_interval to
    _SQUARE_WIDTH give for the largest real root of cp_sf, the squarefree
    part of the product of the two halves, found from a float guess of that
    root; returns (lo, hi, in_graeffe), or None when the guess does not
    lead there.

    The refinement ends on the one node of the isolation tree over (-B, B]
    (B = cauchy_root_bound(cp_sf)) at depth D, the least depth whose nodes
    are at most _SQUARE_WIDTH wide, that holds the root; the isolating
    interval it starts from lies above that depth, since every node above
    it holds a root and no node below the first with one root is visited.
    Integer Newton steps on cp_sf from the guess, on a grid _NEWTON_BITS
    finer than D, choose one or two adjacent depth-D nodes, a node accepted
    only on exact Sturm counts of the two halves: one root in (lo, hi] and
    none in (hi, B].  in_graeffe says whether the Graeffe half has it."""
    if guess is None:
        return None
    bound = cauchy_root_bound(cp_sf)
    b, c = bound.numerator, bound.denominator
    # the least depth whose nodes, 2B / 2^depth wide, are at most _SQUARE_WIDTH
    depth = _halvings(2 * b * _SQUARE_WIDTH.denominator, _SQUARE_WIDTH.numerator * c)
    # the grid point u stands for x = (2u - full) b / (c full)
    full = 1 << (depth + _NEWTON_BITS)
    u = round((Fraction(guess) * c + b) * full / (2 * b))
    d = len(cp_sf) - 1
    der = poly_derivative(cp_sf)
    for _ in range(6):
        num, den = b * (2 * u - full), c * full
        # den^d cp_sf(x) and den^(d-1) cp_sf'(x), so that the Newton step
        # cp_sf / cp_sf' is, in grid units, val / (2 b slope)
        val, slope, power = cp_sf[d], der[d - 1], den
        for i in range(d - 1, -1, -1):
            val = val * num + cp_sf[i] * power
            if i:
                slope = slope * num + der[i - 1] * power
            power *= den
        if slope == 0:
            return None
        step = val // (2 * b * slope)
        u -= step
        if abs(step) <= 1:
            break
    # u, the ceiling of the last Newton point, lies within a grid unit of
    # the root, which may sit on a node's end: the depth-D nodes (t, t + 1]
    # holding u - 1, u and u + 1 are tried, and the counts accept one at most
    for t in sorted({(v - 1) >> _NEWTON_BITS for v in (u - 1, u, u + 1)}):
        if not 0 <= t < 1 << depth:
            continue
        lo = Fraction(b * (2 * t - (1 << depth)), c << depth)
        hi = lo + Fraction(2 * b, c << depth)
        inside = [count_real_roots(h, lo, hi) for h in (graeffe, wedge)]
        if sum(inside) == 1 and not (count_real_roots(graeffe, hi, bound) or count_real_roots(wedge, hi, bound)):
            return lo, hi, inside[0] == 1
    return None


def certified_radius_from_charpoly(p) -> AlgebraicNumber:
    """Largest root modulus of the characteristic polynomial p of an integer
    matrix invertible over Z (or of its reversal, the characteristic
    polynomial of the inverse up to sign), as a certified algebraic number.

    Strategy: if the primitive integer polynomial of p is monic, of
    squarefree degree at most 1078, its squarefree part is +- its reversal,
    and every root lies in |x| < 1 + 10^-6, the radius is exactly 1 (all
    roots are then roots of unity).  Otherwise isolate the largest-modulus
    real root r and certify with two disk counts
    that the annulus just around |r| contains only real roots and nothing
    lies outside; when a complex pair dominates (or ties with a real root),
    the squared radius is recovered as the largest real root of the product of
    the two halves of _symmetric_square(sf), the polynomial of the products
    of pairs of roots of the squarefree part sf.  The exact Sturm counts
    that place that root certify it: no root product has modulus above
    rho^2, which is itself one of them, so no disk count is needed.  Its
    minimal polynomial is read from the factors of the half with that root
    alone: the Graeffe polynomial (roots alpha_i^2) when a real root
    carries the modulus, else the exterior square (roots alpha_i alpha_j,
    i < j).

    The certificate depends on the primitive integer polynomial of p alone
    (its squarefree part, constant and leading coefficient), so it is
    computed once per distinct primitive polynomial per process and shared:
    a reciprocal p and its reversal p[::-1] have one entry.  A refusal
    (ValueError) is not cached.
    """
    return _certified_radius_int(_int_key(p))


@lru_cache(maxsize=4096)
def _certified_radius_int(key: tuple) -> AlgebraicNumber:
    """certified_radius_from_charpoly of a primitive integer polynomial with
    positive leading coefficient."""
    sf = poly_squarefree(key)
    n = len(sf) - 1
    if n <= 0:
        raise ValueError("constant polynomial has no spectral radius")
    if sf[0] == 0:
        raise ValueError("singular matrix: zero eigenvalue")

    # The roots of a monic key are non-zero algebraic integers.  One of
    # degree d <= n that is no root of unity has a conjugate, also a root of
    # sf, of modulus above 1 + ln d / (6 d^2) (Dobrowolski, Bull. Acad.
    # Polon. Sci. 26, 1978; an integer other than +-1 has modulus >= 2),
    # which for every d <= 1078 exceeds the counted radius (1 + 10^-6,
    # nudged up by less than 1.2 10^-9).  A count that finds every root
    # inside therefore finds only roots of unity (Kronecker): the radius is
    # exactly 1.  A root of unity has its inverse among its conjugates, so
    # a product of distinct cyclotomic polynomials equals its reversal up
    # to sign (x - 1 is the one with the sign); any other monic sf has a
    # root outside the disk, and the count is not made.
    if key[-1] == 1 and n <= 1078 and sf[::-1] in (sf, [-c for c in sf]):
        cnt, _ = disk_root_count_robust(sf, ONE + QQ(1, 10**6), direction=+1)
        if cnt == n:
            return AlgebraicNumber((-1, 1), ONE, ONE)

    champion = _dominant_real_root(sf, CERTIFIED_WIDTH / 4)
    if champion is not None:
        lo, hi = champion
        # certify: everything inside |x| < a_hi + delta, and the annulus
        # (a_lo - delta, a_hi + delta] contains only real roots
        for _attempt in range(3):
            a_lo, a_hi = _abs_interval(lo, hi)
            delta = max((hi - lo) / 4, QQ(1, 10**12))
            outer, r_out = disk_root_count_robust(sf, a_hi + delta, direction=+1)
            if outer != n:
                # a root outside the outer disk is a non-real root of larger
                # modulus than every real one, which no refinement undoes
                break
            if a_lo - delta <= 0:
                # every root has positive modulus (the constant term is non-zero)
                r_in, inner = ZERO, 0
            else:
                # never n: the champion, of modulus >= a_lo, is outside
                inner, r_in = disk_root_count_robust(sf, a_lo - delta, direction=-1)
            annulus = n - inner
            reals_in_annulus = count_real_roots(sf, r_in, r_out) + count_real_roots(
                sf, -r_out, -r_in
            )
            if annulus == reals_in_annulus:
                # the dominant modulus is carried by a real root
                if hi <= 0:
                    mp = poly_primitive_int(
                        poly_negate_variable(minimal_polynomial_of_root(sf, lo, hi))
                    )
                    return AlgebraicNumber(tuple(mp), -hi, -lo)
                mp = minimal_polynomial_of_root(sf, lo, hi)
                return AlgebraicNumber(tuple(mp), lo, hi)
            # a complex root in the annulus may lie just inside |r|: tighten
            # and retry before concluding complex dominance
            lo, hi = refine_root_interval(sf, lo, hi, (hi - lo) / 2**10)

    # Complex-dominant or tied moduli.  The squared radius is always the
    # largest real root of the symmetric square: alpha_max * conj(alpha_max)
    # is real, positive, and no root product can exceed it.  Its degree
    # n(n+1)/2 limits Sturm isolation of all its real roots to small
    # matrices, which is where the generic annulus certificate can be
    # defeated.
    if n > 8:
        raise EngineLimit(
            "_certified_radius_int",
            "could not certify the spectral radius (tied moduli on a matrix "
            "too large for the tensor-square fallback)",
        )
    graeffe, wedge = _symmetric_square(sf)
    w = poly_primitive_int(poly_mul(graeffe, wedge))
    # squarefree of full degree mod a prime, w is squarefree over Q, the
    # primitive squarefree part poly_squarefree would return.  Its roots
    # collide mod small primes often: of the 90 fallbacks of dyn-sample
    # seeds 5151 and 7 (all with a squarefree w) the prime 3 proves 48, and
    # 3, 5, 7 and 11 together prove all
    if any(_good_reduction(w, q) is not None for q in islice(_odd_primes(), 4)):
        cp_sf = w
    else:
        cp_sf = poly_squarefree(w)
    node = _located_node(cp_sf, graeffe, wedge, _float_radius_squared(sf))
    if node is None:
        reals = isolate_real_roots(cp_sf)
        if not reals:
            raise ValueError("symmetric square has no real root; engine bug")
        lam_lo, lam_hi = max(reals, key=lambda iv: iv[1])
        lam_lo, lam_hi = refine_root_interval(cp_sf, lam_lo, lam_hi, _SQUARE_WIDTH)
        in_graeffe = count_real_roots(graeffe, lam_lo, lam_hi) > 0
    else:
        lam_lo, lam_hi, in_graeffe = node
    if lam_hi <= 0:
        raise ValueError("symmetric square has no positive real root; engine bug")
    # (lam_lo, lam_hi] isolates one root of cp_sf, so of either half that
    # has a root in it, and the minimal polynomial divides that half: the
    # Graeffe half when a real root has the largest modulus, else the
    # exterior square
    m_lam = minimal_polynomial_of_root(graeffe if in_graeffe else wedge, lam_lo, lam_hi)
    s = AlgebraicNumber(tuple(m_lam), lam_lo, lam_hi)
    m2 = _unfold_square(s.minpoly)
    for _round in range(80):
        lo = _fraction_sqrt_bounds(s.lo, CERTIFIED_WIDTH / 2)[0]
        hi = _fraction_sqrt_bounds(s.hi, CERTIFIED_WIDTH / 2)[1]
        # (lo, hi] holds the radius sqrt(lambda); it certifies it once it
        # isolates that root of m(x^2)
        if count_real_roots(m2, lo, hi) == 1:
            mp = minimal_polynomial_of_root(m2, lo, hi)
            lo2, hi2 = refine_root_interval(mp, lo, hi, CERTIFIED_WIDTH)
            return AlgebraicNumber(tuple(mp), lo2, hi2)
        s = s.refined(s.width / 2**8)
    raise EngineLimit("_certified_radius_int", "could not certify the spectral radius (tied moduli)")
