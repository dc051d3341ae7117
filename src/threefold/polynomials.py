"""Exact integer-polynomial tools for certified spectral radii.

Polynomials are dense coefficient lists, lowest degree first.  The
certification core works on integer lists: a rational input is first
scaled to its primitive integer part (same roots), and every gcd,
squarefree part, Sturm chain, sign evaluation and Routh table after that
stays in int arithmetic.  Fractions remain only in the rational interval
endpoints the root routines return (they are integers over one common
denominator while being refined); exact division is _exact_quotient on
integer polynomials.  The pieces:

- berkowitz_charpoly: division-free characteristic polynomial.
- poly_gcd and poly_squarefree: the primitive polynomial remainder
  sequence (W. S. Brown, J. ACM 18, 1971); one cache of squarefree parts,
  keyed by the primitive integer tuple, serves every caller below.
- Sturm-chain real-root counting/isolation with exact rational endpoints;
  an isolating interval is refined by the sign of the squarefree part.
- disk_root_count: number of distinct roots in |x| < R, via the Moebius map
  onto a half-plane and a fraction-free Routh table.  Used to certify that
  no complex root escapes past the leading real root.
- minimal_polynomial_of_root: the irreducible factor over Z owning a root.
  The factoriser intersects the factor-degree sets of the polynomial mod
  a few primes (distinct-degree factorisation through the Berlekamp
  matrix), which proves most inputs irreducible; the rest are split mod a
  prime (Cantor-Zassenhaus), Hensel-lifted above a Mignotte bound and
  recombined exhaustively with exact trial division.  Its cache is keyed
  by the smaller of a squarefree part and its reversal, so the
  characteristic polynomials of A and A^-1 are factored once.
- certified_radius_from_charpoly: the largest root modulus of an integer
  characteristic polynomial as an exact algebraic number (minimal
  polynomial + isolating interval).  Each distinct primitive polynomial
  is certified once per process (one cache, keyed like the squarefree
  parts), so a reciprocal characteristic polynomial and its reversal
  share one certificate.  Only the real roots whose modulus can still
  lead are refined to the certified width.  When the dominant modulus is
  not carried by real roots alone, the squared radius is recovered as
  the largest real root of the symmetric square of the squarefree part
  (the polynomial of its pairwise root products), which always carries
  it; that polynomial is built from power sums by Newton's identities in
  its two halves (Graeffe and exterior square), and only the half owning
  the root is factored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, zip_longest
from math import comb, gcd, isqrt, lcm

QQ = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# basic polynomial arithmetic (dense, low-to-high)
# ---------------------------------------------------------------------------


def poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return list(p)


def poly_degree(p) -> int:
    p = poly_trim(p)
    return len(p) - 1 if any(c != 0 for c in p) else -1


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return poly_trim(out)


def poly_derivative(p):
    if len(p) <= 1:
        return [0]
    return [i * c for i, c in enumerate(p)][1:]


def _primitive_part(p) -> list[int]:
    """Clear denominators and divide by the content, never flipping signs
    (a sign flip would corrupt a Sturm chain)."""
    ints = poly_trim(p)
    if not all(type(c) is int for c in ints):
        rats = [QQ(c) for c in ints]
        den = 1
        for c in rats:
            den = lcm(den, c.denominator)
        ints = [c.numerator * (den // c.denominator) for c in rats]
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def poly_primitive_int(p):
    """Scale a rational polynomial to primitive integer coefficients with
    positive leading coefficient."""
    ints = _primitive_part(p)
    return [-c for c in ints] if ints[-1] < 0 else ints


def _pseudo_remainder(a, b) -> list[int]:
    """A positive integer multiple of the remainder of a by b over Q, for
    integer a and b (b non-zero): each step scales a by |lc(b)| / g only,
    with g the gcd of lc(b) and the term it cancels."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) > db:
        c = a[-1]
        if c:
            g = gcd(c, lb)
            m, f = lb // g, c // g
            if m < 0:
                m, f = -m, -f
            if m != 1:
                a = [m * v for v in a]
            shift = len(a) - 1 - db
            for i, v in enumerate(b):
                a[shift + i] -= f * v
        a.pop()
    return poly_trim(a) if a else [0]


def poly_gcd(p, q):
    """Greatest common divisor as a primitive integer polynomial with
    positive leading coefficient, by the primitive polynomial remainder
    sequence: integer pseudo-remainders, each divided by its content
    (W. S. Brown, J. ACM 18, 1971)."""
    a, b = _primitive_part(p), _primitive_part(q)
    while any(b):
        a, b = b, _primitive_part(_pseudo_remainder(a, b))
    return [-c for c in a] if a[-1] < 0 else a


def _exact_quotient(p, g) -> list[int] | None:
    """p / g for integer polynomials, or None if g does not divide p over Z."""
    dg, lg = len(g) - 1, g[-1]
    rem, quot = list(p), [0] * (len(p) - dg)
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[k + dg], lg)
        if r:
            return None
        quot[k] = c
        if c:
            rem[k : k + dg + 1] = [x - c * y for x, y in zip(rem[k : k + dg + 1], g)]
    return None if any(rem[:dg]) else quot


@lru_cache(maxsize=4096)
def _squarefree_int(p: tuple) -> tuple:
    """Squarefree part of a primitive integer polynomial with positive
    leading coefficient, in the same form (p itself when p is squarefree)."""
    g = poly_gcd(p, poly_derivative(p))
    if len(g) == 1:
        return p
    return tuple(_exact_quotient(p, g))


def _int_key(p) -> tuple:
    return tuple(poly_primitive_int(p))


def poly_squarefree(p):
    """Squarefree part of p (same distinct roots, multiplicity one), as a
    primitive integer polynomial with positive leading coefficient."""
    return list(_squarefree_int(_int_key(p)))


def poly_negate_variable(p):
    """p(-x)."""
    return [(-1) ** i * c for i, c in enumerate(p)]


def poly_compose_square(p):
    """Polynomial with coefficient list q such that q(x^2) = +-p(x) p(-x);
    its roots are the squares of the roots of p."""
    prod = poly_mul(p, poly_negate_variable(p))
    # product of p(x)p(-x) is even
    q = [c for i, c in enumerate(prod) if i % 2 == 0]
    assert all(c == 0 for i, c in enumerate(prod) if i % 2 == 1)
    if q[-1] < 0:
        q = [-c for c in q]
    return poly_trim(q)


def poly_to_str(p, var: str = "x") -> str:
    p = poly_trim(p)
    terms = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = f"{mag}"
        elif i == 1:
            body = f"{var}" if mag == 1 else f"{mag}*{var}"
        else:
            body = f"{var}^{i}" if mag == 1 else f"{mag}*{var}^{i}"
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# characteristic polynomial and symmetric square
# ---------------------------------------------------------------------------


def berkowitz_charpoly(matrix) -> list[int]:
    """Characteristic polynomial det(xI - A), low-to-high, division-free.

    Integer matrices give integer coefficients; rational entries are fine too.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix not square")
    if n == 0:
        return [1]
    # Berkowitz iteration: build the coefficient vector via Toeplitz products.
    vec = [1, -matrix[0][0]]
    for k in range(1, n):
        a = matrix[k][k]
        row = matrix[k][:k]  # R: 1 x k
        col = [matrix[i][k] for i in range(k)]  # C: k x 1
        sub = [matrix[i][:k] for i in range(k)]  # principal k x k block
        # powers[j] = R . sub^j . C
        powers = []
        cur = col
        for _ in range(k):
            powers.append(sum(r * c for r, c in zip(row, cur)))
            cur = [sum(sub[i][t] * cur[t] for t in range(k)) for i in range(k)]
        # Toeplitz column: [1, -a, -powers[0], -powers[1], ...]
        toep = [1, -a] + [-p for p in powers]
        new = [0] * (k + 2)
        for i in range(k + 2):
            s = 0
            for j in range(min(i, len(vec) - 1) + 1):
                if i - j < len(toep):
                    s += toep[i - j] * vec[j]
            new[i] = s
        vec = new
    # vec holds [1, c_{n-1}, ..., c_0] in falling powers of x
    return list(reversed(vec))


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


# ---------------------------------------------------------------------------
# Sturm chains and real-root isolation
# ---------------------------------------------------------------------------
#
# Chains are cached per integer-coefficient tuple, built from the same
# pseudo-remainders as poly_gcd, and every sign evaluation at a rational
# num/den is done homogeneously in integers (sign of
# sum_i c_i num^i den^(d-i)), so counting, isolation and refinement never
# touch Fraction arithmetic in the inner loop.


@lru_cache(maxsize=4096)
def _sturm_chain_int(p: tuple) -> tuple:
    chain = [p]
    d = poly_derivative(p)
    if any(d):
        chain.append(tuple(_primitive_part(d)))
    while len(chain[-1]) > 1:
        # a positive multiple of the remainder: the primitive part of its
        # negation is the chain's next entry, sign included
        r = _pseudo_remainder(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append(tuple(_primitive_part([-c for c in r])))
    return tuple(chain)


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


def count_real_roots(p, lo, hi) -> int:
    """Distinct real roots of p in (lo, hi]; p need not be squarefree."""
    chain = _chain_for(p)
    lo, hi = QQ(lo), QQ(hi)
    return _variations(chain, lo.numerator, lo.denominator) - _variations(
        chain, hi.numerator, hi.denominator
    )


def cauchy_root_bound(p) -> Fraction:
    """All roots have modulus < 1 + max |c_i / lead|."""
    p = poly_trim(p)
    lead = QQ(p[-1])
    if lead == 0:
        raise ValueError("zero polynomial")
    mx = max((abs(QQ(c) / lead) for c in p[:-1]), default=ZERO)
    return 1 + mx


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
    Once (lo, hi] holds a single root, a simple root of the squarefree part
    sf, the root lies in (lo, mid] exactly when sf(mid) = 0 or sf changes
    sign between lo and mid; when lo is another root of sf, the sign just
    right of it is that of sf'(lo).  An interval holding several roots is
    bisected by Sturm counts towards its leftmost root.
    """
    chain = _chain_for(p)
    lo, hi, width = QQ(lo), QQ(hi), QQ(width)
    den = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    v_lo, v_hi = _variations(chain, a, den), _variations(chain, b, den)
    if v_lo - v_hi <= 0:
        raise ValueError("interval does not isolate a root")

    # a bisection doubles den and keeps b - a, so the number of bisections
    # that bring (b - a) / den down to width is known from the start
    steps = 0
    while (b - a) * width.denominator > (width.numerator * den) << steps:
        steps += 1
    while steps and v_lo - v_hi > 1:
        steps -= 1
        mid, den = a + b, 2 * den
        v_mid = _variations(chain, mid, den)
        if v_lo - v_mid > 0:
            a, b, v_hi = 2 * a, mid, v_mid
        else:
            a, b, v_lo = mid, 2 * b, v_mid
    if steps:
        sf = chain[0]
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
    """A root lies (numerically) on the tested circle; retry with another radius."""


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
    root sits on the circle of that radius, caller perturbs)."""
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


def disk_root_count_robust(p, radius: Fraction, direction: int = 1) -> tuple[int, Fraction]:
    """disk_root_count with automatic radius perturbation.

    Nudges the radius by shrinking steps in the given direction (+1 grows,
    -1 shrinks) until the circle is root-free.  Returns (count, radius used).
    """
    eps = QQ(1, 10**9)
    r = radius
    for _ in range(60):
        try:
            return disk_root_count(p, r), r
        except BoundaryRoot:
            r = r + direction * eps
            eps = eps / 7
    raise RuntimeError("could not find a root-free circle near the requested radius")


# ---------------------------------------------------------------------------
# algebraic numbers and certified spectral radius
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraicNumber:
    """A real algebraic number: integer minimal polynomial plus an isolating
    rational interval [lo, hi] containing exactly that root."""

    minpoly: tuple[int, ...]
    lo: Fraction
    hi: Fraction

    def __float__(self) -> float:
        return float((self.lo + self.hi) / 2)

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


# ---------------------------------------------------------------------------
# factorisation over Z: degree sets mod p (Musser, J. ACM 25, 1978), then
# Hensel lifting and exhaustive recombination (Zassenhaus, J. Number
# Theory 1, 1969)
# ---------------------------------------------------------------------------
#
# A polynomial mod m is a list of ints in [0, m), low-to-high, without
# leading zeros ([] is zero); every divisor below has a leading coefficient
# invertible mod m.  The radius fallback's symmetric square is the product
# of its two halves, so its degree sets never end the search early and it
# would always be lifted and recombined: only the half that owns the
# squared radius is factored.

GOOD_PRIMES = 3  # primes whose degree sets are intersected before lifting


def _mod_strip(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _mod_add(a, b, m, sign: int = 1) -> list:
    """a + sign * b mod m."""
    return _mod_strip([(x + sign * y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _mod_mul(a, b, m) -> list:
    if not a or not b:
        return []
    out, lb = [0] * (len(a) + len(b) - 1), len(b)
    for i, x in enumerate(a):
        if x:
            out[i : i + lb] = [o + x * y for o, y in zip(out[i : i + lb], b)]
    return _mod_strip([c % m for c in out])


def _mod_divmod(a, b, m) -> tuple[list, list]:
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    inv = pow(b[-1], -1, m)
    r, q = list(a), [0] * (len(a) - db)
    # entries are reduced only when they become the leading one
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] * inv % m
        if c:
            r[k : k + db] = [x - c * y for x, y in zip(r[k : k + db], b)]
    return q, _mod_strip([c % m for c in r[:db]])


def _mod_monic(a, m) -> list:
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _mod_gcd(a, b, p) -> list:
    """Monic gcd over F_p of a non-zero a and any b."""
    while b:
        a, b = b, _mod_divmod(a, b, p)[1]
    return _mod_monic(a, p)


def _mod_gcdex(a, b, p) -> tuple[list, list]:
    """s, t with s a + t b = 1 over F_p, deg s < deg b, deg t < deg a, for
    coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _mod_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod_add(s0, _mod_mul(q, s1, p), p, -1)
        t0, t1 = t1, _mod_add(t0, _mod_mul(q, t1, p), p, -1)
    inv = pow(r0[0], -1, p)  # r0 is the non-zero constant gcd
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _mod_powmod(a, e: int, g, p) -> list:
    out, a = [1], _mod_divmod(a, g, p)[1]
    while e:
        if e & 1:
            out = _mod_divmod(_mod_mul(out, a, p), g, p)[1]
        e >>= 1
        if e:
            a = _mod_divmod(_mod_mul(a, a, p), g, p)[1]
    return out


def _odd_primes():
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _berlekamp_rows(f, p) -> list[list]:
    """Row i is x^(i p) mod f (length deg f), for a monic f over F_p: the
    Berlekamp matrix, whose vector-matrix product is h -> h^p mod f."""
    n = len(f) - 1
    neg = [(-c) % p for c in f[:n]]
    cur, rows = [1] + [0] * (n - 1), []
    for k in range((n - 1) * p + 1):
        if k % p == 0:
            cur = [c % p for c in cur]
            rows.append(cur)
        lead, cur = cur[-1] % p, [0] + cur[:-1]
        if lead:
            cur = [x + lead * y for x, y in zip(cur, neg)]
    return rows


def _frobenius(h, rows, p) -> list:
    """h^p mod f for h reduced mod f, from the Berlekamp rows of f."""
    acc = [0] * len(rows)
    for c, row in zip(h, rows):
        if c:
            acc = [a + c * r for a, r in zip(acc, row)]
    return _mod_strip([a % p for a in acc])


def _distinct_degree_factors(f, rows, p) -> list[tuple[int, list]]:
    """[(d, product of the monic degree-d factors)] of a monic squarefree f
    over F_p."""
    out, g, h, d = [], f, [0, 1], 0
    while 2 * (d + 1) <= len(g) - 1:
        d += 1
        h = _frobenius(h, rows, p)
        # gcd(g, x^(p^d) - x) collects the factors of degree d
        u = _mod_gcd(g, _mod_add(h, [0, 1], p, -1), p)
        if len(u) > 1:
            out.append((d, u))
            g = _mod_divmod(g, u, p)[0]
    if len(g) > 1:
        out.append((len(g) - 1, g))
    return out


def _equal_degree_factors(g, d: int, rows, p, rng) -> list[list]:
    """Monic irreducible factors over F_p (p odd) of g, a product of
    distinct monic factors of degree d dividing f (whose Berlekamp rows
    are given): Cantor-Zassenhaus splitting, with a^((p^d - 1)/2) taken as
    (a a^p ... a^(p^(d-1)))^((p-1)/2)."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _mod_strip([rng.randrange(p) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        b = t = a
        for _ in range(d - 1):
            t = _frobenius(t, rows, p)
            b = _mod_divmod(_mod_mul(b, t, p), g, p)[1]
        b = _mod_powmod(b, (p - 1) // 2, g, p)
        u = _mod_gcd(g, _mod_add(b, [1], p, -1), p)
        if 1 < len(u) < len(g):
            return _equal_degree_factors(u, d, rows, p, rng) + _equal_degree_factors(
                _mod_divmod(g, u, p)[0], d, rows, p, rng
            )


def _hensel_lift(f, factors, p, k: int) -> list[list]:
    """Monic lifts mod p^k of the monic factors of f mod p, where
    f = lc(f) * prod(factors) mod p: a factor tree of quadratic Hensel
    steps (von zur Gathen and Gerhard, Modern Computer Algebra, Algorithm
    15.10), each from p^e to p^min(2e, k)."""
    if len(factors) == 1:
        return [_mod_monic(f, p**k)]
    half = len(factors) // 2
    g, h = [f[-1] % p], [1]
    for u in factors[:half]:
        g = _mod_mul(g, u, p)
    for u in factors[half:]:
        h = _mod_mul(h, u, p)
    s, t = _mod_gcdex(g, h, p)
    e = 1
    while e < k:
        e = min(2 * e, k)
        m = p**e
        err = _mod_add(f, _mod_mul(g, h, m), m, -1)
        q, r = _mod_divmod(_mod_mul(s, err, m), h, m)
        g = _mod_add(_mod_add(g, _mod_mul(t, err, m), m), _mod_mul(q, g, m), m)
        h = _mod_add(h, r, m)
        if e < k:
            b = _mod_add(_mod_add(_mod_mul(s, g, m), _mod_mul(t, h, m), m), [1], m, -1)
            c, d = _mod_divmod(_mod_mul(s, b, m), h, m)
            s = _mod_add(s, d, m, -1)
            t = _mod_add(_mod_add(t, _mod_mul(t, b, m), m, -1), _mod_mul(c, g, m), m, -1)
    return _hensel_lift(g, factors[:half], p, k) + _hensel_lift(h, factors[half:], p, k)


def _recombine(f, modular, p, degrees_allowed: int) -> tuple:
    """Irreducible factors over Z of f from its monic factors mod p.

    A factor g of degree d <= D of any factor F of f has, times
    lc(F) / lc(g), Mahler measure at most M(f) <= ||f||_2, so its
    coefficients are at most C(D, D // 2) ||f||_2 in size (Mignotte); the
    factors are lifted mod p^k above 2 lc(f) times that, where every factor
    of F is the symmetric residue of lc(F) times a subset of the lifts.
    D is the largest proper factor degree allowed at every prime tried,
    and a subset of any other degree is skipped.  Subsets are tried by
    increasing size and divided out exactly, so each factor found is
    irreducible and what remains at the end is too.
    """
    n, lc = len(f) - 1, f[-1]
    top = (degrees_allowed & ((1 << n) - 1)).bit_length() - 1
    bound = 2 * lc * comb(top, top // 2) * (isqrt(sum(c * c for c in f)) + 1)
    k = 1
    while p**k <= bound:
        k += 1
    modulus, half = p**k, p**k // 2
    lifts = _hensel_lift(list(f), modular, p, k)
    found, rest, remaining, size = [], list(f), list(range(len(lifts))), 1
    while 2 * size <= len(remaining):
        for subset in combinations(remaining, size):
            if not degrees_allowed >> sum(len(lifts[i]) - 1 for i in subset) & 1:
                continue
            lead = rest[-1]
            # constant term first: it must divide lc(F) F(0)
            c0 = lead
            for i in subset:
                c0 = c0 * lifts[i][0] % modulus
            c0 = c0 - modulus if c0 > half else c0
            if c0 == 0 or lead * rest[0] % c0:
                continue
            g = [lead % modulus]
            for i in subset:
                g = _mod_mul(g, lifts[i], modulus)
            g = poly_primitive_int([c - modulus if c > half else c for c in g])
            quot = _exact_quotient(rest, g)
            if quot is not None:
                found.append(tuple(g))
                rest = quot
                remaining = [i for i in remaining if i not in subset]
                break
        else:
            size += 1
    found.append(tuple(poly_primitive_int(rest)))
    return tuple(found)


@lru_cache(maxsize=2048)
def _factor_squarefree(f: tuple) -> tuple:
    """Irreducible factors over Z of a primitive squarefree f with lc > 0,
    f(0) != 0 and degree >= 1, each primitive with lc > 0.

    An even f is m(x^2), and each irreducible factor h of m gives h(x^2),
    which is irreducible unless a root b of h is a square in Q(b)
    (Capelli); then the norm (-1)^deg(h) h(0) / lc(h) of b is a rational
    square.  So h(x^2) is factored only when that norm is a square."""
    if len(f) > 3 and not any(f[1::2]):
        out = []
        for h in _factor_squarefree(f[::2]):
            h2 = [0] * (2 * len(h) - 1)
            h2[::2] = h
            norm = (-1) ** (len(h) - 1) * h[0] * h[-1]
            if norm < 0 or isqrt(norm) ** 2 != norm:
                out.append(tuple(h2))
            else:
                out.extend(_factor_by_primes(tuple(h2)))
        return tuple(out)
    return _factor_by_primes(f)


def _factor_by_primes(f: tuple) -> tuple:
    """_factor_squarefree without the even case.

    The degree set of f mod p (the sums of sub-multisets of its factor
    degrees) contains the degree of every factor over Z; once the
    intersection over good primes holds only 0 and deg f, f is proven
    irreducible.  Otherwise f is lifted from the prime with fewest factors
    and recombined."""
    n = len(f) - 1
    allowed, best, tried = (1 << (n + 1)) - 1, None, 0
    for p in _odd_primes():
        if f[-1] % p == 0:
            continue
        fp = _mod_monic([c % p for c in f], p)
        if len(_mod_gcd(fp, _mod_strip([i * c % p for i, c in enumerate(fp)][1:]), p)) > 1:
            continue  # not squarefree mod p
        rows = _berlekamp_rows(fp, p)
        ddf = _distinct_degree_factors(fp, rows, p)
        sums, count = 1, 0
        for d, u in ddf:
            for _ in range((len(u) - 1) // d):
                sums |= sums << d
                count += 1
        allowed &= sums
        if allowed == 1 | 1 << n:
            return (f,)
        if best is None or count < best[0]:
            best = (count, p, rows, ddf)
        tried += 1
        if tried == GOOD_PRIMES:
            break
    _, p, rows, ddf = best
    rng = random.Random(p)
    modular = [v for d, u in ddf for v in _equal_degree_factors(u, d, rows, p, rng)]
    return _recombine(f, modular, p, allowed)


def _irreducible_factors_int(p: tuple) -> tuple:
    """Distinct irreducible factors over Z of a primitive integer
    polynomial with lc > 0, each primitive with lc > 0.  The factoriser's
    cache is keyed by the smaller of the squarefree part and its reversal,
    whose factors are the reversed factors, so a characteristic polynomial
    and the reversed one (of the inverse matrix) are factored once."""
    sf = _squarefree_int(p)
    head = ()
    if sf[0] == 0:
        head, sf = ((0, 1),), sf[1:]
    if len(sf) == 1:
        return head
    rev = tuple(poly_primitive_int(sf[::-1]))
    if rev < sf:
        return head + tuple(tuple(poly_primitive_int(g[::-1])) for g in _factor_squarefree(rev))
    return head + _factor_squarefree(sf)


def minimal_polynomial_of_root(p, lo, hi) -> list[int]:
    """Irreducible integer factor of p whose root lies in the isolating
    interval (lo, hi], primitive with a positive leading coefficient.  The
    distinct irreducible factors of p come from the package's factoriser
    over Z (_irreducible_factors_int); the interval is refined
    until exactly one of them has a root in it."""
    ints = poly_primitive_int(p)
    candidates = [list(f) for f in _irreducible_factors_int(tuple(ints))]
    while True:
        matching = [
            f for f in candidates if count_real_roots(f, lo, hi) > 0
        ]
        if len(matching) == 1:
            out = poly_primitive_int(matching[0])
            return out
        if not matching:
            raise ValueError("no factor has a root in the interval")
        lo, hi = refine_root_interval(p, lo, hi, (hi - lo) / 4)


def _fraction_sqrt_bounds(x: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) <= hi with hi - lo <= width, for x >= 0."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return ZERO, ZERO
    # the least power of 4 with 1 / scale <= width^2 / 4, i.e. at least
    # t = ceil(4 q^2 / p^2) for width = p / q
    t = -(-4 * width.denominator**2 // width.numerator**2)
    scale = 1 << 2 * (((t - 1).bit_length() + 1) // 2)
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
    raise RuntimeError("real roots with pathologically close moduli")


def _verified_radius_interval(sf, n, lo, hi, width):
    """Disk-certify that the spectral radius lies in [lo - delta, hi + delta]:
    everything inside the outer radius, something escaping the inner one.
    Returns (r_in, r_out, inner_count) or None."""
    delta = max(width / 4, QQ(1, 10**12))
    outer, r_out = disk_root_count_robust(sf, hi + delta, direction=+1)
    if outer != n:
        return None
    if lo - delta <= 0:
        # every root has positive modulus (the constant term is non-zero)
        return ZERO, r_out, 0
    inner, r_in = disk_root_count_robust(sf, lo - delta, direction=-1)
    if inner == n:
        return None
    return r_in, r_out, inner


def certified_radius_from_charpoly(p) -> AlgebraicNumber:
    """Largest root modulus of the characteristic polynomial p of an integer
    matrix invertible over Z (or of its reversal, the characteristic
    polynomial of the inverse up to sign), as a certified algebraic number.

    Strategy: if every root lies in the closed unit disk, the radius is
    exactly 1 (all roots are then roots of unity).  Otherwise isolate the
    largest-modulus real root r and certify with two disk counts that the
    annulus just around |r| contains only real roots and nothing lies
    outside; when a complex pair dominates (or ties with a real root), the
    squared radius is recovered as the largest real root of the product of
    the two halves of _symmetric_square(sf), the polynomial of the products
    of pairs of roots of the squarefree part sf, and verified by the same
    disk counts.  Its minimal polynomial is read from the factors of the
    half with that root alone: the Graeffe polynomial (roots alpha_i^2)
    when a real root carries the modulus, else the exterior square (roots
    alpha_i alpha_j, i < j).

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

    # product of |roots| = |constant/lead| ; >= 1 forces radius >= 1
    if abs(key[0]) >= key[-1]:
        cnt, _ = disk_root_count_robust(sf, ONE + QQ(1, 10**6), direction=+1)
        if cnt == n:
            # Kronecker: all roots in the closed unit disk with unit product,
            # so every root has modulus exactly 1
            return AlgebraicNumber((-1, 1), ONE, ONE)

    champion = _dominant_real_root(sf, CERTIFIED_WIDTH / 4)
    if champion is not None:
        lo, hi = champion
        # certify: everything inside |x| < a_hi + delta, and the annulus
        # (a_lo - delta, a_hi + delta] contains only real roots
        for _attempt in range(3):
            a_lo, a_hi = _abs_interval(lo, hi)
            ring = _verified_radius_interval(sf, n, a_lo, a_hi, hi - lo)
            if ring is not None:
                r_in, r_out, inner = ring
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
            # a complex modulus sits too close: tighten and retry before
            # concluding complex dominance
            lo, hi = refine_root_interval(sf, lo, hi, (hi - lo) / 2**10)

    # Complex-dominant or tied moduli.  The squared radius is always the
    # largest real root of the symmetric square: alpha_max * conj(alpha_max)
    # is real, positive, and no root product can exceed it.  Its degree
    # n(n+1)/2 limits Sturm isolation of all its real roots to small
    # matrices, which is where the generic annulus certificate can be
    # defeated.
    if n > 8:
        raise ValueError(
            "could not certify the spectral radius (tied moduli on a matrix "
            "too large for the tensor-square fallback)"
        )
    graeffe, wedge = _symmetric_square(sf)
    cp_sf = poly_squarefree(poly_mul(graeffe, wedge))
    reals = isolate_real_roots(cp_sf)
    if not reals:
        raise ValueError("symmetric square has no real root; engine bug")
    lam_lo, lam_hi = max(reals, key=lambda iv: iv[1])
    lam_lo, lam_hi = refine_root_interval(cp_sf, lam_lo, lam_hi, CERTIFIED_WIDTH**2 / 8)
    if lam_hi <= 0:
        raise ValueError("symmetric square has no positive real root; engine bug")
    # (lam_lo, lam_hi] isolates one root of cp_sf, so of either half that
    # has a root in it, and the minimal polynomial divides that half: the
    # Graeffe half when a real root has the largest modulus, else the
    # exterior square
    half = graeffe if count_real_roots(graeffe, lam_lo, lam_hi) else wedge
    m_lam = minimal_polynomial_of_root(half, lam_lo, lam_hi)
    s = AlgebraicNumber(tuple(m_lam), lam_lo, lam_hi)
    m2 = [0] * (2 * len(s.minpoly) - 1)
    for i, c in enumerate(s.minpoly):
        m2[2 * i] = c
    for _round in range(80):
        lo = _fraction_sqrt_bounds(s.lo, CERTIFIED_WIDTH / 2)[0]
        hi = _fraction_sqrt_bounds(s.hi, CERTIFIED_WIDTH / 2)[1]
        # the sqrt interval must isolate a unique root of m(x^2) and pass
        # the disk certificate on the original polynomial
        if count_real_roots(m2, lo, hi) == 1 and (
            _verified_radius_interval(sf, n, lo, hi, hi - lo) is not None
        ):
            mp = minimal_polynomial_of_root(m2, lo, hi)
            lo2, hi2 = refine_root_interval(mp, lo, hi, CERTIFIED_WIDTH)
            return AlgebraicNumber(tuple(mp), lo2, hi2)
        s = s.refined(s.width / 2**8)
    raise ValueError("could not certify the spectral radius (tied moduli)")
