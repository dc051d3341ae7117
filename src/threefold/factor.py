"""Factorisation over Z and the minimal polynomial of a root.

minimal_polynomial_of_root: the irreducible factor over Z owning a root.
An even polynomial m(x^2) or a reciprocal one x^e k(x +- 1/x) is factored
through m or k, and each factor of the half is proven to lift to one
irreducible factor by Capelli's theorem when an element of a small number
field is shown to be no square (a norm, then a quadratic character mod a
few primes).  Any other polynomial, and a factor left unproven, goes to the
general factoriser: it intersects the factor-degree sets of the polynomial
mod a few primes (distinct-degree factorisation through the Berlekamp
matrix), which proves most inputs irreducible; the rest are split mod a
prime (Cantor-Zassenhaus), Hensel-lifted above a Mignotte bound and
recombined exhaustively with exact trial division.  Its cache is keyed by
the smaller of a squarefree part and its reversal, so the characteristic
polynomials of A and A^-1 are factored once.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, zip_longest
from math import comb, isqrt

from .bareiss import int_matrix_det
from .polynomials import (
    _exact_quotient,
    _pseudo_remainder,
    _squarefree_int,
    _unfold_square,
    poly_mul,
    poly_primitive_int,
)
from .realroots import count_real_roots


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
# squared radius is factored.  Degree sets cannot prove that half or the
# square-root step's m(x^2) irreducible either: for a unimodular
# characteristic polynomial their roots pair up as +-b and b, +-1/b, so
# their factor degrees mod p pair up too.  _factor_squarefree therefore
# factors an even or reciprocal polynomial through its half-degree
# quotient and proves, by Capelli's theorem, that each factor of the
# quotient gives one irreducible factor, through a non-square in a number
# field (_nonsquare: a norm, then a quadratic character mod small primes);
# only what stays unproven is lifted.

GOOD_PRIMES = 3  # primes whose degree sets are intersected before lifting
# good primes of _nonsquare's quadratic character: of the 480 non-squares
# among the 505 distinct non-linear tests of dyn-sample seeds 1-5, 101 and
# 5151, 12 primes prove 474 and 20 prove all; each of the 25 squares pays
# all 12 before its lift
NONSQUARE_PRIMES = 12


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
    """a^e mod a monic g over F_p, left to right: a is the left factor of
    every multiplication that is not a squaring, so a sparse a (such as x)
    costs one slice per non-zero coefficient there."""
    d, low = len(g) - 1, g[:-1]

    def mulmod(x, y):
        out, ly = [0] * (len(x) + len(y) - 1), len(y)
        for i, c in enumerate(x):
            if c:
                out[i : i + ly] = [o + c * v for o, v in zip(out[i : i + ly], y)]
        for k in range(len(out) - 1, d - 1, -1):
            c = out[k] % p
            if c:
                out[k - d : k] = [o - c * v for o, v in zip(out[k - d : k], low)]
        return _mod_strip([c % p for c in out[:d]])

    a = out = _mod_divmod(a, g, p)[1]
    if e == 0:
        return [1]
    for bit in bin(e)[3:]:
        out = mulmod(out, out)
        if bit == "1":
            out = mulmod(a, out)
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


def _good_reduction(f, p) -> list | None:
    """f mod p made monic, or None when p divides lc(f) or disc(f), that
    is when f is not squarefree of full degree mod p."""
    if f[-1] % p == 0:
        return None
    fp = _mod_monic([c % p for c in f], p)
    if len(_mod_gcd(fp, _mod_strip([i * c % p for i, c in enumerate(fp)][1:]), p)) > 1:
        return None
    return fp


def _monic_resultant(u, q) -> int:
    """Res(u, q) for a monic integer u and an integer q: the product of q
    over the roots of u, the determinant of multiplication by q on
    Z[x]/(u).  It commutes with reduction mod any prime."""
    du = len(u) - 1
    col, cols = _pseudo_remainder(q, u), []
    for _ in range(du):
        col = col + [0] * (du - len(col))
        cols.append(col)
        col = _pseudo_remainder([0] + col, u)
    return int_matrix_det(cols)


def _nonsquare(q, u) -> bool:
    """True only when u(t) is provably not a square in Q(t), for an
    irreducible primitive q with lc > 0 and root t and a monic integer u.

    Norm test: a square of Q(t) has a rational square as its norm
    prod_i u(t_i) = (-1)^(deg q deg u) Res(u, q) / lc(q)^deg u.  For linear
    q this decides.

    Quadratic character: for an odd prime p dividing neither lc(q) nor
    disc(q), each irreducible factor of degree d of q mod p belongs to an
    unramified prime of Q(t) over p with residue field F_(p^d), where t is
    integral.  With w = u^((p-1)/2) mod q, g = gcd(q, w + 1) mod p is the
    product of the factors where u takes a value of F_p that is a
    non-residue, which stays a non-square in F_(p^d) for odd d.  A square
    of Q(t) that is a unit at such a prime reduces to a square, so u(t) is
    no square when g has a root or an odd degree.  The roots are needed:
    when the roots of q mod p pair up as t0 and 1/t0 (the exterior square
    of a unimodular quartic with det 1), u = x has equal characters at
    both, so deg g is even.
    NONSQUARE_PRIMES good primes are tried."""
    d, du, lc = len(q) - 1, len(u) - 1, q[-1]
    norm = (-1) ** (d * du) * _monic_resultant(u, q) * lc**du
    if norm < 0 or isqrt(norm) ** 2 != norm:
        return True
    if d == 1:
        return False
    tried = 0
    for p in _odd_primes():
        qp = _good_reduction(q, p)
        if qp is None:
            continue
        w = _mod_powmod(_mod_strip([c % p for c in u]), (p - 1) // 2, qp, p)
        g = _mod_gcd(qp, _mod_add(w, [1], p), p)
        if len(g) % 2 == 0:
            return True
        if len(g) > 1:
            # the roots of g in F_p: gcd(g, x^p - x)
            frob = _mod_add(_mod_powmod([0, 1], p, g, p), [0, 1], p, -1)
            if len(_mod_gcd(g, frob, p)) > 1:
                return True
        tried += 1
        if tried == NONSQUARE_PRIMES:
            return False


def _reciprocal_sign(f) -> int:
    """eps = +-1 with x^(2e) f(eps / x) = eps^e f(x) for deg f = 2e, else 0."""
    n = len(f) - 1
    if n % 2:
        return 0
    e = n // 2
    for eps in (1, -1):
        if all(f[n - j] == eps ** (e - j) * f[j] for j in range(e)):
            return eps
    return 0


def _reciprocal_quotient(f, eps) -> list[int]:
    """k of degree e with f = x^e k(x + eps/x), for f as in _reciprocal_sign:
    x^-e f = f_e + sum_j f_(e+j) (x^j + (eps/x)^j), and x^j + (eps/x)^j is
    the Dickson polynomial D_j(x + eps/x), D_j = y D_(j-1) - eps D_(j-2)."""
    e = (len(f) - 1) // 2
    k, d_prev, d = [f[e]] + [0] * e, [2], [0, 1]
    for j in range(1, e + 1):
        for i, c in enumerate(d):
            k[i] += f[e + j] * c
        d_prev, d = d, [a - eps * b for a, b in zip_longest([0] + d, d_prev, fillvalue=0)]
    return k


def _unfold(q, eps) -> tuple:
    """x^(deg q) q(x + eps/x) = sum_j q_j (x^2 + eps)^j x^(deg q - j)."""
    d, out, power = len(q) - 1, [0] * (2 * len(q) - 1), [1]
    for j, c in enumerate(q):
        for i, v in enumerate(power):
            out[d - j + i] += c * v
        power = poly_mul(power, [eps, 0, 1])
    return tuple(out)


@lru_cache(maxsize=2048)
def _factor_squarefree(f: tuple) -> tuple:
    """Irreducible factors over Z of a primitive squarefree f with lc > 0,
    f(0) != 0 and degree >= 1, each primitive with lc > 0.

    Two symmetries halve the degree first, and Capelli's theorem (Schinzel,
    Polynomials with special regard to reducibility, 2000, section 2.1)
    says when a factor of the half lifts to an irreducible factor of f:
    - an even f is m(x^2); an irreducible factor h of m with root b gives
      h(x^2), irreducible unless b is a square in Q(b);
    - a reciprocal f, x^(2e) f(eps/x) = eps^e f(x) with eps = +-1, is
      x^e k(x + eps/x); an irreducible factor q of k with root y gives
      x^(deg q) q(x + eps/x), whose roots solve t^2 - y t + eps = 0, so it
      is irreducible unless y^2 - 4 eps is a square in Q(y).  The factor x
      of k (when k(0) = 0) gives x^2 + eps.
    _nonsquare proves the non-squares; a factor it leaves unproven, and
    every other f, is factored by _factor_by_primes."""
    if len(f) > 3 and not any(f[1::2]):
        u = (0, 1)
        pieces = [(h, _unfold_square(h)) for h in _factor_squarefree(f[::2])]
    elif len(f) > 3 and (eps := _reciprocal_sign(f)):
        u, k = (-4 * eps, 0, 1), _reciprocal_quotient(f, eps)
        head = ((0, 1),) if k[0] == 0 else ()
        factors = head + _factor_squarefree(tuple(k[len(head):]))
        pieces = [(q, _unfold(q, eps)) for q in factors]
    else:
        return _factor_by_primes(f)
    out = []
    for q, g in pieces:
        if _nonsquare(q, u):
            out.append(g)
        else:
            out.extend(_factor_by_primes(g))
    return tuple(out)


def _factor_by_primes(f: tuple) -> tuple:
    """Irreducible factors over Z of f as in _factor_squarefree, from f alone.

    The degree set of f mod p (the sums of sub-multisets of its factor
    degrees) contains the degree of every factor over Z; once the
    intersection over good primes holds only 0 and deg f, f is proven
    irreducible.  Otherwise f is lifted from the prime with fewest factors
    and recombined."""
    n = len(f) - 1
    allowed, best, tried = (1 << (n + 1)) - 1, None, 0
    for p in _odd_primes():
        fp = _good_reduction(f, p)
        if fp is None:
            continue
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
    over Z (_irreducible_factors_int); together they must have exactly one
    root in (lo, hi], or ValueError("interval does not isolate a root") is
    raised."""
    factors = _irreducible_factors_int(tuple(poly_primitive_int(p)))
    counts = [count_real_roots(f, lo, hi) for f in factors]
    if sum(counts) != 1:
        raise ValueError("interval does not isolate a root")
    return list(factors[counts.index(1)])
