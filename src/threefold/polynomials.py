"""Dense integer-polynomial arithmetic, the base layer of the certified
spectral radii.

Polynomials are dense coefficient lists, lowest degree first.  The
certification core works on integer lists: a rational input is first
scaled to its primitive integer part (same roots), and every gcd,
squarefree part, Sturm chain, sign evaluation and Routh table after that
stays in int arithmetic.  Fractions remain only in the rational interval
endpoints the root routines return (they are integers over one common
denominator while being refined); exact division is _exact_quotient on
integer polynomials.  One primitive polynomial remainder sequence (W. S.
Brown, J. ACM 18, 1971) serves gcds, squarefree parts and Sturm chains: a
polynomial's sequence with its derivative is built once, cached as its
Sturm chain, and its squarefree part is read off the chain's last entry.
The caches of chains and squarefree parts, keyed by the primitive integer
tuple, serve every layer above:

- charpoly: characteristic polynomials of integer matrices;
- realroots: Sturm counts, isolation and refinement, and disk counts;
- factor: factorisation over Z and minimal polynomials of roots;
- radius: certified spectral radii as algebraic numbers.

EngineLimit, the typed refusal of a search that ran out of its budget,
lives here because three of those layers raise it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

QQ = Fraction
ZERO = Fraction(0)


class EngineLimit(ValueError):
    """A search in the function named where ran out of its fixed budget: the
    input is valid, but no answer was found."""

    def __init__(self, where: str, message: str):
        super().__init__(f"engine limit in {where}: {message}")


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


def _remainder_sequence(a, b) -> list:
    """The primitive remainder sequence of the integer polynomials a and b:
    a, b, then the primitive part of the negated pseudo-remainder of the
    last two entries, up to the last non-zero entry, which is gcd(a, b) up
    to sign.  Each entry is its Euclidean remainder up to a positive
    factor, so for a squarefree p the sequence of p and p' is p's Sturm
    chain."""
    seq = [a, b]
    while len(seq[-1]) > 1:
        r = _pseudo_remainder(seq[-2], seq[-1])
        if not any(r):
            break
        seq.append(_primitive_part([-c for c in r]))
    return seq if any(seq[-1]) else seq[:-1]


def poly_gcd(p, q):
    """Greatest common divisor as a primitive integer polynomial with
    positive leading coefficient: the last entry of the primitive remainder
    sequence of the primitive parts of p and q."""
    g = _remainder_sequence(_primitive_part(p), _primitive_part(q))[-1]
    return [-c for c in g] if g[-1] < 0 else g


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


def _unfold_square(h) -> tuple:
    """h(x^2)."""
    h2 = [0] * (2 * len(h) - 1)
    h2[::2] = h
    return tuple(h2)


def _even_half(p: tuple) -> tuple | None:
    """h with p = h(x^2) and h(0) != 0, for p of degree >= 2; else None."""
    if len(p) > 2 and p[0] and not any(p[1::2]):
        return p[::2]
    return None


@lru_cache(maxsize=4096)
def _sturm_chain_int(p: tuple) -> tuple:
    """The remainder sequence of p and p', for a primitive integer tuple p:
    p's Sturm chain when p is squarefree, and for every p its last entry is
    gcd(p, p') up to sign."""
    return tuple(map(tuple, _remainder_sequence(p, _primitive_part(poly_derivative(p)))))


@lru_cache(maxsize=4096)
def _squarefree_int(p: tuple) -> tuple:
    """Squarefree part of a primitive integer polynomial with positive
    leading coefficient, in the same form (p itself when p is squarefree,
    whose Sturm chain is then already built).

    An even p = h(x^2) with h(0) != 0 goes through its half: a root b != 0
    of h of multiplicity k gives the two roots +-sqrt(b) of p, distinct and
    of multiplicity k, so the squarefree part of p is that of h taken at
    x^2, which is again primitive with a positive leading coefficient."""
    h = _even_half(p)
    if h is not None:
        sh = _squarefree_int(h)
        return p if len(sh) == len(h) else _unfold_square(sh)
    g = _sturm_chain_int(p)[-1]
    if len(g) == 1:
        return p
    return tuple(_exact_quotient(p, g if g[-1] > 0 else [-c for c in g]))


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


def poly_to_str(p) -> str:
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
            body = "x" if mag == 1 else f"{mag}*x"
        else:
            body = f"x^{i}" if mag == 1 else f"{mag}*x^{i}"
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out
