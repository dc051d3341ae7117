import math
import random
from fractions import Fraction as Q
from itertools import zip_longest
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from charpoly_reference import berkowitz_charpoly
from degree_caches import clear_degree_caches
from radius_reference import (
    reference_factor_squarefree,
    reference_fallback_radius,
    reference_sqrt_bounds,
    reference_symmetric_square,
)
from test_intersection_ring import _leibniz_det
from threefold import factor, polynomials, radius
from threefold.bareiss import bareiss_rank, bareiss_solve, int_matrix_det
from threefold.charpoly import characteristic_polynomial
from threefold.factor import (
    _factor_squarefree,
    _irreducible_factors_int,
    _mod_divmod,
    _mod_mul,
    _mod_powmod,
    _nonsquare,
    _reciprocal_quotient,
    _reciprocal_sign,
    minimal_polynomial_of_root,
)
from threefold.lattice_dynamics import algebraic_compare, dynamical_degrees
from threefold.polynomials import (
    EngineLimit,
    _exact_quotient,
    _remainder_sequence,
    _squarefree_int,
    _sturm_chain_int,
    _unfold_square,
    poly_compose_square,
    poly_degree,
    poly_derivative,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_negate_variable,
    poly_primitive_int,
    poly_squarefree,
    poly_to_str,
    poly_trim,
)
from threefold.radius import (
    _SQUARE_WIDTH,
    CERTIFIED_WIDTH,
    AlgebraicNumber,
    _abs_interval,
    _certified_radius_int,
    _dominant_real_root,
    _float_radius_squared,
    _fraction_sqrt_bounds,
    _located_node,
    _symmetric_square,
    certified_radius_from_charpoly,
)
from threefold.realroots import (
    BoundaryRoot,
    _chain_for,
    _variations,
    cauchy_root_bound,
    count_real_roots,
    disk_root_count,
    isolate_real_roots,
    refine_root_interval,
)
from unimodular import matrix_adjugate_unimodular


def test_charpoly_known_values():
    assert characteristic_polynomial([[0, 1], [1, 1]]) == [-1, -1, 1]
    assert characteristic_polynomial([[1, 0], [0, 1]]) == [1, -2, 1]
    assert characteristic_polynomial([[2]]) == [-2, 1]


def test_charpoly_matches_numpy_on_random_matrices():
    rng = random.Random(13)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        got = characteristic_polynomial(m)
        want = np.poly(np.array(m, dtype=float))[::-1]
        assert len(got) == n + 1
        assert all(abs(g - w) < 1e-6 for g, w in zip(got, want))


def test_int_det_matches_numpy():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert int_matrix_det(m) == round(np.linalg.det(np.array(m, dtype=float)))


def test_adjugate_inverse():
    rng = random.Random(23)
    found = 0
    while found < 30:
        n = rng.randint(2, 4)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if int_matrix_det(m) not in (1, -1):
            continue
        found += 1
        inv = matrix_adjugate_unimodular(m)
        prod = [
            [sum(m[i][t] * inv[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    with pytest.raises(ValueError):
        matrix_adjugate_unimodular([[2, 0], [0, 1]])


def _square(elements, max_n):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)
    )


# zeros are drawn often so that pivots are missing and rows must be swapped
_INTS = st.one_of(st.just(0), st.integers(-6, 6))


def _sparse(rows):
    return [dict(enumerate(row)) for row in rows]


@settings(max_examples=100, deadline=None)
@given(_square(_INTS, 6), st.data())
def test_bareiss_det_and_solve_on_integer_matrices(m, data):
    det, none = bareiss_solve(_sparse(m))
    assert det == _leibniz_det(m) and none is None
    assert type(det) is int and int_matrix_det(m) == det
    # det * X comes back in ints and solves M X = det * B
    n = len(m)
    b = data.draw(st.lists(st.lists(_INTS, min_size=2, max_size=2), min_size=n, max_size=n))
    det2, dx = bareiss_solve(_sparse(m), _sparse(b))
    assert det2 == det
    if det == 0:
        assert dx is None
        return
    x = [[r.get(k, 0) for k in range(2)] for r in dx]
    assert all(type(v) is int for r in x for v in r)
    for i in range(n):
        for k in range(2):
            assert sum(m[i][t] * x[t][k] for t in range(n)) == det * b[i][k]


@pytest.mark.parametrize("bad", [Q(1, 2), Q(3), Q(0), 0.5, 2.0])
def test_bareiss_refuses_entries_that_are_no_int(bad):
    # a Fraction, even an integral one, or a float is refused, in the
    # matrix or on the right-hand side; int_matrix_det truncates no float
    m = [[1, 2], [3, bad]]
    unit = _sparse([[1, 0], [0, 1]])
    for call in (
        lambda: bareiss_solve(_sparse(m)),
        lambda: bareiss_rank(_sparse(m)),
        lambda: int_matrix_det(m),
        lambda: bareiss_solve(unit, [{0: bad}, {}]),
    ):
        with pytest.raises(ValueError, match="^matrix entries must be int$"):
            call()


@st.composite
def unimodular_matrices(draw, max_n=24):
    """Row operations x_i += c x_j on the identity, then a signed row
    permutation: det = +-1, entries of every size."""
    n = draw(st.integers(1, max_n))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    index = st.integers(0, n - 1)
    for i, j, c in draw(st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=3 * n)):
        if i != j:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return [[s * v for v in m[p]] for s, p in zip(signs, draw(st.permutations(range(n))))]


@settings(max_examples=60, deadline=None)
@given(unimodular_matrices())
def test_unimodular_inverse_property(m):
    n = len(m)
    inv = matrix_adjugate_unimodular(m)
    assert all(type(v) is int for row in inv for v in row)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert [[sum(m[i][t] * inv[t][j] for t in range(n)) for j in range(n)] for i in range(n)] == identity


@settings(max_examples=60, deadline=None)
@given(_square(_INTS, 6).filter(lambda m: len(m) > 1), st.data())
def test_singular_input_raises(m, data):
    # the last row is a combination of the others
    n = len(m)
    cs = data.draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
    m[-1] = [sum(c * m[i][j] for i, c in enumerate(cs)) for j in range(n)]
    assert int_matrix_det(m) == 0
    assert bareiss_solve(_sparse(m), [{i: 1} for i in range(n)]) == (0, None)
    with pytest.raises(ValueError, match=r"^matrix is not unimodular \(det = 0\)$"):
        matrix_adjugate_unimodular(m)


@st.composite
def _low_rank(draw, elements, max_n=6):
    """L R for n x r and r x n matrices L and R, r <= n: rank at most r."""
    n = draw(st.integers(0, max_n))
    r = draw(st.integers(0, n))
    L = draw(st.lists(st.lists(elements, min_size=r, max_size=r), min_size=n, max_size=n))
    R = draw(st.lists(st.lists(elements, min_size=n, max_size=n), min_size=r, max_size=r))
    return [[sum((L[i][t] * R[t][j] for t in range(r)), 0) for j in range(n)] for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(st.one_of(_low_rank(_INTS), _square(_INTS, 6)))
def test_bareiss_rank_matches_sympy(m):
    import sympy

    rank = bareiss_rank(_sparse(m))
    assert rank == (sympy.Matrix(m).rank() if m else 0)
    assert (rank == len(m)) == (bareiss_solve(_sparse(m))[0] != 0)


def test_real_root_isolation_matches_numpy():
    rng = random.Random(31)
    for _ in range(150):
        deg = rng.randint(1, 6)
        p = [rng.randint(-6, 6) for _ in range(deg)] + [rng.choice([1, -1, 2])]
        roots = np.roots(p[::-1])
        real = sorted(z.real for z in roots if abs(z.imag) < 1e-9)
        # count distinct real roots within clusters
        distinct = []
        for r in real:
            if not distinct or abs(r - distinct[-1]) > 1e-6:
                distinct.append(r)
        intervals = isolate_real_roots(p)
        assert len(intervals) == len(distinct), (p, intervals, distinct)
        for (lo, hi), r in zip(sorted(intervals), distinct):
            assert float(lo) - 1e-6 <= r <= float(hi) + 1e-6


def test_refine_interval():
    p = [-2, 0, 1]  # x^2 - 2
    lo, hi = refine_root_interval(p, Q(0), Q(2), Q(1, 10**12))
    assert hi - lo <= Q(1, 10**12)
    assert abs(float((lo + hi) / 2) - 2**0.5) < 1e-10
    with pytest.raises(ValueError):
        refine_root_interval(p, Q(3), Q(4), Q(1, 100))


def test_count_real_roots_half_open():
    p = [-1, 0, 1]  # roots at -1, 1
    assert count_real_roots(p, Q(0), Q(1)) == 1
    assert count_real_roots(p, Q(1), Q(2)) == 0
    assert count_real_roots(p, Q(-2), Q(2)) == 2


def test_disk_count_matches_numpy():
    rng = random.Random(47)
    for _ in range(120):
        deg = rng.randint(1, 5)
        p = [rng.randint(-5, 5) for _ in range(deg)] + [rng.choice([1, -1, 3])]
        if poly_eval(p, 0) == 0:
            continue
        roots = np.roots(p[::-1])
        radius = Q(rng.randint(1, 40), rng.randint(7, 13))
        mods = np.abs(roots)
        if min(abs(m - float(radius)) for m in mods) < 1e-6:
            continue  # too close to the circle for a float comparison
        want = int((mods < float(radius)).sum())
        # distinct roots only
        want_distinct = 0
        seen = []
        for z in roots:
            if any(abs(z - w) < 1e-7 for w in seen):
                continue
            seen.append(z)
            if abs(z) < float(radius):
                want_distinct += 1
        # the exact counter may refuse a degenerate Routh table at this exact
        # radius (here -x^4 + 3x^3 + 4x^2 - 5x + 1 at 1), and only where the
        # Fraction table degenerates too
        got = _outcome(disk_root_count, p, radius)
        assert got == want_distinct or got == _outcome(_ref_disk_root_count, p, radius) == "boundary", (p, radius)


def test_compose_square_roots():
    p = [-1, -1, 1]  # roots phi, -1/phi
    q = poly_compose_square(p)
    # q has roots phi^2 and phi^-2
    phi = (1 + 5**0.5) / 2
    vals = [poly_eval(q, Q(int(round(r * 10**6)), 10**6)) for r in (phi**2, phi**-2)]
    assert all(abs(float(v)) < 1e-3 for v in vals)


def test_minimal_polynomial_selection():
    # (x^2 - 2)(x^2 - x - 1): pick the factor owning each root
    p = [2, 2, -3, -1, 1]
    mp = minimal_polynomial_of_root(p, Q(14, 10), Q(15, 10))  # sqrt2 = 1.414...
    assert mp == [-2, 0, 1]
    mp2 = minimal_polynomial_of_root(p, Q(16, 10), Q(17, 10))  # phi = 1.618...
    assert mp2 == [-1, -1, 1]


@pytest.mark.parametrize(
    "p, lo, hi",
    [
        ([2, 2, -3, -1, 1], Q(1), Q(2)),  # sqrt2 and phi: two factors
        ([2, 2, -3, -1, 1], Q(2), Q(3)),  # no root
        ([-2, 0, 1], Q(-2), Q(2)),  # +-sqrt2: two roots of one factor
    ],
)
def test_minimal_polynomial_refuses_an_interval_that_isolates_no_root(p, lo, hi):
    with pytest.raises(ValueError, match="^interval does not isolate a root$"):
        minimal_polynomial_of_root(p, lo, hi)


def test_spectral_radius_golden_ratio():
    a = certified_radius_from_charpoly(characteristic_polynomial([[0, 1], [1, 1]]))
    assert a.minpoly == (-1, -1, 1)
    assert a.width <= Q(1, 10**10)
    assert abs(float(a) - (1 + 5**0.5) / 2) < 1e-9


def test_spectral_radius_negative_dominant_root():
    # companion of x^2 + x - 1 has spectral radius phi carried by -phi
    a = certified_radius_from_charpoly(characteristic_polynomial([[0, 1], [1, -1]]))
    assert a.minpoly == (-1, -1, 1)
    assert abs(float(a) - (1 + 5**0.5) / 2) < 1e-9


def test_spectral_radius_roots_of_unity():
    assert certified_radius_from_charpoly(characteristic_polynomial([[0, -1], [1, 0]])).is_one()
    assert certified_radius_from_charpoly(characteristic_polynomial([[1, 0], [0, 1]])).is_one()
    order3 = certified_radius_from_charpoly(characteristic_polynomial([[0, -1], [1, -1]]))
    assert float(order3) == 1.0


def test_unit_disk_shortcut_needs_a_monic_key():
    # every root lies inside |x| < 1 + 10^-6, and none is a root of unity:
    # a non-monic key must not be answered with exactly 1
    a = certified_radius_from_charpoly([-(10**7 + 1), 10**7])
    assert a.minpoly == (-10000001, 10000000)
    assert a.lo <= Q(10**7 + 1, 10**7) <= a.hi
    b = certified_radius_from_charpoly([-(10**7 + 1), 0, 10**7])
    assert b.minpoly == (-10000001, 0, 10000000)
    assert b.lo**2 <= Q(10**7 + 1, 10**7) <= b.hi**2 and b.width <= CERTIFIED_WIDTH  # 1.00000005


def test_spectral_radius_complex_dominant():
    # [[0,-2],[1,0]] has eigenvalues +-i sqrt 2
    a = certified_radius_from_charpoly(characteristic_polynomial([[0, -2], [1, 0]]))
    assert a.minpoly == (-2, 0, 1)
    assert abs(float(a) - 2**0.5) < 1e-9
    # pad with an identity block: same radius, real eigenvalue 1 present
    m4 = [[0, -2, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    b = certified_radius_from_charpoly(characteristic_polynomial(m4))
    assert b.minpoly == (-2, 0, 1)


def test_spectral_radius_tied_moduli():
    # exact ties between real roots and complex moduli must still certify
    cases = [
        ([[0, 4], [1, 0]], (-2, 1), 2.0),  # eigenvalues +-2
        ([[2, 0, 0], [0, 0, -4], [0, 1, 0]], (-2, 1), 2.0),  # 2 and +-2i
        ([[-2, 0, 0], [0, 0, -4], [0, 1, 0]], (-2, 1), 2.0),  # -2 and +-2i
        ([[0, -1, 0], [1, 0, 0], [0, 0, 2]], (-2, 1), 2.0),  # rotation + 2
        (
            [[0, -2, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]],
            (-2, 1),
            2.0,
        ),  # real 2 dominating a +-i sqrt2 pair and a fixed direction
    ]
    for m, minpoly, value in cases:
        r = certified_radius_from_charpoly(characteristic_polynomial(m))
        assert r.minpoly == minpoly, m
        assert abs(float(r) - value) < 1e-9, m


def test_spectral_radius_matches_numpy_random():
    rng = random.Random(61)
    for _ in range(150):
        n = rng.randint(2, 4)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if int_matrix_det(m) == 0:
            continue
        got = certified_radius_from_charpoly(characteristic_polynomial(m))
        want = max(abs(np.linalg.eigvals(np.array(m, dtype=float))))
        # the float oracle itself is only good to ~eps^(1/multiplicity) for
        # defective eigenvalues, so compare loosely; the exact side is tight
        assert abs(float(got) - want) < 1e-4


def test_cauchy_bound_contains_all_roots():
    rng = random.Random(67)
    for _ in range(60):
        deg = rng.randint(1, 5)
        p = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, 2, -3])]
        bound = float(cauchy_root_bound(p))
        roots = np.roots(p[::-1])
        assert all(abs(z) < bound + 1e-9 for z in roots)


def test_poly_to_str():
    assert poly_to_str([-1, -1, 1]) == "x^2 - x - 1"
    assert poly_to_str([2, 0, 0, 5]) == "5*x^3 + 2"
    assert poly_to_str([0]) == "0"
    assert poly_to_str([-1, 1]) == "x - 1"


def test_algebraic_number_refined():
    a = AlgebraicNumber((-2, 0, 1), Q(1), Q(2))
    b = a.refined(Q(1, 10**6))
    assert b.width <= Q(1, 10**6)
    assert b.lo >= a.lo and b.hi <= a.hi


def endpoints():
    return st.builds(Q, st.integers(-2**260, 2**260), st.integers(1, 2**200))


@settings(max_examples=300, deadline=None)
@given(endpoints(), endpoints())
@example(Q(-3, 7), Q(-3, 7))  # lo = hi
@example(Q(-(2**199) - 1, 2**199 + 3), Q(5, 2**200 - 1))  # 200-bit denominators around 0
@example(Q(2**201 + 1, 2**200 - 7), Q(2**201 + 1, 2**200 - 7))
@example(Q(1, 3), Q(2, 3))  # the midpoint 1/2 exactly
def test_float_is_the_rounded_midpoint(a, b):
    # one correctly rounded int division gives float((lo + hi) / 2)
    lo, hi = min(a, b), max(a, b)
    x = AlgebraicNumber((-2, 0, 1), lo, hi)
    assert float(x) == float((lo + hi) / 2)


@pytest.mark.parametrize("width", [0, Q(0), Q(-1, 3), -2])
def test_refinement_refuses_a_non_positive_width(width):
    # no interval is that narrow: the bisection count never settled
    with pytest.raises(ValueError, match="width must be positive"):
        AlgebraicNumber((-2, 0, 1), Q(1), Q(2)).refined(width)
    with pytest.raises(ValueError, match="width must be positive"):
        refine_root_interval([-2, 0, 1], Q(1), Q(2), width)


# ---------------------------------------------------------------------------
# differential tests: the integer core against the Fraction routines it
# replaced, kept here as references (division with remainder and Euclid's
# gcd over Q, the Sturm chain of Fraction remainders, Sturm-count bisection,
# the Moebius map and Routh table on Fractions, the charpoly of the
# Kronecker square of a companion matrix, the dominant real root found by
# refining every real root)
# ---------------------------------------------------------------------------


def poly_divmod(p, q):
    """Exact division with remainder over the rationals."""
    p = [Q(c) for c in poly_trim(p)]
    q = [Q(c) for c in poly_trim(q)]
    dq = poly_degree(q)
    if dq < 0:
        raise ZeroDivisionError("division by zero polynomial")
    quot = [Q(0)] * max(1, len(p) - dq)
    rem = p[:]
    lead = q[-1]
    while poly_degree(rem) >= dq:
        dr = poly_degree(rem)
        f = rem[dr] / lead
        quot[dr - dq] = f
        for i in range(dq + 1):
            rem[dr - dq + i] -= f * q[i]
        rem = poly_trim(rem)
        if all(c == 0 for c in rem):
            rem = [Q(0)]
            break
    return poly_trim(quot), poly_trim(rem)


def _ref_monic(p):
    p = poly_trim([Q(c) for c in p])
    return [c / p[-1] for c in p] if p[-1] else p


def _ref_gcd(p, q):
    a, b = poly_trim(p), poly_trim(q)
    while any(c != 0 for c in b):
        a, b = b, poly_divmod(a, b)[1]
    return _ref_monic(a)


def _ref_squarefree(p):
    d = poly_derivative(p)
    if not any(d):
        return _ref_monic(p)
    g = _ref_gcd(p, d)
    if len(g) == 1:
        return _ref_monic(p)
    q, r = poly_divmod(p, g)
    assert not any(r)
    return _ref_monic(q)


def _ref_primitive_part(p):
    p = poly_trim([Q(c) for c in p])
    den = 1
    for c in p:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = math.gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _ref_sturm_chain(p):
    chain = [list(p)]
    d = poly_derivative(chain[0])
    if any(d):
        chain.append(_ref_primitive_part(d))
    while len(poly_trim(chain[-1])) > 1:
        _, r = poly_divmod(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append(_ref_primitive_part([-c for c in r]))
    return [tuple(q) for q in chain]


def _ref_variations(chain, x):
    signs = [v > 0 for v in (poly_eval([Q(c) for c in q], Q(x)) for q in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_refine(p, lo, hi, width):
    chain = _ref_sturm_chain(poly_primitive_int(_ref_squarefree(p)))
    lo, hi = Q(lo), Q(hi)
    v_lo, v_hi = _ref_variations(chain, lo), _ref_variations(chain, hi)
    if v_lo - v_hi <= 0:
        raise ValueError("interval does not isolate a root")
    while hi - lo > width:
        mid = (lo + hi) / 2
        v_mid = _ref_variations(chain, mid)
        if v_lo - v_mid > 0:
            hi, v_hi = mid, v_mid
        else:
            lo, v_lo = mid, v_mid
    return lo, hi


def _ref_routh(p):
    p = poly_trim([Q(c) for c in p])
    n = len(p) - 1
    if n <= 0:
        return 0
    coeffs = list(reversed(p))
    row1, row2 = coeffs[0::2], coeffs[1::2]
    width = len(row1)
    table = [row1, row2 + [Q(0)] * (width - len(row2))]
    for _ in range(n - 1):
        prev, cur = table[-2], table[-1]
        if cur[0] == 0:
            raise BoundaryRoot
        new = [(cur[0] * prev[j + 1] - prev[0] * cur[j + 1]) / cur[0] for j in range(width - 1)]
        table.append(new + [Q(0)])
        if not any(new) and len(table) <= n:
            raise BoundaryRoot
    firsts = [row[0] for row in table[: n + 1]]
    if any(f == 0 for f in firsts):
        raise BoundaryRoot
    return n - sum(1 for a, b in zip(firsts, firsts[1:]) if (a > 0) != (b > 0))


def _ref_disk_root_count(p, radius):
    sf = _ref_squarefree(p)
    n = len(sf) - 1
    if n <= 0:
        return 0
    g = [c * Q(radius) ** i for i, c in enumerate(sf)]
    h = [Q(0)] * (n + 1)
    for k, gk in enumerate(g):
        term = [gk]
        for _ in range(k):
            term = poly_mul(term, [1, 1])
        for _ in range(n - k):
            term = poly_mul(term, [1, -1])
        for j, v in enumerate(term):
            h[j] += v
    if h[-1] == 0:
        raise BoundaryRoot
    return _ref_routh(h)


def kronecker_square(matrix):
    """The Kronecker product of the matrix with itself (eigenvalues are all
    pairwise eigenvalue products, self-products included)."""
    n = len(matrix)
    out = []
    for i in range(n):
        for k in range(n):
            row = []
            for j in range(n):
                for l in range(n):
                    row.append(matrix[i][j] * matrix[k][l])
            out.append(row)
    return out


def companion_matrix(p):
    """Companion matrix of a polynomial (low-to-high), made monic first; an
    integral coefficient is an int entry, so integer work stays in ints."""
    mono = [c.numerator if c.denominator == 1 else c for c in _ref_monic(p)]
    n = len(mono) - 1
    out = [[0] * n for _ in range(n)]
    for i in range(1, n):
        out[i][i - 1] = 1
    for i in range(n):
        out[i][n - 1] = -mono[i]
    return out


def _ref_pairwise_products(sf):
    """Squarefree polynomial of the products of pairs of roots of sf: the
    charpoly of the Kronecker square of its companion matrix (Berkowitz's,
    which takes the Fraction entries of a non-monic sf)."""
    return poly_squarefree(berkowitz_charpoly(kronecker_square(companion_matrix(sf))))


def _ref_dominant_real_root(sf, width):
    """The real root of largest modulus by refining every real root of sf
    to each round's width."""
    intervals = isolate_real_roots(sf)
    if not intervals:
        return None
    w = min(Q(1, 10**6), width)
    for _round in range(600):
        refined = [refine_root_interval(sf, lo, hi, w) for (lo, hi) in intervals]
        abs_iv = [_abs_interval(lo, hi) for (lo, hi) in refined]
        champion = max(range(len(abs_iv)), key=lambda k: abs_iv[k][1])
        overlapping = [
            k
            for k in range(len(abs_iv))
            if k != champion and abs_iv[k][1] >= abs_iv[champion][0]
        ]
        if not overlapping:
            return refined[champion]
        if len(overlapping) == 1:
            k = overlapping[0]
            same_sign = (refined[k][1] <= 0) == (refined[champion][1] <= 0)
            if not same_sign:
                even_part = poly_gcd(sf, poly_negate_variable(sf))
                lo, hi = refined[champion]
                if poly_degree(even_part) > 0 and count_real_roots(even_part, lo, hi) > 0:
                    return refined[champion]
        intervals = refined
        w = w / 2**16
    raise RuntimeError("real roots with pathologically close moduli")


def _outcome(f, *args):
    try:
        return f(*args)
    except BoundaryRoot:
        return "boundary"


_FACTOR = st.lists(st.integers(-4, 4), min_size=1, max_size=3).flatmap(
    lambda low: st.sampled_from([1, -1, 2, -3]).map(lambda lead: low + [lead])
)


@st.composite
def repeated_factor_polys(draw, max_degree=12):
    """Products of small integer factors with multiplicities up to 3."""
    p = [draw(st.sampled_from([1, -1, 2, -6]))]
    for f, m in draw(st.lists(st.tuples(_FACTOR, st.integers(1, 3)), min_size=1, max_size=4)):
        if len(p) - 1 + m * (len(f) - 1) > max_degree:
            continue
        for _ in range(m):
            p = poly_mul(p, f)
    return p


@settings(max_examples=150, deadline=None)
@given(repeated_factor_polys())
def test_squarefree_matches_sympy_and_reference(p):
    import sympy

    x = sympy.Symbol("x")
    want = sympy.Poly(p[::-1], x, domain="ZZ").sqf_part().all_coeffs()[::-1]
    got = poly_squarefree(p)
    assert all(type(c) is int for c in got) and got[-1] > 0
    assert got == poly_primitive_int(want)
    assert _ref_monic(got) == _ref_squarefree(p)
    # a rational multiple has the same squarefree part
    assert poly_squarefree([Q(c, 3) for c in p]) == got


@settings(max_examples=150, deadline=None)
@given(repeated_factor_polys(8), repeated_factor_polys(8))
def test_gcd_matches_fraction_euclid(p, q):
    g = poly_gcd(p, q)
    assert all(type(c) is int for c in g) and g[-1] > 0
    assert _ref_monic(g) == _ref_gcd(p, q)


@settings(max_examples=150, deadline=None)
@given(repeated_factor_polys())
def test_sturm_chain_matches_fraction_remainders(p):
    chain = _chain_for(p)
    assert list(chain) == _ref_sturm_chain(poly_squarefree(p))


@settings(max_examples=150, deadline=None)
@given(repeated_factor_polys())
def test_the_remainder_sequence_ends_on_the_gcd(p):
    # the one sequence of p and p' that gives both the Sturm chain and the
    # squarefree part ends on +- gcd(p, p'), primitive
    key = tuple(poly_primitive_int(p))
    d = poly_primitive_int(poly_derivative(key))
    last = list(_remainder_sequence(list(key), d)[-1])
    assert last == list(_sturm_chain_int(key)[-1])
    g = poly_gcd(key, poly_derivative(key))
    assert last in (g, [-c for c in g])
    assert _ref_monic(last) == _ref_gcd(p, poly_derivative(p))


def test_a_fresh_squarefree_key_builds_each_remainder_sequence_once():
    # x^3 - x - 1 (real-dominant) and a fallback quartic: the squarefree
    # test and the Sturm chain share one sequence per polynomial
    for key in [(-1, -1, 0, 1), _FALLBACK_TAIL[0]]:
        _squarefree_int.cache_clear()
        _sturm_chain_int.cache_clear()
        _factor_squarefree.cache_clear()
        with patch.object(polynomials, "_remainder_sequence", wraps=_remainder_sequence) as built:
            _certified_radius_int.__wrapped__(key)
        pairs = [(tuple(c.args[0]), tuple(c.args[1])) for c in built.call_args_list]
        assert len(pairs) == len(set(pairs))
        assert pairs.count((key, tuple(poly_primitive_int(poly_derivative(key))))) == 1


_RADII = st.fractions(Q(1, 10), 5, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(repeated_factor_polys(8), _RADII)
def test_disk_root_count_matches_fraction_routh(p, radius):
    assert _outcome(disk_root_count, p, radius) == _outcome(_ref_disk_root_count, p, radius)


def test_disk_root_count_on_circle_roots():
    # x^2 - 1 on |x| = 1 (a root at -radius), x^2 + 4 on |x| = 2 (+-2i on the
    # imaginary axis after the Moebius map), and a negative leading coefficient
    for p, radius in [([-1, 0, 1], 1), ([4, 0, 1], 2), ([-4, 0, -1], 2), ([1, 0, 0, 1], 1)]:
        assert _outcome(_ref_disk_root_count, p, Q(radius)) == "boundary"
        with pytest.raises(BoundaryRoot):
            disk_root_count(p, Q(radius))
    assert disk_root_count([4, 0, 1], Q(3)) == _ref_disk_root_count([4, 0, 1], Q(3)) == 2
    assert disk_root_count([-4, 0, -1], Q(1)) == 0


@settings(max_examples=150, deadline=None)
@given(repeated_factor_polys(), st.integers(1, 60))
def test_isolation_and_refinement_match_sturm_bisection(p, bits):
    width = Q(1, 2**bits)
    intervals = isolate_real_roots(p)
    for lo, hi in intervals:
        assert count_real_roots(p, lo, hi) == 1
        assert refine_root_interval(p, lo, hi, width) == _ref_refine(p, lo, hi, width)
    if len(intervals) > 1:
        # an interval holding several roots isolates none of them
        lo, hi = intervals[0][0], intervals[-1][1]
        with pytest.raises(ValueError, match="^interval does not isolate a root$"):
            refine_root_interval(p, lo, hi, width)


def test_refinement_edge_cases():
    # lo is another root: (x - 1)(x - 2) on (1, 3]
    p = [2, -3, 1]
    lo, hi = refine_root_interval(p, 1, 3, Q(1, 2**20))
    assert (lo, hi) == _ref_refine(p, 1, 3, Q(1, 2**20))
    assert lo < 2 <= hi
    # a root exactly at a midpoint goes left: x - 1 on (0, 2]
    assert refine_root_interval([-1, 1], 0, 2, Q(1, 8)) == (Q(7, 8), Q(1))
    assert _ref_refine([-1, 1], 0, 2, Q(1, 8)) == (Q(7, 8), Q(1))
    # a negative leading coefficient: -(x^2 - 2), and its repeated square
    for q in ([2, 0, -1], poly_mul([2, 0, -1], [2, 0, -1])):
        assert isolate_real_roots(q) == isolate_real_roots([-2, 0, 1])
        lo, hi = refine_root_interval(q, 1, 2, Q(1, 10**12))
        assert (lo, hi) == _ref_refine(q, 1, 2, Q(1, 10**12))
        assert 0 < lo and lo * lo < 2 < hi * hi
    with pytest.raises(ValueError, match="^interval does not isolate a root$"):
        refine_root_interval([2, -3, 1], 2, Q(5, 2), Q(1, 8))


def _whole_squarefree(p) -> tuple:
    """The squarefree part of p from one gcd with its derivative, the key
    itself when that gcd is constant: never through an even half."""
    key = tuple(poly_primitive_int(p))
    g = poly_gcd(key, poly_derivative(key))
    return key if len(g) == 1 else tuple(_exact_quotient(list(key), g))


@st.composite
def even_polys(draw):
    """h(x^2) up to a rational content, for h a product of small factors
    with h(0) != 0, sometimes with the rational roots +-2 and +-3."""
    h = draw(repeated_factor_polys(6).filter(lambda h: h[0] != 0))
    for root in draw(st.sets(st.sampled_from([4, 9]))):
        h = poly_mul(h, [-root, 1])
    content = draw(st.sampled_from([1, -1, Q(2, 3)]))
    return [content * c for c in _unfold_square(h)]


_TWOS_AND_THREES = poly_mul([-4, 0, 1], [-9, 0, 1])  # roots +-2, +-3
_ENDS = st.one_of(st.fractions(-7, 7, max_denominator=6), st.sampled_from([0, 2, -2, 3, -3]))


@settings(max_examples=300, deadline=None)
@given(even_polys(), _ENDS, _ENDS)
@example(_TWOS_AND_THREES, -3, 3)  # (-3, 3]: -2, 2, 3
@example(_TWOS_AND_THREES, -2, 0)  # (-2, 0]: none
@example(_TWOS_AND_THREES, 2, -3)  # reversed: minus the count in (-3, 2]
@example(poly_mul([-4, 0, 1], [-4, 0, 1]), -2, 2)  # a repeated even factor
def test_an_even_polynomial_is_counted_through_its_half(p, lo, hi):
    sf = _whole_squarefree(p)
    assert _squarefree_int(tuple(poly_primitive_int(p))) == sf
    chain = _sturm_chain_int(sf)
    lo, hi = Q(lo), Q(hi)
    want = _variations(chain, lo.numerator, lo.denominator) - _variations(chain, hi.numerator, hi.denominator)
    assert count_real_roots(p, lo, hi) == want


@settings(max_examples=150, deadline=None)
@given(even_polys(), st.integers(1, 60))
def test_an_even_polynomial_is_refined_through_its_half(p, bits):
    width = Q(1, 2**bits)
    intervals = isolate_real_roots(p)
    for lo, hi in intervals:
        assert refine_root_interval(p, lo, hi, width) == _ref_refine(p, lo, hi, width)
    if len(intervals) > 1:
        lo, hi = intervals[0][0], intervals[-1][1]
        with pytest.raises(ValueError, match="^interval does not isolate a root$"):
            refine_root_interval(p, lo, hi, width)


def test_even_refinement_edge_cases():
    width = Q(1, 2**40)
    # lo is another root, on either side of 0; an interval through 0
    for lo, hi in [(2, 4), (-3, -1), (-3, 0), (-1, 2), (Q(-5, 2), Q(1, 3))]:
        got = refine_root_interval(_TWOS_AND_THREES, lo, hi, width)
        assert got == _ref_refine(_TWOS_AND_THREES, lo, hi, width)
    for lo, hi in [(-3, 3), (-4, -1), (0, 1)]:
        with pytest.raises(ValueError, match="^interval does not isolate a root$"):
            refine_root_interval(_TWOS_AND_THREES, lo, hi, width)


_DENSE_POLYS = st.tuples(
    st.lists(st.integers(-4, 4), min_size=1, max_size=8), st.sampled_from([1, 1, -1, 2, 3])
).map(lambda t: t[0] + [t[1]])


@settings(max_examples=25, deadline=None)
@given(_DENSE_POLYS)
# repeated eigenvalues: the squarefree part loses the repeats
@example(characteristic_polynomial([[1, 1, 0], [0, 1, 0], [0, 0, -1]]))  # Jordan block at 1, and -1
@example(characteristic_polynomial([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]))  # +-i twice
@example(characteristic_polynomial([[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]]))  # golden pair twice
@example(characteristic_polynomial([[2, 1, 0], [0, 2, 1], [0, 0, 2]]))  # one Jordan block at 2
# non-monic, leading coefficients 2 and 3 (the second one of degree > 4)
@example([1, -3, 0, 2])
@example([-1, 2, 0, -2, 1, 3])
def test_symmetric_square_matches_kronecker_square(p):
    sf = poly_squarefree(p)
    n, a = len(sf) - 1, sf[-1]
    graeffe, wedge = _symmetric_square(sf)
    assert len(graeffe) == n + 1 and len(wedge) == n * (n - 1) // 2 + 1
    got = poly_mul(graeffe, wedge)
    assert all(type(c) is int for c in got) and len(got) == n * (n + 1) // 2 + 1
    # the halves split the whole symmetric square exactly, and their
    # irreducible factors are those of its squarefree part
    assert got == reference_symmetric_square(sf)
    halves = {
        f for h in (graeffe, wedge) for f in _irreducible_factors_int(tuple(poly_primitive_int(h)))
    }
    assert sorted(halves) == sorted(_irreducible_factors_int(tuple(poly_squarefree(got))))
    # the Graeffe half's roots are the squares of the roots of sf
    assert poly_squarefree(graeffe) == poly_squarefree(poly_compose_square(sf))
    got = poly_squarefree(got)
    if a == 1 or n <= 4:
        assert got == _ref_pairwise_products(sf)
    else:
        # a Fraction companion matrix of degree > 4 takes seconds: square
        # the monic a^(n-1) sf(x / a), whose roots are a alpha_i, and map
        # its products back with x -> a^2 x
        monic = [c * a ** (n - 1 - i) for i, c in enumerate(sf[:-1])] + [1]
        ref = _ref_pairwise_products(monic)
        assert got == poly_squarefree([c * a ** (2 * i) for i, c in enumerate(ref)])


# ---------------------------------------------------------------------------
# factorisation over Z, against sympy's factor_list
# ---------------------------------------------------------------------------


def _sympy_factors(p):
    import sympy

    _, factors = sympy.Poly(p[::-1], sympy.Symbol("x"), domain="ZZ").factor_list()
    return sorted(
        tuple(poly_primitive_int([int(c) for c in reversed(f.all_coeffs())])) for f, _ in factors
    )


def _factors(p):
    return sorted(_irreducible_factors_int(tuple(poly_primitive_int(p))))


def _check_factors(p):
    got = _factors(p)
    assert got == _sympy_factors(p)
    # each factor once: their product is the squarefree part, exactly
    prod = [1]
    for f in got:
        assert all(type(c) is int for c in f) and f[-1] > 0
        prod = poly_mul(prod, list(f))
    assert prod == poly_squarefree(p)
    return got


_CYCLOTOMIC = [
    [-1, 1], [1, 1], [1, 0, 1], [1, 1, 1], [1, -1, 1], [1, 0, 0, 0, 1],
    [1, 1, 1, 1, 1], [1, 0, -1, 0, 1], [1, 0, 0, 1, 0, 0, 1],
]
_SMALL_FACTOR = st.lists(st.integers(-5, 5), min_size=1, max_size=4).flatmap(
    lambda low: st.sampled_from([1, 1, -1, 2, 3, -4]).map(lambda lead: low + [lead])
)


@st.composite
def factor_products(draw):
    """Products of one to three small integer polynomials, some non-monic,
    some cyclotomic, times a content."""
    p = [draw(st.sampled_from([1, -1, 2, -6]))]
    for f in draw(
        st.lists(st.one_of(_SMALL_FACTOR, st.sampled_from(_CYCLOTOMIC)), min_size=1, max_size=3)
    ):
        p = poly_mul(p, f)
    return p


@settings(max_examples=200, deadline=None)
@given(factor_products())
def test_factorisation_matches_sympy(p):
    _check_factors(p)


@settings(max_examples=100, deadline=None)
@given(factor_products().filter(lambda p: p[0] != 0))
def test_reversal_has_reversed_factors(p):
    reversed_factors = sorted(tuple(poly_primitive_int(f[::-1])) for f in _factors(p))
    assert _factors(p[::-1]) == reversed_factors


def test_factorisation_edge_cases():
    # irreducible, but split mod every prime
    assert _check_factors([1, 0, -10, 0, 1]) == [(1, 0, -10, 0, 1)]
    swinnerton_dyer_8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]
    assert _check_factors(swinnerton_dyer_8) == [tuple(swinnerton_dyer_8)]
    # an even polynomial g(x) g(-x)
    assert _check_factors(poly_mul([-1, -1, 1], [-1, 1, 1])) == [(-1, -1, 1), (-1, 1, 1)]
    # Lehmer's polynomial times x^12 - 1: one factor of degree 10, six cyclotomic
    lehmer = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    got = _check_factors(poly_mul(lehmer, [-1] + [0] * 11 + [1]))
    assert tuple(lehmer) in got and sorted(len(f) - 1 for f in got) == [1, 1, 2, 2, 2, 4, 10]
    # non-monic: (2x^2 - 3)(3x^3 + x - 1), and g(x) g(-x) for a non-monic g
    assert len(_check_factors(poly_mul([-3, 0, 2], [-1, 1, 0, 3]))) == 2
    assert len(_check_factors(poly_mul([1, 3, 2, 5], [1, -3, 2, -5]))) == 2
    # a factor x, and repeated factors
    assert _check_factors(poly_mul([0, 1], poly_mul([-2, 0, 1], [-2, 0, 1]))) == [(-2, 0, 1), (0, 1)]


# ---------------------------------------------------------------------------
# the symmetry front end (even and reciprocal polynomials, Capelli) against
# the lift-only route
# ---------------------------------------------------------------------------

_MONIC = st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(lambda low: low + [1])


def _front_end_input(p):
    """The squarefree part of p as _factor_squarefree takes it, or None
    when p has the root 0."""
    sf = tuple(poly_squarefree(p))
    return None if sf[0] == 0 or len(sf) < 2 else sf


def _check_front_end(p):
    f = _front_end_input(p)
    if f is None:
        return
    got = sorted(_factor_squarefree(f))
    assert got == reference_factor_squarefree(f)
    event(f"{len(got)} factor(s)")


def _even(h):
    h2 = [0] * (2 * len(h) - 1)
    h2[::2] = h
    return h2


@settings(max_examples=120, deadline=None)
@given(st.lists(_MONIC, min_size=1, max_size=2))
def test_even_graeffe_polynomials_factor_as_without_the_front_end(gs):
    # h(x^2) = +-g(x) g(-x) for the Graeffe transform h of g: reducible by
    # construction, so every root of h is a square in its own field
    g = [1]
    for f in gs:
        g = poly_mul(g, f)
    _check_front_end(_even(poly_compose_square(g)))


@settings(max_examples=150, deadline=None)
@given(
    _MONIC,
    st.one_of(
        st.just([1]),
        _MONIC.map(poly_compose_square),
        st.integers(1, 4).map(lambda s: [-s * s, 1]),
    ),
)
def test_even_monic_polynomials_factor_as_without_the_front_end(h, square):
    # a random monic h, times a factor whose roots are squares (a Graeffe
    # transform, or x - s^2) or not
    _check_front_end(_even(poly_mul(h, square)))


def _reciprocal(k, eps):
    """x^e k(x + eps/x) for k of degree e, from (x^2 + eps)^j x^(e - j)."""
    e, out = len(k) - 1, [0]
    for j, c in enumerate(k):
        term = [c]
        for _ in range(j):
            term = poly_mul(term, [eps, 0, 1])
        out = [a + b for a, b in zip_longest(out, [0] * (e - j) + term, fillvalue=0)]
    return poly_trim(out)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_MONIC, min_size=1, max_size=3),
    st.sampled_from([1, -1]),
    st.booleans(),
)
@example([[-2, 1]], 1, False)  # x^2 - 2x + 1 = (x - 1)^2: squarefree part x - 1
@example([[0, 1]], -1, True)  # k = x^2: the factor x twice
@example([[1, 1], [-3, 0, 1]], -1, True)  # k(0) = 0, and x^2 - 1 splits
@example([[3, 1], [0, 0, 1]], 1, False)  # k(0) = 0 through a square
def test_reciprocal_polynomials_factor_as_without_the_front_end(ks, eps, times_x):
    k = [0, 1] if times_x else [1]
    for f in ks:
        k = poly_mul(k, f)
    if len(k) - 1 > 8:
        return
    p = _reciprocal(k, eps)
    # the quotient by the symmetry is k again
    assert _reciprocal_sign(p) != 0
    assert _reciprocal_quotient(p, eps) == k
    _check_front_end(p)


@settings(max_examples=150, deadline=None)
@given(_MONIC, st.sampled_from([1, -1]))
@example([-2, 0, 1], 1)  # (x^2 - 2)(2x^2 - 1), k = 2y^2 - 9 irreducible mod 5
def test_reciprocal_products_factor_as_without_the_front_end(r, eps):
    # r(x) times x^deg r r(eps / x) is reciprocal and reducible by
    # construction: y^2 - 4 eps = (t - eps / t)^2 is a square in Q(y)
    _check_front_end(poly_mul(r, [c * eps**i for i, c in enumerate(r)][::-1]))


def test_nonsquare_on_known_fields():
    lehmer = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
    # Lehmer's root is no square in its field (norm 1, a quadratic
    # character proves it); phi^2 = (3 + sqrt 5) / 2 is the square of phi
    assert _nonsquare(lehmer, (0, 1))
    assert not _nonsquare((1, -3, 1), (0, 1))
    # the norm decides: sqrt 2 has norm -2, so x^4 - 2 is irreducible
    assert _nonsquare((-2, 0, 1), (0, 1))
    # linear q: u(t) is rational, and the norm decides both ways (-4 is
    # no square: x^2 + 4 is irreducible)
    assert not _nonsquare((-9, 1), (0, 1)) and _nonsquare((-8, 1), (0, 1))
    assert _nonsquare((4, 1), (0, 1))
    # y^2 - 4 eps at the roots of k for a reciprocal x^2 k(x + eps / x):
    # x^4 - x^3 - x^2 - x + 1 (k = y^2 - y - 3) is irreducible
    assert _nonsquare((-3, -1, 1), (-4, 0, 1))
    # x^4 - 3x^2 + 1 = (x^2 - x - 1)(x^2 + x - 1), k = y^2 - 5: y^2 - 4 = 1
    assert not _nonsquare((-5, 0, 1), (-4, 0, 1))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 11, 101]),
    st.lists(st.integers(0, 200), min_size=1, max_size=6),
    st.lists(st.integers(0, 200), min_size=1, max_size=8),
    st.integers(0, 300),
)
def test_powmod_matches_repeated_multiplication(p, low, a, e):
    g = [c % p for c in low] + [1]
    a = [c % p for c in a]
    while a and not a[-1]:
        a.pop()
    ref = [1]
    for _ in range(e):
        ref = _mod_divmod(_mod_mul(ref, a, p), g, p)[1]
    assert _mod_powmod(a, e, g, p) == _mod_divmod(ref, g, p)[1]


# ---------------------------------------------------------------------------
# one certificate per distinct polynomial, and contenders-only refinement
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(unimodular_matrices(max_n=6).filter(lambda m: len(m) > 1))
def test_cached_radius_matches_the_uncached_body(m):
    cp = characteristic_polynomial(m)
    for p in (cp, cp[::-1]):
        _certified_radius_int.cache_clear()
        got = certified_radius_from_charpoly(p)
        assert got == _certified_radius_int.__wrapped__(tuple(poly_primitive_int(p)))
        assert certified_radius_from_charpoly(p) is got


def test_reciprocal_charpoly_is_certified_once_for_both_degrees():
    lehmer = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    clear_degree_caches()
    report = dynamical_degrees(None, companion_matrix(lehmer))
    info = _certified_radius_int.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert report.lambda1 is report.lambda2
    assert report.lambda1.minpoly == tuple(lehmer)


def test_refused_radius_is_not_cached():
    p = [1, -3, -3, 0, 0, 0, 0, 0, 0, 1]  # x^9 - 3x^2 - 3x + 1
    _certified_radius_int.cache_clear()
    for _ in range(2):
        with pytest.raises(EngineLimit, match="too large for the tensor-square fallback"):
            certified_radius_from_charpoly(p)
    info = _certified_radius_int.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


def test_a_negative_rational_radius_on_its_node_end_is_inside_its_interval():
    # x + 3: the dominant root -3 is the upper end of its dyadic node, so the
    # mirrored radius 3 sits on the upper end of its interval, not outside it
    r = certified_radius_from_charpoly([3, 1])
    assert r.minpoly == (-3, 1) and r.lo < 3 == r.hi
    assert r.refined(Q(1, 2**60)).hi == 3
    assert algebraic_compare(r, certified_radius_from_charpoly([-3, 1])) == 0


# ---------------------------------------------------------------------------
# the complex-dominant fallback on the two halves of the symmetric square
# ---------------------------------------------------------------------------

# characteristic polynomials from the slow end of the dyn-sample workload:
# lambda1 of the first three and lambda2 of the last reach the fallback
_FALLBACK_TAIL = [(1, -29, 3, 4, 1), (1, -32, 19, -4, 1), (1, -45, -2, 3, 1), (-1, -2, -1, 1)]


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(0, 10**6, max_denominator=10**12),
    st.fractions(0, 10**6, max_denominator=10**40).filter(lambda w: w > 0),
)
@example(Q(2), CERTIFIED_WIDTH / 2)
@example(Q(7, 3), Q(4))
@example(Q(5), Q(1, 2**40))
def test_fraction_sqrt_bounds_match_the_scaling_loop(x, width):
    assert _fraction_sqrt_bounds(x, width) == reference_sqrt_bounds(x, width)


@settings(max_examples=150, deadline=None)
@given(unimodular_matrices(max_n=8))
@example(companion_matrix(list(_FALLBACK_TAIL[0])))
@example(companion_matrix(list(_FALLBACK_TAIL[1])))
@example(companion_matrix(list(_FALLBACK_TAIL[2])))
@example(companion_matrix(list(_FALLBACK_TAIL[3])))
def test_fallback_matches_the_whole_symmetric_square_route(m):
    cp = characteristic_polynomial(m)
    for p in (cp, cp[::-1]):
        with patch.object(radius, "_symmetric_square", wraps=_symmetric_square) as split:
            got = _outcome(_certified_radius_int.__wrapped__, tuple(poly_primitive_int(p)))
        if split.called:
            event("reached the fallback")
            assert got == _outcome(reference_fallback_radius, split.call_args.args[0])


def _mpmath_radius(p):
    """The largest root modulus of p from the roots of its squarefree part
    (sympy's), found by mpmath at 50 digits, so that a defective matrix keeps
    its exact radius."""
    import mpmath
    import sympy

    sf = [int(c) for c in sympy.Poly(p[::-1], sympy.Symbol("x")).sqf_part().all_coeffs()]
    if len(sf) == 2:
        return abs(mpmath.mpf(sf[1]) / sf[0])
    return max(abs(z) for z in mpmath.polyroots(sf, maxsteps=400, extraprec=200))


@st.composite
def fallback_companions(draw):
    """Companion matrices of unimodular polynomials of degree 5-8."""
    n = draw(st.integers(5, 8))
    middle = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
    return companion_matrix([draw(st.sampled_from([1, -1]))] + middle + [1])


@settings(max_examples=100, deadline=None)
@given(st.one_of(unimodular_matrices(max_n=8), fallback_companions()))
# companion matrices of degree 5-8 whose radius (or its inverse's) is a
# complex pair's
@example(companion_matrix([-1, 2, -1, 3, 2, 1]))
@example(companion_matrix([1, 3, 3, -3, -2, 1, 1]))
@example(companion_matrix([1, -1, -1, 3, 1, 1, -3, 1]))
@example(companion_matrix([1, 3, 0, -1, 1, -1, 1, -1, 1]))
def test_radii_up_to_rank_8_match_an_mpmath_oracle(m):
    cp = characteristic_polynomial(m)
    for p in (cp, cp[::-1]):
        with patch.object(radius, "_symmetric_square", wraps=_symmetric_square) as split:
            got = _certified_radius_int.__wrapped__(tuple(poly_primitive_int(p)))
        if split.called:
            event(f"rank {len(m)} reached the fallback")
        _assert_certifies_the_mpmath_radius(got, p)


def _assert_certifies_the_mpmath_radius(got, p):
    """got's interval holds the mpmath radius of p, a root of got's minimal
    polynomial up to its residual."""
    import mpmath

    with mpmath.workdps(50):
        value, tol = _mpmath_radius(p), mpmath.mpf(10) ** -30
        lo = mpmath.mpf(got.lo.numerator) / got.lo.denominator
        hi = mpmath.mpf(got.hi.numerator) / got.hi.denominator
        assert lo - tol <= value <= hi + tol
        scale = sum(abs(c) * value**i for i, c in enumerate(got.minpoly))
        assert abs(mpmath.polyval(got.minpoly[::-1], value)) <= tol * scale


def test_fallback_reads_a_real_radius_from_the_graeffe_half():
    # the real root 3/2 and a complex pair of modulus 3/2 - 3e-14, too
    # close for the real-root certificate: the squared radius 9/4 is a root
    # of the Graeffe half, and the exterior square's z conj(z) lies below it
    sf = poly_mul([-3, 2], [9 * 10**13 - 4, 4 * 10**13, 4 * 10**13])
    with patch.object(radius, "_symmetric_square", wraps=_symmetric_square) as split:
        got = _certified_radius_int.__wrapped__(tuple(sf))
    assert split.called and got.minpoly == (-3, 2)
    assert got == reference_fallback_radius(sf)


@pytest.mark.parametrize("p", _FALLBACK_TAIL)
def test_fallback_never_factors_the_whole_symmetric_square(p):
    real, factored = factor._factor_by_primes, []

    def spy(f):
        factored.append(f)
        return real(f)

    _factor_squarefree.cache_clear()
    reached = 0
    for q in (p, p[::-1]):
        factored.clear()
        with patch.object(factor, "_factor_by_primes", spy), patch.object(
            radius, "_symmetric_square", wraps=_symmetric_square
        ) as split:
            _certified_radius_int.__wrapped__(tuple(poly_primitive_int(q)))
        reached += split.call_count
        # of degree n(n+1)/2, only the square-root step's even m(x^2) may
        # be factored
        n = len(poly_squarefree(q)) - 1
        assert all(len(f) - 1 != n * (n + 1) // 2 or not any(f[1::2]) for f in factored)
    assert reached == 1


@pytest.mark.parametrize("p", _FALLBACK_TAIL[:3])
def test_fallback_quartics_take_one_disk_count_and_lift_no_half(p):
    # no unit-disk count (the keys are not +-reciprocal); the outer disk
    # count below n proves complex dominance at once, and the Sturm counts
    # that place the squared radius certify it without another; the exterior square
    # (degree 6) and m(x^2) (degree 12) are proven irreducible through their
    # symmetry, never lifted
    real, lifted = factor._recombine, []

    def spy(f, *args):
        lifted.append(len(f) - 1)
        return real(f, *args)

    _factor_squarefree.cache_clear()
    with patch.object(radius, "disk_root_count", wraps=disk_root_count) as counts, patch.object(
        factor, "_recombine", spy
    ), patch.object(radius, "_symmetric_square", wraps=_symmetric_square) as split:
        got = _certified_radius_int.__wrapped__(p)
    assert split.called and len(got.minpoly) == 13
    assert counts.call_count == 1
    assert not {6, 12} & set(lifted)


_UNIT_DISK = 1 + Q(1, 10**6)


def test_the_unit_disk_count_runs_only_for_a_reciprocal_key():
    # monic and not +-reciprocal: x^3 - x - 1, and a fallback quartic
    for key in [(-1, -1, 0, 1), _FALLBACK_TAIL[0]]:
        with patch.object(radius, "disk_root_count", wraps=disk_root_count) as counts:
            _certified_radius_int.__wrapped__(key)
        assert counts.called and all(c.args[1] != _UNIT_DISK for c in counts.call_args_list)
    # products of distinct cyclotomic polynomials, one with x - 1 (so
    # anti-reciprocal) and with repeated factors: still exactly 1, after one
    # count at 1 + 10^-6
    phi = {1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1], 5: [1, 1, 1, 1, 1], 6: [1, -1, 1]}
    keys = [
        poly_mul(phi[1], poly_mul(phi[3], phi[4])),
        poly_mul(phi[2], phi[5]),
        poly_mul(poly_mul(phi[1], phi[1]), poly_mul(phi[6], phi[6])),
    ]
    for key in keys:
        with patch.object(radius, "disk_root_count", wraps=disk_root_count) as counts:
            got = _certified_radius_int.__wrapped__(tuple(key))
        assert got == AlgebraicNumber((-1, 1), Q(1), Q(1)) and got.is_one()
        assert [c.args[1] for c in counts.call_args_list] == [_UNIT_DISK]


@pytest.mark.parametrize("key", [(-1, -1, 0, 1), (1, -3, 1)])
def test_a_root_on_the_first_circle_counted_leaves_the_certificate_exact(key):
    # x^3 - x - 1: the first count is the annulus' outer one, and a root on
    # it leaves the radius to the symmetric square; x^2 - 3x + 1 is
    # reciprocal, so the first count is the unit disk's, and a root on it
    # only skips the shortcut
    calls = []

    def first_on_the_circle(p, r):
        calls.append(r)
        if len(calls) == 1:
            raise BoundaryRoot
        return disk_root_count(p, r)

    with patch.object(radius, "disk_root_count", first_on_the_circle), patch.object(
        radius, "_symmetric_square", wraps=_symmetric_square
    ) as split:
        got = _certified_radius_int.__wrapped__(key)
    if key == (1, -3, 1):
        assert calls[0] == _UNIT_DISK and not split.called and got == _certified_radius_int.__wrapped__(key)
    else:
        assert calls[0] != _UNIT_DISK and split.called and got == reference_fallback_radius(list(key))


def _isolation_node(cp_sf, graeffe):
    """The fallback's node by isolating every real root of cp_sf and refining
    the largest, with whether the Graeffe half has its root; None when cp_sf
    has no real root."""
    reals = isolate_real_roots(cp_sf)
    if not reals:
        return None
    lo, hi = refine_root_interval(cp_sf, *max(reals, key=lambda iv: iv[1]), _SQUARE_WIDTH)
    return lo, hi, count_real_roots(graeffe, lo, hi) > 0


@settings(max_examples=200, deadline=None)
@given(
    repeated_factor_polys(6),
    repeated_factor_polys(6),
    st.sampled_from(["hit", "second root", "zero", "far", "none"]),
)
@example([-4, 1], [16, 0, 1], "hit")  # the root 4 and the pair +-4i
@example([-4, 1], [-4, 1], "hit")  # 4 is a root of both halves
@example([0, 1], [1, -3], "hit")  # 1/3 is the upper end of its node
@example([-4, 1], poly_mul([-5, 1], [1, 1]), "second root")
def test_the_located_node_is_the_isolation_node(graeffe, wedge, kind):
    cp_sf = poly_squarefree(poly_mul(graeffe, wedge))
    want = _isolation_node(cp_sf, graeffe)
    reals = sorted(float(refine_root_interval(cp_sf, *iv, Q(1, 10**9))[1]) for iv in isolate_real_roots(cp_sf))
    guess = {
        "hit": float(want[1]) if want else 1.0,
        "second root": reals[-2] if len(reals) > 1 else 0.5,
        "zero": 0.0,
        "far": 1e6,
        "none": None,
    }[kind]
    got = _located_node(cp_sf, graeffe, wedge, guess)
    event(f"{kind}: {'located' if got else 'missed'}")
    assert got in (None, want)
    if want and kind == "hit":
        # found unless the root is common to both halves
        lo, hi, _ = want
        assert (got is None) == (count_real_roots(graeffe, lo, hi) + count_real_roots(wedge, lo, hi) > 1)
    if kind == "second root" and len(reals) > 1 or kind == "none":
        assert got is None


@pytest.mark.parametrize("p", _FALLBACK_TAIL)
def test_a_missed_guess_gives_the_same_certificate(p):
    # the quartics reach the fallback, and the cubic's reversal does
    key = tuple(poly_primitive_int(p if len(p) == 5 else p[::-1]))
    with patch.object(radius, "isolate_real_roots", wraps=isolate_real_roots) as isolations, patch.object(
        radius, "_located_node", wraps=_located_node
    ) as located:
        certificate = _certified_radius_int.__wrapped__(key)
    assert located.called and isolations.call_count == 1  # the real roots of the key alone
    for guess in (0.0, 1e6, None):
        with patch.object(radius, "_float_radius_squared", return_value=guess), patch.object(
            radius, "isolate_real_roots", wraps=isolate_real_roots
        ) as missed:
            assert _certified_radius_int.__wrapped__(key) == certificate
        # the symmetric square is isolated only after the miss
        assert missed.call_count == 2


def test_a_root_of_both_halves_takes_the_isolation_route():
    # 2 and +-2i: the squared radius 4 is 2^2 in the Graeffe half and
    # 2i * -2i in the exterior square, so the located node is refused
    key = tuple(poly_primitive_int(characteristic_polynomial([[2, 0, 0], [0, 0, -4], [0, 1, 0]])))
    with patch.object(radius, "isolate_real_roots", wraps=isolate_real_roots) as isolations:
        got = _certified_radius_int.__wrapped__(key)
    # the key's real roots, then the symmetric square's
    assert isolations.call_count == 2
    assert got.minpoly == (-2, 1) and got == reference_fallback_radius(list(key))


def test_the_float_guess_of_the_squared_radius():
    # x^4 + 3x^3 - 6x^2 - 33x + 1: a complex pair of modulus sqrt(11.39...)
    guess = _float_radius_squared([1, -33, -6, 3, 1])
    assert abs(guess - 11.393963203309358) < 1e-12
    assert abs(_float_radius_squared([2, 0, 1]) - 2) < 1e-12
    # coefficients past the float range give no guess
    assert _float_radius_squared([10**400, 1]) is None


_WIDTHS = st.fractions(Q(1, 10**15), 4, max_denominator=10**15).filter(lambda w: w > 0)


@settings(max_examples=150, deadline=None)
@given(repeated_factor_polys(), _WIDTHS, _WIDTHS)
def test_refining_a_refined_interval_lands_on_the_same_node(p, w1, w2):
    w1, w2 = max(w1, w2), min(w1, w2)
    for lo, hi in isolate_real_roots(p):
        coarse = refine_root_interval(p, lo, hi, w1)
        assert refine_root_interval(p, *coarse, w2) == refine_root_interval(p, lo, hi, w2)


@st.composite
def polys_with_twins(draw):
    """Squarefree parts of products of small factors, half of them times
    f(x) f(-x), so that +-r pairs of real roots are common."""
    p = draw(repeated_factor_polys(8))
    if draw(st.booleans()):
        f = draw(_FACTOR)
        p = poly_mul(p, poly_mul(f, poly_negate_variable(f)))
    return poly_squarefree(p)


def _from_roots(*roots):
    p = [1]
    for r in roots:
        p = poly_mul(p, [-r.numerator, r.denominator])
    return p


_NEAR = Q(3, 2) + Q(1, 10**12)  # closer to 3/2 than the certified width


@settings(max_examples=200, deadline=None)
@given(polys_with_twins())
@example([2, -2, -1, 1])  # (x^2 - 2)(x - 1): +-sqrt 2 lead, 1 trails
# moduli that the certified width does not tell apart
@example(_from_roots(Q(3, 2), -_NEAR))
@example(_from_roots(Q(3, 2), _NEAR))
@example(_from_roots(Q(3, 2), -_NEAR, _NEAR + Q(1, 10**12)))
@example(_from_roots(Q(3, 2), Q(-3, 2), _NEAR))  # +-3/2 twins, not the ends
def test_the_dominant_real_root_is_the_reference_or_left_to_the_exact_route(sf):
    # the two ends refined once give the reference's node, a node around it
    # (two same-sign roots in adjacent nodes, which the reference refines
    # further), or None, and a None is certified through the symmetric square
    width = CERTIFIED_WIDTH / 4
    got, want = _dominant_real_root(sf, width), _ref_dominant_real_root(sf, width)
    if got is None:
        event("left to the exact route")
        key = tuple(poly_primitive_int(sf[1:] if sf[0] == 0 else sf))
        if 1 <= len(key) - 1 <= 8:
            _assert_certifies_the_mpmath_radius(_certified_radius_int.__wrapped__(key), list(key))
    elif got != want:
        event("a node around the reference's")
        assert got[1] - got[0] <= width and got[0] <= want[0] and want[1] <= got[1]


def test_the_dominant_real_root_of_a_matrix_and_its_inverse():
    # x^5 + x^4 - x^3 - 1 = (x^2 - 1)(x^3 + x^2 + 1): the real root near
    # -1.47 leads +-1; for the inverse the twins +-1 lead the real roots
    c = companion_matrix([-1, 0, 0, -1, 1, 1])
    width = CERTIFIED_WIDTH / 4
    for m in (c, matrix_adjugate_unimodular(c)):
        sf = poly_squarefree(characteristic_polynomial(m))
        got = _dominant_real_root(sf, width)
        assert got == _ref_dominant_real_root(sf, width)
        assert got[1] - got[0] <= width
