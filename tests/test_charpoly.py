"""characteristic_polynomial against Berkowitz's division-free reference."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charpoly_reference import berkowitz_charpoly
from test_lattice_dynamics import p3lines_point_permutation
from threefold import charpoly
from threefold.charpoly import characteristic_polynomial
from threefold.polynomials import poly_mul

LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]


def cycle_polynomial(k):
    return [-1] + [0] * (k - 1) + [1]


def permutation_charpoly(image):
    """prod (x^k - 1) over the cycles of the permutation j -> image[j]."""
    out, seen = [1], set()
    for start in range(len(image)):
        k, j = 0, start
        while j not in seen:
            seen.add(j)
            j, k = image[j], k + 1
        if k:
            out = poly_mul(out, cycle_polynomial(k))
    return out


def image_of(P):
    """The permutation j -> image[j] of the permutation matrix P."""
    return [column.index(1) for column in zip(*P)]


def permutation_matrix(image):
    return [[int(image[j] == i) for j in range(len(image))] for i in range(len(image))]


def salem_perm(k):
    """Lehmer's companion matrix beside a permutation block with cycles of
    lengths 2..k, conjugated by rank-many steps A <- E A E^-1 with
    E = I +- e_i e_j drawn from random.Random(1): rank 37, 64 and 100 for
    k = 7, 10 and 13.  chi_A = Lehmer times prod (x^c - 1)."""
    image = list(range(10))
    for c in range(2, k + 1):
        start = len(image)
        image += [start + (t + 1) % c for t in range(c)]
    A = permutation_matrix(image)
    for i in range(10):
        A[i][:10] = [int(j == i - 1) for j in range(9)] + [-LEHMER[i]]
    rng = random.Random(1)
    for _ in range(len(A)):
        i, j = rng.sample(range(len(A)), 2)
        s = rng.choice((1, -1))
        A[i] = [a + s * b for a, b in zip(A[i], A[j])]
        for row in A:
            row[j] -= s * row[i]
    want = LEHMER
    for c in range(2, k + 1):
        want = poly_mul(want, cycle_polynomial(c))
    return A, want


def point_cycle(n):
    """The lift of the point cycle (1 2 ... n) to p3lines' X2 (rank
    1 + n + n(n - 1)/2), a permutation matrix."""
    A = p3lines_point_permutation((*range(2, n + 1), 1))
    return A, permutation_charpoly(image_of(A))


@pytest.mark.parametrize(
    "probe", [("salem+perm", 7), ("salem+perm", 10), ("salem+perm", 13), ("point cycle", 10), ("point cycle", 16)],
    ids=lambda p: f"{p[0]} {p[1]}",
)
def test_probes_match_berkowitz_and_their_closed_form(probe):
    kind, k = probe
    A, want = salem_perm(k) if kind == "salem+perm" else point_cycle(k)
    got = characteristic_polynomial(A)
    assert got == want
    assert got == berkowitz_charpoly(A)


@st.composite
def integer_matrices(draw):
    """Square integer matrices of rank 1-40: dense with small entries,
    sparse, permutations, some rows and columns zeroed, and (rank <= 10)
    entries of up to 40 bits, whose coefficient bound puts the modulus
    past 2^64 (ranks 1 and 2 are Hessenberg and need none)."""
    kind = draw(st.sampled_from(["dense", "sparse", "permutation", "zero lines", "large"]))
    n = draw(st.integers(1, 10 if kind == "large" else 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "permutation":
        image = list(range(n))
        rng.shuffle(image)
        return kind, permutation_matrix(image)
    if kind == "sparse":
        return kind, [[rng.randint(-5, 5) if rng.random() < 2 / n else 0 for _ in range(n)] for _ in range(n)]
    if kind == "large":
        return kind, [[rng.randint(-2**40, 2**40) for _ in range(n)] for _ in range(n)]
    A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if kind == "zero lines":
        for i in rng.sample(range(n), rng.randint(1, n)):
            A[i] = [0] * n
        for j in rng.sample(range(n), rng.randint(0, n)):
            for row in A:
                row[j] = 0
    return kind, A


@settings(max_examples=120, deadline=None)
@given(integer_matrices())
@example(("dense", [[0, 0, 1], [0, 1, 0], [1, 0, 0]]))  # first pivot below the subdiagonal
@example(("zero lines", [[0, 0, 0], [0, 0, 0], [1, 2, 3]]))
@example(("large", [[2**40, 1, 0], [0, -(2**40), 1], [1, 0, 3]]))
@example(("large", [[2**40, 0, 0], [0, 2**40, 0], [1, 0, 2**40]]))  # chi(0) = -2^120, near the bound
def test_matches_berkowitz_on_integer_matrices(case):
    kind, A = case
    got = characteristic_polynomial(A)
    assert got == berkowitz_charpoly(A)
    assert all(type(c) is int for c in got)
    if kind == "permutation":
        assert got == permutation_charpoly(image_of(A))


@pytest.mark.parametrize(
    "A",
    [
        [[Q(1, 2), 1, 0], [2, Q(-1, 3), 1], [Q(3, 4), 0, 5]],
        [[Q(2), 1, 3], [0, Q(1), 1], [1, 1, 1]],  # integral Fractions too
        [[1, Q(1, 2)], [0, 1]],  # Hessenberg: the recurrence over Z
        [[1.0]],
    ],
)
def test_a_matrix_with_an_entry_that_is_no_int_is_refused(A):
    with pytest.raises(ValueError, match="matrix entries must be int"):
        characteristic_polynomial(A)


def test_a_pivot_that_is_no_unit_moves_to_the_next_modulus(monkeypatch):
    # a composite modulus 3 p: the first pivot, 3, is no unit mod 3 p, so
    # the next bit length's modulus is used
    prime_above, tried = charpoly._prime_above, []

    def composite_first(bits):
        tried.append(bits)
        return 3 * prime_above(bits) if len(tried) == 1 else prime_above(bits)

    monkeypatch.setattr(charpoly, "_prime_above", composite_first)
    A = [[1, 2, 5], [3, 1, 1], [1, 4, 2]]
    assert characteristic_polynomial(A) == berkowitz_charpoly(A)
    assert tried[1] == tried[0] + 1


def test_non_square_matrix_is_refused():
    with pytest.raises(ValueError, match="not square"):
        characteristic_polynomial([[1, 2], [3]])
    assert characteristic_polynomial([]) == [1]
