"""Characteristic polynomials of integer matrices: Hessenberg reduction
modulo a prime above twice the coefficient bound, lifted to symmetric
residues.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm


def characteristic_polynomial(matrix) -> list[int]:
    """det(xI - A) of a square integer matrix A, low-to-high.

    A is reduced to upper Hessenberg form H by similarity transforms modulo
    a prime N, and chi_H is the last of the characteristic polynomials of
    H's leading blocks, each from the ones before it (Cohen, A Course in
    Computational Algebraic Number Theory, GTM 138, 2.2.4): O(n^3)
    operations.  Every eigenvalue is at most the largest absolute row sum B
    in modulus, so every coefficient is at most (1 + B)^n in absolute
    value, and N > 2 (1 + B)^n makes the symmetric residues the
    coefficients.  A pivot that is no unit mod N (N was composite) moves to
    the prime of the next bit length.  A matrix that is already Hessenberg
    (every n <= 2) runs the recurrence over Z.  An entry that is no int is
    refused.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix not square")
    if any(type(x) is not int for row in matrix for x in row):
        raise ValueError("matrix entries must be int")
    if all(not any(matrix[i][:i - 1]) for i in range(2, n)):
        return _hessenberg_charpoly(matrix, 0)
    sums = [sum(map(abs, row)) for row in matrix]
    bits = (2 * (1 + max(sums)) ** n).bit_length()
    while (H := _hessenberg_mod(matrix, N := _prime_above(bits))) is None:
        bits += 1
    half = N >> 1
    return [c - N if c > half else c for c in _hessenberg_charpoly(H, N)]


def _hessenberg_mod(matrix, N: int) -> list[list[int]] | None:
    """An upper Hessenberg matrix similar to the integer matrix mod N, or
    None at a pivot that is no unit mod N.  Column m - 1 is cleared below
    row m by row operations r_i -= u r_m, each followed by its inverse
    column operation c_m += u c_i."""
    H = [[x % N for x in row] for row in matrix]
    n = len(H)
    for m in range(1, n - 1):
        col = m - 1
        if not H[m][col]:
            piv = next((i for i in range(m + 1, n) if H[i][col]), None)
            if piv is None:
                continue
            H[piv], H[m] = H[m], H[piv]
            for row in H:
                row[piv], row[m] = row[m], row[piv]
        try:
            inv = pow(H[m][col], -1, N)
        except ValueError:
            return None
        hm = H[m]
        for i in range(m + 1, n):
            u = H[i][col] * inv % N
            if u:
                H[i] = [(a - u * b) % N for a, b in zip(H[i], hm)]
                for row in H:
                    row[m] = (row[m] + u * row[i]) % N
    return H


def _hessenberg_charpoly(H, N: int) -> list[int]:
    """chi of an upper Hessenberg H, low-to-high, reduced mod N when N > 0:
    p_0 = 1 and p_(m+1) = (x - h_mm) p_m - sum_(i<m) h_im t_i p_i, with
    t_i = h_(i+1,i) ... h_(m,m-1), the product of the subdiagonal between
    them (once it is 0, so is every t further up)."""
    p = [[1]]
    for m, row in enumerate(H):
        last, h = p[m], row[m]
        new = [0, *last]
        if h:
            for k, c in enumerate(last):
                new[k] -= h * c
        t = 1
        for i in range(m - 1, -1, -1):
            t *= H[i + 1][i]
            if N:
                t %= N
            if not t:
                break
            c = H[i][m] * t
            if c:
                for k, v in enumerate(p[i]):
                    new[k] -= c * v
        p.append([v % N for v in new] if N else new)
    return p[-1]


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # of _prime_above's Miller-Rabin tests


@lru_cache(maxsize=None)
def _prime_above(bits: int) -> int:
    """A probable prime above 2^bits, one per bit length: the first odd
    number past it with no prime factor below 100 that is a strong
    probable prime to the bases 2..37 (which proves it prime below
    3 * 10^23)."""
    small = lcm(*range(3, 100, 2))  # a multiple of every odd prime below 100
    m = (1 << bits) + 1
    while gcd(m, small) > 1 or not all(_strong_probable_prime(m, a) for a in _BASES):
        m += 2
    return m


def _strong_probable_prime(m: int, a: int) -> bool:
    """The Miller-Rabin test of the odd m to the base a."""
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = 2^s d, d odd
    x = pow(a, (m - 1) >> s, m)
    if x == 1:
        return True
    for _ in range(s):
        if x == m - 1:
            return True
        x = x * x % m
    return False
