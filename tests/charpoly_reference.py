"""Berkowitz's division-free characteristic polynomial, which
threefold.charpoly.characteristic_polynomial replaced.

Kept only as the reference of a differential test: it builds det(xI - A)
from Toeplitz products of the leading principal blocks (Berkowitz, Inform.
Process. Lett. 18, 1984), with no division and no modulus, in O(n^4)
operations.
"""

from __future__ import annotations


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
