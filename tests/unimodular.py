"""The inverse of a unimodular integer matrix, for tests that need A^-1.

The package itself never inverts an action: it reads lambda2 from the
reversal of the characteristic polynomial.  This helper is the
test-side reference built on the package's one exact solve.
"""

from threefold.bareiss import bareiss_solve


def matrix_adjugate_unimodular(matrix):
    """Inverse of a unimodular integer matrix, as an integer matrix;
    ValueError when the determinant is not +-1."""
    n = len(matrix)
    det, adj = bareiss_solve(
        [{j: int(v) for j, v in enumerate(row)} for row in matrix],
        [{i: 1} for i in range(n)],
    )
    if det not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det = {det})")
    return [[det * r.get(j, 0) for j in range(n)] for r in adj]
