"""The one exact determinant, rank and linear solve: fraction-free
(Bareiss) elimination on sparse rows.

Kept apart from polynomials so that the intersection ring and the case
studies load this and nothing of the polynomial toolbox.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

QQ = Fraction


def bareiss_solve(rows, rhs=None):
    """Fraction-free (Bareiss) elimination of a square matrix M with row
    pivoting; returns (det M, det M * X) for M X = rhs.

    rows[i] is row i of M and rhs[i] row i of the right-hand side, both as
    mappings {column: value} (zeros may be left out); det M * X comes back
    in the same sparse form, or as None without rhs or when M is singular.
    Integer input is eliminated in ints throughout: after step k each entry
    is a minor of order k + 2 (Sylvester's identity), so each update's
    division by the previous pivot is exact, and so is each back-substitution
    division, since det M * X = adj(M) * rhs is integral (Cramer's rule).
    A row with fractions is scaled first by the common denominator of its
    entries in M and rhs, which leaves X unchanged; det M is then the
    eliminated determinant over the product of the scales (E. H. Bareiss,
    Math. Comp. 22, 1968).
    """
    n = len(rows)
    work, sign, pivots, prev, scale = _eliminate(rows, rhs)
    if len(pivots) < n:
        return 0, None

    def unscaled(v):
        v *= sign
        return v if scale == 1 else QQ(v, scale)

    if rhs is None:
        return unscaled(prev), None
    # back-substitution of prev * X, row by row from the bottom
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = {c - n: v * prev for c, v in work[i].items() if c >= n}
        for j, u in work[i].items():
            if j < n:
                for c, v in x[j].items():
                    acc[c] = acc.get(c, 0) - u * v
        x[i] = {c: v // pivots[i] for c, v in acc.items() if v}
    return unscaled(prev), [{c: unscaled(v) for c, v in r.items()} for r in x]


def bareiss_rank(rows) -> int:
    """Rank of a square matrix given as sparse rows, as in bareiss_solve."""
    return len(_eliminate(rows)[2])


def _eliminate(rows, rhs=None):
    """The forward pass of bareiss_solve: (work, sign, pivots, last pivot,
    scale), with work the rows in echelon form.  A column without a pivot is skipped, so
    len(pivots) is the rank; without a skip, row k holds pivot k."""
    n = len(rows)
    work = []
    scale = 1
    for i, row in enumerate(rows):
        entries = dict(row)
        if rhs is not None:
            # right-hand-side column k rides along as column n + k
            entries.update((n + k, v) for k, v in rhs[i].items())
        s = 1
        for v in entries.values():
            s = lcm(s, v.denominator)
        scale *= s
        work.append({c: v.numerator * (s // v.denominator) for c, v in entries.items() if v})

    # row i of the step-k matrix is work[i] * prev / last[i]: a row with no
    # entry in the pivot column would only be rescaled by pk / prev, so it
    # is left as it is, and the telescoped scale is applied when it is next
    # used (as pivot row, or updated with its own last pivot as divisor)
    sign, prev, pivots, last = 1, 1, [], [1] * n
    for k in range(n):
        r = len(pivots)
        p = next((i for i in range(r, n) if k in work[i]), None)
        if p is None:
            continue
        if p != r:
            work[r], work[p] = work[p], work[r]
            last[r], last[p] = last[p], last[r]
            sign = -sign
        if last[r] != prev:
            work[r] = {c: v * prev // last[r] for c, v in work[r].items()}
        rk = work[r]
        pk = rk.pop(k)
        for i in range(r + 1, n):
            ri = work[i]
            a = ri.pop(k, 0)
            if a:
                for c in ri:
                    ri[c] *= pk
                for c, v in rk.items():
                    ri[c] = ri.get(c, 0) - a * v
                work[i] = {c: v // last[i] for c, v in ri.items() if v}
                last[i] = pk
        pivots.append(pk)
        prev = pk
    return work, sign, pivots, prev, scale


def int_matrix_det(matrix) -> int:
    """Exact integer determinant (bareiss_solve)."""
    return bareiss_solve([{j: int(v) for j, v in enumerate(row)} for row in matrix])[0]
