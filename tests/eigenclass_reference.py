"""The floating-point eigenclass residuals that eigenclass_constraints
computed before they were exact: an mpmath Gauss-Jordan nullspace of
A - lambda1 I at 128 bits, and mpmath copies of the product and pairing
walks.  The differential tests compare the exact residuals against it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from threefold import ValidationError
from threefold.lattice_dynamics import (
    DEFAULT_TOLERANCE,
    EigenclassReport,
    _root_multiplicity,
    dynamical_degrees,
)

EIGENVECTOR_PRECISION_BITS = 96  # >= 64 fractional bits


def _nullspace_mp(A, lam, n, prec):
    """Nullspace basis of (A - lam I) with mpmath at the given precision."""
    with mpmath.workprec(prec):
        M = [[mpmath.mpf(A[i][j]) - (lam if i == j else 0) for j in range(n)] for i in range(n)]
        tol = mpmath.mpf(2) ** (-prec // 2)
        row = 0
        pivots = []
        for col in range(n):
            piv, best = None, tol
            for r in range(row, n):
                if abs(M[r][col]) > best:
                    piv, best = r, abs(M[r][col])
            if piv is None:
                continue
            M[row], M[piv] = M[piv], M[row]
            pv = M[row][col]
            M[row] = [v / pv for v in M[row]]
            for r in range(n):
                if r != row and abs(M[r][col]) > 0:
                    f = M[r][col]
                    M[r] = [v - f * w for v, w in zip(M[r], M[row])]
            pivots.append(col)
            row += 1
        free = [c for c in range(n) if c not in pivots]
        basis = []
        for fc in free:
            v = [mpmath.mpf(0)] * n
            v[fc] = mpmath.mpf(1)
            for r, pc in enumerate(pivots):
                v[pc] = -M[r][fc]
            basis.append(v)
        return basis


def reference_eigenclass_constraints(model, A, tolerance: float = DEFAULT_TOLERANCE) -> EigenclassReport:
    """eigenclass_constraints with a numeric leading eigenvector; raises
    IndexError when lambda1 is not an eigenvalue of A."""
    report = dynamical_degrees(model, A)
    if not 0 < tolerance < math.inf:
        raise ValidationError("tolerance must be finite and positive")
    l1 = report.lambda1
    if float(l1) <= 1 + tolerance:
        return EigenclassReport(
            status="entropy-zero",
            lambda1=float(l1),
            tolerance=tolerance,
            detail="no conclusion: entropy zero regime",
            degrees=report,
        )

    n = len(model.divisor_basis)
    mult = _root_multiplicity(report.charpoly, l1.minpoly)[0]
    prec = EIGENVECTOR_PRECISION_BITS
    l1_narrow = l1.refined(Fraction(1, 2 ** (prec + 16)))
    with mpmath.workprec(prec + 32):
        lam = (mpmath.mpf(l1_narrow.lo.numerator) / l1_narrow.lo.denominator +
               mpmath.mpf(l1_narrow.hi.numerator) / l1_narrow.hi.denominator) / 2
        basis = _nullspace_mp(A, lam, n, prec + 32)
        if len(basis) < mult:
            return EigenclassReport(
                status="eigenvector-not-certified",
                lambda1=float(l1),
                tolerance=tolerance,
                detail=f"leading eigenspace defective: algebraic multiplicity {mult}, "
                f"numeric nullity {len(basis)}",
                degrees=report,
            )
        zeta = basis[0]
        norm = max(abs(c) for c in zeta)
        zeta = [c / norm for c in zeta]

        def fr(x: Fraction):
            return mpmath.mpf(x.numerator) / x.denominator

        mul2f = [
            (i, j, [(k, fr(c)) for k, c in entry.items()])
            for (i, j), entry in model.mul2.items()
        ]
        pairf = [(i, a, fr(v)) for (i, a), v in model.pairing.items()]
        c1f = [fr(c) for c in model.c1.coeffs]
        c2f = [fr(c) for c in model.c2.coeffs]

        def mulf(x, y):
            out = [mpmath.mpf(0)] * n
            for i, j, entry in mul2f:
                f = x[i] * y[j] if i == j else x[i] * y[j] + x[j] * y[i]
                if f:
                    for k, v in entry:
                        out[k] += f * v
            return out

        def pairfv(d, c):
            return sum(d[i] * v * c[a] for i, a, v in pairf)

        zeta2 = mulf(zeta, zeta)
        c1c1 = mulf(c1f, c1f)
        residuals = {
            "zeta2_components_max": float(max(abs(c) for c in zeta2)),
            "zeta3": float(abs(pairfv(zeta, zeta2))),
            "zeta2_c1": float(abs(pairfv(c1f, zeta2))),
            "zeta_c1sq": float(abs(pairfv(zeta, c1c1))),
            "zeta_c2": float(abs(pairfv(zeta, c2f))),
        }
        if report.primitive_hint:
            zc1 = mulf(zeta, c1f)
            residuals["zeta_c1_components_max"] = float(max(abs(c) for c in zc1))

    within = {k: val < tolerance for k, val in residuals.items()}
    return EigenclassReport(
        status="ok",
        lambda1=float(l1),
        tolerance=tolerance,
        residuals=residuals,
        within_tolerance=within,
        eigenvector=tuple(float(c) for c in zeta),
        includes_lambda_neq_constraints=report.primitive_hint,
        detail="leading eigenvector residuals (eigenvector is not certified nef)",
        degrees=report,
    )
