"""Lattice automorphism actions: validation, certified dynamical degrees,
the rationality obstruction, and numeric eigenclass constraints.

An action is an integer matrix A on the divisor basis (the pullback action
on divisor coefficient vectors).  The induced curve matrix is
B = P^-1 A^-T P with P the divisor/curve pairing, the unique matrix with
pairing(A x, B y) = pairing(x, y).  The first dynamical degree is the
spectral radius of A, the second that of B.  B is similar to A^-T, so its
characteristic polynomial is, up to sign, the reversal x^n chi_A(1/x) of
chi_A (lambda2(f) = lambda1(f^-1)).  Both degrees, the determinant, the
eigenvalue multiplicity and the rational-root obstruction are read from
chi_A alone, with or without a model.

Both degrees are certified exactly: minimal polynomial plus an isolating
interval of width <= 1e-10, with disk counts ruling out larger complex
moduli (see polynomials.certified_radius_from_charpoly).  Comparisons between
certified numbers (lambda1 != lambda2, lambda1^2 >= lambda2, lambda2 >= 1)
are decided by interval refinement plus minimal-polynomial identity, never
by floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .intersection_ring import ThreefoldModel, ValidationError, pairing_rows, triple_products
from .polynomials import (
    CERTIFIED_WIDTH,
    AlgebraicNumber,
    _exact_quotient,
    bareiss_solve,
    berkowitz_charpoly,
    certified_radius_from_charpoly,
    count_real_roots,
    minimal_polynomial_of_root,
    poly_compose_square,
    poly_eval,
    poly_trim,
    refine_root_interval,
)

QQ = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_TOLERANCE = 1e-8
EIGENVECTOR_PRECISION_BITS = 96  # >= 64 fractional bits


# ---------------------------------------------------------------------------
# small exact matrix helpers
# ---------------------------------------------------------------------------


def _as_int(v) -> int:
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    raise ValidationError(f"action matrices must have integer entries, got {v!r}")


def _mat_vec(a, v):
    return [sum(r[j] * v[j] for j in range(len(v))) for r in a]


def _det_and_curve_matrix(model: ThreefoldModel, A):
    """det A and B = P^-1 A^-T P, B None when A is singular: one elimination
    solves A^T Y = P for det(A) Y, a second P X = det(A) Y for
    det(P) det(A) B."""
    n = len(A)
    P = pairing_rows(model)
    det, Y = bareiss_solve([dict(enumerate(col)) for col in zip(*A)], P)
    if Y is None:
        return 0, None
    det_p, X = bareiss_solve(P, Y)
    if X is None:
        raise ValidationError("singular matrix")
    d = det * det_p
    return det, [[QQ(r.get(k, 0), d) for k in range(n)] for r in X]


# ---------------------------------------------------------------------------
# action validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutomorphismAction:
    divisor_matrix: tuple[tuple[int, ...], ...]
    curve_matrix: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class ActionValidation:
    ok: bool
    violations: tuple[str, ...]
    action: AutomorphismAction | None


class InvalidActionError(ValidationError):
    """An action that fails validate_action; carries that ActionValidation."""

    def __init__(self, validation: ActionValidation):
        super().__init__("action fails validation: " + "; ".join(validation.violations))
        self.validation = validation


def validate_action(model: ThreefoldModel, A) -> ActionValidation:
    """Check the lattice-level necessary conditions for A to be induced by
    an automorphism: unimodularity, triple-product preservation, and
    invariance of both Chern classes.  Reports every violation found."""
    n = len(model.divisor_basis)
    if len(A) != n or any(len(r) != n for r in A):
        raise ValidationError(f"action matrix must be {n}x{n} for this model")
    A = [[_as_int(v) for v in row] for row in A]
    violations = []
    det, B = _det_and_curve_matrix(model, A)
    if det not in (1, -1):
        violations.append(f"det = {det}, not +-1")

    # basis triple products before and after A, on i <= j <= k only; the
    # images T(Ae_i, Ae_j; Ae_k) are summed over the non-zero T(p, q; r)
    # and the non-zero entries A[p][i], A[q][j], A[r][k]
    form = triple_products(model)
    before = {key: t for key, t in form.items() if key[1] <= key[2]}
    after: dict[tuple[int, int, int], Fraction] = {}
    rows = [[(i, v) for i, v in enumerate(row) if v] for row in A]
    for (p, q, r), t in form.items():
        for p1, q1 in {(p, q), (q, p)}:
            for i, a in rows[p1]:
                for j, b in rows[q1]:
                    if j < i:
                        continue
                    for k, c in rows[r]:
                        if k >= j:
                            after[(i, j, k)] = after.get((i, j, k), ZERO) + a * b * c * t
    broken = [
        key for key in set(before) | set(after)
        if before.get(key, ZERO) != after.get(key, ZERO)
    ]
    if broken:
        i, j, k = min(broken)
        names = model.divisor_names()
        violations.append(
            f"triple product not preserved on ({names[i]},{names[j]},{names[k]}): "
            f"{before.get((i, j, k), ZERO)} -> {after.get((i, j, k), ZERO)}"
        )

    if _mat_vec(A, list(model.c1.coeffs)) != list(model.c1.coeffs):
        violations.append("c1 is not fixed")
    if B is not None:
        if _mat_vec(B, list(model.c2.coeffs)) != list(model.c2.coeffs):
            violations.append("c2 is not fixed")

    ok = not violations
    action = None
    if B is not None:
        action = AutomorphismAction(
            divisor_matrix=tuple(tuple(r) for r in A),
            curve_matrix=tuple(tuple(r) for r in B),
        )
    return ActionValidation(ok=ok, violations=tuple(violations), action=action)


# ---------------------------------------------------------------------------
# certified comparison of algebraic numbers
# ---------------------------------------------------------------------------


def algebraic_compare(a: AlgebraicNumber, b: AlgebraicNumber) -> int:
    """-1, 0, +1 for a < b, a = b, a > b, decided exactly.

    Distinct roots separate under interval refinement; equality holds only
    for the same root of the same irreducible minimal polynomial, detected
    by the union interval isolating a single root of it.
    """
    def against_rational(z: AlgebraicNumber, r: Fraction) -> int:
        # exact sign of z - r
        if poly_eval([QQ(c) for c in z.minpoly], r) == 0 and z.lo <= r <= z.hi:
            return 0
        w = z
        while w.lo < r <= w.hi or (w.lo == r == w.hi):
            w = w.refined(w.width / 16)
        return -1 if w.hi <= r else 1

    if a.lo == a.hi and b.lo == b.hi:
        return (a.lo > b.lo) - (a.lo < b.lo)
    if a.lo == a.hi:
        return -against_rational(b, a.lo)
    if b.lo == b.hi:
        return against_rational(a, b.lo)

    x, y = a, b
    for _ in range(400):
        if x.hi < y.lo:
            return -1
        if y.hi < x.lo:
            return 1
        if x.minpoly == y.minpoly:
            lo = min(x.lo, y.lo)
            hi = max(x.hi, y.hi)
            if count_real_roots(list(x.minpoly), lo, hi) == 1:
                return 0
        w = min(x.width, y.width) / 16
        x = x.refined(w)
        y = y.refined(w)
    raise RuntimeError("algebraic comparison did not converge")


def algebraic_square(a: AlgebraicNumber) -> AlgebraicNumber:
    """The square of a certified non-negative algebraic number."""
    if a.lo < 0:
        raise ValueError("square only implemented for non-negative numbers")
    if a.lo == a.hi:
        v = a.lo * a.lo
        num, den = v.numerator, v.denominator
        return AlgebraicNumber((-num, den), v, v)
    q = poly_compose_square(list(a.minpoly))
    lo, hi = a.lo * a.lo, a.hi * a.hi
    mp = minimal_polynomial_of_root(q, lo, hi)
    lo, hi = refine_root_interval(mp, lo, hi, CERTIFIED_WIDTH)
    return AlgebraicNumber(tuple(mp), lo, hi)


ALGEBRAIC_ONE = AlgebraicNumber((-1, 1), ONE, ONE)


# ---------------------------------------------------------------------------
# dynamical degrees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeReport:
    """Certified first/second dynamical degrees of a lattice action.

    lambda1 and lambda2 carry exact minimal polynomials and isolating
    intervals of width <= 1e-10; entropy is the float log of the larger;
    primitive_hint is True only when lambda1 != lambda2 is certified;
    charpoly is chi_A = det(xI - A), low-to-high, that both came from.
    """

    lambda1: AlgebraicNumber
    lambda2: AlgebraicNumber
    entropy: float
    primitive_hint: bool
    mode: str  # "model" or "raw"
    charpoly: tuple[int, ...]


def dynamical_degrees(model: ThreefoldModel | None, A) -> DegreeReport:
    """Certified spectral radii of the divisor action and its curve dual.

    Both come from chi_A: lambda1 is certified from it and lambda2 from its
    reversal, the characteristic polynomial of A^-1 (and of the curve
    matrix B) up to sign.  With a model, validate_action must pass first,
    or InvalidActionError carries its report.  Without one the matrix only
    needs to be unimodular, which is read from chi_A(0) = (-1)^n det A.
    """
    if model is not None:
        v = validate_action(model, A)
        if not v.ok:
            raise InvalidActionError(v)
    A = [[_as_int(x) for x in row] for row in A]
    cp = berkowitz_charpoly(A)
    det = (-1) ** len(A) * cp[0]
    if model is None and det not in (1, -1):
        raise ValidationError(f"raw mode needs a unimodular matrix, det = {det}")

    l1 = certified_radius_from_charpoly(cp)
    l2 = certified_radius_from_charpoly(cp[::-1])
    primitive = algebraic_compare(l1, l2) != 0
    entropy = math.log(max(float(l1), float(l2)))
    if l1.is_one() and l2.is_one():
        entropy = 0.0
    return DegreeReport(
        lambda1=l1, lambda2=l2, entropy=entropy, primitive_hint=primitive,
        mode="raw" if model is None else "model", charpoly=tuple(cp),
    )


def square_dominance_certified(report: DegreeReport) -> bool:
    """Certify lambda1^2 >= lambda2 (exact interval/minimal-polynomial proof)."""
    return algebraic_compare(algebraic_square(report.lambda1), report.lambda2) >= 0


def lambda2_at_least_one_certified(report: DegreeReport) -> bool:
    return algebraic_compare(report.lambda2, ALGEBRAIC_ONE) >= 0


# ---------------------------------------------------------------------------
# rationality obstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalityReport:
    status: str  # "consistent" | "not-unimodular" | "contradiction"
    detail: str
    witnesses: tuple[tuple[int, int], ...] = ()  # (candidate, P(candidate))


def rationality_obstruction(char_poly) -> RationalityReport:
    """Rational-root analysis of a monic integer characteristic polynomial.

    If |P(0)| != 1 the matrix was not unimodular.  Otherwise the only
    possible rational eigenvalues are +-1, so no rational eigenvalue can
    exceed 1 in modulus; a contradiction witness would indicate an engine
    bug upstream, not mathematics.
    """
    p = poly_trim([int(c) for c in char_poly])
    if p[-1] != 1:
        raise ValidationError("characteristic polynomial must be monic")
    p0 = poly_eval(p, 0)
    if abs(p0) != 1:
        return RationalityReport(
            status="not-unimodular",
            detail=f"P(0) = {p0}, so det is not +-1",
        )
    witnesses = tuple((c, poly_eval(p, c)) for c in (1, -1))
    for cand, val in witnesses:
        if val == 0 and abs(cand) > 1:
            return RationalityReport(
                status="contradiction",
                detail=f"rational root {cand} of modulus > 1",
                witnesses=witnesses,
            )
    return RationalityReport(
        status="consistent",
        detail="rational eigenvalue candidates +-1 cannot exceed modulus 1",
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# eigenclass constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenclassReport:
    status: str  # "ok" | "entropy-zero" | "eigenvector-not-certified"
    lambda1: float
    tolerance: float
    residuals: dict[str, float] = field(default_factory=dict)
    within_tolerance: dict[str, bool] = field(default_factory=dict)
    eigenvector: tuple[float, ...] = ()
    includes_lambda_neq_constraints: bool = False
    detail: str = ""
    degrees: DegreeReport | None = None  # the certified degrees it used


def _root_multiplicity(charpoly, minpoly) -> int:
    """How often the irreducible primitive minpoly divides the monic integer
    charpoly; division over Z decides it, by Gauss's lemma."""
    mult, q = 0, list(charpoly)
    while (q := _exact_quotient(q, minpoly)) is not None:
        mult += 1
    return mult


def _nullspace_mp(A, lam, n, prec):
    """Nullspace basis of (A - lam I) with mpmath at the given precision."""
    import mpmath

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


def eigenclass_constraints(
    model: ThreefoldModel,
    A,
    tolerance: float = DEFAULT_TOLERANCE,
) -> EigenclassReport:
    """Evaluate the forced vanishings against a numeric leading eigenvector.

    With lambda1 > 1 + tolerance, a leading eigenvector zeta of A is
    computed with at least 64 fractional bits and the residuals
    |(zeta^2)_k|, |zeta^3|, |zeta^2.c1|, |zeta.c1^2| and |zeta.c2| are
    reported against the tolerance; when lambda1 != lambda2 is certified
    the componentwise |(zeta.c1)_k| constraints are reported as well.  The
    vector is the leading eigenvector of the lattice action, not a
    certified nef class.  The report carries the DegreeReport it certified.
    The action is validated before the tolerance is checked.
    """
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

    import mpmath  # loaded for the first eigenvector, not at import

    n = len(model.divisor_basis)
    mult = _root_multiplicity(report.charpoly, l1.minpoly)
    prec = EIGENVECTOR_PRECISION_BITS
    l1_narrow = l1.refined(QQ(1, 2 ** (prec + 16)))
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

        # float views of the model tables
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
