"""Lattice automorphism actions: validation, certified dynamical degrees,
the rationality obstruction, and exact eigenclass constraints.

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
by floating point.  So is every vanishing of the eigenclass constraints:
the leading eigenvector has coordinates in Z[lambda1], and a residual is 0
exactly when lambda1's minimal polynomial divides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from .bareiss import bareiss_rank, bareiss_solve
from .intersection_ring import (
    DivisorClass,
    ThreefoldModel,
    ValidationError,
    multiply_divisors,
    pair,
    pairing_rows,
    triple_products,
)
from .polynomials import (
    CERTIFIED_WIDTH,
    AlgebraicNumber,
    _exact_quotient,
    berkowitz_charpoly,
    certified_radius_from_charpoly,
    count_real_roots,
    minimal_polynomial_of_root,
    poly_compose_square,
    poly_eval,
    poly_mul,
    poly_primitive_int,
    poly_trim,
    refine_root_interval,
)

QQ = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_TOLERANCE = 1e-8


# ---------------------------------------------------------------------------
# small exact matrix helpers
# ---------------------------------------------------------------------------


def _as_int(v) -> int:
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    raise ValidationError(f"action matrices must have integer entries, got {v!r}")


def _sparse_rows(a):
    return [[(j, x) for j, x in enumerate(row) if x] for row in a]


def _mat_vec(rows, v):
    """The matrix with these _sparse_rows times the vector v."""
    return [sum(x * v[j] for j, x in row) for row in rows]


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
    rows = _sparse_rows(A)
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

    if _mat_vec(rows, model.c1.coeffs) != list(model.c1.coeffs):
        violations.append("c1 is not fixed")
    if B is not None:
        if _mat_vec(_sparse_rows(B), model.c2.coeffs) != list(model.c2.coeffs):
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
    status: str  # "consistent" | "not-unimodular"
    detail: str
    witnesses: tuple[tuple[int, int], ...] = ()  # (candidate, P(candidate))


def rationality_obstruction(char_poly) -> RationalityReport:
    """Rational-root analysis of a monic integer characteristic polynomial.

    If |P(0)| != 1 the matrix was not unimodular.  Otherwise the only
    possible rational eigenvalues are the divisors +-1 of P(0), so no
    rational eigenvalue can exceed 1 in modulus; the witnesses are P(1)
    and P(-1).
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
    return RationalityReport(
        status="consistent",
        detail="rational eigenvalue candidates +-1 cannot exceed modulus 1",
        witnesses=tuple((c, poly_eval(p, c)) for c in (1, -1)),
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


def _root_multiplicity(charpoly, minpoly) -> tuple[int, list[int]]:
    """(k, P) with charpoly = minpoly^k P and P prime to the irreducible
    primitive minpoly; division over Z decides it, by Gauss's lemma."""
    mult, q = 0, list(charpoly)
    while (quotient := _exact_quotient(q, minpoly)) is not None:
        mult, q = mult + 1, quotient
    return mult, q


def _horner(rows, p, v):
    """The stages of Horner's rule for p(A) v, p an integer polynomial of
    degree e and rows the _sparse_rows of A: out_e = p_e v, then out_t =
    A out_{t+1} + p_t v down to out_0 = p(A) v."""
    stages = [[0] * len(v)]
    for c in reversed(p):
        stages.append([x + c * y for x, y in zip(_mat_vec(rows, stages[-1]), v)])
    return stages[1:]


def eigenclass_constraints(
    model: ThreefoldModel,
    A,
    tolerance: float = DEFAULT_TOLERANCE,
) -> EigenclassReport:
    """Evaluate the forced vanishings on an exact leading eigenvector.

    With lambda1 > 1 + tolerance, let m be lambda1's minimal polynomial and
    chi_A = m^k P with m prime to P.  The leading eigenspace is not
    defective exactly when (mP)(A) = 0; then zeta = (m(x) / (x - lambda1))(A)
    P(A) e_j, for the first j with P(A) e_j != 0, is an eigenvector with
    coordinates in Z[lambda1].  The residuals |(zeta^2)_k|, |zeta^3|,
    |zeta^2.c1|, |zeta.c1^2| and |zeta.c2|, and the componentwise
    |(zeta.c1)_k| when lambda1 != lambda2 is certified, are polynomials in
    lambda1 built from products and pairings of integer vectors.  Each is 0
    exactly when m divides it, else its value at lambda1 (refined to
    2^-128) over the matching power of max |zeta_i|, and it is compared
    with the tolerance.  The vector is the leading eigenvector of the
    lattice action, not a certified nef class.  The report carries the
    DegreeReport it certified.  The action is validated before the
    tolerance is checked.
    """
    report = dynamical_degrees(model, A)
    if not 0 < tolerance < math.inf:
        raise ValidationError("tolerance must be finite and positive")
    l1 = report.lambda1

    def result(status: str, detail: str, **found) -> EigenclassReport:
        return EigenclassReport(
            status=status,
            lambda1=float(l1),
            tolerance=tolerance,
            detail=detail,
            degrees=report,
            **found,
        )

    if float(l1) <= 1 + tolerance:
        return result("entropy-zero", "no conclusion: entropy zero regime")
    n = len(A)
    m = list(l1.minpoly)
    mult, P = _root_multiplicity(report.charpoly, m)
    if mult == 0:
        # only complex or negative eigenvalues have modulus lambda1, which
        # no action preserving a nef cone can do
        return result("eigenvector-not-certified", "lambda1 is not an eigenvalue of A")
    rows = _sparse_rows(A)
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    if mult > 1:
        # (mP)(A) maps onto m(A) ker m(A)^k, of rank d (k - g) for g
        # eigenvectors; for k = 1 it is chi_A(A) = 0 (Cayley-Hamilton)
        image = [_horner(rows, poly_mul(m, P), e)[-1] for e in units]
        if any(map(any, image)):
            g = mult - bareiss_rank([dict(enumerate(col)) for col in image]) // (len(m) - 1)
            return result(
                "eigenvector-not-certified",
                f"leading eigenspace defective: algebraic multiplicity {mult}, numeric nullity {g}",
            )
    # zeta = sum_t lambda1^t w_t for the Horner stages w_{d-1} = u, ...,
    # w_0 of m(A) u = 0, since m(x) / (x - lambda1) = sum_t lambda1^t q_t(x)
    # with q_{d-1} = 1 and q_t = x q_{t+1} + m_{t+1}
    u = next(v for v in (_horner(rows, P, e)[-1] for e in units) if any(v))
    ws = [DivisorClass(w) for w in reversed(_horner(rows, m, u)[:-1])]
    narrow = l1.refined(QQ(1, 2**128))
    lam = (narrow.lo + narrow.hi) / 2
    zeta = [poly_eval([w.coeffs[i] for w in ws], lam) for i in range(n)]
    norm = max(map(abs, zeta))

    def size(q, degree: int) -> float:
        # |sum_p lambda1^p q[p]| / norm^degree, 0 exactly when m divides it
        if _exact_quotient(poly_primitive_int(q), m) is not None:
            return 0.0
        return float(abs(poly_eval(q, lam)) / norm**degree)

    def largest(classes, degree: int) -> float:
        # the largest size of a coordinate of sum_p lambda1^p classes[p]
        return max(size([c.coeffs[a] for c in classes], degree) for a in range(len(classes[0])))

    def paired(divisors, curves):
        # coefficients of sum_{s, t} lambda1^(s + t) pair(divisors[s], curves[t])
        out = [ZERO] * (len(divisors) + len(curves) - 1)
        for s, x in enumerate(divisors):
            for t, y in enumerate(curves):
                out[s + t] += pair(model, x, y)
        return out

    zeta2 = [model.zero_curve()] * (2 * len(ws) - 1)
    for s, t in combinations_with_replacement(range(len(ws)), 2):
        product = multiply_divisors(model, ws[s], ws[t])
        zeta2[s + t] += product if s == t else product.scale(2)
    residuals = {
        "zeta2_components_max": largest(zeta2, 2),
        "zeta3": size(paired(ws, zeta2), 3),
        "zeta2_c1": size(paired([model.c1], zeta2), 2),
        "zeta_c1sq": size(paired(ws, [multiply_divisors(model, model.c1, model.c1)]), 1),
        "zeta_c2": size(paired(ws, [model.c2]), 1),
    }
    if report.primitive_hint:
        residuals["zeta_c1_components_max"] = largest(
            [multiply_divisors(model, w, model.c1) for w in ws], 1
        )
    return result(
        "ok",
        "leading eigenvector residuals (eigenvector is not certified nef)",
        residuals=residuals,
        within_tolerance={k: val < tolerance for k, val in residuals.items()},
        eigenvector=tuple(float(z / norm) for z in zeta),
        includes_lambda_neq_constraints=report.primitive_hint,
    )
