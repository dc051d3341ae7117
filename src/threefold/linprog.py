"""Exact rational linear programming with Farkas certificates.

Systems are lists of affine forms over named variables, split into
equalities (form = 0) and inequalities (form >= 0), with all coefficients
exact rationals.  rational_feasible maximizes one chosen variable by a
two-phase simplex: Dantzig's rule (most negative reduced cost, lowest
column on ties), and Bland's rule once 200 degenerate pivots follow each
other, so runs are deterministic and never cycle.  The tableau is fraction
free: each row is a sparse dict {column: int} over one positive int
denominator, a pivot cross-multiplies the rows it touches, a row is
divided by its gcd only once its denominator outgrows a machine word (no
pivot choice depends on a row's scale), and Fractions are made only for
the answer.  When the maximum is attained, the dual solution is returned
as a certificate: multipliers y_i >= 0 for the inequalities and free z_j
for the equalities with

    sum_i y_i * f_i + sum_j z_j * g_j  ==  (max) - objective

as affine forms, which proves objective <= max over the feasible set.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._record import record

QQ = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)
# an eliminated row is reduced by its gcd once its denominator passes this
_WORD = 1 << 62


class LinProgError(ValueError):
    """Malformed constraint system."""


@record
class LinearForm:
    """An affine form sum_i coeffs[i] * x_i + constant over a variable list."""

    coeffs: tuple[Fraction, ...]
    constant: Fraction = ZERO
    label: str = ""

    def __post_init__(self):
        # exact conversion (floats included), skipped for what is already Fractions
        coeffs = self.coeffs
        if type(coeffs) is not tuple or not {Fraction}.issuperset(map(type, coeffs)):
            object.__setattr__(self, "coeffs", tuple(QQ(c) for c in coeffs))
        if type(self.constant) is not Fraction:
            object.__setattr__(self, "constant", QQ(self.constant))

    def evaluate(self, point: tuple[Fraction, ...]) -> Fraction:
        if len(point) != len(self.coeffs):
            raise LinProgError("point has wrong dimension")
        return sum((c * x for c, x in zip(self.coeffs, point)), self.constant)

    def render(self, variables: list[str]) -> str:
        # the numerator carries a Fraction's sign, and an integral one prints as it
        parts = []
        for c, v in zip(self.coeffs, variables):
            k = c.numerator
            if not k:
                continue
            sign = "+" if k > 0 else "-"
            if c.denominator != 1:
                parts.append(f"{sign} {abs(c)} {v}")
            elif k == 1 or k == -1:
                parts.append(f"{sign} {v}")
            else:
                parts.append(f"{sign} {abs(k)} {v}")
        const = self.constant
        if const.numerator or not parts:
            parts.append(f"+ {const}" if const.numerator >= 0 else f"- {-const}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text


@record
class ConstraintSystem:
    """Named variables with equality (= 0) and inequality (>= 0) affine forms."""

    variables: tuple[str, ...]
    equalities: tuple[LinearForm, ...] = ()
    inequalities: tuple[LinearForm, ...] = ()

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise LinProgError("duplicate variable names")
        n = len(self.variables)
        for f in list(self.equalities) + list(self.inequalities):
            if len(f.coeffs) != n:
                raise LinProgError(
                    f"form {f.label or f.coeffs} not dimensioned to {n} variables"
                )

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise LinProgError(f"unknown variable {name!r}") from None


@record
class CertificateEntry:
    kind: str  # "eq" or "ineq"
    index: int
    label: str
    multiplier: Fraction


@record
class FeasibleResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    maximum: Fraction | None = None
    argmax: tuple[Fraction, ...] | None = None
    certificate: tuple[CertificateEntry, ...] = ()


def _reduce(rows, dens, i):
    """Divide row i's numerators and its denominator by their gcd."""
    den = dens[i]
    if den == 1:
        return
    row = rows[i]
    g = gcd(den, *row.values())
    if g != 1:
        for j in row:
            row[j] //= g
        dens[i] = den // g


def _eliminate(rows, dens, i, source, source_den, col):
    """Row i minus (its entry in col) times source/source_den, in place.

    The row is reduced only when its denominator passes _WORD: the simplex
    compares numerators within one row and cross-multiplies the ratio test,
    so the scale of a row never changes a pivot, and the answer's Fractions
    normalise."""
    row = rows[i]
    f = row.get(col)
    if not f:
        return
    if source_den != 1:
        for j in row:
            row[j] *= source_den
        dens[i] *= source_den
    for j, w in source.items():
        v = row.get(j, 0) - f * w
        if v:
            row[j] = v
        else:
            del row[j]
    if dens[i] > _WORD:
        _reduce(rows, dens, i)


def _simplex(rows, dens, basis, m, width, ncols):
    """Run simplex to optimality on a maximization tableau.

    rows has m constraint rows plus an objective row (reduced costs kept as
    negated coefficients so that a negative entry means 'can improve'), each
    a sparse dict {column: int} over one positive int denominator; column
    width holds the right-hand side.  Entering column by Dantzig's rule (most
    negative reduced cost, lowest index on ties) among the first ncols
    columns; after a long degenerate streak we switch to Bland's rule, which
    cannot cycle, so the run is deterministic and finite.  Returns False if
    unbounded.
    """
    degenerate_streak = 0
    bland = False
    while True:
        # one denominator per row: the numerators order the reduced costs
        pivot_col = -1
        if bland:
            for j, v in rows[m].items():
                if v < 0 and j < ncols and (pivot_col < 0 or j < pivot_col):
                    pivot_col = j
        else:
            best_cost = 0
            for j, v in rows[m].items():
                if j < ncols and (v < best_cost or (v == best_cost < 0 and j < pivot_col)):
                    best_cost = v
                    pivot_col = j
        if pivot_col < 0:
            return True
        # ratio test b_i/a_i by cross-multiplication (the denominators cancel)
        pivot_row = -1
        best_b = best_a = 0
        for i in range(m):
            a = rows[i].get(pivot_col, 0)
            if a > 0:
                b = rows[i].get(width, 0)
                if pivot_row < 0 or b * best_a < best_b * a or (
                    b * best_a == best_b * a and basis[i] < basis[pivot_row]
                ):
                    best_b, best_a = b, a
                    pivot_row = i
        if pivot_row < 0:
            return False
        if best_b == 0:
            degenerate_streak += 1
            if degenerate_streak > 200:
                bland = True
        else:
            degenerate_streak = 0
        _pivot(rows, dens, basis, pivot_row, pivot_col, m)


def _pivot(rows, dens, basis, pivot_row, pivot_col, m):
    """Make pivot_col basic in pivot_row: the pivot row becomes itself over
    its pivot entry, every other row loses its entry in pivot_col."""
    row = rows[pivot_row]
    p = row[pivot_col]
    if p < 0:
        for j in row:
            row[j] = -row[j]
        p = -p
    dens[pivot_row] = p
    _reduce(rows, dens, pivot_row)
    p = dens[pivot_row]
    for i in range(m + 1):
        if i != pivot_row:
            _eliminate(rows, dens, i, row, p, pivot_col)
    basis[pivot_row] = pivot_col


def rational_feasible(system: ConstraintSystem, objective: str) -> FeasibleResult:
    """Maximize one variable over the polyhedron; exact, with dual certificate.

    The result distinguishes an empty polyhedron ("infeasible") from a
    bounded maximum, and reports "unbounded" when the objective is not
    bounded above.  Pivoting ties break deterministically on a fixed column
    order, so certificates are reproducible.

    Presolve: an inequality of the shape c*x >= 0 with c > 0 is absorbed as
    a non-negativity bound on x (one tableau column, no row); its Farkas
    multiplier is recovered from the reduced cost of that column.  Variables
    without such a bound are split into positive and negative parts.
    """
    n = len(system.variables)
    obj_idx = system.var_index(objective)
    ineqs = list(system.inequalities)
    eqs = list(system.equalities)

    # sign-row presolve
    bound_row_of_var: dict[int, int] = {}
    bound_coeff: dict[int, Fraction] = {}
    for idx, f in enumerate(ineqs):
        if f.constant != 0:
            continue
        nz = [(j, c) for j, c in enumerate(f.coeffs) if c != 0]
        if len(nz) == 1 and nz[0][1] > 0 and nz[0][0] not in bound_row_of_var:
            bound_row_of_var[nz[0][0]] = idx
            bound_coeff[nz[0][0]] = nz[0][1]
    bound_rows = set(bound_row_of_var.values())
    row_ineqs = [i for i in range(len(ineqs)) if i not in bound_rows]

    # column layout: one column per bounded variable, two per free variable,
    # then one slack per inequality row, then the artificials
    pos_col: list[int] = [0] * n
    neg_col: list[int | None] = [None] * n
    col = 0
    for j in range(n):
        pos_col[j] = col
        col += 1
        if j not in bound_row_of_var:
            neg_col[j] = col
            col += 1
    nvar = col
    n_slack = len(row_ineqs)
    n_real = nvar + n_slack

    # rows: inequalities f >= 0 as (-f).x + s = f.constant, then equalities
    # g = 0 as g.x = -g.constant, each negated when its right-hand side is
    # negative.  A row whose slack is not +1 gets an artificial column.
    # Every row is built from the form's non-zero coefficients, scaled to
    # integers by the lcm of their denominators.
    forms = [(ineqs[i], -1, nvar + pos) for pos, i in enumerate(row_ineqs)]
    forms += [(g, 1, None) for g in eqs]
    m = len(forms)
    width = n_real + sum(1 for f, sign, s in forms if s is None or f.constant < 0)
    rows: list[dict[int, int]] = []
    dens: list[int] = []
    basis: list[int] = []
    flipped: list[bool] = []
    art_of_row: dict[int, int] = {}
    for i, (f, sign, slack) in enumerate(forms):
        b = -sign * f.constant
        flip = b < 0
        if flip:
            sign, b = -sign, -b
        terms = [(j, c) for j, c in enumerate(f.coeffs) if c]
        den = lcm(b.denominator, *(c.denominator for _, c in terms))
        row = {}
        for j, c in terms:
            v = sign * c.numerator * (den // c.denominator)
            row[pos_col[j]] = v
            if neg_col[j] is not None:
                row[neg_col[j]] = -v
        if b:
            row[width] = b.numerator * (den // b.denominator)
        flipped.append(flip)
        if slack is not None:
            row[slack] = -den if flip else den
        if slack is not None and not flip:
            basis.append(slack)
        else:
            art_of_row[i] = n_real + len(art_of_row)
            row[art_of_row[i]] = den
            basis.append(art_of_row[i])
        rows.append(row)
        dens.append(den)
        _reduce(rows, dens, i)

    # phase 1: drive artificials to zero
    if art_of_row:
        den = lcm(*(dens[i] for i in art_of_row))
        obj: dict[int, int] = {}
        for i in art_of_row:
            scale = den // dens[i]
            for j, v in rows[i].items():
                obj[j] = obj.get(j, 0) - scale * v
        for c in art_of_row.values():
            obj[c] = 0
        rows.append({j: v for j, v in obj.items() if v})
        dens.append(den)
        _reduce(rows, dens, m)
        _simplex(rows, dens, basis, m, width, width)
        if rows[m].get(width, 0) != 0:
            return FeasibleResult(status="infeasible")
        # pivot any artificial still basic out of the basis; rows that stay
        # artificial-basic are redundant (all-zero on real columns) and inert
        for i in range(m):
            if basis[i] >= n_real:
                real = [j for j in rows[i] if j < n_real]
                if real:
                    _pivot(rows, dens, basis, i, min(real), m)
        rows.pop()
        dens.pop()

    # phase 2: maximize the chosen variable
    cost = {pos_col[obj_idx]: -1}
    if neg_col[obj_idx] is not None:
        cost[neg_col[obj_idx]] = 1
    rows.append(cost)
    dens.append(1)
    for i in range(m):
        _eliminate(rows, dens, m, rows[i], dens[i], basis[i])
    if not _simplex(rows, dens, basis, m, width, n_real):
        return FeasibleResult(status="unbounded")

    obj_row, obj_den = rows[m], dens[m]

    def reduced(j):
        return Fraction(obj_row.get(j, 0), obj_den)

    maximum = reduced(width)
    point = [ZERO] * n
    vals = [ZERO] * width
    for i in range(m):
        vals[basis[i]] = Fraction(rows[i].get(width, 0), dens[i])
    for j in range(n):
        point[j] = vals[pos_col[j]]
        if neg_col[j] is not None:
            point[j] -= vals[neg_col[j]]

    # Dual extraction.  With y the simplex multipliers, the objective row
    # over inequality row i's slack column equals the form multiplier
    # Y_i >= 0 directly (a flipped row's sign cancels against its flipped
    # slack).  The reduced cost of a bounded variable's column is the
    # multiplier of its absorbed sign row, divided by the row coefficient.
    # For an equality row the entry over its artificial column is the raw
    # multiplier y_i; the form multiplier is -y_i unflipped, +y_i flipped.
    # Together: sum_i Y_i f_i + sum_j Z_j g_j == maximum - objective.
    cert_of_ineq: dict[int, Fraction] = {}
    for pos, i in enumerate(row_ineqs):
        cert_of_ineq[i] = reduced(nvar + pos)
    for j, i in bound_row_of_var.items():
        cert_of_ineq[i] = reduced(pos_col[j]) / bound_coeff[j]
    cert = [
        CertificateEntry("ineq", i, ineqs[i].label, cert_of_ineq[i])
        for i in range(len(ineqs))
    ]
    for k, g in enumerate(eqs):
        i = n_slack + k
        z = reduced(art_of_row[i])
        if not flipped[i]:
            z = -z
        cert.append(CertificateEntry("eq", k, g.label, z))

    return FeasibleResult(
        status="optimal",
        maximum=maximum,
        argmax=tuple(point),
        certificate=tuple(cert),
    )


def replay_certificate(
    system: ConstraintSystem, objective: str, result: FeasibleResult
) -> bool:
    """Check a certificate exactly: non-negative inequality multipliers whose
    combination with the equality multipliers equals (max - objective) as an
    affine form.  A certificate that names a constraint the system does not
    have does not replay."""
    if result.status != "optimal":
        return False
    n = len(system.variables)
    obj_idx = system.var_index(objective)
    acc = [ZERO] * n
    const = ZERO
    kinds = {"ineq": system.inequalities, "eq": system.equalities}
    for e in result.certificate:
        forms = kinds.get(e.kind)
        if forms is None or not 0 <= e.index < len(forms):
            return False
        form = forms[e.index]
        if e.kind == "ineq" and e.multiplier < 0:
            return False
        for j in range(n):
            acc[j] += e.multiplier * form.coeffs[j]
        const += e.multiplier * form.constant
    target = [ZERO] * n
    target[obj_idx] = -ONE
    return acc == target and const == result.maximum


def render_certificate(
    system: ConstraintSystem, result: FeasibleResult
) -> list[str]:
    """One line per constraint with its multiplier, exact rationals as p/q."""
    variables = list(system.variables)
    lines = []
    for e in result.certificate:
        form = (
            system.inequalities[e.index] if e.kind == "ineq" else system.equalities[e.index]
        )
        rel = ">= 0" if e.kind == "ineq" else "= 0"
        label = e.label or f"{e.kind}[{e.index}]"
        lines.append(
            f"{e.multiplier} * ({form.render(variables)} {rel})   [{label}]"
        )
    return lines
