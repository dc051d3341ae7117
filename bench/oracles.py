"""Correctness checks made apart from the package under test.

Nothing here imports the package.  Each check takes one operation's input
and the output the worker recorded, and returns a list of problems (empty
when the output is correct):

- p3lines: the constraint rows against closed forms in n derived by hand,
  and the Farkas identity recomputed in exact rationals;
- dynamics: both certified radii against a radius oracle (sympy squarefree
  split, then mpmath roots at 50 digits, so repeated eigenvalues stay
  exact), the minimal polynomials against the characteristic polynomials;
- CLI: the records against the paper's numbers, closed forms and the
  tower files' own steps.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

import mpmath
import sympy

X = sympy.Symbol("x")
DIGITS = 50
MAX_WIDTH = Fraction(1, 10**10)
TOLERANCE = mpmath.mpf(10) ** -30


def _frac(text) -> Fraction:
    return Fraction(str(text))


# ---------------------------------------------------------------------------
# p3lines
# ---------------------------------------------------------------------------


def p3lines_rows(n: int):
    """The equality and inequality rows, by hand, over (deg_u, beta_1..n, S).

    zeta.c2(X2):    6 + n(n-1)/2,  -(n-1) per beta,  0 on S
    zeta.c1(X2)^2: 16 - n(n-1)/2,   n-5  per beta, -2 on S
    Sign rows for every variable, and for 6 <= n <= 9 one row
    3 deg_u - sum_{l in T} beta_l >= 0 per 6-subset T (twisted cubics).
    """
    lines = n * (n - 1) // 2
    eqs = [
        [6 + lines] + [-(n - 1)] * n + [0],
        [16 - lines] + [n - 5] * n + [-2],
    ]
    nv = n + 2
    ineqs = [[1 if k == i else 0 for k in range(nv)] for i in range(nv)]
    if 6 <= n <= 9:
        for subset in itertools.combinations(range(1, n + 1), 6):
            ineqs.append([3] + [-1 if l in subset else 0 for l in range(1, n + 1)] + [0])
    return eqs, ineqs


def farkas_residual(eqs, ineqs, certificate, maximum):
    """sum y_i f_i + sum z_j g_j - (maximum - deg_u), as (coeffs, constant);
    None when an inequality multiplier is negative."""
    nv = len((eqs or ineqs)[0][0])
    coeffs = [Fraction(0)] * nv
    constant = Fraction(0)
    for kind, index, mult in certificate:
        mult = _frac(mult)
        if kind == "ineq" and mult < 0:
            return None
        row, const = (ineqs if kind == "ineq" else eqs)[index]
        for k, c in enumerate(row):
            coeffs[k] += mult * _frac(c)
        constant += mult * _frac(const)
    coeffs[0] += 1
    return coeffs, constant - _frac(maximum)


def check_p3lines(op, out) -> list[str]:
    n = op["n"]
    problems = []
    if out["verdict"] != "deg(u)=0 forced" or out["maximum"] != "0":
        problems.append(f"n={n}: verdict {out['verdict']!r}, maximum {out['maximum']}")
    expected_vars = ["deg_u"] + [f"beta{l}" for l in range(1, n + 1)] + ["S"]
    if out["variables"] != expected_vars:
        return problems + [f"n={n}: variables {out['variables']}"]
    eqs, ineqs = p3lines_rows(n)

    def rows(forms):
        return sorted(tuple(_frac(c) for c in coeffs) + (_frac(const),) for coeffs, const in forms)

    if rows(out["equalities"]) != rows([(r, 0) for r in eqs]):
        problems.append(f"n={n}: equality rows differ from the closed forms")
    if rows(out["inequalities"]) != rows([(r, 0) for r in ineqs]):
        problems.append(f"n={n}: inequality rows differ from the sign and twisted-cubic rows")
    residual = farkas_residual(out["equalities"], out["inequalities"], out["certificate"],
                               out["maximum"] or 0)
    if residual is None:
        problems.append(f"n={n}: negative inequality multiplier")
    elif any(residual[0]) or residual[1]:
        problems.append(f"n={n}: Farkas combination is not max - deg_u")
    return problems


# ---------------------------------------------------------------------------
# spectral radii
# ---------------------------------------------------------------------------


def charpoly(matrix) -> list[int]:
    """det(xI - A), low to high, by sympy."""
    p = sympy.Matrix(matrix).charpoly(X)
    return [int(c) for c in reversed(p.all_coeffs())]


def roots_of(poly):
    """All complex roots of the squarefree part of an integer polynomial
    (low to high), to DIGITS digits."""
    sf = sympy.Poly(list(reversed(poly)), X).sqf_part()
    coeffs = [int(c) for c in sf.all_coeffs()]
    with mpmath.workdps(DIGITS):
        if len(coeffs) == 2:
            return [mpmath.mpf(-coeffs[1]) / coeffs[0]]
        return mpmath.polyroots(coeffs, maxsteps=400, extraprec=4 * DIGITS)


def radii(charp):
    """((rho(A), real), (rho(A^-1), real)) from the characteristic polynomial
    of an invertible integer matrix A; `real` says whether an eigenvalue
    (of A, resp. A^-1) has modulus rho, so that the radius is an eigenvalue
    up to sign."""
    roots = roots_of(charp)
    with mpmath.workdps(DIGITS):
        top = max(abs(r) for r in roots)
        bottom = min(abs(r) for r in roots)

        def real_at(modulus):
            return any(abs(mpmath.im(r)) < TOLERANCE and abs(abs(r) - modulus) < TOLERANCE
                       for r in roots)

        return (top, real_at(top)), (1 / bottom, real_at(bottom))


def _divides(factor, poly) -> bool:
    _, rem = sympy.div(
        sympy.Poly(list(reversed(poly)), X), sympy.Poly(list(reversed(factor)), X), domain="QQ"
    )
    return rem.is_zero


def check_radius(label, oracle, minpoly, lo, hi, charp) -> list[str]:
    """One certified radius (minpoly, [lo, hi]) against the oracle.

    The minimal polynomial must be an irreducible integer polynomial with
    the radius as a root; when the radius is an eigenvalue up to sign it
    must also divide the characteristic polynomial.  (For a complex-dominant
    radius |z|, irreducibility and the root already make it divide
    charpoly(A (x) A)(x^2), which has |z| as a root.)
    """
    value, is_eigenvalue = oracle
    problems = []
    if not all(isinstance(c, int) for c in minpoly) or len(minpoly) < 2:
        return [f"{label}: minimal polynomial {minpoly} is not a non-constant integer polynomial"]
    lo, hi = _frac(lo), _frac(hi)
    if not lo <= hi or hi - lo > MAX_WIDTH:
        problems.append(f"{label}: interval [{lo}, {hi}] wider than 1e-10")
    with mpmath.workdps(DIGITS):
        low = mpmath.mpf(lo.numerator) / lo.denominator
        high = mpmath.mpf(hi.numerator) / hi.denominator
        if not low - TOLERANCE <= value <= high + TOLERANCE:
            problems.append(f"{label}: radius {mpmath.nstr(value, 20)} outside [{lo}, {hi}]")
        scale = sum(abs(c) * value**i for i, c in enumerate(minpoly))
        if abs(mpmath.polyval(list(reversed(minpoly)), value)) > TOLERANCE * scale:
            problems.append(f"{label}: radius is not a root of {minpoly}")
    if not sympy.Poly(list(reversed(minpoly)), X).is_irreducible:
        problems.append(f"{label}: {minpoly} is not irreducible")
    if is_eigenvalue:
        signed = [c * (-1) ** i for i, c in enumerate(minpoly)]
        if not (_divides(minpoly, charp) or _divides(signed, charp)):
            problems.append(f"{label}: {minpoly} does not divide the characteristic polynomial")
    return problems


def inverse_charpoly(charp):
    """Characteristic polynomial of A^-1 from that of a unimodular A."""
    rev = list(reversed(charp))
    return [c * rev[-1] for c in rev] if abs(rev[-1]) == 1 else None


class RadiusOracle:
    """Radius checks, with the oracle memoised per characteristic polynomial
    (dyn-sample repeats most of its polynomials)."""

    def __init__(self):
        self._memo = {}

    def _oracle(self, matrix):
        cp = charpoly(matrix)
        key = tuple(cp)
        if key not in self._memo:
            self._memo[key] = radii(cp), cp
        return self._memo[key]

    def check_dynamics(self, op, out) -> list[str]:
        (rho, rho_inv), cp = self._oracle(op["matrix"])
        inv_cp = inverse_charpoly(cp)
        if inv_cp is None:
            return ["matrix is not unimodular"]
        expected_mode = "model" if op["kind"] == "model" else "raw"
        problems = [] if out["mode"] == expected_mode else [f"mode {out['mode']}"]
        problems += check_radius("lambda1", rho, *out["lambda1"], cp)
        problems += check_radius("lambda2", rho_inv, *out["lambda2"], inv_cp)
        return problems


# ---------------------------------------------------------------------------
# CLI records
# ---------------------------------------------------------------------------

UENO = {"fixed_points": "8", "period2_points": "56", "singular_points": "36",
        "chi_quotient": "20", "chi_resolution": "92", "picard_resolution": "45",
        "identity_check": "true"}


def records(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out.setdefault(key, value)
    return out


def tower_steps(text: str):
    """[("point", None) | ("curve", (i, j, genus))] from a generated tower."""
    steps = []
    for line in text.splitlines():
        if line == "blowup point":
            steps.append(("point", None))
        m = re.fullmatch(r"blowup curve class = l - L(\d+) - L(\d+) genus = (\d+)", line)
        if m:
            steps.append(("curve", tuple(int(g) for g in m.groups())))
    return steps


def _minpoly_from_text(text: str) -> list[int]:
    p = sympy.Poly(sympy.sympify(text.replace("^", "**")), X)
    return [int(c) for c in reversed(p.all_coeffs())]


def _interval_from_text(text: str):
    m = re.match(r"\[([^,]+), ([^\]]+)\]", text)
    return m.group(1), m.group(2)


def cli_failed(op, out) -> bool:
    """The program gave no verdict: a crash, or the wrong exit status."""
    if "Traceback" in out["stderr"]:
        return True
    if "malformed.tower" in op["args"]:
        return out["returncode"] != 1 or not any(
            line.startswith("error:") for line in out["stderr"].splitlines()
        )
    return out["returncode"] != 0


def check_cli(op, out, files, oracle: RadiusOracle) -> list[str]:
    args = op["args"]
    rec = records(out["stdout"])
    cmd = " ".join(args[:2])
    want: dict[str, str] = {}
    problems: list[str] = []
    if args[0] == "ring" and args[2] != "malformed.tower":
        steps = tower_steps(files[args[2]])
        euler = 4 + sum(2 if kind == "point" else 2 - 2 * data[2] for kind, data in steps)
        want = {"picard": str(1 + len(steps)), "euler": str(euler)}
    elif args[0] == "check":
        condition, steps = args[2], tower_steps(files[args[3]])
        tags = ["T5" if kind == "point" else "T7" for kind, _ in steps]
        want = {"condition": condition, "status": "holds-by-theorem", "trace": ",".join(tags)}
        for k, (kind, data) in enumerate(steps, start=1):
            if kind == "curve":
                # c1(X).(l - L_i - L_j) = 4 - 2 - 2 on the blown-up P3
                want[f"trace.step{k}.c1_dot_C"] = "0"
                want[f"trace.step{k}.two_g_minus_2"] = str(2 * data[2] - 2)
    elif args[0] == "picard1":
        steps = tower_steps(files[args[1]])
        want = {"condition_a": "holds-by-theorem", "condition_b": "holds-by-theorem"}
        alphas = []
        for k, (kind, data) in enumerate(steps, start=1):
            if kind == "curve":
                # a line: H.C = 1 and gamma = c1(P3).C + 2g - 2 = 4 + 2g - 2
                gamma = 4 + 2 * data[2] - 2
                alpha = Fraction(2, gamma)
                alphas.append(str(alpha))
                want[f"alpha.step{k}"] = str(alpha)
                want[f"gamma.step{k}"] = str(gamma)
        want["alphas"] = ",".join(alphas)
    elif args[0] == "p3lines":
        want = {"n": args[2], "verdict": "forced", "max_deg_u": "0"}
        if "certificate.0" not in rec:
            problems.append("p3lines: no certificate records")
    elif args[0] == "dynamics":
        matrix = [[int(v) for v in row.split()] for row in files[args[2]].splitlines()]
        model = "--model" in args
        want = {"mode": "model" if model else "raw", "rationality_obstruction": "consistent"}
        if model:
            want["action_valid"] = "true"
        try:
            degrees = {
                "mode": rec.get("mode"),
                "lambda1": [_minpoly_from_text(rec["lambda1_minpoly"]),
                            *_interval_from_text(rec["lambda1_interval"])],
                "lambda2": [_minpoly_from_text(rec["lambda2_minpoly"]),
                            *_interval_from_text(rec["lambda2_interval"])],
            }
            kind = "model" if model else "raw"
            problems += oracle.check_dynamics({"kind": kind, "matrix": matrix}, degrees)
        except (KeyError, AttributeError, sympy.SympifyError) as e:
            problems.append(f"dynamics: unreadable degree records ({e})")
    elif args[:2] == ["case", "ueno"]:
        want = dict(UENO)
    elif args[:2] == ["case", "ci"]:
        n = int(args[3])
        degrees = [int(d) for d in args[5].split(",")]
        s = sum(degrees)
        pairs = sum(degrees[i] * degrees[j] for i in range(len(degrees)) for j in range(i, len(degrees)))
        want = {"c1_coeff": str(n + 1 - s),
                "c2_coeff": str((n + 1) * n // 2 - (n + 1) * s + pairs),
                "series_oracle_agrees": "true"}
    elif args[0] == "budget":
        chi0, rho0 = (int(v) for v in args[2].split(","))
        chi, rho = (int(v) for v in args[4].split(","))
        slack = chi0 + 2 * (rho - rho0) - chi
        want = {"num_blowups": str(rho - rho0), "genus_slack": str(slack),
                "all_centers_rational_forced": str(slack == 0).lower(),
                "feasible": str(slack >= 0).lower()}
    for key, value in want.items():
        if rec.get(key) != value:
            problems.append(f"{cmd}: {key}={rec.get(key)} (expected {value})")
    return problems
