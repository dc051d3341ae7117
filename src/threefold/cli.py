"""Command line entry point.

Subcommands:

    ring show <file>            bases, products, Chern classes, chi, rho
    check --condition A|B <file>   Condition A/B verdict for a tower
    p3lines --n N               points-and-lines degree forcing on P3
    picard1 <file>              rank-1 tower check with alpha witnesses
    dynamics --matrix <file> [--model <file>]   certified dynamical degrees
    case ueno                   quotient-threefold bookkeeping
    case ci --n N --degrees d1,d2,...           complete-intersection c2
    budget --base chi,rho --target chi,rho      Euler/Picard budget

Tower files use the line format documented in towerfile; matrix files are
one whitespace-separated integer row per line.  A file argument of '-'
reads stdin.  Exit status 0 means a verdict was computed (including
"unknown"), 2 a usage error, 1 a bad input or engine failure.  With
--format records, output is one key=value pair per line and contains every
number of the human-readable report.
"""

from __future__ import annotations

import argparse
import re
import sys


class Report:
    """Accumulates (key, value) records; renders either style."""

    def __init__(self):
        self.records: list[tuple[str, str]] = []
        self.headlines: list[str] = []

    def head(self, text: str):
        self.headlines.append(text)

    def add(self, key: str, value):
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.records.append((key, str(value)))

    def emit(self, fmt: str):
        if fmt == "records":
            for k, v in self.records:
                print(f"{k}={v}")
        else:
            for line in self.headlines:
                print(line)
            for k, v in self.records:
                print(f"{k}: {v}")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_matrix(path: str):
    """Integer rows, one a line; each fault is located by line (and column)."""
    rows = []  # (line number, entries)
    for line_no, raw in enumerate(_read_text(path).splitlines(), 1):
        row = []
        for tok in re.finditer(r"\S+", raw.split("#")[0]):
            try:
                row.append(int(tok.group()))
            except ValueError:
                raise ValueError(
                    f"line {line_no}, col {tok.start() + 1}: "
                    f"expected an integer, got {tok.group()!r}"
                ) from None
        if row:
            rows.append((line_no, row))
    if not rows:
        raise ValueError("matrix file is empty")
    n = len(rows[0][1])
    for line_no, row in rows:
        if len(row) != n:
            raise ValueError(f"line {line_no}: row has {len(row)} entries, expected {n}")
    if len(rows) != n:
        raise ValueError("matrix file is not square")
    return [row for _, row in rows]


def _load_tower(path: str):
    from .towerfile import parse_tower

    return parse_tower(_read_text(path)).tower


def _interval_str(alg) -> str:
    return f"[{alg.lo}, {alg.hi}] (width <= {float(alg.width):.3e})"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ring(args) -> int:
    from .towerfile import render_class, ring_records, serialize_model

    model = _load_tower(args.file).top()
    if args.format == "records":
        rep = Report()
        rep.add("label", model.label)
        rep.add("picard", model.picard)
        rep.add("euler", model.euler)
        rep.add("divisor_basis", ",".join(model.divisor_names()))
        rep.add("curve_basis", ",".join(model.curve_names()))
        for key, value in ring_records(model):
            rep.add(key, value)
        rep.add("c1", render_class(model.divisor_names(), model.c1.coeffs))
        rep.add("c2", render_class(model.curve_names(), model.c2.coeffs))
        for flag in sorted(model.base_flags):
            rep.add("flag", flag)
        rep.emit("records")
    else:
        sys.stdout.write(serialize_model(model))
    return 0


def cmd_check(args) -> int:
    from .nef_conditions import check_tower

    tower = _load_tower(args.file)
    verdict = check_tower(tower, args.condition)
    rep = Report()
    tags = ",".join(verdict.step_tags())
    rep.head(f"Condition {args.condition}: {verdict.status}; trace: {tags}")
    rep.add("condition", args.condition)
    rep.add("status", verdict.status)
    rep.add("trace", tags)
    for e in verdict.trace:
        base = f"trace.step{e.step}"
        rep.add(base, f"{e.theorem}:{e.case}" if e.case else e.theorem)
        for k, v in e.witnesses:
            rep.add(f"{base}.{k}", v)
    rep.emit(args.format)
    return 0


def cmd_p3lines(args) -> int:
    from .nef_conditions import check_p3_points_lines

    report = check_p3_points_lines(args.n)
    rep = Report()
    if report.forced:
        rep.head("deg(u)=0 forced; zero entropy by Condition A")
    else:
        rep.head(f"inconclusive: max deg(u) = {report.maximum}")
    rep.add("n", report.n)
    rep.add("verdict", "forced" if report.forced else "inconclusive")
    rep.add("max_deg_u", report.maximum)
    for i, line in enumerate(report.certificate_lines):
        rep.add(f"certificate.{i}", line)
    rep.emit(args.format)
    return 0


def cmd_picard1(args) -> int:
    from .nef_conditions import check_picard1

    tower = _load_tower(args.file)
    report = check_picard1(tower)
    rep = Report()
    rep.head(
        f"Condition A: {report.verdict_a.status}; Condition B: {report.verdict_b.status}"
    )
    rep.add("condition_a", report.verdict_a.status)
    rep.add("condition_b", report.verdict_b.status)
    rep.add("alphas", ",".join(str(a) for a in report.alphas) or "(none)")
    for e in report.verdict_a.trace:
        if e.case == "alpha-witness":
            rep.add(f"alpha.step{e.step}", e.witness("alpha"))
            rep.add(f"gamma.step{e.step}", e.witness("gamma"))
    rep.emit(args.format)
    return 0


def cmd_dynamics(args) -> int:
    from .lattice_dynamics import (
        InvalidActionError,
        dynamical_degrees,
        eigenclass_constraints,
        rationality_obstruction,
    )

    A = _read_matrix(args.matrix)
    rep = Report()
    model = None
    if args.model:
        model = _load_tower(args.model).top()
        # the eigenclass check validates the action and certifies both
        # degrees; neither is redone here
        try:
            ec = eigenclass_constraints(model, A, tolerance=args.tolerance)
        except InvalidActionError as e:
            rep.add("action_valid", False)
            for i, v in enumerate(e.validation.violations):
                rep.add(f"violation.{i}", v)
            rep.head("action is not a lattice automorphism candidate")
            rep.emit(args.format)
            return 0
        rep.add("action_valid", True)
        degrees = ec.degrees
    else:
        degrees = dynamical_degrees(None, A)
    rep.head(
        f"lambda1 = {float(degrees.lambda1):.10f}, lambda2 = {float(degrees.lambda2):.10f}, "
        f"entropy = {degrees.entropy:.10f}"
    )
    rep.add("mode", degrees.mode)
    rep.add("lambda1", f"{float(degrees.lambda1):.10f}")
    rep.add("lambda1_minpoly", degrees.lambda1.minpoly_str())
    rep.add("lambda1_interval", _interval_str(degrees.lambda1))
    rep.add("lambda2", f"{float(degrees.lambda2):.10f}")
    rep.add("lambda2_minpoly", degrees.lambda2.minpoly_str())
    rep.add("lambda2_interval", _interval_str(degrees.lambda2))
    rep.add("entropy", f"{degrees.entropy:.12f}")
    rep.add("primitive_hint", degrees.primitive_hint)
    rat = rationality_obstruction(degrees.charpoly)
    rep.add("rationality_obstruction", rat.status)
    if model is not None:
        rep.add("eigenclass_status", ec.status)
        if ec.detail:
            rep.add("eigenclass_detail", ec.detail)
        for k, v in ec.residuals.items():
            rep.add(f"residual.{k}", f"{v:.3e}")
            rep.add(f"residual.{k}.within_tolerance", ec.within_tolerance[k])
    rep.emit(args.format)
    return 0


def cmd_case(args) -> int:
    from .case_studies import ci_c2, ci_c2_series_check, g_quadratic, ueno_report

    rep = Report()
    if args.which == "ueno":
        r = ueno_report()
        rep.head("order-4 torus quotient bookkeeping")
        rep.add("fixed_points", r.fixed_points)
        rep.add("period2_points", r.period2_points)
        rep.add("singular_points", r.singular_points)
        rep.add("chi_quotient", r.chi_quotient)
        rep.add("chi_resolution", r.chi_resolution)
        rep.add("picard_resolution", r.picard_resolution)
        rep.add("identity_check", r.identity_check)
    else:
        degrees = [int(d) for d in args.degrees.split(",")] if args.degrees else []
        r = ci_c2(args.n, degrees)
        rep.head(f"complete intersection in P^{args.n}, degrees {degrees}")
        rep.add("c1_coeff", r.c1_coeff)
        rep.add("c2_coeff", r.c2_coeff)
        rep.add("positive", r.positive)
        rep.add("series_oracle_agrees", ci_c2_series_check(args.n, degrees))
        x = sum(degrees)
        rep.add("g_at_sum_degrees", g_quadratic(args.n, x))
    rep.emit(args.format)
    return 0


def cmd_budget(args) -> int:
    from .case_studies import euler_budget

    def pair_of(text):
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'chi,rho', got {text!r}")
        return (int(parts[0]), int(parts[1]))

    r = euler_budget(pair_of(args.base), pair_of(args.target))
    rep = Report()
    rep.head(r.describe())
    rep.add("num_blowups", r.num_blowups)
    rep.add("genus_slack", r.genus_slack)
    rep.add("all_centers_rational_forced", r.all_centers_rational_forced)
    rep.add("feasible", r.feasible)
    rep.emit(args.format)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threefold",
        description="Exact intersection calculus and nef-condition checks on blowups of threefolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ring = sub.add_parser("ring", help="inspect the intersection ring of a tower")
    ring_sub = p_ring.add_subparsers(dest="ring_command", required=True)
    p_show = ring_sub.add_parser("show", help="print the evaluated model")
    p_show.add_argument("file", help="tower file ('-' for stdin)")
    _add_format(p_show)
    p_show.set_defaults(func=cmd_ring)

    p_check = sub.add_parser("check", help="Condition A/B verdict for a tower")
    p_check.add_argument("--condition", required=True, choices=["A", "B"])
    p_check.add_argument("file")
    _add_format(p_check)
    p_check.set_defaults(func=cmd_check)

    p_p3 = sub.add_parser("p3lines", help="points-and-lines forcing on P3")
    p_p3.add_argument("--n", type=int, required=True, help="number of points (>= 1)")
    _add_format(p_p3)
    p_p3.set_defaults(func=cmd_p3lines)

    p_pic = sub.add_parser("picard1", help="rank-1 tower check with alpha witnesses")
    p_pic.add_argument("file")
    _add_format(p_pic)
    p_pic.set_defaults(func=cmd_picard1)

    p_dyn = sub.add_parser("dynamics", help="certified dynamical degrees of a lattice action")
    p_dyn.add_argument("--matrix", required=True, help="integer matrix file ('-' for stdin)")
    p_dyn.add_argument("--model", help="tower file providing the intersection model")
    p_dyn.add_argument("--tolerance", type=float, default=1e-8)
    _add_format(p_dyn)
    p_dyn.set_defaults(func=cmd_dynamics)

    p_case = sub.add_parser("case", help="worked computations")
    case_sub = p_case.add_subparsers(dest="which", required=True)
    p_ueno = case_sub.add_parser("ueno", help="order-4 torus quotient bookkeeping")
    _add_format(p_ueno)
    p_ueno.set_defaults(func=cmd_case, which="ueno")
    p_ci = case_sub.add_parser("ci", help="complete-intersection c2 positivity")
    p_ci.add_argument("--n", type=int, required=True)
    p_ci.add_argument("--degrees", required=True, help="comma-separated hypersurface degrees")
    _add_format(p_ci)
    p_ci.set_defaults(func=cmd_case, which="ci")

    p_budget = sub.add_parser("budget", help="Euler/Picard blowup budget")
    p_budget.add_argument("--base", required=True, help="chi,rho of the base")
    p_budget.add_argument("--target", required=True, help="chi,rho of the target")
    _add_format(p_budget)
    p_budget.set_defaults(func=cmd_budget)

    return parser


def _add_format(p):
    p.add_argument(
        "--format",
        choices=["human", "records"],
        default="human",
        help="records = one key=value per line",
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:  # parse, validation and LP errors are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
