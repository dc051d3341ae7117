"""The dense tower-file parser and writer that the sparse ones replaced.

Kept only as the reference of differential tests: every class expression
is accumulated as a full coefficient vector, an alias is zero-padded to
the current basis, and each product and pairing row is written from its
dense row (dense_row, which other tests use as an oracle too).  Both must
agree with threefold.towerfile on every input.
"""

from __future__ import annotations

import re
from fractions import Fraction

from threefold.blowup_calculus import BlowupStep, BlowupTower, CurveCenterSpec, SurfaceData
from threefold.intersection_ring import (
    CurveClass,
    DivisorClass,
    ThreefoldModel,
    ValidationError,
    make_base,
    make_custom_base,
)
from threefold.towerfile import TowerDocument, TowerParseError

QQ = Fraction
ZERO = Fraction(0)


def dense_row(model: ThreefoldModel, i: int, j: int | None = None) -> tuple[Fraction, ...]:
    """Pairing row i, or with j the curve coefficients of e_i.e_j, as a full
    tuple over the curve basis with its zeros."""
    m = len(model.curve_basis)
    if j is None:
        return tuple(model.pairing.get((i, a), ZERO) for a in range(m))
    entry = model.mul2.get((i, j) if i <= j else (j, i), {})
    return tuple(entry.get(a, ZERO) for a in range(m))


def _rational(text: str, line: int, col: int | None = None) -> Fraction:
    """A p/q literal the tokenizer already matched; q = 0 is a located error."""
    try:
        return QQ(text)
    except ZeroDivisionError:
        raise TowerParseError(f"zero denominator in coefficient {text!r}", line, col) from None


_TOKEN = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<num>\d+/\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<star>\*))"
)


def _parse_linear_expr(text: str, line: int, col0: int, resolve):
    """Parse a rational linear combination; `resolve(name) -> vector (list)`.

    Returns the accumulated coefficient list (length decided by resolve).
    """
    pos = 0
    acc = None
    sign = 1
    pending_num: Fraction | None = None
    saw_term = False
    expecting_term = True
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            bad = len(text) - len(text[pos:].lstrip())
            raise TowerParseError(
                f"unexpected character {text[bad:bad + 1]!r} in expression", line, col0 + bad + 1
            )
        pos = m.end()
        if m.group("sign"):
            if pending_num is not None:
                raise TowerParseError(
                    "dangling coefficient without a generator name",
                    line,
                    col0 + m.start("sign") + 1,
                )
            if not expecting_term and m.group("sign"):
                sign = 1 if m.group("sign") == "+" else -1
                expecting_term = True
            elif expecting_term:
                sign *= 1 if m.group("sign") == "+" else -1
            continue
        if m.group("num"):
            if pending_num is not None:
                raise TowerParseError("two coefficients in a row", line, col0 + m.start("num") + 1)
            pending_col = col0 + m.start("num") + 1
            pending_num = _rational(m.group("num"), line, pending_col)
            continue
        if m.group("star"):
            if pending_num is None:
                raise TowerParseError("'*' without a coefficient", line, col0 + m.start("star") + 1)
            continue
        name = m.group("name")
        vec = resolve(name)
        if vec is None:
            raise TowerParseError(f"unknown name {name!r}", line, col0 + m.start("name") + 1)
        coeff = (pending_num if pending_num is not None else QQ(1)) * sign
        if acc is None:
            acc = [ZERO] * len(vec)
        if len(vec) != len(acc):
            raise TowerParseError(f"name {name!r} has inconsistent dimension", line)
        for i, v in enumerate(vec):
            if v:
                acc[i] += coeff * v
        pending_num = None
        sign = 1
        expecting_term = False
        saw_term = True
    if pending_num is not None:
        raise TowerParseError("trailing coefficient without a generator", line, pending_col)
    if not saw_term:
        raise TowerParseError("empty class expression", line, col0 + 1)
    return acc


def _resolve_in(names):
    """A resolver for _parse_linear_expr: the unit vector of a name in names."""

    def resolve(nm):
        if nm in names:
            k = names.index(nm)
            return [QQ(1) if t == k else ZERO for t in range(len(names))]
        return None

    return resolve


def _strip_comment(raw: str) -> str:
    if "#" in raw:
        raw = raw[: raw.index("#")]
    return raw.rstrip()


_CI_RE = re.compile(r"^ci\((\d+);([\d,]+)\)$")
_CURVE_RE = re.compile(
    r"^blowup\s+curve\s+class\s*=\s*(?P<cls>.*?)\s+genus\s*=\s*(?P<genus>\d+)(?P<rest>.*)$"
)
_OPT_RES = {
    "normal": re.compile(r"^normal\s*=\s*decomposable\b"),
    "tau0": re.compile(r"^tau0\s*=\s*(-?\d+)\b"),
    "movable": re.compile(r"^movable\b"),
    "label": re.compile(r"^label\s*=\s*(\S+)"),
    "surface": re.compile(
        r"^surface\s*=\s*(?P<surf>[^;]+);\s*mu\s*=\s*(?P<mu>\d+)"
        r"(?:\s*;\s*kappa\s*=\s*(?P<kappa>-?\d+(?:/\d+)?))?"
    ),
}


def _reference_parse_tower(text: str) -> TowerDocument:
    """Parse a tower description; raises TowerParseError with location."""
    lines = text.splitlines()
    idx = 0
    n_lines = len(lines)

    def next_meaningful(i):
        while i < n_lines and not _strip_comment(lines[i]).strip():
            i += 1
        return i

    idx = next_meaningful(idx)
    if idx >= n_lines:
        raise TowerParseError("empty tower file: expected a 'base' line", max(1, n_lines))
    first = _strip_comment(lines[idx]).strip()
    if not first.startswith("base"):
        raise TowerParseError("first statement must be 'base <spec>'", idx + 1)
    base_arg = first[4:].strip()
    if not base_arg:
        raise TowerParseError("missing base spec", idx + 1)

    if base_arg == "custom":
        base, idx = _parse_custom_block(lines, idx + 1)
    else:
        m = _CI_RE.match(base_arg)
        try:
            if m:
                n = int(m.group(1))
                degrees = [int(d) for d in m.group(2).split(",")]
                base = make_base("ci", n=n, degrees=degrees)
            else:
                base = make_base(base_arg)
        except ValidationError as e:
            raise TowerParseError(str(e), idx + 1) from None
        idx += 1

    tower = BlowupTower(base)
    aliases: dict[str, tuple[int, CurveClass]] = {}

    def resolve_curve(name):
        names = tower.top().curve_names()
        if name not in names and name in aliases:
            size, cls = aliases[name]
            return list(cls.coeffs) + [ZERO] * (len(names) - size)
        return _resolve_in(names)(name)

    def resolve_divisor(name):
        return _resolve_in(tower.top().divisor_names())(name)

    while True:
        idx = next_meaningful(idx)
        if idx >= n_lines:
            break
        line_no = idx + 1
        raw = _strip_comment(lines[idx])
        stmt = raw.strip()
        lead = len(raw) - len(stmt)  # columns count from the start of the line
        idx += 1
        if stmt == "blowup point":
            tower = tower.with_step(BlowupStep("point"))
            continue
        if stmt.startswith("blowup curve"):
            m = _CURVE_RE.match(stmt)
            if not m:
                if "genus" not in stmt:
                    raise TowerParseError(
                        "curve blowup needs 'genus = <int>'", line_no
                    )
                raise TowerParseError(
                    "malformed curve blowup (expected 'blowup curve class = <expr> genus = <int> [options]')",
                    line_no,
                )
            vec = _parse_linear_expr(m.group("cls"), line_no, lead + m.start("cls"), resolve_curve)
            try:
                opts = _parse_curve_options(
                    m.group("rest"), line_no, lead + m.start("rest"), resolve_divisor
                )
                center = CurveCenterSpec(
                    curve_class=tower.top().curve(vec),
                    genus=int(m.group("genus")),
                    normal_bundle_decomposable=opts.get("normal"),
                    tau0=opts.get("tau0"),
                    surface_data=opts.get("surface"),
                    movable_witness=opts.get("movable"),
                    label=opts.get("label", ""),
                )
                tower = tower.with_step(BlowupStep("curve", center))
            except ValidationError as e:
                raise TowerParseError(str(e), line_no) from None
            continue
        if stmt.startswith("alias"):
            m = re.match(r"^alias\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)$", stmt)
            if not m:
                raise TowerParseError("malformed alias (expected 'alias <name> = <expr>')", line_no)
            name = m.group(1)
            if resolve_curve(name) is not None:
                raise TowerParseError(f"alias {name!r} shadows an existing name", line_no)
            vec = _parse_linear_expr(m.group(2), line_no, lead + m.start(2), resolve_curve)
            aliases[name] = (len(vec), CurveClass(tuple(vec)))
            continue
        if stmt.startswith("base"):
            raise TowerParseError("duplicate 'base' statement", line_no)
        if stmt.startswith("blowup"):
            raise TowerParseError(
                "unknown blowup kind (expected 'blowup point' or 'blowup curve ...')",
                line_no,
            )
        raise TowerParseError(f"unrecognized statement {stmt.split()[0]!r}", line_no)

    return TowerDocument(tower=tower, aliases=aliases)


def _parse_curve_options(rest: str, line_no: int, col0: int, resolve_divisor):
    """Options after 'genus = <int>'; rest starts at line offset col0."""
    opts = {}
    pos = 0
    while pos < len(rest):
        while pos < len(rest) and rest[pos].isspace():
            pos += 1
        if pos >= len(rest):
            break
        chunk = rest[pos:]
        for key, rx in _OPT_RES.items():
            m = rx.match(chunk)
            if not m:
                continue
            if key == "normal":
                opts["normal"] = True
            elif key == "tau0":
                opts["tau0"] = int(m.group(1))
            elif key == "movable":
                opts["movable"] = True
            elif key == "label":
                opts["label"] = m.group(1)
            else:
                vec = _parse_linear_expr(
                    m.group("surf").rstrip(), line_no, col0 + pos + m.start("surf"), resolve_divisor
                )
                kappa = m.group("kappa")
                if kappa is not None:
                    kappa = _rational(kappa, line_no, col0 + pos + m.start("kappa") + 1)
                opts["surface"] = SurfaceData(
                    surface=DivisorClass(tuple(vec)), mu=int(m.group("mu")), kappa=kappa
                )
            pos += m.end()
            break
        else:
            raise TowerParseError(
                f"unknown curve option at {chunk.split()[0]!r}", line_no
            )
    return opts


# ---------------------------------------------------------------------------
# custom base block
# ---------------------------------------------------------------------------


def _parse_custom_block(lines, start):
    label = "custom"
    divisors: list[str] = []
    curves: list[str] = []
    mul: dict[tuple[str, str], dict] = {}
    pairing: dict[tuple[str, str], Fraction] = {}
    c1_expr = None
    c2_expr = None
    euler = None
    picard = None
    flags: list[str] = []
    i = start
    closed = False
    while i < len(lines):
        line_no = i + 1
        raw = _strip_comment(lines[i])
        stmt = raw.strip()
        i += 1
        if not stmt:
            continue
        if stmt == "end":
            closed = True
            break
        head, _, tail = stmt.partition(" ")
        tail = tail.strip()
        value = tail.lstrip("= ").strip()
        # offsets on the line: the statement, like its tail and value, ends it
        col0 = len(raw) - len(value)
        if head in ("divisor", "curve", "flag") and not tail:
            raise TowerParseError(f"'{head}' needs a name", line_no)
        if head == "label":
            label = tail
        elif head == "divisor":
            divisors.append(tail)
        elif head == "curve":
            curves.append(tail)
        elif head == "mul":
            m = re.match(r"^(\S+)\s+(\S+)\s*=\s*(.*)$", tail)
            if not m:
                raise TowerParseError("malformed mul entry", line_no)
            a, b, expr = m.groups()
            if expr.strip() == "0":
                vec = {name: ZERO for name in curves}
            else:
                coeffs = _parse_linear_expr(
                    expr, line_no, len(raw) - len(expr), _resolve_in(curves)
                )
                vec = {name: coeffs[t] for t, name in enumerate(curves)}
            mul[(a, b)] = vec
        elif head == "pair":
            m = re.match(r"^(\S+)\s+(\S+)\s*=\s*(-?\d+(?:/\d+)?)$", tail)
            if not m:
                raise TowerParseError("malformed pair entry (want 'pair d c = p/q')", line_no)
            pairing[(m.group(1), m.group(2))] = _rational(
                m.group(3), line_no, len(raw) - len(tail) + m.start(3) + 1
            )
        elif head == "c1":
            c1_expr = (value, line_no, col0)
        elif head == "c2":
            c2_expr = (value, line_no, col0)
        elif head in ("euler", "picard"):
            try:
                number = int(value)
            except ValueError:
                raise TowerParseError(
                    f"{head} must be an integer, got {value!r}", line_no, col0 + 1
                ) from None
            if head == "euler":
                euler = number
            else:
                picard = number
        elif head == "flag":
            flags.append(tail)
        else:
            raise TowerParseError(f"unknown custom-base statement {head!r}", line_no)
    if not closed:
        raise TowerParseError("custom base block never closed with 'end'", len(lines))
    if c1_expr is None or c2_expr is None or euler is None:
        raise TowerParseError("custom base needs c1, c2 and euler", i)
    c1_vec = _parse_linear_expr(*c1_expr, _resolve_in(divisors))
    c2_vec = _parse_linear_expr(*c2_expr, _resolve_in(curves))
    try:
        model = make_custom_base(
            label=label,
            divisor_names=divisors,
            curve_names=curves,
            mul2=mul,
            pairing=pairing,
            c1=DivisorClass(tuple(c1_vec)),
            c2=CurveClass(tuple(c2_vec)),
            euler=euler,
            flags=flags,
        )
    except ValidationError as e:
        raise TowerParseError(f"invalid custom base: {e}", start) from None
    if picard is not None and picard != model.picard:
        raise TowerParseError(
            f"declared picard = {picard} but basis has size {model.picard}", start
        )
    return model, i


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _render_class(names, coeffs) -> str:
    parts = []
    for name, c in zip(names, coeffs):
        if c == 0:
            continue
        if c == 1:
            parts.append(("+", name))
        elif c == -1:
            parts.append(("-", name))
        else:
            parts.append(("+" if c > 0 else "-", f"{abs(c)} {name}"))
    if not parts:
        return "0"
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _reference_serialize_model(model: ThreefoldModel) -> str:
    """Emit the model as a parseable 'base custom' block."""
    dn = model.divisor_names()
    cn = model.curve_names()
    lines = ["base custom", f"label {model.label}"]
    for name in dn:
        lines.append(f"divisor {name}")
    for name in cn:
        lines.append(f"curve {name}")
    for i in range(len(dn)):
        for j in range(i, len(dn)):
            lines.append(f"mul {dn[i]} {dn[j]} = {_render_class(cn, dense_row(model, i, j))}")
    for i in range(len(dn)):
        for a, v in enumerate(dense_row(model, i)):
            if v != 0:
                lines.append(f"pair {dn[i]} {cn[a]} = {v}")
    lines.append(f"c1 = {_render_class(dn, model.c1.coeffs)}")
    lines.append(f"c2 = {_render_class(cn, model.c2.coeffs)}")
    lines.append(f"euler = {model.euler}")
    lines.append(f"picard = {model.picard}")
    for flag in sorted(model.base_flags):
        lines.append(f"flag {flag}")
    lines.append("end")
    return "\n".join(lines) + "\n"
