"""Line-oriented tower description files.

Grammar (one statement per line, '#' starts a comment, rationals as p/q):

    base p3 | p2xp1 | p1cubed | ci(n;d1,d2,...) | custom
    blowup point
    blowup curve class = <expr> genus = <int> [normal=decomposable]
        [tau0=<int>] [surface=<divisor expr>;mu=<int>[;kappa=<p/q>]]
        [movable] [label=<name>]
    alias <name> = <curve expr>

Class expressions are rational linear combinations of the generator names
available at the current step ("l - L1 - L2", "3/2 l", "2*l"), read as
{name: coefficient} maps.  Names are tokens [A-Za-z_][A-Za-z0-9_]*, and
make_custom_base refuses any other generator name.  An alias is the map of
its expression and resolves by name wherever it is used: generator names
are stable under blowups, so that is the pullback.  A blowup whose new
curve generator would take an alias's name is an error.

A custom base is a block after "base custom", closed by "end":

    label <text>
    divisor <name> / curve <name>        (repeated, in order)
    mul <d1> <d2> = <curve expr | 0>     (one per unordered pair)
    pair <d> <c> = <p/q>                 (missing entries default to 0)
    c1 = <divisor expr>
    c2 = <curve expr>
    euler = <int>
    picard = <int>
    flag <name>                          (optional, repeated)

`ring show` emits exactly this block, so its output re-parses to the same
model.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import partial

from ._record import record
from .blowup_calculus import BlowupStep, BlowupTower, CurveCenterSpec, SurfaceData
from .intersection_ring import (
    NAME_TOKEN,
    ONE,
    ZERO,
    ThreefoldModel,
    ValidationError,
    make_base,
    make_custom_base,
    pairing_rows,
)


class TowerParseError(ValueError):
    def __init__(self, message: str, line: int, col: int | None = None):
        loc = f"line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(f"{loc}: {message}")
        self.line = line
        self.col = col


@record
class TowerDocument:
    tower: BlowupTower
    aliases: dict[str, dict[str, Fraction]]  # name -> {generator name: coefficient}

    def top(self) -> ThreefoldModel:
        return self.tower.top()


def _rational(text: str, line: int, col: int | None = None) -> Fraction:
    """A p/q literal the grammar already matched; q = 0 and a part past
    int()'s digit limit (its only refusal of matched digits) are located errors."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise TowerParseError(f"zero denominator in coefficient {text!r}", line, col) from None
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise TowerParseError(f"number literal too long: more than {limit} digits", line, col) from None


def _int(text: str, line: int, col: int) -> int:
    """An integer literal the grammar already matched, read by _rational."""
    return int(_rational(text, line, col))


_TOKEN = re.compile(
    rf"\s*(?:(?P<sign>[+-])|(?P<num>\d+/\d+|\d+)|(?P<name>{NAME_TOKEN})|(?P<star>\*))"
)


def _parse_linear_expr(text: str, line: int, col0: int, resolve) -> dict[str, Fraction]:
    """Parse a rational linear combination into its {generator name:
    coefficient} map; resolve(name) is the term map a name stands for
    ({name: 1} for a generator, its map for an alias), or None."""
    pos = 0
    acc: dict[str, Fraction] = {}
    sign = 1
    pending_num: Fraction | None = None
    sign_col: int | None = None  # the column of a sign not yet followed by a term
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
            sign *= 1 if m.group("sign") == "+" else -1  # the last term reset sign to 1
            sign_col = col0 + m.start("sign") + 1
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
        terms = resolve(name)
        if terms is None:
            raise TowerParseError(f"unknown name {name!r}", line, col0 + m.start("name") + 1)
        coeff = (pending_num if pending_num is not None else ONE) * sign
        for g, v in terms.items():
            acc[g] = acc.get(g, ZERO) + coeff * v
        pending_num = sign_col = None
        sign = 1
    if pending_num is not None:
        raise TowerParseError("trailing coefficient without a generator", line, pending_col)
    if not acc:  # every term map has a key
        raise TowerParseError("empty class expression", line, col0 + 1)
    if sign_col is not None:
        raise TowerParseError("trailing sign without a term", line, sign_col)
    return acc


def _generator(index, name: str) -> dict[str, Fraction] | None:
    """{name: 1} if index (a model's curve_index or divisor_index) knows name."""
    try:
        index(name)
    except ValidationError:
        return None
    return {name: ONE}


def _declared(names):
    """A resolver giving {name: 1} for each name in the set names, which may grow."""
    return lambda name: {name: ONE} if name in names else None


def _strip_comment(raw: str) -> str:
    if "#" in raw:
        raw = raw[: raw.index("#")]
    return raw.rstrip()


_CI_RE = re.compile(r"^ci\((\d+);(\d+(?:,\d+)*)\)$")
_CURVE_RE = re.compile(
    r"^blowup\s+curve\s+class\s*=\s*(?P<cls>.*?)\s+genus\s*=\s*(?P<genus>\d+)(?P<rest>.*)$"
)
_ALIAS_RE = re.compile(rf"^alias\s+({NAME_TOKEN})\s*=\s*(.*)$")
_MUL_RE = re.compile(r"^(\S+)\s+(\S+)\s*=\s*(.*)$")
_PAIR_RE = re.compile(r"^(\S+)\s+(\S+)\s*=\s*(-?\d+(?:/\d+)?)$")
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


def parse_tower(text: str) -> TowerDocument:
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
    raw = _strip_comment(lines[idx])
    first = raw.strip()
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
                col = len(raw) - len(base_arg) + 1  # of the spec on the line
                n = _int(m.group(1), idx + 1, col + m.start(1))
                ds = re.finditer(r"\d+", m.group(2))
                degrees = [_int(d[0], idx + 1, col + m.start(2) + d.start()) for d in ds]
                base = make_base("ci", n=n, degrees=degrees)
            else:
                base = make_base(base_arg)
        except ValidationError as e:
            raise TowerParseError(str(e), idx + 1) from None
        idx += 1

    tower = BlowupTower(base)
    aliases: dict[str, dict[str, Fraction]] = {}

    def resolve_curve(name):
        return _generator(tower.top().curve_index, name) or aliases.get(name)

    def blow_up(step, line_no):
        grown = tower.with_step(step)
        if (name := grown.top().curve_basis[-1].name) in aliases:
            raise TowerParseError(f"the new curve generator {name!r} takes an alias's name", line_no)
        return grown

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
            tower = blow_up(BlowupStep("point"), line_no)
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
            terms = _parse_linear_expr(m.group("cls"), line_no, lead + m.start("cls"), resolve_curve)
            model = tower.top()
            try:
                opts = _parse_curve_options(m.group("rest"), line_no, lead + m.start("rest"), model)
                center = CurveCenterSpec(
                    curve_class=model.curve(terms),
                    genus=_int(m.group("genus"), line_no, lead + m.start("genus") + 1),
                    normal_bundle_decomposable=opts.get("normal"),
                    tau0=opts.get("tau0"),
                    surface_data=opts.get("surface"),
                    movable_witness=opts.get("movable"),
                    label=opts.get("label", ""),
                )
                tower = blow_up(BlowupStep("curve", center), line_no)
            except ValidationError as e:
                raise TowerParseError(str(e), line_no) from None
            continue
        if stmt.startswith("alias"):
            m = _ALIAS_RE.match(stmt)
            if not m:
                raise TowerParseError("malformed alias (expected 'alias <name> = <expr>')", line_no)
            name = m.group(1)
            if resolve_curve(name) is not None:
                raise TowerParseError(f"alias {name!r} shadows an existing name", line_no)
            aliases[name] = _parse_linear_expr(m.group(2), line_no, lead + m.start(2), resolve_curve)
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


def _parse_curve_options(rest: str, line_no: int, col0: int, model: ThreefoldModel):
    """Options after 'genus = <int>' on a blowup of model; rest starts at col0."""
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
                opts["tau0"] = _int(m.group(1), line_no, col0 + pos + m.start(1) + 1)
            elif key == "movable":
                opts["movable"] = True
            elif key == "label":
                opts["label"] = m.group(1)
            else:
                surf, resolve = m.group("surf").rstrip(), partial(_generator, model.divisor_index)
                terms = _parse_linear_expr(surf, line_no, col0 + pos + m.start("surf"), resolve)
                kappa = m.group("kappa")
                if kappa is not None:
                    kappa = _rational(kappa, line_no, col0 + pos + m.start("kappa") + 1)
                mu = _int(m.group("mu"), line_no, col0 + pos + m.start("mu") + 1)
                opts["surface"] = SurfaceData(surface=model.divisor(terms), mu=mu, kappa=kappa)
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
    declared: set[str] = set()  # the curves so far, which a mul line may name
    resolve_curve = _declared(declared)
    mul: dict[tuple[str, str], dict[str, Fraction]] = {}
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
            declared.add(tail)
        elif head == "mul":
            m = _MUL_RE.match(tail)
            if not m:
                raise TowerParseError("malformed mul entry", line_no)
            a, b, expr = m.groups()
            col = len(raw) - len(expr)
            mul[(a, b)] = {} if expr.strip() == "0" else _parse_linear_expr(expr, line_no, col, resolve_curve)
        elif head == "pair":
            m = _PAIR_RE.match(tail)
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
            if not re.fullmatch(r"[+-]?\d+", value):
                raise TowerParseError(f"{head} must be an integer, got {value!r}", line_no, col0 + 1)
            number = _int(value, line_no, col0 + 1)
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
    try:
        model = make_custom_base(
            label=label,
            divisor_names=divisors,
            curve_names=curves,
            mul2=mul,
            pairing=pairing,
            c1=_parse_linear_expr(*c1_expr, _declared(set(divisors))),
            c2=_parse_linear_expr(*c2_expr, resolve_curve),
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
# serialization (ring show emits a re-parseable custom base)
# ---------------------------------------------------------------------------


def _render(terms) -> str:
    """The expression of the (name, coefficient) terms, zeros skipped."""
    parts = []
    for name, c in terms:
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


def render_class(names, coeffs) -> str:
    """The expression of a coefficient vector over the names."""
    return _render(zip(names, coeffs))


def _products(model: ThreefoldModel):
    """(e_i, e_j, e_i.e_j) for every i <= j in basis order, each product written
    from its stored entry in curve-index order, or "0" when none is stored."""
    dn, cn = model.divisor_names(), model.curve_names()
    for i, d in enumerate(dn):
        for j in range(i, len(dn)):
            entry = model.mul2.get((i, j))
            yield d, dn[j], _render((cn[a], c) for a, c in sorted(entry.items())) if entry else "0"


def ring_records(model: ThreefoldModel):
    """The (key, value) records of the tables that `ring show --format
    records` prints: every product, then every pairing, zeros included."""
    for d, e, product in _products(model):
        yield f"mul.{d}.{e}", product
    cn = model.curve_names()
    den, rows = pairing_rows(model)
    for d, row in zip(model.divisor_names(), rows):
        for a, c in enumerate(cn):
            yield f"pair.{d}.{c}", Fraction(row[a], den) if a in row else ZERO


def serialize_model(model: ThreefoldModel) -> str:
    """Emit the model as a parseable 'base custom' block."""
    dn, cn = model.divisor_names(), model.curve_names()
    lines = [
        "base custom",
        f"label {model.label}",
        *(f"divisor {name}" for name in dn),
        *(f"curve {name}" for name in cn),
        *(f"mul {d} {e} = {product}" for d, e, product in _products(model)),
        *(f"pair {dn[i]} {cn[a]} = {v}" for (i, a), v in sorted(model.pairing.items()) if v),
        f"c1 = {render_class(dn, model.c1.coeffs)}",
        f"c2 = {render_class(cn, model.c2.coeffs)}",
        f"euler = {model.euler}",
        f"picard = {model.picard}",
        *(f"flag {flag}" for flag in sorted(model.base_flags)),
        "end",
    ]
    return "\n".join(lines) + "\n"


def models_equivalent(a: ThreefoldModel, b: ThreefoldModel) -> bool:
    """Structural identity of two models: same generator names and order,
    same tables, Chern classes, Euler number, Picard number and flags.
    Provenance (blowup history, element origins) is ignored."""
    return (
        a.divisor_names() == b.divisor_names()
        and a.curve_names() == b.curve_names()
        and a.mul2 == b.mul2
        and a.pairing == b.pairing
        and a.c1 == b.c1
        and a.c2 == b.c2
        and a.euler == b.euler
        and a.picard == b.picard
        and a.base_flags == b.base_flags
    )
