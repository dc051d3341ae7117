import itertools
import time
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import blowup_towers, models_of
from towerfile_reference import _reference_parse_tower, _reference_serialize_model

from threefold import (
    blow_up_curve,
    blow_up_point,
    line_strict_transform,
    make_base,
    make_custom_base,
    models_equivalent,
    parse_tower,
    serialize_model,
)
from threefold.blowup_calculus import CurveCenterSpec
from threefold.intersection_ring import ValidationError
from threefold.towerfile import TowerParseError


def test_minimal_tower():
    doc = parse_tower("base p3\nblowup point\n")
    assert len(doc.tower.steps) == 1
    assert doc.top().picard == 2


def test_theorem_configuration_tower():
    text = """# two points and the connecting line
base p3
blowup point
blowup point
blowup curve class = l - L1 - L2 genus = 0
"""
    doc = parse_tower(text)
    top = doc.top()
    assert top.picard == 4 and top.euler == 10
    center = doc.tower.steps[2].center
    assert center.curve_class.coeffs == (Q(1), Q(-1), Q(-1), Q(0))[: len(center.curve_class)]


def test_missing_base_is_line1_error():
    with pytest.raises(TowerParseError) as err:
        parse_tower("blowup curve class = l genus = 0\n")
    assert err.value.line == 1


def test_unknown_name_has_location():
    with pytest.raises(TowerParseError) as err:
        parse_tower("base p3\nblowup curve class = nosuch genus = 0\n")
    assert err.value.line == 2 and err.value.col is not None


CUSTOM_BASE = "base custom\ndivisor a\ncurve x\nmul a a = x\npair a x = 1\nc1 = a\nc2 = x\neuler = 4\nend\n"


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("base p3\nblowup curve class = l - q genus = 0\n", 2, 26),
        # 'u' also occurs in 'blowup': the column is the expression's, not the first match
        ("base p3\nblowup curve class = u genus = 0\n", 2, 22),
        ("base p3\nblowup curve class = l genus = 0 surface=q;mu=1\n", 2, 42),
        ("base p3\nalias b = a\n", 2, 11),
        (CUSTOM_BASE.replace("c1 = a", "c1 = 4 q"), 6, 8),
        (CUSTOM_BASE.replace("c2 = x", "c2 = y"), 7, 6),
        (CUSTOM_BASE.replace("mul a a = x", "mul a a = q"), 4, 11),
        # a longer name is located at its first character, not its last
        ("base p3\nblowup curve class = nosuch genus = 0\n", 2, 22),
        ("base p3\nblowup point\nblowup curve class = l - L1 - nosuch genus = 0\n", 3, 31),
        ("base p3\nblowup curve class = l genus = 0 surface = hh; mu=1\n", 2, 44),
        # leading blanks count: columns are the line's, not the statement's
        ("base p3\n  blowup curve class = l - q genus = 0\n", 2, 28),
        ("base p3\n\talias b = a\n", 2, 12),
        (CUSTOM_BASE.replace("c1 = a", "   c1 = 4 q"), 6, 11),
        (CUSTOM_BASE.replace("mul a a = x", " mul a a = q"), 4, 12),
    ],
)
def test_unknown_name_column_is_relative_to_the_statement(text, line, col):
    with pytest.raises(TowerParseError, match="unknown name") as err:
        parse_tower(text)
    assert (err.value.line, err.value.col) == (line, col)


@pytest.mark.parametrize(
    "expr, message, col",
    [
        ("2 33 l", "two coefficients in a row", 24),
        ("2 l - 3/4 5/6 L1", "two coefficients in a row", 32),
        ("l $ L1", "unexpected character '\\$'", 24),
        ("l -  * L1", "'\\*' without a coefficient", 27),
        ("l 2", "trailing coefficient without a generator", 24),
        ("2 l - 3/4", "trailing coefficient without a generator", 28),
    ],
)
def test_expression_errors_point_at_the_first_column_of_the_token(expr, message, col):
    with pytest.raises(TowerParseError, match=message) as err:
        parse_tower(f"base p3\nblowup point\nblowup curve class = {expr} genus = 0\n")
    assert (err.value.line, err.value.col) == (3, col)


def test_missing_genus():
    with pytest.raises(TowerParseError, match="genus"):
        parse_tower("base p3\nblowup curve class = l\n")


def test_malformed_rational():
    with pytest.raises(TowerParseError):
        parse_tower("base p3\nblowup curve class = 1//2 l genus = 0\n")


def test_ci_base():
    doc = parse_tower("base ci(4;2)\n")
    assert doc.top().c1.coeffs == (Q(3),)
    with pytest.raises(TowerParseError):
        parse_tower("base ci(4;2,2)\n")


def test_curve_options_parse():
    text = (
        "base p3\n"
        "blowup curve class = 2 l genus = 1 normal=decomposable tau0=3 movable label=conic\n"
    )
    center = parse_tower(text).tower.steps[0].center
    assert center.genus == 1
    assert center.normal_bundle_decomposable is True
    assert center.tau0 == 3
    assert center.movable_witness is True
    assert center.label == "conic"


def test_surface_option_parse():
    text = (
        "base p3\n"
        "blowup point\n"
        "blowup curve class = l - L1 genus = 0 surface = 2 h - E1; mu=2; kappa=1\n"
    )
    center = parse_tower(text).tower.steps[1].center
    assert center.surface_data.mu == 2
    assert center.surface_data.kappa == 1  # recomputed S.C agrees
    assert center.surface_data.surface.coeffs == (Q(2), Q(-1))
    # an inconsistent kappa is rejected at the blowup step
    with pytest.raises(TowerParseError, match="kappa"):
        parse_tower(text.replace("kappa=1", "kappa=3"))
    with pytest.raises(TowerParseError, match="mu must be >= 1") as err:
        parse_tower(text.replace("mu=2", "mu=0"))
    assert err.value.line == 3


def test_alias_definition_and_pullback():
    text = """base p3
alias D = 2 l
blowup point
blowup curve class = D - L1 genus = 0
"""
    center = parse_tower(text).tower.steps[1].center
    assert center.curve_class.coeffs == (Q(2), Q(-1))


def test_alias_cannot_shadow():
    with pytest.raises(TowerParseError, match="shadows"):
        parse_tower("base p3\nalias l = l\n")


def test_unknown_statement():
    with pytest.raises(TowerParseError, match="unrecognized"):
        parse_tower("base p3\nfrobnicate\n")


def test_duplicate_base():
    with pytest.raises(TowerParseError, match="duplicate"):
        parse_tower("base p3\nbase p3\n")


def test_stock_model_roundtrip():
    for spec in ("p3", "p2xp1", "p1cubed"):
        model = make_base(spec)
        doc = parse_tower(serialize_model(model))
        assert models_equivalent(doc.top(), model)


def test_blownup_model_roundtrip():
    p3 = make_base("p3")
    model = blow_up_point(p3)
    model = blow_up_curve(
        model, CurveCenterSpec(model.curve({"l": 1, "L1": -1}), genus=0)
    )
    text = serialize_model(model)
    doc = parse_tower(text)
    assert models_equivalent(doc.top(), model)
    # and the re-parsed model serializes to the same text (fixed point)
    assert serialize_model(doc.top()) == text


def _custom_p3(label="custom", flags=()):
    return make_custom_base(
        label=label,
        divisor_names=["h"],
        curve_names=["l"],
        mul2={("h", "h"): {"l": 1}},
        pairing={("h", "l"): 1},
        c1={"h": 4},
        c2={"l": 6},
        euler=4,
        flags=flags,
    )


@pytest.mark.parametrize(
    "label, flags, what",
    [
        ("cubic #2", (), "label"),  # read back as 'cubic'
        ("a\nb", (), "label"),  # 'b' read as a statement
        (" x", (), "label"),
        ("custom", ("note #1",), "flag"),
        ("custom", ("two  spaces ",), "flag"),  # loses its trailing blank
        ("custom", ("a\u2028b",), "flag"),  # a line break to str.splitlines
    ],
)
def test_labels_and_flags_a_tower_file_cannot_carry_are_refused(label, flags, what):
    with pytest.raises(ValidationError, match=f"^{what} .* cannot be written to a tower file"):
        _custom_p3(label, flags)


def test_empty_flags_and_unwritable_center_labels_are_refused():
    with pytest.raises(ValidationError, match="flag must not be empty"):
        _custom_p3(flags=("",))
    p3 = make_base("p3")
    # the model label P3+x#y would read back as P3+x
    with pytest.raises(ValidationError, match="center label 'x#y' cannot be written"):
        CurveCenterSpec(p3.curve({"l": 1}), genus=0, label="x#y")


def test_labels_and_flags_that_fit_a_line_read_back():
    model = _custom_p3("a  b", ("two  spaces", "x"))
    back = parse_tower(serialize_model(model)).top()
    assert back.label == "a  b"
    assert models_equivalent(back, model)
    model = blow_up_curve(model, CurveCenterSpec(model.curve({"l": 1}), genus=0, label="D 1"))
    assert parse_tower(serialize_model(model)).top().label == "a  b+D 1"


@settings(max_examples=60, deadline=None)
@given(blowup_towers())
def test_random_tower_roundtrip(tower):
    model = tower.top()
    text = serialize_model(model)
    doc = parse_tower(text)
    assert models_equivalent(doc.top(), model)
    assert serialize_model(doc.top()) == text


def test_custom_base_supports_further_blowups():
    model = blow_up_point(make_base("p3"))
    text = serialize_model(model) + "blowup point\n"
    doc = parse_tower(text)
    assert doc.top().picard == 3


def test_custom_block_validation_errors():
    bad = """base custom
label broken
divisor a
curve x
mul a a = x
pair a x = 1
c1 = a
euler = 4
end
"""
    with pytest.raises(TowerParseError, match="c1, c2"):
        parse_tower(bad.replace("c1 = a\n", ""))
    with pytest.raises(TowerParseError, match="never closed"):
        parse_tower("base custom\nlabel x\n")
    with pytest.raises(TowerParseError, match="euler must be an integer, got 'x'") as err:
        parse_tower(bad.replace("euler = 4", "euler = x"))
    assert (err.value.line, err.value.col) == (8, 9)
    with pytest.raises(TowerParseError, match="picard must be an integer, got '1.5'") as err:
        parse_tower(CUSTOM_BASE.replace("end", "picard = 1.5\nend"))
    assert (err.value.line, err.value.col) == (9, 10)
    for head, text in [
        ("divisor", CUSTOM_BASE.replace("divisor a\n", "divisor\ndivisor a\n")),
        ("curve", CUSTOM_BASE.replace("curve x\n", "curve\ncurve x\n")),
        ("flag", CUSTOM_BASE.replace("end", "flag\nend")),
    ]:
        with pytest.raises(TowerParseError, match=f"'{head}' needs a name") as err:
            parse_tower(text)
        assert err.value.line == text.splitlines().index(head) + 1


# P3, four points, the lines through p1 p2 and p3 p4, the conic through p1 p2 p3
MIXED_TOWER = """base p3
blowup point
blowup point
blowup point
blowup point
blowup curve class = l - L1 - L2 genus = 0
blowup curve class = l - L3 - L4 genus = 0
blowup curve class = 2 l - L1 - L2 - L3 genus = 0
"""

# serialize_model of the top of MIXED_TOWER: every unordered product,
# zeros included, then the non-zero pairings
MIXED_TOWER_SERIALIZED = """base custom
label P3+pt+pt+pt+pt+C5+C6+C7
divisor h
divisor E1
divisor E2
divisor E3
divisor E4
divisor F1
divisor F2
divisor F3
curve l
curve L1
curve L2
curve L3
curve L4
curve M1
curve M2
curve M3
mul h h = l
mul h E1 = 0
mul h E2 = 0
mul h E3 = 0
mul h E4 = 0
mul h F1 = M1
mul h F2 = M2
mul h F3 = 2 M3
mul E1 E1 = -L1
mul E1 E2 = 0
mul E1 E3 = 0
mul E1 E4 = 0
mul E1 F1 = M1
mul E1 F2 = 0
mul E1 F3 = M3
mul E2 E2 = -L2
mul E2 E3 = 0
mul E2 E4 = 0
mul E2 F1 = M1
mul E2 F2 = 0
mul E2 F3 = M3
mul E3 E3 = -L3
mul E3 E4 = 0
mul E3 F1 = 0
mul E3 F2 = M2
mul E3 F3 = M3
mul E4 E4 = -L4
mul E4 F1 = 0
mul E4 F2 = M2
mul E4 F3 = 0
mul F1 F1 = -l + L1 + L2 - 2 M1
mul F1 F2 = 0
mul F1 F3 = 0
mul F2 F2 = -l + L3 + L4 - 2 M2
mul F2 F3 = 0
mul F3 F3 = -2 l + L1 + L2 + L3
pair h l = 1
pair E1 L1 = -1
pair E2 L2 = -1
pair E3 L3 = -1
pair E4 L4 = -1
pair F1 M1 = -1
pair F2 M2 = -1
pair F3 M3 = -1
c1 = 4 h - 2 E1 - 2 E2 - 2 E3 - 2 E4 - F1 - F2 - F3
c2 = 10 l - 2 L1 - 2 L2 - 2 L3 - L4 - 2 M3
euler = 18
picard = 8
end
"""


def test_serialize_model_golden():
    top = parse_tower(MIXED_TOWER).top()
    assert serialize_model(top) == MIXED_TOWER_SERIALIZED
    assert models_equivalent(parse_tower(MIXED_TOWER_SERIALIZED).top(), top)


def test_zero_denominator_is_a_parse_error():
    with pytest.raises(TowerParseError, match="zero denominator in coefficient '1/0'") as err:
        parse_tower("base p3\nblowup point\nblowup curve class = 1/0*l genus = 0\n")
    assert (err.value.line, err.value.col) == (3, 22)
    with pytest.raises(TowerParseError, match="zero denominator") as err:
        parse_tower(
            "base p3\nblowup point\n"
            "blowup curve class = l - L1 genus = 0 surface = h; mu=1; kappa=1/0\n"
        )
    assert (err.value.line, err.value.col) == (3, 64)
    with pytest.raises(TowerParseError, match="zero denominator") as err:
        parse_tower(
            "base p3\nblowup point\n"
            "  blowup curve class = l - L1 genus = 0 surface = h; mu=1; kappa=-1/0\n"
        )
    assert (err.value.line, err.value.col) == (3, 66)
    with pytest.raises(TowerParseError, match="zero denominator") as err:
        parse_tower("base p3\nblowup point\nblowup curve class = l - L1 genus = 0 surface = 1/0 h; mu=1\n")
    assert (err.value.line, err.value.col) == (3, 49)
    with pytest.raises(TowerParseError, match="zero denominator") as err:
        parse_tower(CUSTOM_BASE.replace("c1 = a", "c1 = 1/0 a"))
    assert (err.value.line, err.value.col) == (6, 6)
    custom = "base custom\ndivisor a\ncurve x\nmul a a = x\npair a x = 1/0\nc1 = a\nc2 = x\neuler = 4\nend\n"
    with pytest.raises(TowerParseError, match="zero denominator") as err:
        parse_tower(custom)
    assert (err.value.line, err.value.col) == (5, 12)
    with pytest.raises(TowerParseError, match="zero denominator") as err:
        parse_tower(custom.replace("pair a x", "  pair  a x"))
    assert (err.value.line, err.value.col) == (5, 15)


def test_a_blowup_may_not_take_the_name_of_an_alias():
    # the new fiber M1 would shadow the alias M1, and the second center would
    # silently be the fiber class instead of l
    text = "base p3\nalias M1 = l\nblowup curve class = M1 genus = 0\nblowup curve class = M1 genus = 0\n"
    with pytest.raises(TowerParseError, match="new curve generator 'M1' takes an alias's name") as err:
        parse_tower(text)
    assert err.value.line == 3
    with pytest.raises(TowerParseError, match="'L1' takes an alias's name") as err:
        parse_tower("base p3\nalias L1 = l\nblowup point\n")
    assert err.value.line == 3


def test_aliases_are_term_maps_resolved_by_name():
    doc = parse_tower("base p3\nblowup point\nalias D = 2 l - L1\nalias G = D + l\nblowup point\n")
    assert doc.aliases == {"D": {"l": 2, "L1": -1}, "G": {"l": 3, "L1": -1}}


def test_a_mul_line_names_only_curves_declared_before_it():
    text = CUSTOM_BASE.replace("curve x\nmul a a = x\n", "mul a a = x\ncurve x\n")
    with pytest.raises(TowerParseError, match="unknown name 'x'") as err:
        parse_tower(text)
    assert (err.value.line, err.value.col) == (3, 11)


def test_writer_orders_each_product_by_curve_index():
    # the block lists y before x; the stored entry keeps that order, and the
    # writer must still write the product over the curve basis in order
    block = (
        "base custom\ndivisor a\ndivisor b\ncurve x\ncurve y\n"
        "mul a a = y + 2 x\nmul a b = x\npair a x = 1\npair b y = 1\nc1 = a\nc2 = x\neuler = 4\nend\n"
    )
    model = parse_tower(block).top()
    assert list(model.mul2[(0, 0)]) == [1, 0]
    text = serialize_model(model)
    assert "mul a a = 2 x + y\n" in text
    assert text == _reference_serialize_model(model) == _reference_serialize_model(_reference_parse_tower(block).top())


def _in_order(model):
    """The tables with the order of their keys and of each entry's terms."""
    return [(k, list(e.items())) for k, e in model.mul2.items()], list(model.pairing.items())


STOCK_SPECS = {"P3": "p3", "P2xP1": "p2xp1", "P1xP1xP1": "p1cubed"}


@st.composite
def tower_texts(draw):
    """A tower file for a drawn tower: the base by name or as a custom block,
    each class written as its terms c*name in a drawn order (zeros kept),
    and some curve centers through an alias of their part on the base,
    defined before the first blowup and pulled back by name."""
    tower = draw(blowup_towers())
    models = models_of(tower)
    base = tower.base
    spec = STOCK_SPECS.get(base.label)
    head = [f"base {spec}"] if spec and draw(st.booleans()) else serialize_model(base).splitlines()
    aliases, steps = [], []

    def expr(names, coeffs):
        terms = draw(st.permutations(list(zip(names, coeffs))))
        return " + ".join(f"{c}*{n}" for n, c in terms)

    for k, step in enumerate(tower.steps):
        if step.kind == "point":
            steps.append("blowup point")
            continue
        center, model = step.center, models[k]
        names, coeffs = model.curve_names(), center.curve_class.coeffs
        cls = expr(names, coeffs)
        if k and draw(st.booleans()):
            aliases.append(f"alias Q{k} = {expr(names[:base.picard], coeffs[:base.picard])}")
            cls = f"Q{k} + {expr(names[base.picard:], coeffs[base.picard:])}"
        line = f"blowup curve class = {cls} genus = {center.genus}"
        if center.surface_data is not None:
            sd = center.surface_data
            line += f" surface = {expr(model.divisor_names(), sd.surface.coeffs)}; mu={sd.mu}"
        steps.append(line)
    return "\n".join(head + aliases + steps) + "\n"


@settings(max_examples=80, deadline=None)
@given(tower_texts())
def test_sparse_format_matches_the_dense_reference(text):
    new = parse_tower(text).top()
    ref = _reference_parse_tower(text).top()
    assert new == ref and models_equivalent(new, ref)
    assert _in_order(new) == _in_order(ref)
    shown = serialize_model(new)
    assert shown == _reference_serialize_model(ref)
    back, ref_back = parse_tower(shown).top(), _reference_parse_tower(shown).top()
    assert back == ref_back and _in_order(back) == _in_order(ref_back)
    assert serialize_model(back) == shown


def test_points_and_lines_round_trip_at_rho_466():
    # P3 in 30 points, then the 435 lines through two of them; the dense
    # writer took about 13 s here, and reading its output back was O(rho^3)
    model = make_base("p3")
    for _ in range(30):
        model = blow_up_point(model)
    for i, j in itertools.combinations(range(1, 31), 2):
        model = blow_up_curve(model, line_strict_transform(model, (i, j)))
    assert model.picard == 466
    t0 = time.perf_counter()
    text = serialize_model(model)
    back = parse_tower(text).top()
    elapsed = time.perf_counter() - t0
    assert models_equivalent(back, model)
    assert serialize_model(back) == text
    assert elapsed < 8.0, f"ring show and its read-back took {elapsed:.2f} s at rho = 466"
