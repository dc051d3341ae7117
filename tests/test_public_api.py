"""The package's public names: one table, each name imported on first use."""

import dataclasses
import inspect
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import threefold
from threefold import _record

PUBLIC_NAMES = [
    "AutomorphismAction", "BasisElement", "BlowupStep", "BlowupTower", "CiChernReport",
    "ConditionVerdict", "ConstraintSystem", "CurveCenterSpec", "CurveClass", "DegreeReport",
    "DivisorClass", "EffectiveCurveReport", "EigenclassReport", "EulerBudget", "FeasibleResult",
    "GeneralizedConfig", "LinearForm", "P3LinesReport", "Picard1Report", "RuledSurfaceData",
    "SectionNumbers", "SurfaceData", "ThreefoldModel", "TowerDocument", "TowerParseError",
    "TraceEntry", "UenoReport", "ValidationError", "blow_up_curve", "blow_up_point",
    "check_c2_positive_tower", "check_generalized", "check_p3_points_lines", "check_picard1",
    "check_tower", "ci_c2", "curve_step", "dynamical_degrees", "effective_curve_check",
    "eigenclass_constraints", "euler_budget", "g_quadratic", "gamma", "line_strict_transform",
    "make_base", "make_custom_base", "models_equivalent", "multiply_divisors", "pair",
    "pairing_determinant", "parse_tower", "point_step", "propagate_condition", "pullback_curve",
    "pullback_divisor", "pushforward_curve", "pushforward_divisor", "rational_feasible",
    "rationality_obstruction", "render_certificate", "replay_certificate", "section_and_ff",
    "serialize_model", "torus_fixed_points", "triple", "ueno_report", "validate_action",
    "validate_model",
]


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 68
    assert threefold.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_is_the_object_of_its_defining_module(name):
    obj = getattr(threefold, name)
    assert obj.__module__.startswith("threefold.")
    assert getattr(sys.modules[obj.__module__], name) is obj
    # resolved once: later lookups read the package namespace directly
    assert vars(threefold)[name] is obj


def test_star_import_binds_every_name():
    namespace = {}
    exec("from threefold import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(threefold, name)


def test_dir_lists_every_name():
    assert set(PUBLIC_NAMES) <= set(dir(threefold))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        threefold.no_such_name  # noqa: B018
    assert not hasattr(threefold, "no_such_name")
    with pytest.raises(ImportError):
        exec("from threefold import no_such_name", {})


# -- records against frozen dataclasses ----------------------------------------

RECORD_NAMES = [
    name for name in PUBLIC_NAMES
    if isinstance(getattr(threefold, name), type) and "_record_fields" in vars(getattr(threefold, name))
]

_SMALL_Q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_POSITIVE_Q = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)
_FORMS = st.lists(st.tuples(_SMALL_Q, _SMALL_Q).map(threefold.LinearForm), max_size=2).map(tuple)
# simple field values, hashable and not, and the strings the checks accept
FIELD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    _SMALL_Q,
    st.sampled_from(["", "A", "B", "point", "curve", "eq", "ineq", "holds-by-theorem", "x y"]),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.just(()),
    st.lists(st.integers(-2, 2), max_size=2),
)
# values that pass the __post_init__ checks, by field name, drawn three
# times in four, so that the classes which check their fields are built too
VALID_VALUES = {
    "kind": st.sampled_from(["divisor", "curve", "point"]),
    "condition": st.sampled_from(["A", "B"]),
    "status": st.sampled_from(["holds-by-theorem", "unknown", "hypotheses-unverified"]),
    "mu": st.integers(1, 3),
    "genus": st.integers(0, 3),
    "label": st.sampled_from(["", "D12"]),
    "curve_class": st.tuples(st.integers(-2, 2), st.integers(1, 2)).map(threefold.CurveClass),
    "tau": _SMALL_Q,
    "gamma": _SMALL_Q,
    "lam": _POSITIVE_Q,
    "n": st.just(0),
    "incidence": st.just(()),
    "coeffs": st.tuples(_SMALL_Q, _SMALL_Q),
    "variables": st.just(("x", "y")),
    "equalities": _FORMS,
    "inequalities": _FORMS,
}


def _field_values(name):
    if name not in VALID_VALUES:
        return FIELD_VALUES
    return st.integers(0, 3).flatmap(lambda k: VALID_VALUES[name] if k else FIELD_VALUES)


def _twin(cls):
    """A frozen dataclass with the record's fields (plain defaults read from
    the class body, factories from the constructor) and its own
    __post_init__ and explicit __hash__."""
    parameters = inspect.signature(cls).parameters
    fields = []
    for name, annotation in cls.__annotations__.items():
        default = parameters[name].default
        if default is inspect.Parameter.empty:
            fields.append((name, annotation))
        elif isinstance(default, _record._Factory):
            fields.append((name, annotation, dataclasses.field(default_factory=default.make)))
        else:
            fields.append((name, annotation, dataclasses.field(default=vars(cls)[name])))
    own = {k: v for k, v in vars(cls).items() if v is not _record._SHARED.get(k)}
    namespace = {k: own[k] for k in ("__post_init__", "__hash__") if k in own}
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)


def _outcome(fn, *args, **kwargs):
    """("ok", result) or ("raised", exception type name, message); a
    frozen-instance error must be an AttributeError."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as e:  # any: the outcome is what is compared
        if type(e).__name__ == "FrozenInstanceError":
            assert isinstance(e, AttributeError)
        return ("raised", type(e).__name__, str(e))


def _same(record_outcome, twin_outcome):
    """The two outcomes agree; two built objects are compared by repr."""
    if record_outcome[0] == "ok" and twin_outcome[0] == "ok":
        return repr(record_outcome[1]) == repr(twin_outcome[1])
    return record_outcome == twin_outcome


def test_every_record_class_is_listed():
    assert len(RECORD_NAMES) == 24


@pytest.mark.parametrize("name", RECORD_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_record_behaves_like_a_frozen_dataclass(name, data):
    cls = getattr(threefold, name)
    twin = _twin(cls)
    names = list(cls.__annotations__)
    defaults = {n: p.default for n, p in inspect.signature(cls).parameters.items()}
    required = [n for n in names if defaults[n] is inspect.Parameter.empty]
    values = [data.draw(_field_values(n), label=n) for n in names]
    others = [data.draw(_field_values(n), label=f"other {n}") for n in names]

    # construction, positional and by keyword, with __post_init__
    built, twin_built = _outcome(cls, *values), _outcome(twin, *values)
    assert _same(built, twin_built)
    assert _same(_outcome(cls, **dict(zip(names, values))), twin_built)
    # defaults and factories: only the required fields given
    least = values[: len(required)]
    assert _same(_outcome(cls, *least), _outcome(twin, *least))
    # a missing, an unknown and a surplus argument
    if required:
        assert _outcome(cls, *least[:-1]) == _outcome(twin, *least[:-1])
    assert _outcome(cls, *values, no_such_field=1) == _outcome(twin, *values, no_such_field=1)
    assert _outcome(cls, *values, 1) == _outcome(twin, *values, 1)
    if built[0] != "ok":
        return
    r, t = built[1], twin_built[1]

    # equality, hash and replace
    assert (r == cls(*values), r != cls(*values)) == (t == twin(*values), t != twin(*values))
    assert r != t and t != r
    other, twin_other = _outcome(cls, *others), _outcome(twin, *others)
    assert _same(other, twin_other)
    if other[0] == "ok":
        assert (r == other[1]) == (t == twin_other[1])
    assert _outcome(hash, r) == _outcome(hash, t)
    changes = {names[-1]: others[-1]}
    assert _same(_outcome(_record.replace, r, **changes), _outcome(dataclasses.replace, t, **changes))

    # frozen: assigning or deleting a field, or any other name, fails alike
    for attr in (names[0], "no_such_field"):
        assert _outcome(setattr, r, attr, 1) == _outcome(setattr, t, attr, 1)
        assert _outcome(delattr, r, attr) == _outcome(delattr, t, attr)

    # every factory field gets a fresh value per instance
    for n in names:
        if isinstance(defaults[n], _record._Factory):
            assert getattr(cls(*least), n) is not getattr(cls(*least), n)


def test_an_explicit_hash_is_kept():
    # ThreefoldModel hashes without its tables, which are dicts
    model = threefold.make_base("p3")
    assert hash(model) == hash(_record.replace(model))
