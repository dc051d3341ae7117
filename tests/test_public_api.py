"""The package's public names: one table, each name imported on first use."""

import sys

import pytest

import threefold

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
