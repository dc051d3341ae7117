"""Exact intersection calculus on iterated blowups of projective threefolds.

The package provides:

- intersection_ring: exact divisor/curve lattices, products, pairings, and
  the stock base models (P3, P2xP1, P1^3, complete intersections, custom).
- blowup_calculus: point and curve blowup transforms with Chern, Euler and
  Picard propagation, plus pullback/pushforward maps and blowup towers.
- ruled_surface: intersection numbers on exceptional ruled surfaces.
- linprog: an exact rational LP engine with Farkas certificates.
- nef_conditions: Condition A/B checkers for blowup towers and the
  points-and-lines feasibility argument on P3 (an LP solved by linprog).
- polynomials: dense integer-polynomial arithmetic (gcd, squarefree parts),
  the base of the four layers behind the certified radii:
- charpoly: characteristic polynomials of integer matrices.
- realroots: Sturm root isolation and refinement, and disk counts.
- factor: factorisation over Z and minimal polynomials of roots.
- radius: certified spectral radii as exact algebraic numbers.
- bareiss: the one fraction-free exact determinant and linear solve, on ints.
- lattice_dynamics: validation of lattice automorphism actions and certified
  dynamical degrees / entropy.
- case_studies: quotient-threefold Euler/Picard bookkeeping, the complete-
  intersection c2 positivity computation, and the Euler budget for towers.
- towerfile: the line-oriented tower file format, its parser and writer.
- cli: the `threefold` command line tool.

Every public name below is imported from its module on first access
(`from threefold import X` or `threefold.X`), so `import threefold` loads
no module of the package by itself.
"""

import importlib

# defining module -> the public names it exports
_EXPORTS = {
    "intersection_ring": (
        "BasisElement", "CurveClass", "DivisorClass", "ThreefoldModel", "ValidationError",
        "make_base", "make_custom_base", "multiply_divisors", "pair", "pairing_determinant",
        "triple", "validate_model",
    ),
    "blowup_calculus": (
        "BlowupStep", "BlowupTower", "CurveCenterSpec", "SurfaceData", "blow_up_curve",
        "blow_up_point", "curve_step", "gamma", "line_strict_transform", "point_step",
        "pullback_curve", "pullback_divisor", "pushforward_curve", "pushforward_divisor",
    ),
    "ruled_surface": (
        "EffectiveCurveReport", "RuledSurfaceData", "SectionNumbers", "effective_curve_check",
        "section_and_ff",
    ),
    "linprog": (
        "ConstraintSystem", "FeasibleResult", "LinearForm", "rational_feasible",
        "render_certificate", "replay_certificate",
    ),
    "nef_conditions": (
        "ConditionVerdict", "GeneralizedConfig", "P3LinesReport", "Picard1Report", "TraceEntry",
        "check_c2_positive_tower", "check_generalized", "check_p3_points_lines", "check_picard1",
        "check_tower", "propagate_condition",
    ),
    "lattice_dynamics": (
        "AutomorphismAction", "DegreeReport", "EigenclassReport", "dynamical_degrees",
        "eigenclass_constraints", "rationality_obstruction", "validate_action",
    ),
    "case_studies": (
        "CiChernReport", "EulerBudget", "UenoReport", "ci_c2", "euler_budget", "g_quadratic",
        "torus_fixed_points", "ueno_report",
    ),
    "towerfile": (
        "TowerDocument", "TowerParseError", "models_equivalent", "parse_tower", "serialize_model",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import a public name's module on first access and keep the name here,
    so later lookups never come back to this function."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
