"""Spans around the package's public functions, recorded from outside.

`Tracer.install()` replaces each traced function wherever the package's
modules look it up (module globals that hold it, and the class for a
method) by a wrapper that opens a span, calls the original and closes the
span.  Spans nest on a stack; a closing span adds its duration to its
parent's child time, so each group's self time is its spans' time minus
the time their child spans cover.  Aggregates stay in memory; `raw()` and
`merge()` move them between processes (the traced CLI runs one process per
operation), `metrics()` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "threefold"

# group -> (module, attribute) pairs; "Class.method" names a method
TARGETS = {
    "blowup_calculus.blowup": [("blowup_calculus", "blow_up_point"), ("blowup_calculus", "blow_up_curve")],
    "blowup_calculus.evaluate": [("blowup_calculus", "BlowupTower.evaluate")],
    "intersection_ring.pair": [("intersection_ring", "pair")],
    "intersection_ring.multiply": [("intersection_ring", "multiply_divisors"), ("intersection_ring", "triple")],
    "intersection_ring.validate": [("intersection_ring", "validate_model"),
                                   ("intersection_ring", "pairing_determinant")],
    "nef_conditions.assemble": [("nef_conditions", "check_p3_points_lines")],
    "nef_conditions.check": [("nef_conditions", "check_tower"), ("nef_conditions", "check_picard1"),
                             ("nef_conditions", "check_c2_positive_tower")],
    "linprog.simplex": [("linprog", "rational_feasible")],
    "linprog.certificate": [("linprog", "render_certificate"), ("linprog", "replay_certificate")],
    "polynomials.charpoly": [("polynomials", "berkowitz_charpoly")],
    "polynomials.squarefree": [("polynomials", "poly_squarefree"), ("polynomials", "poly_gcd"),
                               ("polynomials", "poly_divmod")],
    "polynomials.isolate": [("polynomials", "isolate_real_roots"), ("polynomials", "refine_root_interval"),
                            ("polynomials", "count_real_roots")],
    "polynomials.disk_count": [("polynomials", "disk_root_count_robust"), ("polynomials", "disk_root_count")],
    "polynomials.minpoly": [("polynomials", "minimal_polynomial_of_root")],
    "polynomials.tensor_square": [("polynomials", "kronecker_square")],
    "polynomials.radius": [("polynomials", "certified_spectral_radius")],
    "lattice_dynamics.validate": [("lattice_dynamics", "validate_action"), ("lattice_dynamics", "curve_matrix")],
    "lattice_dynamics.compare": [("lattice_dynamics", "algebraic_compare"),
                                 ("lattice_dynamics", "algebraic_square")],
    "lattice_dynamics.eigenclass": [("lattice_dynamics", "eigenclass_constraints")],
    "towerfile.parse": [("towerfile", "parse_tower")],
    "towerfile.serialize": [("towerfile", "serialize_model"), ("towerfile", "render_class")],
    "cli.main": [("cli", "main")],
}

# per-layer metric -> how Tracer.metrics() reads it:
#   ("self", group)   self seconds of the group's spans
#   ("calls", group)  calls of the group's functions
#   ("value", name)   a value an observer or the worker records
#   ("retries", None) inner minus outer disk-count calls
# Units live in BENCHMARK.json; trace.overhead_s is run.py's (traced minus
# untraced rounds), not the tracer's.
LAYER = {
    "blowup_calculus.blowup_s": ("self", "blowup_calculus.blowup"),
    "blowup_calculus.blowup_calls": ("calls", "blowup_calculus.blowup"),
    "blowup_calculus.rho_max": ("value", "blowup_calculus.rho_max"),
    "blowup_calculus.evaluate_calls": ("calls", "blowup_calculus.evaluate"),
    "intersection_ring.pair_s": ("self", "intersection_ring.pair"),
    "intersection_ring.pair_calls": ("calls", "intersection_ring.pair"),
    "intersection_ring.multiply_s": ("self", "intersection_ring.multiply"),
    "intersection_ring.multiply_calls": ("calls", "intersection_ring.multiply"),
    "intersection_ring.validate_s": ("self", "intersection_ring.validate"),
    "nef_conditions.assemble_s": ("self", "nef_conditions.assemble"),
    "nef_conditions.check_s": ("self", "nef_conditions.check"),
    "linprog.simplex_s": ("self", "linprog.simplex"),
    "linprog.simplex_calls": ("calls", "linprog.simplex"),
    "linprog.rows": ("value", "linprog.rows"),
    "linprog.certificate_s": ("self", "linprog.certificate"),
    "polynomials.charpoly_s": ("self", "polynomials.charpoly"),
    "polynomials.charpoly_calls": ("calls", "polynomials.charpoly"),
    "polynomials.charpoly_max_dim": ("value", "polynomials.charpoly_max_dim"),
    "polynomials.squarefree_s": ("self", "polynomials.squarefree"),
    "polynomials.squarefree_calls": ("calls", "polynomials.squarefree"),
    "polynomials.isolate_s": ("self", "polynomials.isolate"),
    "polynomials.isolate_calls": ("calls", "polynomials.isolate"),
    "polynomials.disk_count_s": ("self", "polynomials.disk_count"),
    "polynomials.disk_count_calls": ("calls", "polynomials.disk_count"),
    "polynomials.disk_count_retries": ("retries", None),
    "polynomials.minpoly_s": ("self", "polynomials.minpoly"),
    "polynomials.minpoly_calls": ("calls", "polynomials.minpoly"),
    "polynomials.tensor_square_calls": ("calls", "polynomials.tensor_square"),
    "polynomials.radius_s": ("self", "polynomials.radius"),
    "polynomials.radius_calls": ("calls", "polynomials.radius"),
    "lattice_dynamics.validate_s": ("self", "lattice_dynamics.validate"),
    "lattice_dynamics.compare_s": ("self", "lattice_dynamics.compare"),
    "lattice_dynamics.compare_calls": ("calls", "lattice_dynamics.compare"),
    "lattice_dynamics.eigenclass_s": ("self", "lattice_dynamics.eigenclass"),
    "towerfile.parse_s": ("self", "towerfile.parse"),
    "towerfile.parse_calls": ("calls", "towerfile.parse"),
    "towerfile.serialize_s": ("self", "towerfile.serialize"),
    "cli.import_s": ("value", "cli.import_s"),
    "cli.main_s": ("self", "cli.main"),
}


def _observe_rho(tracer, args, result):
    tracer.maximum("blowup_calculus.rho_max", getattr(result, "picard", 0))


def _observe_rows(tracer, args, result):
    system = args[0]
    tracer.add("linprog.rows", len(system.equalities) + len(system.inequalities))


def _observe_dim(tracer, args, result):
    tracer.maximum("polynomials.charpoly_max_dim", len(args[0]))


MAXIMA = {"blowup_calculus.rho_max", "polynomials.charpoly_max_dim"}  # merged by max, not sum

OBSERVERS = {
    "blow_up_point": _observe_rho,
    "blow_up_curve": _observe_rho,
    "rational_feasible": _observe_rows,
    "berkowitz_charpoly": _observe_dim,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[float] = []  # child time of each open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)  # per traced function
        self.values: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self) -> float:
        self.stack.append(0.0)
        return self.clock()

    def close(self, group: str, start: float) -> None:
        duration = self.clock() - start
        self.self_s[group] += duration - self.stack.pop()
        if self.stack:
            self.stack[-1] += duration

    def add(self, name: str, value: float) -> None:
        self.values[name] += value

    def maximum(self, name: str, value: float) -> None:
        self.values[name] = max(self.values[name], value)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, group: str, attr: str):
        tracer = self
        observe = OBSERVERS.get(attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = tracer.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(group, start)
                tracer.calls[attr] += 1
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; a target the package no longer has
        reads as zero."""
        for group, targets in TARGETS.items():
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(f"{PACKAGE}.{module_name}")
                except ImportError:
                    continue
                owner, _, name = attr.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                original = getattr(holder, name, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, group, attr)
                if owner:
                    self._patch(holder, name, wrapper)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, holder, name, wrapper) -> None:
        self._patches.append((holder, name, getattr(holder, name)))
        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    # -- aggregates -----------------------------------------------------------

    def raw(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "values": dict(self.values)}

    def merge(self, raw: dict) -> None:
        for k, v in raw["self_s"].items():
            self.self_s[k] += v
        for k, v in raw["calls"].items():
            self.calls[k] += v
        for k, v in raw["values"].items():
            if k in MAXIMA:
                self.maximum(k, v)
            else:
                self.add(k, v)

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, (kind, key) in LAYER.items():
            if kind == "self":
                out[name] = self.self_s.get(key, 0.0)
            elif kind == "calls":
                out[name] = sum(self.calls.get(attr, 0) for _, attr in TARGETS[key])
            elif kind == "value":
                out[name] = self.values.get(key, 0)
            else:  # boundary-root retries: inner calls beyond one per outer call
                out[name] = self.calls.get("disk_root_count", 0) - self.calls.get("disk_root_count_robust", 0)
        return out
