"""Tests of the benchmark's own arithmetic, on tiny inputs.

    python3 -m pytest bench/test_bench.py -q

They live outside the package's `tests/` collection and import nothing from
the package under test.
"""

import json
import os
import random
import sys
from fractions import Fraction

import mpmath
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from run import median, percentile  # noqa: E402
from spans import LAYER, TARGETS, Tracer  # noqa: E402


def test_percentiles_interpolate_between_ranks():
    values = [5, 1, 4, 2, 3]
    assert median(values) == 3
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 5
    assert percentile(values, 25) == 2
    assert percentile([1, 2], 50) == 1.5
    # 1000 samples: p99 sits between the 990th and 991st smallest
    assert percentile(range(1000), 99) == pytest.approx(989.01)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_op_times_average_each_operation_over_its_runs():
    ops = [{"n": 6, "group": "n=6"}, {"n": 8, "group": "n=8"}, {"n": 6, "group": "n=6"}]
    results = [{"ops": [{"seconds": 0.010}, {"seconds": 0.100}, {"seconds": 0.030}]},
               {"ops": [{"seconds": 0.020}, {"seconds": 0.300}, {"seconds": 0.040}]}]
    # n = 6: four runs over two rounds; n = 8: two runs
    assert run.op_times_ms(ops, results) == pytest.approx([25.0, 200.0])
    # without a group, equal entries (a matrix drawn twice) stay apart
    plain = [{"matrix": [[2]]}, {"matrix": [[3]]}, {"matrix": [[2]]}]
    assert run.op_times_ms(plain, results) == pytest.approx([15.0, 200.0, 35.0])


def test_overhead_pairs_adjacent_rounds():
    rounds = [(False, {"wall_s": 10.0}), (True, {"wall_s": 10.5}),
              (False, {"wall_s": 12.0}), (True, {"wall_s": 12.25}),
              (False, {"crashed": "exit 1"}), (True, {"wall_s": 9.0}),
              (False, {"wall_s": 11.0})]
    assert run.pair_overheads(rounds) == [0.5, 0.25]


def test_metric_names_agree_with_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert set(run.PER_LAYER) == set(LAYER) | {"trace.overhead_s"}
    for kind, key in LAYER.values():
        assert kind in ("self", "calls", "value", "retries")
        if kind in ("self", "calls"):
            assert key in TARGETS
    assert set(Tracer().metrics()) == set(LAYER)
    assert set(run.END_TO_END) == {"wall_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb", "setup_s"}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    t = Tracer(clock)
    outer = t.open()          # outer: 0 .. 10
    clock.now = 1.0
    child = t.open()          # child: 1 .. 4
    clock.now = 2.0
    grandchild = t.open()     # grandchild: 2 .. 3
    clock.now = 3.0
    t.close("c", grandchild)
    clock.now = 4.0
    t.close("b", child)
    clock.now = 6.0
    sibling = t.open()        # second child: 6 .. 9
    clock.now = 9.0
    t.close("b", sibling)
    clock.now = 10.0
    t.close("a", outer)
    assert t.self_s["c"] == pytest.approx(1.0)
    assert t.self_s["b"] == pytest.approx(3.0 - 1.0 + 3.0)
    assert t.self_s["a"] == pytest.approx(10.0 - 3.0 - 3.0)
    assert sum(t.self_s.values()) == pytest.approx(10.0)
    assert t.stack == []


def test_merge_adds_times_and_keeps_maxima():
    a, b = Tracer(), Tracer()
    a.self_s["polynomials.radius"] = 1.0
    a.calls["certified_spectral_radius"] = 2
    a.maximum("polynomials.charpoly_max_dim", 4)
    b.self_s["polynomials.radius"] = 0.5
    b.calls["certified_spectral_radius"] = 1
    b.maximum("polynomials.charpoly_max_dim", 16)
    b.add("cli.import_s", 0.25)
    a.merge(b.raw())
    m = a.metrics()
    assert m["polynomials.radius_s"] == 1.5
    assert m["polynomials.radius_calls"] == 3
    assert m["polynomials.charpoly_max_dim"] == 16
    assert m["cli.import_s"] == 0.25
    assert m["towerfile.parse_calls"] == 0


def test_closed_form_rows_for_six_points():
    eqs, ineqs = oracles.p3lines_rows(6)
    assert eqs == [[21, -5, -5, -5, -5, -5, -5, 0], [1, 1, 1, 1, 1, 1, 1, -2]]
    assert len(ineqs) == 8 + 1  # sign rows and the single 6-subset
    assert ineqs[-1] == [3, -1, -1, -1, -1, -1, -1, 0]
    assert len(oracles.p3lines_rows(9)[1]) == 11 + 84
    assert len(oracles.p3lines_rows(12)[1]) == 14


def _form(row):
    return [[str(c) for c in row], "0"]


def test_farkas_recomputation_accepts_and_rejects():
    # x0 = deg_u <= 0 from  -x0 + x1 = 0  and  x1 <= 0 written as -x1 >= 0
    eqs = [_form([-1, 1])]
    ineqs = [_form([0, -1])]
    good = [["eq", 0, "1"], ["ineq", 0, "1"]]
    coeffs, constant = oracles.farkas_residual(eqs, ineqs, good, "0")
    assert coeffs == [0, 0] and constant == 0
    wrong = [["eq", 0, "1"], ["ineq", 0, "2"]]
    coeffs, _ = oracles.farkas_residual(eqs, ineqs, wrong, "0")
    assert any(coeffs)
    negative = [["eq", 0, "-1"], ["ineq", 0, "-1"]]
    assert oracles.farkas_residual(eqs, ineqs, negative, "0") is None


def test_radius_oracle_is_exact_on_a_defective_matrix():
    # I + N with N the nilpotent shift: one Jordan block, radius exactly 1
    n = 5
    a = [[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)]
    cp = oracles.charpoly(a)
    assert cp == [-1, 5, -10, 10, -5, 1]
    (rho, real), (rho_inv, real_inv) = oracles.radii(cp)
    assert real and real_inv
    with mpmath.workdps(oracles.DIGITS):
        assert abs(rho - 1) < mpmath.mpf(10) ** -40
        assert abs(rho_inv - 1) < mpmath.mpf(10) ** -40
    assert oracles.check_radius("lambda1", (rho, real), [-1, 1], "1", "1", cp) == []
    problems = oracles.check_radius("lambda1", (rho, real), [-1, 1], "1", "2", cp)
    assert any("wider" in p for p in problems)


def test_radius_oracle_golden_ratio():
    a = [[2, 1], [1, 1]]
    cp = oracles.charpoly(a)
    (rho, _), (rho_inv, _) = oracles.radii(cp)
    with mpmath.workdps(oracles.DIGITS):
        golden_sq = (3 + mpmath.sqrt(5)) / 2
        assert abs(rho - golden_sq) < mpmath.mpf(10) ** -40
        assert abs(rho_inv - golden_sq) < mpmath.mpf(10) ** -40
    lo = Fraction(26180339887, 10**10)
    hi = lo + Fraction(1, 10**10)
    assert oracles.check_radius("lambda1", (rho, True), [1, -3, 1], lo, hi, cp) == []
    assert oracles.check_radius("lambda1", (rho, True), [1, -4, 1], lo, hi, cp) != []


def test_integer_helpers():
    assert inputs.det_int([[2, 1], [1, 1]]) == 1
    assert inputs.det_int([[0, 1], [1, 0]]) == -1
    # (x - 1)^2 (x - 3): one distinct root in (1, 4], none in (3, 4]
    assert inputs.real_roots_in([-3, 7, -5, 1], 1, 4) == 1
    assert inputs.real_roots_in([-3, 7, -5, 1], 0, 4) == 2
    assert inputs.real_roots_in([-3, 7, -5, 1], 3, 4) == 0


def test_inputs_repeat_for_a_seed():
    assert inputs.make_inputs("cli-cold", 7) == inputs.make_inputs("cli-cold", 7)
    rng = random.Random(1)
    for _ in range(20):
        a = inputs.sample_unimodular_with_real_eig(rng)
        assert inputs.det_int(a) in (1, -1)
