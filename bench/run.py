"""Benchmark of the threefold engine: one workload, end to end or traced.

    python3 bench/run.py --workload p3lines|dyn-sample|cli-cold \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from `src/` next to this directory.
The inputs are generated from the seed (inputs.py), in a working directory
under bench/out/ that the run removes; the result is also written to
bench/out/<workload>-seed<N>-trace<0|1>.json.  Each round is one fresh
worker process (worker.py) that sets up and runs the workload's fixed list
of operations once, one at a time; rounds repeat while that brings the
run nearer to S seconds (at least one round), so a run always attempts
whole rounds.  Set-up-only workers, two before each round and more at the
end up to SETUP_SAMPLES, sample the set-up time across the run.  Every
distinct output is checked by oracles.py.  The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 rounds
alternate untraced and traced, at least TRACE_PAIRS pairs, and the metrics
are the per-layer ones from spans.py plus the tracing overhead (the median
over pairs of traced minus untraced wall time).  Metric names and units come
from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import inputs
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 7
SETUP_PROBES_PER_ROUND = 2
TRACE_PAIRS = 3  # untraced-traced round pairs a traced run takes at least
RUN_LIMIT_S = 165  # stop starting rounds well before the 180 s a run may take

# metric names and units: BENCHMARK.json is their one source
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def op_times_ms(ops, results) -> list[float]:
    """One time per operation of the workload, in ms: the mean of its runs
    over the rounds.  Entries of the list that share a "group" (the
    repeats of one p3lines n) are one operation; any other entry is its
    own, also where the seed drew the same matrix twice, since the second
    run finds the caches warm.  The op_* percentiles are taken over these
    times, so that an operation run many times enters as one time that
    averages over the run, not as a cluster of equal-cost samples whose
    median jumps between the speeds of the shared host."""
    runs = {}
    for res in results:
        for i, (op, rec) in enumerate(zip(ops, res["ops"])):
            runs.setdefault(op.get("group", i), []).append(rec["seconds"] * 1000)
    return [sum(times) / len(times) for times in runs.values()]


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.workdir = os.path.join(HERE, "out", f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.inputs_path = os.path.join(self.workdir, "inputs.json")
        with open(self.inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs.make_inputs(workload, seed), fh)
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env["PYTHONHASHSEED"] = "0"
        self.start = time.monotonic()

    def worker(self, mode: str, trace: bool = False) -> dict:
        """One worker process; returns its result, or {"crashed": reason}."""
        out = os.path.join(self.workdir, "result.json")
        req = os.path.join(self.workdir, "request.json")
        with open(req, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload, "mode": mode, "trace": trace,
                       "inputs": self.inputs_path, "workdir": self.workdir,
                       "root": ROOT, "out": out}, fh)
        if os.path.exists(out):
            os.remove(out)
        budget = max(10.0, RUN_LIMIT_S + 10 - (time.monotonic() - self.start))
        with open(os.path.join(self.workdir, "stderr.txt"), "w") as err:
            t0 = time.monotonic()
            # own process group, so that a timeout also ends a CLI child
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"), req, repr(t0)],
                env=self.env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
            )
            try:
                code = proc.wait(timeout=budget)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # also when the run itself is stopped (SIGTERM, Ctrl-C) mid-round
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
            if code is None:
                return {"crashed": f"timed out after {budget:.0f} s"}
        if code != 0 or not os.path.exists(out):
            with open(os.path.join(self.workdir, "stderr.txt")) as fh:
                return {"crashed": f"exit {code}: {fh.read()[-2000:]}"}
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    r = Run(workload, seed)
    try:
        with open(r.inputs_path, encoding="utf-8") as fh:
            data = json.load(fh)
        ops, files = data["ops"], data["files"]
        # one discarded start, so every measured one finds the byte-code cache
        first = r.worker("setup")
        if "crashed" in first:
            raise SystemExit(f"worker failed to start: {first['crashed']}")
        r.start = time.monotonic()
        rounds = []  # (traced, result)
        setups = []
        while True:
            round_start = r.elapsed()
            if not trace:
                # set-up probes spread over the run, not bunched at one end
                for _ in range(SETUP_PROBES_PER_ROUND):
                    probe = r.worker("setup")
                    if "setup_s" in probe:
                        setups.append(probe["setup_s"])
            traced = trace and len(rounds) % 2 == 1
            rounds.append((traced, r.worker("round", traced)))
            # stop where the run ends nearest to `seconds`: another round
            # (with its probes) takes about as long as this one did
            enough = r.elapsed() + (r.elapsed() - round_start) / 2 >= seconds
            if trace:
                enough = enough and len(rounds) >= 2 * TRACE_PAIRS and len(rounds) % 2 == 0
            longest = max(res.get("wall_s", 0) + res.get("setup_s", 0) for _, res in rounds)
            if enough or r.elapsed() + longest > RUN_LIMIT_S:
                break
        for traced, res in rounds:
            print(f"round: traced={int(traced)} wall_s={res.get('wall_s')} cpu_s={res.get('cpu_s')} "
                  f"setup_s={res.get('setup_s')}", file=sys.stderr)
        setups += [res["setup_s"] for _, res in rounds if "setup_s" in res]
        while not trace and len(setups) < SETUP_SAMPLES and r.elapsed() < RUN_LIMIT_S:
            probe = r.worker("setup")
            if "setup_s" in probe:
                setups.append(probe["setup_s"])
        return summarize(ops, files, rounds, setups, trace)
    finally:
        r.close()


def pair_overheads(rounds) -> list[float]:
    """Traced minus untraced wall_s of each (untraced, traced) pair of
    adjacent rounds; a round that crashed, or has no partner, is left out."""
    return [
        b["wall_s"] - a["wall_s"]
        for (a_traced, a), (b_traced, b) in zip(rounds[0::2], rounds[1::2])
        if not a_traced and b_traced and "wall_s" in a and "wall_s" in b
    ]


def summarize(ops, files, rounds, setups, trace) -> dict:
    oracle = oracles.RadiusOracle()
    checked = {}
    problems = []
    attempted = failed = 0
    for _, res in rounds:
        attempted += len(ops)
        if "crashed" in res:
            failed += len(ops)
            problems.append(f"round crashed: {res['crashed']}")
            continue
        for op, rec in zip(ops, res["ops"]):
            out = rec["out"]
            if rec["error"] is not None or (op["kind"] == "cli" and oracles.cli_failed(op, out)):
                failed += 1
                continue
            key = json.dumps([op, out], sort_keys=True)
            if key not in checked:
                if op["kind"] == "p3lines":
                    checked[key] = oracles.check_p3lines(op, out)
                elif op["kind"] == "cli":
                    checked[key] = oracles.check_cli(op, out, files, oracle)
                else:
                    checked[key] = oracle.check_dynamics(op, out)
                problems += checked[key]
    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)

    if trace:
        traced = [res for t, res in rounds if t and "wall_s" in res]
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                values = pair_overheads(rounds)
            else:
                values = [res["layers"][name] for res in traced]
            metrics[name] = {"value": median(values) if values else 0.0, "unit": unit}
    else:
        plain = [res for t, res in rounds if not t and "wall_s" in res]
        op_ms = op_times_ms(ops, plain)
        values = {
            "wall_s": median([res["wall_s"] for res in plain]),
            "op_p50_ms": median(op_ms),
            "op_p99_ms": percentile(op_ms, 99),
            "peak_rss_mb": median([res["peak_rss_kb"] for res in plain]) / 1024,
            "setup_s": median(setups),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # a stopped run ends its worker and removes its files on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "threefold", "__init__.py")):
        print(f"error: no package at {os.path.join(ROOT, 'src', 'threefold')}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    # the result is also kept, one file per workload, seed and mode
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(HERE, "out", name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
