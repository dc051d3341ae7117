"""One workload process: set up, then run one round of operations.

Started by run.py as

    python3 bench/worker.py <request.json> <t0>

with t0 the monotonic clock reading taken just before the spawn, so that
`setup_s` covers interpreter start, `import threefold.cli`, loading the
pre-generated inputs and one warm-up call unrelated to the inputs; for
cli-cold, where every operation starts cold, it ends when
`import threefold.cli` is done.  The
process limits its own address space first; an operation that runs out of
memory is recorded as failed and the round goes on.  Results (per-operation
times and outputs, and per-layer numbers when traced) go to the file named
in the request.  A closed loop: one operation at a time, no threads.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

ADDRESS_SPACE_LIMIT = 2 << 30
HERE = os.path.dirname(os.path.abspath(__file__))


def _alg(a) -> list:
    return [list(a.minpoly), str(a.lo), str(a.hi)]


def run_p3lines(op, ctx):
    from threefold import check_p3_points_lines

    r = check_p3_points_lines(op["n"])

    def form(f):
        return [[str(c) for c in f.coeffs], str(f.constant)]

    return {
        "verdict": r.verdict,
        "maximum": None if r.maximum is None else str(r.maximum),
        "variables": list(r.system.variables),
        "equalities": [form(f) for f in r.system.equalities],
        "inequalities": [form(f) for f in r.system.inequalities],
        "certificate": [[e.kind, e.index, str(e.multiplier)] for e in r.result.certificate],
    }


def run_dynamics(op, ctx):
    from threefold import dynamical_degrees

    rep = dynamical_degrees(None, op["matrix"])
    return {"mode": rep.mode, "lambda1": _alg(rep.lambda1), "lambda2": _alg(rep.lambda2)}


def run_cli(op, ctx):
    """One fresh `python3 -m threefold.cli` process (or its traced twin)."""
    if ctx["tracer"] is not None:
        spans_file = os.path.join(ctx["workdir"], "cli-spans.json")
        cmd = [sys.executable, os.path.join(HERE, "clitrace.py"), spans_file]
    else:
        cmd = [sys.executable, "-m", "threefold.cli"]
    proc = subprocess.run(
        cmd + op["args"],
        cwd=ctx["workdir"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if ctx["tracer"] is not None:
        with open(spans_file, encoding="utf-8") as fh:
            ctx["tracer"].merge(json.load(fh))
        os.remove(spans_file)
    return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


RUNNERS = {"p3lines": run_p3lines, "raw": run_dynamics, "cli": run_cli}


def warm_up(workload: str):
    """One call per workload, on an input no generator makes."""
    if workload == "p3lines":
        from threefold import check_p3_points_lines

        check_p3_points_lines(3)
    elif workload == "dyn-sample":
        from threefold import dynamical_degrees

        # companion matrix of x^5 - x - 1: irreducible, degree 5, so no
        # dyn-sample input shares its polynomial caches
        dynamical_degrees(None, [[0, 0, 0, 0, 1], [1, 0, 0, 0, 1], [0, 1, 0, 0, 0],
                                 [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]])


def main(request_path: str, t0: float) -> int:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    workload = req["workload"]
    t_import = time.monotonic()
    import threefold.cli  # noqa: F401  (the import every CLI user pays)

    import_s = time.monotonic() - t_import
    if workload == "cli-cold":  # where every operation starts cold
        setup_s = time.monotonic() - t0
    src = os.path.join(req["root"], "src")
    if not os.path.abspath(threefold.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"threefold imported from {threefold.cli.__file__}, not {src}")
    with open(req["inputs"], encoding="utf-8") as fh:
        data = json.load(fh)
    ops, files = data["ops"], data["files"]
    for name, text in files.items():
        with open(os.path.join(req["workdir"], name), "w", encoding="utf-8") as fh:
            fh.write(text)
    if workload != "cli-cold":
        warm_up(workload)
        setup_s = time.monotonic() - t0
    result = {"setup_s": setup_s, "import_s": import_s, "ops": []}
    if req["mode"] == "setup":
        return _write(req["out"], result)

    tracer = None
    if req["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        if workload != "cli-cold":  # there, each CLI process reports its own
            tracer.add("cli.import_s", import_s)
    ctx = {"workdir": req["workdir"], "tracer": tracer}
    round_start, cpu_start = time.perf_counter(), time.process_time()
    for op in ops:
        t = time.perf_counter()
        try:
            out, error = RUNNERS[op["kind"]](op, ctx), None
        except MemoryError:
            out, error = None, "MemoryError"
        except Exception as e:  # recorded as a failed operation, round goes on
            out, error = None, f"{type(e).__name__}: {e}"
        result["ops"].append({"seconds": time.perf_counter() - t, "out": out, "error": error})
    result["wall_s"] = time.perf_counter() - round_start
    result["cpu_s"] = time.process_time() - cpu_start
    # the workload's processes: the CLI children for cli-cold, else this one
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
    return _write(req["out"], result)


def _write(path, result) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
