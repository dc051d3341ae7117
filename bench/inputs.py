"""Seeded input generators for the three workloads.

Every input is made here, from `random.Random(seed)` and exact integer
arithmetic (the benchmark's own determinant and Sturm count, sympy's
characteristic polynomial).  No function of the package under test is used
to choose or filter an input, so every commit of the package sees exactly
the same inputs for a given seed.

An input is a JSON-ready dict; `kind` says which operation the worker runs
on it.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from oracles import charpoly

WORKLOADS = ("p3lines", "dyn-sample", "cli-cold")

# the LP-sized n (6-9) run four times a round, one block before each
# tower-sized n and one at the end, so that the time of each, the mean of
# its runs (run.op_times_ms), covers the whole round rather than one moment
# of it
P3LINES_BLOCK = (6, 7, 8, 9)
P3LINES_N = (P3LINES_BLOCK + (12,) + P3LINES_BLOCK + (16,)
             + P3LINES_BLOCK + (14,) + P3LINES_BLOCK)
DYN_SAMPLE_SIZE = 1000


# ---------------------------------------------------------------------------
# exact integer helpers
# ---------------------------------------------------------------------------


def det_int(matrix) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def _poly_rem(p, q):
    p = list(p)
    while len(p) >= len(q) and any(p):
        f = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, c in enumerate(q):
            p[shift + i] -= f * c
        p.pop()
    while p and p[-1] == 0:
        p.pop()
    return p


def _sign_at(p, x) -> int:
    v = sum(c * x**i for i, c in enumerate(p))
    return (v > 0) - (v < 0)


def real_roots_in(p, lo, hi) -> int:
    """Distinct real roots of the integer polynomial p in (lo, hi], by a
    Sturm chain of its squarefree part."""
    p = [Fraction(c) for c in p]
    dp = [i * c for i, c in enumerate(p)][1:]
    g, h = p, dp
    while h:
        g, h = h, _poly_rem(g, h)
    sf = p
    if len(g) > 1:
        # exact division p / gcd(p, p')
        quot = [Fraction(0)] * (len(p) - len(g) + 1)
        rem = list(p)
        for k in range(len(quot) - 1, -1, -1):
            quot[k] = rem[k + len(g) - 1] / g[-1]
            for i, c in enumerate(g):
                rem[k + i] -= quot[k] * c
        sf = quot
    chain = [sf, [i * c for i, c in enumerate(sf)][1:]]
    while chain[-1] and len(chain[-1]) > 1:
        r = _poly_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def variations(x):
        signs = [s for s in (_sign_at(q, x) for q in chain if q) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(Fraction(lo)) - variations(Fraction(hi))


def cauchy_bound(p) -> Fraction:
    return 1 + max(abs(Fraction(c, p[-1])) for c in p[:-1])


# ---------------------------------------------------------------------------
# p3lines
# ---------------------------------------------------------------------------


def p3lines_inputs(rng: random.Random) -> list[dict]:
    """The fixed n list; the seed does not enter (the work is a function of n).
    The repeats of one n form one operation (run.op_times_ms)."""
    return [{"kind": "p3lines", "n": n, "group": f"n={n}"} for n in P3LINES_N]


# ---------------------------------------------------------------------------
# dyn-sample: the criterion-6 distribution
# ---------------------------------------------------------------------------


def sample_unimodular_with_real_eig(rng: random.Random):
    """Size 2-4, entries in [-3, 3], det +-1, a real eigenvalue above 1."""
    while True:
        n = rng.choice([2, 3, 4])
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if det_int(a) not in (1, -1):
            continue
        p = charpoly(a)
        if real_roots_in(p, 1, cauchy_bound(p)) > 0:
            return a


def dyn_sample_inputs(rng: random.Random) -> list[dict]:
    return [
        {"kind": "raw", "matrix": sample_unimodular_with_real_eig(rng)}
        for _ in range(DYN_SAMPLE_SIZE)
    ]


# ---------------------------------------------------------------------------
# cli-cold: generated tower and matrix files, one subcommand per operation
# ---------------------------------------------------------------------------

CLI_POINTS = 4
CLI_LINES = 3
MALFORMED_TOWER = "base p3\nblowup point\nblowup curve class = 1/0*l genus = 0\n"


def point_permutation(rng: random.Random, k: int):
    """Action on (h, E_1..E_k) of P3 blown up at k points that fixes h and
    permutes the exceptional divisors (never the identity)."""
    perm = list(range(k))
    while perm == sorted(perm):
        rng.shuffle(perm)
    a = [[1 if i == j == 0 else 0 for j in range(k + 1)] for i in range(k + 1)]
    for src, dst in enumerate(perm):
        a[1 + dst][1 + src] = 1
    return a


def tower_text(points: int, lines) -> str:
    rows = ["base p3"] + ["blowup point"] * points
    rows += [f"blowup curve class = l - L{i} - L{j} genus = 0" for i, j in lines]
    return "\n".join(rows) + "\n"


def matrix_text(matrix) -> str:
    return "".join(" ".join(str(v) for v in row) + "\n" for row in matrix)


def cli_cold_inputs(rng: random.Random) -> list[dict]:
    """One cycle through every subcommand on seeded files.

    Every operation carries the same `files` dict (file name to text);
    make_inputs collects it once and the worker writes the files, which
    `args` name.
    """
    pairs = list(itertools.combinations(range(1, CLI_POINTS + 1), 2))
    lines = sorted(rng.sample(pairs, CLI_LINES))
    points_tower = tower_text(CLI_POINTS, [])
    lines_tower = tower_text(CLI_POINTS, lines)
    # raw dynamics: a dyn-sample matrix; model dynamics: permute the points
    raw = sample_unimodular_with_real_eig(rng)
    action = point_permutation(rng, CLI_POINTS)
    files = {
        "points.tower": points_tower,
        "lines.tower": lines_tower,
        "malformed.tower": MALFORMED_TOWER,
        "raw.mat": matrix_text(raw),
        "perm.mat": matrix_text(action),
    }
    ci_n = rng.choice([5, 6])
    ci_degrees = [rng.randint(2, 3) for _ in range(ci_n - 3)]
    chi0, rho0 = 4, 1
    blowups = rng.randint(10, 60)
    genus_sum = rng.randint(0, 3)
    target = (chi0 + 2 * blowups - 2 * genus_sum, rho0 + blowups)
    ops = [
        ["ring", "show", "lines.tower", "--format", "records"],
        ["check", "--condition", "A", "points.tower", "--format", "records"],
        ["check", "--condition", "B", "lines.tower", "--format", "records"],
        ["picard1", "lines.tower", "--format", "records"],
        ["p3lines", "--n", "8", "--format", "records"],
        ["dynamics", "--matrix", "raw.mat", "--format", "records"],
        ["dynamics", "--matrix", "perm.mat", "--model", "points.tower", "--format", "records"],
        ["case", "ueno", "--format", "records"],
        ["case", "ci", "--n", str(ci_n), "--degrees", ",".join(map(str, ci_degrees)),
         "--format", "records"],
        ["budget", "--base", f"{chi0},{rho0}", "--target", f"{target[0]},{target[1]}",
         "--format", "records"],
        ["ring", "show", "malformed.tower", "--format", "records"],
    ]
    return [{"kind": "cli", "args": args, "files": files} for args in ops]


GENERATORS = {
    "p3lines": p3lines_inputs,
    "dyn-sample": dyn_sample_inputs,
    "cli-cold": cli_cold_inputs,
}


def make_inputs(workload: str, seed: int) -> dict:
    """{"ops": [...], "files": {name: text}} for one round of the workload."""
    ops = GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    files = {}
    for op in ops:
        files.update(op.pop("files", {}))
    return {"ops": ops, "files": files}
