import collections
import functools
import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threefold import _record, linprog
from threefold.linprog import (
    CertificateEntry,
    ConstraintSystem,
    FeasibleResult,
    LinearForm,
    LinProgError,
    rational_feasible,
    render_certificate,
    replay_certificate,
)
from threefold.nef_conditions import check_p3_points_lines


# -- independent oracle: Fourier-Motzkin projection --------------------------


def fm_maximize(system: ConstraintSystem, objective: str):
    """Maximum of a variable by Fourier-Motzkin elimination.

    Equalities are used as substitutions; remaining variables are projected
    out pairwise.  Returns ("infeasible",), ("unbounded",) or ("optimal", max).
    Exponential, test-size systems only.
    """
    n = len(system.variables)
    obj = system.var_index(objective)
    # rows as (coeffs list, const) meaning coeffs.x + const >= 0
    rows = [(list(f.coeffs), f.constant) for f in system.inequalities]
    eqs = [(list(g.coeffs), g.constant) for g in system.equalities]

    # eliminate variables via equalities (prefer non-objective pivots)
    for vec, const in list(eqs):
        pivot = None
        for j in range(n):
            if j != obj and vec[j] != 0:
                pivot = j
                break
        if pivot is None:
            if vec[obj] != 0:
                # objective fixed: x_obj = -const / coeff; check the rest later
                rows.append(([-c for c in vec], -const))
                rows.append((vec[:], const))
                continue
            if const != 0:
                return ("infeasible",)
            continue
        # substitute into every other row: row -> row - (row[pivot]/vec[pivot]) * eq
        for target in (rows, eqs):
            for k, (rv, rc) in enumerate(target):
                if rv is vec or rv[pivot] == 0:
                    continue
                f = rv[pivot] / vec[pivot]
                target[k] = ([a - f * b for a, b in zip(rv, vec)], rc - f * const)
        vec[:] = [Q(0)] * n  # mark consumed

    order = [j for j in range(n) if j != obj]
    for j in order:
        pos = [(v, c) for v, c in rows if v[j] > 0]
        neg = [(v, c) for v, c in rows if v[j] < 0]
        keep = [(v, c) for v, c in rows if v[j] == 0]
        new = []
        for (vp, cp), (vn, cn) in itertools.product(pos, neg):
            lam = -vn[j] / vp[j]
            new.append(([a * lam + b for a, b in zip(vp, vn)], cp * lam + cn))
        rows = keep + new
        # dedupe to tame blowup
        seen = set()
        uniq = []
        for v, c in rows:
            key = (tuple(v), c)
            if key not in seen:
                seen.add(key)
                uniq.append((v, c))
        rows = uniq

    # rows now involve only the objective: a*x + c >= 0
    upper = None
    lower = None
    for v, c in rows:
        a = v[obj]
        if a == 0:
            if c < 0:
                return ("infeasible",)
            continue
        bound = -c / a
        if a > 0:
            lower = bound if lower is None else max(lower, bound)
        else:
            upper = bound if upper is None else min(upper, bound)
    if lower is not None and upper is not None and lower > upper:
        return ("infeasible",)
    if upper is None:
        return ("unbounded",)
    return ("optimal", upper)


def test_trivial_pair_max_zero():
    sys1 = ConstraintSystem(
        ("a",),
        inequalities=(LinearForm((Q(1),), label="a"), LinearForm((Q(-1),), label="-a")),
    )
    r = rational_feasible(sys1, "a")
    assert r.status == "optimal" and r.maximum == 0
    assert replay_certificate(sys1, "a", r)
    # deterministic Bland outcome: all weight on the -a >= 0 row
    assert [e.multiplier for e in r.certificate] == [Q(0), Q(1)]


def test_unbounded():
    s = ConstraintSystem(("a",), inequalities=(LinearForm((Q(1),)),))
    assert rational_feasible(s, "a").status == "unbounded"


def test_infeasible_distinct_from_zero_max():
    s = ConstraintSystem(
        ("a",), inequalities=(LinearForm((Q(1),)), LinearForm((Q(-1),), Q(-1)))
    )
    assert rational_feasible(s, "a").status == "infeasible"


def test_unknown_variable():
    s = ConstraintSystem(("a",))
    with pytest.raises(LinProgError):
        rational_feasible(s, "zz")


def test_misdimensioned_form():
    with pytest.raises(LinProgError):
        ConstraintSystem(("a", "b"), inequalities=(LinearForm((Q(1),)),))


def test_certificate_renders_exact_rationals():
    s = ConstraintSystem(
        ("a", "b"),
        equalities=(LinearForm((Q(3), Q(-2)), label="3a=2b"),),
        inequalities=(
            LinearForm((Q(0), Q(1)), label="b>=0"),
            LinearForm((Q(0), Q(-1)), Q(2), label="b<=2"),
            LinearForm((Q(1), Q(0)), label="a>=0"),
        ),
    )
    r = rational_feasible(s, "a")
    assert r.status == "optimal" and r.maximum == Q(4, 3)
    assert replay_certificate(s, "a", r)
    text = "\n".join(render_certificate(s, r))
    assert "2/3" in text  # the b<=2 row enters with weight 2/3


def _random_system(rng):
    n = rng.randint(1, 3)
    variables = tuple(f"x{i}" for i in range(n))
    n_eq = rng.randint(0, 1)
    n_iq = rng.randint(1, 4)

    def form():
        return LinearForm(
            tuple(Q(rng.randint(-3, 3)) for _ in range(n)), Q(rng.randint(-2, 2))
        )

    return ConstraintSystem(
        variables,
        equalities=tuple(form() for _ in range(n_eq)),
        inequalities=tuple(form() for _ in range(n_iq)),
    )


def test_simplex_agrees_with_fourier_motzkin_oracle():
    rng = random.Random(99)
    checked = 0
    for _ in range(400):
        system = _random_system(rng)
        objective = system.variables[rng.randrange(len(system.variables))]
        got = rational_feasible(system, objective)
        want = fm_maximize(system, objective)
        assert got.status == want[0], (system, objective, got.status, want)
        if got.status == "optimal":
            assert got.maximum == want[1], (system, objective)
            assert replay_certificate(system, objective, got)
            checked += 1
    assert checked > 80  # make sure the sweep hits plenty of optimal cases


def test_argmax_is_feasible_and_attains_maximum():
    rng = random.Random(3)
    for _ in range(200):
        system = _random_system(rng)
        objective = system.variables[0]
        r = rational_feasible(system, objective)
        if r.status != "optimal":
            continue
        point = r.argmax
        for g in system.equalities:
            assert g.evaluate(point) == 0
        for f in system.inequalities:
            assert f.evaluate(point) >= 0
        assert point[system.var_index(objective)] == r.maximum


# -- reference: the dense Fraction tableau ------------------------------------
#
# The simplex as it ran before rows became sparse integers, kept verbatim
# (apart from the pivot log) as the oracle of the differential tests below:
# the same pivot rules on the same tableau values must give the same bytes.


def _ref_simplex(tableau, basis, m, width, cols, pivots):
    degenerate_streak = 0
    bland = False
    while True:
        obj = tableau[m]
        pivot_col = -1
        if bland:
            for j in cols:
                if obj[j] < 0:
                    pivot_col = j
                    break
        else:
            best_cost = Q(0)
            for j in cols:
                v = obj[j]
                if v < best_cost:
                    best_cost = v
                    pivot_col = j
        if pivot_col < 0:
            return True
        pivot_row = -1
        best = None
        for i in range(m):
            a = tableau[i][pivot_col]
            if a > 0:
                ratio = tableau[i][width] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[pivot_row]
                ):
                    best = ratio
                    pivot_row = i
        if pivot_row < 0:
            return False
        if best == 0:
            degenerate_streak += 1
            if degenerate_streak > 200:
                bland = True
        else:
            degenerate_streak = 0
        _ref_pivot(tableau, basis, pivot_row, pivot_col, m, pivots)


def _ref_pivot(tableau, basis, pivot_row, pivot_col, m, pivots):
    pivots.append((pivot_row, pivot_col))
    row = tableau[pivot_row]
    inv = 1 / row[pivot_col]
    if inv != 1:
        tableau[pivot_row] = row = [v * inv for v in row]
    for i in range(m + 1):
        if i == pivot_row:
            continue
        f = tableau[i][pivot_col]
        if f == 0:
            continue
        tableau[i] = [v if not w else v - f * w for v, w in zip(tableau[i], row)]
    basis[pivot_row] = pivot_col


def _reference_feasible(system, objective, pivots=None):
    """rational_feasible on a dense Fraction tableau; appends every pivot
    (row, column) to pivots when given."""
    pivots = [] if pivots is None else pivots
    ZERO, ONE = Q(0), Q(1)
    n = len(system.variables)
    obj_idx = system.var_index(objective)
    ineqs = list(system.inequalities)
    eqs = list(system.equalities)

    bound_row_of_var = {}
    bound_coeff = {}
    for idx, f in enumerate(ineqs):
        if f.constant != 0:
            continue
        nz = [(j, c) for j, c in enumerate(f.coeffs) if c != 0]
        if len(nz) == 1 and nz[0][1] > 0 and nz[0][0] not in bound_row_of_var:
            bound_row_of_var[nz[0][0]] = idx
            bound_coeff[nz[0][0]] = nz[0][1]
    bound_rows = set(bound_row_of_var.values())
    row_ineqs = [i for i in range(len(ineqs)) if i not in bound_rows]

    pos_col = [0] * n
    neg_col = [None] * n
    col = 0
    for j in range(n):
        pos_col[j] = col
        col += 1
        if j not in bound_row_of_var:
            neg_col[j] = col
            col += 1
    nvar = col

    m = len(row_ineqs) + len(eqs)
    n_slack = len(row_ineqs)
    slack_of_row = {pos: nvar + pos for pos in range(n_slack)}

    tab_rows = []
    for pos, i in enumerate(row_ineqs):
        f = ineqs[i]
        r = [ZERO] * (nvar + n_slack)
        for j, c in enumerate(f.coeffs):
            if c == 0:
                continue
            r[pos_col[j]] = -c
            if neg_col[j] is not None:
                r[neg_col[j]] = c
        r[slack_of_row[pos]] = ONE
        b = f.constant
        flipped = b < 0
        if flipped:
            r = [-v for v in r]
            b = -b
        tab_rows.append((r, b, flipped))
    for g in eqs:
        r = [ZERO] * (nvar + n_slack)
        for j, c in enumerate(g.coeffs):
            if c == 0:
                continue
            r[pos_col[j]] = c
            if neg_col[j] is not None:
                r[neg_col[j]] = -c
        b = -g.constant
        flipped = b < 0
        if flipped:
            r = [-v for v in r]
            b = -b
        tab_rows.append((r, b, flipped))

    art_of_row = {}
    basis = [0] * m
    need_art = []
    for i, (r, b, _flipped) in enumerate(tab_rows):
        s = slack_of_row.get(i)
        if s is not None and r[s] == 1:
            basis[i] = s
        else:
            need_art.append(i)
    n_art = len(need_art)
    width = nvar + n_slack + n_art
    for k, i in enumerate(need_art):
        art_of_row[i] = nvar + n_slack + k
        basis[i] = nvar + n_slack + k

    tableau = []
    for i, (r, b, _flipped) in enumerate(tab_rows):
        row = r + [ZERO] * n_art + [b]
        if i in art_of_row:
            row[art_of_row[i]] = ONE
        tableau.append(row)

    all_cols = list(range(width))
    if n_art:
        obj = [ZERO] * (width + 1)
        for i in art_of_row:
            obj = [o - v for o, v in zip(obj, tableau[i])]
        for i, c in art_of_row.items():
            obj[c] = ZERO
        tableau.append(obj)
        _ref_simplex(tableau, basis, m, width, all_cols, pivots)
        if tableau[m][width] != 0:
            return FeasibleResult(status="infeasible")
        for i in range(m):
            if basis[i] >= nvar + n_slack:
                for j in range(nvar + n_slack):
                    if tableau[i][j] != 0:
                        _ref_pivot(tableau, basis, i, j, m, pivots)
                        break
        tableau.pop()

    cost = [ZERO] * (width + 1)
    cost[pos_col[obj_idx]] = -ONE
    if neg_col[obj_idx] is not None:
        cost[neg_col[obj_idx]] = ONE
    tableau.append(cost)
    for i in range(m):
        bj = basis[i]
        f = tableau[m][bj]
        if f != 0:
            tableau[m] = [v if not w else v - f * w for v, w in zip(tableau[m], tableau[i])]
    structural_cols = list(range(nvar + n_slack))
    if not _ref_simplex(tableau, basis, m, width, structural_cols, pivots):
        return FeasibleResult(status="unbounded")

    maximum = tableau[m][width]
    point = [ZERO] * n
    vals = [ZERO] * width
    for i in range(m):
        vals[basis[i]] = tableau[i][width]
    for j in range(n):
        point[j] = vals[pos_col[j]]
        if neg_col[j] is not None:
            point[j] -= vals[neg_col[j]]

    obj_row = tableau[m]
    cert_of_ineq = {}
    for pos, i in enumerate(row_ineqs):
        cert_of_ineq[i] = obj_row[slack_of_row[pos]]
    for j, i in bound_row_of_var.items():
        cert_of_ineq[i] = obj_row[pos_col[j]] / bound_coeff[j]
    cert = [
        CertificateEntry("ineq", i, ineqs[i].label, cert_of_ineq[i])
        for i in range(len(ineqs))
    ]
    for k, g in enumerate(eqs):
        i = len(row_ineqs) + k
        z = obj_row[art_of_row[i]]
        if not tab_rows[i][2]:
            z = -z
        cert.append(CertificateEntry("eq", k, g.label, z))
    return FeasibleResult(
        status="optimal", maximum=maximum, argmax=tuple(point), certificate=tuple(cert)
    )


def _fractional_system(rng):
    """1-8 variables, 0-3 equalities, 1-14 inequalities with coefficients
    x/q (q <= 7), plus sign rows c*x >= 0 (c > 0) that the presolve absorbs."""
    n = rng.randint(1, 8)
    variables = tuple(f"x{i}" for i in range(n))

    def q():
        return Q(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.6 else Q(0)

    def form(constant):
        return LinearForm(tuple(q() for _ in range(n)), constant)

    # mostly non-negative constants, so that the origin often satisfies the
    # inequalities and every status comes up
    ineqs = [form(abs(q()) if rng.random() < 0.8 else q()) for _ in range(rng.randint(1, 14))]
    for j in rng.sample(range(n), rng.randint(0, n)):
        coeffs = [Q(0)] * n
        coeffs[j] = Q(rng.randint(1, 5), rng.randint(1, 7))
        ineqs.insert(rng.randint(0, len(ineqs)), LinearForm(tuple(coeffs)))
    return ConstraintSystem(
        variables,
        equalities=tuple(form(q()) for _ in range(rng.randint(0, 3))),
        inequalities=tuple(ineqs),
    )


def _assert_same_as_reference(system, objective):
    got = rational_feasible(system, objective)
    assert repr(got) == repr(_reference_feasible(system, objective)), (system, objective)
    if got.status == "optimal":
        assert replay_certificate(system, objective, got)
    return got.status


@pytest.mark.parametrize("seed", [99, 3, 7, 11])
def test_sparse_integer_rows_match_dense_reference(seed):
    rng = random.Random(seed)
    for _ in range(600):
        system = _random_system(rng)
        _assert_same_as_reference(system, system.variables[rng.randrange(len(system.variables))])


def test_fractional_systems_match_dense_reference():
    rng = random.Random(2024)
    statuses = collections.Counter()
    for _ in range(600):
        system = _fractional_system(rng)
        objective = system.variables[rng.randrange(len(system.variables))]
        statuses[_assert_same_as_reference(system, objective)] += 1
    assert min(statuses[s] for s in ("optimal", "unbounded", "infeasible")) > 100


def _large_system(rng):
    """2-6 variables, 0-2 equalities, 2-8 inequalities whose numerators
    and denominators have 20-40 bits, so that eliminated rows outgrow a
    machine word after a few pivots."""
    n = rng.randint(2, 6)
    variables = tuple(f"x{i}" for i in range(n))

    def big():
        return rng.randrange(1 << 19, 1 << 40)

    def q():
        if rng.random() < 0.3:
            return Q(0)
        num = rng.choice((-1, 1)) * big()
        return Q(num) if rng.random() < 0.5 else Q(num, big())

    def form(constant):
        return LinearForm(tuple(q() for _ in range(n)), constant)

    ineqs = [form(abs(q()) if rng.random() < 0.8 else q()) for _ in range(rng.randint(2, 8))]
    for j in rng.sample(range(n), rng.randint(0, n)):
        coeffs = [Q(0)] * n
        coeffs[j] = Q(big(), big())
        ineqs.insert(rng.randint(0, len(ineqs)), LinearForm(tuple(coeffs)))
    return ConstraintSystem(
        variables,
        equalities=tuple(form(q()) for _ in range(rng.randint(0, 2))),
        inequalities=tuple(ineqs),
    )


def test_large_coefficient_systems_match_dense_reference(monkeypatch):
    # an eliminated row is reduced only once its denominator passes a word:
    # count the reductions made inside _eliminate, so that both branches run
    eliminate, reduce = linprog._eliminate, linprog._reduce
    inside = [False]
    reduced_eliminated = [0]

    def counting_eliminate(*args):
        inside[0] = True
        try:
            return eliminate(*args)
        finally:
            inside[0] = False

    def counting_reduce(rows, dens, i):
        if inside[0]:
            assert dens[i] > linprog._WORD
            reduced_eliminated[0] += 1
        return reduce(rows, dens, i)

    monkeypatch.setattr(linprog, "_eliminate", counting_eliminate)
    monkeypatch.setattr(linprog, "_reduce", counting_reduce)
    rng = random.Random(4040)
    statuses = collections.Counter()
    for _ in range(300):
        system = _large_system(rng)
        objective = system.variables[rng.randrange(len(system.variables))]
        statuses[_assert_same_as_reference(system, objective)] += 1
    assert statuses["optimal"] > 30, statuses
    assert reduced_eliminated[0] > 0


@functools.lru_cache(maxsize=None)
def _p3_system(n):
    return check_p3_points_lines(n).system


@pytest.mark.parametrize("n", range(1, 21))
def test_p3_points_lines_systems_match_dense_reference(n):
    assert _assert_same_as_reference(_p3_system(n), "deg_u") == "optimal"


def _pivot_paths(monkeypatch, system, objective):
    """The (row, column) pivots of rational_feasible and of the reference."""
    want = []
    _reference_feasible(system, objective, want)
    got = []
    pivot = linprog._pivot

    def recording(rows, dens, basis, pivot_row, pivot_col, m):
        got.append((pivot_row, pivot_col))
        return pivot(rows, dens, basis, pivot_row, pivot_col, m)

    monkeypatch.setattr(linprog, "_pivot", recording)
    rational_feasible(system, objective)
    monkeypatch.undo()
    return got, want


def test_pivot_path_matches_dense_reference(monkeypatch):
    got, want = _pivot_paths(monkeypatch, _p3_system(9), "deg_u")
    assert len(want) > 10 and got == want


def test_beale_cycling_example(monkeypatch):
    # Beale (1955): max 3/4 x4 - 20 x5 + 1/2 x6 - 6 x7 cycles under the
    # textbook Dantzig rule; here z is that objective through one equality,
    # and the run ends only because Bland's rule takes over
    z, x4, x5, x6, x7 = (tuple(Q(int(i == k)) for i in range(5)) for k in range(5))

    def form(*terms, constant=0):
        return LinearForm(tuple(sum(c * v[i] for c, v in terms) for i in range(5)), Q(constant))

    system = ConstraintSystem(
        ("z", "x4", "x5", "x6", "x7"),
        equalities=(form((Q(3, 4), x4), (-20, x5), (Q(1, 2), x6), (-6, x7), (-1, z)),),
        inequalities=(
            form((Q(-1, 4), x4), (8, x5), (1, x6), (-9, x7)),
            form((Q(-1, 2), x4), (12, x5), (Q(1, 2), x6), (-3, x7)),
            form((-1, x6), constant=1),
            form((1, x4)),
            form((1, x5)),
            form((1, x6)),
            form((1, x7)),
        ),
    )
    for solve in (rational_feasible, _reference_feasible):
        r = solve(system, "z")
        assert r.status == "optimal" and r.maximum == Q(5, 4)
        assert r.argmax == (Q(5, 4), Q(1), Q(0), Q(1), Q(0))
        assert [e.multiplier for e in r.certificate] == [
            Q(0), Q(3, 2), Q(5, 4), Q(0), Q(2), Q(0), Q(21, 2), Q(1)
        ]
        assert replay_certificate(system, "z", r)
    assert repr(rational_feasible(system, "z")) == repr(_reference_feasible(system, "z"))
    got, want = _pivot_paths(monkeypatch, system, "z")
    assert len(want) > 200 and got == want


def test_redundant_equality_pair_keeps_an_artificial_basic():
    # x + y = 2 and 2x + 2y = 4: phase 1 cannot pivot the second artificial
    # out, and its row stays inert
    system = ConstraintSystem(
        ("x", "y"),
        equalities=(
            LinearForm((Q(1), Q(1)), Q(-2), label="x+y=2"),
            LinearForm((Q(2), Q(2)), Q(-4), label="2x+2y=4"),
        ),
        inequalities=(LinearForm((Q(1), Q(0))), LinearForm((Q(0), Q(1)))),
    )
    r = rational_feasible(system, "x")
    assert r.status == "optimal" and r.maximum == 2 and r.argmax == (Q(2), Q(0))
    assert replay_certificate(system, "x", r)
    assert repr(r) == repr(_reference_feasible(system, "x"))


def test_replay_rejects_rows_the_system_does_not_have():
    result = check_p3_points_lines(9).result
    assert replay_certificate(_p3_system(9), "deg_u", result)
    assert not replay_certificate(_p3_system(6), "deg_u", result)
    negative = _record.replace(
        result,
        certificate=result.certificate[:-1]
        + (_record.replace(result.certificate[-1], index=-1),),
    )
    assert not replay_certificate(_p3_system(9), "deg_u", negative)


def test_replay_rejects_an_unknown_entry_kind():
    result = check_p3_points_lines(9).result
    bad = _record.replace(
        result,
        certificate=(_record.replace(result.certificate[0], kind="le"),)
        + result.certificate[1:],
    )
    assert not replay_certificate(_p3_system(9), "deg_u", bad)


def test_linear_form_converts_floats_exactly_and_keeps_fractions():
    form = LinearForm((0.1, 2, Q(1, 3)), constant=0.25)
    assert form.coeffs == (Q(0.1), Q(2), Q(1, 3))
    assert Q(0.1) != Q(1, 10)  # the binary value, not a rounded decimal
    assert form.constant == Q(1, 4)
    assert all(type(c) is Q for c in form.coeffs + (form.constant,))
    coeffs = (Q(1), Q(-2, 5))
    assert LinearForm(coeffs).coeffs is coeffs
    assert LinearForm([Q(1)]).coeffs == (Q(1),)


def _reference_render(form, variables):
    """LinearForm.render as first written: every coefficient compared with
    0, 1 and -1 as a Fraction."""
    parts = []
    for c, v in zip(form.coeffs, variables):
        if c == 0:
            continue
        if c == 1:
            parts.append(f"+ {v}")
        elif c == -1:
            parts.append(f"- {v}")
        elif c > 0:
            parts.append(f"+ {c} {v}")
        else:
            parts.append(f"- {-c} {v}")
    if form.constant != 0 or not parts:
        parts.append(f"+ {form.constant}" if form.constant >= 0 else f"- {-form.constant}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


# 0, +-1, other integers and non-integral values, each drawn often
_render_values = st.one_of(
    st.just(Q(0)),
    st.sampled_from([Q(1), Q(-1)]),
    st.integers(-10**12, 10**12).map(Q),
    st.builds(Q, st.integers(-10**6, 10**6), st.integers(2, 10**6)),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_render_values, min_size=0, max_size=6), _render_values)
def test_render_matches_reference(coeffs, constant):
    form = LinearForm(tuple(coeffs), constant)
    variables = [f"x{i}" for i in range(len(coeffs))]
    assert form.render(variables) == _reference_render(form, variables)
