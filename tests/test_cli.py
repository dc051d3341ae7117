import pytest

from threefold.cli import main

THEOREM_TOWER = """base p3
blowup point
blowup point
blowup curve class = l - L1 - L2 genus = 0
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_case_ueno_output(capsys):
    code, out, _ = run(capsys, "case", "ueno")
    assert code == 0
    assert "chi_resolution: 92" in out
    assert "fixed_points: 8" in out
    assert "picard_resolution: 45" in out


def test_case_ueno_records(capsys):
    code, human, _ = run(capsys, "case", "ueno")
    code2, records, _ = run(capsys, "case", "ueno", "--format", "records")
    assert code2 == 0
    # every human-readable number appears in the records
    rec_values = {line.split("=", 1)[1] for line in records.strip().splitlines()}
    for line in human.strip().splitlines():
        if ":" in line:
            value = line.split(":", 1)[1].strip()
            assert value in rec_values, line


def test_p3lines_headline(capsys):
    code, out, _ = run(capsys, "p3lines", "--n", "10")
    assert code == 0
    assert "deg(u)=0 forced; zero entropy by Condition A" in out
    assert "certificate." in out


def test_check_trace(capsys, tmp_path):
    f = tmp_path / "tower.txt"
    f.write_text(THEOREM_TOWER)
    code, out, _ = run(capsys, "check", "--condition", "B", str(f))
    assert code == 0
    assert "holds-by-theorem; trace: T5,T5,T7" in out


def test_check_unknown_exits_zero(capsys, tmp_path):
    f = tmp_path / "tower.txt"
    f.write_text("base p3\nblowup curve class = l genus = 3\n")
    code, out, _ = run(capsys, "check", "--condition", "A", str(f))
    assert code == 0
    assert "unknown" in out


def test_picard1_cli(capsys, tmp_path):
    f = tmp_path / "line.txt"
    f.write_text("base p3\nblowup curve class = l genus = 0\n")
    code, out, _ = run(capsys, "picard1", str(f))
    assert code == 0
    assert "alphas: 1" in out


def test_dynamics_raw(capsys, tmp_path):
    f = tmp_path / "fib.mat"
    f.write_text("0 1\n1 1\n")
    code, out, _ = run(capsys, "dynamics", "--matrix", str(f))
    assert code == 0
    assert "lambda1_minpoly: x^2 - x - 1" in out
    assert "rationality_obstruction: consistent" in out
    assert "primitive_hint: false" in out


def test_dynamics_with_model(capsys, tmp_path):
    mat = tmp_path / "swap.mat"
    mat.write_text("1 0 0\n0 0 1\n0 1 0\n")
    tower = tmp_path / "tower.txt"
    tower.write_text("base p3\nblowup point\nblowup point\n")
    code, out, _ = run(capsys, "dynamics", "--matrix", str(mat), "--model", str(tower))
    assert code == 0
    assert "action_valid: true" in out
    assert "eigenclass_status: entropy-zero" in out


def _block_files(tmp_path, block):
    """block (+) 1 on a synthetic model with one cube generator f, f^3 = 1,
    c1 = 2f and c2 = 3g: (matrix file, tower file)."""
    from threefold import make_custom_base, serialize_model

    rank = len(block) + 1
    divisors = [f"d{i}" for i in range(1, rank)] + ["f"]
    curves = [f"c{i}" for i in range(1, rank)] + ["g"]
    model = make_custom_base(
        label="synthetic",
        divisor_names=divisors,
        curve_names=curves,
        mul2={("f", "f"): {"g": 1}},
        pairing={(d, c): 1 for d, c in zip(divisors, curves)},
        c1={"f": 2},
        c2={"g": 3},
        euler=2 + 2 * rank,
    )
    tower = tmp_path / "synth.tower"
    tower.write_text(serialize_model(model))
    mat = tmp_path / "action.mat"
    rows = [list(row) + [0] for row in block] + [[0] * (rank - 1) + [1]]
    mat.write_text("\n".join(" ".join(str(v) for v in r) for r in rows) + "\n")
    return mat, tower


def _salem_files(tmp_path):
    """A 5x5 Salem action on a synthetic model: (matrix file, tower file)."""
    return _block_files(tmp_path, [[0, 0, 0, -1], [1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 2]])


def test_dynamics_positive_entropy_eigenclass(capsys, tmp_path):
    mat, tower = _salem_files(tmp_path)
    code, out, _ = run(capsys, "dynamics", "--matrix", str(mat), "--model", str(tower))
    assert code == 0
    assert "eigenclass_status: ok" in out
    assert "lambda1_minpoly: x^4 - 2*x^3 - 2*x + 1" in out
    assert "residual.zeta_c2" in out


# lambda1 is not an eigenvalue of the action: a complex pair carries it
# (chi = x^3 + x + 1), or only -lambda1 is an eigenvalue (x^2 + 3x + 1)
NOT_AN_EIGENVALUE = {
    ((0, 0, -1), (1, 0, -1), (0, 1, 0)): """action_valid=true
mode=model
lambda1=1.2106077944
lambda1_minpoly=x^6 - x^4 - 1
lambda1_interval=[13498727979202634319122732488519819662905455/11150372599265311570767859136324180752990208, \
6749363989601317159563804258508150731980463/5575186299632655785383929568162090376495104] (width <= 4.373e-22)
lambda2=1.4655712319
lambda2_minpoly=x^3 - x^2 - 1
lambda2_interval=[100713288173/68719476736, 50356644087/34359738368] (width <= 1.455e-11)
entropy=0.382245085836
primitive_hint=true
rationality_obstruction=consistent
eigenclass_status=eigenvector-not-certified
eigenclass_detail=lambda1 is not an eigenvalue of A
""",
    ((0, -1), (1, -3)): """action_valid=true
mode=model
lambda1=2.6180339887
lambda1_minpoly=x^2 - 3*x + 1
lambda1_interval=[179909925783/68719476736, 359819851569/137438953472] (width <= 2.183e-11)
lambda2=2.6180339887
lambda2_minpoly=x^2 - 3*x + 1
lambda2_interval=[179909925783/68719476736, 359819851569/137438953472] (width <= 2.183e-11)
entropy=0.962423650118
primitive_hint=false
rationality_obstruction=consistent
eigenclass_status=eigenvector-not-certified
eigenclass_detail=lambda1 is not an eigenvalue of A
""",
}


@pytest.mark.parametrize("block", list(NOT_AN_EIGENVALUE), ids=["complex-pair", "negative-root"])
def test_dynamics_lambda1_not_an_eigenvalue_records(capsys, tmp_path, block):
    mat, tower = _block_files(tmp_path, block)
    argv = ("dynamics", "--matrix", str(mat), "--model", str(tower), "--format", "records")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == NOT_AN_EIGENVALUE[block]


def test_dynamics_rejects_non_finite_tolerance(capsys, tmp_path):
    mat, tower = _salem_files(tmp_path)
    for tolerance in ("nan", "inf"):
        code, out, err = run(
            capsys, "dynamics", "--matrix", str(mat), "--model", str(tower), "--tolerance", tolerance
        )
        assert (code, out) == (1, "")
        assert err == "error: tolerance must be finite and positive\n"


def test_dynamics_with_model_certifies_each_degree_once(capsys, tmp_path, monkeypatch):
    import threefold.lattice_dynamics as ld

    calls = []
    certify = ld.certified_radius_from_charpoly

    def counted(charpoly, *args):
        calls.append(len(charpoly) - 1)
        return certify(charpoly, *args)

    monkeypatch.setattr(ld, "certified_radius_from_charpoly", counted)
    mat, tower = _salem_files(tmp_path)
    code, out, _ = run(capsys, "dynamics", "--matrix", str(mat), "--model", str(tower))
    assert code == 0 and "eigenclass_status: ok" in out
    assert calls == [5, 5]


def test_dynamics_computes_one_charpoly_per_action(capsys, tmp_path, monkeypatch):
    import threefold.bareiss as bareiss
    import threefold.cli as cli
    import threefold.lattice_dynamics as ld
    import threefold.charpoly as poly

    charpolys, solves, validations = [], [], []
    charpoly, solve, validate = poly.characteristic_polynomial, bareiss.bareiss_solve, ld.validate_action

    def counted_validate(model, A):
        validations.append(len(A))
        return validate(model, A)

    monkeypatch.setattr(ld, "validate_action", counted_validate)
    monkeypatch.setattr(cli, "validate_action", counted_validate, raising=False)

    def counted_charpoly(matrix):
        charpolys.append(len(matrix))
        return charpoly(matrix)

    def counted_solve(rows, *args):
        solves.append(len(rows))
        return solve(rows, *args)

    for module in (ld, poly):
        monkeypatch.setattr(module, "characteristic_polynomial", counted_charpoly)
    for module in (ld, bareiss):
        monkeypatch.setattr(module, "bareiss_solve", counted_solve)
    mat, tower = _salem_files(tmp_path)
    code, out, _ = run(capsys, "dynamics", "--matrix", str(mat), "--model", str(tower))
    assert code == 0 and "eigenclass_status: ok" in out
    assert charpolys == [5]
    assert validations == [5]
    charpolys.clear()
    solves.clear()
    code, out, _ = run(capsys, "dynamics", "--matrix", str(mat))
    assert code == 0 and "mode: raw" in out
    assert charpolys == [5] and solves == []
    # complex-dominant lambda2: the pairwise-product fallback builds no matrix
    charpolys.clear()
    golden = tmp_path / "golden.mat"
    golden.write_text("3 0 -1\n-2 -1 1\n3 -1 -1\n")
    code, out, _ = run(capsys, "dynamics", "--matrix", str(golden))
    assert code == 0 and "mode: raw" in out
    assert charpolys == [3]


def test_tower_commands_blow_each_step_up_once(capsys, tmp_path, monkeypatch):
    import sys

    import threefold.blowup_calculus as bc

    # count the blowups wherever the package's modules look them up
    blowups = []
    for name in ("blow_up_point", "blow_up_curve"):
        original = getattr(bc, name)

        def counted(*args, _blow_up=original):
            blowups.append(1)
            return _blow_up(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("threefold") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    tower = tmp_path / "lines.tower"
    tower.write_text(
        "base p3\n" + "blowup point\n" * 4
        + "".join(f"blowup curve class = l - L{i} - L{j} genus = 0\n" for i, j in ((1, 2), (1, 3), (3, 4)))
    )
    identity = tmp_path / "identity.mat"
    identity.write_text("".join(" ".join("1" if i == j else "0" for j in range(8)) + "\n" for i in range(8)))
    for argv in (
        ("ring", "show", str(tower)),
        ("check", "--condition", "A", str(tower)),
        ("check", "--condition", "B", str(tower)),
        ("picard1", str(tower)),
        ("dynamics", "--matrix", str(identity), "--model", str(tower)),
    ):
        blowups.clear()
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert len(blowups) == 7, argv


# `dynamics --format records` of raw-mode actions: every interval endpoint is
# part of the records contract
DYNAMICS_RECORDS = {
    # lambda2 is complex-dominant: certified through the pairwise-product fallback
    "3 0 -1\n-2 -1 1\n3 -1 -1\n": """mode=raw
lambda1=1.8392867552
lambda1_minpoly=x^3 - x^2 - x - 1
lambda1_interval=[126394823385/68719476736, 63197411693/34359738368] (width <= 1.455e-11)
lambda2=1.3562030656
lambda2_minpoly=x^6 - x^4 - x^2 - 1
lambda2_interval=[15122169501999057003940033923357253305449013/11150372599265311570767859136324180752990208, \
30244339003998114007886161433696044287130667/22300745198530623141535718272648361505980416] (width <= 2.732e-22)
entropy=0.609377863434
primitive_hint=true
rationality_obstruction=consistent
""",
    # the spectral radius phi is carried by the negative root -phi
    "0 1\n1 -1\n": """mode=raw
lambda1=1.6180339887
lambda1_minpoly=x^2 - x - 1
lambda1_interval=[111190449047/68719476736, 13898806131/8589934592] (width <= 1.455e-11)
lambda2=1.6180339887
lambda2_minpoly=x^2 - x - 1
lambda2_interval=[111190449047/68719476736, 13898806131/8589934592] (width <= 1.455e-11)
entropy=0.481211825056
primitive_hint=false
rationality_obstruction=consistent
""",
    # cube roots of unity: radius exactly 1
    "0 -1\n1 -1\n": """mode=raw
lambda1=1.0000000000
lambda1_minpoly=x - 1
lambda1_interval=[1, 1] (width <= 0.000e+00)
lambda2=1.0000000000
lambda2_minpoly=x - 1
lambda2_interval=[1, 1] (width <= 0.000e+00)
entropy=0.000000000000
primitive_hint=false
rationality_obstruction=consistent
""",
    # a matrix of the criterion-6 distribution
    "1 2 -1\n2 3 -2\n1 1 -2\n": """mode=raw
lambda1=3.6963927793
lambda1_minpoly=x^3 - 2*x^2 - 6*x - 1
lambda1_interval=[2032113420855/549755813888, 1016056710431/274877906944] (width <= 1.273e-11)
lambda2=5.6118587098
lambda2_minpoly=x^3 - 6*x^2 + 2*x + 1
lambda2_interval=[771287988107/137438953472, 3085151952435/549755813888] (width <= 1.273e-11)
entropy=1.724881985480
primitive_hint=true
rationality_obstruction=consistent
""",
}


@pytest.mark.parametrize("matrix", list(DYNAMICS_RECORDS))
def test_dynamics_records_golden(capsys, tmp_path, matrix):
    f = tmp_path / "action.mat"
    f.write_text(matrix)
    code, out, _ = run(capsys, "dynamics", "--matrix", str(f), "--format", "records")
    assert code == 0
    assert out == DYNAMICS_RECORDS[matrix]


def test_cli_import_loads_neither_sympy_nor_mpmath(tmp_path):
    """Importing the CLI loads neither, and neither is loaded after
    certifying dynamical degrees (the golden raw actions) and the exact
    eigenclass residuals (the positive-entropy Salem action with its
    model)."""
    import os
    import subprocess
    import sys

    runs = []
    for k, matrix in enumerate(DYNAMICS_RECORDS):
        f = tmp_path / f"golden{k}.mat"
        f.write_text(matrix)
        runs.append(["dynamics", "--matrix", str(f)])
    mat, tower = _salem_files(tmp_path)
    runs.append(["dynamics", "--matrix", str(mat), "--model", str(tower)])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"""
import contextlib, io, sys
import threefold.cli
print(sorted({{'sympy', 'mpmath'}} & set(sys.modules)))
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes = [threefold.cli.main(argv) for argv in {runs!r}]
print(codes, 'eigenclass_status: ok' in out.getvalue())
print(sorted({{'sympy', 'mpmath'}} & set(sys.modules)))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", f"{[0] * len(runs)} True", "[]"]


def _modules_loaded_by(argv, tmp_path):
    """Every module a fresh interpreter holds after importing the CLI and,
    unless argv is None, running it on argv; with argv "bare", after
    `python -c pass`."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys" if argv == "bare" else f"""
import contextlib, io, sys
import threefold.cli
if {argv!r} is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert threefold.cli.main({argv!r}) == 0
"""
    code += "\nprint(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    (tmp_path / "p3.tower").write_text("base p3\nblowup point\n")
    (tmp_path / "raw.mat").write_text("3 0 -1\n-2 -1 1\n3 -1 -1\n")
    runs = {
        "import": None,
        "ring": ["ring", "show", "p3.tower"],
        "dynamics": ["dynamics", "--matrix", "raw.mat"],
        "check A": ["check", "--condition", "A", "p3.tower"],
        "check B": ["check", "--condition", "B", "p3.tower"],
        "picard1": ["picard1", "p3.tower"],
        "p3lines": ["p3lines", "--n", "6"],
    }
    loaded = {name: _modules_loaded_by(argv, tmp_path) for name, argv in runs.items()}
    package = {
        name: {m.removeprefix("threefold.") for m in modules if m.startswith("threefold.")}
        for name, modules in loaded.items()
    }
    assert package["import"] == {"cli"}
    assert "towerfile" in package["ring"]
    assert not package["ring"] & {"lattice_dynamics", "linprog", "nef_conditions", "case_studies"}
    assert "lattice_dynamics" in package["dynamics"]
    assert not package["dynamics"] & {"towerfile", "blowup_calculus", "linprog", "nef_conditions", "case_studies"}
    # the LP only where it runs
    assert "linprog" in package["p3lines"]
    for name in ("check A", "check B", "picard1"):
        assert "nef_conditions" in package[name]
        assert "linprog" not in package[name], name
    # the spectral-radius layers only where degrees are certified
    layers = {"polynomials", "charpoly", "realroots", "factor", "radius"}
    assert layers <= package["dynamics"]
    for name in ("ring", "check A", "check B", "picard1", "p3lines"):
        assert not package[name] & layers, name
    # no command pays for dataclasses or inspect (unless a site hook of the
    # bare interpreter loads them already)
    bare = _modules_loaded_by("bare", tmp_path)
    for name, modules in loaded.items():
        assert not ({"dataclasses", "inspect"} & modules) - bare, name


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 x\n0 1\n", "line 1, col 3: expected an integer, got 'x'"),
        # past int()'s digit limit: located, and the literal is not echoed
        (f"1 {'9' * 5000}\n0 1\n", "line 1, col 3: number literal too long: more than 4300 digits"),
        (f"1 0\n-{'9' * 5000} 1\n", "line 2, col 1: number literal too long: more than 4300 digits"),
        ("# header\n1 0  # first row\n\n0  1.5\n", "line 4, col 4: expected an integer, got '1.5'"),
        ("1 0\n0 1 2\n", "line 2: row has 3 entries, expected 2"),
        ("1 0 0\n\n0 1\n0 0 1\n", "line 3: row has 2 entries, expected 3"),
        ("1 0\n0 1\n1 1\n", "matrix file is not square"),
        ("# nothing\n", "matrix file is empty"),
    ],
)
def test_matrix_file_errors_are_located(capsys, tmp_path, text, message):
    f = tmp_path / "bad.mat"
    f.write_text(text)
    code, out, err = run(capsys, "dynamics", "--matrix", str(f))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_dynamics_invalid_action_reports(capsys, tmp_path):
    mat = tmp_path / "bad.mat"
    mat.write_text("2 0\n0 1\n")
    tower = tmp_path / "tower.txt"
    tower.write_text("base p3\nblowup point\n")
    code, out, _ = run(capsys, "dynamics", "--matrix", str(mat), "--model", str(tower))
    assert code == 0
    assert "action_valid: false" in out
    assert "violation.0" in out
    code, out, _ = run(
        capsys, "dynamics", "--matrix", str(mat), "--model", str(tower), "--format", "records"
    )
    assert code == 0
    assert out == (
        "action_valid=false\n"
        "violation.0=det = 2, not +-1\n"
        "violation.1=triple product not preserved on (h,h,h): 1 -> 8\n"
        "violation.2=c1 is not fixed\n"
        "violation.3=c2 is not fixed\n"
    )


def test_budget_cli(capsys):
    code, out, _ = run(capsys, "budget", "--base", "6,2", "--target", "92,45")
    assert code == 0
    assert "num_blowups: 43" in out
    assert "genus_slack: 0" in out


def test_ring_show_roundtrip(capsys, tmp_path):
    from threefold import models_equivalent, parse_tower

    f = tmp_path / "tower.txt"
    f.write_text(THEOREM_TOWER)
    code, out, _ = run(capsys, "ring", "show", str(f))
    assert code == 0
    original = parse_tower(THEOREM_TOWER).top()
    reparsed = parse_tower(out).top()
    assert models_equivalent(original, reparsed)


def test_ring_show_records_carries_tables(capsys, tmp_path):
    f = tmp_path / "tower.txt"
    f.write_text("base p2xp1\n")
    code, out, _ = run(capsys, "ring", "show", str(f), "--format", "records")
    assert code == 0
    assert "mul.A.B=f1" in out
    assert "pair.B.f1=1" in out
    assert "c1=2 A + 3 B" in out


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--condition", "C", "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, option",
    [
        (["case", "ci", "--n", "5", "--degrees", "2,x"], "--degrees"),
        (["case", "ci", "--n", "5", "--degrees", "2,,3"], "--degrees"),
        (["budget", "--base", "4,1", "--target", "x,2"], "--target"),
        (["budget", "--base", "4", "--target", "6,2"], "--base"),
        (["budget", "--base", "4,1,1", "--target", "6,2"], "--base"),
    ],
)
def test_malformed_option_values_are_usage_errors(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: argument {option}: expected " in capsys.readouterr().err


def test_out_of_range_option_values_exit_1(capsys):
    # well-formed values the engine refuses are bad input, not usage errors
    code, _, err = run(capsys, "budget", "--base", "6,2", "--target", "8,1")
    assert code == 1 and err == "error: target Picard number below the base\n"
    code, _, err = run(capsys, "case", "ci", "--n", "4", "--degrees", "2,3")
    assert code == 1 and err.startswith("error: ")


def test_parse_error_exit_1(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("blowup curve class = l genus = 0\n")
    code, _, err = run(capsys, "check", "--condition", "A", str(f))
    assert code == 1
    assert "line 1" in err


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "p3lines", "--n", "0")
    assert code == 1
    code, _, err = run(capsys, "check", "--condition", "A", "/nonexistent/tower")
    assert code == 1


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("base p3\n"))
    code, out, _ = run(capsys, "ring", "show", "-")
    assert code == 0
    assert "c1 = 4 h" in out


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

# `ring show --format records` of MIXED_TOWER, zero products and pairings
# included; every key and value is part of the records contract
MIXED_TOWER_RECORDS = """label=P3+pt+pt+pt+pt+C5+C6+C7
picard=8
euler=18
divisor_basis=h,E1,E2,E3,E4,F1,F2,F3
curve_basis=l,L1,L2,L3,L4,M1,M2,M3
mul.h.h=l
mul.h.E1=0
mul.h.E2=0
mul.h.E3=0
mul.h.E4=0
mul.h.F1=M1
mul.h.F2=M2
mul.h.F3=2 M3
mul.E1.E1=-L1
mul.E1.E2=0
mul.E1.E3=0
mul.E1.E4=0
mul.E1.F1=M1
mul.E1.F2=0
mul.E1.F3=M3
mul.E2.E2=-L2
mul.E2.E3=0
mul.E2.E4=0
mul.E2.F1=M1
mul.E2.F2=0
mul.E2.F3=M3
mul.E3.E3=-L3
mul.E3.E4=0
mul.E3.F1=0
mul.E3.F2=M2
mul.E3.F3=M3
mul.E4.E4=-L4
mul.E4.F1=0
mul.E4.F2=M2
mul.E4.F3=0
mul.F1.F1=-l + L1 + L2 - 2 M1
mul.F1.F2=0
mul.F1.F3=0
mul.F2.F2=-l + L3 + L4 - 2 M2
mul.F2.F3=0
mul.F3.F3=-2 l + L1 + L2 + L3
pair.h.l=1
pair.h.L1=0
pair.h.L2=0
pair.h.L3=0
pair.h.L4=0
pair.h.M1=0
pair.h.M2=0
pair.h.M3=0
pair.E1.l=0
pair.E1.L1=-1
pair.E1.L2=0
pair.E1.L3=0
pair.E1.L4=0
pair.E1.M1=0
pair.E1.M2=0
pair.E1.M3=0
pair.E2.l=0
pair.E2.L1=0
pair.E2.L2=-1
pair.E2.L3=0
pair.E2.L4=0
pair.E2.M1=0
pair.E2.M2=0
pair.E2.M3=0
pair.E3.l=0
pair.E3.L1=0
pair.E3.L2=0
pair.E3.L3=-1
pair.E3.L4=0
pair.E3.M1=0
pair.E3.M2=0
pair.E3.M3=0
pair.E4.l=0
pair.E4.L1=0
pair.E4.L2=0
pair.E4.L3=0
pair.E4.L4=-1
pair.E4.M1=0
pair.E4.M2=0
pair.E4.M3=0
pair.F1.l=0
pair.F1.L1=0
pair.F1.L2=0
pair.F1.L3=0
pair.F1.L4=0
pair.F1.M1=-1
pair.F1.M2=0
pair.F1.M3=0
pair.F2.l=0
pair.F2.L1=0
pair.F2.L2=0
pair.F2.L3=0
pair.F2.L4=0
pair.F2.M1=0
pair.F2.M2=-1
pair.F2.M3=0
pair.F3.l=0
pair.F3.L1=0
pair.F3.L2=0
pair.F3.L3=0
pair.F3.L4=0
pair.F3.M1=0
pair.F3.M2=0
pair.F3.M3=-1
c1=4 h - 2 E1 - 2 E2 - 2 E3 - 2 E4 - F1 - F2 - F3
c2=10 l - 2 L1 - 2 L2 - 2 L3 - L4 - 2 M3
"""


def test_ring_show_records_golden(capsys, tmp_path):
    f = tmp_path / "mixed.txt"
    f.write_text(MIXED_TOWER)
    code, out, _ = run(capsys, "ring", "show", str(f), "--format", "records")
    assert code == 0
    assert out == MIXED_TOWER_RECORDS


# `check` and `picard1` records of THEOREM_TOWER and MIXED_TOWER; every key
# and value is part of the records contract
THEOREM_TOWER_CHECK_A_RECORDS = """condition=A
status=unknown
trace=T5,T5,none
trace.step0=base:picard-rank-1
trace.step1=T5:point
trace.step2=T5:point
trace.step3=none:no-case-applies
trace.step3.c1_dot_C=0
trace.step3.genus=0
trace.step3.two_g_minus_2=-2
trace.step3.gamma=-2
"""

THEOREM_TOWER_CHECK_B_RECORDS = """condition=B
status=holds-by-theorem
trace=T5,T5,T7
trace.step0=base:picard-rank-1
trace.step1=T5:point
trace.step2=T5:point
trace.step3=T7:c1C-not-2g-2
trace.step3.c1_dot_C=0
trace.step3.genus=0
trace.step3.two_g_minus_2=-2
trace.step3.gamma=-2
"""

THEOREM_TOWER_PICARD1_RECORDS = """condition_a=holds-by-theorem
condition_b=holds-by-theorem
alphas=1
alpha.step3=1
gamma.step3=2
"""

MIXED_TOWER_CHECK_A_RECORDS = """condition=A
status=unknown
trace=T5,T5,T5,T5,none
trace.step0=base:picard-rank-1
trace.step1=T5:point
trace.step2=T5:point
trace.step3=T5:point
trace.step4=T5:point
trace.step5=none:no-case-applies
trace.step5.c1_dot_C=0
trace.step5.genus=0
trace.step5.two_g_minus_2=-2
trace.step5.gamma=-2
"""

MIXED_TOWER_CHECK_B_RECORDS = """condition=B
status=holds-by-theorem
trace=T5,T5,T5,T5,T7,T7,T7
trace.step0=base:picard-rank-1
trace.step1=T5:point
trace.step2=T5:point
trace.step3=T5:point
trace.step4=T5:point
trace.step5=T7:c1C-not-2g-2
trace.step5.c1_dot_C=0
trace.step5.genus=0
trace.step5.two_g_minus_2=-2
trace.step5.gamma=-2
trace.step6=T7:c1C-not-2g-2
trace.step6.c1_dot_C=0
trace.step6.genus=0
trace.step6.two_g_minus_2=-2
trace.step6.gamma=-2
trace.step7=T7:c1C-not-2g-2
trace.step7.c1_dot_C=2
trace.step7.genus=0
trace.step7.two_g_minus_2=-2
trace.step7.gamma=0
"""

MIXED_TOWER_PICARD1_RECORDS = """condition_a=holds-by-theorem
condition_b=holds-by-theorem
alphas=1,1,2/3
alpha.step5=1
gamma.step5=2
alpha.step6=1
gamma.step6=2
alpha.step7=2/3
gamma.step7=6
"""


@pytest.mark.parametrize(
    "tower, argv, golden",
    [
        (THEOREM_TOWER, ("check", "--condition", "A"), THEOREM_TOWER_CHECK_A_RECORDS),
        (THEOREM_TOWER, ("check", "--condition", "B"), THEOREM_TOWER_CHECK_B_RECORDS),
        (THEOREM_TOWER, ("picard1",), THEOREM_TOWER_PICARD1_RECORDS),
        (MIXED_TOWER, ("check", "--condition", "A"), MIXED_TOWER_CHECK_A_RECORDS),
        (MIXED_TOWER, ("check", "--condition", "B"), MIXED_TOWER_CHECK_B_RECORDS),
        (MIXED_TOWER, ("picard1",), MIXED_TOWER_PICARD1_RECORDS),
    ],
)
def test_check_and_picard1_records_golden(capsys, tmp_path, tower, argv, golden):
    f = tmp_path / "tower.txt"
    f.write_text(tower)
    code, out, err = run(capsys, *argv, str(f), "--format", "records")
    assert (code, out, err) == (0, golden, "")


def test_zero_denominator_is_a_located_error_not_a_traceback(tmp_path):
    import os
    import subprocess
    import sys

    f = tmp_path / "malformed.tower"
    f.write_text("base p3\nblowup point\nblowup curve class = 1/0*l genus = 0\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "threefold.cli", "ring", "show", str(f), "--format", "records"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: line 3, col 22: zero denominator in coefficient '1/0'")
    assert "Traceback" not in proc.stderr


# -- engine limits: a search that runs out of its budget is a located error ----


def _no_root_free_circle(monkeypatch):
    from threefold import realroots

    def on_the_circle(p, radius):
        raise realroots.BoundaryRoot()

    monkeypatch.setattr(realroots, "disk_root_count", on_the_circle)


def _no_refinement_of_real_roots(monkeypatch):
    from threefold import radius

    monkeypatch.setattr(radius, "refine_root_interval", lambda sf, lo, hi, width: (lo, hi))


def _no_refinement_of_degrees(monkeypatch):
    from fractions import Fraction

    from threefold import lattice_dynamics
    from threefold.radius import AlgebraicNumber

    # lambda1 = lambda2 here, handed in as two distinct records (each interval
    # widened by its own dyadic amount, still isolating the root); never
    # refined and never found equal
    certify, widths = lattice_dynamics.certified_radius_from_charpoly, []

    def widened(cp):
        r = certify(cp)
        widths.append(Fraction(1, 2 ** (20 + len(widths))))
        return AlgebraicNumber(r.minpoly, r.lo, r.hi + widths[-1])

    monkeypatch.setattr(lattice_dynamics, "certified_radius_from_charpoly", widened)
    monkeypatch.setattr(AlgebraicNumber, "refined", lambda self, width: self)
    monkeypatch.setattr(lattice_dynamics, "count_real_roots", lambda p, lo, hi: 2)


@pytest.mark.parametrize(
    "starve, where, message",
    [
        (_no_root_free_circle, "disk_root_count_robust", "could not find a root-free circle near the requested radius"),
        (_no_refinement_of_real_roots, "_dominant_real_root", "real roots with pathologically close moduli"),
        (_no_refinement_of_degrees, "algebraic_compare", "algebraic comparison did not converge"),
    ],
)
def test_engine_limits_are_located_errors_not_tracebacks(capsys, tmp_path, monkeypatch, starve, where, message):
    # each of the engine's three fixed budgets, run out on a valid matrix
    # (chi = x^2 - 3x + 1), ends the CLI with one error line and exit 1
    from threefold.polynomials import EngineLimit
    from threefold.radius import _certified_radius_int

    f = tmp_path / "a.mat"
    f.write_text("2 1\n1 1\n")
    _certified_radius_int.cache_clear()  # certify afresh, under the starved budget
    starve(monkeypatch)
    code, out, err = run(capsys, "dynamics", "--matrix", str(f), "--format", "records")
    _certified_radius_int.cache_clear()  # keep no radius certified under the patch
    assert (code, out, err) == (1, "", f"error: engine limit in {where}: {message}\n")
    assert issubclass(EngineLimit, ValueError)
