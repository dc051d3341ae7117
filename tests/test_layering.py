"""The spectral-radius layers: one home per name, imports in one direction,
no function that nothing calls.

polynomials holds the integer arithmetic; charpoly builds on nothing else,
and realroots, factor and radius each build on the ones before them.  The
exact solve (bareiss) and the intersection ring load none of them.
"""

import ast
import os
from collections import Counter
import subprocess
import sys

import pytest

LAYERS = ("polynomials", "charpoly", "realroots", "factor", "radius")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# layer -> the layer modules a fresh interpreter holds after importing it
LOADS = {
    "polynomials": {"polynomials"},
    "charpoly": {"charpoly"},
    "realroots": {"polynomials", "realroots"},
    "factor": {"polynomials", "realroots", "factor"},
    "radius": {"polynomials", "realroots", "factor", "radius"},
}


def _tree(module):
    with open(os.path.join(SRC, "threefold", f"{module}.py")) as f:
        return ast.parse(f.read())


def _defined(module) -> set[str]:
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def _loaded(module) -> set[str]:
    """The modules a fresh interpreter holds after importing threefold.module,
    package modules without their prefix."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, threefold.{module}; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("threefold.") for m in proc.stdout.split()}


@pytest.mark.parametrize("layer", LAYERS)
def test_a_layer_loads_only_the_layers_below_it(layer):
    assert _loaded(layer) & set(LAYERS) == LOADS[layer]


@pytest.mark.parametrize("module", ["bareiss", "intersection_ring"])
def test_the_exact_solve_and_the_ring_load_no_layer(module):
    assert _loaded(module) & set(LAYERS) == set()


def test_every_name_has_one_home():
    homes = {}
    for layer in LAYERS:
        for name in _defined(layer):
            homes.setdefault(name, []).append(layer)
    assert {name: where for name, where in homes.items() if len(where) > 1} == {}


@pytest.mark.parametrize("importer", [*LAYERS, "lattice_dynamics"])
def test_names_are_imported_from_the_layer_that_defines_them(importer):
    # no layer passes on a name it imported itself
    for node in ast.walk(_tree(importer)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in LAYERS:
            missing = {a.name for a in node.names} - _defined(node.module)
            assert not missing, (importer, node.module, missing)


def _uses(nodes, exports=False) -> Counter:
    """How often each name is used among the nodes, as a name or an
    attribute, or (exports) as a string, as __init__ exports its names."""
    used = Counter()
    for node in nodes:
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif exports and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used[node.value] += 1
    return used


@pytest.mark.parametrize("layer", LAYERS)
def test_every_function_of_a_layer_is_used_in_the_package(layer):
    # a function that only its own body and the tests use is a leftover
    package = Counter()
    for file in os.listdir(os.path.join(SRC, "threefold")):
        if file.endswith(".py"):
            package += _uses(ast.walk(_tree(file[:-3])), exports=file == "__init__.py")
    unused = [
        node.name
        for node in _tree(layer).body
        if isinstance(node, ast.FunctionDef) and package[node.name] == _uses(ast.walk(node))[node.name]
    ]
    assert unused == []
