"""Every module-level import of a package module is used by that module,
every module-level private function or class is used by the package, and
every local variable a function assigns is read, and no module draws from an
unseeded random generator.

No linter is a dependency of the project, so this parses each module with
`ast`: a name bound by a top-level import must be read somewhere else in the
module. `__init__.py` is skipped, since its imports are the package's
re-exports. A top-level `def _name` or `class _Name` must be read, as a name
or an attribute, in some module of the package. A name assigned in a function
must be read in that function or in a function nested in it, unless it
starts with `_`.

scipy serves only gate synthesis, the coherence fits and the local-Clifford
check, so a fresh interpreter that imports the package and runs trajectories,
`noisy_gate_fidelity`, `run` and `figure fig3b` must not load it.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spincluster

PACKAGE = sorted(Path(spincluster.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_flags_an_unused_import():
    src = "import os\nfrom numpy import array, zeros\nzeros(3)\n"
    assert unused_imports(src) == ["array (line 2)", "os (line 1)"]


def unreferenced_private(sources: dict) -> list:
    """Module-level `_private` functions and classes of {file name: source}
    that no module reads."""
    defined, read = {}, set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined[node.name] = f"{name} line {node.lineno}"
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(f"{name} ({where})" for name, where in defined.items()
                  if name not in read)


def test_no_unreferenced_private_definitions():
    assert unreferenced_private({p.name: p.read_text() for p in PACKAGE}) == []


def test_check_flags_an_unreferenced_private_definition():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    pass\n\n"
                "class _Gone:\n    pass\n\ndef public():\n    return _used()\n",
        "b.py": "import c\n\nclass _Kept:\n    pass\n\nc._helper(_Kept)\n",
        "c.py": "def _helper():\n    pass\n",
    }
    assert unreferenced_private(sources) == ["_Gone (a.py line 7)", "_dead (a.py line 4)"]


def unused_locals(source: str) -> list:
    """Names assigned in a function and read neither there nor in the
    functions nested in it; `_`-prefixed and global/nonlocal names are
    exempt."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = list(ast.walk(func))
        read = {n.id for n in body if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {name for n in body if isinstance(n, (ast.Global, ast.Nonlocal))
                 for name in n.names}
        for node in body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            for t in targets:
                for n in ast.walk(t):
                    if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                            and not n.id.startswith("_") and n.id not in read):
                        found.add(f"{n.id} (line {n.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_local_assignments(path):
    assert unused_locals(path.read_text()) == []


def test_check_flags_an_unused_local():
    src = (
        "def f(a):\n"
        "    x, y = a\n"
        "    _z = 1\n"
        "    w: int = 2\n"
        "    v = 3\n"
        "    def g():\n"
        "        nonlocal v\n"
        "        v = 4\n"
        "        u = 5\n"
        "        return w\n"
        "    return x + g()\n"
    )
    assert unused_locals(src) == ["u (line 9)", "y (line 2)"]


def unseeded_generators(source: str) -> list:
    """Calls of `default_rng()` with no seed: they draw from operating-system
    entropy, so no seed of a run would set their stream."""
    return sorted(
        f"line {n.lineno}" for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and not n.args and not n.keywords
        and getattr(n.func, "attr", getattr(n.func, "id", None)) == "default_rng"
    )


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unseeded_generators(path):
    assert unseeded_generators(path.read_text()) == []


def test_check_flags_an_unseeded_generator():
    src = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "a = np.random.default_rng()\n"
        "b = np.random.default_rng(3)\n"
        "c = default_rng()\n"
        "d = default_rng(seed=None)\n"
    )
    assert unseeded_generators(src) == ["line 3", "line 5"]


# a noisy lean 2x1 run on the packaged gates with component fidelities, the
# packaged CZ's noisy gate fidelity, then `run` and `figure fig3b`, in a
# fresh interpreter
COLD_PATH = """
import os, sys
import spincluster
from spincluster import cli, noise, protocol, synthesis

lib, params, _ = protocol.packaged_gate_library()
bath = noise.ou_from_coherence(3e-6, 300e-6, seed=1)
spec = protocol.ProtocolSpec(
    m=2, n=1, gate_library=lib, params=params, style="lean", trials=20, seed=1,
    noise=bath,
)
protocol.run(spec, components=True)
synthesis.noisy_gate_fidelity(lib["cz"], params, bath)
assert cli.main(["run", "--trials", "20", "--output", os.devnull]) == 0
assert cli.main(["figure", "fig3b", "--trials", "20", "--output", os.devnull]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.mark.slow
def test_simulation_path_loads_no_scipy():
    src = str(Path(spincluster.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", COLD_PATH],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
