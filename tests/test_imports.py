"""Every module-level import of a package module is used by that module,
every module-level private function or class is used by the package, and
every local variable a function assigns is read, and no module draws from an
unseeded random generator.

No linter is a dependency of the project, so this parses each module with
`ast`: a name bound by a top-level import must be read somewhere else in the
module. `__init__.py` is skipped, since its imports are the package's
re-exports. A top-level `def _name` or `class _Name` must be read, as a name
or an attribute, in some module of the package outside its own definition,
so a helper that only the tests (or only itself) call does not stay. A name assigned in a function
must be read in that function or in a function nested in it, unless it
starts with `_`.

Inside `spincluster.protocol` only the trajectory engine, `_contract`, may
reach the noisy gate assembly (`_gate_unitaries`, `noisy_sequence_unitary`):
a second path to it would be a second noisy engine.

scipy serves only gate synthesis, so a fresh interpreter that imports the
package and runs trajectories, `noisy_gate_fidelity`, `run`, `figure fig3b`
and the coherence decays must not load it. Its one user is
`synthesis.minimize`, which drives scipy's private compiled L-BFGS-B step
`setulb`. The package's one scipy import is the `import scipy` of
`synthesis._lbfgsb_setulb`, which loads that step from its extension file:
`scipy.optimize` is never imported, so a fresh interpreter that runs
`minimize` loads `scipy.optimize._lbfgsb` and not `scipy.optimize`. Listing
every scipy import keeps a module-level import or a second use of a private
scipy API from entering unnoticed.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spincluster
from spincluster import synthesis

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
    that no module reads outside their own definition."""
    defined, read = {}, set()
    for name, source in sources.items():
        for node in ast.parse(source).body:
            own = getattr(node, "name", None)
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and own.startswith("_") and not own.startswith("__")):
                defined[own] = f"{name} line {node.lineno}"
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    ref = n.id
                elif isinstance(n, ast.Attribute):
                    ref = n.attr
                else:
                    continue
                if ref != own:
                    read.add(ref)
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
        # read only inside their own definitions
        "d.py": "def _recurse(n):\n    return _recurse(n - 1) if n else 0\n\n"
                "class _Self:\n    def copy(self):\n        return _Self()\n",
    }
    assert unreferenced_private(sources) == [
        "_Gone (a.py line 7)", "_Self (d.py line 4)", "_dead (a.py line 4)",
        "_recurse (d.py line 1)",
    ]


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


def reached_past(source: str, targets: set, owner: str) -> list:
    """Top-level functions of `source` that read a name in `targets`, directly
    or through the top-level functions they read, on a path that does not
    pass through `owner`, leaving out the functions `owner` itself reads."""
    funcs = {n.name: n for n in ast.parse(source).body
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    reads = {name: {n.id for n in ast.walk(f)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
             for name, f in funcs.items()}

    def below(start):
        seen, todo = set(), [start]
        while todo:
            for ref in reads[todo.pop()] & (funcs.keys() - seen - {owner}):
                seen.add(ref)
                todo.append(ref)
        return seen

    helpers = below(owner)
    return sorted(
        name for name in funcs
        if name != owner and name not in helpers
        and any(reads[f] & targets for f in below(name) | {name})
    )


def test_only_the_engine_assembles_noisy_gates():
    source = (Path(spincluster.__file__).parent / "protocol.py").read_text()
    assert reached_past(source, {"_gate_unitaries", "noisy_sequence_unitary"}, "_contract") == []


def test_check_flags_a_second_path_to_the_noisy_gates():
    src = (
        "from lib import noisy\n"
        "def _assemble():\n    return noisy()\n"
        "def _engine():\n    return _assemble()\n"
        "def run():\n    return _engine()\n"
        "def _dense():\n    return _assemble()\n"
        "def target():\n    return _dense()\n"
    )
    assert reached_past(src, {"noisy"}, "_engine") == ["_dense", "target"]


def scipy_imports(sources: dict) -> list:
    """Every import of scipy or of a scipy module in {file name: source}, as
    "file scope: name", where scope is the dotted path of the functions and
    classes around the import, or <module>."""
    found = []

    def visit(node, file, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, file, scope + [child.name])
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [f"{child.module}.{alias.name}" for alias in child.names]
            else:
                names = []
            where = ".".join(scope) or "<module>"
            found.extend(f"{file} {where}: {name}" for name in names
                         if name.split(".")[0] == "scipy")
            visit(child, file, scope)

    for file, source in sources.items():
        visit(ast.parse(source), file, [])
    return sorted(found)


def test_scipy_is_imported_only_by_minimize():
    assert scipy_imports({p.name: p.read_text() for p in PACKAGE}) == [
        "synthesis.py _lbfgsb_setulb: scipy",
    ]


def test_check_lists_every_scipy_import():
    sources = {
        "a.py": "import numpy\nimport scipy.linalg as la\nfrom . import scipy\n",
        "b.py": "def f():\n    if True:\n        from scipy.optimize import _lbfgsb, minimize\n"
                "class C:\n    def g(self):\n        import scipy\n",
    }
    assert scipy_imports(sources) == [
        "a.py <module>: scipy.linalg", "b.py C.g: scipy",
        "b.py f: scipy.optimize._lbfgsb", "b.py f: scipy.optimize.minimize",
    ]


# a noisy lean 2x1 run on the packaged gates with component fidelities, the
# packaged CZ's noisy gate fidelity, then `run`, `figure fig3b` and both
# coherence decays, in a fresh interpreter
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
times = [1e-6, 2e-6, 3e-6]
noise.coherence_decays(bath, times)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def fresh_interpreter(script: str) -> str:
    """The standard output of `script` run in a new interpreter that imports
    the package from these sources."""
    src = str(Path(spincluster.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", script],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.slow
def test_simulation_path_loads_no_scipy():
    assert fresh_interpreter(COLD_PATH) == "[]"


# a smooth bounded problem, Rosenbrock's in three variables with its minimum
# at 1 inside [0.1, 2], and synthesis.minimize's answer to it as float.hex
MINIMIZE_CALL = """
import numpy as np
from spincluster import synthesis

def rosenbrock(x):
    d, r = x[1:] - x[:-1] ** 2, 1 - x[:-1]
    grad = np.zeros_like(x)
    grad[:-1] = -400 * x[:-1] * d - 2 * r
    grad[1:] += 200 * d
    return float(100 * d @ d + r @ r), grad

x, value, nfev = synthesis.minimize(rosenbrock, [0.5, 1.5, 0.3], 0.1, 2.0, 800)
answer = [v.hex() for v in x.tolist()], float(value).hex(), nfev
"""


@pytest.mark.slow
def test_minimize_loads_only_the_lbfgsb_step():
    # a fresh interpreter that runs minimize loads scipy's compiled step and
    # at most ten other scipy modules, never scipy.optimize, and gets the
    # answer this process gets with scipy.optimize loaded, bit for bit
    import scipy.optimize

    answer, modules = fresh_interpreter(MINIMIZE_CALL + (
        "import sys\nprint(answer)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")).splitlines()
    loaded = ast.literal_eval(modules)
    assert "scipy.optimize._lbfgsb" in loaded and "scipy.optimize" not in loaded
    assert len(loaded) <= 11, loaded

    here = {}
    exec(MINIMIZE_CALL, here)
    assert here["answer"][2] > 5
    assert answer == str(here["answer"])
    assert synthesis._lbfgsb_setulb() is scipy.optimize._lbfgsb.setulb
