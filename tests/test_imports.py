"""Every module imports only names it uses, and the simulator runs without numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "swarmpatrol").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import that the module neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read and name not in exported]


def test_unused_imports_flags_only_names_neither_read_nor_exported():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from a import b, c, d\n"
        "__all__ = ['c']\n"
        "def f(x: b) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["j", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str, package: str = "") -> list[tuple[int, str, bool]]:
    """(line, module, runs on import) for each module an import statement names.

    A relative import is resolved against package. `from m import a` names
    both m and m.a, as a may be a submodule. An import inside a function
    body runs only when the function is called.
    """
    found = []

    def visit(node, top):
        for child in ast.iter_child_nodes(node):
            inner = top and not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if isinstance(child, ast.Import):
                found.extend((child.lineno, a.name, top) for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = package.rsplit(".", child.level - 1)[0] if child.level else ""
                module = ".".join(filter(None, (base, child.module)))
                found.append((child.lineno, module, top))
                found.extend((child.lineno, f"{module}.{a.name}", top) for a in child.names)
            visit(child, inner)

    visit(ast.parse(source), True)
    return found


def top_level_numpy_imports(source: str) -> list[int]:
    """Line numbers of the imports of numpy that run when the module is imported."""
    return sorted(
        {
            line
            for line, name, top in imported_modules(source)
            if top and (name == "numpy" or name.startswith("numpy."))
        }
    )


def test_top_level_numpy_imports_skips_function_bodies():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "if True:\n"
        "    import numpy.linalg\n"
        "def f():\n"
        "    import numpy\n"
        "class C:\n"
        "    def g(self):\n"
        "        from numpy import array\n"
    )
    assert top_level_numpy_imports(source) == [1, 2, 4]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "swarmpatrol").glob("*.py")), ids=lambda p: p.name
)
def test_package_module_imports_numpy_only_inside_functions(path):
    assert top_level_numpy_imports(path.read_text()) == []


def test_imported_modules_resolves_relative_imports_and_function_bodies():
    source = (
        "import os.path\n"
        "from . import beliefs\n"
        "from .world import RobotState\n"
        "def f():\n"
        "    from swarmpatrol.beliefs import digest\n"
    )
    assert imported_modules(source, "swarmpatrol") == [
        (1, "os.path", True),
        (2, "swarmpatrol", True),
        (2, "swarmpatrol.beliefs", True),
        (3, "swarmpatrol.world", True),
        (3, "swarmpatrol.world.RobotState", True),
        (5, "swarmpatrol.beliefs", False),
        (5, "swarmpatrol.beliefs.digest", False),
    ]


@pytest.mark.parametrize("name", ["world", "comms", "strategies"])
def test_radio_and_policies_import_nothing_from_beliefs(name):
    # how robots move, which pairs exchange and where robots go come from
    # poses alone, so a run's motion and exchange schedule do not depend on
    # its sensing draws
    source = (ROOT / "src" / "swarmpatrol" / f"{name}.py").read_text()
    modules = [module for _, module, _ in imported_modules(source, "swarmpatrol")]
    # each imports the map or the robots, so the walk does find package imports
    assert {"swarmpatrol.graph", "swarmpatrol.world"} & set(modules)
    assert [m for m in modules if m.split(".")[:2] == ["swarmpatrol", "beliefs"]] == []


def test_policies_import_nothing_from_the_harness():
    # a policy reads its settings off the config it is handed, and the
    # harness imports the policies, never the other way round
    source = (ROOT / "src" / "swarmpatrol" / "strategies.py").read_text()
    modules = [module for _, module, _ in imported_modules(source, "swarmpatrol")]
    assert "swarmpatrol.world" in modules
    assert [m for m in modules if m.split(".")[:2] == ["swarmpatrol", "harness"]] == []


# Imports the package, runs a default-map matrix of every strategy with its
# files, analyzes it, and runs the CLI's simulate, summarize and analyze, in a
# fresh interpreter; prints whether numpy was imported along the way.
_NUMPY_FREE_SCRIPT = """
import sys
from pathlib import Path

import swarmpatrol
from swarmpatrol import cli, harness
from swarmpatrol.strategies import StrategyKind

out = Path(sys.argv[1])
cfg = harness.ExperimentConfig(
    n_robots=8, duration=120.0, noise_levels=(0.0, 0.2), strategies=tuple(StrategyKind), reps=1
)
records, _ = harness.run_matrix(cfg, out_dir=out / "matrix")
harness.analyze_runs(out / "matrix")
(out / "exp.cfg").write_text("robots = 8\\nduration = 60\\nnoises = 0.0, 0.2\\nreps = 2\\n")
for argv in (
    ["simulate", "--config", str(out / "exp.cfg"), "--out", str(out / "cli")],
    ["summarize", "--runs", str(out / "cli")],
    ["analyze", "--runs", str(out / "cli")],
):
    assert cli.main(argv) == 0, argv
print(len(records), "numpy" in sys.modules)
"""


def test_simulate_summarize_and_analyze_never_import_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_SCRIPT, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["20", "False"]
