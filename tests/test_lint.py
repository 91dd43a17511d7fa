"""Static checks on the package sources that need only the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "geopgo"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


# Both reorder floating-point sums, so the stacked kernel would stop
# matching the per-node executor bit for bit.
BITWISE_BANNED = {"einsum", "reduceat"}


def _calls(tree: ast.Module, names: set[str]) -> list[str]:
    """``line: name`` of each call of one of ``names``, spelled bare or
    as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name in names:
                found.append(f"line {node.lineno}: {name}")
    return found


def test_banned_call_check_sees_both_forms():
    tree = ast.parse("np.add.reduceat(x, i)\neinsum('ij->i', a)\n")
    assert _calls(tree, BITWISE_BANNED) == ["line 1: reduceat",
                                            "line 2: einsum"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_order_changing_reductions(path):
    assert _calls(ast.parse(path.read_text()), BITWISE_BANNED) == []


# pyproject.toml declares numpy as the only runtime dependency; the
# package may also import itself by name
ALLOWED_THIRD_PARTY = {"numpy", SRC.name}


def _foreign_imports(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # a relative import is one of the package's own
        for name in names:
            top = name.split(".")[0]
            if (top not in sys.stdlib_module_names
                    and top not in ALLOWED_THIRD_PARTY):
                found.append(f"line {node.lineno}: {name}")
    return found


def test_foreign_import_check_sees_both_forms():
    tree = ast.parse("import scipy.linalg\nfrom networkx import Graph\n"
                     "import numpy as np\nfrom . import so3\nimport json\n"
                     "from geopgo.graph import Pose\n")
    assert _foreign_imports(tree) == ["line 1: scipy.linalg",
                                      "line 2: networkx"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    assert _foreign_imports(ast.parse(path.read_text())) == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """The module-level functions, classes and constants whose names
    start with ``_``, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return [name for name in names
            if name.startswith("_") and not name.endswith("__")]


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_private_definition_check_sees_both_forms():
    tree = ast.parse("def _used(): pass\nclass _Kept: pass\n"
                     "def _left(): pass\n_ROWS = (0, 1)\n_TAIL: int = 2\n"
                     "_LEFT = 3\nx = _used() or so3._Kept or _ROWS[_TAIL]\n")
    refs = _references(tree)
    assert [n for n in _private_definitions(tree) if n not in refs] == [
        "_left", "_LEFT"]


def test_every_private_helper_has_a_caller():
    # a helper whose last caller went away is dead code; the package's
    # own sources, not its tests, must reference it
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    used = set().union(*map(_references, trees))
    unused = [name for tree in trees for name in _private_definitions(tree)
              if name not in used]
    assert unused == []


# Poses and measurements travel as stacks (PoseStack, MeasurementColumns).
# Only graph.py, which defines the per-object types and reads a stack
# row as one on demand, builds them; so do its helpers that return one.
# It alone builds an EdgeArrays too: the whole graph's in build_graph,
# and a block's as a slice of it, so every rev is the graph's own.
PER_OBJECT_BUILDERS = {"Pose", "RelativeMeasurement", "identity", "compose",
                       "inverse", "reversed_measurement", "EdgeArrays"}
OBJECT_HOME = "graph.py"


def test_per_object_build_check_sees_both_forms():
    tree = ast.parse("Pose(t, r)\ngraph.RelativeMeasurement(0, 1, t, r)\n"
                     "Pose.identity()\nPoseStack(t, r)\ncompose(a, b)\n"
                     "EdgeArrays(ids=ids)\ngraph.EdgeArrays(ids=ids)\n"
                     "e.block(0, 1)\n")
    assert _calls(tree, PER_OBJECT_BUILDERS) == [
        "line 1: Pose", "line 2: RelativeMeasurement", "line 3: identity",
        "line 5: compose", "line 6: EdgeArrays", "line 7: EdgeArrays"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != OBJECT_HOME],
    ids=lambda p: p.name)
def test_only_graph_builds_per_object_poses_and_measurements(path):
    assert _calls(ast.parse(path.read_text()), PER_OBJECT_BUILDERS) == []


# One breadth-first search per graph: build_graph makes it once, as
# PoseGraph.tree, and the connectivity check, the cycle check and the
# tree init read it. Only graph.py searches (PoseGraph.tree_from does
# for a root other than 0).
TREE_SEARCH = {"bfs_tree"}


def test_tree_search_check_sees_both_forms():
    tree = ast.parse("bfs_tree(g)\ngraph.bfs_tree(g, root=0)\n"
                     "g.tree\ng.tree_from(1)\n")
    assert _calls(tree, TREE_SEARCH) == ["line 1: bfs_tree",
                                         "line 2: bfs_tree"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != OBJECT_HOME],
    ids=lambda p: p.name)
def test_only_graph_searches_the_tree(path):
    assert _calls(ast.parse(path.read_text()), TREE_SEARCH) == []


# The collector's switches act on the whole process. Only the io helper
# that holds the collector for a decode may flip them, and it restores
# the state it found.
GC_SWITCHES = {"disable", "enable", "freeze", "set_threshold"}
GC_HOLDER = ("io.py", "_collector_held")


def _module_calls(tree: ast.Module, module: str,
                  names: set[str]) -> list[tuple[str, str]]:
    """``(top-level definition, line: call)`` of each call of one of
    ``module``'s functions ``names``, spelled ``module.x`` or imported
    from ``module``."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for alias in node.names if alias.name == module}
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == module
                for alias in node.names}
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in modules):
                name = func.attr
            else:
                name = imported.get(getattr(func, "id", None))
            if name in names:
                found.append((owner, f"line {node.lineno}: {module}.{name}"))
    return found


def _homes(module: str, names: set[str]) -> set[tuple[str, str]]:
    """``(file, top-level definition)`` of every package call of one of
    ``module``'s functions ``names``."""
    return {(path.name, owner) for path in sorted(SRC.glob("*.py"))
            for owner, _ in _module_calls(ast.parse(path.read_text()),
                                          module, names)}


def test_gc_switch_check_sees_both_forms():
    tree = ast.parse("import gc\nfrom gc import freeze as f\n"
                     "def g():\n    gc.disable()\n    f()\n"
                     "gc.collect()\nenable()\n")
    assert _module_calls(tree, "gc", GC_SWITCHES) == [
        ("g", "line 4: gc.disable"), ("g", "line 5: gc.freeze")]


def test_only_the_io_helper_switches_the_collector():
    assert _homes("gc", GC_SWITCHES) == {GC_HOLDER}


# A run has at most AGENTS + 1 live threads, whatever the graph size:
# only the distributed run starts threads, one per block worker, and
# only the block set-up makes the workers' queues. Each is a
# queue.SimpleQueue (implemented in C); a queue.Queue, whose locks and
# conditions are Python code, is made nowhere.
THREAD_HOME = ("runtime.py", "run_distributed")
QUEUE_CLASSES = {"Queue", "SimpleQueue"}
QUEUE_HOME = ("runtime.py", "block_workers")


def test_thread_and_queue_check_sees_both_forms():
    tree = ast.parse("import threading\nimport queue\n"
                     "from queue import SimpleQueue as Q\n"
                     "def run():\n    threading.Thread(target=f)\n"
                     "    Q()\nthreading.Barrier(2)\nqueue.Queue()\n"
                     "queue.Empty()\n")
    assert _module_calls(tree, "threading", {"Thread"}) == [
        ("run", "line 5: threading.Thread")]
    assert _module_calls(tree, "queue", QUEUE_CLASSES) == [
        ("run", "line 6: queue.SimpleQueue"),
        ("<module>", "line 8: queue.Queue")]
    assert _module_calls(tree, "queue", {"Queue"}) == [
        ("<module>", "line 8: queue.Queue")]


def test_only_the_runtime_starts_threads_and_makes_queues():
    assert _homes("threading", {"Thread"}) == {THREAD_HOME}
    assert _homes("queue", QUEUE_CLASSES) == {QUEUE_HOME}
    assert _homes("queue", {"Queue"}) == set()


# Tests patch graph.EDGE_BLOCK to cut small graphs into many runs and
# slices. A module that imported the bound by name would keep the value
# it saw at import, and those tests would silently run one plan; so the
# bound is read as graph.EDGE_BLOCK where it is used.
PATCHED_BOUNDS = {"EDGE_BLOCK"}


def _bound_imports(tree: ast.Module) -> list[str]:
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name in PATCHED_BOUNDS]


def test_bound_import_check_sees_both_forms():
    tree = ast.parse("from .graph import EDGE_BLOCK\n"
                     "from . import graph\n"
                     "from geopgo.graph import sequential_sum, EDGE_BLOCK as B\n"
                     "span = 16 * graph.EDGE_BLOCK\n")
    assert _bound_imports(tree) == ["line 1: EDGE_BLOCK",
                                    "line 3: EDGE_BLOCK"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_binds_the_edge_bound_by_name(path):
    assert _bound_imports(ast.parse(path.read_text())) == []
