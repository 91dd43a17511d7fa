"""Static checks on the package sources that need only the standard library."""

import ast
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


def _banned_calls(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name in BITWISE_BANNED:
                found.append(f"line {node.lineno}: {name}")
    return found


def test_banned_call_check_sees_both_forms():
    tree = ast.parse("np.add.reduceat(x, i)\neinsum('ij->i', a)\n")
    assert _banned_calls(tree) == ["line 1: reduceat", "line 2: einsum"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_order_changing_reductions(path):
    assert _banned_calls(ast.parse(path.read_text())) == []
