"""Every name that facevol exports is used by the program itself: by another
part of the package, by a script or by the benchmark. A name that only the
tests read belongs in tests/oracles.py, not in ``facevol.__all__``."""

import ast
from pathlib import Path

import facevol

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node: ast.AST, inside: frozenset = frozenset()) -> set[str]:
    """Names read as a Name or an Attribute, except within a definition of
    the same name."""
    found = set()
    if isinstance(node, ast.Name) and node.id not in inside:
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr not in inside:
        found.add(node.attr)
    if isinstance(node, DEFINITIONS):
        inside |= {node.name}
    for child in ast.iter_child_nodes(node):
        found |= _references(child, inside)
    return found


def test_every_export_is_used_outside_the_tests():
    sources = [p for p in (ROOT / "src" / "facevol").glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*(_references(ast.parse(p.read_text())) for p in sources))
    assert sorted(set(facevol.__all__) - used) == []
