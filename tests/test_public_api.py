"""Every name that facevol exports is used by the program itself: by another
part of the package, by a script or by the benchmark. A name that only the
tests read belongs in tests/oracles.py, not in ``facevol.__all__``. Every
private module-level function or constant is read by the package itself."""

import ast
from pathlib import Path

import facevol

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "facevol").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node: ast.AST, inside: frozenset = frozenset()) -> set[str]:
    """Names read (loaded, not assigned) as a Name or an Attribute, except
    within a definition of the same name."""
    found = set()
    loaded = isinstance(getattr(node, "ctx", None), ast.Load)
    if loaded and isinstance(node, ast.Name) and node.id not in inside:
        found.add(node.id)
    elif loaded and isinstance(node, ast.Attribute) and node.attr not in inside:
        found.add(node.attr)
    if isinstance(node, DEFINITIONS):
        inside |= {node.name}
    for child in ast.iter_child_nodes(node):
        found |= _references(child, inside)
    return found


def _private_definitions(tree: ast.Module) -> set[str]:
    """Functions and constants that the module defines at its top level under
    a name with one leading underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_private_name_is_read_by_the_package():
    trees = [ast.parse(p.read_text()) for p in PACKAGE]
    defined = set().union(*map(_private_definitions, trees))
    used = set().union(*map(_references, trees))
    assert {"_PRIME", "_eliminate_fraction_free"} <= defined
    assert sorted(defined - used) == []


def test_every_export_is_used_outside_the_tests():
    sources = [p for p in PACKAGE if p.name != "__init__.py"]
    sources += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*(_references(ast.parse(p.read_text())) for p in sources))
    assert sorted(set(facevol.__all__) - used) == []
