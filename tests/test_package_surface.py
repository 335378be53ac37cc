"""Library code is code the library runs: every top-level function, class and
module-level assignment of the package is referenced elsewhere in the package
or exported in ``bmvsim.__all__``.  Helpers and constants only the tests read
belong in ``tests/``."""

import ast
from pathlib import Path

import bmvsim


def defined_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function or class, or the
    targets of an assignment other than dunder names such as ``__all__``."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def unreferenced_definitions(src: Path) -> set[str]:
    """``module.name`` of each name a top-level statement of ``src`` defines
    that no other top-level statement of ``src`` names or reads as an
    attribute."""
    users: dict[str, set[tuple[str, int]]] = {}
    definitions = []
    for path in sorted(src.glob("*.py")):
        for index, stmt in enumerate(ast.parse(path.read_text()).body):
            definitions += [(path.stem, index, name) for name in defined_names(stmt)]
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name:
                    users.setdefault(name, set()).add((path.stem, index))
    return {
        f"{module}.{name}"
        for module, index, name in definitions
        if not users.get(name, set()) - {(module, index)} and name not in bmvsim.__all__
    }


def test_every_top_level_definition_is_used_or_exported():
    unused = unreferenced_definitions(Path(bmvsim.__file__).parent)
    assert unused == set()


def test_defined_names_cover_assignments_but_not_dunders():
    stmts = ast.parse("A = 1\nB, _c = 2, 3\nD: int = 4\n__all__ = []\ndef f(): pass\nclass K: pass\nf()\n").body
    assert [defined_names(stmt) for stmt in stmts] == [["A"], ["B", "_c"], ["D"], [], ["f"], ["K"], []]
