"""Library code is code the library runs: every top-level function and class
of the package is referenced elsewhere in the package or exported in
``bmvsim.__all__``.  Helpers only the tests call belong in ``tests/``."""

import ast
from pathlib import Path

import bmvsim

def unreferenced_definitions(src: Path) -> set[str]:
    """``module.name`` of each top-level function or class of ``src`` that no
    other top-level statement of ``src`` names or reads as an attribute."""
    users: dict[str, set[tuple[str, int]]] = {}
    definitions = []
    for path in sorted(src.glob("*.py")):
        for index, stmt in enumerate(ast.parse(path.read_text()).body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.stem, index, stmt.name))
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
