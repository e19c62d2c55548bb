"""Every top-level function and class in ``src/kronopt`` is referenced by
name somewhere else in the package, so nothing there is code that only the
tests reach.  An oracle that only tests call lives in ``tests/oracles.py``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kronopt"


def unreferenced(src: Path) -> list[str]:
    """``module.name`` of each top-level def or class in ``src/*.py`` that no
    ``Name`` or ``Attribute`` outside its own body names.  Imports and strings
    do not count as references."""
    defs, uses = [], []  # uses: (module, top-level statement, names it reads)
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.stem, stmt))
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            uses.append((stmt, names))
    return [
        f"{module}.{d.name}"
        for module, d in defs
        if not any(d.name in names for stmt, names in uses if stmt is not d)
    ]


def test_every_top_level_definition_is_referenced_in_the_package():
    assert unreferenced(SRC) == []


def test_a_name_in_a_string_or_an_import_or_its_own_body_is_no_reference(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Named:\n    '''see only_mentioned'''\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import Named\n\n\n"
        "def only_mentioned():\n    raise ValueError('only_mentioned')\n"
    )
    assert unreferenced(tmp_path) == ["a.recursive", "a.Named", "b.only_mentioned"]
