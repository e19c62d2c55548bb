"""Every top-level function and class in ``src/kronopt`` is referenced by
name somewhere else in the package, so nothing there is code that only the
tests reach.  An oracle that only tests call lives in ``tests/oracles.py``.
Weight updates have one apply site, ``training.run_training``, and the C
kernel ``_pinned.c`` has one vector tile sum and defines exactly the entry
points ``linalg._ENTRIES`` lists."""

import ast
import re
from pathlib import Path

from kronopt import linalg

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


def _top_level_functions(src: Path):
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                yield path.stem, stmt


# Optimizers form updates and the training loop applies them: one apply site,
# and no other optim function is handed a network or a list of networks.
def test_apply_update_is_called_only_from_run_training():
    callers = [
        f"{module}.{fn.name}"
        for module, fn in _top_level_functions(SRC)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "apply_update"
    ]
    assert callers == ["training.run_training"]


def test_only_apply_update_takes_a_network_in_optim():
    takers = [
        fn.name
        for module, fn in _top_level_functions(SRC)
        if module == "optim"
        for arg in fn.args.args
        if arg.annotation is not None and "NetworkState" in ast.unparse(arg.annotation)
    ]
    assert takers == ["apply_update"]


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


# _pinned.c has one tile sum, isa_block, which the product, the gram matrix
# and both triangular kernels share.
def test_the_pinned_kernel_writes_its_vector_tile_sum_once():
    assert (SRC / "_pinned.c").read_text().count("acc[r][0] = acc[r][0] + x * b0") == 1


# linalg._ENTRIES is the one list of entry points: every name KERNELS defines
# (as pinned_<name>_##isa) is on it and nothing else is, and the path is
# chosen once, by pinned_path(), with no ifunc resolver beside it.
def test_the_pinned_kernels_entry_points_are_linalgs_entries():
    source = (SRC / "_pinned.c").read_text()
    assert sorted(re.findall(r"\bpinned_(\w+)_##isa\b", source)) == sorted(linalg._ENTRIES)
    assert "ifunc" not in source
