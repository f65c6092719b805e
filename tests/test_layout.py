"""Every top-level definition in `src/grunwald` is reached from an entry point.

The entry points are the `grunwald` command (`src/grunwald/__main__.py`),
the scripts in `scripts/` and the benchmark in `perfbench/`.  Their
identifiers, attribute names and dotted string constants (the benchmark
names what it traces as "module.function") are the roots; the closure
follows the bodies of the `src/grunwald` definitions those names reach.
Names are matched without their module, so a name reached anywhere counts
everywhere.  The package `__init__` re-exports everything and counts as no
use, and neither do the tests: code that only tests reach belongs in
`tests/`.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "grunwald"
_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _names(node: ast.AST) -> set[str]:
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _DOTTED.fullmatch(sub.value):
                out.update(sub.value.split("."))
    return out


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level functions, classes and assigned names of one module."""
    out: dict[str, ast.AST] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        out[sub.id] = stmt
    return out


def unreached() -> list[str]:
    """`module.name` for each top-level definition no entry point reaches."""
    definitions: dict[str, list[tuple[str, ast.AST]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, node in _definitions(tree).items():
            definitions.setdefault(name, []).append((path.stem, node))
    entry_points = [PACKAGE / "__main__.py"]
    entry_points += sorted((ROOT / "scripts").glob("*.py"))
    entry_points += sorted((ROOT / "perfbench").glob("*.py"))
    pending: set[str] = set()
    for path in entry_points:
        pending |= _names(ast.parse(path.read_text(encoding="utf-8")))
    reached: set[str] = set()
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in definitions.get(name, ()):
            pending |= _names(node)
    return sorted(
        f"{module}.{name}"
        for name, defs in definitions.items()
        for module, _ in defs
        if name not in reached
    )


def test_every_definition_is_reached_from_an_entry_point():
    missing = unreached()
    assert not missing, "reached by no entry point: " + ", ".join(missing)
