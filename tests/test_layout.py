"""Every top-level definition in `src/grunwald` is reached from an entry point,
and every private name the prose mentions is defined there.

The entry points are the `grunwald` command (`src/grunwald/__main__.py`),
the scripts in `scripts/` and the benchmark in `perfbench/`.  Their
identifiers, attribute names and dotted string constants (the benchmark
names what it traces as "module.function") are the roots; the closure
follows the bodies of the `src/grunwald` definitions those names reach.
Names are matched without their module, so a name reached anywhere counts
everywhere.  The package `__init__` re-exports everything and counts as no
use, and neither do the tests: code that only tests reach belongs in
`tests/`.

The prose is every docstring and comment in `src/grunwald` and every
backticked span of README.md.  A `_name` there must be a top-level
definition or a nested function in `src/grunwald`, so a helper that is
renamed or folded away leaves no mention behind.

Every `functools.lru_cache` a `src/grunwald` module binds has a finite
maxsize, so no cache grows for the life of a process.

Importing `grunwald.cli` loads neither `dataclasses` nor `inspect`, which
together cost about as much as the rest of the package's import: every
`grunwald` command pays its import in a fresh process.
"""

from __future__ import annotations

import ast
import importlib
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "grunwald"
_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")
_PRIVATE = re.compile(r"(?<!\w)_[A-Za-z]\w*")


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


def _prose(source: str, tree: ast.Module) -> list[str]:
    """The docstrings and comments of one module."""
    docs = [
        ast.get_docstring(node, clean=False)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    comments = [
        tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    ]
    return [text for text in docs if text] + comments


def stale_names() -> list[str]:
    """`where: _name` for each private name the prose mentions that is no
    top-level definition or nested function of `src/grunwald`."""
    defined: set[str] = set()
    prose: list[tuple[str, str]] = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        defined |= set(_definitions(tree))
        defined |= {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        prose += [(path.name, text) for text in _prose(source, tree)]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    prose += [("README.md", span) for span in re.findall(r"`([^`\n]+)`", readme)]
    return sorted(
        {
            f"{where}: {name}"
            for where, text in prose
            for name in _PRIVATE.findall(text)
            if name not in defined
        }
    )


def test_prose_names_only_defined_private_names():
    stale = stale_names()
    assert not stale, "mentioned but not defined: " + ", ".join(stale)


def lru_caches() -> dict[str, object]:
    """`module.qualname` -> cache for every `functools.lru_cache` a
    `src/grunwald` module binds, at top level or in a class body."""
    out: dict[str, object] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"grunwald.{path.stem}")
        scopes = [vars(module)]
        scopes += [vars(value) for value in vars(module).values() if isinstance(value, type)]
        for scope in scopes:
            for value in scope.values():
                if callable(getattr(value, "cache_info", None)):
                    name = f"{value.__module__}.{value.__qualname__}"
                    out[name.removeprefix("grunwald.")] = value
    return out


def test_every_lru_cache_is_bounded():
    caches = lru_caches()
    # the check sees the caches it is meant to bound
    assert {"solver._auxiliary_primes", "core_arith.factor", "core_arith.components"} <= set(caches)
    unbounded = sorted(name for name, cache in caches.items() if cache.cache_info().maxsize is None)
    assert not unbounded, "unbounded lru_cache: " + ", ".join(unbounded)


def test_cli_import_loads_no_dataclasses():
    # compared with a bare interpreter's modules, in fresh processes
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def loaded(code: str) -> set[str]:
        out = subprocess.run(
            [sys.executable, "-c", code + "; print(*sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        )
        return set(out.stdout.split())

    added = loaded("import sys, grunwald.cli") - loaded("import sys")
    assert "grunwald.cli" in added
    assert not added & {"dataclasses", "inspect"}
