"""Rules on the package source itself."""

import ast
from pathlib import Path

import bsrsat

SOURCES = sorted(p for d in bsrsat.__path__ for p in Path(d).glob("*.py"))


def test_no_bare_asserts_in_package():
    # ``assert`` disappears under ``python -O``; checks in the package
    # raise typed errors instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_no_function_level_imports_in_package():
    # imports belong at the top of a module, where its dependencies show
    found = [
        f"{path.name}:{inner.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert SOURCES
    assert found == []
