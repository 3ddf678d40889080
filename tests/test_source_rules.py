"""Rules on the package source itself."""

import ast
from pathlib import Path

import bsrsat
import bsrsat.decide as decide_mod

SOURCES = sorted(p for d in bsrsat.__path__ for p in Path(d).glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
READERS = sorted(
    p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")
)


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


def test_no_unused_imports_in_package():
    # a top-level import that no code of its module reads is dead weight
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno}:{name}")
    assert SOURCES
    assert found == []


def test_no_unreferenced_methods_in_package():
    # a method that no code reads as an attribute has no caller
    read = {
        node.attr
        for path in READERS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }
    found = [
        f"{path.name}:{cls.name}.{fn.name}"
        for path in SOURCES
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in read
    ]
    assert SOURCES
    assert found == []


# Top-level names of the package that only tests read, and why they stay.
TEST_SUPPORT = {
    "check_assignment": "reference checker of propositional models",
    "bd_instances": "test corpus of bd clause sets",
    "slr_instances": "test corpus of slr clause sets",
    "ground_systems": "test corpus of ground linear systems",
    "delay_sets_equal_check": "the delay-set lemma: two characterizations of delay successors",
    "mono_product": "the product form of the Ramsey construction",
}


def test_no_unreferenced_top_level_names_in_package():
    # a top-level function or class that no program code reads has no
    # caller, unless it is named in TEST_SUPPORT
    read = set()
    for path in READERS:
        if path.is_relative_to(ROOT / "tests"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defs = [
        (path.name, node.name)
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    found = [f"{m}:{n}" for m, n in defs if n not in read and n not in TEST_SUPPORT]
    assert SOURCES
    assert found == []
    assert sorted(TEST_SUPPORT.keys() - {n for _, n in defs}) == []


def test_tracer_names_are_called_by_decide():
    # perfbench/tracing.py times decide's layers by swapping these globals of
    # bsrsat.decide for wrappers; a name that decide no longer calls would
    # silently drop its layer from the trace
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tracing.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANNED", "STREAMS", "HOT")
    }
    names = {name for table in tables.values() for name in table}
    decide_tree = ast.parse(Path(decide_mod.__file__).read_text(encoding="utf-8"))
    called = {
        node.func.id
        for node in ast.walk(decide_tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    missing = sorted(n for n in names if n not in called or not hasattr(decide_mod, n))
    assert sorted(tables) == ["HOT", "SPANNED", "STREAMS"]
    assert missing == []
