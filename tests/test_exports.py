import ast
import importlib
import pathlib
import pkgutil

import pytest

import relaxsolve

MODULES = [relaxsolve] + [
    importlib.import_module(f"relaxsolve.{info.name}")
    for info in pkgutil.iter_modules(relaxsolve.__path__)
]

SOURCES = sorted(pathlib.Path(relaxsolve.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_imported_from_a_sibling_module(path):
    # A name one module shares with another is public; an underscore name
    # imported across modules means two modules know one's internals.
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("relaxsolve"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_exported_name_carries_wrapped(module):
    # The benchmark's span recorder takes a function with __wrapped__ for one
    # it has wrapped, and refuses to time an untraced run while it sees one.
    # functools.wraps and numpy's errstate decorator both set it.
    exported = [getattr(module, name) for name in module.__all__]
    assert [f for f in exported if hasattr(f, "__wrapped__")] == []
