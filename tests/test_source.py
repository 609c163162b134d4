"""Source hygiene for the modules under ``src/expord``.

No module imports a name it never uses.  ``__init__.py`` is skipped there
because its imports are the package's exports, and so are ``__future__``
imports, which are compiler directives.  A name counts as used when it
appears anywhere in the module's code.

No module contains an ``assert`` statement: ``python -O`` strips them, and
every self-check in the library must still run under it.

No module contains a float literal or the name ``float``: every number the
library computes with is exact.  ``random.Random.random()`` in
``generators.random_lp`` is the one float it touches, and only to draw a
``bool``; it is neither a literal nor the name.

No module uses ``functools.lru_cache`` or ``functools.cache``.  An unbounded
cache would let a benchmark's repeated passes time cache hits instead of
work; the one memo the library keeps holds one entry, keyed by identity.

No module but ``documents.py`` reads JSON with ``json.load`` or
``json.loads``: ``documents.load_document`` is the one gate for file input.
Nor does any other module write it with ``json.dump`` or ``json.dumps``:
``documents`` is the one JSON writer as well as the one reader.

``expord.__all__`` is exactly the set of names ``__init__.py`` imports, so
no export is listed without being imported, or imported without being listed.
"""

import ast
from pathlib import Path

import pytest

import expord

PACKAGE = Path(expord.__file__).parent
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _referenced(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_no_float_literals_or_float_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Name) and node.id == "float"
    ]
    assert not lines, f"{path.name} uses floats at lines {lines}"


BANNED_CACHES = {"lru_cache", "cache"}


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_no_functools_caches(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        and any(alias.name in BANNED_CACHES for alias in node.names)
        or isinstance(node, ast.Attribute) and node.attr in BANNED_CACHES
        and isinstance(node.value, ast.Name) and node.value.id == "functools"
    ]
    assert not lines, f"{path.name} uses a functools cache at lines {lines}"


JSON_READERS = {"load", "loads"}
JSON_WRITERS = {"dump", "dumps"}
NOT_DOCUMENTS = [p for p in ALL_MODULES if p.name != "documents.py"]


def _json_uses(path, names: set[str]) -> list[int]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "json"
        and any(alias.name in names for alias in node.names)
        or isinstance(node, ast.Attribute) and node.attr in names
        and isinstance(node.value, ast.Name) and node.value.id == "json"
    ]


@pytest.mark.parametrize("path", NOT_DOCUMENTS, ids=[p.name for p in NOT_DOCUMENTS])
def test_only_documents_reads_json(path):
    lines = _json_uses(path, JSON_READERS)
    assert not lines, f"{path.name} reads JSON at lines {lines}"


@pytest.mark.parametrize("path", NOT_DOCUMENTS, ids=[p.name for p in NOT_DOCUMENTS])
def test_only_documents_writes_json(path):
    lines = _json_uses(path, JSON_WRITERS)
    assert not lines, f"{path.name} writes JSON at lines {lines}"


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(set(expord.__all__)) == len(expord.__all__), "__all__ lists a name twice"
    assert set(expord.__all__) == set(_imported(tree))
