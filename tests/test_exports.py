"""The package's export list names exactly what the package imports."""

from __future__ import annotations

import ast
import inspect

import conceptcheck as cc


def imported_public_names() -> set[str]:
    """Every public name that `conceptcheck/__init__.py` imports from its modules."""
    tree = ast.parse(inspect.getsource(cc))
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_export_list_is_sorted_unique_and_matches_the_imports():
    exports = cc.__all__
    assert exports == sorted(exports)
    assert len(exports) == len(set(exports))
    assert all(hasattr(cc, name) for name in exports)
    assert set(exports) == imported_public_names()
