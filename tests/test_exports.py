"""The package's export list names exactly what the package imports."""

from __future__ import annotations

import ast
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import conceptcheck as cc

PACKAGE_DIR = Path(cc.__file__).parent


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


# The package's __init__ imports every module in one fixed order, so a cycle
# between two modules shows only when the other one is imported first. Each
# module is therefore imported first, in a fresh interpreter, under a bare
# package object that skips __init__.
IMPORT_FIRST = """
import importlib, sys, types
package = types.ModuleType("conceptcheck")
package.__path__ = [sys.argv[1]]
sys.modules["conceptcheck"] = package
importlib.import_module("conceptcheck." + sys.argv[2])
"""


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE_DIR)])))
def test_every_module_imports_on_its_own(module):
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_FIRST, str(PACKAGE_DIR), module],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


# Modules that only building a client needs, or that the package no longer
# uses; a command that opens no connection must not pay for their import.
NOT_ON_IMPORT = {"http.client", "ssl", "socket", "email", "conceptcheck.transport", "importlib.resources"}
SHOW_MODULES = "import sys; print('\\n'.join(sys.modules))"


def modules_added(statements: str) -> set[str]:
    """The modules a fresh interpreter holds after `statements` beyond those a bare
    one holds, so a module that a site hook preloads counts on neither side."""
    search_path = filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(search_path)}

    def loaded(code: str) -> set[str]:
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
        assert result.returncode == 0, result.stderr
        return set(result.stdout.split())

    return loaded(f"{statements}; {SHOW_MODULES}") - loaded(SHOW_MODULES)


@pytest.mark.parametrize("module", ["conceptcheck", "conceptcheck.cli"])
def test_importing_the_package_loads_no_http_stack(module):
    added = modules_added(f"import {module}")
    assert module in added
    assert added & NOT_ON_IMPORT == set()
    # The package depends on nothing beyond the standard library.
    assert {m for m in added if m.split(".")[0] not in {*sys.stdlib_module_names, "conceptcheck"}} == set()


def test_building_a_remote_backend_loads_the_transport():
    assert "conceptcheck.transport" in modules_added("import conceptcheck; conceptcheck.RemoteBackend('http://127.0.0.1:1/x', 'm')")
