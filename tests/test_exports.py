"""The package's export table, and the modules that importing it and running each command load."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import conceptcheck as cc

PACKAGE_DIR = Path(cc.__file__).parent


def test_export_list_is_sorted_unique_and_matches_the_imports():
    exports = cc.__all__
    assert exports == sorted(exports)
    assert len(exports) == len(set(exports))
    assert exports == sorted(name for names in cc._EXPORTS.values() for name in names)
    for module, names in cc._EXPORTS.items():
        namespace = vars(importlib.import_module(f"conceptcheck.{module}"))
        assert all(getattr(cc, name) is namespace[name] for name in names), module
    assert set(exports) <= set(dir(cc))
    assert not {"available_fixtures", "classify_cluster", "load_finance_graph"} & set(exports)


# A cycle between two modules shows only when one of them is imported first,
# and the package's __init__ imports none, so each module is imported first in
# a fresh interpreter.
@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE_DIR)])))
def test_every_module_imports_on_its_own(module):
    modules_added(f"import conceptcheck.{module}")


# Modules that only building a client needs, or that the package no longer
# uses; a command that opens no connection must not pay for their import.
NOT_ON_IMPORT = {"http.client", "ssl", "socket", "email", "conceptcheck.transport", "importlib.resources"}
SHOW_MODULES = "import sys; print('\\n'.join(sys.modules))"


def python(code: str, *args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter that imports the package from this checkout."""
    search_path = filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(search_path)}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60,
                          env=env, cwd=cwd)


def modules_added(statements: str) -> set[str]:
    """The modules a fresh interpreter holds after `statements` beyond those a bare
    one holds, so a module that a site hook preloads counts on neither side."""

    def loaded(code: str) -> set[str]:
        result = python(code)
        assert result.returncode == 0, result.stderr
        return set(result.stdout.split())

    return loaded(f"{statements}; {SHOW_MODULES}") - loaded(SHOW_MODULES)


def assert_no_http_stack(added: set[str]) -> None:
    assert added & NOT_ON_IMPORT == set()
    # The package depends on nothing beyond the standard library.
    assert {m for m in added if m.split(".")[0] not in {*sys.stdlib_module_names, "conceptcheck"}} == set()


# `import conceptcheck` alone loads no submodule, so the case that reads an
# export is the one that checks every module of the library.
@pytest.mark.parametrize("statements, loads", [
    pytest.param("import conceptcheck", {"conceptcheck"}, id="conceptcheck"),
    pytest.param("import conceptcheck; conceptcheck.Answer", {"conceptcheck.backends", "conceptcheck.ingest",
                                                              "conceptcheck.scenarios"}, id="conceptcheck.Answer"),
    pytest.param("import conceptcheck.cli", {"conceptcheck.cli"}, id="conceptcheck.cli"),
])
def test_importing_the_package_loads_no_http_stack(statements, loads):
    added = modules_added(statements)
    assert loads <= added
    assert_no_http_stack(added)


def test_building_a_remote_backend_loads_the_transport():
    assert "conceptcheck.transport" in modules_added("import conceptcheck; conceptcheck.RemoteBackend('http://127.0.0.1:1/x', 'm')")


def package_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "conceptcheck"}


# Every module but cli and transport: what reading any export loads.
LIBRARY = {f"conceptcheck.{m}" for m in (
    "answers", "backends", "clusters", "errors", "evaluation", "fixtures", "hierarchy", "ingest", "reporting",
    "scenarios",
)}


@pytest.mark.parametrize("name", ["Answer", "write_scenario_results", "__all__"])
def test_importing_the_package_loads_no_module_until_an_export_is_read(name):
    # __all__ is a plain global, so reading it loads nothing; reading any export loads the library.
    assert package_modules(modules_added("import conceptcheck")) == {"conceptcheck"}
    expected = {"conceptcheck"} if name == "__all__" else {"conceptcheck", *LIBRARY}
    assert package_modules(modules_added(f"import conceptcheck; conceptcheck.{name}")) == expected


# Runs one command as the console script does, its output sent to stderr, then
# prints the modules it added to those the interpreter held.
RUN_COMMAND = """
import sys
before = set(sys.modules)
import conceptcheck.cli
stdout, sys.stdout = sys.stdout, sys.stderr
try:
    conceptcheck.cli.main(sys.argv[1:], prog_name="conceptcheck")
finally:
    print("\\n".join(set(sys.modules) - before), file=stdout)
"""
CLI = {"conceptcheck", *(f"conceptcheck.{m}" for m in ("answers", "errors", "hierarchy", "clusters", "evaluation",
                                                         "fixtures", "cli"))}
GRAPH = "fixture:medical_graph.json"
PERFECT = json.dumps({"kind": "perfect"})
NOISY = json.dumps({"kind": "noisy", "flip_probability": 0.3, "seed": 7})
# Nothing listens on port 1, so every call fails and is recorded: exit 1.
REMOTE = json.dumps({"kind": "remote", "endpoint": "http://127.0.0.1:1/x", "model": "m", "retries": 0,
                     "concurrency": 2})
# The README quickstart in order, each command with the modules it adds to those of `import conceptcheck.cli`.
QUICKSTART = [
    (["extract", "--dump", "fixture:medical_dump.jsonl", "--seed-concept", "Q3332438", "--seed-property", "P425",
      "--out", "graph.json"], {"ingest"}),
    (["generate", "--graph", GRAPH, "--seed", "1", "--negative-count", "66", "--out", "dataset.json"], set()),
    (["evaluate", "--dataset", "dataset.json", "--graph", GRAPH, "--backend", PERFECT, "--backend", NOISY,
      "--out-dir", "runs/base"], {"backends", "reporting"}),
    (["augment", "--dataset", "dataset.json", "--graph", GRAPH, "--baseline", "runs/base/results-noisy-p0.3-s7.jsonl",
      "--out-dir", "runs/aug"], {"backends", "reporting"}),
    (["report", "--dataset", "dataset.json", "--results", "runs/base/results-perfect.jsonl",
      "--results", "runs/base/results-noisy-p0.3-s7.jsonl", "--out-dir", "runs/rep"], {"reporting"}),
    (["scenarios", "--graph", GRAPH, "--out-dir", "runs/scen"], {"backends", "reporting", "scenarios"}),
]


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    assert package_modules(modules_added("import conceptcheck.cli")) == CLI
    for args, adds in QUICKSTART:
        result = python(RUN_COMMAND, *args, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        added = set(result.stdout.split())
        assert package_modules(added) == CLI | {f"conceptcheck.{m}" for m in adds}, args[0]
        # The oracle backends answer one call at a time, so no thread pool is loaded.
        assert "concurrent.futures" not in added, args[0]
        assert_no_http_stack(added)
    # Only a remote backend loads the transport, and only one asked by several workers the thread pool.
    remote = ["evaluate", "--dataset", "dataset.json", "--backend", REMOTE, "--out-dir", "runs/remote"]
    result = python(RUN_COMMAND, *remote, cwd=tmp_path)
    assert result.returncode == 1, result.stderr
    added = set(result.stdout.split())
    assert package_modules(added) == CLI | {"conceptcheck.backends", "conceptcheck.reporting", "conceptcheck.transport"}
    assert "concurrent.futures" in added


# Records the patterns `re.compile` builds, then imports evaluation, then reads
# one results file, printing how many answer-line patterns each step compiled.
ANSWER_PATTERN_COMPILES = """
import re, sys
compiled, compile = [], re.compile
re.compile = lambda pattern, flags=0: compiled.append(pattern) or compile(pattern, flags)
answer_patterns = lambda: sum('"cluster_id":' in p for p in compiled if isinstance(p, str))
import conceptcheck.evaluation as ev
print(answer_patterns())
record = ev.AnswerRecord("c", 0, "yes", ev.Answer.YES, True)
ev.write_results(ev.ResultSet.from_records("b", "d", "p", None, (record,)), sys.argv[1])
assert ev.read_results(sys.argv[1]).records == (record,)
ev.read_results(sys.argv[1])
print(answer_patterns())
"""


def test_the_answer_line_pattern_is_compiled_by_the_first_read_not_on_import(tmp_path):
    result = python(ANSWER_PATTERN_COMPILES, str(tmp_path / "results.jsonl"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "1"]
