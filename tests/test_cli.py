"""End-to-end command-line pipeline runs against the bundled fixtures."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest

import conceptcheck as cc
import conceptcheck.evaluation
import conceptcheck.scenarios
from conceptcheck.cli import main
from clirunner import CliRunner
from conftest import REFUSED_JSON_VALUES, ladder_edges, make_graph
from stubserver import serving

GRAPH = "fixture:medical_graph.json"
DUMP = "fixture:medical_dump.jsonl"
_REMOTE = {"kind": "remote", "endpoint": "http://127.0.0.1:1/x", "model": "m", "retries": 0}


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args, code=0):
    result = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == code, f"exit {result.exit_code}: {result.output}\n{result.stderr}"
    return result


@pytest.fixture()
def dataset_file(runner, tmp_path):
    out = tmp_path / "dataset.json"
    run(runner, "generate", "--graph", GRAPH, "--seed", 1, "--negative-count", 66, "--out", out)
    return out


# --- extract ---------------------------------------------------------------------


def test_extract_from_dump(runner, tmp_path):
    out = tmp_path / "graph.json"
    result = run(
        runner, "extract", "--dump", DUMP,
        "--seed-concept", "Q3332438", "--seed-property", "P425", "--out", out,
    )
    assert "13 concepts, 15 edges" in result.output
    graph = cc.load_graph(out)
    assert len(graph.properties) == 5
    manifest = json.loads((tmp_path / "graph.manifest.json").read_text())
    assert manifest["source"] == {"kind": "dump", "path": DUMP}
    assert manifest["concepts"] == 13
    assert manifest["edges"] == 15
    assert manifest["properties"] == 5
    assert manifest["fingerprint"] == graph.fingerprint
    assert manifest["diagnostics"] == []
    assert manifest["extraction"]["seed_concept"] == "Q3332438"


def test_extract_is_deterministic(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run(runner, "extract", "--dump", DUMP, "--seed-concept", "Q3332438", "--out", out)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.manifest.json").read_bytes() == (tmp_path / "b.manifest.json").read_bytes()


def test_extract_native_passthrough(runner, tmp_path):
    out = tmp_path / "copy.json"
    run(runner, "extract", "--native", GRAPH, "--out", out)
    graph = cc.load_graph(out)
    assert graph.fingerprint == cc.load_medical_graph().fingerprint
    manifest = json.loads((tmp_path / "copy.manifest.json").read_text())
    assert manifest["source"]["kind"] == "native"
    assert manifest["extraction"] is None


def test_extract_requires_exactly_one_source(runner, tmp_path):
    out = tmp_path / "graph.json"
    result = run(runner, "extract", "--out", out, code=2)
    assert "error:" in result.stderr
    result = run(runner, "extract", "--dump", DUMP, "--native", GRAPH, "--out", out, code=2)
    assert "exactly one" in result.stderr


def test_extract_rejects_missing_seed(runner, tmp_path):
    result = run(runner, "extract", "--dump", DUMP, "--out", tmp_path / "g.json", code=2)
    assert "seed_concept" in result.stderr


def test_extract_unknown_seed(runner, tmp_path):
    result = run(
        runner, "extract", "--dump", DUMP, "--seed-concept", "Q404",
        "--out", tmp_path / "g.json", code=2,
    )
    assert "not in the dump" in result.stderr


def test_extract_refuses_a_non_http_endpoint_before_making_its_cache(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run(
        runner, "extract", "--endpoint", "ftp://h/x", "--seed-concept", "Q1",
        "--cache-dir", "c", "--out", "g.json", code=2,
    )
    assert result.stderr == "error: endpoint must be an http or https URL: 'ftp://h/x'\n"
    assert not (tmp_path / "c").exists()


def test_extract_from_live_endpoint(runner, tmp_path):
    def record(id, label, parents=()):
        claims = {
            "P279": [
                {"mainsnak": {"datavalue": {"value": {"entity-type": "item", "id": p}}}}
                for p in parents
            ]
        }
        return {"id": id, "labels": {"en": {"value": label}}, "claims": claims}

    def app(method, path, query, body):
        page = int(query["page"])
        if page == 1:
            return 200, {"entities": [record("Q1", "root"), record("Q2", "left", ["Q1"])], "next_page": 2}
        return 200, {"entities": [record("Q3", "right", ["Q1"])], "next_page": None}

    out = tmp_path / "graph.json"
    with serving(app) as (url, log):
        run(
            runner, "extract", "--endpoint", f"{url}/entities", "--seed-concept", "Q1",
            "--cache-dir", tmp_path / "pages", "--out", out,
        )
        assert log.count == 2
    graph = cc.load_graph(out)
    assert len(graph.concepts) == 3
    manifest = json.loads((tmp_path / "graph.manifest.json").read_text())
    assert manifest["source"]["kind"] == "live"


def test_extract_reads_a_dump_and_a_crawl_of_the_same_records_alike(runner, tmp_path):
    def record(label=None, parent=None, **fields):
        if label is not None:
            fields["labels"] = {"en": {"value": label}}
        if parent is not None:
            fields["claims"] = {"P279": [{"mainsnak": {"datavalue": {"value": {"id": parent}}}}]}
        return fields

    pages = [
        [record("root", id="Q1"), record("two", "Q1", id="Q2"), record(None, "Q1", id="Q3")],
        [record("nameless", "Q1"), record("other two", "Q1", id="Q2"), record("four", "Q2", id="Q4")],
    ]

    def app(method, path, query, body):
        page = int(query["page"])
        return 200, {"entities": pages[page - 1], "next_page": page + 1 if page < len(pages) else None}

    dump = tmp_path / "dump.jsonl"
    dump.write_text("".join(json.dumps(r) + "\n" for page in pages for r in page), encoding="utf-8")
    for side in ("dump", "live"):
        (tmp_path / side).mkdir()
    run(runner, "extract", "--dump", dump, "--seed-concept", "Q1", "--out", tmp_path / "dump" / "graph.json")
    with serving(app) as (url, _):
        run(
            runner, "extract", "--endpoint", f"{url}/entities", "--seed-concept", "Q1",
            "--out", tmp_path / "live" / "graph.json",
        )
    assert (tmp_path / "dump" / "graph.json").read_bytes() == (tmp_path / "live" / "graph.json").read_bytes()
    assert [c.label for c in cc.load_graph(tmp_path / "live" / "graph.json").concepts] == ["root", "two", "four"]
    dump_manifest, live_manifest = (
        json.loads((tmp_path / side / "graph.manifest.json").read_text()) for side in ("dump", "live")
    )
    assert dump_manifest["diagnostics"] == [
        "line 3: record Q3 has no labels; skipped",
        "line 4: record without a usable id",
        "line 5: duplicate entity Q2; keeping the first",
    ]
    assert live_manifest["diagnostics"] == [
        "page 1: record Q3 has no labels; skipped",
        "page 2: record without a usable id",
        "page 2: duplicate entity Q2; keeping the first",
    ]


@pytest.mark.parametrize("command, inputs", [
    ("extract", ["--dump", DUMP, "--seed-concept", "Q3332438"]),
    ("generate", ["--graph", GRAPH, "--seed", 1]),
])
def test_out_makes_its_missing_directory(runner, tmp_path, command, inputs):
    run(runner, command, *inputs, "--out", tmp_path / "here.json")
    out = tmp_path / "new" / "dir" / "here.json"
    run(runner, command, *inputs, "--out", out)
    assert out.read_bytes() == (tmp_path / "here.json").read_bytes()
    if command == "extract":
        assert (out.parent / "here.manifest.json").exists()


@pytest.mark.parametrize("command, out, made", [
    ("extract", "afile/g.json", "afile"),
    ("generate", "afile/d.json", "afile"),
    ("generate", "afile/sub/d.json", "afile/sub"),
    ("evaluate", "afile", "afile"),
    ("augment", "afile", "afile"),
    ("scenarios", "afile", "afile"),
    ("report", "afile", "afile"),
])
def test_an_output_path_under_a_file_exits_2_naming_it(runner, tmp_path, dataset_file, command, out, made):
    (tmp_path / "afile").write_text("a file\n")
    baseline = tmp_path / "eval" / "results-noisy-p0.3-s7.jsonl"
    if command in ("augment", "report"):
        run(
            runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
            "--backend", '{"kind": "noisy", "flip_probability": 0.3, "seed": 7}', "--out-dir", baseline.parent,
        )
    inputs = {
        "extract": ["--dump", DUMP, "--seed-concept", "Q3332438", "--out"],
        "generate": ["--graph", GRAPH, "--seed", 1, "--out"],
        "evaluate": ["--dataset", dataset_file, "--graph", GRAPH, "--out-dir"],
        "augment": ["--dataset", dataset_file, "--graph", GRAPH, "--baseline", baseline, "--out-dir"],
        "scenarios": ["--graph", GRAPH, "--out-dir"],
        "report": ["--dataset", dataset_file, "--results", baseline, "--out-dir"],
    }[command]
    result = run(runner, command, *inputs, tmp_path / out, code=2)
    reason = "Not a directory" if made.endswith("sub") else "File exists"
    assert result.stderr == f"error: cannot make directory {tmp_path / made}: {reason}\n"
    assert (tmp_path / "afile").read_text() == "a file\n"


@pytest.mark.parametrize("command, out, written", [
    ("extract", "adir", "adir"),
    ("generate", "adir", "adir"),
    ("evaluate", "runs", "runs/results-perfect.jsonl"),
])
def test_an_output_path_naming_a_directory_exits_2_naming_it(runner, tmp_path, dataset_file, command, out, written):
    (tmp_path / written).mkdir(parents=True)
    inputs = {
        "extract": ["--dump", DUMP, "--seed-concept", "Q3332438", "--out"],
        "generate": ["--graph", GRAPH, "--seed", 1, "--out"],
        "evaluate": ["--dataset", dataset_file, "--graph", GRAPH, "--out-dir"],
    }[command]
    result = run(runner, command, *inputs, tmp_path / out, code=2)
    assert result.stderr == f"error: cannot write {tmp_path / written}: Is a directory\n"
    assert not any((tmp_path / written).iterdir())


# --- generate ----------------------------------------------------------------------


def test_generate_echoes_counts(runner, tmp_path):
    out = tmp_path / "dataset.json"
    result = run(
        runner, "generate", "--graph", GRAPH, "--seed", 1, "--negative-count", 66, "--out", out
    )
    for line in (
        "positive_edge: 15",
        "inverse_edge: 15",
        "negative_edge: 66",
        "path: 6",
        "property_inheritance: 9",
        f"total: 111 clusters, 444 questions -> {out}",
    ):
        assert line in result.output
    dataset = cc.read_dataset(out)
    assert dataset == cc.generate_dataset(cc.load_medical_graph(), cc.MEDICAL_GENERATION)


def test_generate_path_granularity_flag(runner, tmp_path):
    out = tmp_path / "dataset.json"
    result = run(
        runner, "generate", "--graph", GRAPH, "--seed", 1,
        "--path-granularity", "path", "--out", out,
    )
    assert "path: 12" in result.output
    assert "total: 51 clusters" in result.output  # 15+15+0+12+9 without negatives


def test_generate_path_granularity_refuses_too_many_paths(runner, tmp_path):
    graph = tmp_path / "ladder.json"
    cc.save_graph(make_graph(ladder_edges(60)), graph)
    out = tmp_path / "dataset.json"
    result = run(
        runner, "generate", "--graph", graph, "--path-granularity", "path", "--out", out, code=2,
    )
    assert "paths with at least 2 edges, more than the 100000 that can be enumerated" in result.stderr
    assert not out.exists()


def test_generate_without_negatives(runner, tmp_path):
    out = tmp_path / "dataset.json"
    result = run(runner, "generate", "--graph", GRAPH, "--out", out)
    assert "negative_edge: 0" in result.output
    assert "total: 45 clusters, 180 questions" in result.output


def test_generate_requires_graph(runner, tmp_path):
    result = run(runner, "generate", "--out", tmp_path / "d.json", code=2)
    assert "graph file is required" in result.stderr
    result = run(runner, "generate", "--graph", tmp_path / "absent.json", "--out", tmp_path / "d.json", code=2)
    assert "error:" in result.stderr


def test_generate_caps_unsatisfiable_negative_count(runner, tmp_path):
    # only 70 unrelated pairs exist; the run warns but still succeeds with
    # the shortfall visible in the echoed totals
    out = tmp_path / "dataset.json"
    with pytest.warns(cc.InsufficientPairsWarning):
        result = run(
            runner, "generate", "--graph", GRAPH, "--seed", 1, "--negative-count", 500, "--out", out
        )
    assert "negative_edge: 70" in result.output


def test_generate_refuses_a_question_with_two_expected_answers(runner, tmp_path):
    graph = tmp_path / "graph.json"
    cc.save_graph(make_graph([("x", "y a z"), ("x a y", "r"), ("z", "r")]), graph)
    out = tmp_path / "dataset.json"
    with pytest.warns(cc.InsufficientPairsWarning):
        result = run(
            runner, "generate", "--graph", graph, "--seed", 1, "--negative-count", 20, "--min-distance", 1,
            "--out", out, code=2,
        )
    assert result.stderr == (
        "error: clusters positive-edge:x:y-a-z and negative-edge:x-a-y:z ask 'is a x a y a z ?' "
        "with expected answers yes and no\n"
    )
    assert not out.exists()


# --- evaluate ----------------------------------------------------------------------


def test_evaluate_perfect_writes_zero_report(runner, tmp_path, dataset_file):
    out_dir = tmp_path / "eval"
    result = run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
        "--backend", '{"kind": "perfect"}', "--out-dir", out_dir,
    )
    assert "evaluated 1 backend(s) over 111 clusters" in result.output
    report = (out_dir / "report.md").read_text()
    assert "| perfect | 0 | 0 | 0 | 0 | 0 |" in report
    results = cc.read_results(out_dir / "results-perfect.jsonl")
    assert len(results.records) == 444
    assert all(r.correct for r in results.records)
    assert (out_dir / "report.csv").exists()


def test_evaluate_default_backend_is_the_perfect_oracle(runner, tmp_path, dataset_file):
    out_dir = tmp_path / "eval"
    run(runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH, "--out-dir", out_dir)
    assert (out_dir / "results-perfect.jsonl").exists()


def test_evaluate_oracle_without_graph_fails(runner, tmp_path, dataset_file):
    result = run(
        runner, "evaluate", "--dataset", dataset_file,
        "--backend", '{"kind": "perfect"}', "--out-dir", tmp_path / "e", code=2,
    )
    assert "needs --graph" in result.stderr


def test_evaluate_noisy_runs_are_reproducible(runner, tmp_path, dataset_file):
    spec = '{"kind": "noisy", "flip_probability": 0.3, "seed": 7}'
    for name in ("one", "two"):
        run(
            runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
            "--backend", spec, "--out-dir", tmp_path / name,
        )
    name = "results-noisy-p0.3-s7.jsonl"
    assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    assert (tmp_path / "one" / "report.md").read_bytes() == (tmp_path / "two" / "report.md").read_bytes()


def test_evaluate_records_backend_errors_and_exits_1(runner, tmp_path, dataset_file):
    answers = tmp_path / "answers.json"
    dataset = cc.read_dataset(dataset_file)
    covered = {
        q: c.expected.value
        for c in dataset.clusters
        for q in c.questions
        if c.type is not cc.ClusterType.PATH
    }
    answers.write_text(json.dumps({"answers": covered}), encoding="utf-8")
    out_dir = tmp_path / "eval"
    result = run(
        runner, "evaluate", "--dataset", dataset_file,
        "--backend", json.dumps({"kind": "scripted", "answers": str(answers)}),
        "--out-dir", out_dir, code=1,
    )
    assert "failed and were recorded" in result.stderr
    # 6 path clusters x 4 questions, minus the 3 that property clusters for
    # the same specialist/target pairs also carry (and therefore answer).
    results = cc.read_results(out_dir / "results-answers.jsonl")
    assert results.error_count == 21
    report = (out_dir / "report.md").read_text()
    assert "| answers | 0 | 0 | 50 | 0 | 2.7 |" in report


def test_evaluate_multiple_backends_one_report(runner, tmp_path, dataset_file):
    out_dir = tmp_path / "eval"
    run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
        "--backend", '{"kind": "perfect"}',
        "--backend", '{"kind": "noisy", "flip_probability": 1.0, "seed": 1}',
        "--out-dir", out_dir,
    )
    report = (out_dir / "report.md").read_text()
    assert "| perfect | 0 | 0 | 0 | 0 | 0 |" in report
    assert "| noisy-p1-s1 | 100 | 0 | 0 | 0 | 0 |" in report  # all wrong = all incomplete
    assert (out_dir / "results-perfect.jsonl").exists()
    assert (out_dir / "results-noisy-p1-s1.jsonl").exists()


def test_evaluate_duplicate_backend_ids_rejected(runner, tmp_path, dataset_file):
    result = run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
        "--backend", '{"kind": "perfect"}', "--backend", '{"kind": "perfect"}',
        "--out-dir", tmp_path / "e", code=2,
    )
    assert "unique" in result.stderr


def test_evaluate_rejects_bad_backend_json(runner, tmp_path, dataset_file):
    result = run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
        "--backend", "{not json", "--out-dir", tmp_path / "e", code=2,
    )
    assert "JSON" in result.stderr


def test_evaluate_requires_dataset(runner, tmp_path):
    result = run(runner, "evaluate", "--out-dir", tmp_path / "e", code=2)
    assert "dataset file is required" in result.stderr


def test_evaluate_refuses_a_dataset_asking_one_question_with_two_expected_answers(runner, tmp_path, dataset_file):
    # Repeated in an inverse cluster, one positive question would leave the
    # perfect oracle one inconsistent cluster instead of none.
    data = json.loads(dataset_file.read_text(encoding="utf-8"))
    positive = next(c for c in data["clusters"] if c["type"] == "positive_edge")
    inverse = next(c for c in data["clusters"] if c["type"] == "inverse_edge")
    inverse["questions"].append(positive["questions"][0])
    inverse["statements"].append(positive["statements"][0])
    dataset_file.write_text(json.dumps(data), encoding="utf-8")
    out_dir = tmp_path / "eval"
    result = run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH, "--out-dir", out_dir, code=2,
    )
    assert result.stderr.startswith(f"error: clusters {positive['id']} and {inverse['id']} ask ")
    assert result.stderr.count("\n") == 1
    assert not out_dir.exists()


def test_evaluate_with_context_file(runner, tmp_path, dataset_file):
    dataset = cc.read_dataset(dataset_file)
    context = cc.ContextBlock(
        statements=("a surgeon is a medical specialist",),
        source_cluster_ids=("positive-edge:surgeon:medical-specialist",),
        backend_ids=("by-hand",),
        dataset_fingerprint=cc.dataset_fingerprint(dataset),
    )
    context_path = tmp_path / "context.json"
    cc.save_context(context, context_path)
    out_dir = tmp_path / "eval"
    run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
        "--context", context_path, "--out-dir", out_dir,
    )
    results = cc.read_results(out_dir / "results-perfect.jsonl")
    assert results.context_fingerprint == context.fingerprint()


def test_evaluate_refuses_a_context_built_from_another_dataset(runner, tmp_path, dataset_file):
    # A context of the medical dataset, handed to a run over the finance dataset.
    context = cc.ContextBlock(
        statements=("a surgeon is a medical specialist",),
        source_cluster_ids=("positive-edge:surgeon:medical-specialist",),
        backend_ids=("by-hand",),
        dataset_fingerprint=cc.read_dataset(dataset_file).fingerprint,
    )
    context_path = tmp_path / "context.json"
    cc.save_context(context, context_path)
    finance = tmp_path / "finance.json"
    run(runner, "generate", "--graph", "fixture:finance_graph.json", "--out", finance)
    out_dir = tmp_path / "eval"
    result = run(
        runner, "evaluate", "--dataset", finance, "--graph", "fixture:finance_graph.json",
        "--context", context_path, "--out-dir", out_dir, code=2,
    )
    assert result.stderr == (
        f"error: context block is for dataset {context.dataset_fingerprint[:12]}..., "
        f"the evaluated dataset is {cc.read_dataset(finance).fingerprint[:12]}...\n"
    )
    # The context is checked before the output directory is made.
    assert not out_dir.exists()


def test_evaluate_replays_a_cache_of_one_file_per_entry(runner, tmp_path, dataset_file):
    # The former cache layout, one <key>.json per entry written by hand, still
    # replays with no request; a damaged file is a miss, and that layout is
    # never written.
    def answer(prompt):
        return "Yes." if len(prompt) % 2 else "no"

    def app(method, path, query, body):
        return 200, {"text": answer(body["prompt"])}

    def evaluate(url, out_dir, *cache):
        spec = json.dumps({"kind": "remote", "endpoint": url, "model": "stub-model"})
        run(runner, "evaluate", "--dataset", dataset_file, "--backend", spec, *cache, "--out-dir", out_dir)
        return (out_dir / "results-remote-stub-model.jsonl").read_bytes()

    legacy = tmp_path / "legacy"
    legacy.mkdir()
    with serving(app) as (url, log):
        live = evaluate(url, tmp_path / "live")
    for i, request in enumerate(log.requests):
        prompt = request["body"]["prompt"]
        question = prompt.rsplit("Q: ", 1)[1].removesuffix("\nA:")
        entry = {"raw": answer(prompt), "timestamp": 0.0}
        if i == 0:
            entry["normalized"] = "other"  # a field older versions wrote
        (legacy / f"{cc.ResponseCache.key('stub-model', prompt, question)}.json").write_text(json.dumps(entry))
    files = sorted(legacy.iterdir())
    with serving(app) as (url, log):
        assert evaluate(url, tmp_path / "replay", "--cache-dir", legacy) == live
        assert log.count == 0
    files[1].write_text("{torn write", encoding="utf-8")
    with serving(app) as (url, log):
        assert evaluate(url, tmp_path / "damaged", "--cache-dir", legacy) == live
        assert log.count == 1
    assert sorted(legacy.glob("*.json")) == files
    assert files[1].read_text(encoding="utf-8") == "{torn write"
    assert len((legacy / cc.ResponseCache.LOG_NAME).read_bytes().splitlines()) == 1


# --- augment --------------------------------------------------------------------------


def test_augment_replays_missed_knowledge(runner, tmp_path, dataset_file):
    eval_dir = tmp_path / "eval"
    run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
        "--backend", '{"kind": "noisy", "flip_probability": 0.3, "seed": 7}',
        "--out-dir", eval_dir,
    )
    baseline_path = eval_dir / "results-noisy-p0.3-s7.jsonl"
    aug_dir = tmp_path / "aug"
    result = run(
        runner, "augment", "--dataset", dataset_file, "--baseline", baseline_path,
        "--graph", GRAPH, "--backend", '{"kind": "perfect"}', "--out-dir", aug_dir,
    )
    assert "augmented run finished" in result.output
    context = cc.load_context(aug_dir / "context.json")
    assert context.statements  # the noisy baseline misses plenty
    assert (aug_dir / "results-perfect-augmented.jsonl").exists()
    report = (aug_dir / "report.md").read_text()
    assert "% improvement |" in report
    # A perfect replay fixes everything, so improvement equals the baseline's
    # all-inconsistent percentage.
    dataset = cc.read_dataset(dataset_file)
    baseline_row = cc.compute_report(cc.read_results(baseline_path), dataset)
    expected = cc.format_percent(baseline_row.all.inconsistent, baseline_row.all.total)
    assert f"| {expected} |" in report.splitlines()[-1]


def test_augment_checks_each_result_set_against_the_dataset_once(runner, tmp_path, dataset_file):
    # evaluate builds its records in dataset order and checks none of them;
    # augment checks its baseline once, in build_context, and its own fresh records not at all.
    eval_dir = tmp_path / "eval"
    noisy = '{"kind": "noisy", "flip_probability": 0.3, "seed": 7}'
    module = conceptcheck.evaluation
    with patch.object(module, "_check_answers_match", wraps=module._check_answers_match) as check:
        run(runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH, "--backend", noisy, "--out-dir", eval_dir)
    assert check.call_count == 0
    with patch.object(module, "_check_answers_match", wraps=module._check_answers_match) as check:
        run(
            runner, "augment", "--dataset", dataset_file, "--baseline", eval_dir / "results-noisy-p0.3-s7.jsonl",
            "--graph", GRAPH, "--out-dir", tmp_path / "aug",
        )
    assert check.call_count == 1


def test_augment_with_perfect_baseline_skips_rerun(runner, tmp_path, dataset_file):
    eval_dir = tmp_path / "eval"
    run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH, "--out-dir", eval_dir
    )
    aug_dir = tmp_path / "aug"
    result = run(
        runner, "augment", "--dataset", dataset_file,
        "--baseline", eval_dir / "results-perfect.jsonl",
        "--graph", GRAPH, "--out-dir", aug_dir,
    )
    assert "nothing was missed" in result.output
    assert cc.load_context(aug_dir / "context.json").statements == ()
    assert not list(aug_dir.glob("results-*-augmented.jsonl"))


def test_augment_cluster_granularity(runner, tmp_path, dataset_file):
    eval_dir = tmp_path / "eval"
    run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
        "--backend", '{"kind": "noisy", "flip_probability": 0.2, "seed": 3}',
        "--out-dir", eval_dir,
    )
    baseline = eval_dir / "results-noisy-p0.2-s3.jsonl"
    question_dir, cluster_dir = tmp_path / "q", tmp_path / "c"
    run(
        runner, "augment", "--dataset", dataset_file, "--baseline", baseline,
        "--graph", GRAPH, "--out-dir", question_dir,
    )
    run(
        runner, "augment", "--dataset", dataset_file, "--baseline", baseline,
        "--graph", GRAPH, "--granularity", "cluster", "--out-dir", cluster_dir,
    )
    fine = cc.load_context(question_dir / "context.json")
    coarse = cc.load_context(cluster_dir / "context.json")
    assert set(fine.statements) < set(coarse.statements)


# --- scenarios --------------------------------------------------------------------------


def test_scenarios_perfect_oracle(runner, tmp_path):
    out_dir = tmp_path / "scen"
    result = run(
        runner, "scenarios", "--graph", GRAPH, "--backend", '{"kind": "perfect"}',
        "--out-dir", out_dir,
    )
    assert "perfect: 0/140 incorrect, 0/10 inconsistent scenarios" in result.output
    summary = (out_dir / "scenario-summary.md").read_text()
    assert "| perfect | 0 | 0 |" in summary
    assert (out_dir / "scenario-results-perfect.jsonl").exists()
    assert (out_dir / "scenario-report-perfect.md").exists()


def test_scenarios_copy_the_checked_oracle_for_each_perfect_backend(runner, tmp_path):
    # The jobs are built for the roster check, whose oracle each perfect spec
    # copies, and then once per backend by evaluate_scenarios.
    module = conceptcheck.scenarios
    with patch.object(module, "_scenario_jobs", wraps=module._scenario_jobs) as jobs:
        result = run(
            runner, "scenarios", "--graph", GRAPH, "--backend", '{"kind": "perfect"}',
            "--backend", '{"kind": "perfect", "id": "again"}', "--out-dir", tmp_path / "scen",
        )
    assert jobs.call_count == 3
    for backend_id in ("perfect", "again"):
        assert f"{backend_id}: 0/140 incorrect, 0/10 inconsistent scenarios" in result.output
        assert (tmp_path / "scen" / f"scenario-results-{backend_id}.jsonl").exists()


def test_scenarios_custom_roster(runner, tmp_path):
    out_dir = tmp_path / "scen"
    result = run(
        runner, "scenarios", "--graph", GRAPH, "--specialists", "surgeon,pediatric-surgeon",
        "--backend", '{"kind": "perfect"}', "--out-dir", out_dir,
    )
    assert "perfect: 0/40 incorrect, 0/10 inconsistent scenarios" in result.output


def test_scenarios_reject_empty_roster(runner, tmp_path):
    for backend in ([], ["--backend", json.dumps(_REMOTE), "--cache-dir", tmp_path / "c"]):
        result = run(
            runner, "scenarios", "--graph", GRAPH, "--specialists", ",", *backend,
            "--out-dir", tmp_path / "s", code=2,
        )
        assert result.stderr == "error: the specialist roster is empty\n"
        assert not (tmp_path / "s").exists()
        assert not (tmp_path / "c").exists()


def test_scenarios_reject_unknown_specialists(runner, tmp_path):
    for backend in ('{"kind": "perfect"}', json.dumps(_REMOTE)):
        result = run(
            runner, "scenarios", "--graph", GRAPH, "--specialists", "surgeon,nobody,ghost",
            "--backend", backend, "--cache-dir", tmp_path / "c", "--out-dir", tmp_path / "s", code=2,
        )
        assert result.stderr == "error: the specialist roster names unknown concepts: nobody, ghost\n"
        assert not (tmp_path / "s").exists()
        assert not (tmp_path / "c").exists()


def test_scenarios_reject_a_repeated_specialist(runner, tmp_path):
    # Asking twice would double the questions: 0/40 incorrect where surgeon alone gives 0/20.
    for backend in ('{"kind": "perfect"}', json.dumps(_REMOTE)):
        result = run(
            runner, "scenarios", "--graph", GRAPH, "--specialists", "surgeon,surgeon",
            "--backend", backend, "--cache-dir", tmp_path / "c", "--out-dir", tmp_path / "s", code=2,
        )
        assert result.stderr == "error: the specialist roster repeats surgeon\n"
        assert not (tmp_path / "s").exists()
        assert not (tmp_path / "c").exists()


def test_scenarios_reject_a_prompt_with_two_expected_answers(runner, tmp_path):
    scenarios = json.loads(cc.fixture_path("scenarios_medical.json").read_text(encoding="utf-8"))
    four_day_week = next(s for s in scenarios if s["id"] == "four-day-week")
    four_day_week["policy_question_template"] = four_day_week["applicability_template"]
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(scenarios), encoding="utf-8")
    for backend in ('{"kind": "perfect"}', json.dumps(_REMOTE)):
        result = run(
            runner, "scenarios", "--graph", GRAPH, "--scenarios", path, "--backend", backend,
            "--cache-dir", tmp_path / "c", "--out-dir", tmp_path / "s", code=2,
        )
        assert result.stderr.startswith("error: scenarios four-day-week and four-day-week ask ")
        assert not (tmp_path / "s").exists()
        assert not (tmp_path / "c").exists()


def test_scenarios_make_their_out_dir_before_asking_any_question(runner, tmp_path):
    (tmp_path / "afile").write_text("a file\n")
    with serving(lambda method, path, query, body: (200, {"text": "yes"})) as (url, log):
        spec = json.dumps({"kind": "remote", "endpoint": url, "model": "m"})
        result = run(
            runner, "scenarios", "--graph", GRAPH, "--backend", spec, "--out-dir", tmp_path / "afile" / "s", code=2,
        )
        assert log.count == 0
    assert result.stderr == f"error: cannot make directory {tmp_path / 'afile' / 's'}: Not a directory\n"


def test_scenarios_reject_duplicate_backend_ids(runner, tmp_path):
    result = run(
        runner, "scenarios", "--graph", GRAPH,
        "--backend", '{"kind": "perfect"}', "--backend", '{"kind": "perfect"}',
        "--out-dir", tmp_path / "s", code=2,
    )
    assert result.stderr == (
        "error: backend ids must be unique, got ['perfect', 'perfect']; set explicit 'id' fields\n"
    )
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command", ["evaluate", "augment", "scenarios"])
def test_backend_ids_with_equal_file_names_rejected(runner, tmp_path, dataset_file, command):
    eval_dir = tmp_path / "eval"
    run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
        "--backend", '{"kind": "noisy", "flip_probability": 0.3, "seed": 7}', "--out-dir", eval_dir,
    )
    inputs = {
        "evaluate": ["--dataset", dataset_file],
        "augment": ["--dataset", dataset_file, "--baseline", eval_dir / "results-noisy-p0.3-s7.jsonl"],
        "scenarios": [],
    }[command]
    result = run(
        runner, command, *inputs, "--graph", GRAPH,
        "--backend", '{"kind": "perfect", "id": "a/b"}', "--backend", '{"kind": "perfect", "id": "a-b"}',
        "--out-dir", tmp_path / "out", code=2,
    )
    assert result.stderr == (
        "error: backend ids 'a/b' and 'a-b' would both write files named 'a-b'; set explicit 'id' fields\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, spec, message", [
    ("evaluate", {**_REMOTE, "timeout": -1}, "timeout must be a finite number of seconds above 0, got -1"),
    ("evaluate", {**_REMOTE, "timeout": 0}, "timeout must be a finite number of seconds above 0, got 0"),
    ("evaluate", {**_REMOTE, "timeout": float("nan")}, "timeout must be a finite number of seconds above 0, got nan"),
    ("evaluate", {**_REMOTE, "timeout": float("inf")}, "timeout must be a finite number of seconds above 0, got inf"),
    ("evaluate", {**_REMOTE, "retries": -1}, "retries must be >= 0, got -1"),
    ("evaluate", {**_REMOTE, "max_tokens": 0}, "max_tokens must be >= 1, got 0"),
    ("evaluate", {**_REMOTE, "concurency": 4}, "unknown backend spec #1 keys for kind 'remote': ['concurency']"),
    ("evaluate", {"kind": "perfect", "flip_probability": 0.3},
     "unknown backend spec #1 keys for kind 'perfect': ['flip_probability']"),
    ("scenarios", {"kind": "perfect", "flip_probability": 0.3},
     "unknown backend spec #1 keys for kind 'perfect': ['flip_probability']"),
])
def test_backend_specs_that_cannot_work_exit_2(runner, tmp_path, dataset_file, command, spec, message):
    inputs = ["--dataset", dataset_file] if command == "evaluate" else []
    result = run(
        runner, command, *inputs, "--graph", GRAPH, "--backend", json.dumps(spec),
        "--cache-dir", tmp_path / "cache", "--out-dir", tmp_path / "out", code=2,
    )
    assert result.stderr == f"error: {message}\n"
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("command", ["evaluate", "augment", "scenarios"])
@pytest.mark.parametrize("later, message", [
    ({**_REMOTE, "model": "b", "timeout": -1}, "timeout must be a finite number of seconds above 0, got -1"),
    ({**_REMOTE, "model": "b", "id": "remote-m"},
     "backend ids must be unique, got ['remote-m', 'remote-m']; set explicit 'id' fields"),
], ids=["timeout", "repeated-id"])
def test_a_refused_later_backend_leaves_no_cache(runner, tmp_path, dataset_file, command, later, message):
    # The first remote spec is fine; every backend is built and checked before its cache opens.
    eval_dir = tmp_path / "eval"
    run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
        "--backend", '{"kind": "noisy", "flip_probability": 0.3, "seed": 7}', "--out-dir", eval_dir,
    )
    inputs = {
        "evaluate": ["--dataset", dataset_file],
        "augment": ["--dataset", dataset_file, "--baseline", eval_dir / "results-noisy-p0.3-s7.jsonl"],
        "scenarios": [],
    }[command]
    result = run(
        runner, command, *inputs, "--graph", GRAPH, "--backend", json.dumps(_REMOTE),
        "--backend", json.dumps(later), "--cache-dir", tmp_path / "c2", "--out-dir", tmp_path / "out", code=2,
    )
    assert result.stderr == f"error: {message}\n"
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "c2").exists()


def test_scenarios_reject_noisy_backend(runner, tmp_path):
    result = run(
        runner, "scenarios", "--graph", GRAPH,
        "--backend", '{"kind": "noisy", "flip_probability": 0.1, "seed": 1}',
        "--out-dir", tmp_path / "s", code=2,
    )
    assert "only evaluates cluster datasets" in result.stderr


def test_scenarios_missing_file(runner, tmp_path):
    result = run(
        runner, "scenarios", "--graph", GRAPH, "--scenarios", tmp_path / "absent.json",
        "--out-dir", tmp_path / "s", code=2,
    )
    assert "error:" in result.stderr


def test_scenarios_scripted_backend_mixed(runner, tmp_path):
    answers = tmp_path / "answers.json"
    answers.write_text(json.dumps({"answers": {}, "default": "yes"}), encoding="utf-8")
    out_dir = tmp_path / "scen"
    result = run(
        runner, "scenarios", "--graph", GRAPH,
        "--backend", json.dumps({"kind": "scripted", "answers": str(answers), "id": "yes-man"}),
        "--out-dir", out_dir,
    )
    # Saying yes to everything is right exactly where the expected answer is
    # yes; only the grant anchored at the hierarchy root expects yes across
    # the board, so nine of the ten scenarios come out inconsistent.
    assert "yes-man: 72/140 incorrect, 9/10 inconsistent scenarios" in result.output
    summary = (out_dir / "scenario-summary.md").read_text()
    assert "| yes-man |" in summary



def test_scenarios_reject_an_empty_scenario_set(runner, tmp_path):
    # An empty scenario set asks nothing, so every backend would pass vacuously.
    scenario_file = tmp_path / "scenarios.json"
    scenario_file.write_text("[]", encoding="utf-8")
    for backend in ('{"kind": "perfect"}', json.dumps(_REMOTE)):
        result = run(
            runner, "scenarios", "--graph", GRAPH, "--scenarios", scenario_file, "--backend", backend,
            "--cache-dir", tmp_path / "c", "--out-dir", tmp_path / "s", code=2,
        )
        assert result.stderr == "error: the scenario set is empty\n"
        assert not (tmp_path / "s").exists()
        assert not (tmp_path / "c").exists()


def _questions(command: str, dataset_file: Path) -> list[str]:
    """The questions `command` asks on the medical fixture."""
    if command == "augment":
        return [q for c in cc.read_dataset(dataset_file).clusters for q in c.questions]
    graph = cc.load_medical_graph()
    closure = cc.deductive_closure(graph)
    return [
        q.question for scenario in cc.load_medical_scenarios()
        for q in cc.gen_scenario_questions(scenario, list(cc.MEDICAL_SPECIALISTS), graph, closure)
    ]


@pytest.mark.parametrize("command", ["augment", "scenarios"])
def test_a_command_records_backend_errors_and_exits_1(command, runner, tmp_path, dataset_file):
    args = [command, "--graph", GRAPH]
    if command == "augment":
        run(
            runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
            "--backend", '{"kind": "noisy", "flip_probability": 0.3, "seed": 7}', "--out-dir", tmp_path / "eval",
        )
        args += ["--dataset", dataset_file, "--baseline", tmp_path / "eval" / "results-noisy-p0.3-s7.jsonl"]
    # Every other question is answered; the backend raises on each question it has no answer for.
    answers = tmp_path / "answers.json"
    answers.write_text(json.dumps({"answers": dict.fromkeys(_questions(command, dataset_file)[::2], "yes")}))
    scripted = {"kind": "scripted", "answers": str(answers), "id": "b"}
    result = run(runner, *args, "--backend", json.dumps(scripted), "--out-dir", tmp_path / "failed", code=1)
    assert "failed and were recorded as errors" in result.stderr
    run(runner, *args, "--backend", '{"kind": "perfect", "id": "b"}', "--out-dir", tmp_path / "passed")
    written = sorted(p.name for p in (tmp_path / "passed").iterdir())
    assert written and sorted(p.name for p in (tmp_path / "failed").iterdir()) == written


# --- report ------------------------------------------------------------------------------


def test_report_regenerates_from_stored_results(runner, tmp_path, dataset_file):
    eval_dir = tmp_path / "eval"
    run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
        "--backend", '{"kind": "noisy", "flip_probability": 0.3, "seed": 7}',
        "--out-dir", eval_dir,
    )
    report_dir = tmp_path / "fresh"
    run(
        runner, "report", "--dataset", dataset_file,
        "--results", eval_dir / "results-noisy-p0.3-s7.jsonl", "--out-dir", report_dir,
    )
    assert (report_dir / "report.md").read_bytes() == (eval_dir / "report.md").read_bytes()
    assert (report_dir / "report.csv").read_bytes() == (eval_dir / "report.csv").read_bytes()


def test_report_with_baseline_column(runner, tmp_path, dataset_file):
    eval_dir = tmp_path / "eval"
    run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
        "--backend", '{"kind": "noisy", "flip_probability": 0.3, "seed": 7}',
        "--backend", '{"kind": "noisy", "flip_probability": 0.3, "seed": 7, "id": "rerun"}',
        "--out-dir", eval_dir,
    )
    report_dir = tmp_path / "fresh"
    result = run(
        runner, "report", "--dataset", dataset_file,
        "--results", eval_dir / "results-rerun.jsonl",
        "--baseline", eval_dir / "results-rerun.jsonl",
        "--title", "Replay check", "--out-dir", report_dir,
    )
    assert "wrote" in result.output
    report = (report_dir / "report.md").read_text()
    assert report.startswith("# Replay check")
    assert report.splitlines()[-1].endswith("| 0 |")  # identical run: zero improvement


def test_report_pairs_a_lone_baseline_with_every_row_as_augment_does(runner, tmp_path, dataset_file):
    run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
        "--backend", '{"kind": "noisy", "flip_probability": 0.3, "seed": 7}', "--out-dir", tmp_path / "base",
    )
    baseline = tmp_path / "base" / "results-noisy-p0.3-s7.jsonl"
    run(
        runner, "augment", "--dataset", dataset_file, "--graph", GRAPH,
        "--baseline", baseline, "--out-dir", tmp_path / "aug",
    )
    run(
        runner, "report", "--dataset", dataset_file, "--results", tmp_path / "aug" / "results-perfect-augmented.jsonl",
        "--baseline", baseline, "--out-dir", tmp_path / "report",
    )
    for side in ("aug", "report"):
        assert (tmp_path / side / "report.md").read_text().splitlines()[-1].endswith("| 79.28 |")


@pytest.mark.parametrize("command", ["augment", "report"])
def test_baselines_sharing_a_backend_id_exit_2(runner, tmp_path, dataset_file, command):
    paths = []
    for p in (0.3, 0.05):
        run(
            runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
            "--backend", json.dumps({"kind": "noisy", "flip_probability": p, "seed": 7, "id": "m"}),
            "--out-dir", tmp_path / f"p{p}",
        )
        paths.append(tmp_path / f"p{p}" / "results-m.jsonl")
    inputs = ["--graph", GRAPH] if command == "augment" else ["--results", paths[0]]
    result = run(
        runner, command, "--dataset", dataset_file, *inputs, "--baseline", paths[0], "--baseline", paths[1],
        "--out-dir", tmp_path / "out", code=2,
    )
    assert result.stderr == f"error: baseline files {paths[0]} and {paths[1]} both hold results of backend id 'm'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [("correct", "false"), ("question_index", None)])
def test_report_refuses_mistyped_answer_records(runner, tmp_path, dataset_file, field, value):
    eval_dir = tmp_path / "eval"
    run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
        "--backend", '{"kind": "noisy", "flip_probability": 0.3, "seed": 7}',
        "--out-dir", eval_dir,
    )
    path = eval_dir / "results-noisy-p0.3-s7.jsonl"
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    wrong = next(i for i, r in enumerate(records) if not r["correct"])
    records[wrong][field] = value
    path.write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n", encoding="utf-8")
    result = run(runner, "report", "--dataset", dataset_file, "--results", path, "--out-dir", tmp_path / "r", code=2)
    assert f"results-noisy-p0.3-s7.jsonl:{wrong + 2}: answer field '{field}' must be" in result.stderr


@pytest.mark.parametrize("value, message", REFUSED_JSON_VALUES)
@pytest.mark.parametrize("flag", ["--results", "--dataset"])
def test_report_refuses_json_past_the_decoders_limits_with_exit_2(runner, tmp_path, dataset_file, flag, value, message):
    eval_dir = tmp_path / "eval"
    run(runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH, "--out-dir", eval_dir)
    results = eval_dir / "results-perfect.jsonl"
    if flag == "--results":
        lines = results.read_text(encoding="utf-8").split("\n")
        lines[1] = '{"question_index": %s}' % value
        results.write_text("\n".join(lines), encoding="utf-8")
    else:
        dataset_file.write_text('{"version": %s}\n' % value, encoding="utf-8")
    result = run(runner, "report", "--dataset", dataset_file, "--results", results, "--out-dir", tmp_path / "r", code=2)
    where = {"--results": f"{results}:2:", "--dataset": f"dataset file {dataset_file} is"}[flag]
    assert result.stderr.startswith(f"error: {where} not valid JSON: {message}")


@pytest.mark.parametrize("value, message", REFUSED_JSON_VALUES)
def test_a_backend_spec_past_the_decoders_limits_exits_2(runner, tmp_path, dataset_file, value, message):
    spec = '{"kind": "perfect", "x": %s}' % value
    result = run(runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH, "--backend", spec,
                 "--out-dir", tmp_path / "e", code=2)
    assert result.stderr.startswith("error: --backend must be a JSON object") and message in result.stderr


# --- run-config files ----------------------------------------------------------------------


@pytest.mark.parametrize("command, flag, what", [
    ("generate", "--graph", "graph file"),
    ("report", "--dataset", "dataset file"),
    ("report", "--results", "results file"),
    ("extract", "--dump", "dump file"),
])
def test_non_utf8_input_exits_2_naming_the_file(runner, tmp_path, dataset_file, command, flag, what):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"label": "Gefäßchirurg"}\n'.encode("latin-1"))
    options = {
        "generate": ["--graph", GRAPH, "--out", tmp_path / "dataset-2.json"],
        "report": ["--dataset", dataset_file, "--results", dataset_file, "--out-dir", tmp_path / "out"],
        "extract": ["--dump", DUMP, "--seed-concept", "Q3332438", "--out", tmp_path / "graph.json"],
    }[command]
    options[options.index(flag) + 1] = bad
    result = run(runner, command, *options, code=2)
    assert result.stderr.startswith(f"error: cannot read {what} {bad}: 'utf-8' codec can't decode byte 0xe4")
    assert result.stderr.count("\n") == 1


def test_config_file_supplies_defaults(runner, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "graph": {"path": GRAPH},
                "generation": {"seed": 1, "negative_count": 66},
                "backends": [{"kind": "perfect"}],
            }
        ),
        encoding="utf-8",
    )
    flag_out, config_out = tmp_path / "flags.json", tmp_path / "config.json"
    run(runner, "generate", "--graph", GRAPH, "--seed", 1, "--negative-count", 66, "--out", flag_out)
    run(runner, "--config", config, "generate", "--out", config_out)
    assert flag_out.read_bytes() == config_out.read_bytes()

    eval_dir = tmp_path / "eval"
    run(runner, "--config", config, "evaluate", "--dataset", config_out, "--out-dir", eval_dir)
    assert (eval_dir / "results-perfect.jsonl").exists()


@pytest.mark.parametrize("command", ["augment", "report"])
def test_config_file_supplies_the_dataset(runner, tmp_path, dataset_file, command):
    eval_dir = tmp_path / "eval"
    baseline = eval_dir / "results-noisy-p0.3-s7.jsonl"
    run(
        runner, "evaluate", "--dataset", dataset_file, "--graph", GRAPH,
        "--backend", '{"kind": "noisy", "flip_probability": 0.3, "seed": 7}', "--out-dir", eval_dir,
    )
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"dataset": str(dataset_file)}), encoding="utf-8")
    inputs = {"augment": ["--baseline", baseline, "--graph", GRAPH], "report": ["--results", baseline]}[command]
    run(runner, command, "--dataset", dataset_file, *inputs, "--out-dir", tmp_path / "flag")
    run(runner, "--config", config, command, *inputs, "--out-dir", tmp_path / "config")
    assert (tmp_path / "config" / "report.md").read_bytes() == (tmp_path / "flag" / "report.md").read_bytes()


def test_config_flags_beat_config_values(runner, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"graph": {"path": GRAPH}, "generation": {"seed": 1, "negative_count": 5}}),
        encoding="utf-8",
    )
    out = tmp_path / "dataset.json"
    result = run(runner, "--config", config, "generate", "--negative-count", 10, "--out", out)
    assert "negative_edge: 10" in result.output


def test_config_file_errors(runner, tmp_path):
    result = run(runner, "--config", tmp_path / "absent.json", "generate", "--out", tmp_path / "d.json", code=2)
    assert "error:" in result.stderr
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    result = run(runner, "--config", bad, "generate", "--out", tmp_path / "d.json", code=2)
    assert "JSON object" in result.stderr


def test_missing_required_option_exits_2(runner, tmp_path):
    out = tmp_path / "d.json"
    for argv in (
        ["generate"],  # no --out
        [],  # no command
        ["generate", "--graph", GRAPH, "--colour", "red", "--out", out],
        ["generate", "--graph", GRAPH, "--negative", 5, "--out", out],  # a prefix of --negative-count
        ["extract", "--dump", DUMP, "--seed-concept", "Q3332438", "--direction", "sideways", "--out", out],
        ["generate", "--graph", GRAPH, "--seed", "one", "--out", out],
    ):
        result = runner.invoke(main, [str(a) for a in argv])
        assert result.exit_code == 2, argv
        assert result.stderr.startswith("usage: "), result.stderr
        assert not any(tmp_path.iterdir()), argv


def test_help_runs(runner):
    result = run(runner, "--help")
    assert "extract" in result.output
    assert "scenarios" in result.output


# --- start-up ------------------------------------------------------------------------


def test_cli_import_leaves_out_http_libraries():
    # Every command pays for what `import conceptcheck.cli` loads; the
    # HTTP layer is stdlib-only, so requests and urllib3 must stay out.
    code = "import sys, conceptcheck.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "[]"
