"""Every file and config reader refuses a field of the wrong JSON type.

Each reader gets a valid document written by the package, with one field
replaced by a value of every other JSON type. The load must raise a
ConceptCheckError that names the field: never another exception, and
never a load.
"""

from __future__ import annotations

import copy
import json

import pytest

import conceptcheck as cc
from conceptcheck.cli import main
from clirunner import CliRunner

GRAPH = "fixture:medical_graph.json"
PATH_CLUSTER = 96  # the first cluster of the medical dataset with a path

# One value of each JSON type; a number is an integer or a fraction.
VALUES = {
    "string": "x", "integer": 3, "fraction": 2.5, "boolean": True, "null": None, "list": [1], "object": {"k": "v"},
}
# The sample values each field kind accepts. A one-of string accepts none of
# them ("x" is not a choice), a list of strings not [1], and a list of
# objects is probed item by item instead.
ACCEPTS = {
    "string": {"string"},
    "one-of": set(),
    "integer": {"integer"},
    "number": {"integer", "fraction"},
    "boolean": {"boolean"},
    "strings": set(),
    "objects": {"list"},
    "object": {"object"},
}


@pytest.fixture(scope="module")
def docs(tmp_path_factory, medical_dataset, medical_closure, template):
    """Valid documents written by the package, by reader name."""
    graph = cc.build_graph(
        [cc.Concept(i, i, ("alias",)) for i in "abc"], [("b", "a"), ("c", "a")],
        [cc.PropertyAssertion("a", "p", "v")], [("b", "c")],
    )
    tmp = tmp_path_factory.mktemp("documents")
    cc.save_graph(graph, tmp / "graph.json")
    cc.write_dataset(medical_dataset, tmp / "dataset.json")
    results = cc.evaluate_dataset(medical_dataset, cc.NoisyOracle(medical_closure, medical_dataset, 0.3, 7), template)
    cc.write_results(results, tmp / "results.jsonl")
    cc.save_context(cc.build_context([results], medical_dataset), tmp / "context.json")
    lines = (tmp / "results.jsonl").read_text().splitlines()
    return {
        "graph": json.loads((tmp / "graph.json").read_text()),
        "dataset": json.loads((tmp / "dataset.json").read_text()),
        "results": [json.loads(lines[0]), json.loads(lines[1])],
        "context": json.loads((tmp / "context.json").read_text()),
        "scenarios": json.loads(cc.fixture_path("scenarios_medical.json").read_text()),
        "prompt": json.loads(cc.fixture_path("prompt_default.json").read_text()),
        "answers": {"answers": {"q": "yes"}, "default": "no"},
        "noisy": {"kind": "noisy", "flip_probability": 0.3, "seed": 7, "id": "n"},
        "remote": {"kind": "remote", "endpoint": "http://127.0.0.1:1/x", "model": "m"},
        "scripted": {"kind": "scripted", "answers": "replies.json"},
        "generation": cc.MEDICAL_GENERATION.to_dict(),
    }


@pytest.fixture(scope="module")
def load(medical_dataset, medical_closure):
    """Load a document with the reader of its name."""

    def loader(name, doc, tmp_path):
        path = tmp_path / f"{name}.json"
        if name == "results":
            path.write_text("".join(json.dumps(line) + "\n" for line in doc), encoding="utf-8")
        else:
            path.write_text(json.dumps(doc), encoding="utf-8")
        (tmp_path / "replies.json").write_text('{"answers": {}}', encoding="utf-8")
        if name == "scripted" and doc["answers"] == "replies.json":
            doc = {**doc, "answers": str(tmp_path / "replies.json")}
        readers = {
            "graph": cc.load_graph,
            "dataset": cc.read_dataset,
            "results": cc.read_results,
            "context": cc.load_context,
            "scenarios": cc.load_scenarios,
            "prompt": cc.load_prompt_template,
            "answers": cc.load_scripted_answers,
            "generation": lambda p: cc.GenerationConfig.from_dict(json.loads(p.read_text())),
        }
        if name in readers:
            return readers[name](path)
        return cc.backend_from_config(doc, closure=medical_closure, dataset=medical_dataset)

    return loader


# (reader, path to the field, kind, optional): every field each reader reads.
FIELDS = [
    ("graph", ("concepts",), "objects", False),
    ("graph", ("edges",), "objects", False),
    ("graph", ("properties",), "objects", True),
    ("graph", ("same_as",), "objects", True),
    ("graph", ("concepts", 0, "id"), "string", False),
    ("graph", ("concepts", 0, "label"), "string", False),
    ("graph", ("concepts", 0, "aliases"), "strings", True),
    ("graph", ("edges", 0, "child"), "string", False),
    ("graph", ("edges", 0, "parent"), "string", False),
    ("graph", ("properties", 0, "subject"), "string", False),
    ("graph", ("properties", 0, "property"), "string", False),
    ("graph", ("properties", 0, "value"), "string", False),
    ("dataset", ("version",), "one-of", False),
    ("dataset", ("graph_fingerprint",), "string", False),
    ("dataset", ("config",), "object", True),
    ("dataset", ("clusters",), "objects", False),
    ("dataset", ("config", "negative_count"), "integer", True),
    ("dataset", ("config", "article_style"), "string", True),
    ("dataset", ("clusters", 0, "id"), "string", False),
    ("dataset", ("clusters", 0, "type"), "one-of", False),
    ("dataset", ("clusters", 0, "expected"), "one-of", False),
    ("dataset", ("clusters", 0, "source"), "string", False),
    ("dataset", ("clusters", 0, "target"), "string", False),
    ("dataset", ("clusters", 0, "questions"), "strings", False),
    ("dataset", ("clusters", 0, "statements"), "strings", False),
    ("dataset", ("clusters", PATH_CLUSTER, "path"), "strings", True),
    ("results", (0, "backend"), "string", False),
    ("results", (0, "dataset_fingerprint"), "string", False),
    ("results", (0, "prompt_fingerprint"), "string", False),
    ("results", (0, "context_fingerprint"), "string", True),
    ("results", (1, "cluster_id"), "string", False),
    ("results", (1, "question_index"), "integer", False),
    ("results", (1, "raw"), "string", False),
    ("results", (1, "normalized"), "one-of", False),
    ("results", (1, "correct"), "boolean", False),
    ("results", (1, "error"), "boolean", False),
    ("context", ("statements",), "strings", False),
    ("context", ("source_cluster_ids",), "strings", False),
    ("context", ("backend_ids",), "strings", False),
    ("context", ("dataset_fingerprint",), "string", False),
    ("scenarios", (0, "id"), "string", False),
    ("scenarios", (0, "policy_text"), "string", False),
    ("scenarios", (0, "anchor"), "string", False),
    ("scenarios", (0, "applicability_template"), "string", False),
    ("scenarios", (0, "policy_question_template"), "string", False),
    ("scenarios", (0, "polarity"), "one-of", False),
    ("prompt", ("preamble",), "string", False),
    ("prompt", ("few_shot",), "objects", True),
    ("prompt", ("few_shot", 0, "question"), "string", False),
    ("prompt", ("few_shot", 0, "answer"), "string", False),
    ("answers", ("answers",), "object", False),
    ("answers", ("default",), "string", True),
    ("noisy", ("kind",), "string", False),
    ("noisy", ("id",), "string", True),
    ("noisy", ("flip_probability",), "number", False),
    ("noisy", ("seed",), "integer", False),
    ("scripted", ("answers",), "string", False),
    ("remote", ("endpoint",), "string", False),
    ("remote", ("model",), "string", False),
    ("remote", ("auth_env",), "string", True),
    ("remote", ("cache_dir",), "string", True),
    ("remote", ("max_tokens",), "integer", True),
    ("remote", ("concurrency",), "integer", True),
    ("remote", ("retries",), "integer", True),
    ("remote", ("temperature",), "number", True),
    ("remote", ("timeout",), "number", True),
    ("generation", ("seed",), "integer", True),
    ("generation", ("min_distance",), "integer", True),
    ("generation", ("min_path_len",), "integer", True),
    ("generation", ("path_granularity",), "string", True),
    ("generation", ("template_set",), "string", True),
]


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


def test_every_reader_loads_its_valid_document(docs, load, tmp_path):
    for name, doc in docs.items():
        load(name, doc, tmp_path)
    assert "path" in docs["dataset"]["clusters"][PATH_CLUSTER]


FIELD_IDS = [f"{reader}:{'.'.join(map(str, path))}" for reader, path, _, _ in FIELDS]


@pytest.mark.parametrize("reader, path, kind, optional", FIELDS, ids=FIELD_IDS)
def test_a_field_of_another_json_type_is_refused(docs, load, tmp_path, reader, path, kind, optional):
    accepted = ACCEPTS[kind] | ({"null"} if optional else set())
    for name, value in VALUES.items():
        if name in accepted:
            continue
        with pytest.raises(cc.ConceptCheckError, match=f"'{path[-1]}'") as err:
            load(reader, replaced(docs[reader], path, value), tmp_path)
        assert str(path[-1]) in str(err.value), (name, err.value)


@pytest.mark.parametrize("reader, path, where", [
    ("graph", ("concepts", 0), "graph concept #0"),
    ("graph", ("edges", 0), "graph edge #0"),
    ("graph", ("properties", 0), "graph property #0"),
    ("dataset", ("clusters", 0), "dataset cluster"),
    ("scenarios", (0,), "scenario #0"),
    ("prompt", ("few_shot", 0), "few_shot #0"),
])
def test_a_list_item_that_is_not_an_object_is_refused(docs, load, tmp_path, reader, path, where):
    for name, value in VALUES.items():
        if name == "object":
            continue
        with pytest.raises(cc.ConceptCheckError, match=f"{where} must be a JSON object"):
            load(reader, replaced(docs[reader], path, value), tmp_path)


@pytest.mark.parametrize("reader, path, value, message", [
    ("graph", ("concepts", 0, "aliases"), "dog", "field 'aliases' must be a list of strings, got 'dog'"),
    ("graph", ("same_as",), ["ab"], "field 'same_as' must be a list of \\[id, id\\] pairs"),
    ("graph", ("same_as",), [["a", "b", "c"]], "field 'same_as' must be a list of \\[id, id\\] pairs"),
    ("graph", ("concepts", 0, "id"), 1, "field 'id' must be a string, got 1"),
    ("graph", ("properties", 0, "value"), 3, "field 'value' must be a string, got 3"),
    ("results", (0, "backend"), ["x"], ":1: header field 'backend' must be a string, got \\['x'\\]"),
    ("dataset", ("clusters", 0), "positive-edge", "dataset cluster must be a JSON object, got .positive-edge."),
    ("dataset", ("clusters", 0, "statements", 1), 5, "field 'statements' must be a list of strings"),
    ("dataset", ("config",), [], "dataset file field 'config' must be an object, got \\[\\]"),
    ("prompt", ("few_shot", 0), {"question": 1}, "few_shot #0 field 'question' must be a string, got 1"),
    ("noisy", ("flip_probability",), "x", "noisy backend spec 'n' field 'flip_probability' must be a number"),
    ("noisy", ("seed",), "7", "noisy backend spec 'n' field 'seed' must be an integer, got '7'"),
    ("scenarios", (0,), 3, "scenario #0 must be a JSON object, got 3"),
    ("answers", ("answers", "q"), 3, "field 'answers' must be an object of strings"),
])
def test_probes_that_misloaded_or_crashed(docs, load, tmp_path, reader, path, value, message):
    with pytest.raises(cc.ConceptCheckError, match=message):
        load(reader, replaced(docs[reader], path, value), tmp_path)


def run(*args, code=2):
    result = CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == code, f"exit {result.exit_code}: {result.output}\n{result.stderr}"
    return result


@pytest.mark.parametrize("spec, message", [
    ('"perfect"', "backend spec #1 must be a JSON object, got 'perfect'"),
    ("[]", "backend spec #1 must be a JSON object, got []"),
    ('{"id": "x"}', "backend spec #1 'x' field 'kind' must be a string, but is missing"),
    ('{"kind": "noisy", "flip_probability": "x", "seed": 1}',
     "noisy backend spec field 'flip_probability' must be a number, got 'x'"),
])
def test_cli_refuses_a_malformed_backend_spec(tmp_path, spec, message):
    dataset = tmp_path / "dataset.json"
    run("generate", "--graph", GRAPH, "--out", dataset, code=0)
    result = run("evaluate", "--dataset", dataset, "--graph", GRAPH, "--backend", spec, "--out-dir", tmp_path / "e")
    assert result.stderr == f"error: {message}\n"


# A run config that sets every key the CLI reads.
RUN_CONFIG = {
    "graph": {"path": GRAPH, "source": "native", "endpoint": "http://127.0.0.1:1",
              "extraction": {"seed_concept": "x", "seed_property": "p", "max_depth": 2,
                             "direction": "descendants", "language": "en"}},
    "generation": {"seed": 1, "negative_count": 5},
    "backends": [{"kind": "perfect"}],
    "specialists": "surgeon,pediatrician",
    "dataset": "dataset.json", "prompt": "prompt.json", "cache_dir": "cache",
    "granularity": "question", "scenarios": "scenarios.json",
}
CONFIG_FIELDS = [
    (("graph",), "object"), (("generation",), "object"), (("backends",), "objects"),
    (("dataset",), "string"), (("prompt",), "string"), (("cache_dir",), "string"),
    (("granularity",), "string"), (("scenarios",), "string"),
    (("graph", "path"), "string"), (("graph", "source"), "string"), (("graph", "endpoint"), "string"),
    (("graph", "extraction"), "object"), (("graph", "extraction", "seed_concept"), "string"),
    (("graph", "extraction", "max_depth"), "integer"), (("graph", "extraction", "language"), "string"),
    (("generation", "seed"), "integer"), (("generation", "negative_count"), "integer"),
]


def test_the_run_config_loads(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(RUN_CONFIG), encoding="utf-8")
    assert "total:" in run("--config", config, "generate", "--out", tmp_path / "d.json", code=0).output


@pytest.mark.parametrize("path, kind", CONFIG_FIELDS, ids=[".".join(p) for p, _ in CONFIG_FIELDS])
def test_cli_refuses_a_run_config_field_of_another_json_type(tmp_path, path, kind):
    config = tmp_path / "config.json"
    for name, value in VALUES.items():
        if name in ACCEPTS[kind] | {"null"}:
            continue
        config.write_text(json.dumps(replaced(RUN_CONFIG, path, value)), encoding="utf-8")
        result = run("--config", config, "generate", "--out", tmp_path / "d.json")
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
        assert f"field '{path[-1]}' must be" in result.stderr, result.stderr
    assert not (tmp_path / "d.json").exists()


def test_cli_refuses_a_roster_that_is_not_text_or_a_list_of_strings(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"specialists": ["surgeon", 3]}), encoding="utf-8")
    result = run("--config", config, "scenarios", "--graph", GRAPH, "--out-dir", tmp_path / "s")
    assert "field 'specialists' must be a comma-separated string or a list of strings" in result.stderr


def test_cli_refuses_a_numeric_string_seed_in_the_run_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"generation": {"seed": "1"}}), encoding="utf-8")
    result = run("--config", config, "generate", "--graph", GRAPH, "--out", tmp_path / "d.json")
    assert result.stderr == "error: config 'generation' field 'seed' must be an integer, got '1'\n"
