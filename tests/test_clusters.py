"""Question/statement templates and cluster generation."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conceptcheck as cc
from conceptcheck.clusters import (
    SUBSUMPTION_FORMS,
    _article,
    gen_inverse_clusters,
    gen_negative_clusters,
    gen_path_clusters,
    gen_positive_clusters,
    gen_property_clusters,
    render_forms,
)
from conftest import ladder_edges, make_graph

T = cc.ClusterType


def clusters_of(dataset, kind):
    return [c for c in dataset.clusters if c.type is kind]


def fill(a, b="", style="literal", p="", v=""):
    """Every field a question form reads, with articles in `style`."""
    return {"a": a, "ar_a": _article(a, style), "b": b, "ar_b": _article(b, style), "p": p, "v": v}


def question(form, *labels, **fields):
    return render_forms((form,), fill(*labels, **fields))[0][0]


# --- templates ---------------------------------------------------------------


def test_subsumption_question_forms():
    questions, _ = render_forms(SUBSUMPTION_FORMS, fill("surgeon", "medical specialist"))
    assert dict(zip(SUBSUMPTION_FORMS, questions)) == {
        "plain": "is a surgeon a medical specialist ?",
        "type_of": "is a surgeon a type of medical specialist ?",
        "every": "is every surgeon a medical specialist ?",
        "also": "is a surgeon also a medical specialist ?",
    }


def test_subsumption_statement_forms():
    _, statements = render_forms(SUBSUMPTION_FORMS, fill("surgeon", "medical specialist"))
    assert dict(zip(SUBSUMPTION_FORMS, statements)) == {
        "plain": "a surgeon is a medical specialist",
        "type_of": "a surgeon is a type of medical specialist",
        "every": "every surgeon is a medical specialist",
        "also": "a surgeon is also a medical specialist",
    }


def test_property_forms():
    questions, statements = render_forms(
        ("property_of", "value_is"), fill("surgeon", p="field of occupation", v="surgery")
    )
    assert questions == (
        "is the field of occupation of a surgeon surgery ?",
        "is surgery the field of occupation of a surgeon ?",
    )
    assert statements == (
        "the field of occupation of a surgeon is surgery",
        "surgery is the field of occupation of a surgeon",
    )


def test_literal_article_is_default_even_before_vowels():
    assert (
        question("plain", "orthopedic pediatric surgeon", "medical specialist")
        == "is a orthopedic pediatric surgeon a medical specialist ?"
    )


def test_grammatical_article_style():
    q = question("plain", "orthopedian", "engineer", style="grammatical")
    assert q == "is an orthopedian an engineer ?"
    (s,) = render_forms(("every",), fill("surgeon", "expert", style="grammatical"))[1]
    assert s == "every surgeon is an expert"


def test_unknown_template_form():
    with pytest.raises(cc.UnknownTemplate, match="rhetorical"):
        render_forms(("rhetorical",), fill("a", "b"))
    with pytest.raises(cc.UnknownTemplate, match="rhetorical"):
        render_forms(("plain", "rhetorical"), fill("s", p="p", v="v"))


# --- per-type generators -----------------------------------------------------


def test_positive_clusters_cover_every_edge(medical_graph):
    clusters = gen_positive_clusters(medical_graph, cc.MEDICAL_GENERATION)
    assert len(clusters) == 15
    assert {(c.source, c.target) for c in clusters} == set(medical_graph.edges)
    assert all(c.expected is cc.Answer.YES for c in clusters)
    assert all(len(c.questions) == 4 for c in clusters)
    surgeon = next(c for c in clusters if c.source == "surgeon")
    assert surgeon.id == "positive-edge:surgeon:medical-specialist"
    assert surgeon.questions == (
        "is a surgeon a medical specialist ?",
        "is a surgeon a type of medical specialist ?",
        "is every surgeon a medical specialist ?",
        "is a surgeon also a medical specialist ?",
    )


def test_inverse_clusters_flip_direction(medical_graph):
    clusters = gen_inverse_clusters(medical_graph, cc.MEDICAL_GENERATION)
    assert len(clusters) == 15
    assert {(c.target, c.source) for c in clusters} == set(medical_graph.edges)
    assert all(c.expected is cc.Answer.NO for c in clusters)
    flipped = next(c for c in clusters if c.target == "surgeon" and c.source == "medical-specialist")
    assert flipped.questions[0] == "is a medical specialist a surgeon ?"


def test_edge_clusters_follow_label_order_not_id_order():
    # Ids sort one way and labels the other, for the children and for the parents of one child.
    labels = {"a": "zebra", "b": "yak", "c": "wolf", "d": "cat"}
    edges = [("a", "d"), ("a", "c"), ("b", "d"), ("c", "d")]
    graph = cc.build_graph([cc.Concept(i, label) for i, label in labels.items()], edges)
    by_labels = [("c", "d"), ("b", "d"), ("a", "d"), ("a", "c")]
    assert by_labels == sorted(graph.edges, key=lambda e: (labels[e[0]], labels[e[1]]))
    config = cc.GenerationConfig()
    assert [(c.source, c.target) for c in gen_positive_clusters(graph, config)] == by_labels
    assert [(c.target, c.source) for c in gen_inverse_clusters(graph, config)] == by_labels


def test_inverse_clusters_skip_same_as_edges():
    g = make_graph([("b", "a"), ("c", "a")], same_as=[("b", "a")])
    config = cc.GenerationConfig(seed=1)
    assert len(gen_positive_clusters(g, config)) == 2
    inverse = gen_inverse_clusters(g, config)
    assert len(inverse) == 1
    assert (inverse[0].source, inverse[0].target) == ("a", "c")


def test_negative_clusters_sample_unrelated_pairs(medical_graph, medical_closure):
    config = cc.GenerationConfig(seed=1, negative_count=66)
    clusters = gen_negative_clusters(medical_graph, medical_closure, config)
    assert len(clusters) == 66
    for c in clusters:
        assert c.expected is cc.Answer.NO
        assert (c.source, c.target) not in medical_closure.implied
        assert (c.target, c.source) not in medical_closure.implied
    assert gen_negative_clusters(medical_graph, medical_closure, config) == clusters
    none = gen_negative_clusters(medical_graph, medical_closure, cc.GenerationConfig(seed=1))
    assert none == []


def test_path_clusters_pair_granularity(medical_graph, medical_closure):
    clusters = gen_path_clusters(medical_graph, medical_closure, cc.MEDICAL_GENERATION)
    assert len(clusters) == 6
    assert {(c.source, c.target) for c in clusters} == set(medical_closure.strictly_implied)
    assert all(c.expected is cc.Answer.YES for c in clusters)
    # A pair reachable several ways records the lexicographically first witness.
    wide = next(c for c in clusters if c.source == "orthopedic-pediatric-surgeon" and c.target == "medical-specialist")
    assert wide.path == (
        "orthopedic-pediatric-surgeon",
        "orthopedic-surgeon",
        "orthopedian",
        "medical-specialist",
    )
    assert wide.questions[0] == "is a orthopedic pediatric surgeon a medical specialist ?"


def test_path_clusters_path_granularity(medical_graph, medical_closure):
    config = dataclasses.replace(cc.MEDICAL_GENERATION, path_granularity="path")
    clusters = gen_path_clusters(medical_graph, medical_closure, config)
    assert len(clusters) == 12
    assert len({c.id for c in clusters}) == 12
    multi = [c for c in clusters if c.source == "orthopedic-pediatric-surgeon" and c.target == "medical-specialist"]
    assert len(multi) == 4
    assert all(":via:" in c.id for c in multi)


# The chain c -> b -> a beside the edge y -> x. Each row: a family's generator,
# its settings, its type and expected answer, and the id and concepts (source
# first, target last) of every cluster it asks.
_SUBSUMPTION_FAMILIES = {
    "positive": (
        lambda graph, closure, config: gen_positive_clusters(graph, config), {}, T.POSITIVE_EDGE, cc.Answer.YES,
        [("positive-edge:b:a", ("b", "a")), ("positive-edge:c:b", ("c", "b")), ("positive-edge:y:x", ("y", "x"))],
    ),
    "inverse": (
        lambda graph, closure, config: gen_inverse_clusters(graph, config), {}, T.INVERSE_EDGE, cc.Answer.NO,
        [("inverse-edge:a:b", ("a", "b")), ("inverse-edge:b:c", ("b", "c")), ("inverse-edge:x:y", ("x", "y"))],
    ),
    "negative": (
        gen_negative_clusters, {"negative_count": 1}, T.NEGATIVE_EDGE, cc.Answer.NO,
        [("negative-edge:y:a", ("y", "a"))],
    ),
    "path-by-pair": (gen_path_clusters, {}, T.PATH, cc.Answer.YES, [("path:c:a", ("c", "b", "a"))]),
    "path-by-path": (
        gen_path_clusters, {"path_granularity": "path"}, T.PATH, cc.Answer.YES, [("path:c:a:via:b", ("c", "b", "a"))]
    ),
}


@pytest.mark.parametrize("family", _SUBSUMPTION_FAMILIES)
def test_subsumption_families_share_one_cluster_shape(family):
    gen, settings, kind, expected, wanted = _SUBSUMPTION_FAMILIES[family]
    graph = make_graph([("b", "a"), ("c", "b"), ("y", "x")])
    clusters = gen(graph, cc.deductive_closure(graph), cc.GenerationConfig(seed=1, **settings))
    assert [c.id for c in clusters] == [cid for cid, _ in wanted]
    for cluster, (_, concepts) in zip(clusters, wanted):
        assert (cluster.type, cluster.expected) == (kind, expected)
        assert (cluster.source, cluster.target) == (concepts[0], concepts[-1])
        assert cluster.path == (concepts if kind is T.PATH else None)
        forms = render_forms(SUBSUMPTION_FORMS, fill(concepts[0], concepts[-1]))
        assert (cluster.questions, cluster.statements) == forms


def test_pair_mode_never_enumerates_paths(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pair mode enumerated paths")

    monkeypatch.setattr("conceptcheck.clusters.implied_paths", refuse)
    stars = [(f"s{k:03d}l{leaf}", f"s{k:03d}") for k in range(200) for leaf in range(3)]
    graph = make_graph(ladder_edges(60) + stars)
    dataset = cc.generate_dataset(graph, cc.GenerationConfig(seed=7, negative_count=200))
    assert len(clusters_of(dataset, T.PATH)) == len(cc.deductive_closure(graph).strictly_implied)
    assert len(clusters_of(dataset, T.NEGATIVE_EDGE)) == 200


def test_generators_and_subsumption_read_no_pair_view_of_the_closure(medical_graph):
    closure = cc.deductive_closure(medical_graph)
    assert gen_negative_clusters(medical_graph, closure, cc.GenerationConfig(seed=1, negative_count=66))
    for granularity in ("pair", "path"):
        for min_len in (2, 3):
            config = cc.GenerationConfig(min_path_len=min_len, path_granularity=granularity)
            assert gen_path_clusters(medical_graph, closure, config)
    assert gen_property_clusters(medical_graph, closure, cc.MEDICAL_GENERATION)
    assert cc.is_subconcept(closure, "orthopedic-pediatric-surgeon", "medical-specialist")
    assert not cc.is_subconcept(closure, "medical-specialist", "orthopedic-pediatric-surgeon")
    assert not {"implied", "strictly_implied"} & set(vars(closure))


def test_path_clusters_skip_pairs_with_redundant_direct_edge():
    g = make_graph([("a", "b"), ("b", "c"), ("a", "c")])
    closure = cc.deductive_closure(g)
    assert gen_path_clusters(g, closure, cc.GenerationConfig(seed=1)) == []


def test_property_clusters_compose_four_probes(medical_graph, medical_closure):
    clusters = gen_property_clusters(medical_graph, medical_closure, cc.MEDICAL_GENERATION)
    assert len(clusters) == 9
    by_subject: dict[str, int] = {}
    for c in clusters:
        by_subject[c.target] = by_subject.get(c.target, 0) + 1
    assert by_subject == {
        "surgeon": 3,
        "pediatrician": 2,
        "orthopedian": 2,
        "pediatric-surgeon": 1,
        "orthopedic-surgeon": 1,
    }
    probe = next(c for c in clusters if c.target == "surgeon" and c.source == "pediatric-surgeon")
    assert probe.questions == (
        "is the field of occupation of a surgeon surgery ?",
        "is a pediatric surgeon a surgeon ?",
        "is the field of occupation of a pediatric surgeon surgery ?",
        "is surgery the field of occupation of a pediatric surgeon ?",
    )
    assert probe.statements[1] == "a pediatric surgeon is a surgeon"
    assert probe.expected is cc.Answer.YES


def test_property_clusters_have_two_property_forms_per_specialty(medical_graph, medical_closure):
    for c in gen_property_clusters(medical_graph, medical_closure, cc.MEDICAL_GENERATION):
        desc_label = medical_graph.label_of(c.source)
        specialty_forms = [q for q in c.questions if f"of a {desc_label} " in q or f"of a {desc_label} ?" in q]
        assert len(specialty_forms) == 2


def test_property_cluster_ids_name_the_value_only_when_a_subject_has_several():
    repeated = make_graph([("b", "a")], properties=[("a", "p", "v1"), ("a", "p", "v1")])
    dataset = cc.generate_dataset(repeated, cc.GenerationConfig())
    assert [c.id for c in clusters_of(dataset, T.PROPERTY_INHERITANCE)] == ["property:a:b:p"]

    two_values = make_graph([("b", "a")], properties=[("a", "p", "v1"), ("a", "p", "V 2"), ("a", "q", "w")])
    dataset = cc.generate_dataset(two_values, cc.GenerationConfig())
    assert [c.id for c in clusters_of(dataset, T.PROPERTY_INHERITANCE)] == [
        "property:a:b:p:v-2",
        "property:a:b:p:v1",
        "property:a:b:q",
    ]


def test_non_latin_labels_load_and_get_distinct_ids():
    concepts = [cc.Concept(id="q1", label="Собака"), cc.Concept(id="q2", label="Млекопитающее")]
    graph = cc.build_graph(concepts, [("q1", "q2")])
    ids = [c.id for c in cc.generate_dataset(graph, cc.GenerationConfig()).clusters]
    assert "positive-edge:собака:млекопитающее" in ids
    assert len(ids) == len(set(ids))


# --- whole-dataset generation --------------------------------------------------


def test_generate_dataset_counts(medical_dataset):
    per_type = {t: len(clusters_of(medical_dataset, t)) for t in T}
    assert per_type == {
        T.POSITIVE_EDGE: 15,
        T.INVERSE_EDGE: 15,
        T.NEGATIVE_EDGE: 66,
        T.PATH: 6,
        T.PROPERTY_INHERITANCE: 9,
    }
    assert len(medical_dataset.clusters) == 111
    assert sum(len(c.questions) for c in medical_dataset.clusters) == 444


def test_generate_dataset_path_granularity_counts(medical_graph):
    config = dataclasses.replace(cc.MEDICAL_GENERATION, path_granularity="path")
    dataset = cc.generate_dataset(medical_graph, config)
    assert len(clusters_of(dataset, T.PATH)) == 12
    assert len(dataset.clusters) == 117
    assert sum(len(c.questions) for c in dataset.clusters) == 468


def test_generate_dataset_is_deterministic(medical_graph, medical_dataset, tmp_path):
    again = cc.generate_dataset(medical_graph, cc.MEDICAL_GENERATION)
    assert again == medical_dataset
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cc.write_dataset(medical_dataset, a)
    cc.write_dataset(again, b)
    assert a.read_bytes() == b.read_bytes()


def test_generated_expectations_match_closure(medical_dataset, medical_closure):
    for c in medical_dataset.clusters:
        if c.type in (T.POSITIVE_EDGE, T.PATH):
            assert (c.source, c.target) in medical_closure.implied
            assert c.expected is cc.Answer.YES
        elif c.type in (T.INVERSE_EDGE, T.NEGATIVE_EDGE):
            assert (c.source, c.target) not in medical_closure.implied
            assert c.expected is cc.Answer.NO
        else:
            assert (c.source, c.target) in medical_closure.implied
            assert c.expected is cc.Answer.YES


def test_questions_and_statements_are_parallel(medical_dataset):
    for c in medical_dataset.clusters:
        assert len(c.questions) == len(c.statements) == 4
        for q, s in zip(c.questions, c.statements):
            assert q.endswith(" ?")
            assert sorted(q[:-2].split()) == sorted(s.split())


def test_generate_dataset_binds_graph_fingerprint(medical_graph, medical_dataset):
    assert medical_dataset.graph_fingerprint == medical_graph.fingerprint
    assert medical_dataset.version == "1"


def test_cluster_ids_are_unique(medical_dataset):
    ids = [c.id for c in medical_dataset.clusters]
    assert len(ids) == len(set(ids))


def test_generate_dataset_refuses_a_question_with_two_expected_answers():
    # "x" under "y a z" and the unrelated pair ("x a y", "z") are both asked
    # "is a x a y a z ?"; no backend could answer it yes and no at once.
    graph = make_graph([("x", "y a z"), ("x a y", "r"), ("z", "r")])
    config = cc.GenerationConfig(seed=1, negative_count=20, min_distance=1)
    with pytest.warns(cc.InsufficientPairsWarning), pytest.raises(cc.SchemaViolation) as err:
        cc.generate_dataset(graph, config)
    assert str(err.value) == (
        "clusters positive-edge:x:y-a-z and negative-edge:x-a-y:z ask 'is a x a y a z ?' "
        "with expected answers yes and no"
    )


# --- dataset files -----------------------------------------------------------


def test_dataset_round_trip(tmp_path, medical_dataset):
    path = tmp_path / "dataset.json"
    cc.write_dataset(medical_dataset, path)
    assert cc.read_dataset(path) == medical_dataset


def test_dataset_fingerprint_tracks_content(tmp_path, medical_dataset, medical_graph):
    fp = cc.dataset_fingerprint(medical_dataset)
    path = tmp_path / "dataset.json"
    cc.write_dataset(medical_dataset, path)
    assert cc.dataset_fingerprint(cc.read_dataset(path)) == fp
    smaller = dataclasses.replace(medical_dataset, clusters=medical_dataset.clusters[:-1])
    assert cc.dataset_fingerprint(smaller) != fp


def test_read_dataset_names_offending_cluster(tmp_path, medical_dataset):
    import json

    path = tmp_path / "dataset.json"
    cc.write_dataset(medical_dataset, path)
    data = json.loads(path.read_text())
    del data["clusters"][3]["expected"]
    path.write_text(json.dumps(data))
    with pytest.raises(cc.SchemaViolation) as err:
        cc.read_dataset(path)
    assert data["clusters"][3]["id"] in str(err.value)


def test_read_dataset_rejects_mismatched_statements(tmp_path, medical_dataset):
    import json

    path = tmp_path / "dataset.json"
    cc.write_dataset(medical_dataset, path)
    data = json.loads(path.read_text())
    data["clusters"][0]["statements"] = data["clusters"][0]["statements"][:2]
    path.write_text(json.dumps(data))
    with pytest.raises(cc.SchemaViolation):
        cc.read_dataset(path)


def test_read_dataset_refuses_a_question_with_two_expected_answers(tmp_path, medical_dataset):
    import json

    path = tmp_path / "dataset.json"
    cc.write_dataset(medical_dataset, path)
    data = json.loads(path.read_text())
    positive = next(c for c in data["clusters"] if c["type"] == "positive_edge")
    inverse = next(c for c in data["clusters"] if c["type"] == "inverse_edge")
    inverse["questions"].append(positive["questions"][0])
    inverse["statements"].append(positive["statements"][0])
    path.write_text(json.dumps(data))
    with pytest.raises(cc.SchemaViolation) as err:
        cc.read_dataset(path)
    assert str(err.value) == (
        f"clusters {positive['id']} and {inverse['id']} ask {positive['questions'][0]!r} "
        "with expected answers yes and no"
    )


def test_read_dataset_rejects_bad_envelope(tmp_path):
    import json

    path = tmp_path / "dataset.json"
    with pytest.raises(cc.UnreadableSource):
        cc.read_dataset(path)
    path.write_text("[]")
    with pytest.raises(cc.SchemaViolation):
        cc.read_dataset(path)
    path.write_text(json.dumps({"version": "99"}))
    with pytest.raises(cc.SchemaViolation):
        cc.read_dataset(path)


# --- config validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": 1, "negative_count": -1},
        {"seed": None, "negative_count": 5},
        {"seed": 1, "min_distance": 0},
        {"seed": 1, "min_path_len": 0},
        {"seed": 1, "article_style": "telegraphic"},
        {"seed": 1, "path_granularity": "edge"},
        {"seed": 1, "template_set": "v2"},
    ],
)
def test_generation_config_validation(medical_graph, kwargs):
    with pytest.raises(cc.ConfigError):
        cc.generate_dataset(medical_graph, cc.GenerationConfig(**kwargs))


def test_generation_config_round_trip():
    config = cc.GenerationConfig(seed=7, negative_count=3, article_style="grammatical")
    assert cc.GenerationConfig.from_dict(config.to_dict()) == config
    with pytest.raises(cc.SchemaViolation):
        cc.GenerationConfig.from_dict({"seed": 1, "surprise": True})


# Prints the fingerprint of every dataset generated from a few random DAGs,
# each with labels in another order than ids, same-as pairs and properties,
# under each path length and granularity.
DATASET_FINGERPRINTS = """
import random
import conceptcheck as cc
from oracles import random_dag

for seed in (0, 2, 3):  # 29, 29 and 9 concepts, with 165, 156 and 3 strictly implied pairs
    rng = random.Random(seed)
    nodes, edges = random_dag(rng, max_nodes=30, edge_prob=0.25)
    labels = rng.sample([f"label {i:02d}" for i in range(len(nodes))], len(nodes))
    concepts = [cc.Concept(id=n, label=label) for n, label in zip(nodes, labels)]
    same_as = [tuple(rng.sample(nodes, 2)) for _ in range(3)]
    properties = [cc.PropertyAssertion(rng.choice(nodes), "colour", rng.choice(["red", "blue"])) for _ in range(4)]
    graph = cc.build_graph(concepts, edges, properties, same_as)
    for min_path_len in (2, 3):
        for path_granularity in ("pair", "path"):
            config = cc.GenerationConfig(seed=seed, negative_count=15, min_path_len=min_path_len,
                                         path_granularity=path_granularity)
            dataset = cc.generate_dataset(graph, config)
            print(len(dataset.clusters), dataset.fingerprint)
"""


def test_generated_datasets_do_not_depend_on_the_hash_seed():
    # Generation walks sets, whose order follows the hash seed; no such order may reach a dataset.
    tests = Path(__file__).parent
    search_path = [str(tests.parent / "src"), str(tests), *filter(None, [os.environ.get("PYTHONPATH")])]
    outputs = []
    for hash_seed in ("0", "1", "7"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(search_path), "PYTHONHASHSEED": hash_seed}
        result = subprocess.run([sys.executable, "-c", DATASET_FINGERPRINTS], capture_output=True, text=True,
                                timeout=120, env=env)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout.splitlines())
    assert len(outputs[0]) == 12 and all(int(line.split()[0]) > 0 for line in outputs[0])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
