"""Concept graph construction, closure, and derived relations."""

from __future__ import annotations

import random
import warnings

import pytest

import conceptcheck as cc
from conftest import ladder_edges, make_graph
from oracles import (
    ancestors_by_bfs,
    floyd_warshall_reachability,
    undirected_distance,
    unrelated_pairs_by_enumeration,
    random_dag,
)


# --- build_graph validation -------------------------------------------------


def test_build_graph_rejects_empty_id_or_label():
    with pytest.raises(cc.SchemaViolation):
        cc.build_graph([cc.Concept(id="", label="x", aliases=())], [])
    with pytest.raises(cc.SchemaViolation):
        cc.build_graph([cc.Concept(id="x", label="", aliases=())], [])


def test_build_graph_rejects_duplicate_id():
    concepts = [
        cc.Concept(id="a", label="alpha", aliases=()),
        cc.Concept(id="a", label="beta", aliases=()),
    ]
    with pytest.raises(cc.SchemaViolation):
        cc.build_graph(concepts, [])


def test_build_graph_rejects_duplicate_label_case_insensitively():
    concepts = [
        cc.Concept(id="a", label="Surgeon", aliases=()),
        cc.Concept(id="b", label="surgeon", aliases=()),
    ]
    with pytest.raises(cc.DuplicateLabel):
        cc.build_graph(concepts, [])


def test_build_graph_rejects_labels_with_equal_slugs():
    # `x y` and `x-y` would give the same cluster ids.
    concepts = [cc.Concept(id="a", label="x y"), cc.Concept(id="b", label="x-y")]
    with pytest.raises(cc.DuplicateLabel, match=r"'x-y' of b collides with a as 'x-y'"):
        cc.build_graph(concepts, [])


def test_build_graph_rejects_dangling_edge_endpoints():
    concepts = [cc.Concept(id="a", label="a", aliases=())]
    with pytest.raises(cc.DanglingReference):
        cc.build_graph(concepts, [("a", "ghost")])
    with pytest.raises(cc.DanglingReference):
        cc.build_graph(concepts, [("ghost", "a")])


def test_build_graph_rejects_self_loop():
    concepts = [cc.Concept(id="a", label="a", aliases=())]
    with pytest.raises(cc.CycleDetected):
        cc.build_graph(concepts, [("a", "a")])


def test_build_graph_rejects_cycle():
    with pytest.raises(cc.CycleDetected):
        make_graph([("a", "b"), ("b", "c"), ("c", "a")])


def test_build_graph_rejects_dangling_property_subject():
    concepts = [cc.Concept(id="a", label="a", aliases=())]
    prop = cc.PropertyAssertion(subject="ghost", property="p", value="v")
    with pytest.raises(cc.DanglingReference):
        cc.build_graph(concepts, [], [prop])


def test_build_graph_rejects_empty_property_field():
    concepts = [cc.Concept(id="a", label="a", aliases=())]
    prop = cc.PropertyAssertion(subject="a", property="", value="v")
    with pytest.raises(cc.SchemaViolation):
        cc.build_graph(concepts, [], [prop])


def test_build_graph_rejects_bad_same_as():
    concepts = [cc.Concept(id="a", label="a", aliases=()), cc.Concept(id="b", label="b", aliases=())]
    with pytest.raises(cc.DanglingReference):
        cc.build_graph(concepts, [], [], [("a", "ghost")])
    with pytest.raises(cc.SchemaViolation):
        cc.build_graph(concepts, [], [], [("a", "a")])


def test_duplicate_edges_collapse():
    g = cc.build_graph(
        [cc.Concept(id="a", label="a", aliases=()), cc.Concept(id="b", label="b", aliases=())],
        [("a", "b"), ("a", "b")],
    )
    assert len(g.edges) == 1


def test_duplicate_property_assertions_collapse():
    g = make_graph([("b", "a")], properties=[("a", "p", "v1"), ("a", "p", "v1"), ("a", "p", "v2")])
    assert g.properties == (
        cc.PropertyAssertion(subject="a", property="p", value="v1"),
        cc.PropertyAssertion(subject="a", property="p", value="v2"),
    )


def test_build_graph_rejects_property_values_with_equal_slugs():
    with pytest.raises(cc.SchemaViolation, match=r"'V 1' and 'v-1' of a collide as 'v-1'"):
        make_graph([("b", "a")], properties=[("a", "p", "V 1"), ("a", "p", "v-1")])
    # Other subjects and other properties may reuse the value.
    make_graph([("b", "a")], properties=[("a", "p", "V 1"), ("b", "p", "v-1"), ("a", "q", "v-1")])


def test_build_graph_rejects_property_names_with_equal_slugs():
    with pytest.raises(cc.SchemaViolation, match=r"'Field' and 'field' of a collide as 'field'"):
        make_graph([("b", "a")], properties=[("a", "field", "v1"), ("a", "Field", "v2")])
    make_graph([("b", "a")], properties=[("a", "field", "v1"), ("b", "Field", "v2")])


# --- deductive closure ------------------------------------------------------


def test_closure_matches_brute_force_on_medical_graph(medical_graph, medical_closure):
    nodes = list(medical_graph.concept_ids)
    expected = floyd_warshall_reachability(nodes, set(medical_graph.edges))
    assert set(medical_closure.implied) == expected


def test_closure_matches_brute_force_on_random_dags():
    for seed in range(20):
        rng = random.Random(seed)
        nodes, edges = random_dag(rng)
        # Labels sort in another order than ids, so a map sorted by id would differ.
        labels = dict(zip(nodes, rng.sample([f"label {i:02d}" for i in range(len(nodes))], len(nodes))))
        concepts = [cc.Concept(id=n, label=labels[n], aliases=()) for n in nodes]
        graph = cc.build_graph(concepts, edges)
        closure = cc.deductive_closure(graph)
        reachable = floyd_warshall_reachability(nodes, edges)
        assert set(closure.implied) == reachable, f"seed {seed}"
        for a in nodes:
            for b in nodes:
                for reflexive in (False, True):
                    expected = (a, b) in reachable or (reflexive and a == b)
                    assert cc.is_subconcept(closure, a, b, reflexive=reflexive) == expected, f"seed {seed}, {a}, {b}"
        reversed_edges = {(parent, child) for child, parent in edges}
        for node in nodes:
            where = f"seed {seed}, {node}"
            ancestors, descendants = closure.ancestors(node), closure.strict_descendants(node)
            assert type(ancestors) is frozenset and ancestors == ancestors_by_bfs(node, edges), where
            assert type(descendants) is frozenset and descendants == ancestors_by_bfs(node, reversed_edges), where
            parents = sorted((p for c, p in edges if c == node), key=labels.get)
            children = sorted((c for c, p in edges if p == node), key=labels.get)
            assert graph.parents_map[node] == tuple(parents), where
            assert graph.children_map[node] == tuple(children), where


def test_closure_is_irreflexive_and_contains_direct_edges(medical_graph, medical_closure):
    assert all(a != b for a, b in medical_closure.implied)
    assert medical_closure.direct == frozenset(medical_graph.edges)
    assert medical_closure.direct <= medical_closure.implied
    assert medical_closure.strictly_implied == medical_closure.implied - medical_closure.direct


def test_closures_are_equal_exactly_when_their_relations_are():
    edges = [("b", "a"), ("c", "b"), ("y", "x")]
    one, two = cc.deductive_closure(make_graph(edges)), cc.deductive_closure(make_graph(edges))
    assert one == two and hash(one) == hash(two)
    assert cc.deductive_closure(make_graph(edges + [("y", "b")])) != one
    # One more concept without edges has the same edges and fingerprint: only the relation tells them apart.
    lone = make_graph(edges, extra=["z"])
    assert lone.fingerprint == one.derived_from and cc.deductive_closure(lone) != one


def test_medical_closure_counts(medical_closure):
    assert len(medical_closure.direct) == 15
    assert len(medical_closure.implied) == 21
    assert len(medical_closure.strictly_implied) == 6


def test_closure_records_source_fingerprint(medical_graph, medical_closure):
    assert medical_closure.derived_from == medical_graph.fingerprint


def test_ancestors_and_descendants_match_bfs(medical_graph, medical_closure):
    edges = set(medical_graph.edges)
    for node in medical_graph.concept_ids:
        assert medical_closure.ancestors(node) == ancestors_by_bfs(node, edges)
    reversed_edges = {(b, a) for a, b in edges}
    for node in medical_graph.concept_ids:
        assert medical_closure.strict_descendants(node) == ancestors_by_bfs(node, reversed_edges)


# --- is_subconcept ----------------------------------------------------------


def test_is_subconcept_direct_transitive_and_negative(medical_closure):
    assert cc.is_subconcept(medical_closure, "surgeon", "medical-specialist")
    assert cc.is_subconcept(medical_closure, "orthopedic-pediatric-surgeon", "medical-specialist")
    assert not cc.is_subconcept(medical_closure, "medical-specialist", "surgeon")
    assert not cc.is_subconcept(medical_closure, "pediatrician", "surgeon")


def test_is_subconcept_reflexivity_flag(medical_closure):
    assert not cc.is_subconcept(medical_closure, "surgeon", "surgeon")
    assert cc.is_subconcept(medical_closure, "surgeon", "surgeon", reflexive=True)


def test_is_subconcept_unknown_concept(medical_closure):
    with pytest.raises(cc.UnknownConcept):
        cc.is_subconcept(medical_closure, "ghost", "surgeon")


# --- unrelated pairs --------------------------------------------------------


def test_unrelated_pairs_matches_enumeration_oracle(medical_graph, medical_closure):
    nodes = list(medical_graph.concept_ids)
    edges = set(medical_graph.edges)
    oracle = unrelated_pairs_by_enumeration(nodes, edges, set(medical_graph.same_as_sets), 2)
    assert len(oracle) == 70
    got = cc.unrelated_pairs(medical_graph, medical_closure, 66, seed=1)
    assert len(got) == 66
    assert len({frozenset(p) for p in got}) == 66
    assert all(frozenset(p) in oracle for p in got)


def test_unrelated_pairs_is_deterministic(medical_graph, medical_closure):
    a = cc.unrelated_pairs(medical_graph, medical_closure, 66, seed=1)
    b = cc.unrelated_pairs(medical_graph, medical_closure, 66, seed=1)
    c = cc.unrelated_pairs(medical_graph, medical_closure, 66, seed=2)
    assert a == b
    assert a != c


def test_unrelated_pairs_never_subsume_each_other(medical_graph, medical_closure):
    for a, b in cc.unrelated_pairs(medical_graph, medical_closure, 66, seed=5):
        assert (a, b) not in medical_closure.implied
        assert (b, a) not in medical_closure.implied


def test_unrelated_pairs_honors_min_distance(medical_graph, medical_closure):
    nodes = list(medical_graph.concept_ids)
    edges = set(medical_graph.edges)
    for dist in (2, 3, 4):
        oracle = unrelated_pairs_by_enumeration(nodes, edges, set(medical_graph.same_as_sets), dist)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cc.InsufficientPairsWarning)
            got = cc.unrelated_pairs(medical_graph, medical_closure, 10_000, seed=1, min_distance=dist)
        assert {frozenset(p) for p in got} == oracle
        for a, b in got:
            assert undirected_distance(a, b, nodes, edges) >= dist


def test_unrelated_pairs_excludes_same_as_links():
    g = make_graph([("b", "a"), ("c", "a")], same_as=[("b", "c")])
    closure = cc.deductive_closure(g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cc.InsufficientPairsWarning)
        got = cc.unrelated_pairs(g, closure, 100, seed=0)
    assert got == []


def test_unrelated_pairs_warns_when_supply_runs_short(medical_graph, medical_closure):
    with pytest.warns(cc.InsufficientPairsWarning):
        got = cc.unrelated_pairs(medical_graph, medical_closure, 71, seed=1)
    assert len(got) == 70


def test_unrelated_pairs_validates_arguments(medical_graph, medical_closure):
    with pytest.raises(cc.ConfigError):
        cc.unrelated_pairs(medical_graph, medical_closure, -1, seed=1)
    with pytest.raises(cc.ConfigError):
        cc.unrelated_pairs(medical_graph, medical_closure, 5, seed=1, min_distance=0)


# --- implied paths ----------------------------------------------------------


def test_implied_paths_counts_on_medical_graph(medical_graph):
    paths = cc.implied_paths(medical_graph)
    assert len(paths) == 12
    assert sum(1 for p in paths if len(p) == 3) == 8
    assert sum(1 for p in paths if len(p) == 4) == 4


def test_implied_paths_contains_the_longest_specialist_chains(medical_graph):
    paths = set(cc.implied_paths(medical_graph))
    for chain in (
        ("orthopedic-pediatric-surgeon", "pediatric-surgeon", "surgeon", "medical-specialist"),
        ("orthopedic-pediatric-surgeon", "pediatric-surgeon", "pediatrician", "medical-specialist"),
        ("orthopedic-pediatric-surgeon", "orthopedic-surgeon", "surgeon", "medical-specialist"),
        ("orthopedic-pediatric-surgeon", "orthopedic-surgeon", "orthopedian", "medical-specialist"),
    ):
        assert chain in paths


def test_implied_paths_every_path_walks_direct_edges(medical_graph):
    edge_set = set(medical_graph.edges)
    for path in cc.implied_paths(medical_graph):
        assert len(path) >= 3
        for child, parent in zip(path, path[1:]):
            assert (child, parent) in edge_set


def test_implied_paths_min_len_filter(medical_graph):
    len1 = cc.implied_paths(medical_graph, min_len=1)
    assert len(len1) == 15 + 12  # every edge is a length-1 path
    assert cc.implied_paths(medical_graph, min_len=4) == []
    with pytest.raises(cc.ConfigError):
        cc.implied_paths(medical_graph, min_len=0)


def test_implied_paths_sorted_by_label_sequence(medical_graph):
    paths = cc.implied_paths(medical_graph)
    keys = [tuple(medical_graph.label_of(n) for n in p) for p in paths]
    assert keys == sorted(keys)


def test_implied_paths_refuses_a_60_rung_ladder():
    graph = make_graph(ladder_edges(60))
    # Paths from rung i with >= 1 edge: one per parent edge plus every path on from that parent.
    longer = [0, 1]
    for _ in range(2, 60):
        longer.append(2 + longer[-1] + longer[-2])
    count = sum(longer) - len(graph.edges)  # minus the one-edge paths
    assert count > cc.MAX_ENUMERATED_PATHS
    with pytest.raises(cc.ConfigError) as info:
        cc.implied_paths(graph)
    assert str(info.value) == (
        f"the graph has {count} paths with at least 2 edges, more than the 100000 that can be enumerated"
    )


# --- serialization and fingerprints -----------------------------------------


def test_graph_round_trip(tmp_path, medical_graph):
    path = tmp_path / "graph.json"
    cc.save_graph(medical_graph, path)
    loaded = cc.load_graph(path)
    assert loaded.concepts == medical_graph.concepts
    assert loaded.edges == medical_graph.edges
    assert loaded.properties == medical_graph.properties
    assert loaded.same_as == medical_graph.same_as
    assert loaded.fingerprint == medical_graph.fingerprint


def test_save_graph_is_stable(tmp_path, medical_graph):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cc.save_graph(medical_graph, a)
    cc.save_graph(cc.load_graph(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_load_graph_errors(tmp_path):
    with pytest.raises(cc.UnreadableSource):
        cc.load_graph(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(cc.SchemaViolation):
        cc.load_graph(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"version": "1"}', encoding="utf-8")
    with pytest.raises(cc.SchemaViolation):
        cc.load_graph(wrong)


def test_fingerprint_ignores_edge_order():
    edges = [("a", "b"), ("b", "c"), ("a", "c")]
    assert cc.graph_fingerprint(edges) == cc.graph_fingerprint(reversed(edges))
    assert cc.graph_fingerprint(edges) != cc.graph_fingerprint(edges[:2])


def test_label_lookup_and_membership(medical_graph):
    assert medical_graph.label_of("medical-specialist") == "medical specialist"
    assert "surgeon" in medical_graph
    assert "ghost" not in medical_graph
    with pytest.raises(cc.UnknownConcept):
        medical_graph.label_of("ghost")
