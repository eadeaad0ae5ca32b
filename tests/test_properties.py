"""Property tests: pair-mode path clusters, unrelated-pair sampling and the
path count match the brute-force oracles on random DAGs with same-as links,
a back edge is reported as a real cycle, prompts rendered from a shared
prefix match the joined-lines renderer, an isolated concept changes no
edge, path or property cluster, the question order changes no noisy
answer, a consistent relabelling changes no verdict tally, the union of
two disjoint graphs unites their clusters and adds their tallies, a
backend giving the other answer of each question swaps the consistent and
incomplete verdicts and tallies and misses what the original got right, the
form table renders questions and statements as the hand-written
functions do, every generated question is paired with its own statement,
a generated dataset either is refused or gives the perfect oracle an
all-consistent row, and a fragment extracted from a random dump matches
the claim-walking oracle."""

from __future__ import annotations

import ast
import random
import re
import warnings
from collections import Counter
from dataclasses import astuple
from operator import add
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import conceptcheck as cc
from conceptcheck import clusters, hierarchy
from conceptcheck.clusters import (
    QUESTION_FORMS,
    SUBSUMPTION_FORMS,
    _article,
    gen_inverse_clusters,
    gen_negative_clusters,
    gen_path_clusters,
    gen_positive_clusters,
    render_forms,
)
from conceptcheck.ingest import DIRECTIONS
from oracles import (
    all_paths_by_joining,
    extract_by_hand,
    first_path_per_pair,
    noisy_answer_by_hand,
    property_question_by_hand,
    property_statement_by_hand,
    random_dag,
    render_prompt_by_joining,
    sampled_unrelated_pairs,
    subsumption_question_by_hand,
    subsumption_statement_by_hand,
    unrelated_candidates,
)

T = cc.ClusterType
# Fixed examples (derandomize, no example database) keep the suite deterministic.
CHECK = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def dags(draw, max_nodes: int = 9):
    """(graph, labels, edges, same_as) with random labels, ranks, edges and same-as links."""
    n = draw(st.integers(2, max_nodes))
    ids = [f"c{i}" for i in range(n)]
    rank = draw(st.permutations(ids))
    forward = [(rank[i], rank[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(forward), max_size=len(forward)))
    edges = {e for e, k in zip(forward, keep) if k}
    same_as = draw(st.lists(st.sampled_from(forward), max_size=3))
    # Short words from few letters: prefixes and shared stems exercise label order.
    words = draw(st.lists(st.text("aeb", min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    labels = dict(zip(ids, words))
    graph = cc.build_graph([cc.Concept(id=i, label=labels[i]) for i in ids], edges, same_as=same_as)
    return graph, labels, edges, {frozenset(p) for p in same_as}


@CHECK
@given(dag=dags(), min_len=st.integers(1, 4))
def test_pair_mode_paths_match_first_path_oracle(dag, min_len):
    graph, labels, edges, _ = dag
    config = cc.GenerationConfig(min_path_len=min_len)
    got = [c.path for c in gen_path_clusters(graph, cc.deductive_closure(graph), config)]
    assert got == first_path_per_pair(labels, edges, min_len)


@CHECK
@given(dag=dags(), min_distance=st.integers(1, 4), seed=st.integers(0, 1000), data=st.data())
def test_unrelated_pairs_match_sampling_oracle(dag, min_distance, seed, data):
    graph, labels, edges, same_as = dag
    supply = len(unrelated_candidates(sorted(labels), edges, same_as, min_distance))
    count = data.draw(st.integers(0, supply + 3), label="count")
    expected, _ = sampled_unrelated_pairs(labels, edges, same_as, count, seed, min_distance)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = cc.unrelated_pairs(graph, cc.deductive_closure(graph), count, seed=seed, min_distance=min_distance)
    assert got == expected
    warned = [w for w in caught if issubclass(w.category, cc.InsufficientPairsWarning)]
    assert len(warned) == (count > supply)


@CHECK
@given(
    dag=dags(),
    style=st.sampled_from(("literal", "grammatical")),
    min_len=st.integers(1, 4),
    min_distance=st.integers(1, 4),
    seed=st.integers(0, 1000),
    negatives=st.integers(0, 40),
)
def test_generated_path_and_negative_clusters_match_oracles(dag, style, min_len, min_distance, seed, negatives):
    graph, labels, edges, same_as = dag
    config = cc.GenerationConfig(
        seed=seed, negative_count=negatives, min_distance=min_distance,
        min_path_len=min_len, article_style=style,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cc.InsufficientPairsWarning)
        dataset = cc.generate_dataset(graph, config)
    paths = [c for c in dataset.clusters if c.type is T.PATH]
    negative = [c for c in dataset.clusters if c.type is T.NEGATIVE_EDGE]
    assert [c.path for c in paths] == first_path_per_pair(labels, edges, min_len)
    expected, _ = sampled_unrelated_pairs(labels, edges, same_as, negatives, seed, min_distance)
    assert [(c.source, c.target) for c in negative] == expected
    for c in paths + negative:
        a, b = labels[c.source], labels[c.target]
        assert c.questions == tuple(subsumption_question_by_hand(f, a, b, style) for f in SUBSUMPTION_FORMS)
        assert c.statements == tuple(subsumption_statement_by_hand(f, a, b, style) for f in SUBSUMPTION_FORMS)


@CHECK
@given(dag=dags(), min_len=st.integers(1, 4))
def test_implied_paths_count_and_cap_match_enumeration(dag, min_len):
    graph, labels, edges, _ = dag
    every = sorted(all_paths_by_joining(edges, min_len), key=lambda p: [labels[n] for n in p])
    with patch.object(hierarchy, "MAX_ENUMERATED_PATHS", len(every)):
        assert cc.implied_paths(graph, min_len) == every
    with patch.object(hierarchy, "MAX_ENUMERATED_PATHS", len(every) - 1):
        with pytest.raises(cc.ConfigError, match=f"has {len(every)} paths"):
            cc.implied_paths(graph, min_len)


@CHECK
@given(dag=dags(), data=st.data())
def test_cycle_detected_names_a_real_cycle(dag, data):
    graph, labels, edges, _ = dag
    implied = sorted(cc.deductive_closure(graph).implied)
    assume(implied)
    below, above = data.draw(st.sampled_from(implied), label="back edge")
    looped = edges | {(above, below)}
    with pytest.raises(cc.CycleDetected) as err:
        cc.build_graph([cc.Concept(id=i, label=labels[i]) for i in labels], looped)
    cycle = err.value.cycle
    assert cycle[0] == cycle[-1]
    assert len(set(cycle[:-1])) == len(cycle) - 1 >= 2
    assert all(step in looped for step in zip(cycle, cycle[1:]))


@CHECK
@given(
    dag=dags(),
    style=st.sampled_from(("literal", "grammatical")),
    granularity=st.sampled_from(("pair", "path")),
    min_len=st.integers(1, 3),
    data=st.data(),
)
def test_an_isolated_concept_leaves_edge_path_and_property_clusters_unchanged(
    dag, style, granularity, min_len, data
):
    graph, labels, edges, _ = dag
    properties = [
        cc.PropertyAssertion(subject, "p", value)
        for subject, value in data.draw(st.lists(st.tuples(st.sampled_from(sorted(labels)), st.sampled_from("uv"))))
    ]
    # The isolated concept's label sorts anywhere among the others, and never shares their slug.
    isolated = cc.Concept("zz", data.draw(st.text("aeb", min_size=4, max_size=5), label="isolated label"))
    config = cc.GenerationConfig(article_style=style, path_granularity=granularity, min_path_len=min_len)
    concepts = [cc.Concept(i, labels[i]) for i in labels]
    kept = (T.POSITIVE_EDGE, T.INVERSE_EDGE, T.PATH, T.PROPERTY_INHERITANCE)

    def clusters(extra):
        bigger = cc.build_graph(concepts + extra, graph.edges, properties, graph.same_as)
        return [c for c in cc.generate_dataset(bigger, config).clusters if c.type in kept]

    before, after = clusters([]), clusters([isolated])
    assert after == before
    if granularity == "pair":
        assert [c.path for c in after if c.type is T.PATH] == first_path_per_pair(labels, edges, min_len)


@CHECK
@given(dag=dags(), seed=st.integers(0, 1000), p=st.sampled_from((0.0, 0.3, 0.5, 1.0)), data=st.data())
def test_shuffling_the_questions_leaves_every_noisy_answer_unchanged(dag, seed, p, data):
    graph, _, _, _ = dag
    dataset = cc.generate_dataset(graph, cc.GenerationConfig())
    assume(dataset.clusters)
    order = data.draw(st.permutations(range(len(dataset.clusters))), label="cluster order")
    shuffled_clusters = []
    for i in order:
        cluster = dataset.clusters[i]
        within = data.draw(st.permutations(range(len(cluster.questions))), label="question order")
        shuffled_clusters.append(cluster._replace(
            questions=tuple(cluster.questions[j] for j in within),
            statements=tuple(cluster.statements[j] for j in within),
        ))
    shuffled = cc.ClusterDataset.from_clusters(dataset.graph_fingerprint, dataset.config, shuffled_clusters)
    closure = cc.deductive_closure(graph)
    template = cc.PromptTemplate(preamble="")

    def answers(ds):
        noisy = cc.NoisyOracle(closure, ds, flip_probability=p, seed=seed)
        records = cc.evaluate_dataset(ds, noisy, template).records
        questions = [q for c in ds.clusters for q in c.questions]
        return {q: r.raw for q, r in zip(questions, records)}

    got = answers(dataset)
    assert answers(shuffled) == got
    truth = {q: c.expected.value for c in dataset.clusters for q in c.questions}
    assert got == {q: noisy_answer_by_hand(seed, p, q, truth[q]) for q in truth}


# Text with blank lines, newlines, prompt markers and non-ASCII and astral
# characters mixed into arbitrary code points.
prompt_text = st.text(
    st.one_of(st.sampled_from("Q:A \n\u00e9\u4e2d\U0001f600\U00010348"), st.characters()), max_size=12
)


@CHECK
@given(
    preamble=st.one_of(st.just(""), prompt_text),
    few_shot=st.lists(st.tuples(prompt_text, prompt_text), max_size=3),
    context=st.lists(st.one_of(st.just(""), prompt_text), max_size=5),
    question=prompt_text,
)
def test_render_prompt_matches_joining_oracle(preamble, few_shot, context, question):
    template = cc.PromptTemplate(preamble=preamble, few_shot=tuple(few_shot))
    expected = render_prompt_by_joining(preamble, few_shot, question, context)
    prefix = cc.render_prefix(template, tuple(context))
    assert cc.prompt_with_prefix(prefix, question) == expected
    assert (prefix == "") == (not preamble and not few_shot and not context)


# Labels avoid the template words, so each question has one reading.
TEMPLATE_WORDS = {"a", "an", "also", "every", "is", "of", "the", "type"}
# Upper-case vowels take "an" in the grammatical style; "?" and "\n" sit inside labels.
label_words = st.text("aAeEob?\n", min_size=1, max_size=3).filter(lambda w: w not in TEMPLATE_WORDS)


PROPERTY_FORMS = ("property_of", "value_is")
# Template words, articles, leading vowels of either case, "?", spaces and
# newlines, strung together into labels.
form_text = st.lists(
    st.sampled_from(("a", "an", "An", "e", "b", "?", "\n", " ", "is", "the", "of", "also", "every")),
    min_size=1, max_size=5,
).map("".join)
styles = st.sampled_from(("literal", "grammatical"))


@CHECK
@given(a=form_text, b=form_text, p=form_text, v=form_text, style=styles)
def test_form_table_renders_the_hand_written_questions_and_statements(a, b, p, v, style):
    fill = {"a": a, "ar_a": _article(a, style), "b": b, "ar_b": _article(b, style), "p": p, "v": v}
    assert set(QUESTION_FORMS) == set(SUBSUMPTION_FORMS + PROPERTY_FORMS)
    questions, statements = render_forms(SUBSUMPTION_FORMS + PROPERTY_FORMS, fill)
    assert questions == (
        *(subsumption_question_by_hand(f, a, b, style) for f in SUBSUMPTION_FORMS),
        *(property_question_by_hand(f, p, a, v, style) for f in PROPERTY_FORMS),
    )
    assert statements == (
        *(subsumption_statement_by_hand(f, a, b, style) for f in SUBSUMPTION_FORMS),
        *(property_statement_by_hand(f, p, a, v, style) for f in PROPERTY_FORMS),
    )


# The forms tuples the generators hand `render_forms`: subsumption clusters,
# then a property cluster's premise and its inherited forms.
GENERATED_FORMS = {SUBSUMPTION_FORMS, ("property_of",), ("plain", "property_of", "value_is")}


def test_generators_render_only_the_checked_forms_tuples(medical_graph):
    with patch.object(clusters, "render_forms", wraps=render_forms) as render:
        cc.generate_dataset(medical_graph, cc.MEDICAL_GENERATION)
    assert {call.args[0] for call in render.call_args_list} == GENERATED_FORMS


# Format braces, percent signs, quotes and backslashes, which a compiled
# form must copy as text, never read as syntax.
syntax_text = st.lists(
    st.sampled_from(("{", "}", "{}", "{a}", "{0}", "%", "%s", '"', "'", "\\", "\\n", "\n", "a", " ")), max_size=5,
).map("".join)


@CHECK
@given(a=syntax_text, b=syntax_text, p=syntax_text, v=syntax_text, style=styles)
def test_compiled_forms_render_as_format_map_does(a, b, p, v, style):
    fill = {"a": a, "ar_a": _article(a, style), "b": b, "ar_b": _article(b, style), "p": p, "v": v}
    for forms in [(form,) for form in QUESTION_FORMS] + sorted(GENERATED_FORMS):
        assert render_forms(forms, fill) == (
            tuple(QUESTION_FORMS[form][0].format_map(fill) for form in forms),
            tuple(QUESTION_FORMS[form][1].format_map(fill) for form in forms),
        )


def one_spelling_per_slug(assertions) -> bool:
    """Whether the properties of each subject whose slugs agree are spelled
    alike; two spellings of one slug would give two clusters one id."""
    spelled: dict = {}
    return all(spelled.setdefault((a.subject, hierarchy._slug(a.property)), a.property) == a.property for a in assertions)


@CHECK
@given(seed=st.integers(0, 10_000), style=styles, data=st.data())
def test_each_generated_question_is_paired_with_its_own_statement(seed, style, data):
    nodes, edges = random_dag(random.Random(seed), max_nodes=7, edge_prob=0.4)
    # Concepts, properties and values all take labels of up to three words.
    label = st.lists(label_words, min_size=1, max_size=3).map(" ".join)
    names = data.draw(st.lists(label, min_size=len(nodes), max_size=len(nodes), unique_by=hierarchy._slug))
    labels = dict(zip(nodes, names))
    properties = data.draw(st.lists(
        st.builds(cc.PropertyAssertion, st.sampled_from(nodes), label, label), max_size=4,
        unique_by=lambda a: (a.subject, hierarchy._slug(a.property), hierarchy._slug(a.value)),
    ).filter(one_spelling_per_slug))
    graph = cc.build_graph([cc.Concept(n, labels[n]) for n in nodes], edges, properties)
    config = cc.GenerationConfig(seed=seed, negative_count=3, min_distance=1, article_style=style)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cc.InsufficientPairsWarning)
        dataset = cc.generate_dataset(graph, config)
    for c in dataset.clusters:
        a, b = labels[c.source], labels[c.target]
        if c.type is T.PROPERTY_INHERITANCE:
            # The premise names one assertion on the target: labels hold no template word.
            ((p, v),) = {
                (x.property, x.value) for x in properties
                if x.subject == c.target and property_question_by_hand("property_of", x.property, b, x.value, style)
                == c.questions[0]
            }
            questions = (
                property_question_by_hand("property_of", p, b, v, style),
                subsumption_question_by_hand("plain", a, b, style),
                *(property_question_by_hand(f, p, a, v, style) for f in PROPERTY_FORMS),
            )
            statements = (
                property_statement_by_hand("property_of", p, b, v, style),
                subsumption_statement_by_hand("plain", a, b, style),
                *(property_statement_by_hand(f, p, a, v, style) for f in PROPERTY_FORMS),
            )
        else:
            questions = tuple(subsumption_question_by_hand(f, a, b, style) for f in SUBSUMPTION_FORMS)
            statements = tuple(subsumption_statement_by_hand(f, a, b, style) for f in SUBSUMPTION_FORMS)
        assert c.questions == questions
        assert c.statements == statements


@CHECK
@given(seed=st.integers(0, 10_000), style=styles, data=st.data())
def test_a_consistent_relabelling_leaves_the_verdict_tallies_unchanged(seed, style, data):
    rng = random.Random(seed)
    nodes, edges = random_dag(rng, max_nodes=9, edge_prob=0.3)
    properties = {cc.PropertyAssertion(rng.choice(nodes), "colour", rng.choice(("red", "blue"))) for _ in range(3)}
    rank = rng.sample(range(len(nodes)), len(nodes))
    word = st.text("aAbeE", min_size=1, max_size=4).filter(lambda w: w.lower() not in TEMPLATE_WORDS)

    def sorted_labels(name):
        labels = st.lists(word, min_size=len(nodes), max_size=len(nodes), unique_by=hierarchy._slug)
        return sorted(data.draw(labels, label=name))

    config = cc.GenerationConfig(seed=seed, negative_count=4, min_distance=1, article_style=style)

    def generate(labels):
        graph = cc.build_graph([cc.Concept(n, labels[k]) for n, k in zip(nodes, rank)], edges, properties)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cc.InsufficientPairsWarning)
            return graph, cc.generate_dataset(graph, config)

    # The concept of rank k takes the k-th least label of each set, so the
    # relabelling keeps label order and slug uniqueness.
    graph, original = generate(sorted_labels("labels"))
    _, relabelled = generate(sorted_labels("relabelled"))
    template = cc.PromptTemplate(preamble="")
    noisy = cc.NoisyOracle(cc.deductive_closure(graph), original, flip_probability=0.3, seed=seed)
    answered = cc.evaluate_dataset(original, noisy, template)
    replay: dict[str, str] = {}
    relabelled_questions = (q for c in relabelled.clusters for q in c.questions)
    for question, record in zip(relabelled_questions, answered.records, strict=True):
        assert replay.setdefault(question, record.raw) == record.raw
    replayed = cc.evaluate_dataset(relabelled, cc.ScriptedBackend(replay, id=noisy.id), template)
    assert cc.compute_report(replayed, relabelled) == cc.compute_report(answered, original)


@CHECK
@given(
    seed=st.integers(0, 10_000), style=styles, p=st.sampled_from((0.0, 0.3, 1.0)), min_len=st.integers(1, 3),
    granularity=st.sampled_from(clusters.PATH_GRANULARITIES),
)
def test_the_union_of_two_disjoint_graphs_unites_their_clusters_and_adds_their_tallies(
    seed, style, p, min_len, granularity
):
    rng = random.Random(seed)

    def part(prefix):
        """A random DAG with properties, whose ids and labels all start with `prefix`."""
        nodes, edges = random_dag(rng, max_nodes=9, edge_prob=0.3)
        properties = {
            cc.PropertyAssertion(prefix + rng.choice(nodes), "colour", rng.choice(("red", "blue"))) for _ in range(3)
        }
        concepts = [cc.Concept(prefix + n, f"{prefix} {n}") for n in nodes]
        return concepts, {(prefix + a, prefix + b) for a, b in edges}, properties

    (first, first_edges, first_properties), (second, second_edges, second_properties) = part("x"), part("y")
    graphs = (
        cc.build_graph(first, first_edges, first_properties),
        cc.build_graph(second, second_edges, second_properties),
        cc.build_graph(first + second, first_edges | second_edges, first_properties | second_properties),
    )
    # No negatives: sampling draws from every component, so it would couple the two parts.
    config = cc.GenerationConfig(min_path_len=min_len, article_style=style, path_granularity=granularity)
    template = cc.PromptTemplate(preamble="")

    def generated(graph):
        dataset = cc.generate_dataset(graph, config)
        noisy = cc.NoisyOracle(cc.deductive_closure(graph), dataset, flip_probability=p, seed=seed)
        return dataset, cc.compute_report(cc.evaluate_dataset(dataset, noisy, template), dataset)

    (first_dataset, first_row), (second_dataset, second_row), (union, union_row) = map(generated, graphs)
    assert Counter(union.clusters) == Counter(first_dataset.clusters) + Counter(second_dataset.clusters)
    for group in ("edges", "paths", "property", "all"):
        counts = (astuple(getattr(row, group)) for row in (first_row, second_row))
        assert astuple(getattr(union_row, group)) == tuple(map(add, *counts))


@CHECK
@given(
    seed=st.integers(0, 10_000), style=styles, p=st.sampled_from((0.0, 0.3, 0.5, 1.0)), negatives=st.integers(0, 4)
)
def test_a_negated_backend_swaps_consistent_and_incomplete_and_misses_what_the_original_got_right(
    seed, style, p, negatives
):
    rng = random.Random(seed)
    nodes, edges = random_dag(rng, max_nodes=9, edge_prob=0.3)
    properties = {cc.PropertyAssertion(rng.choice(nodes), "colour", rng.choice(("red", "blue"))) for _ in range(3)}
    graph = cc.build_graph([cc.Concept(n, n) for n in nodes], edges, properties)
    config = cc.GenerationConfig(seed=seed, negative_count=negatives, min_distance=1, article_style=style)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cc.InsufficientPairsWarning)
        dataset = cc.generate_dataset(graph, config)
    noisy = cc.NoisyOracle(cc.deductive_closure(graph), dataset, flip_probability=p, seed=seed)
    other = {"yes": "no", "no": "yes"}
    negated = cc.ScriptedBackend({q: other[noisy.answer(q, "")] for q in dataset.questions}, id="negated")
    template = cc.PromptTemplate(preamble="")
    original, flipped = (cc.evaluate_dataset(dataset, backend, template) for backend in (noisy, negated))

    V = cc.Verdict
    swapped = {V.CONSISTENT: V.INCOMPLETE, V.INCONSISTENT: V.INCONSISTENT, V.INCOMPLETE: V.CONSISTENT}
    assert flipped.verdicts == {cid: swapped[verdict] for cid, verdict in original.verdicts.items()}
    row, flipped_row = (cc.compute_report(rs, dataset) for rs in (original, flipped))
    for group in ("edges", "paths", "property", "all"):
        tally, flipped_tally = getattr(row, group), getattr(flipped_row, group)
        assert astuple(flipped_tally) == (tally.total, tally.incomplete, tally.inconsistent, tally.consistent)
    # The negated run misses exactly the questions the original answered correctly.
    right = (statement for statement, correct in zip(dataset.statements, original.correct) if correct)
    assert cc.build_context([flipped], dataset).statements == tuple(dict.fromkeys(right))


@CHECK
@given(seed=st.integers(0, 10_000), style=styles, data=st.data())
def test_a_generated_dataset_is_refused_or_scored_all_consistent_by_the_perfect_oracle(seed, style, data):
    # Labels of words that include the article "a" can make two clusters ask
    # one text: "x" under "a x" and "x a" beside "x" both ask "is a x a a x ?".
    nodes, edges = random_dag(random.Random(seed), max_nodes=6, edge_prob=0.4)
    label = st.lists(st.sampled_from(("a", "x")), min_size=1, max_size=3).map(" ".join)
    names = data.draw(st.lists(label, min_size=len(nodes), max_size=len(nodes), unique_by=hierarchy._slug))
    graph = cc.build_graph([cc.Concept(n, name) for n, name in zip(nodes, names)], edges)
    closure = cc.deductive_closure(graph)
    config = cc.GenerationConfig(seed=seed, negative_count=20, min_distance=1, article_style=style)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cc.InsufficientPairsWarning)
        try:
            dataset = cc.generate_dataset(graph, config)
        except cc.SchemaViolation as exc:
            # The refusal names two subsumption clusters that ask one question both ways.
            refusal = re.fullmatch(
                r"clusters (\S+) and (\S+) ask ('.*') with expected answers (yes and no|no and yes)", str(exc)
            )
            asked = {c.id: c for c in (
                *gen_positive_clusters(graph, config), *gen_inverse_clusters(graph, config),
                *gen_negative_clusters(graph, closure, config), *gen_path_clusters(graph, closure, config),
            )}
            named = [asked[refusal[1]], asked[refusal[2]]]
            assert all(ast.literal_eval(refusal[3]) in c.questions for c in named)
            assert " and ".join(c.expected.value for c in named) == refusal[4]
            return
    rs = cc.evaluate_dataset(dataset, cc.PerfectOracle(closure, dataset), cc.PromptTemplate(preamble=""))
    row = cc.compute_report(rs, dataset)
    assert row.all.consistent == row.all.total


@st.composite
def entity_dumps(draw, max_entities: int = 9):
    """(claims, labels) of a random dump. Each entity but the first claims P279
    of one of the two entities listed just before it, so the hierarchy is
    deep. Extra P279 claims point at the claimant, an earlier entity or an id
    outside the dump, and P31 claims at any entity, so self-claims and cycles
    are common. P460 gives same-as links, and the seed property P9 holds
    entity ids and plain strings. P9's own entity is in the dump or not."""
    ids = [f"Q{i}" for i in range(draw(st.integers(1, max_entities)))]
    claims = {}
    for i, eid in enumerate(ids):
        chain = [ids[draw(st.integers(max(i - 2, 0), i - 1))]] if i else []
        claims[eid] = {
            "P279": chain + draw(st.lists(st.sampled_from(ids[: i + 1] + ["Q98", "Q99"]), max_size=1)),
            "P31": draw(st.lists(st.sampled_from(ids), max_size=1)),
            "P460": draw(st.lists(st.sampled_from(ids + ["Q99"]), max_size=1)),
            "P9": draw(st.lists(st.sampled_from(ids + ["red", "blue"]), max_size=2)),
        }
    labels = {eid: f"concept {eid}" for eid in ids}
    if draw(st.booleans()):
        claims["P9"], labels["P9"] = {}, "colour"
    return claims, labels


# More examples than CHECK's: about one in four has a depth that changes the fragment.
@settings(CHECK, max_examples=150)
@given(dump=entity_dumps(), direction=st.sampled_from(DIRECTIONS), max_depth=st.integers(1, 4), data=st.data())
def test_extract_fragment_matches_the_claim_walking_oracle(dump, direction, max_depth, data):
    claims, labels = dump
    # Deepest first, so that the examples hypothesis prefers have ancestors.
    seed = data.draw(st.sampled_from(sorted((c for c in claims if c != "P9"), reverse=True)), label="seed")
    spec = cc.ExtractionSpec(
        seed_concept=seed, seed_property=data.draw(st.sampled_from((None, "P9")), label="property"),
        max_depth=max_depth, direction=direction,
    )
    entities = [
        cc.RawEntity(id=eid, labels={"en": labels[eid]}, aliases={}, claims={p: tuple(t) for p, t in c.items()})
        for eid, c in claims.items()
    ]
    entities = data.draw(st.permutations(entities), label="record order")
    concepts, edges, properties, same_as = extract_by_hand(
        claims, labels, seed, direction, max_depth, spec.seed_property
    )
    if not edges:
        with pytest.raises(cc.EmptyFragment):
            cc.extract_fragment(spec, entities)
        return
    graph = cc.extract_fragment(spec, entities)
    assert [(c.id, c.label) for c in graph.concepts] == concepts
    assert graph.edge_set == edges
    assert {(p.subject, p.property, p.value) for p in graph.properties} == properties
    assert set(graph.same_as) == same_as
