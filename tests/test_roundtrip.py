"""Round trips and fingerprints on random inputs: graph, dataset, results
and context files survive save -> load -> save byte for byte, every
fingerprint equals the hand-written formula in `oracles.py`, including for
non-ASCII and astral text, and the JSON-lines decoder reads each line as
`json.loads` does."""

from __future__ import annotations

import json
import re
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conceptcheck as cc
from conceptcheck.clusters import dataset_to_dict
from conceptcheck.errors import decode_json_line
from conceptcheck.hierarchy import _slug
from oracles import fingerprint_by_hand

CHECK = settings(derandomize=True, max_examples=40, deadline=None, database=None)

# Arbitrary code points, with quotes, backslashes, control, non-ASCII and
# astral characters made likely.
text = st.text(st.one_of(st.sampled_from('"\\\n\té中\U0001f600\U00010348 '), st.characters()))
nonempty = text.filter(bool)
# Property names and values with distinct slugs, so any choice of them is valid.
PROPERTY_NAMES = ("färg", "\U0001d538ge", 'name "x"')
PROPERTY_VALUES = ("ок", "\U0001d51flue", "a\\b", "中")


@st.composite
def graphs(draw) -> cc.ConceptGraph:
    ids = draw(st.lists(nonempty, min_size=1, max_size=6, unique=True))
    labels = draw(st.lists(nonempty, min_size=len(ids), max_size=len(ids), unique_by=_slug))
    concepts = [
        cc.Concept(id=i, label=label, aliases=tuple(draw(st.lists(text, max_size=2))))
        for i, label in zip(ids, labels)
    ]
    forward = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    edges = draw(st.lists(st.sampled_from(forward), max_size=8)) if forward else []
    same_as = draw(st.lists(st.sampled_from(forward), max_size=2)) if forward else []
    properties = [
        cc.PropertyAssertion(subject=s, property=p, value=v)
        for s, p, v in draw(st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(PROPERTY_NAMES), st.sampled_from(PROPERTY_VALUES)),
            max_size=4,
        ))
    ]
    return cc.build_graph(concepts, edges, properties, same_as)


def _twice(save, load, obj, tmp_path):
    """The bytes of `obj` saved, and of it loaded back and saved again."""
    first, second = tmp_path / "first", tmp_path / "second"
    save(obj, first)
    save(load(first), second)
    return first.read_bytes(), second.read_bytes()


@CHECK
@given(graph=graphs())
def test_graph_file_round_trips(graph, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("g")
    first, second = _twice(cc.save_graph, cc.load_graph, graph, tmp)
    assert first == second
    assert cc.load_graph(tmp / "first") == graph


@CHECK
@given(
    graph=graphs(),
    seed=st.integers(0, 100),
    negatives=st.integers(0, 3),
    style=st.sampled_from(("literal", "grammatical")),
)
def test_dataset_file_round_trips_and_fingerprint_matches_formula(graph, seed, negatives, style, tmp_path_factory):
    config = cc.GenerationConfig(seed=seed, negative_count=negatives, article_style=style)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cc.InsufficientPairsWarning)
        dataset = cc.generate_dataset(graph, config)
    tmp = tmp_path_factory.mktemp("d")
    first, second = _twice(cc.write_dataset, cc.read_dataset, dataset, tmp)
    assert first == second
    assert cc.dataset_fingerprint(dataset) == fingerprint_by_hand(dataset_to_dict(dataset))
    assert cc.read_dataset(tmp / "first").fingerprint == dataset.fingerprint


# Lone surrogates, U+2028, U+0085, NUL and DEL made likely too: an answer line
# must escape each of them as the JSON encoder does. A high surrogate before a
# low one is left out, as JSON reads the two back as one astral character.
answer_text = st.text(st.one_of(
    st.sampled_from('"\\\n\té中\U0001f600\U00010348 \ud800\udfff\u2028\x85\x00\x7f'), st.characters()
)).filter(lambda s: not re.search("[\ud800-\udbff][\udc00-\udfff]", s))
answer_records = st.builds(
    cc.AnswerRecord,
    cluster_id=answer_text.filter(bool),
    question_index=st.integers(0, 10**6),
    raw=answer_text,
    normalized=st.sampled_from(cc.Answer),
    correct=st.booleans(),
    error=st.booleans(),
)


@CHECK
@given(resultset=st.builds(
    cc.ResultSet,
    backend_id=text,
    dataset_fingerprint=text,
    prompt_fingerprint=text,
    context_fingerprint=st.none() | text,
    records=st.lists(answer_records, max_size=6).map(tuple),
))
@example(resultset=cc.ResultSet("b", "d", "p", None, (cc.AnswerRecord("c", 0, "", cc.Answer.OTHER, False, True),)))
def test_results_file_round_trips(resultset, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("r")
    first, second = _twice(cc.write_results, cc.read_results, resultset, tmp)
    assert first == second
    assert cc.read_results(tmp / "first") == resultset
    header = {
        "record": "header", "version": "1", "backend": resultset.backend_id,
        "dataset_fingerprint": resultset.dataset_fingerprint, "prompt_fingerprint": resultset.prompt_fingerprint,
        "context_fingerprint": resultset.context_fingerprint,
    }
    records = [
        {"record": "answer", **r._asdict(), "normalized": r.normalized.value} for r in resultset.records
    ]
    assert first == "".join(
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" for obj in [header, *records]
    ).encode("ascii")


@CHECK
@given(context=st.builds(
    cc.ContextBlock,
    statements=st.lists(text, max_size=5).map(tuple),
    source_cluster_ids=st.lists(text, max_size=3).map(tuple),
    backend_ids=st.lists(text, max_size=3).map(tuple),
    dataset_fingerprint=text,
))
def test_context_file_round_trips_and_fingerprint_matches_formula(context, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("c")
    first, second = _twice(cc.save_context, cc.load_context, context, tmp)
    assert first == second
    assert cc.load_context(tmp / "first") == context
    assert context.fingerprint() == fingerprint_by_hand(
        {"statements": list(context.statements), "dataset": context.dataset_fingerprint}
    )


@CHECK
@given(preamble=text, few_shot=st.lists(st.tuples(text, text), max_size=3), model=text, prompt=text, question=text)
def test_prompt_and_cache_key_fingerprints_match_formula(preamble, few_shot, model, prompt, question):
    template = cc.PromptTemplate(preamble=preamble, few_shot=tuple(few_shot))
    assert template.fingerprint() == fingerprint_by_hand(
        {"preamble": preamble, "few_shot": [list(p) for p in few_shot]}
    )
    assert cc.ResponseCache.key(model, prompt, question) == fingerprint_by_hand(
        {"model": model, "prompt": prompt, "question": question}
    )


# --- one JSON line --------------------------------------------------------------


def _decoded(decode, line: str) -> tuple[str, str]:
    """What `decode` makes of `line`: the repr of its value, or its error
    message, which holds the position."""
    try:
        return "value", repr(decode(line))
    except json.JSONDecodeError as exc:
        return "error", str(exc)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
    max_leaves=8,
)
# JSON whitespace, and other whitespace and stray characters JSON refuses.
padding = st.text(st.sampled_from(" \t\r\n\x0b\x0c\xa0\u2028\x85\ufeff,x{}0"), max_size=3)
json_lines = st.one_of(
    st.builds(
        lambda before, value, ascii, after: before + json.dumps(value, ensure_ascii=ascii) + after,
        padding, json_values, st.booleans(), padding,
    ),
    st.text(st.sampled_from('{}[]":,0123456789.eE+-truefalsnNIiy \t\r\n\\'), max_size=12),
    text,
)


@settings(CHECK, max_examples=400)
@given(line=json_lines)
def test_decode_json_line_reads_a_line_as_json_loads_does(line):
    assert _decoded(decode_json_line, line) == _decoded(json.loads, line)


@pytest.mark.parametrize("line, accepted", [
    (" {}", True), ("{} ", True), ("\t{}\t", True), ("\r{}\r", True), (' \t\r\n{"a": [1]}\r\n\t ', True),
    ("\x0b{}", False), ("{}\x0b", False), ("\x0c{}", False), ("{}\x0c", False),
    ("\xa0{}", False), ("{}\xa0", False), ("\u2028{}", False), ("{}\u2028", False),
    ("\ufeff{}", False), ("{} {}", False), ("{}x", False), ("{} x", False),
    ("NaN", True), ("Infinity", True), ("-Infinity", True), ("[NaN, -Infinity]", True),
    ("{}", True), ("", False), (" ", False),
])
def test_decode_json_line_accepts_and_refuses_what_json_loads_does(line, accepted):
    decoded = _decoded(decode_json_line, line)
    assert decoded == _decoded(json.loads, line)
    assert (decoded[0] == "value") is accepted
