"""Round trips and fingerprints on random inputs: graph, dataset, results
and context files survive save -> load -> save byte for byte, a dataset
file holds the bytes the standard library's encoder writes, every
fingerprint equals the hand-written formula in `oracles.py`, including for
non-ASCII and astral text, and the results reader reads any file, valid or
not, as the reference reader in `oracles.py` does."""

from __future__ import annotations

import io
import json
import logging
import re
import sys
import tracemalloc
import warnings
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conceptcheck as cc
from conceptcheck import errors, evaluation
from conceptcheck.evaluation import ask_and_judge, records_of
from conceptcheck.hierarchy import _slug
from conftest import REFUSED_JSON_VALUES
from oracles import (
    cluster_to_dict,
    dataset_file_by_hand,
    dataset_to_dict,
    entity_dump_by_hand,
    fingerprint_by_hand,
    results_by_hand,
)

CHECK = settings(derandomize=True, max_examples=40, deadline=None, database=None)

# Arbitrary code points, with quotes, backslashes, control, non-ASCII and
# astral characters made likely.
text = st.text(st.one_of(st.sampled_from('"\\\n\té中\U0001f600\U00010348 '), st.characters()))
nonempty = text.filter(bool)
# Labels for the dataset checks: format braces, percent signs, quotes,
# backslashes, U+2028, lone surrogates and astral characters made likely.
label_text = st.text(
    st.one_of(st.sampled_from('{}%"\\\u2028\ud800\udfff\U0001f600\U00010348é '), st.characters()), min_size=1
)
# Property names and values with distinct slugs, so any choice of them is valid.
PROPERTY_NAMES = ("färg", "\U0001d538ge", 'name "x"')
PROPERTY_VALUES = ("ок", "\U0001d51flue", "a\\b", "中")


@st.composite
def graphs(draw, label=nonempty) -> cc.ConceptGraph:
    ids = draw(st.lists(nonempty, min_size=1, max_size=6, unique=True))
    labels = draw(st.lists(label, min_size=len(ids), max_size=len(ids), unique_by=_slug))
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


# A graph that generates no cluster, and one whose path clusters, with
# min_path_len 3, have more than one path between the same endpoints.
LONE_CONCEPT = cc.build_graph([cc.Concept(id="c", label="c")], [])
TWO_WAYS = cc.build_graph(
    [cc.Concept(id=i, label=label) for i, label in zip("abcde", ('x{0}', "50%", 'say "hi"', "a\\b", "\u2028\ud800"))],
    [("a", "b"), ("b", "c"), ("c", "d"), ("a", "e"), ("e", "c")],
    [cc.PropertyAssertion(subject="d", property="{p}", value="%s")],
)


@CHECK
@given(
    graph=graphs(label_text),
    seed=st.integers(0, 100),
    negatives=st.integers(0, 3),
    style=st.sampled_from(("literal", "grammatical")),
    granularity=st.sampled_from(("pair", "path")),
    min_path_len=st.integers(1, 3),
)
@example(graph=LONE_CONCEPT, seed=0, negatives=1, style="literal", granularity="pair", min_path_len=2)
@example(graph=TWO_WAYS, seed=0, negatives=0, style="grammatical", granularity="path", min_path_len=3)
def test_dataset_file_round_trips_and_fingerprint_matches_formula(
    graph, seed, negatives, style, granularity, min_path_len, tmp_path_factory
):
    config = cc.GenerationConfig(
        seed=seed, negative_count=negatives, article_style=style,
        path_granularity=granularity, min_path_len=min_path_len,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cc.InsufficientPairsWarning)
        dataset = cc.generate_dataset(graph, config)
    tmp = tmp_path_factory.mktemp("d")
    first, second = _twice(cc.write_dataset, cc.read_dataset, dataset, tmp)
    assert first == second
    assert first == dataset_file_by_hand(dataset)
    assert cc.dataset_fingerprint(dataset) == fingerprint_by_hand(dataset_to_dict(dataset))
    assert cc.read_dataset(tmp / "first").fingerprint == dataset.fingerprint


def test_dataset_file_holds_empty_lists_as_the_encoder_writes_them(tmp_path):
    # No generator makes an empty path; a dataset built by hand may hold one.
    cluster = cc.QuestionCluster("c", cc.ClusterType.PATH, cc.Answer.YES, "a", "b", ("is a b ?",), ("a is b",), ())
    dataset = cc.ClusterDataset.from_clusters("g", cc.GenerationConfig(), (cluster,))
    cc.write_dataset(dataset, tmp_path / "d.json")
    assert (tmp_path / "d.json").read_bytes() == dataset_file_by_hand(dataset)
    assert dataset.fingerprint == fingerprint_by_hand(dataset_to_dict(dataset))
    assert cc.read_dataset(tmp_path / "d.json").clusters == (cluster,)


# Few ids and questions, so two clusters often share one.
CLUSTER_IDS = ("c", 'd "x"', "\u2028\ud800", "é", "\U0001f600", "f\\g", "h", "i")
CLUSTER_QUESTIONS = (*(f"is {i} a x ?" for i in range(20)), 'is "é" a \\ ?', "\U0001f600\ud800")


@st.composite
def hand_built_clusters(draw) -> cc.QuestionCluster:
    """A cluster as a caller may build one: no questions, statements that do
    not parallel them, and an id or question another cluster has too, each
    made likely."""
    count = draw(st.sampled_from((0, 1, 2, 4, 4, 4)))
    questions = draw(st.lists(st.sampled_from(CLUSTER_QUESTIONS), min_size=count, max_size=count))
    parallel = draw(st.sampled_from((True, True, True, False)))
    statements = draw(st.lists(text, min_size=count, max_size=count) if parallel else st.lists(text, max_size=4))
    return cc.QuestionCluster(
        draw(st.sampled_from(CLUSTER_IDS)), draw(st.sampled_from(cc.ClusterType)),
        draw(st.sampled_from((cc.Answer.YES, cc.Answer.NO))), draw(text), draw(text), tuple(questions),
        tuple(statements), draw(st.none() | st.lists(text, max_size=2).map(tuple)),
    )


@settings(CHECK, max_examples=100)
@given(clusters=st.lists(hand_built_clusters(), max_size=4))
def test_a_dataset_file_is_read_back_exactly_when_its_clusters_make_a_dataset(clusters, tmp_path_factory):
    # The reader builds its dataset with `from_clusters`, so the two refuse alike,
    # and what `from_clusters` accepts is written and read back byte for byte.
    tmp = tmp_path_factory.mktemp("d")
    by_hand = {"version": "1", "graph_fingerprint": "g", "config": {}, "clusters": list(map(cluster_to_dict, clusters))}
    (tmp / "by-hand").write_text(json.dumps(by_hand), encoding="utf-8")
    try:
        dataset = cc.ClusterDataset.from_clusters("g", cc.GenerationConfig(), clusters)
    except cc.SchemaViolation as exc:
        with pytest.raises(cc.SchemaViolation, match=f"^{re.escape(str(exc))}$"):
            cc.read_dataset(tmp / "by-hand")
        return
    first, second = _twice(cc.write_dataset, cc.read_dataset, dataset, tmp)
    assert first == second == dataset_file_by_hand(dataset)
    assert cc.read_dataset(tmp / "by-hand").fingerprint == dataset.fingerprint


# Lone surrogates, U+2028, U+0085, NUL and DEL made likely too: an answer line
# must escape each of them as the JSON encoder does. A high surrogate before a
# low one is an answer a results file must read back too.
answer_text = st.text(st.one_of(
    st.sampled_from('"\\\n\té中\U0001f600\U00010348 \ud800\udfff\u2028\x85\x00\x7f'), st.characters()
))


class Replying:
    """A backend that answers `raw` to every question, or fails when it is None."""

    id = "replying"

    def __init__(self, raw: str | None):
        self.raw = raw

    def answer(self, question: str, prefix: str) -> str:
        if self.raw is None:
            raise cc.NetworkError("no answer")
        return self.raw


def answer_record(cluster_id: str, index: int, raw: str | None, expected: cc.Answer) -> cc.AnswerRecord:
    """The record `ask_and_judge` makes of the answer `raw`."""
    (record,) = records_of([cluster_id], [index], *ask_and_judge(["q ?"], [""], [expected], Replying(raw)))
    return record


def answer_records(max_index: int):
    """Records as `ask_and_judge` makes them, with indices from 0 to `max_index`."""
    return st.builds(
        answer_record,
        # A cluster id as a dataset file reads it back.
        cluster_id=answer_text.filter(bool).map(lambda s: json.loads(json.dumps(s))),
        index=st.integers(0, max_index),
        raw=st.none() | st.sampled_from(("yes", "No.")) | answer_text,
        expected=st.sampled_from((cc.Answer.YES, cc.Answer.NO)),
    )


# One field of a record and the values a second record may hold there instead.
EDITS = st.one_of(
    st.tuples(st.just("cluster_id"), st.sampled_from(["c", "d"])),
    st.tuples(st.just("question_index"), st.integers(0, 2)),
    st.tuples(st.just("raw"), st.sampled_from(["yes", "Yes.", ""])),
    st.tuples(st.just("normalized"), st.sampled_from(cc.Answer)),
    st.tuples(st.sampled_from(["correct", "error"]), st.booleans()),
)


@CHECK
@given(
    records=st.lists(answer_records(2), max_size=4),
    edits=st.lists(st.tuples(st.integers(0, 3), EDITS), max_size=2),
    other_backend=st.sampled_from(["b", "b2"]),
)
def test_result_sets_are_equal_exactly_when_their_records_are(records, edits, other_backend):
    others = list(records)
    for n, (name, value) in edits:
        if n < len(others):
            others[n] = others[n]._replace(**{name: value})
    first = cc.ResultSet.from_records("b", "d", "p", None, records)
    second = cc.ResultSet.from_records(other_backend, "d", "p", None, others)
    assert first.records == tuple(records)
    for r in first.records:
        assert type(r) is cc.AnswerRecord
        assert [type(field) for field in r] == [str, int, str, cc.Answer, bool, bool]
    assert (first == second) == (other_backend == "b" and records == others)
    if first == second:
        assert hash(first) == hash(second)


# Characters the writer escapes by name, control characters it escapes as
# \u00XX, DEL and "/" that it writes raw, and non-ASCII, astral and lone
# surrogate characters that it escapes as \uXXXX.
ESCAPED = '"\\/\b\f\n\r\t\x00\x1f\x7f é\u2028\U0001f600\ud800'


@CHECK
@given(resultset=st.builds(
    cc.ResultSet.from_records,
    backend_id=text,
    dataset_fingerprint=text,
    prompt_fingerprint=text,
    context_fingerprint=st.none() | text,
    # Indices on both sides of the 18 digits an answer line is matched with.
    records=st.lists(answer_records(10**20), max_size=6).map(tuple),
))
@example(resultset=cc.ResultSet.from_records("b", "d", "p", None, (answer_record("c", 0, None, cc.Answer.YES),)))
@example(resultset=cc.ResultSet.from_records("b", "d", "p", None, tuple(
    answer_record(ESCAPED, index, ESCAPED, cc.Answer.NO) for index in (10**18 - 1, 10**18, 10**20)
)))
@example(resultset=cc.ResultSet.from_records("b", "d", "p", None, (
    answer_record("c", 0, "\ud800\udc00", cc.Answer.YES), answer_record("c", 1, "\udfff\ud800 \ud800", cc.Answer.NO),
)))
def test_results_file_round_trips(resultset, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("r")
    first, second = _twice(cc.write_results, cc.read_results, resultset, tmp)
    assert first == second
    loaded = cc.read_results(tmp / "first")
    assert loaded == resultset
    assert loaded.records == resultset.records
    for r in loaded.records:
        assert type(r) is cc.AnswerRecord
        assert [type(field) for field in r] == [str, int, str, cc.Answer, bool, bool]
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


# --- results files against the reference reader ----------------------------

MISSING = object()
# What a field may hold instead: null, the other of bool and int, a float, a
# list, an object, a string of another kind (record kinds and versions among
# them), or nothing at all.
REPLACEMENTS = (
    None, True, False, 0, 1, 1.0, [], ["yes"], {}, "", "yes", "no", "other", "answer", "header", "telemetry", "2",
    MISSING,
)
HEADER = {
    "record": "header", "version": "1", "backend": "b", "dataset_fingerprint": "d",
    "prompt_fingerprint": "p", "context_fingerprint": None,
}
# JSON whitespace, and lines of whitespace JSON refuses.
line_padding = st.text(st.sampled_from(" \t\r"), max_size=2)
stray_lines = st.sampled_from(["", " ", "\t", "\r", " \t", "\x0c", "\x0b", "\xa0", "\x85", "\u2028", "\x1c"])

# The text of an answer line's values as `write_results` writes them, and near
# misses: JSON it never writes, and text that JSON refuses.
INDICES = ("0", "7", "-0", "-1", "01", "9" * 18, "1" + "0" * 18, "1" * 20, "1" * (sys.get_int_max_str_digits() + 1))
STRING_BODIES = (
    "c", "", 'a\\"b', "\\\\", "\\/", "\\b\\f\\n\\r\\t", "\\u00E9", "\\u00e9x", "\\ud83d\\ude00", "\\ud800",
    "\\udfff\\ud800", "\x7f", "é中", "\U0001f600", "\u2028", "\x01", "\\x41", "\\u12", "\\u12\"", "\\",
)
BOOLEANS = ("true", "false", "True", "0")
NORMALIZED = ("yes", "no", "other", "Yes", "maybe")


# An answer line as `write_results` writes it, key by key.
WRITTEN = (
    ("cluster_id", '"c"'), ("correct", "true"), ("error", "false"), ("normalized", '"yes"'),
    ("question_index", "0"), ("raw", '"y"'), ("record", '"answer"'),
)


def _written(changed: dict[str, str], colon: str = ":", end: str = "") -> str:
    """The line of `WRITTEN` with the values in `changed`, `colon` after each key and `end` after the line."""
    return "{" + ",".join(f'"{key}"{colon}{changed.get(key, value)}' for key, value in WRITTEN) + "}" + end


@st.composite
def answer_lines(draw) -> str:
    """An answer line in the form `write_results` writes, or one near it:
    values it never writes, a space after each colon, or whitespace after it."""
    strings, booleans = st.sampled_from(STRING_BODIES), st.sampled_from(BOOLEANS)
    values = {
        "cluster_id": f'"{draw(strings)}"', "correct": draw(booleans), "error": draw(booleans),
        "normalized": f'"{draw(st.sampled_from(NORMALIZED))}"', "question_index": draw(st.sampled_from(INDICES)),
        "raw": f'"{draw(strings)}"',
    }
    return _written(values, draw(st.sampled_from([":", ":", ": "])), draw(st.sampled_from(["", "", "", " ", "\t"])))


@st.composite
def results_files(draw) -> str:
    """The text of a results file: answer lines, some with one field swapped,
    dropped or added, or another record kind; no, one or two headers, of this
    or another version; answer lines in the written form or near it; JSON
    whitespace around lines, stray lines between them, CRLF line ends and a
    BOM."""
    objects = [
        {
            "record": "answer", "cluster_id": draw(st.sampled_from(["c", "é\u2028"])), "question_index": index,
            "raw": draw(st.sampled_from(["yes", "No.", "", "\x85"])),
            "normalized": draw(st.sampled_from(["yes", "no", "other"])),
            "correct": draw(st.booleans()), "error": draw(st.booleans()),
        }
        for index in range(draw(st.integers(0, 4)))
    ]
    for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2]))):
        objects.insert(draw(st.integers(0, len(objects))), dict(HEADER))
    for obj in draw(st.lists(st.sampled_from(objects), max_size=2)) if objects else ():
        key = draw(st.sampled_from([*obj, "extra"]))
        value = draw(st.sampled_from(REPLACEMENTS))
        if value is MISSING:
            obj.pop(key, None)
        else:
            obj[key] = value
    lines = [
        draw(line_padding) + json.dumps(obj, ensure_ascii=draw(st.booleans()), sort_keys=draw(st.booleans()))
        + draw(line_padding)
        for obj in objects
    ]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(answer_lines()))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(stray_lines))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))
    return draw(st.sampled_from([*[""] * 9, "\ufeff"])) + text


def _read(read, path) -> tuple:
    """What `read` makes of `path`: the result set and the type of each
    record and field, or the SchemaViolation's message."""
    try:
        rs = read(path)
    except cc.SchemaViolation as exc:
        return "error", str(exc)
    return "value", rs, [(r, type(r), *map(type, r)) for r in rs.records]


# The string decoder `json` reads with (in C, when `_json` is there) and the
# pure-Python one it falls back to: an answer line's escapes must read as
# `json.loads` reads them with either.
SCANSTRINGS = (json.decoder.scanstring, json.decoder.py_scanstring)
# The block size a reader reads at, and sizes that put block edges inside
# lines, inside CRLF pairs and inside multi-byte characters.
block_sizes = st.sampled_from([errors.LINE_BLOCK, 1, 2, 3, 4, 5, 6, 7])


@settings(CHECK, max_examples=300)
@given(text=results_files(), block=block_sizes)
@example(text='{"record":"header","version":"1","backend":"b","dataset_fingerprint":"d","prompt_fingerprint":"p"}\n'
              '{"cluster_id":"c","correct":true,"error":false,"normalized":"yes","question_index":0,"raw":"y",'
              '"record":"answer"}\n', block=errors.LINE_BLOCK)
def test_read_results_reads_a_file_as_the_reference_reader_does(text, block, tmp_path_factory):
    path = tmp_path_factory.mktemp("r") / "results.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    expected = _read(results_by_hand, path)
    for scan in SCANSTRINGS:
        with patch.object(errors, "LINE_BLOCK", block), patch.object(evaluation, "scanstring", scan):
            assert _read(cc.read_results, path) == expected


# One line around a value, or near one: JSON whitespace (space, tab, "\r",
# "\n") may pad a value and a line of it alone is skipped; any other character
# there, a BOM, a second value or a value cut short is refused, as `json.loads`
# refuses it. A file ends lines at "\r" too; a dump stream keeps it in the line.
@pytest.mark.parametrize("line, accepted", [
    (" {}", True), ("{} ", True), ("\t{}\t", True), ("\r{}\r", True), (' \t\r\n{"a": [1]}\r\n\t ', True),
    ("\x0b{}", False), ("{}\x0b", False), ("\x0c{}", False), ("{}\x0c", False),
    ("\xa0{}", False), ("{}\xa0", False), ("\u2028{}", False), ("{}\u2028", False),
    ("\ufeff{}", False), ("{} {}", False), ("{}x", False), ("{} x", False),
    ("NaN", True), ("Infinity", True), ("-Infinity", True), ("[NaN, -Infinity]", True),
    ("{}", True), ("", True), (" ", True),
    # The value ends before the line does.
    ("{}\r", True), ("[1]]", False),
    # The value is cut short or broken past its first character.
    ("[1,", False), ('{"a":', False), ('"abc', False), ('[1, x]', False),
])
def test_the_readers_accept_and_refuse_a_line_as_the_reference_readers_do(line, accepted, tmp_path):
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(HEADER) + "\n" + line + "\n", encoding="utf-8", newline="")
    read = _read(cc.read_results, path)
    assert read == _read(results_by_hand, path)
    assert (read[0] == "error" and ": not valid JSON: " in read[1]) is not accepted
    parsed = cc.parse_entity_dump(io.StringIO(line))
    assert parsed == entity_dump_by_hand(io.StringIO(line))
    assert any(": not valid JSON: " in d for d in parsed.diagnostics) is not accepted


def _lines_then_a_latin1_byte(block: int) -> bytes:
    """A results file of CRLF lines holding two-byte characters, longer than
    three blocks, then an answer whose raw text is Latin-1."""
    answer = {"record": "answer", "cluster_id": "c", "normalized": "no", "correct": False, "error": False}
    lines = [json.dumps(HEADER)] + [
        json.dumps({**answer, "question_index": i, "raw": "né"}, ensure_ascii=False) for i in range(3 * block // 50 + 1)
    ]
    latin1 = json.dumps({**answer, "question_index": 0, "raw": "Gefäß"}, ensure_ascii=False).encode("latin-1")
    return ("\r\n".join(lines) + "\r\n").encode("utf-8") + latin1


@pytest.mark.parametrize("block", [errors.LINE_BLOCK, 7])
def test_a_byte_that_is_not_utf8_past_the_first_block_names_the_file_and_its_position(block, tmp_path):
    data = _lines_then_a_latin1_byte(block)
    path = tmp_path / "results.jsonl"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    assert whole.value.start > block
    with patch.object(errors, "LINE_BLOCK", block), pytest.raises(cc.UnreadableSource) as caught:
        cc.read_results(path)
    assert str(caught.value) == f"cannot read results file {path}: {whole.value}"


def test_a_bad_line_before_a_byte_that_is_not_utf8_is_reported_first(tmp_path):
    # Lines are checked as their block is read, so the bad line two blocks
    # before the byte stops the read first.
    path = tmp_path / "results.jsonl"
    path.write_bytes(b"{not json\n" + _lines_then_a_latin1_byte(7))
    with patch.object(errors, "LINE_BLOCK", 7), pytest.raises(cc.SchemaViolation, match=f"^{path}:1: not valid JSON"):
        cc.read_results(path)


def test_reading_a_results_file_holds_its_records_not_its_text(tmp_path):
    records = tuple(
        cc.AnswerRecord(f"positive-edge:concept-{i // 3}:parent-{i // 3}", i % 3, "Yes." if i % 4 else f"no, {i}",
                        cc.Answer.YES if i % 4 else cc.Answer.NO, bool(i % 5), False)
        for i in range(20_000)
    )
    resultset = cc.ResultSet.from_records("b", "d" * 64, "p" * 64, None, records)
    path = tmp_path / "results.jsonl"
    cc.write_results(resultset, path)
    tracemalloc.start()
    try:
        read = cc.read_results(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert read == resultset
    # Beside the records, a reader may hold a few blocks of text and their
    # lines, and the list it gathers the records in before they become a
    # tuple. Holding the file's text, or a list of all its lines, is far more.
    assert path.stat().st_size > 40 * errors.LINE_BLOCK
    assert peak - retained < 8 * errors.LINE_BLOCK + sys.getsizeof(list(records))
    # The records of one cluster share one id string, and equal raw answers one string.
    assert len({id(r.cluster_id) for r in read.records}) == len({r.cluster_id for r in read.records})
    assert len({id(r.raw) for r in read.records}) == len({r.raw for r in read.records})


def test_read_results_reads_each_changed_answer_field_as_the_reference_reader_does(tmp_path):
    answer = {
        "record": "answer", "cluster_id": "c", "question_index": 0, "raw": "y", "normalized": "yes",
        "correct": True, "error": False,
    }
    path = tmp_path / "results.jsonl"
    for key in [*answer, "extra"]:
        for value in REPLACEMENTS:
            changed = {k: v for k, v in answer.items() if k != key}
            if value is not MISSING:
                changed[key] = value
            path.write_text(json.dumps(HEADER) + "\n" + json.dumps(changed) + "\n", encoding="utf-8")
            assert _read(cc.read_results, path) == _read(results_by_hand, path), (key, value)


# --- answer lines in the written form, and JSON past the decoder's limits ------------


@CHECK
@given(resultset=st.builds(
    cc.ResultSet.from_records,
    backend_id=text,
    dataset_fingerprint=text,
    prompt_fingerprint=text,
    context_fingerprint=st.none() | text,
    records=st.lists(answer_records(10**18 - 1), max_size=6).map(tuple),
))
@example(resultset=cc.ResultSet.from_records("b", "d", "p", None, tuple(
    answer_record(ESCAPED, index, ESCAPED, cc.Answer.YES) for index in (0, 10**18 - 1)
)))
def test_read_results_decodes_only_the_header_of_a_file_write_results_wrote(resultset, tmp_path_factory):
    path = tmp_path_factory.mktemp("r") / "results.jsonl"
    cc.write_results(resultset, path)
    decoded, loads = [], json.loads

    def counted(line: str):
        decoded.append(line)
        return loads(line)

    for scan in SCANSTRINGS:
        decoded.clear()
        with patch.object(json, "loads", counted), patch.object(evaluation, "scanstring", scan):
            assert cc.read_results(path) == resultset
        assert len(decoded) == 1 and decoded[0].startswith('{"backend":')


def test_read_results_logs_how_many_answers_were_not_in_the_written_form(tmp_path, caplog):
    records = tuple(answer_record("c", i, "yes", cc.Answer.YES) for i in range(3))
    resultset = cc.ResultSet.from_records("b", "d", "p", None, records)
    path = tmp_path / "results.jsonl"
    cc.write_results(resultset, path)
    with caplog.at_level(logging.DEBUG, logger="conceptcheck.evaluation"):
        cc.read_results(path)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[2] = json.dumps(dict(reversed(json.loads(lines[2]).items())), separators=(",", ":"))
        path.write_text("\n".join(lines), encoding="utf-8")
        assert cc.read_results(path) == resultset
    assert caplog.messages == [
        f"read 3 answers from {path}, {n} of them not in the written form and decoded as JSON" for n in (0, 1)
    ]


# Each value of an answer line, in turn, in other text: a value or a form the
# writer never writes, or text that JSON refuses.
CHANGED_VALUES = [
    *((key, index) for key in ("question_index", "cluster_id") for index in INDICES),
    *((key, f'"{body}"') for key in ("cluster_id", "raw") for body in STRING_BODIES),
    *((key, value) for key in ("correct", "error") for value in (*BOOLEANS, "null", '"true"')),
    *(("normalized", f'"{answer}"') for answer in NORMALIZED),
    ("normalized", "null"), ("record", '"header"'), ("record", '"answer "'),
]


@pytest.mark.parametrize("key, value", CHANGED_VALUES, ids=lambda v: v if len(v) <= 24 else f"<{len(v)} characters>")
def test_read_results_reads_each_value_of_the_written_form_as_the_reference_reader_does(key, value, tmp_path):
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(HEADER) + "\n" + _written({key: value}) + "\n", encoding="utf-8")
    expected = _read(results_by_hand, path)
    for scan in SCANSTRINGS:
        with patch.object(evaluation, "scanstring", scan):
            assert _read(cc.read_results, path) == expected


@pytest.mark.parametrize("colon, end", [(": ", ""), (":", " "), (":", "\t"), (":", "\r"), (" :", "")])
def test_read_results_reads_the_written_form_spaced_out_as_the_reference_reader_does(colon, end, tmp_path):
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(HEADER) + "\n" + _written({}, colon, end) + "\n", encoding="utf-8")
    assert _read(cc.read_results, path) == _read(results_by_hand, path)


@pytest.mark.parametrize("value, message", REFUSED_JSON_VALUES)
def test_read_results_refuses_json_past_the_decoders_limits_naming_the_line(value, message, tmp_path):
    answer = ('{"cluster_id":"c","correct":true,"error":false,"normalized":"yes","question_index":%s,"raw":"y",'
              '"record":"answer"}')
    path = tmp_path / "results.jsonl"
    path.write_text("\n".join([json.dumps(HEADER), answer % 0, answer % value, answer % 1]) + "\n", encoding="utf-8")
    with pytest.raises(cc.SchemaViolation, match=f"^{re.escape(str(path))}:3: not valid JSON: {message}"):
        cc.read_results(path)
    assert _read(cc.read_results, path) == _read(results_by_hand, path)


@pytest.mark.parametrize("value, message", REFUSED_JSON_VALUES)
@pytest.mark.parametrize("read, what", [
    (cc.read_dataset, "dataset file"), (cc.load_graph, "graph file"), (cc.load_context, "context file"),
])
def test_json_file_readers_refuse_json_past_the_decoders_limits_naming_the_file(read, what, value, message, tmp_path):
    path = tmp_path / "file.json"
    path.write_text('{"version": %s}\n' % value, encoding="utf-8")
    with pytest.raises(cc.SchemaViolation, match=f"^{what} {re.escape(str(path))} is not valid JSON: {message}"):
        read(path)
