"""Dump parsing, fragment extraction, and live fetching."""

from __future__ import annotations

import io
import json
import logging
import re
import time
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conceptcheck as cc
from conceptcheck import errors
from conftest import REFUSED_JSON_VALUES
from oracles import entity_dump_by_hand
from stubserver import serving

ROOT = "Q3332438"
SURGEON = "Q9000001"
PEDIATRICIAN = "Q9000002"
ORTHOPEDIAN = "Q9000003"
PEDIATRIC_SURGEON = "Q9000004"
ORTHOPEDIC_SURGEON = "Q9000005"
OPS = "Q9000006"
DERMATOLOGIST = "Q9000008"
INFECTION_CONTROL = "Q9000011"
RADIOLOGIST = "Q9000012"


@pytest.fixture(scope="module")
def dump_entities():
    result = cc.parse_entity_dump(cc.medical_dump_path())
    assert result.diagnostics == []
    return result.entities


def entity(id, label=None, parents=(), string_claims=None, same_as=(), labels=None):
    claims = {}
    if parents:
        claims["P279"] = tuple(parents)
    if same_as:
        claims["P460"] = tuple(same_as)
    for pid, values in (string_claims or {}).items():
        claims[pid] = tuple(values)
    if labels is None:
        labels = {"en": label} if label is not None else {"en": id}
    return cc.RawEntity(id=id, labels=labels, aliases={}, claims=claims)


# --- parse_entity_dump ---------------------------------------------------------


def test_parse_bundled_dump(dump_entities):
    assert len(dump_entities) == 14
    by_id = {e.id: e for e in dump_entities}
    assert by_id[ROOT].label("en") == "medical specialist"
    assert by_id["P425"].label("en") == "field of occupation"
    assert by_id[SURGEON].claims["P279"] == (ROOT,)
    assert by_id[SURGEON].claims["P425"] == ("surgery",)
    assert by_id[DERMATOLOGIST].claims["P31"] == (ROOT,)
    assert by_id[DERMATOLOGIST].claims["P279"] == (ROOT,)


def test_parse_collects_diagnostics_and_keeps_good_records(tmp_path):
    dump = tmp_path / "dump.jsonl"
    dump.write_text(
        "\n".join(
            [
                json.dumps({"id": "Q1", "labels": {"en": {"value": "one"}}}),
                "{broken json",
                json.dumps({"labels": {"en": {"value": "no id"}}}),
                json.dumps({"id": "Q2"}),
                json.dumps({"id": "Q1", "labels": {"en": {"value": "shadow"}}}),
                json.dumps({"id": "Q3", "labels": {"en": {"value": "three"}}}),
            ]
        ),
        encoding="utf-8",
    )
    result = cc.parse_entity_dump(dump)
    assert [e.id for e in result.entities] == ["Q1", "Q3"]
    assert result.entities[0].label("en") == "one"  # the first Q1 wins
    assert len(result.diagnostics) == 4
    assert "line 2" in result.diagnostics[0]
    assert "line 3" in result.diagnostics[1] and "usable id" in result.diagnostics[1]
    assert "line 4" in result.diagnostics[2] and "no labels" in result.diagnostics[2]
    assert "line 5" in result.diagnostics[3] and "duplicate" in result.diagnostics[3]


def test_parse_turns_parts_of_the_wrong_type_into_diagnostics(tmp_path):
    root = {"id": "Q1", "labels": {"en": {"value": "root"}}}
    child = {"id": "Q2", "labels": {"en": {"value": "child"}}, "claims": {"P279": [
        {"mainsnak": {"datavalue": {"value": {"id": "Q1"}}}},
        {"mainsnak": "oops"},
    ]}}
    lines = [
        root,
        {"id": "Q3", "labels": ["x"]},
        child,
        {"id": "Q4", "labels": {"en": {"value": "other"}}, "claims": {"P279": [{"mainsnak": {"datavalue": "v"}}]}},
    ]
    dump = tmp_path / "dump.jsonl"
    dump.write_text("\n".join(map(json.dumps, lines)) + "\n", encoding="utf-8")
    result = cc.parse_entity_dump(dump)
    assert [e.id for e in result.entities] == ["Q1", "Q2", "Q4"]
    assert result.entities[1].claims == {"P279": ("Q1",)}  # the good claim stays
    assert result.entities[2].claims == {"P279": ()}
    assert result.diagnostics == [
        "line 2: record Q3 labels is not an object; left out",
        "line 2: record Q3 has no labels; skipped",
        "line 3: record Q2 claim P279 #1 mainsnak is not an object; left out",
        "line 4: record Q4 claim P279 #0 datavalue is not an object; left out",
    ]
    graph = cc.extract_fragment(cc.ExtractionSpec(seed_concept="Q1"), result.entities)
    assert graph.edges == (("Q2", "Q1"),)


@pytest.mark.parametrize("value, message", REFUSED_JSON_VALUES)
def test_parse_records_json_past_the_decoders_limits_as_a_diagnostic(value, message, tmp_path):
    dump = tmp_path / "dump.jsonl"
    good = [json.dumps({"id": f"Q{i}", "labels": {"en": {"value": f"l{i}"}}}) for i in (1, 2)]
    dump.write_text("\n".join([good[0], '{"id": "Q9", "n": %s}' % value, good[1]]) + "\n", encoding="utf-8")
    result = cc.parse_entity_dump(dump)
    assert [e.id for e in result.entities] == ["Q1", "Q2"]
    assert len(result.diagnostics) == 1 and result.diagnostics[0].startswith(f"line 2: not valid JSON: {message}")
    assert _parsed(cc.parse_entity_dump, dump) == _parsed(entity_dump_by_hand, dump)


def test_parse_keeps_labels_holding_unicode_line_breaks(tmp_path):
    # JSON leaves these unescaped inside strings; only "\n" ends a record.
    breaks = "\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e"
    lines = [
        json.dumps({"id": "Q1", "labels": {"en": {"value": "line\u2028separator"}}}, ensure_ascii=False),
        json.dumps({"id": "Q2", "labels": {"en": {"value": f"next{breaks}line\x85"}}}, ensure_ascii=False),
        "{broken json",
        json.dumps({"id": "Q3", "labels": {"en": {"value": "three"}}}),
    ]
    dump = tmp_path / "dump.jsonl"
    dump.write_text("\n".join(lines) + "\r\n", encoding="utf-8")
    for source in (dump, io.StringIO("\n".join(lines))):
        result = cc.parse_entity_dump(source)
        assert [e.label("en") for e in result.entities] == ["line\u2028separator", f"next{breaks}line\x85", "three"]
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].startswith("line 3: not valid JSON")
    # As in results files, only JSON whitespace (space, tab, "\r") pads a
    # record or blanks a line; json.loads refuses any other character there.
    four, five = (json.dumps({"id": f"Q{i}", "labels": {"en": {"value": f"q{i}"}}}) for i in (4, 5))
    for stray in ("\xa0", "\x0c", "\u2028", "\x85", "\x1c"):
        result = cc.parse_entity_dump(io.StringIO(f" \t{four},\r\n{stray}{five}{stray}\n{stray}\n"))
        assert [e.id for e in result.entities] == ["Q4"], repr(stray)
        assert result.diagnostics == [
            f"line {n}: not valid JSON: Expecting value: line 1 column 1 (char 0)" for n in (2, 3)
        ], repr(stray)


def test_parse_tolerates_array_wrapper_and_trailing_commas(tmp_path):
    dump = tmp_path / "dump.json"
    dump.write_text(
        "[\n"
        + json.dumps({"id": "Q1", "labels": {"en": {"value": "one"}}})
        + ",\n"
        + json.dumps({"id": "Q2", "labels": {"en": {"value": "two"}}})
        + "\n]\n",
        encoding="utf-8",
    )
    result = cc.parse_entity_dump(dump)
    assert [e.id for e in result.entities] == ["Q1", "Q2"]
    assert result.diagnostics == []


def test_parse_accepts_text_and_byte_streams():
    line = json.dumps({"id": "Q1", "labels": {"en": {"value": "one"}}})
    text = cc.parse_entity_dump(io.StringIO(line))
    assert [e.id for e in text.entities] == ["Q1"]
    binary = cc.parse_entity_dump(io.BytesIO(line.encode("utf-8")))
    assert [e.id for e in binary.entities] == ["Q1"]


def test_parse_empty_stream():
    result = cc.parse_entity_dump(io.StringIO(""))
    assert result.entities == []
    assert result.diagnostics == []


def test_parse_refuses_bytes_that_are_not_utf8(tmp_path):
    dump = tmp_path / "latin1.jsonl"
    dump.write_bytes(json.dumps({"id": "Q1", "labels": {"en": {"value": "Gefäß"}}}, ensure_ascii=False).encode("latin-1"))
    with pytest.raises(cc.UnreadableSource, match=f"^cannot read dump file {dump}: 'utf-8' codec can't decode"):
        cc.parse_entity_dump(dump)
    with dump.open("rb") as stream, pytest.raises(cc.UnreadableSource, match=f"^cannot read dump stream {dump}: "):
        cc.parse_entity_dump(stream)
    with pytest.raises(cc.UnreadableSource, match="^cannot read dump stream: "):
        cc.parse_entity_dump(io.BytesIO(dump.read_bytes()))


@st.composite
def dump_texts(draw) -> str:
    """The text of a dump: records with repeated ids, ids of the wrong type and
    labels holding two-byte, three-byte and line-breaking characters, padded
    with JSON whitespace and trailing commas, between array wrapper lines,
    malformed lines and stray whitespace; LF, CRLF or lone CR line ends, and a BOM."""
    label = st.sampled_from(["one", "Gefäß", "中\u2028文", "x\x85y", ""])
    lines = [
        draw(st.sampled_from(["", " ", "\t"]))
        + json.dumps(
            {"id": draw(st.sampled_from(["Q1", "Q2", "Q3", 7])), "labels": {"en": {"value": draw(label)}},
             "claims": {"P279": [{"mainsnak": {"datavalue": {"value": {"id": draw(st.sampled_from(["Q1", "Q2"]))}}}}]}},
            ensure_ascii=draw(st.booleans()),
        )
        + draw(st.sampled_from(["", ",", " ", "\r"]))
        for _ in range(draw(st.integers(0, 4)))
    ]
    for _ in range(draw(st.integers(0, 3))):
        stray = draw(st.sampled_from(["[", "]", "", " ", "{broken", "\xa0", "\u2028", "é"]))
        lines.insert(draw(st.integers(0, len(lines))), stray)
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))
    return draw(st.sampled_from(["", "", "", "\ufeff"])) + text


def _parsed(parse, source) -> tuple:
    """What `parse` makes of `source`: its entities and diagnostics, or the UnreadableSource's message."""
    try:
        result = parse(source)
    except cc.UnreadableSource as exc:
        return "error", str(exc)
    return "value", result.entities, result.diagnostics


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(text=dump_texts(), block=st.sampled_from([errors.LINE_BLOCK, 1, 2, 3, 4, 5, 6, 7]))
def test_parse_reads_a_dump_as_the_whole_text_reader_does(text, block, tmp_path_factory):
    # Blocks of 1 to 7 characters end inside lines, CRLF pairs and multi-byte characters.
    dump = tmp_path_factory.mktemp("d") / "dump.jsonl"
    dump.write_text(text, encoding="utf-8", newline="")
    sources = {
        "file": lambda: dump,
        "text stream": lambda: io.StringIO(text),
        "binary stream": lambda: io.BytesIO(text.encode("utf-8")),
    }
    for kind, source in sources.items():
        with patch.object(errors, "LINE_BLOCK", block):
            assert _parsed(cc.parse_entity_dump, source()) == _parsed(entity_dump_by_hand, source()), kind


@pytest.mark.parametrize("block", [errors.LINE_BLOCK, 7])
def test_parse_names_a_dump_with_a_byte_that_is_not_utf8_past_the_first_block(block, tmp_path):
    record = json.dumps({"id": "Q1", "labels": {"en": {"value": "Gefäß"}}}, ensure_ascii=False)
    data = ((record + "\r\n") * (3 * block // len(record) + 1)).encode("utf-8") + record.encode("latin-1")
    dump = tmp_path / "dump.jsonl"
    dump.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    assert whole.value.start > block
    with patch.object(errors, "LINE_BLOCK", block):
        for source, name in ((dump, f"dump file {dump}"), (io.BytesIO(data), "dump stream")):
            with pytest.raises(cc.UnreadableSource) as caught:
                cc.parse_entity_dump(source)
            assert str(caught.value) == f"cannot read {name}: {whole.value}"


def test_parse_gives_no_byte_position_for_a_text_stream_that_is_not_utf8(tmp_path):
    # The stream decodes its own bytes, a buffer at a time, and its error counts from that buffer's
    # start: here it would put the byte at 159,044 in position 22,826.
    record = json.dumps({"id": "Q1", "labels": {"en": {"value": "Gefäß"}}}, ensure_ascii=False)
    dump = tmp_path / "dump.jsonl"
    dump.write_bytes(((record + "\n") * 3000).encode("utf-8") + record.encode("latin-1"))
    with dump.open(encoding="utf-8") as stream, pytest.raises(cc.UnreadableSource) as caught:
        cc.parse_entity_dump(stream)
    assert str(caught.value) == (
        f"cannot read dump stream {dump}: 'utf-8' codec can't decode byte 0xe4: invalid continuation byte"
    )


def test_parse_missing_file(tmp_path):
    with pytest.raises(cc.UnreadableSource):
        cc.parse_entity_dump(tmp_path / "absent.jsonl")


def test_parse_extracts_aliases():
    record = {
        "id": "Q1",
        "labels": {"en": {"value": "one"}},
        "aliases": {"en": [{"value": "unity"}, {"value": "single"}]},
    }
    result = cc.parse_entity_dump(io.StringIO(json.dumps(record)))
    assert result.entities[0].aliases["en"] == ("unity", "single")


# --- extract_fragment -------------------------------------------------------------


def medical_spec(**overrides):
    kwargs = {"seed_concept": ROOT, "seed_property": "P425", "max_depth": 3}
    kwargs.update(overrides)
    return cc.ExtractionSpec(**kwargs)


def test_extract_full_medical_fragment(dump_entities):
    graph = cc.extract_fragment(medical_spec(), dump_entities)
    assert len(graph.concepts) == 13
    assert len(graph.edges) == 15
    assert len(graph.properties) == 5
    assert graph.label_of(ROOT) == "medical specialist"
    assert (SURGEON, ROOT) in graph.edge_set
    assert (OPS, PEDIATRIC_SURGEON) in graph.edge_set
    by_subject = {p.subject: p for p in graph.properties}
    assert by_subject[SURGEON].value == "surgery"
    assert all(p.property == "field of occupation" for p in graph.properties)
    # The P31+P279 double claim collapses to one edge; the P31-only record stays.
    assert sum(1 for child, _ in graph.edges if child == DERMATOLOGIST) == 1
    assert (INFECTION_CONTROL, ROOT) in graph.edge_set
    # The subclass claim pointing outside the dump leaves no trace.
    assert "Q121270" not in graph
    assert (RADIOLOGIST, ROOT) in graph.edge_set


def test_extract_matches_bundled_fixture_topology(dump_entities, medical_graph):
    fragment = cc.extract_fragment(medical_spec(), dump_entities)
    labels = {fragment.label_of(c) for c, _ in fragment.edges}
    fixture_labels = {medical_graph.label_of(c) for c, _ in medical_graph.edges}
    # The dump names more siblings than the curated graph but the shared
    # core (surgeon branch) is identical edge for edge.
    core = {
        ("surgeon", "medical specialist"),
        ("pediatric surgeon", "surgeon"),
        ("pediatric surgeon", "pediatrician"),
        ("orthopedic pediatric surgeon", "pediatric surgeon"),
    }
    to_labels = lambda g: {(g.label_of(a), g.label_of(b)) for a, b in g.edges}  # noqa: E731
    assert core <= to_labels(fragment)
    assert core <= to_labels(medical_graph)
    assert labels and fixture_labels


def test_extract_depth_limit(dump_entities):
    graph = cc.extract_fragment(medical_spec(max_depth=1), dump_entities)
    assert len(graph.concepts) == 10  # the root and its direct children
    assert len(graph.edges) == 9
    assert {p.subject for p in graph.properties} == {SURGEON, PEDIATRICIAN, ORTHOPEDIAN}
    deeper = cc.extract_fragment(medical_spec(max_depth=2), dump_entities)
    assert len(deeper.concepts) == 12  # two-parent specialties join, their child not yet


def test_extract_direction_ancestors(dump_entities):
    spec = medical_spec(seed_concept=OPS, direction="ancestors")
    graph = cc.extract_fragment(spec, dump_entities)
    assert len(graph.concepts) == 7
    assert len(graph.edges) == 9
    assert len(graph.properties) == 5
    assert sorted(graph.label_of(c.id) for c in graph.concepts) == [
        "medical specialist",
        "orthopedian",
        "orthopedic pediatric surgeon",
        "orthopedic surgeon",
        "pediatric surgeon",
        "pediatrician",
        "surgeon",
    ]


def test_extract_direction_both(dump_entities):
    spec = medical_spec(seed_concept=SURGEON, direction="both")
    graph = cc.extract_fragment(spec, dump_entities)
    assert len(graph.concepts) == 13
    assert len(graph.edges) == 15


def test_extract_is_deterministic_under_input_order(dump_entities):
    forward = cc.extract_fragment(medical_spec(), dump_entities)
    backward = cc.extract_fragment(medical_spec(), list(reversed(dump_entities)))
    assert forward.concepts == backward.concepts
    assert forward.edges == backward.edges
    assert forward.fingerprint == backward.fingerprint


def test_extract_label_fallback_to_id(dump_entities):
    graph = cc.extract_fragment(medical_spec(language="de"), dump_entities)
    assert graph.label_of(ROOT) == ROOT  # no German labels in the dump


def test_extract_seed_not_found(dump_entities):
    with pytest.raises(cc.SeedNotFound):
        cc.extract_fragment(medical_spec(seed_concept="Q404"), dump_entities)


def test_extract_empty_fragment(dump_entities):
    with pytest.raises(cc.EmptyFragment):
        cc.extract_fragment(medical_spec(seed_concept=RADIOLOGIST), dump_entities)


def test_extract_drops_cycle_closing_claims(caplog):
    entities = [
        entity("a", parents=["c"]),
        entity("b", parents=["a"]),
        entity("c", parents=["b"]),
    ]
    spec = cc.ExtractionSpec(seed_concept="a", direction="both")
    with caplog.at_level(logging.WARNING, logger="conceptcheck.ingest"):
        graph = cc.extract_fragment(spec, entities)
    assert graph.edge_set == {("a", "c"), ("b", "a")}
    assert "dropping cycle-closing claim c -> b" in caplog.text


def test_extract_same_as_pairs():
    entities = [
        entity("r", label="root"),
        entity("x", label="ex", parents=["r"], same_as=["y"]),
        entity("y", label="why", parents=["r"]),
    ]
    graph = cc.extract_fragment(cc.ExtractionSpec(seed_concept="r"), entities)
    assert graph.same_as == (("x", "y"),)


def test_extract_same_as_ignores_unvisited_targets():
    entities = [
        entity("r", label="root"),
        entity("x", label="ex", parents=["r"], same_as=["elsewhere"]),
    ]
    graph = cc.extract_fragment(cc.ExtractionSpec(seed_concept="r"), entities)
    assert graph.same_as == ()


def test_extract_reads_the_first_of_two_records_with_one_id():
    # As parse_entity_dump and fetch_live keep it: the first record's label and claims.
    entities = [
        entity("r", label="root"),
        entity("Q2", label="first", parents=["r"]),
        entity("Q2", label="second"),
    ]
    graph = cc.extract_fragment(cc.ExtractionSpec(seed_concept="r"), entities)
    assert graph.label_of("Q2") == "first"
    assert graph.edges == (("Q2", "r"),)


def test_extraction_spec_validation():
    with pytest.raises(cc.ConfigError):
        cc.ExtractionSpec(seed_concept="").validate()
    with pytest.raises(cc.ConfigError):
        cc.ExtractionSpec(seed_concept="Q1", max_depth=0).validate()
    with pytest.raises(cc.ConfigError):
        cc.ExtractionSpec(seed_concept="Q1", direction="sideways").validate()
    with pytest.raises(cc.ConfigError):
        cc.extract_fragment(cc.ExtractionSpec(seed_concept="Q1", max_depth=0), [])


# --- fetch_live ----------------------------------------------------------------------


def record_for(id, label, parents=()):
    claims = {}
    if parents:
        claims["P279"] = [
            {"mainsnak": {"datavalue": {"value": {"entity-type": "item", "id": p}}}} for p in parents
        ]
    return {"id": id, "labels": {"en": {"value": label}}, "claims": claims}


def paged_app(pages):
    def app(method, path, query, body):
        assert method == "GET"
        assert query["seed"] == "Q1"
        page = int(query["page"])
        entities, next_page = pages[page - 1]
        return 200, {"entities": entities, "next_page": next_page}

    return app


THREE_PAGES = [
    ([record_for("Q1", "root"), record_for("Q2", "two", ["Q1"])], 2),
    ([record_for("Q3", "three", ["Q1"])], 3),
    ([], None),
]


def fetch(url, **kwargs):
    spec = cc.ExtractionSpec(seed_concept="Q1")
    kwargs.setdefault("rate_limit", 0.0)
    return cc.fetch_live(spec, f"{url}/entities", **kwargs)


def test_fetch_live_concatenates_pages():
    with serving(paged_app(THREE_PAGES)) as (url, log):
        entities = fetch(url).entities
    assert [e.id for e in entities] == ["Q1", "Q2", "Q3"]
    assert entities[1].claims["P279"] == ("Q1",)
    assert log.count == 3
    assert [req["query"]["page"] for req in log.requests] == ["1", "2", "3"]


def test_fetch_live_skips_unusable_records():
    pages = [([record_for("Q1", "root"), {"labels": {}}, "not a record"], None)]
    with serving(paged_app(pages)) as (url, _):
        result = fetch(url)
    assert [e.id for e in result.entities] == ["Q1"]
    assert result.diagnostics == ["page 1: record without a usable id", "page 1: record without a usable id"]


def test_fetch_live_warm_cache_replays_without_requests(tmp_path):
    cache = tmp_path / "pages"
    with serving(paged_app(THREE_PAGES)) as (url, log):
        first = fetch(url, cache_dir=cache).entities
        assert log.count == 3
        second = fetch(url, cache_dir=cache).entities
        assert log.count == 3  # untouched
    assert [e.id for e in first] == [e.id for e in second]
    # The server is now gone; the same crawl still replays from cache alone.
    offline = fetch(url, cache_dir=cache, retries=0).entities
    assert [e.id for e in offline] == ["Q1", "Q2", "Q3"]


def test_fetch_live_retries_server_errors():
    state = {"failures": 2}

    def app(method, path, query, body):
        if state["failures"]:
            state["failures"] -= 1
            return 502, {"error": "flaky"}
        return 200, {"entities": [record_for("Q1", "root")], "next_page": None}

    with serving(app) as (url, log):
        entities = fetch(url, retries=3, backoff_base=0.01).entities
    assert [e.id for e in entities] == ["Q1"]
    assert log.count == 3


def test_fetch_live_rate_limit_spaces_retries():
    arrivals: list[float] = []

    def app(method, path, query, body):
        arrivals.append(time.monotonic())
        if len(arrivals) == 1:
            return 503, {"error": "busy"}
        return 200, {"entities": [record_for("Q1", "root")], "next_page": None}

    with serving(app) as (url, _):
        fetch(url, rate_limit=0.1, retries=1, backoff_base=0.001)
    # The interval runs from the client's first send, a little before it arrived.
    assert arrivals[1] - arrivals[0] >= 0.09


def test_fetch_live_gives_up_after_retries():
    def app(method, path, query, body):
        return 500, {"error": "down"}

    with serving(app) as (url, log):
        with pytest.raises(cc.NetworkError):
            fetch(url, retries=1, backoff_base=0.01)
    assert log.count == 2


def test_fetch_live_client_error_fails_fast():
    def app(method, path, query, body):
        return 404, {"error": "missing"}

    with serving(app) as (url, log):
        with pytest.raises(cc.NetworkError):
            fetch(url, retries=3)
    assert log.count == 1


def test_fetch_live_rejects_malformed_pages():
    with serving(lambda m, p, q, b: (200, "not json")) as (url, _):
        with pytest.raises(cc.MalformedResponse):
            fetch(url)
    with serving(lambda m, p, q, b: (200, {"items": []})) as (url, _):
        with pytest.raises(cc.MalformedResponse):
            fetch(url)


def test_fetch_live_rejects_non_advancing_pagination():
    def app(method, path, query, body):
        return 200, {"entities": [], "next_page": 1}

    with serving(app) as (url, _):
        with pytest.raises(cc.MalformedResponse):
            fetch(url)


def test_fetch_live_refuses_a_non_http_endpoint_before_making_its_cache(tmp_path):
    message = "endpoint must be an http or https URL: 'ftp://h/x'"
    with pytest.raises(cc.ConfigError, match=f"^{re.escape(message)}$"):
        cc.fetch_live(cc.ExtractionSpec(seed_concept="Q1"), "ftp://h/x", cache_dir=tmp_path / "c")
    assert not (tmp_path / "c").exists()


def test_fetch_live_unreachable_endpoint():
    with pytest.raises(cc.NetworkError):
        fetch("http://127.0.0.1:9", retries=0)
