"""Answer normalization, prompt rendering, caching, and the backend zoo."""

from __future__ import annotations

import json
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conceptcheck as cc
from conceptcheck import backends
from conceptcheck.backends import shared_cache
from conceptcheck.evaluation import ask_and_judge
from conftest import BARE_ANSWERS, bare_answers_in_noise
from oracles import normalized_by_hand
from stubserver import serving


# --- normalize_answer ---------------------------------------------------------


@pytest.mark.parametrize(
    "raw",
    ["yes", "Yes", " YES ", "yes.", "Yes, every surgeon is.", '"Yes"', "\nyes\n", "*yes*"],
)
def test_normalize_yes(raw):
    assert cc.normalize_answer(raw) is cc.Answer.YES


@pytest.mark.parametrize("raw", ["no", "No.", "NO!", " no, not a chance", "(no)"])
def test_normalize_no(raw):
    assert cc.normalize_answer(raw) is cc.Answer.NO


@pytest.mark.parametrize(
    "raw",
    ["", "   ", "maybe", "nope", "yess", "I think yes", "it depends", "not sure", "?", "affirmative"],
)
def test_normalize_other(raw):
    assert cc.normalize_answer(raw) is cc.Answer.OTHER


def test_normalize_is_idempotent():
    n = cc.normalize_answer(" Yes. ")
    assert n is cc.Answer.YES
    assert cc.normalize_answer(n.value) is n


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.one_of(
    st.sampled_from(BARE_ANSWERS),
    bare_answers_in_noise,
    st.text(st.sampled_from(" \t\n\u00a0.,!?\"'()*yesnoYESNO\u017f\u0130"), max_size=10),
    st.text(st.characters(blacklist_categories=()), max_size=10),
))
def test_normalize_follows_the_leading_token_rule(raw):
    assert cc.normalize_answer(raw) is normalized_by_hand(raw)


# --- prompt templates -----------------------------------------------------------


def test_render_prompt_layout():
    template = cc.PromptTemplate(
        preamble="Answer with yes or no.",
        few_shot=(("is a cat a mammal ?", "yes"), ("is a mammal a cat ?", "no")),
    )
    assert cc.prompt_with_prefix(cc.render_prefix(template), "is a dog a mammal ?") == (
        "Answer with yes or no.\n"
        "\n"
        "Q: is a cat a mammal ?\n"
        "A: yes\n"
        "\n"
        "Q: is a mammal a cat ?\n"
        "A: no\n"
        "\n"
        "Q: is a dog a mammal ?\n"
        "A:"
    )


def test_render_prompt_inserts_context_above_question():
    template = cc.PromptTemplate(preamble="", few_shot=())
    plain = cc.prompt_with_prefix(cc.render_prefix(template), "is a dog a mammal ?")
    assert plain == "Q: is a dog a mammal ?\nA:"
    with_context = cc.prompt_with_prefix(
        cc.render_prefix(template, ("a dog is a canine", "a canine is a mammal")), "is a dog a mammal ?"
    )
    assert with_context == (
        "a dog is a canine\n"
        "a canine is a mammal\n"
        "Q: is a dog a mammal ?\n"
        "A:"
    )


def test_default_template_covers_every_form(template):
    assert template.preamble
    answers = {a for _, a in template.few_shot}
    assert answers == {"yes", "no"}
    assert all(q.endswith(" ?") for q, _ in template.few_shot)
    joined = " | ".join(q for q, _ in template.few_shot)
    for marker in ("a type of", "is every", "also", "is the", "the "):
        assert marker in joined


def test_load_prompt_template_errors(tmp_path):
    with pytest.raises(cc.UnreadableSource):
        cc.load_prompt_template(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("nope", encoding="utf-8")
    with pytest.raises(cc.SchemaViolation):
        cc.load_prompt_template(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"preamble": 3, "few_shot": []}), encoding="utf-8")
    with pytest.raises(cc.SchemaViolation):
        cc.load_prompt_template(wrong)


def test_prompt_template_round_trip(tmp_path, template):
    path = tmp_path / "prompt.json"
    path.write_text(
        json.dumps(
            {
                "preamble": template.preamble,
                "few_shot": [{"question": q, "answer": a} for q, a in template.few_shot],
            }
        ),
        encoding="utf-8",
    )
    assert cc.load_prompt_template(path) == template


# --- response cache --------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    cache = cc.ResponseCache(tmp_path / "cache")
    key = cc.ResponseCache.key("m", "prompt", "q")
    assert cache.get(key) is None
    cache.put(key, "Yes.")
    hit = cache.get(key)
    assert hit["raw"] == "Yes."
    assert sorted(hit) == ["raw", "timestamp"]

    # Entries written with the former `normalized` field still answer. The
    # backend keys by the prompt it joins from the prefix and the question.
    old_key = cc.ResponseCache.key("m", "pQ: q\nA:", "q")
    cache.store(old_key, {"raw": "No.", "normalized": "no", "timestamp": 0.0})
    offline = cc.RemoteBackend("http://127.0.0.1:9/gone", "m", cache=cache, retries=0)
    assert offline.answer("q", "p") == "No."


def test_cache_key_separates_inputs():
    base = cc.ResponseCache.key("m", "p", "q")
    assert cc.ResponseCache.key("m2", "p", "q") != base
    assert cc.ResponseCache.key("m", "p2", "q") != base
    assert cc.ResponseCache.key("m", "p", "q2") != base
    assert cc.ResponseCache.key("m", "p", "q") == base


def test_cache_survives_corrupt_entry(tmp_path, caplog):
    # A line of the wrong shape and a torn final line are misses, and the torn
    # line does not swallow the next append.
    key, other, kept = (cc.ResponseCache.key("m", "p", q) for q in ("q", "q2", "q3"))
    first = cc.ResponseCache(tmp_path)
    first.put(other, "yes")
    first.put(kept, "yes")
    log_path = tmp_path / cc.ResponseCache.LOG_NAME
    with log_path.open("ab") as f:
        f.write(json.dumps({"key": other, "entry": "no"}).encode() + b"\n")
        f.write(json.dumps({"key": key, "entry": {"raw": "yes"}}).encode()[:-5])
    cache = cc.ResponseCache(tmp_path)
    assert cache.get(other) is None  # its last line, the damaged one, wins
    assert "skipping damaged cache log line" in caplog.text
    assert cache.get(key) is None
    assert cache.get(kept)["raw"] == "yes"
    cache.put(key, "no")
    assert cache.get(key)["raw"] == "no"
    fresh = cc.ResponseCache(tmp_path)
    assert fresh.get(key)["raw"] == "no"
    assert fresh.get(kept)["raw"] == "yes"
    assert fresh.get(other) is None
    assert first.get(key)["raw"] == "no"
    assert log_path.read_bytes().count(b"\n") == 5  # the torn line was ended, not extended


def test_cache_reads_only_request_keys_of_the_old_layout(tmp_path, caplog):
    # Other JSON beside the cache (a dataset, an output) is never read.
    (tmp_path / "dataset.json").write_text("{not json", encoding="utf-8")
    (tmp_path / "report.json").write_text('{"raw": "yes"}', encoding="utf-8")
    key = cc.ResponseCache.key("m", "p", "q")
    (tmp_path / f"{key}.json").write_text('{"raw": "no", "timestamp": 0.0}', encoding="utf-8")
    cache = cc.ResponseCache(tmp_path)
    assert cache.get(cc.ResponseCache.key("m", "p", "q2")) is None
    assert cache.get(key)["raw"] == "no"
    assert caplog.text == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["dataset.json", "report.json", f"{key}.json", cc.ResponseCache.LOG_NAME])


def test_cache_indexes_lines_longer_than_a_read(tmp_path, monkeypatch):
    # The log is indexed a block at a time; a line may span blocks or exceed one.
    monkeypatch.setattr(backends, "_BLOCK", 64)
    entries = {cc.ResponseCache.key("m", "p", str(i)): {"raw": "x" * (i * 37 % 300)} for i in range(40)}
    writer = cc.ResponseCache(tmp_path)
    for key, entry in entries.items():
        writer.store(key, entry)
    fresh = cc.ResponseCache(tmp_path)
    assert {key: fresh.get(key) for key in entries} == entries
    assert fresh.get(cc.ResponseCache.key("m", "p", "missing")) is None


def test_cache_keys_are_hex_digests(tmp_path):
    with pytest.raises(ValueError, match="hex digest"):
        cc.ResponseCache(tmp_path).put("my-key", "yes")


def test_cache_leaves_no_temp_files(tmp_path):
    cache = cc.ResponseCache(tmp_path)
    for i in range(20):
        cache.put(cc.ResponseCache.key("m", "p", str(i)), "yes")
    assert [p.name for p in tmp_path.iterdir()] == [cc.ResponseCache.LOG_NAME]
    assert len((tmp_path / cc.ResponseCache.LOG_NAME).read_bytes().splitlines()) == 20


def test_cache_log_is_shared_by_objects_and_threads(tmp_path):
    # A remote backend at concurrency 8 appends through one cache object while
    # eight threads append through a second object on the same directory.
    def app(method, path, query, body):
        return 200, {"text": body["prompt"].split("Q: ")[-1].removesuffix("\nA:")}

    questions = [f"question {i}" for i in range(240)]
    asked = [cc.ResponseCache.key("m", f"p\nQ: {q}\nA:", q) for q in questions]
    stored = [cc.ResponseCache.key("other", "p", q) for q in questions]
    first, second = cc.ResponseCache(tmp_path), cc.ResponseCache(tmp_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with serving(app) as (url, log):
            backend = cc.RemoteBackend(url, "m", concurrency=8, timeout=10.0, cache=first)
            with ThreadPoolExecutor(max_workers=2 * backend.concurrency) as pool:
                puts = [pool.submit(second.put, key, q) for key, q in zip(stored, questions)]
                answers = list(pool.map(lambda q: backend.answer(q, "p\n"), questions, timeout=60))
                for put in puts:
                    put.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert answers == questions
    assert sorted(r["body"]["prompt"] for r in log.requests) == sorted(f"p\nQ: {q}\nA:" for q in questions)
    lines = (tmp_path / cc.ResponseCache.LOG_NAME).read_bytes().splitlines()
    assert sorted(json.loads(line)["key"] for line in lines) == sorted(asked + stored)
    fresh = cc.ResponseCache(tmp_path)
    for key, q in zip(asked + stored, questions + questions):
        assert fresh.get(key)["raw"] == q
        assert first.get(key)["raw"] == second.get(key)["raw"] == q


@pytest.mark.parametrize("entry, logged", [
    ({"raw": 3}, "asking again"), ([], "skipping damaged cache log line"), ({"text": "yes"}, "asking again"),
])
def test_remote_backend_asks_again_past_a_malformed_cache_entry(tmp_path, caplog, entry, logged):
    def app(method, path, query, body):
        return 200, {"text": "Yes."}

    cache = cc.ResponseCache(tmp_path)
    key = cc.ResponseCache.key("m", "pQ: q\nA:", "q")
    cache.store(key, entry)
    with serving(app) as (url, log):
        assert cc.RemoteBackend(url, "m", cache=cache).answer("q", "p") == "Yes."
        assert log.count == 1
    assert logged in caplog.text
    assert cache.get(key)["raw"] == "Yes."
    assert cc.ResponseCache(tmp_path).get(key)["raw"] == "Yes."


# A JSON value nested deeper than `json`'s decoder reads: it raises a
# RecursionError, not a ValueError.
TOO_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("layout, logged", [
    ("log", "skipping damaged cache log line"), ("file", "skipping unreadable cache file"),
])
def test_remote_backend_asks_again_past_a_cache_entry_nested_too_deep(tmp_path, caplog, layout, logged):
    key = cc.ResponseCache.key("m", "pQ: q\nA:", "q")
    if layout == "log":
        (tmp_path / cc.ResponseCache.LOG_NAME).write_bytes(b'{"key": "%s", "entry": %s}\n' % (key.encode(), TOO_DEEP))
    else:
        (tmp_path / f"{key}.json").write_bytes(TOO_DEEP)
    cache = cc.ResponseCache(tmp_path)
    assert cache.get(key) is None
    with serving(lambda method, path, query, body: (200, {"text": "Yes."})) as (url, log):
        assert cc.RemoteBackend(url, "m", cache=cache).answer("q", "p") == "Yes."
        assert log.count == 1
    assert logged in caplog.text
    assert cc.ResponseCache(tmp_path).get(key)["raw"] == "Yes."


# --- oracles -----------------------------------------------------------------------


def test_perfect_oracle_answers_truth(medical_closure, medical_dataset):
    oracle = cc.PerfectOracle(medical_closure, medical_dataset)
    for cluster in medical_dataset.clusters:
        for q in cluster.questions:
            assert oracle.answer(q, "") == cluster.expected.value


def test_perfect_oracle_rejects_foreign_graph(medical_dataset):
    from conftest import make_graph

    other = cc.deductive_closure(make_graph([("x", "y")]))
    with pytest.raises(cc.FingerprintMismatch):
        cc.PerfectOracle(other, medical_dataset)


def test_perfect_oracle_rejects_foreign_question(medical_closure, medical_dataset):
    oracle = cc.PerfectOracle(medical_closure, medical_dataset)
    with pytest.raises(cc.MismatchedDataset):
        oracle.answer("is a cat a mammal ?", "")


def test_noisy_oracle_extremes(medical_closure, medical_dataset):
    silent = cc.NoisyOracle(medical_closure, medical_dataset, flip_probability=0.0, seed=1)
    loud = cc.NoisyOracle(medical_closure, medical_dataset, flip_probability=1.0, seed=1)
    for cluster in medical_dataset.clusters:
        for q in cluster.questions:
            truth = cluster.expected.value
            flipped = "no" if truth == "yes" else "yes"
            assert silent.answer(q, "") == truth
            assert loud.answer(q, "") == flipped


def test_noisy_oracle_is_deterministic_and_order_free(medical_closure, medical_dataset):
    a = cc.NoisyOracle(medical_closure, medical_dataset, flip_probability=0.3, seed=7)
    b = cc.NoisyOracle(medical_closure, medical_dataset, flip_probability=0.3, seed=7)
    questions = [q for c in medical_dataset.clusters for q in c.questions]
    forward = [a.answer(q, "") for q in questions]
    backward = [b.answer(q, "") for q in reversed(questions)]
    assert forward == list(reversed(backward))
    c = cc.NoisyOracle(medical_closure, medical_dataset, flip_probability=0.3, seed=8)
    assert [c.answer(q, "") for q in questions] != forward


def test_noisy_oracle_flip_rate_tracks_probability(medical_closure, medical_dataset):
    oracle = cc.NoisyOracle(medical_closure, medical_dataset, flip_probability=0.25, seed=3)
    perfect = cc.PerfectOracle(medical_closure, medical_dataset)
    questions = [q for c in medical_dataset.clusters for q in c.questions]
    flips = sum(oracle.answer(q, "") != perfect.answer(q, "") for q in questions)
    rate = flips / len(questions)
    # 444 draws at p=0.25: allow a generous 4-sigma band.
    assert 0.25 - 4 * 0.0206 < rate < 0.25 + 4 * 0.0206


def test_noisy_oracle_validates_probability(medical_closure, medical_dataset):
    with pytest.raises(cc.ConfigError):
        cc.NoisyOracle(medical_closure, medical_dataset, flip_probability=1.5, seed=1)


# --- scripted backend ----------------------------------------------------------------


def test_scripted_backend_replays_and_defaults():
    backend = cc.ScriptedBackend({"q1": "Yes."}, default="no")
    assert backend.answer("q1", "") == "Yes."
    assert backend.answer("q2", "") == "no"
    strict = cc.ScriptedBackend({"q1": "yes"})
    with pytest.raises(cc.MismatchedDataset):
        strict.answer("q2", "")


def test_load_scripted_answers(tmp_path):
    path = tmp_path / "answers.json"
    path.write_text(json.dumps({"answers": {"q": "yes"}, "default": "no"}), encoding="utf-8")
    backend = cc.load_scripted_answers(path)
    assert backend.answer("q", "") == "yes"
    assert backend.answer("other", "") == "no"
    assert backend.id == "answers"
    path.write_text(json.dumps({"answers": {"q": 3}}), encoding="utf-8")
    with pytest.raises(cc.SchemaViolation):
        cc.load_scripted_answers(path)
    path.write_text(json.dumps({"answers": {"q": "yes"}, "default": 4}), encoding="utf-8")
    with pytest.raises(cc.SchemaViolation):
        cc.load_scripted_answers(path)
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(cc.SchemaViolation):
        cc.load_scripted_answers(path)


# --- remote backend --------------------------------------------------------------------


def test_remote_backend_posts_protocol_payload():
    def app(method, path, query, body):
        assert method == "POST"
        assert body["model"] == "m1"
        assert body["temperature"] == 0.0
        assert body["max_tokens"] == 16
        assert body["prompt"] == "Q: q\nA:"
        return 200, {"text": "Yes."}

    with serving(app) as (url, log):
        backend = cc.RemoteBackend(url, "m1")
        assert backend.answer("q", "") == "Yes."
    assert log.count == 1


def test_remote_backend_retries_transient_errors():
    state = {"calls": 0}

    def app(method, path, query, body):
        state["calls"] += 1
        if state["calls"] < 3:
            return 503, {"error": "busy"}
        return 200, {"text": "no"}

    with serving(app) as (url, log):
        backend = cc.RemoteBackend(url, "m", retries=3, backoff_base=0.01)
        assert backend.answer("q", "p") == "no"
    assert state["calls"] == 3


def test_remote_backend_gives_up_after_retries():
    def app(method, path, query, body):
        return 500, {"error": "down"}

    with serving(app) as (url, log):
        backend = cc.RemoteBackend(url, "m", retries=2, backoff_base=0.01)
        with pytest.raises(cc.NetworkError):
            backend.answer("q", "p")
    assert log.count == 3  # initial try + 2 retries


def test_remote_backend_retries_rate_limits():
    statuses = [429, 429]

    def app(method, path, query, body):
        if statuses:
            return statuses.pop(), {"error": "slow down"}
        return 200, {"text": "yes"}

    with serving(app) as (url, log):
        backend = cc.RemoteBackend(url, "m", retries=3, backoff_base=0.001)
        assert backend.answer("q", "p") == "yes"
    assert log.count == 3


def test_remote_backend_waits_out_retry_after():
    arrivals: list[float] = []

    def app(method, path, query, body):
        arrivals.append(time.monotonic())
        if len(arrivals) == 1:
            return 429, {"error": "slow down"}, {"Retry-After": "0.05"}
        return 200, {"text": "yes"}

    with serving(app) as (url, log):
        backend = cc.RemoteBackend(url, "m", retries=1, backoff_base=0.001)
        assert backend.answer("q", "p") == "yes"
    assert arrivals[1] - arrivals[0] >= 0.05


def test_remote_backend_rate_limit_retries_are_bounded():
    def app(method, path, query, body):
        return 429, {"error": "slow down"}, {"Retry-After": "3600"}

    with serving(app) as (url, log):
        backend = cc.RemoteBackend(url, "m", retries=2, backoff_base=0.001, backoff_cap=0.01)
        with pytest.raises(cc.NetworkError):
            backend.answer("q", "p")
    assert log.count == 3  # initial try + 2 retries, each wait capped


def test_remote_backend_reopens_connections_the_server_closed():
    def app(method, path, query, body):
        return 200, {"text": "yes"}

    with serving(app, idle_timeout=0.05) as (url, log):
        backend = cc.RemoteBackend(url, "m", retries=0)
        assert backend.answer("q", "p1") == "yes"
        deadline = time.monotonic() + 10
        while not log.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert log.closed == 1, "the stub never closed the idle connection"
        # The kept-alive socket is dead now; with no retries allowed, the
        # request succeeds only if the client notices before sending.
        assert backend.answer("q", "p2") == "yes"
    assert log.count == 2


def test_remote_backend_client_errors_do_not_retry():
    def app(method, path, query, body):
        return 403, {"error": "forbidden"}

    with serving(app) as (url, log):
        backend = cc.RemoteBackend(url, "m", retries=3, backoff_base=0.01)
        with pytest.raises(cc.NetworkError):
            backend.answer("q", "p")
    assert log.count == 1


def test_remote_backend_rejects_malformed_bodies():
    def bad_json(method, path, query, body):
        return 200, "this is not json"

    with serving(bad_json) as (url, _):
        with pytest.raises(cc.MalformedResponse):
            cc.RemoteBackend(url, "m").answer("q", "p")

    def missing_text(method, path, query, body):
        return 200, {"output": "yes"}

    with serving(missing_text) as (url, _):
        with pytest.raises(cc.MalformedResponse):
            cc.RemoteBackend(url, "m").answer("q", "p")


def test_a_body_nested_too_deep_is_a_malformed_response_and_one_questions_error():
    def app(method, path, query, body):
        if body["prompt"].endswith("Q: deep\nA:"):
            return 200, TOO_DEEP.decode()
        return 200, {"text": "Yes."}

    with serving(app) as (url, log):
        backend = cc.RemoteBackend(url, "m", retries=0)
        with pytest.raises(cc.MalformedResponse, match="maximum recursion depth exceeded"):
            backend.answer("deep", "")
        raws, _, correct, error = ask_and_judge(["deep", "fine"], ["", ""], [cc.Answer.YES] * 2, backend)
    assert [*zip(raws, correct, error)] == [("", False, True), ("Yes.", True, False)]
    assert log.count == 3


def test_remote_backend_auth_env(monkeypatch):
    monkeypatch.delenv("STUB_TOKEN", raising=False)
    with pytest.raises(cc.AuthMissing):
        cc.RemoteBackend("http://127.0.0.1:1/x", "m", auth_env="STUB_TOKEN")
    monkeypatch.setenv("STUB_TOKEN", "sesame")

    def app(method, path, query, body):
        return 200, {"text": "yes"}

    with serving(app) as (url, log):
        backend = cc.RemoteBackend(url, "m", auth_env="STUB_TOKEN")
        backend.answer("q", "p")
    assert log.requests[0]["headers"].get("Authorization") == "Bearer sesame"


def test_remote_backend_warm_cache_skips_network(tmp_path):
    def app(method, path, query, body):
        return 200, {"text": "Yes."}

    cache = cc.ResponseCache(tmp_path / "cache")
    with serving(app) as (url, log):
        backend = cc.RemoteBackend(url, "m", cache=cache)
        first = backend.answer("q", "p")
        second = backend.answer("q", "p")
        assert first == second == "Yes."
        assert log.count == 1

    # Even with the server gone, the cache still answers.
    offline = cc.RemoteBackend("http://127.0.0.1:9/gone", "m", cache=cache, retries=0)
    assert offline.answer("q", "p") == "Yes."


# The key of the prompt below, as the remote backend wrote it when it was
# handed the joined prompt instead of the prefix; caches of that time must replay.
AUGMENTED_PROMPT_KEY = "85272fb4d93488008dfa5dda1489bad87ac45ff4132f594619965700806e0504"


def _augmented_prefix() -> str:
    template = cc.PromptTemplate("Answer each question with yes or no.", (("is a dog a mammal ?", "yes"),))
    return cc.render_prefix(template, ("a puppy is a dog", "a café is a place"))


def test_remote_backend_keys_an_augmented_prompt_as_before(tmp_path):
    prefix, question = _augmented_prefix(), "is a puppy a mammal ?"
    with serving(lambda method, path, query, body: (200, {"text": "Yes."})) as (url, log):
        assert cc.RemoteBackend(url, "m", cache=cc.ResponseCache(tmp_path)).answer(question, prefix) == "Yes."
    assert log.requests[0]["body"]["prompt"] == (
        "Answer each question with yes or no.\n\nQ: is a dog a mammal ?\nA: yes\n\n"
        "a puppy is a dog\na café is a place\nQ: is a puppy a mammal ?\nA:"
    )
    lines = (tmp_path / cc.ResponseCache.LOG_NAME).read_bytes().splitlines()
    assert [json.loads(line)["key"] for line in lines] == [AUGMENTED_PROMPT_KEY]


def test_remote_backend_replays_an_augmented_cache_entry_without_requests(tmp_path):
    cc.ResponseCache(tmp_path).put(AUGMENTED_PROMPT_KEY, "No.")
    offline = cc.RemoteBackend("http://127.0.0.1:9/gone", "m", cache=cc.ResponseCache(tmp_path), retries=0)
    assert offline.answer("is a puppy a mammal ?", _augmented_prefix()) == "No."


def test_remote_evaluation_posts_each_joined_prompt(medical_dataset, template):
    context = cc.ContextBlock(
        statements=("a café is a place",) + tuple(c.statements[0] for c in medical_dataset.clusters[:20]),
        source_cluster_ids=(),
        backend_ids=("x",),
        dataset_fingerprint=medical_dataset.fingerprint,
    )
    with serving(lambda method, path, query, body: (200, {"text": "yes"})) as (url, log):
        rs = cc.evaluate_dataset(medical_dataset, cc.RemoteBackend(url, "m", concurrency=2), template, context)
    prefix = cc.render_prefix(template, context.statements)
    questions = [q for c in medical_dataset.clusters for q in c.questions]
    assert len(rs.records) == len(questions) == 444
    assert sorted(r["body"]["prompt"].encode() for r in log.requests) == sorted(
        f"{prefix}Q: {q}\nA:".encode() for q in questions
    )


def test_remote_backend_is_thread_safe_under_concurrency():
    # More threads than cores and a short switch interval, so a connection
    # shared between two threads would cross or lose answers.
    def app(method, path, query, body):
        return 200, {"text": body["prompt"].split("Q: ")[-1].removesuffix("\nA:")}

    questions = [f"question {i}" for i in range(240)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with serving(app) as (url, log):
            backend = cc.RemoteBackend(url, "m", concurrency=8, timeout=10.0)
            with ThreadPoolExecutor(max_workers=backend.concurrency) as pool:
                answers = list(pool.map(lambda q: backend.answer(q, "p\n"), questions, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert answers == questions
    assert sorted(r["body"]["prompt"] for r in log.requests) == sorted(f"p\nQ: {q}\nA:" for q in questions)


# --- backend_from_config -----------------------------------------------------------------


def test_backend_from_config_kinds(tmp_path, medical_closure, medical_dataset):
    perfect = cc.backend_from_config(
        {"kind": "perfect"}, closure=medical_closure, dataset=medical_dataset
    )
    assert isinstance(perfect, cc.PerfectOracle)
    noisy = cc.backend_from_config(
        {"kind": "noisy", "flip_probability": 0.1, "seed": 4},
        closure=medical_closure,
        dataset=medical_dataset,
    )
    assert isinstance(noisy, cc.NoisyOracle)
    assert noisy.id == "noisy-p0.1-s4"
    answers = tmp_path / "answers.json"
    answers.write_text(json.dumps({"answers": {}, "default": "no"}), encoding="utf-8")
    scripted = cc.backend_from_config({"kind": "scripted", "answers": str(answers), "id": "alt"})
    assert isinstance(scripted, cc.ScriptedBackend)
    assert scripted.id == "alt"
    remote = cc.backend_from_config(
        {"kind": "remote", "endpoint": "http://127.0.0.1:1/x", "model": "m", "cache_dir": str(tmp_path / "c")}
    )
    assert isinstance(remote, cc.RemoteBackend)
    assert remote.cache is not None


def test_shared_cache_opens_one_cache_per_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    caches = {}
    a, b, c, d = (shared_cache(path, caches) for path in ("c", tmp_path / "c", "./other/../c", "d"))
    assert a is b is c is not d
    assert sorted(caches) == [tmp_path.resolve() / "c", tmp_path.resolve() / "d"]
    assert shared_cache("c", {}) is not a  # a fresh dict, a cache of its own


@pytest.mark.parametrize(
    "spec",
    [
        {},
        {"kind": "quantum"},
        {"kind": "noisy", "seed": 1},
        {"kind": "scripted"},
        {"kind": "remote", "endpoint": "http://x"},
        # a key the kind does not read
        {"kind": "perfect", "flip_probability": 0.3},
        {"kind": "noisy", "flip_probability": 0.3, "seed": 7, "endpoint": "http://x"},
        {"kind": "scripted", "answers": "a.json", "default": "no"},
        {"kind": "remote", "endpoint": "http://127.0.0.1:1/x", "model": "m", "concurency": 4},
    ],
)
def test_backend_from_config_rejects_bad_specs(spec, medical_closure, medical_dataset):
    with pytest.raises(cc.ConfigError):
        cc.backend_from_config(spec, closure=medical_closure, dataset=medical_dataset)


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("timeout", -1, "timeout must be a finite number of seconds above 0, got -1"),
        ("timeout", 0, "timeout must be a finite number of seconds above 0, got 0"),
        ("timeout", float("nan"), "timeout must be a finite number of seconds above 0, got nan"),
        ("timeout", float("inf"), "timeout must be a finite number of seconds above 0, got inf"),
        ("retries", -1, "retries must be >= 0, got -1"),
        ("max_tokens", 0, "max_tokens must be >= 1, got 0"),
        ("endpoint", "ftp://h/x", "endpoint must be an http or https URL: 'ftp://h/x'"),
        ("endpoint", "localhost:8000/x", "endpoint must be an http or https URL: 'localhost:8000/x'"),
    ],
)
def test_remote_backend_refuses_options_that_cannot_work(tmp_path, option, value, message):
    with pytest.raises(cc.ConfigError, match=f"^{re.escape(message)}$"):
        cc.RemoteBackend(**{"endpoint": "http://127.0.0.1:1/x", "model": "m", option: value})
    spec = {"kind": "remote", "endpoint": "http://127.0.0.1:1/x", "model": "m", "cache_dir": str(tmp_path / "c")}
    with pytest.raises(cc.ConfigError, match=f"^{re.escape(message)}$"):
        cc.backend_from_config({**spec, option: value})
    assert not (tmp_path / "c").exists()  # refused before its cache directory is made


def test_backend_from_config_oracles_need_graph():
    with pytest.raises(cc.ConfigError):
        cc.backend_from_config({"kind": "perfect"})
