"""Cluster verdicts, report tallies, context building, and results files."""

from __future__ import annotations

import dataclasses
import gc
import json
import sys
import threading
import time
import tracemalloc
from collections import Counter
from contextlib import ExitStack
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conceptcheck as cc
from conceptcheck import clusters, evaluation, scenarios
from conftest import BARE_ANSWERS, Jittery, bare_answers_in_noise, make_graph
from oracles import judged_by_hand

V = cc.Verdict
MISSING = object()


def record(cluster_id="c", idx=0, correct=True, error=False):
    return cc.AnswerRecord(
        cluster_id=cluster_id,
        question_index=idx,
        raw="yes" if correct else "no",
        normalized=cc.Answer.YES if correct else cc.Answer.NO,
        correct=correct,
        error=error,
    )


def test_answer_record_is_an_immutable_tuple():
    r = record()
    with pytest.raises(AttributeError):
        r.correct = False
    changed = r._replace(normalized=cc.Answer.NO, correct=False)
    assert type(changed) is cc.AnswerRecord
    assert changed == ("c", 0, "yes", cc.Answer.NO, False, False)
    assert r == ("c", 0, "yes", cc.Answer.YES, True, False)
    assert cc.AnswerRecord("c", 1, "", cc.Answer.OTHER, False).error is False


@pytest.fixture(scope="module")
def chain():
    """b -> a, c -> b: 2 positive, 2 inverse, 1 path cluster; unique questions."""
    graph = make_graph([("b", "a"), ("c", "b")])
    dataset = cc.generate_dataset(graph, cc.GenerationConfig(seed=1))
    return graph, cc.deductive_closure(graph), dataset


def scripted(dataset, wrong_questions=(), id="scripted"):
    """Answer every question truthfully except the chosen (cluster_id, idx) pairs."""
    flipped = set(wrong_questions)
    answers = {}
    for c in dataset.clusters:
        for i, q in enumerate(c.questions):
            flip = (c.id, i) in flipped
            truth = c.expected.value
            answers[q] = ("no" if truth == "yes" else "yes") if flip else truth
    return cc.ScriptedBackend(answers, id=id)


# --- verdicts and result sets --------------------------------------------------


def test_verdicts_partition_the_clusters_of_a_result_set():
    flags = {
        "all-right": [True] * 4,
        "nothing": [False] * 4,
        "mixed": [True, False, True, True],
        "one-right": [True],
        "one-wrong": [False],
    }
    records = [record(cluster_id, i, correct) for cluster_id, run in flags.items() for i, correct in enumerate(run)]
    rs = cc.ResultSet.from_records("b", "d", "p", None, records)
    assert rs.verdicts == {
        "all-right": V.CONSISTENT,
        "nothing": V.INCOMPLETE,
        "mixed": V.INCONSISTENT,
        "one-right": V.CONSISTENT,
        "one-wrong": V.INCOMPLETE,
    }


def test_replace_gives_a_result_set_with_one_field_changed(chain, template):
    _, closure, dataset = chain
    rs = cc.evaluate_dataset(dataset, cc.NoisyOracle(closure, dataset, flip_probability=0.5, seed=3), template)
    header = (rs.dataset_fingerprint, rs.prompt_fingerprint, rs.context_fingerprint)
    renamed = dataclasses.replace(rs, backend_id="renamed")
    assert renamed != rs
    # Equality compares every field, so the six columns are the source's.
    assert renamed == cc.ResultSet.from_records("renamed", *header, rs.records)
    raws = tuple(f"raw {n}" for n in range(len(rs.raws)))
    rewritten = dataclasses.replace(rs, raws=raws)
    assert rewritten.raws == raws
    assert rewritten == cc.ResultSet.from_records(
        rs.backend_id, *header, (r._replace(raw=raw) for r, raw in zip(rs.records, raws))
    )
    # A copy computes its own verdicts, not those its source has cached.
    assert set(rs.verdicts.values()) != {V.INCOMPLETE}
    wrong = dataclasses.replace(rs, correct=bytes(len(rs.correct)))
    assert set(wrong.verdicts.values()) == {V.INCOMPLETE}


# --- evaluate_dataset ------------------------------------------------------------


def test_evaluate_with_perfect_oracle(medical_closure, medical_dataset, template):
    oracle = cc.PerfectOracle(medical_closure, medical_dataset)
    rs = cc.evaluate_dataset(medical_dataset, oracle, template)
    assert rs.backend_id == "perfect"
    assert rs.dataset_fingerprint == cc.dataset_fingerprint(medical_dataset)
    assert rs.prompt_fingerprint == template.fingerprint()
    assert rs.context_fingerprint is None
    assert len(rs.records) == 444
    assert all(r.correct and not r.error for r in rs.records)
    assert set(rs.verdicts.values()) == {V.CONSISTENT}


def test_evaluate_keeps_dataset_order(medical_dataset, medical_closure, template):
    rs = cc.evaluate_dataset(medical_dataset, cc.PerfectOracle(medical_closure, medical_dataset), template)
    expected_order = [(c.id, i) for c in medical_dataset.clusters for i in range(len(c.questions))]
    assert [(r.cluster_id, r.question_index) for r in rs.records] == expected_order


def test_evaluate_records_backend_failures_and_continues(chain, template):
    _, closure, dataset = chain
    target = dataset.clusters[0]
    answers = {q: c.expected.value for c in dataset.clusters for q in c.questions if c.id != target.id}
    backend = cc.ScriptedBackend(answers)  # no default: target questions raise
    rs = cc.evaluate_dataset(dataset, backend, template)
    failed = [r for r in rs.records if r.error]
    assert len(failed) == 4
    assert all(r.cluster_id == target.id for r in failed)
    assert all(r.normalized is cc.Answer.OTHER and not r.correct and r.raw == "" for r in failed)
    ok = [r for r in rs.records if not r.error]
    assert all(r.correct for r in ok)
    assert rs.error_count == 4
    assert rs.verdicts[target.id] is V.INCOMPLETE


def test_evaluate_lets_foreign_exceptions_propagate(chain, template):
    _, _, dataset = chain

    class Exploding(cc.Backend):
        id = "exploding"

        def answer(self, question, prefix):
            raise RuntimeError("wires crossed")

    with pytest.raises(RuntimeError):
        cc.evaluate_dataset(dataset, Exploding(), template)


def test_evaluate_concurrent_foreign_exception_stops_new_calls(chain, template):
    # Four calls go out together; one raises, the other three are still in
    # flight. They finish, no fifth call starts, and the error reaches us.
    _, _, dataset = chain
    lock = threading.Lock()
    started: list[str] = []
    finished: list[str] = []

    class Exploding(cc.Backend):
        id = "exploding"
        concurrency = 4
        barrier = threading.Barrier(concurrency, timeout=10)  # a timeout, not a hang, if calls never overlap

        def answer(self, question, prefix):
            with lock:
                started.append(question)
                first_wave = len(started) <= self.concurrency
            if first_wave and self.barrier.wait() == 0:
                raise RuntimeError("wires crossed")
            time.sleep(0.1)  # outlast the failure, so a worker that would go on finds work left
            with lock:
                finished.append(question)
            return "yes"

    assert sum(len(c.questions) for c in dataset.clusters) > Exploding.concurrency
    with pytest.raises(RuntimeError, match="wires crossed"):
        cc.evaluate_dataset(dataset, Exploding(), template)
    assert len(started) == Exploding.concurrency
    assert len(finished) == Exploding.concurrency - 1


def test_evaluate_concurrent_backend_preserves_order(medical_dataset, medical_closure, template):
    backend = Jittery(cc.PerfectOracle(medical_closure, medical_dataset))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a race in taking jobs would show
    try:
        rs = cc.evaluate_dataset(medical_dataset, backend, template)
    finally:
        sys.setswitchinterval(interval)
    expected_order = [(c.id, i) for c in medical_dataset.clusters for i in range(4)]
    assert [(r.cluster_id, r.question_index) for r in rs.records] == expected_order
    assert all(r.correct for r in rs.records)
    assert 1 < backend.peak <= backend.concurrency  # requests really overlapped, within the limit


def test_evaluate_more_workers_than_questions(chain, template):
    _, closure, dataset = chain
    first = dataset.clusters[0]
    small = dataclasses.replace(dataset, clusters=(
        dataclasses.replace(first, questions=first.questions[:3], statements=first.statements[:3]),
    ))
    backend = Jittery(cc.PerfectOracle(closure, dataset))
    assert backend.concurrency == 8
    rs = cc.evaluate_dataset(small, backend, template)
    assert [(r.cluster_id, r.question_index) for r in rs.records] == [(first.id, i) for i in range(3)]
    assert [r.raw for r in rs.records] == [first.expected.value] * 3
    assert all(r.correct for r in rs.records)


class Replaying(cc.Backend):
    """Answers question i with raws[i], or raises a ConceptCheckError where it is None."""

    id = "replaying"

    def __init__(self, raws, concurrency):
        self._raws = raws
        self.concurrency = concurrency

    def answer(self, question, prefix):
        raw = self._raws[int(question[1:])]
        if raw is None:
            raise cc.MismatchedDataset(f"no answer for {question}")
        return raw


raw_answers = st.one_of(
    st.sampled_from(BARE_ANSWERS),
    bare_answers_in_noise,
    st.sampled_from(["", "   ", "Yes, every surgeon is.", "I think yes", "nope", "S\u00ed", "\uff59\uff45\uff53"]),
    st.text(max_size=12),
    # A surrogate pair, and lone surrogates.
    st.sampled_from(["yes \ud83d\ude00", "\ud83d\ude00", "no \ud800", "\udfff yes"]),
    st.text(st.characters(blacklist_categories=()), max_size=6),
    st.none(),  # the backend raises
)
PREFIX = "Answer yes or no.\n\n"
YES_NO = st.sampled_from([cc.Answer.YES, cc.Answer.NO])
EXPECTED = st.sampled_from([cc.Answer.YES, cc.Answer.NO, "yes", "no"])  # a caller's job may hold a plain string


@pytest.mark.parametrize("concurrency", [1, 3])
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(answers=st.lists(st.tuples(raw_answers, EXPECTED), max_size=12))
def test_ask_and_judge_gives_the_records_of_a_reference_loop(concurrency, answers):
    jobs = [(f"c{i // 4}", i % 4, f"q{i}", PREFIX, expected) for i, (_, expected) in enumerate(answers)]
    ids, indices, questions, prefixes, expected = zip(*jobs) if jobs else [()] * 5
    backend = Replaying([raw for raw, _ in answers], concurrency)
    columns = evaluation.ask_and_judge(questions, prefixes, expected, backend)
    assert [type(column) for column in columns] == [tuple, tuple, bytes, bytes]
    records = evaluation.records_of(ids, indices, *columns)
    assert list(records) == judged_by_hand(jobs, backend)
    for r in records:
        assert type(r) is cc.AnswerRecord
        assert [type(field) for field in r] == [str, int, str, cc.Answer, bool, bool]


def replayed_dataset(expected: list) -> cc.ClusterDataset:
    """Questions "q0", "q1", ... in clusters of up to four, each cluster expecting
    the answer that `expected` holds for its first question."""
    clusters = [
        cc.QuestionCluster(f"c{start // 4}", cc.ClusterType.POSITIVE_EDGE, expected[start], "s", "t",
                           tuple(f"q{i}" for i in range(start, min(start + 4, len(expected)))), ())
        for start in range(0, len(expected), 4)
    ]
    return cc.ClusterDataset("1", "g", cc.GenerationConfig(), tuple(clusters))


@pytest.mark.parametrize("concurrency", [1, 3])
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(raws=st.lists(raw_answers, max_size=12), answers=st.lists(YES_NO, min_size=3))
def test_evaluate_dataset_gives_the_records_of_a_reference_loop(concurrency, raws, answers):
    # Every worker stores into the same columns, each at its own question's index.
    dataset = replayed_dataset([answers[i // 4] for i in range(len(raws))])
    backend = Replaying(raws, concurrency)
    rs = cc.evaluate_dataset(dataset, backend, cc.PromptTemplate("Answer yes or no."))
    jobs = [(c.id, idx, q, PREFIX, c.expected) for c in dataset.clusters for idx, q in enumerate(c.questions)]
    assert list(rs.records) == judged_by_hand(jobs, backend)
    for r in rs.records:
        assert type(r) is cc.AnswerRecord
        assert [type(field) for field in r] == [str, int, str, cc.Answer, bool, bool]
    assert rs == cc.ResultSet.from_records(
        rs.backend_id, rs.dataset_fingerprint, rs.prompt_fingerprint, None, rs.records
    )


def _tracked_growth(call) -> int:
    """How many more objects the garbage collector tracks once `call` has returned."""
    gc.collect()
    before = len(gc.get_objects())
    result = call()
    growth = len(gc.get_objects()) - before
    del result
    return growth


class Yes(cc.Backend):
    id = "yes"

    def __init__(self, concurrency: int):
        self.concurrency = concurrency

    def answer(self, question, prefix):
        return "yes"


@pytest.mark.parametrize("concurrency", [1, 3])
def test_evaluating_and_reading_track_no_object_per_answer(tmp_path, concurrency):
    template = cc.PromptTemplate("Answer yes or no.")
    growth = {}
    for size in (1_000, 8_000):
        dataset = replayed_dataset([cc.Answer.YES] * size)
        path = tmp_path / f"results-{size}.jsonl"
        # A first run imports the worker pool and caches the dataset's fingerprint and keys.
        cc.write_results(cc.evaluate_dataset(dataset, Yes(concurrency), template), path)
        cc.read_results(path)
        growth[size] = (
            _tracked_growth(lambda: cc.evaluate_dataset(dataset, Yes(concurrency), template)),
            _tracked_growth(lambda: cc.read_results(path)),
        )
    assert growth[1_000] == growth[8_000]
    assert max(growth[8_000]) < 50


def test_evaluate_passes_context_to_prompts(medical_dataset, medical_closure, template):
    # Four workers, and each question still comes with the context's one prefix.
    oracle = cc.PerfectOracle(medical_closure, medical_dataset)
    seen: list[tuple[str, str]] = []
    lock = threading.Lock()

    class Recorder(cc.Backend):
        id = "recorder"
        concurrency = 4

        def answer(self, question, prefix):
            with lock:
                seen.append((question, prefix))
            return oracle.answer(question, prefix)

    context = cc.ContextBlock(
        statements=tuple(c.statements[0] for c in medical_dataset.clusters[:40]),
        source_cluster_ids=(),
        backend_ids=("x",),
        dataset_fingerprint=cc.dataset_fingerprint(medical_dataset),
    )
    rs = cc.evaluate_dataset(medical_dataset, Recorder(), template, context)
    assert rs.context_fingerprint == context.fingerprint()
    questions = [(c.id, i, q) for c in medical_dataset.clusters for i, q in enumerate(c.questions)]
    prefix = cc.render_prefix(template, context.statements)
    assert Counter(seen) == Counter((q, prefix) for _, _, q in questions)
    assert all(p is seen[0][1] for _, p in seen)  # one shared string, not a copy per question
    assert [(r.cluster_id, r.question_index) for r in rs.records] == [(c, i) for c, i, _ in questions]
    assert all(r.correct for r in rs.records)


def test_oracle_evaluation_hands_every_question_one_prefix_and_joins_no_prompt(
    medical_dataset, medical_closure, template
):
    # Oracles never read the prompt, so building one per question would only copy the context.
    joined: list[str] = []
    prefixes: list[str] = []
    answer, join = cc.PerfectOracle.answer, cc.prompt_with_prefix

    def counting(prefix, question):
        joined.append(question)
        return join(prefix, question)

    def recording(self, question, prefix):
        prefixes.append(prefix)
        return answer(self, question, prefix)

    context = cc.ContextBlock(
        statements=tuple(c.statements[0] for c in medical_dataset.clusters[:40]),
        source_cluster_ids=(),
        backend_ids=("x",),
        dataset_fingerprint=cc.dataset_fingerprint(medical_dataset),
    )
    # Every package module that holds the name, so a join from any of them is counted.
    holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "conceptcheck"
               and hasattr(m, "prompt_with_prefix")]
    with ExitStack() as patches:
        for module in holders:
            patches.enter_context(patch.object(module, "prompt_with_prefix", counting))
        patches.enter_context(patch.object(cc.PerfectOracle, "answer", recording))
        rs = cc.evaluate_dataset(medical_dataset, cc.PerfectOracle(medical_closure, medical_dataset), template, context)
    assert joined == []
    assert len(prefixes) == len(rs.records) == 444
    assert prefixes[0] == cc.render_prefix(template, context.statements)
    assert all(p is prefixes[0] for p in prefixes)
    assert all(r.correct for r in rs.records)


def test_evaluate_memory_grows_with_questions_plus_context(template):
    # 2,000 questions, each asked with the same 24 kB context.
    graph = make_graph([(f"leaf{i:03d}", "root") for i in range(250)])
    dataset = cc.generate_dataset(graph, cc.GenerationConfig())
    questions = sum(len(c.questions) for c in dataset.clusters)
    context = cc.ContextBlock(
        statements=tuple(f"statement {i:04d} " + "x" * 45 for i in range(400)),
        source_cluster_ids=(),
        backend_ids=("x",),
        dataset_fingerprint=cc.dataset_fingerprint(dataset),
    )
    prefix_sizes: list[int] = []

    class Sized(cc.Backend):
        id = "sized"

        def answer(self, question, prefix):
            prefix_sizes.append(len(prefix))
            return "yes"

    tracemalloc.start()
    try:
        rs = cc.evaluate_dataset(dataset, Sized(), template, context)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert questions == len(rs.records) >= 2000
    assert min(prefix_sizes) >= 20_000
    # Holding every prompt at once would take questions x prompt size (> 40 MB).
    assert peak < questions * min(prefix_sizes) / 10


def test_prefix_is_rendered_once_per_context(medical_graph, medical_closure, medical_dataset, template):
    calls: list[tuple[str, ...]] = []

    def counting(render):
        def wrapper(template, context_statements=()):
            calls.append(context_statements)
            return render(template, context_statements)
        return wrapper

    context = cc.ContextBlock(
        statements=tuple(c.statements[0] for c in medical_dataset.clusters[:40]),
        source_cluster_ids=(),
        backend_ids=("x",),
        dataset_fingerprint=cc.dataset_fingerprint(medical_dataset),
    )
    oracle = cc.PerfectOracle(medical_closure, medical_dataset)
    with patch.object(evaluation, "render_prefix", counting(evaluation.render_prefix)):
        rs = cc.evaluate_dataset(medical_dataset, oracle, template, context)
    assert len(rs.records) == 444
    assert calls == [context.statements]

    calls.clear()
    policies = cc.load_medical_scenarios()
    roster = list(cc.MEDICAL_SPECIALISTS)
    backend = cc.ScenarioOracle(policies, roster, medical_graph, medical_closure, template)
    with patch.object(scenarios, "render_prefix", counting(scenarios.render_prefix)):
        results, summary = cc.evaluate_scenarios(
            policies, roster, medical_graph, medical_closure, backend, template
        )
    assert calls == [(s.policy_text,) for s in policies]
    assert summary.total_scenarios == len(policies) == 10
    assert summary.incorrect_questions == 0


# --- report tallies ----------------------------------------------------------------


def test_report_from_verdicts_groups_by_family(medical_dataset):
    verdicts = {c.id: V.CONSISTENT for c in medical_dataset.clusters}
    flip_edge = [c.id for c in medical_dataset.clusters if c.type is cc.ClusterType.NEGATIVE_EDGE][:3]
    flip_path = [c.id for c in medical_dataset.clusters if c.type is cc.ClusterType.PATH][:2]
    flip_prop = [c.id for c in medical_dataset.clusters if c.type is cc.ClusterType.PROPERTY_INHERITANCE][:1]
    for cid in flip_edge + flip_path + flip_prop:
        verdicts[cid] = V.INCONSISTENT
    incomplete_edge = [c.id for c in medical_dataset.clusters if c.type is cc.ClusterType.POSITIVE_EDGE][:4]
    for cid in incomplete_edge:
        verdicts[cid] = V.INCOMPLETE
    row = cc.report_from_verdicts("synthetic", verdicts, medical_dataset)
    assert row.edges == cc.GroupCount(total=96, consistent=89, inconsistent=3, incomplete=4)
    assert row.paths == cc.GroupCount(total=6, consistent=4, inconsistent=2, incomplete=0)
    assert row.property == cc.GroupCount(total=9, consistent=8, inconsistent=1, incomplete=0)
    assert row.all == cc.GroupCount(total=111, consistent=101, inconsistent=6, incomplete=4)
    assert row.edges.pct(row.edges.inconsistent) == pytest.approx(100 * 3 / 96)
    assert row.edges.pct(row.edges.incomplete) == pytest.approx(100 * 4 / 96)
    assert row.pct_all_inconsistent == pytest.approx(100 * 6 / 111)


def test_report_from_verdicts_requires_every_cluster(medical_dataset):
    verdicts = {c.id: V.CONSISTENT for c in medical_dataset.clusters[:-1]}
    with pytest.raises(cc.MismatchedDataset):
        cc.report_from_verdicts("x", verdicts, medical_dataset)


def test_compute_report_checks_fingerprint(chain, medical_dataset, template):
    _, closure, dataset = chain
    rs = cc.evaluate_dataset(dataset, cc.PerfectOracle(closure, dataset), template)
    with pytest.raises(cc.MismatchedDataset, match="^result set perfect was produced from a different dataset$"):
        cc.compute_report(rs, medical_dataset)
    row = cc.compute_report(rs, dataset)
    assert row.all.inconsistent == 0
    assert row.all.incomplete == 0
    assert row.all.consistent == row.all.total == 5


def _misfiled(rs: cc.ResultSet, edit: str) -> tuple[cc.ResultSet, str]:
    """The result set with one record missing, repeated, moved or mislabelled; the message expected."""
    records = list(rs.records)
    name = "{0.cluster_id}[{0.question_index}]".format
    if edit == "missing":
        del records[5]
        message = f"answer 6: found {name(rs.records[6])}, expected {name(rs.records[5])}"
    elif edit == "duplicate":
        first = records[0]
        records.append(first._replace(correct=not first.correct))
        message = f"answer {len(rs.records) + 1}: found {name(first)}, expected the end"
    elif edit == "mislabelled":
        # Every question index still lines up; only one cluster id is wrong.
        records[3] = records[3]._replace(cluster_id=records[-1].cluster_id)
        message = f"answer 4: found {name(records[3])}, expected {name(rs.records[3])}"
    else:
        records.append(records.pop(0))
        message = f"answer 1: found {name(rs.records[1])}, expected {name(rs.records[0])}"
    header = (rs.backend_id, rs.dataset_fingerprint, rs.prompt_fingerprint, rs.context_fingerprint)
    return cc.ResultSet.from_records(*header, records), message


@pytest.mark.parametrize("edit", ["missing", "duplicate", "reordered", "mislabelled"])
def test_result_sets_must_answer_each_question_once_in_order(medical_dataset, medical_closure, template, edit):
    noisy = cc.NoisyOracle(medical_closure, medical_dataset, flip_probability=0.3, seed=7)
    rs, message = _misfiled(cc.evaluate_dataset(medical_dataset, noisy, template), edit)
    expected = f"result set noisy-p0.3-s7 does not follow the dataset at {message}"
    with pytest.raises(cc.MismatchedDataset) as err:
        cc.compute_report(rs, medical_dataset)
    assert str(err.value) == expected
    for granularity in ("question", "cluster"):
        with pytest.raises(cc.MismatchedDataset) as err:
            cc.build_context([rs], medical_dataset, granularity=granularity)
        assert str(err.value) == expected


def test_dataset_is_serialized_for_its_fingerprint_at_most_once(medical_graph, medical_closure, template):
    dataset = cc.generate_dataset(medical_graph, cc.MEDICAL_GENERATION)
    noisy = cc.NoisyOracle(medical_closure, dataset, flip_probability=0.3, seed=7)
    with patch.object(clusters, "_encoded_clusters", wraps=clusters._encoded_clusters) as encode:
        rs = cc.evaluate_dataset(dataset, noisy, template)
        cc.build_context([rs], dataset)
        for _ in range(3):
            cc.compute_report(rs, dataset)
    assert [call.args for call in encode.call_args_list] == [(dataset.clusters, clusters._COMPACT)]


def test_group_count_pct_handles_empty_group():
    assert cc.GroupCount(total=0, consistent=0, inconsistent=0, incomplete=0).pct(0) == 0.0


def test_improvement_from_matching_rows(chain, template):
    _, closure, dataset = chain
    baseline = cc.compute_report(
        cc.evaluate_dataset(dataset, scripted(dataset, [(dataset.clusters[0].id, 0)]), template), dataset
    )
    augmented = cc.compute_report(
        cc.evaluate_dataset(dataset, cc.PerfectOracle(closure, dataset), template), dataset
    )
    assert cc.improvement(baseline, augmented) == pytest.approx(100 / 5)
    assert cc.improvement(baseline, baseline) == 0.0


def test_improvement_rejects_different_denominators(chain, medical_dataset, medical_closure, template):
    _, closure, dataset = chain
    small = cc.compute_report(
        cc.evaluate_dataset(dataset, cc.PerfectOracle(closure, dataset), template), dataset
    )
    big = cc.compute_report(
        cc.evaluate_dataset(
            medical_dataset, cc.PerfectOracle(medical_closure, medical_dataset), template
        ),
        medical_dataset,
    )
    with pytest.raises(cc.DenominatorMismatch):
        cc.improvement(small, big)


# --- build_context -------------------------------------------------------------------


def test_build_context_keeps_only_jointly_missed_questions(chain, template):
    _, _, dataset = chain
    target = dataset.clusters[0]
    rs1 = cc.evaluate_dataset(dataset, scripted(dataset, [(target.id, 0), (target.id, 1)], id="one"), template)
    rs2 = cc.evaluate_dataset(dataset, scripted(dataset, [(target.id, 1), (target.id, 2)], id="two"), template)
    context = cc.build_context([rs1, rs2], dataset)
    assert context.statements == (target.statements[1],)
    assert context.source_cluster_ids == (target.id,)
    assert context.backend_ids == ("one", "two")
    assert context.dataset_fingerprint == cc.dataset_fingerprint(dataset)


def test_build_context_single_backend_takes_all_its_misses(chain, template):
    _, _, dataset = chain
    a, b = dataset.clusters[0], dataset.clusters[3]
    rs = cc.evaluate_dataset(dataset, scripted(dataset, [(a.id, 2), (b.id, 0), (b.id, 3)]), template)
    context = cc.build_context([rs], dataset)
    assert context.statements == (a.statements[2], b.statements[0], b.statements[3])


def test_build_context_cluster_granularity(chain, template):
    _, _, dataset = chain
    target = dataset.clusters[1]
    rs1 = cc.evaluate_dataset(dataset, scripted(dataset, [(target.id, 0)], id="one"), template)
    rs2 = cc.evaluate_dataset(dataset, scripted(dataset, [(target.id, 3)], id="two"), template)
    # Jointly missed questions: none. Jointly imperfect clusters: the target.
    assert cc.build_context([rs1, rs2], dataset).statements == ()
    clustered = cc.build_context([rs1, rs2], dataset, granularity="cluster")
    assert clustered.statements == target.statements
    assert clustered.source_cluster_ids == (target.id,)


def test_build_context_deduplicates_repeated_statements(medical_dataset, medical_closure, template):
    loud = cc.NoisyOracle(medical_closure, medical_dataset, flip_probability=1.0, seed=1)
    rs = cc.evaluate_dataset(medical_dataset, loud, template)
    context = cc.build_context([rs], medical_dataset)
    # Property clusters share their first statement with sibling clusters, so
    # the deduplicated block is strictly smaller than the question count.
    assert len(context.statements) == len(set(context.statements))
    assert len(context.statements) < 444
    all_statements = [s for c in medical_dataset.clusters for s in c.statements]
    firsts = []
    seen = set()
    for s in all_statements:
        if s not in seen:
            seen.add(s)
            firsts.append(s)
    assert list(context.statements) == firsts  # dataset order, first occurrence


def test_build_context_validation(chain, medical_dataset, template):
    _, closure, dataset = chain
    rs = cc.evaluate_dataset(dataset, cc.PerfectOracle(closure, dataset), template)
    with pytest.raises(cc.MismatchedDataset):
        cc.build_context([], dataset)
    with pytest.raises(cc.MismatchedDataset):
        cc.build_context([rs], medical_dataset)
    with pytest.raises(cc.SchemaViolation):
        cc.build_context([rs], dataset, granularity="paragraph")


def test_perfect_baseline_produces_empty_context(chain, template):
    _, closure, dataset = chain
    rs = cc.evaluate_dataset(dataset, cc.PerfectOracle(closure, dataset), template)
    context = cc.build_context([rs], dataset)
    assert context.statements == ()
    assert context.source_cluster_ids == ()


# --- context and results files ----------------------------------------------------------


def test_context_round_trip(tmp_path, chain, template):
    _, _, dataset = chain
    rs = cc.evaluate_dataset(dataset, scripted(dataset, [(dataset.clusters[0].id, 1)]), template)
    context = cc.build_context([rs], dataset)
    path = tmp_path / "context.json"
    cc.save_context(context, path)
    assert cc.load_context(path) == context


@pytest.mark.parametrize("field, value, message", [
    ("statements", "a dog is an animal", "'statements' must be a list of strings"),
    ("source_cluster_ids", ["c1", 2], "'source_cluster_ids' must be a list of strings"),
    ("backend_ids", None, "'backend_ids' must be a list of strings"),
    ("dataset_fingerprint", ["abc"], "'dataset_fingerprint' must be a string"),
])
def test_load_context_refuses_malformed_fields(tmp_path, field, value, message):
    good = {"statements": ["s"], "source_cluster_ids": ["c1"], "backend_ids": ["b"], "dataset_fingerprint": "f"}
    path = tmp_path / "context.json"
    path.write_text(json.dumps({**good, field: value}), encoding="utf-8")
    with pytest.raises(cc.SchemaViolation, match=message):
        cc.load_context(path)


def test_load_context_errors(tmp_path):
    with pytest.raises(cc.UnreadableSource):
        cc.load_context(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(cc.SchemaViolation):
        cc.load_context(bad)
    bad.write_text(json.dumps({"statements": []}), encoding="utf-8")
    with pytest.raises(cc.SchemaViolation):
        cc.load_context(bad)


def test_results_round_trip(tmp_path, medical_dataset, medical_closure, template):
    noisy = cc.NoisyOracle(medical_closure, medical_dataset, flip_probability=0.3, seed=7)
    rs = cc.evaluate_dataset(medical_dataset, noisy, template)
    path = tmp_path / "results.jsonl"
    cc.write_results(rs, path)
    back = cc.read_results(path)
    assert back == rs
    first = json.loads(path.read_text().splitlines()[0])
    assert first["record"] == "header"
    assert first["backend"] == "noisy-p0.3-s7"
    assert first["version"] == "1"


def test_read_results_reports_line_numbers(tmp_path, chain, template):
    _, closure, dataset = chain
    rs = cc.evaluate_dataset(dataset, cc.PerfectOracle(closure, dataset), template)
    path = tmp_path / "results.jsonl"
    cc.write_results(rs, path)
    lines = path.read_text().splitlines()

    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join([lines[0], "{oops", *lines[2:]]) + "\n", encoding="utf-8")
    with pytest.raises(cc.SchemaViolation) as err:
        cc.read_results(broken)
    assert ":2:" in str(err.value)

    bad_record = json.loads(lines[3])
    del bad_record["normalized"]
    broken.write_text("\n".join([lines[0], lines[1], lines[2], json.dumps(bad_record)]) + "\n")
    with pytest.raises(cc.SchemaViolation) as err:
        cc.read_results(broken)
    assert ":4:" in str(err.value)


@pytest.mark.parametrize("field, value", [
    ("correct", "false"),
    ("error", 0),
    ("question_index", None),
    ("question_index", True),
    ("question_index", "1"),
    ("cluster_id", 7),
    ("raw", None),
    ("error", MISSING),
])
def test_read_results_refuses_mistyped_answer_fields(tmp_path, chain, template, field, value):
    _, closure, dataset = chain
    rs = cc.evaluate_dataset(dataset, cc.PerfectOracle(closure, dataset), template)
    path = tmp_path / "results.jsonl"
    cc.write_results(rs, path)
    lines = path.read_text().splitlines()
    changed = {k: v for k, v in json.loads(lines[2]).items() if k != field}
    if value is not MISSING:
        changed[field] = value
    path.write_text("\n".join([*lines[:2], json.dumps(changed), *lines[3:]]) + "\n", encoding="utf-8")
    with pytest.raises(cc.SchemaViolation, match=f"results.jsonl:3: answer field '{field}' must be"):
        cc.read_results(path)


def test_read_results_header_rules(tmp_path, chain, template):
    _, closure, dataset = chain
    rs = cc.evaluate_dataset(dataset, cc.PerfectOracle(closure, dataset), template)
    path = tmp_path / "results.jsonl"
    cc.write_results(rs, path)
    lines = path.read_text().splitlines()

    no_header = tmp_path / "no-header.jsonl"
    no_header.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
    with pytest.raises(cc.SchemaViolation):
        cc.read_results(no_header)

    two_headers = tmp_path / "two-headers.jsonl"
    two_headers.write_text("\n".join([lines[0], *lines]) + "\n", encoding="utf-8")
    with pytest.raises(cc.SchemaViolation):
        cc.read_results(two_headers)

    unknown = tmp_path / "unknown.jsonl"
    for line in (json.dumps({"record": "telemetry"}), "[]"):
        unknown.write_text("\n".join([lines[0], line]) + "\n")
        with pytest.raises(cc.SchemaViolation, match=":2: unknown record kind"):
            cc.read_results(unknown)

    with pytest.raises(cc.UnreadableSource):
        cc.read_results(tmp_path / "absent.jsonl")


def test_read_results_rejects_unknown_version(tmp_path, chain, template):
    _, closure, dataset = chain
    rs = cc.evaluate_dataset(dataset, cc.PerfectOracle(closure, dataset), template)
    path = tmp_path / "results.jsonl"
    cc.write_results(rs, path)
    header, *records = path.read_text().splitlines()
    for version in ("2", None):
        changed = {**json.loads(header), "version": version}
        path.write_text("\n".join([json.dumps(changed), *records]) + "\n", encoding="utf-8")
        with pytest.raises(cc.SchemaViolation, match=f":1: results format version {version!r} is not supported"):
            cc.read_results(path)


def test_read_results_tolerates_blank_lines(tmp_path, chain, template):
    _, closure, dataset = chain
    rs = cc.evaluate_dataset(dataset, cc.PerfectOracle(closure, dataset), template)
    path = tmp_path / "results.jsonl"
    cc.write_results(rs, path)
    padded = tmp_path / "padded.jsonl"
    padded.write_text("\n\n".join(path.read_text().splitlines()) + "\n", encoding="utf-8")
    assert cc.read_results(padded) == rs
    lines = path.read_text().splitlines()
    for blank in (" ", "\t", " \t "):
        padded.write_text("\n".join([lines[0], blank, *lines[1:]]) + "\n", encoding="utf-8")
        assert cc.read_results(padded) == rs
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_text("\r\n\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")
    assert cc.read_results(crlf) == rs
    # Whitespace to str.strip but not to JSON: a line of it is not blank.
    for stray in ("\x0c", "\x0b", "\xa0", "\x85", "\u2028", "\x1c"):
        padded.write_text("\n".join([lines[0], stray, *lines[1:]]) + "\n", encoding="utf-8")
        with pytest.raises(cc.SchemaViolation, match=r"padded\.jsonl:2: not valid JSON: Expecting value"):
            cc.read_results(padded)


def test_read_results_keeps_raw_answers_holding_unicode_line_breaks(tmp_path, chain, template):
    # JSON leaves U+2028 and U+0085 unescaped inside strings; only "\n" ends a record.
    _, closure, dataset = chain
    rs = cc.evaluate_dataset(dataset, cc.PerfectOracle(closure, dataset), template)
    raws = ["yes\u2028really", "no\x85", "\u2028\x85"]
    rs = dataclasses.replace(rs, raws=(*raws, *rs.raws[len(raws):]))
    assert [r.raw for r in rs.records[:3]] == raws
    path = tmp_path / "results.jsonl"
    cc.write_results(rs, path)
    loaded = cc.read_results(path)
    assert loaded == rs
    assert {type(r) for r in loaded.records} == {cc.AnswerRecord}
    unescaped = tmp_path / "unescaped.jsonl"
    lines = path.read_text(encoding="utf-8").split("\n")
    unescaped.write_text(
        "\n".join(json.dumps(json.loads(line), ensure_ascii=False) for line in lines if line) + "\n",
        encoding="utf-8",
    )
    assert "\u2028" in unescaped.read_text(encoding="utf-8")
    assert cc.read_results(unescaped) == rs
