"""Evaluation engine: render prompts, run backends over a dataset, classify, compare.

A cluster's verdict partitions into exactly one of three outcomes:
Consistent (every question answered correctly), Incomplete (every question
answered incorrectly: the knowledge is absent but coherently so), and
Inconsistent (a mix: the model contradicts itself). Answers that are
neither yes nor no count as incorrect.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from itertools import chain, groupby, repeat
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii as quote_json
from operator import countOf
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .answers import Answer, normalize_answer
from .clusters import ClusterDataset, ClusterType
from .errors import BOOLEAN, INTEGER, LIST, STRING, STRINGS, one_of, optional, read_fields
from .errors import (
    JSON_REFUSALS,
    JSON_SPACE,
    ConceptCheckError,
    DenominatorMismatch,
    FingerprintMismatch,
    MismatchedDataset,
    SchemaViolation,
    canonical_json,
    digest,
    read_json,
    read_lines,
    write_json,
    write_text,
)

if TYPE_CHECKING:
    from .backends import Backend

log = logging.getLogger(__name__)

RESULTS_FORMAT_VERSION = "1"
CONTEXT_GRANULARITIES = ("question", "cluster")


# --- prompt template --------------------------------------------------------


@dataclass(frozen=True)
class PromptTemplate:
    """Preamble plus few-shot question/answer pairs."""

    preamble: str
    few_shot: tuple[tuple[str, str], ...] = ()

    def fingerprint(self) -> str:
        return digest({"preamble": self.preamble, "few_shot": [list(p) for p in self.few_shot]})


def render_prefix(template: PromptTemplate, context_statements: tuple[str, ...] = ()) -> str:
    """Render everything above a prompt's final question, once for many questions.

    The preamble and a blank line, each few-shot pair and a blank line, then
    the context statements verbatim: every line ends in a newline, so the
    prefix is "" when all of them are empty.
    """
    parts: list[str] = []
    if template.preamble:
        parts += (template.preamble, "")
    for shot_q, shot_a in template.few_shot:
        parts += (f"Q: {shot_q}", f"A: {shot_a}", "")
    parts.extend(context_statements)
    return "".join(f"{part}\n" for part in parts)


def prompt_with_prefix(prefix: str, question: str) -> str:
    """The full prompt for one question below a prefix from `render_prefix`."""
    return f"{prefix}Q: {question}\nA:"


_TEMPLATE_FIELDS = {"preamble": STRING, "few_shot": optional(LIST, [])}
_SHOT_FIELDS = {"question": STRING, "answer": STRING}


def load_prompt_template(path: str | Path) -> PromptTemplate:
    """Read a template file: {"preamble": str, "few_shot": [{"question","answer"}]}."""
    where = f"prompt template {path}"
    preamble, shots = read_fields(read_json(path, "prompt template"), _TEMPLATE_FIELDS, where)
    few_shot = (tuple(read_fields(s, _SHOT_FIELDS, f"{where} few_shot #{i}")) for i, s in enumerate(shots))
    return PromptTemplate(preamble=preamble, few_shot=tuple(few_shot))


# --- answers and verdicts ---------------------------------------------------


class Verdict(str, Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"
    INCOMPLETE = "incomplete"


class AnswerRecord(NamedTuple):
    """One judged answer. An immutable tuple: it equals the plain tuple of its
    fields, and `_replace` gives a changed copy."""

    cluster_id: str
    question_index: int
    raw: str
    normalized: Answer
    correct: bool
    error: bool = False


def records_of(
    cluster_ids: Iterable[str], question_indices: Iterable[int], raws: Iterable[str],
    normalized: Iterable[Answer], correct: Iterable[int], error: Iterable[int],
) -> tuple[AnswerRecord, ...]:
    """The records of six parallel answer columns, with `correct` and `error` as bools."""
    flags = map(bool, correct), map(bool, error)
    return tuple(map(AnswerRecord, cluster_ids, question_indices, raws, normalized, *flags))


@dataclass(frozen=True)
class ResultSet:
    """All answers of one backend over one dataset, in dataset order: four
    header fields, then six parallel columns with no object per answer for
    the garbage collector to track. `correct` and `error` are `bytes` of 0/1
    flags, the other columns tuples. Equality compares every field, and
    `dataclasses.replace` gives a changed copy. `from_records` builds the
    columns of `AnswerRecord`s."""

    backend_id: str
    dataset_fingerprint: str
    prompt_fingerprint: str
    context_fingerprint: str | None
    cluster_ids: tuple[str, ...]
    question_indices: tuple[int, ...]
    raws: tuple[str, ...]
    normalized: tuple[Answer, ...]
    correct: bytes
    error: bytes

    @classmethod
    def from_records(cls, backend_id: str, dataset_fingerprint: str, prompt_fingerprint: str,
                     context_fingerprint: str | None, records: Iterable[AnswerRecord]) -> ResultSet:
        """The result set of its four header fields and the columns of `records`."""
        ids, indices, raws, normalized, correct, error = [*zip(*records)] or [()] * 6
        return cls(backend_id, dataset_fingerprint, prompt_fingerprint, context_fingerprint,
                   ids, indices, raws, normalized, bytes(correct), bytes(error))

    @property
    def records(self) -> tuple[AnswerRecord, ...]:
        """The answers as `AnswerRecord`s: a new tuple of new records on each read."""
        return records_of(self.cluster_ids, self.question_indices, self.raws, self.normalized, self.correct, self.error)

    @cached_property
    def verdicts(self) -> dict[str, Verdict]:
        out: dict[str, Verdict] = {}
        end = 0
        for cluster_id, run in groupby(self.cluster_ids):
            # Every id of the run equals `cluster_id`, so this counts the run in C.
            start, end = end, end + countOf(run, cluster_id)
            out[cluster_id] = _verdict_of(self.correct[start:end])
        return out

    @cached_property
    def error_count(self) -> int:
        return self.error.count(1)


def _verdict_of(flags: bytes) -> Verdict:
    """The verdict of one group's `correct` flags: Consistent if all are
    set, Incomplete if none is, Inconsistent otherwise."""
    if not flags:
        raise SchemaViolation("cannot classify a cluster with no answers")
    if 0 not in flags:
        return Verdict.CONSISTENT
    if 1 not in flags:
        return Verdict.INCOMPLETE
    return Verdict.INCONSISTENT


def ask_and_judge(
    questions: Sequence[str], prefixes: Sequence[str], expected: Sequence[Answer], backend: Backend
) -> tuple[tuple[str, ...], tuple[Answer, ...], bytes, bytes]:
    """Ask question i below `prefixes[i]` and judge its answer against
    `expected[i]`: the raw, normalized, correct and error columns of the
    answers, in question order.

    A prefix is the rendered preamble, few-shots and context, shared by
    reference across questions and handed to the backend untouched, so the
    loop builds no prompt: a backend that needs the full prompt joins it
    itself. The columns are allocated up front and each answer is stored
    at its question's index, so the loop makes no object per answer that
    the garbage collector tracks; a bare yes/no answer is normalized by one
    lookup (see `normalize_answer`), so with an oracle the loop costs
    little more than the backend's own call. A backend failure on one
    question is recorded (as an incorrect Other answer with an empty raw
    text and the error flag set) and evaluation continues; it never aborts
    the run.

    A backend that declares a concurrency above one is asked by that many
    workers (never more than there are questions); each takes the next
    index from one shared iterator when its call returns, so at most
    `concurrency` calls are in flight. Any other exception stops new calls:
    the calls already in flight finish, then it reaches the caller.
    """
    n = len(questions)
    # Filled with what a failed call leaves: an empty raw, Other, incorrect.
    raws, normalized = [""] * n, [Answer.OTHER] * n
    correct, error = bytearray(n), bytearray(n)

    def ask(i: int) -> None:
        try:
            raw = backend.answer(questions[i], prefixes[i])
        except ConceptCheckError:
            error[i] = 1
            return
        if not raw.isascii():
            # A results file reads a surrogate pair back as the one character
            # it encodes, so the column holds that character already.
            raw = raw.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")
        raws[i] = raw
        normalized[i] = answer = normalize_answer(raw)
        correct[i] = answer == expected[i]

    workers = min(getattr(backend, "concurrency", 1), n)
    if workers <= 1:
        for i in range(n):
            ask(i)
        return tuple(raws), tuple(normalized), bytes(correct), bytes(error)
    pending = iter(range(n))
    lock = threading.Lock()
    failed = threading.Event()

    def drain() -> None:
        try:
            while not failed.is_set():
                with lock:
                    i = next(pending, None)
                if i is None:
                    return
                ask(i)
        except BaseException:
            failed.set()
            raise

    from concurrent.futures import ThreadPoolExecutor  # here, so a process that asks one call at a time never loads it

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for worker in [pool.submit(drain) for _ in range(workers)]:
            worker.result()
    return tuple(raws), tuple(normalized), bytes(correct), bytes(error)


def check_context(context: "ContextBlock | None", dataset: ClusterDataset) -> None:
    """Refuse, with FingerprintMismatch, a context block built from another dataset."""
    if context is not None and context.dataset_fingerprint != dataset.fingerprint:
        raise FingerprintMismatch(
            f"context block is for dataset {context.dataset_fingerprint[:12]}..., "
            f"the evaluated dataset is {dataset.fingerprint[:12]}..."
        )


def evaluate_dataset(
    dataset: ClusterDataset,
    backend: Backend,
    template: PromptTemplate,
    context: "ContextBlock | None" = None,
) -> ResultSet:
    """Ask every dataset question and record normalized, judged answers.

    The preamble, few-shots and context are rendered once, as one prefix
    string that every question is asked with, so time and memory grow with
    questions plus context, not with their product.
    Failures are handled as in `ask_and_judge`. A backend whose concurrency
    is above one is asked by that many workers, each taking the next
    question when its call returns; answers come back in dataset order,
    and an exception other than a `ConceptCheckError` stops new calls and
    reaches the caller. A context built from another dataset is refused by
    `check_context` before any question is asked. The result set's cluster
    id and question index columns are the dataset's `question_keys`, and
    the other four are `ask_and_judge`'s.
    """
    check_context(context, dataset)
    prefix = render_prefix(template, context.statements if context is not None else ())
    clusters = dataset.clusters
    questions = [*chain.from_iterable(c.questions for c in clusters)]
    expected = [*chain.from_iterable(repeat(c.expected, len(c.questions)) for c in clusters)]
    return ResultSet(
        backend.id,
        dataset.fingerprint,
        template.fingerprint(),
        context.fingerprint() if context is not None else None,
        *dataset.question_keys,
        *ask_and_judge(questions, [prefix] * len(questions), expected, backend),
    )


# --- report rows ------------------------------------------------------------


@dataclass(frozen=True)
class GroupCount:
    """Verdict tally over one cluster family."""

    total: int
    consistent: int
    inconsistent: int
    incomplete: int

    def pct(self, count: int) -> float:
        return 100.0 * count / self.total if self.total else 0.0


_REPORT_GROUPS = {
    **dict.fromkeys((ClusterType.POSITIVE_EDGE, ClusterType.INVERSE_EDGE, ClusterType.NEGATIVE_EDGE), "edges"),
    ClusterType.PATH: "paths",
    ClusterType.PROPERTY_INHERITANCE: "property",
}


@dataclass(frozen=True)
class ReportRow:
    """Verdict tallies for one backend, grouped the way the report prints.

    `pct_all_inconsistent` is raw (unrounded); rendering applies half-up
    rounding to two decimals. Incomplete tallies exist for every group even
    though the rendered table only prints them for edges.
    """

    backend_id: str
    edges: GroupCount
    paths: GroupCount
    property: GroupCount
    all: GroupCount

    @property
    def pct_all_inconsistent(self) -> float:
        return self.all.pct(self.all.inconsistent)

    @property
    def denominators(self) -> tuple[int, int, int, int]:
        return (self.edges.total, self.paths.total, self.property.total, self.all.total)


def _tally(verdicts: Iterable[Verdict]) -> GroupCount:
    vs = list(verdicts)
    return GroupCount(
        total=len(vs),
        consistent=sum(1 for v in vs if v is Verdict.CONSISTENT),
        inconsistent=sum(1 for v in vs if v is Verdict.INCONSISTENT),
        incomplete=sum(1 for v in vs if v is Verdict.INCOMPLETE),
    )


def report_from_verdicts(backend_id: str, verdicts: dict[str, Verdict], dataset: ClusterDataset) -> ReportRow:
    by_group: dict[str, list[Verdict]] = {"edges": [], "paths": [], "property": [], "all": []}
    for cluster in dataset.clusters:
        verdict = verdicts.get(cluster.id)
        if verdict is None:
            raise MismatchedDataset(f"no verdict for cluster {cluster.id}")
        by_group["all"].append(verdict)
        by_group[_REPORT_GROUPS[cluster.type]].append(verdict)
    return ReportRow(
        backend_id=backend_id,
        edges=_tally(by_group["edges"]),
        paths=_tally(by_group["paths"]),
        property=_tally(by_group["property"]),
        all=_tally(by_group["all"]),
    )


def _check_answers_match(resultset: ResultSet, dataset: ClusterDataset) -> None:
    """A result set comes from the dataset and answers each of its questions
    exactly once, in dataset order.

    Verdicts and context read answers by position, so a missing, repeated
    or misplaced answer would otherwise change a score without an error.
    The check is two tuple comparisons with the dataset's `question_keys`;
    only a result set that fails them is walked, to name its first
    misplaced answer.
    """
    if resultset.dataset_fingerprint != dataset.fingerprint:
        raise MismatchedDataset(f"result set {resultset.backend_id} was produced from a different dataset")
    cluster_ids, indices = dataset.question_keys
    if resultset.cluster_ids == cluster_ids and resultset.question_indices == indices:
        return
    found = [*zip(resultset.cluster_ids, resultset.question_indices)]
    expected = [*zip(cluster_ids, indices)]
    n = next((n for n, (a, b) in enumerate(zip(found, expected)) if a != b), min(len(found), len(expected)))

    def name(keys: list[tuple[str, int]]) -> str:
        return "{}[{}]".format(*keys[n]) if n < len(keys) else "the end"

    raise MismatchedDataset(
        f"result set {resultset.backend_id} does not follow the dataset at answer {n + 1}: "
        f"found {name(found)}, expected {name(expected)}"
    )


def compute_report(resultset: ResultSet, dataset: ClusterDataset) -> ReportRow:
    """Tally the result set's verdicts against its dataset."""
    _check_answers_match(resultset, dataset)
    return report_from_verdicts(resultset.backend_id, resultset.verdicts, dataset)


def inconsistent_drop(baseline: ReportRow, augmented: ReportRow) -> int:
    """How many fewer clusters `augmented` has inconsistent than `baseline`;
    DenominatorMismatch unless both rows count the same clusters per group."""
    if baseline.denominators != augmented.denominators:
        raise DenominatorMismatch(
            f"baseline denominators {baseline.denominators} != augmented {augmented.denominators}"
        )
    return baseline.all.inconsistent - augmented.all.inconsistent


def improvement(baseline: ReportRow, augmented: ReportRow) -> float:
    """How much context augmentation shrank the all-inconsistent share: the
    `inconsistent_drop` as a percentage of all clusters, so the report's
    improvement cell is this value rounded, not a difference of two roundings."""
    return baseline.all.pct(inconsistent_drop(baseline, augmented))


# --- context augmentation ---------------------------------------------------


@dataclass(frozen=True)
class ContextBlock:
    """Statements of knowledge every evaluated backend missed.

    `statements` keeps dataset order with duplicates removed; provenance
    names the clusters and backends that produced the block.
    """

    statements: tuple[str, ...]
    source_cluster_ids: tuple[str, ...]
    backend_ids: tuple[str, ...]
    dataset_fingerprint: str

    def fingerprint(self) -> str:
        return digest({"statements": list(self.statements), "dataset": self.dataset_fingerprint})


def build_context(
    resultsets: Sequence[ResultSet],
    dataset: ClusterDataset,
    *,
    granularity: str = "question",
) -> ContextBlock:
    """Collect the statements of questions missed by every backend.

    Question granularity (default): a statement joins the block when each
    result set answered its question incorrectly. Cluster granularity: all
    four statements join when no backend got the whole cluster right.
    """
    if granularity not in CONTEXT_GRANULARITIES:
        raise SchemaViolation(f"unknown context granularity {granularity!r}")
    if not resultsets:
        raise MismatchedDataset("build_context needs at least one result set")
    for rs in resultsets:
        _check_answers_match(rs, dataset)
    # Answers follow dataset order, so hit[n] is about the dataset's n-th question:
    # 1 when any result set answered it correctly, by C calls alone.
    hit = bytes(map(any, zip(*(rs.correct for rs in resultsets))))
    statements: list[str] = []
    seen: set[str] = set()
    clusters_used: list[str] = []
    n = 0
    for cluster in dataset.clusters:
        size = len(cluster.questions)
        if granularity == "cluster":
            if all(rs.verdicts.get(cluster.id) is not Verdict.CONSISTENT for rs in resultsets):
                picked = range(size)
            else:
                picked = ()
        else:
            picked = [idx for idx in range(size) if not hit[n + idx]]
        n += size
        for idx in picked:
            statement = cluster.statements[idx]
            if statement not in seen:
                seen.add(statement)
                statements.append(statement)
        if picked:
            clusters_used.append(cluster.id)
    return ContextBlock(
        statements=tuple(statements),
        source_cluster_ids=tuple(clusters_used),
        backend_ids=tuple(rs.backend_id for rs in resultsets),
        dataset_fingerprint=dataset.fingerprint,
    )


def save_context(context: ContextBlock, path: str | Path) -> None:
    write_json(path, {
        "statements": list(context.statements),
        "source_cluster_ids": list(context.source_cluster_ids),
        "backend_ids": list(context.backend_ids),
        "dataset_fingerprint": context.dataset_fingerprint,
    })


_CONTEXT_FIELDS = {
    "statements": STRINGS, "source_cluster_ids": STRINGS, "backend_ids": STRINGS, "dataset_fingerprint": STRING
}


def load_context(path: str | Path) -> ContextBlock:
    statements, cluster_ids, backend_ids, fingerprint = read_fields(
        read_json(path, "context file"), _CONTEXT_FIELDS, f"context file {path}"
    )
    return ContextBlock(tuple(statements), tuple(cluster_ids), tuple(backend_ids), fingerprint)


# --- results file (line-delimited JSON) --------------------------------------

_ANSWERS = {a.value: a for a in Answer}  # a dict lookup costs far less than an Enum call
_HEADER_FIELDS = {
    "backend": STRING, "dataset_fingerprint": STRING,
    "prompt_fingerprint": STRING, "context_fingerprint": optional(STRING),
}
_ANSWER_FIELDS = {
    "cluster_id": STRING, "question_index": INTEGER, "raw": STRING,
    "normalized": one_of(*_ANSWERS), "correct": BOOLEAN, "error": BOOLEAN,
}


# Filled in by one %-format per record: a dict and a `canonical_json` call per
# record, which give the same bytes, take about four times as long.
_ANSWER_LINE = (
    '{"cluster_id":%s,"correct":%s,"error":%s,"normalized":%s,'
    '"question_index":%d,"raw":%s,"record":"answer"}\n'
)


def write_results(resultset: ResultSet, path: str | Path) -> None:
    """Write a header line, then one answer record per line.

    The header is the `canonical_json` of its fields. Each answer line is

        {"cluster_id":...,"correct":...,"error":...,"normalized":...,"question_index":...,"raw":...,"record":"answer"}

    with its keys in that order: the same bytes as `canonical_json` of the
    record as a dict (the compact sorted form, strings escaped to ASCII,
    booleans as true/false).
    """
    header = {
        "record": "header",
        "version": RESULTS_FORMAT_VERSION,
        "backend": resultset.backend_id,
        "dataset_fingerprint": resultset.dataset_fingerprint,
        "prompt_fingerprint": resultset.prompt_fingerprint,
        "context_fingerprint": resultset.context_fingerprint,
    }
    answers = (
        _ANSWER_LINE % (
            quote_json(cluster_id), "true" if correct else "false", "true" if error else "false",
            quote_json(normalized), index, quote_json(raw),
        )
        for cluster_id, index, raw, normalized, correct, error in zip(
            resultset.cluster_ids, resultset.question_indices, resultset.raws,
            resultset.normalized, resultset.correct, resultset.error,
        )
    )
    write_text(path, chain([canonical_json(header) + "\n"], answers))


# A JSON string with its escapes and no raw control character, as the strict decoder reads it.
_JSON_STRING = r'"([^"\\\x00-\x1f]*(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*)"'


@cache
def _answer_match():
    """The `fullmatch` of a whole answer line in exactly the form `_ANSWER_LINE`
    writes: its text, each placeholder in turn the group of its field's JSON
    form. An index has at most 18 digits, so that `int` never reaches the
    interpreter's limit. Compiled on the first call, so that only a process
    that reads results pays for it."""
    return re.compile("".join(chain.from_iterable(zip(
        map(re.escape, re.split("%[sd]", _ANSWER_LINE.removesuffix("\n"))),
        (_JSON_STRING, "(true|false)", "(true|false)", f'"({"|".join(map(re.escape, _ANSWERS))})"',
         "(0|[1-9][0-9]{0,17})", _JSON_STRING, ""),
    )))).fullmatch


def read_results(path: str | Path) -> ResultSet:
    """The result set `write_results` wrote to `path`.

    The file is read by `read_lines`, a block at a time, so that reading
    holds the records and not the file's text: a line is read and checked
    before the next block is read, so a bad line is reported before a
    non-UTF-8 byte in a later block. An answer line in the form
    `write_results` writes is read by one match, to the values `json.loads`
    gives (a string with escapes by `json.decoder.scanstring`, as it does).
    A line that is empty once JSON whitespace (space, tab, carriage return)
    is stripped is skipped. Every other line is decoded by `json.loads` and
    must be one header (of this format version, and only one) or an answer
    record whose fields `read_fields` checks; any other line, field or
    version, and JSON that `json.loads` refuses, is a SchemaViolation that
    names the file and the line. Each line's fields are appended to the
    result set's columns, and no record is built: answers of one cluster
    share one cluster id string, and equal raw answers share one string. Logs at DEBUG how many answers
    were read and how many were not in the written form.
    """
    header: list | None = None
    cluster_ids, indices, raws, answers = [], [], [], []  # `answers` holds the normalized column
    corrects, errors = bytearray(), bytearray()
    shared_raws: dict[str, str] = {}  # one string for each distinct raw answer
    decoded = 0  # answers not in the written form, read by the JSON path
    shared_id = ""  # the cluster id of the previous answer, shared by the answers of its cluster
    answer_match = _answer_match()
    for lineno, line in read_lines(path, "results"):
        match = answer_match(line)
        if match is not None:
            cluster_id, correct, error, normalized, index, raw = match.groups()
            # A group without a backslash is the string's value already.
            if "\\" in cluster_id:
                cluster_id = scanstring(line, match.start(1))[0]
            if "\\" in raw:
                raw = scanstring(line, match.start(6))[0]
            index, correct, error = int(index), correct == "true", error == "true"
        elif not line.strip(JSON_SPACE):
            continue
        else:
            try:
                data = json.loads(line)
                kind = data.get("record") if isinstance(data, dict) else None
                if kind == "answer":
                    cluster_id, index, raw, normalized, correct, error = read_fields(data, _ANSWER_FIELDS, "answer")
                    decoded += 1
                elif kind == "header" and header is None:
                    if data.get("version") != RESULTS_FORMAT_VERSION:
                        raise SchemaViolation(
                            f"results format version {data.get('version')!r} is not "
                            f"supported (this version reads {RESULTS_FORMAT_VERSION!r})"
                        )
                    header = read_fields(data, _HEADER_FIELDS, "header")
                    continue
                elif kind == "header":
                    raise SchemaViolation("duplicate header record")
                else:
                    raise SchemaViolation(f"unknown record kind {kind!r}")
            except JSON_REFUSALS as exc:
                raise SchemaViolation(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            except SchemaViolation as exc:
                # Every error on a line names the file and the line.
                raise SchemaViolation(f"{path}:{lineno}: {exc}") from None
        if cluster_id != shared_id:
            shared_id = cluster_id
        cluster_ids.append(shared_id)
        indices.append(index)
        raws.append(shared_raws.setdefault(raw, raw))
        answers.append(_ANSWERS[normalized])
        corrects.append(correct)
        errors.append(error)
    if header is None:
        raise SchemaViolation(f"{path}: missing header record")
    log.debug("read %d answers from %s, %d of them not in the written form and decoded as JSON",
              len(indices), path, decoded)
    columns = []
    for column in (cluster_ids, indices, raws, answers):
        columns.append(tuple(column))
        column.clear()  # so that no more than one column is held twice at a time
    return ResultSet(*header, *columns, bytes(corrects), bytes(errors))
