"""Question-cluster generation from a concept graph.

Five cluster families probe an answering model from different angles:

* positive edge   - a direct subconcept edge, asked forward, expected yes
* inverse edge    - the same edge asked backward, expected no
* negative edge   - two far-apart unrelated concepts, expected no
* path            - a strictly implied (non-adjacent) pair, expected yes
* property        - a property asserted on an ancestor, probed on a
                    descendant, expected yes

Every cluster carries four question phrasings and, in parallel, the four
declarative statements the questions assert. Generation is a pure function
of (graph, config), so a fixed seed reproduces a dataset byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, fields
from enum import Enum
from functools import cache, cached_property
from itertools import accumulate, chain, pairwise, repeat
from json.encoder import encode_basestring_ascii as quote
from pathlib import Path
from string import Formatter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .answers import Answer
from .errors import INTEGER, LIST, OBJECT, STRING, STRINGS, TEXT, one_of, optional, read_fields
from .errors import ConfigError, SchemaViolation, UnknownTemplate, canonical_json, read_json, write_text
from .hierarchy import (
    ConceptGraph,
    ConceptId,
    DeductiveClosure,
    _slug,
    deductive_closure,
    implied_paths,
    unrelated_pairs,
)

DATASET_FORMAT_VERSION = "1"
TEMPLATE_SET_VERSION = "v1"

ARTICLE_STYLES = ("literal", "grammatical")
PATH_GRANULARITIES = ("pair", "path")


class ClusterType(str, Enum):
    POSITIVE_EDGE = "positive_edge"
    INVERSE_EDGE = "inverse_edge"
    NEGATIVE_EDGE = "negative_edge"
    PATH = "path"
    PROPERTY_INHERITANCE = "property_inheritance"


class QuestionCluster(NamedTuple):
    """One knowledge item probed through several phrasings: an immutable tuple, which `_replace` copies.

    `questions[i]` asserts exactly what `statements[i]` states; the answer
    to every question in the cluster is `expected`.
    """

    id: str
    type: ClusterType
    expected: Answer
    source: ConceptId
    target: ConceptId
    questions: tuple[str, ...]
    statements: tuple[str, ...]
    path: tuple[ConceptId, ...] | None = None


@dataclass(frozen=True)
class GenerationConfig:
    seed: int | None = None
    negative_count: int = 0
    min_distance: int = 2
    min_path_len: int = 2
    article_style: str = "literal"
    path_granularity: str = "pair"
    template_set: str = TEMPLATE_SET_VERSION

    def validate(self) -> None:
        if self.negative_count < 0:
            raise ConfigError("negative_count must be >= 0")
        if self.negative_count > 0 and self.seed is None:
            raise ConfigError("a seed is required when negative_count > 0")
        if self.min_distance < 1:
            raise ConfigError("min_distance must be >= 1")
        if self.min_path_len < 1:
            raise ConfigError("min_path_len must be >= 1")
        if self.article_style not in ARTICLE_STYLES:
            raise ConfigError(f"unknown article_style {self.article_style!r}")
        if self.path_granularity not in PATH_GRANULARITIES:
            raise ConfigError(f"unknown path_granularity {self.path_granularity!r}")
        if self.template_set != TEMPLATE_SET_VERSION:
            raise ConfigError(f"unknown template_set {self.template_set!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: object, where: str = "generation config", error=SchemaViolation) -> GenerationConfig:
        config = cls(*read_fields(data, _CONFIG_FIELDS, where, error))
        extra = set(data).difference(cls.__dataclass_fields__)
        if extra:
            raise error(f"unknown {where} keys: {sorted(extra)}")
        return config


# Every field of the dataclass is a string or an integer (the seed may be null),
# and a missing key takes its default.
_CONFIG_FIELDS = {f.name: optional(STRING if f.type == "str" else INTEGER, f.default) for f in fields(GenerationConfig)}


@dataclass(frozen=True)
class ClusterDataset:
    """A generated dataset: the graph and config it came from, then columns
    in dataset order, with no object per cluster for the collector to track.
    Per cluster: id, type, expected answer, source, target, path (None but
    on path clusters) and question count; per question: text and statement.
    Built on first read and kept: the per-question `expected` and
    `question_keys`, the fingerprint and the answer key."""

    version: str
    graph_fingerprint: str
    config: GenerationConfig
    cluster_ids: tuple[str, ...]
    cluster_types: tuple[ClusterType, ...]
    cluster_expected: tuple[Answer, ...]
    sources: tuple[ConceptId, ...]
    targets: tuple[ConceptId, ...]
    paths: tuple[tuple[ConceptId, ...] | None, ...]
    question_counts: tuple[int, ...]
    questions: tuple[str, ...]
    statements: tuple[str, ...]

    @classmethod
    def from_clusters(cls, graph_fingerprint: str, config: GenerationConfig,
                      clusters: Iterable[QuestionCluster]) -> ClusterDataset:
        """The dataset of `clusters`; SchemaViolation for two clusters with one id, for a cluster with no
        questions (it could get no verdict) or whose statements do not parallel its questions (it would
        misplace every later statement), and for a question with two expected answers. The file reader
        builds its dataset here, so it refuses what this refuses."""
        ids, types, expected, sources, targets, questions, statements, paths = [*zip(*clusters)] or [()] * 8
        dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
        if dupes:
            raise SchemaViolation(f"duplicate cluster ids: {dupes}")
        counts = tuple(map(len, questions))
        if 0 in counts or counts != tuple(map(len, statements)):
            cid = next(i for i, q, s in zip(ids, questions, statements) if not q or len(q) != len(s))
            raise SchemaViolation(f"dataset cluster {cid!r}: statements must parallel a non-empty list of questions")
        dataset = cls(DATASET_FORMAT_VERSION, graph_fingerprint, config, ids, types, expected, sources, targets,
                      paths, counts, tuple(chain.from_iterable(questions)), tuple(chain.from_iterable(statements)))
        dataset._answer_key  # refuses a question with two expected answers, and keeps the key
        return dataset

    @property
    def clusters(self) -> tuple[QuestionCluster, ...]:
        """The clusters as `QuestionCluster`s: a new tuple of new clusters on each read."""
        counts = self.question_counts
        return tuple(map(QuestionCluster, self.cluster_ids, self.cluster_types, self.cluster_expected, self.sources,
                         self.targets, _grouped(self.questions, counts), _grouped(self.statements, counts), self.paths))

    @cached_property
    def fingerprint(self) -> str:
        """Stable content hash binding results files to this dataset: the
        sha256 of the compact JSON of its fields (sorted keys, no spaces,
        ASCII escapes), fed to the hash one cluster at a time."""
        sha = hashlib.sha256(b'{"clusters":[')
        for cluster in _encoded_clusters(self, _COMPACT):
            sha.update(cluster.encode())
        sha.update(("]," + canonical_json(_other_fields(self))[1:]).encode())
        return sha.hexdigest()

    @cached_property
    def question_keys(self) -> tuple[tuple[str, ...], tuple[int, ...]]:
        """Each question's cluster id and its index in its cluster, as two
        columns: the keys a result set's answers carry."""
        counts = self.question_counts
        return (
            tuple(chain.from_iterable(map(repeat, self.cluster_ids, counts))),
            tuple(chain.from_iterable(map(range, counts))),
        )

    @cached_property
    def expected(self) -> tuple[Answer, ...]:
        """Each question's expected answer: its cluster's."""
        return tuple(chain.from_iterable(map(repeat, self.cluster_expected, self.question_counts)))

    @cached_property
    def _answer_key(self) -> dict[str, str]:
        """`answer_key`'s mapping, built once; shared only with `PerfectOracle`, which never changes it."""
        return answer_table(self.cluster_ids, self.cluster_expected, [*_grouped(self.questions, self.question_counts)])

    def answer_key(self) -> dict[str, str]:
        """Each question's one expected answer, "yes" or "no", by
        `answer_table`: a new copy on each call, so that a caller may change it."""
        return self._answer_key.copy()


def _grouped(column: tuple[str, ...], counts: Iterable[int]) -> Iterator[tuple[str, ...]]:
    """`column` cut into consecutive slices of `counts` items (a slice costs less than a tuple built by `islice`)."""
    return (column[start:end] for start, end in pairwise(accumulate(counts, initial=0)))


def answer_table(
    names: Sequence[str], answers: Sequence[Answer], texts: Sequence[Sequence[str]],
    questions: Sequence[Sequence[str]] | None = None, named: str = "clusters", where: str = "",
) -> dict[str, str]:
    """Each text's one expected answer, "yes" or "no". Source `names[i]`
    expects `answers[i]` to every text of `texts[i]`; a text is a question or
    a scenario's whole prompt, and `questions[i]` (by default `texts[i]`)
    holds the bare question each text asks. No backend could answer a text
    both ways, so a text two sources expect different answers to is refused
    with SchemaViolation naming both sources and the question.
    """
    yes, no = (dict.fromkeys(chain.from_iterable(g for a, g in zip(answers, texts) if a is kind), kind.value)
               for kind in (Answer.YES, Answer.NO))  # `kind` is local: an Enum member lookup costs 0.1 µs
    if not yes.keys().isdisjoint(no):
        first: dict[str, tuple[str, Answer]] = {}
        for name, answer, group, shown in zip(names, answers, texts, questions or texts):
            for text, question in zip(group, shown):
                first_name, first_answer = first.setdefault(text, (name, answer))
                if first_answer is not answer:
                    raise SchemaViolation(
                        f"{named} {first_name} and {name} ask {question!r}{where} "
                        f"with expected answers {first_answer.value} and {answer.value}"
                    )
    yes.update(no)
    return yes


# --- question forms ------------------------------------------------------------
#
# One row per question form: the question and the statement it asserts, as
# format strings over the labels a and b, the property p, the value v and the
# articles ar_a and ar_b. The default article style reproduces the source
# phrasing literally: the article is always "a", even before a vowel ("a
# orthopedic surgeon"). "grammatical" switches to a/an by leading letter.
QUESTION_FORMS = {
    "also": ("is {ar_a} {a} also {ar_b} {b} ?", "{ar_a} {a} is also {ar_b} {b}"),
    "type_of": ("is {ar_a} {a} a type of {b} ?", "{ar_a} {a} is a type of {b}"),
    "every": ("is every {a} {ar_b} {b} ?", "every {a} is {ar_b} {b}"),
    "property_of": ("is the {p} of {ar_a} {a} {v} ?", "the {p} of {ar_a} {a} is {v}"),
    "value_is": ("is {v} the {p} of {ar_a} {a} ?", "{v} is the {p} of {ar_a} {a}"),
    "plain": ("is {ar_a} {a} {ar_b} {b} ?", "{ar_a} {a} is {ar_b} {b}"),
}
SUBSUMPTION_FORMS = ("plain", "type_of", "every", "also")
# A property cluster asks its premise on the ancestor in the property_of form,
# then these forms with the descendant as subject.
_INHERITANCE_FORMS = ("plain", "property_of", "value_is")


def _article(label: str, style: str) -> str:
    if style == "grammatical" and label[:1].lower() in "aeiou":
        return "an"
    return "a"


def render_forms(forms: tuple[str, ...], fill: dict[str, str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The questions and, in parallel, the statements of `forms`, with each
    field taken from `fill`; an unknown form raises UnknownTemplate."""
    return _renderer(tuple(forms))(fill)


@cache
def _renderer(forms: tuple[str, ...]) -> Callable[[dict[str, str]], tuple[tuple[str, ...], tuple[str, ...]]]:
    """One function rendering `forms` as `format_map` would, built once per
    forms tuple the way `namedtuple` builds its methods: each format string
    of the table, whose fields are plain names, is also an f-string over
    locals of those names, so no cluster parses one."""
    try:
        rows = [QUESTION_FORMS[form] for form in forms]
    except KeyError as exc:
        raise UnknownTemplate(exc.args[0]) from None
    fields = sorted({field for row in rows for text in row for _, field, _, _ in Formatter().parse(text) if field})
    questions, statements = ("".join(f"f{row[side]!r}, " for row in rows) for side in (0, 1))
    names = "".join(f"{field}, " for field in fields)
    values = "".join(f"_mapping[{field!r}], " for field in fields)
    source = f"def render(_mapping):\n    ({names}) = ({values})\n    return ({questions}), ({statements})\n"
    namespace: dict = {}
    exec(source, namespace)
    return namespace["render"]


# --- generators -------------------------------------------------------------


# The expected answer of each family asking whether one concept is a kind of
# another; a family's id prefix is its type's value.
_SUBSUMPTION_EXPECTED = {
    ClusterType.POSITIVE_EDGE: Answer.YES,
    ClusterType.INVERSE_EDGE: Answer.NO,
    ClusterType.NEGATIVE_EDGE: Answer.NO,
    ClusterType.PATH: Answer.YES,
}


def _subsumption_clusters(
    graph: ConceptGraph, kind: ClusterType, pairs: list[tuple[ConceptId, ...]], style: str, via: bool = False
) -> list[QuestionCluster]:
    """One cluster of SUBSUMPTION_FORMS per pair, asking whether its first
    concept is a kind of its last.

    A PATH pair is a whole path, which its cluster records; with `via` the
    id also names the path's inner concepts, so each path gets its own id.
    """
    label = graph.label_of
    expected = _SUBSUMPTION_EXPECTED[kind]
    prefix = kind.value.replace("_", "-")
    clusters = []
    for pair in pairs:
        a, b = label(pair[0]), label(pair[-1])
        questions, statements = render_forms(
            SUBSUMPTION_FORMS, {"a": a, "ar_a": _article(a, style), "b": b, "ar_b": _article(b, style)}
        )
        suffix = ":via:" + "-".join(_slug(label(n)) for n in pair[1:-1]) if via else ""
        clusters.append(QuestionCluster(
            f"{prefix}:{_slug(a)}:{_slug(b)}{suffix}", kind, expected, pair[0], pair[-1],
            questions, statements, pair if kind is ClusterType.PATH else None,
        ))
    return clusters


def _edges_by_label(graph: ConceptGraph) -> list[tuple[ConceptId, ConceptId]]:
    """Every (child, parent) edge, sorted by the child's label and then the parent's (labels are unique)."""
    return [(child, parent) for child in graph.ids_by_label for parent in graph.parents_map[child]]


def gen_positive_clusters(graph: ConceptGraph, config: GenerationConfig) -> list[QuestionCluster]:
    """One expected-yes cluster per direct edge, asked child -> parent."""
    return _subsumption_clusters(graph, ClusterType.POSITIVE_EDGE, _edges_by_label(graph), config.article_style)


def gen_inverse_clusters(graph: ConceptGraph, config: GenerationConfig) -> list[QuestionCluster]:
    """One expected-no cluster per direct edge, asked parent -> child.

    Edges whose endpoints are linked by same-as are skipped: asking whether
    the parent is a kind of the child is not false for a synonym pair.
    """
    pairs = [
        (parent, child) for child, parent in _edges_by_label(graph)
        if frozenset((child, parent)) not in graph.same_as_sets
    ]
    return _subsumption_clusters(graph, ClusterType.INVERSE_EDGE, pairs, config.article_style)


def gen_negative_clusters(
    graph: ConceptGraph,
    closure: DeductiveClosure,
    config: GenerationConfig,
) -> list[QuestionCluster]:
    """Expected-no clusters over sampled unrelated, far-apart pairs."""
    if config.negative_count == 0:
        return []
    pairs = unrelated_pairs(
        graph, closure, config.negative_count,
        seed=config.seed, min_distance=config.min_distance,
    )
    return _subsumption_clusters(graph, ClusterType.NEGATIVE_EDGE, pairs, config.article_style)


def _longest_paths(graph: ConceptGraph, closure: DeductiveClosure) -> dict[tuple[ConceptId, ConceptId], int]:
    """Edge count of the longest path for every implied pair, one DP in parent-first order."""
    longest: dict[tuple[ConceptId, ConceptId], int] = {}
    for node in graph.parent_first:
        for parent in graph.parents_map[node]:
            longest.setdefault((node, parent), 1)
            for ancestor in closure.ancestors(parent):
                steps = longest[parent, ancestor] + 1
                if steps > longest.get((node, ancestor), 0):
                    longest[node, ancestor] = steps
    return longest


def _least_witness_paths(
    graph: ConceptGraph,
    closure: DeductiveClosure,
    min_len: int,
) -> list[tuple[ConceptId, ...]]:
    """The label-least path of at least `min_len` edges for each strictly
    implied pair, sorted by label sequence.

    Each path is built by a greedy walk: step to the least-labelled parent
    from which the target is still reachable by enough edges. Labels are
    unique and no path is a prefix of another with the same endpoints, so
    the greedy choice is the least path. The result equals keeping the
    first path per pair of the sorted `implied_paths` enumeration.
    """
    ancestors = closure.ancestor_sets
    longest = _longest_paths(graph, closure) if min_len > 2 else {}
    paths = []
    strict = ((src, dst) for src, above in ancestors.items() for dst in above if dst not in graph.parents_map[src])
    for src, dst in strict:
        if min_len > 2 and longest[src, dst] < min_len:
            continue
        path = [src]
        while path[-1] != dst:
            need = min_len - len(path)  # edges still needed after the next step
            path.append(next(
                p for p in graph.parents_map[path[-1]]
                if (p == dst and need <= 0)
                or (dst in ancestors[p] and (need <= 1 or longest[p, dst] >= need))
            ))
        paths.append(tuple(path))
    label = graph.label_of
    paths.sort(key=lambda p: tuple(label(n) for n in p))
    return paths


def gen_path_clusters(
    graph: ConceptGraph,
    closure: DeductiveClosure,
    config: GenerationConfig,
) -> list[QuestionCluster]:
    """Expected-yes clusters over strictly implied (non-adjacent) pairs.

    With path_granularity "pair" (default) each strictly implied endpoint
    pair yields one cluster and the lexicographically first witness path is
    recorded; this scales with the closure, not with the number of paths.
    With "path" every qualifying path yields its own cluster, so a pair
    reachable several ways is probed once per way; the paths are enumerated
    by `implied_paths`, which refuses graphs with more than
    MAX_ENUMERATED_PATHS of them.
    """
    by_path = config.path_granularity == "path"
    if by_path:
        # a redundant direct edge is not strictly implied
        paths = [
            p for p in implied_paths(graph, config.min_path_len)
            if (p[0], p[-1]) not in closure.direct
        ]
    else:
        paths = _least_witness_paths(graph, closure, config.min_path_len)
    return _subsumption_clusters(graph, ClusterType.PATH, paths, config.article_style, via=by_path)


def gen_property_clusters(
    graph: ConceptGraph,
    closure: DeductiveClosure,
    config: GenerationConfig,
) -> list[QuestionCluster]:
    """Expected-yes clusters checking that descendants inherit a property.

    For an assertion on P and each strict descendant C, the cluster asks:
    the property on P, the subsumption C -> P, and the property on C in two
    phrasings. A model holding the first two beliefs but missing either of
    the last two is inconsistent, not merely ignorant. The cluster id gets
    the value's slug as a suffix only when the subject has more than one
    value of the property.
    """
    label = graph.label_of
    style = config.article_style
    values = Counter((p.subject, p.property) for p in graph.properties)
    clusters = []
    assertions = sorted(graph.properties, key=lambda p: (label(p.subject), p.property, p.value))
    for assertion in assertions:
        subject_label = label(assertion.subject)
        several_values = values[assertion.subject, assertion.property] > 1
        value_suffix = f":{_slug(assertion.value)}" if several_values else ""
        prop, value, ar_subject = assertion.property, assertion.value, _article(subject_label, style)
        (premise_q,), (premise_s,) = render_forms(
            ("property_of",), {"a": subject_label, "ar_a": ar_subject, "p": prop, "v": value}
        )
        descendants = sorted(closure.strict_descendants(assertion.subject), key=label)
        for desc in descendants:
            desc_label = label(desc)
            questions, statements = render_forms(_INHERITANCE_FORMS, {
                "a": desc_label, "ar_a": _article(desc_label, style),
                "b": subject_label, "ar_b": ar_subject, "p": prop, "v": value,
            })
            clusters.append(
                QuestionCluster(
                    id=f"property:{_slug(subject_label)}:{_slug(desc_label)}:"
                    f"{_slug(prop)}{value_suffix}",
                    type=ClusterType.PROPERTY_INHERITANCE,
                    expected=Answer.YES,
                    source=desc,
                    target=assertion.subject,
                    questions=(premise_q, *questions),
                    statements=(premise_s, *statements),
                )
            )
    return clusters


def generate_dataset(graph: ConceptGraph, config: GenerationConfig) -> ClusterDataset:
    """Run all five generators and bind the result to the graph fingerprint."""
    config.validate()
    closure = deductive_closure(graph)
    clusters: list[QuestionCluster] = []
    clusters += gen_positive_clusters(graph, config)
    clusters += gen_inverse_clusters(graph, config)
    clusters += gen_negative_clusters(graph, closure, config)
    clusters += gen_path_clusters(graph, closure, config)
    clusters += gen_property_clusters(graph, closure, config)
    return ClusterDataset.from_clusters(graph.fingerprint, config, clusters)


# --- dataset file format ----------------------------------------------------


# One cluster as json.dumps(..., sort_keys=True) writes it: `_INDENTED` as in
# the dataset file (indent=2), `_COMPACT` as the fingerprint hashes it
# (separators "," and ":"). Each is the separator before every cluster but
# the first, the cluster template, the "path" entry (on path clusters only),
# and how a non-empty list of strings opens, separates and closes; an empty
# list is "[]" in both.
_INDENTED = (
    ",\n    ",
    '%s{\n      "expected": %s,\n      "id": %s,\n%s      "questions": %s,\n      "source": %s,\n'
    '      "statements": %s,\n      "target": %s,\n      "type": %s\n    }',
    '      "path": %s,\n', "[\n        ", ",\n        ", "\n      ]",
)
_COMPACT = (
    ",", '%s{"expected":%s,"id":%s,%s"questions":%s,"source":%s,"statements":%s,"target":%s,"type":%s}',
    '"path":%s,', "[", ",", "]",
)
# Each type and expected answer quoted once: an Enum's `value` costs more to read than a dict lookup.
_QUOTED = {member: quote(member.value) for member in (*ClusterType, Answer.YES, Answer.NO)}


def _encoded_clusters(dataset: ClusterDataset, layout: tuple[str, ...]) -> Iterator[str]:
    """Each cluster of the dataset in `layout`, after its separator, with every
    string quoted by the C escaping json.dumps itself uses (`encode_basestring_ascii`)."""
    between, template, path_entry, opened, comma, closed = layout

    def strings(items: tuple[str, ...]) -> str:
        return opened + comma.join(map(quote, items)) + closed if items else "[]"

    counts = dataset.question_counts
    separator = ""
    for cid, kind, expected, source, target, path, questions, statements in zip(
        dataset.cluster_ids, dataset.cluster_types, dataset.cluster_expected, dataset.sources, dataset.targets,
        dataset.paths, _grouped(dataset.questions, counts), _grouped(dataset.statements, counts),
    ):
        yield template % (
            separator, _QUOTED[expected], quote(cid), "" if path is None else path_entry % strings(path),
            strings(questions), quote(source), strings(statements), quote(target), _QUOTED[kind],
        )
        separator = between


def _other_fields(dataset: ClusterDataset) -> dict:
    """The dataset's fields after "clusters", which sorts first of them."""
    return {
        "config": dataset.config.to_dict(), "graph_fingerprint": dataset.graph_fingerprint,
        "version": dataset.version,
    }


# Enum members by value: a dict lookup costs far less than an Enum call.
_CLUSTER_TYPES = {t.value: t for t in ClusterType}
_EXPECTED = {a.value: a for a in (Answer.YES, Answer.NO)}
_DATASET_FIELDS = {
    "version": one_of(DATASET_FORMAT_VERSION), "graph_fingerprint": TEXT,
    "config": optional(OBJECT, {}), "clusters": LIST,
}
_CLUSTER_FIELDS = {
    "id": TEXT, "type": one_of(*_CLUSTER_TYPES), "expected": one_of(*_EXPECTED), "source": STRING, "target": STRING,
    "questions": STRINGS, "statements": STRINGS, "path": optional(STRINGS),
}


def _cluster_from_dict(entry: object) -> QuestionCluster:
    cid, ctype, expected, source, target, questions, statements, path = read_fields(
        entry, _CLUSTER_FIELDS, "dataset cluster"
    )
    path = tuple(path) if path is not None else None
    return QuestionCluster(
        cid, _CLUSTER_TYPES[ctype], _EXPECTED[expected], source, target, tuple(questions), tuple(statements), path
    )


def dataset_from_dict(data: object) -> ClusterDataset:
    _, fingerprint, config, clusters_raw = read_fields(data, _DATASET_FIELDS, "dataset file")
    config = GenerationConfig.from_dict(config, "dataset config")
    return ClusterDataset.from_clusters(fingerprint, config, map(_cluster_from_dict, clusters_raw))


def write_dataset(dataset: ClusterDataset, path: str | Path) -> None:
    """Write the bytes json.dumps(..., indent=2, sort_keys=True) gives for
    the dataset as a JSON object, and a final newline.

    Each cluster is written as it is encoded, so the file's text is never
    held whole.
    """
    opened, closed = ("[\n    ", "\n  ]") if dataset.cluster_ids else ("[", "]")
    others = json.dumps(_other_fields(dataset), indent=2, sort_keys=True)[1:]
    clusters = _encoded_clusters(dataset, _INDENTED)
    write_text(path, chain(['{\n  "clusters": ', opened], clusters, [closed, ",", others, "\n"]))


def read_dataset(path: str | Path) -> ClusterDataset:
    data = read_json(path, "dataset file")
    return dataset_from_dict(data)


def dataset_fingerprint(dataset: ClusterDataset) -> str:
    """The dataset's `fingerprint`, computed once per dataset object."""
    return dataset.fingerprint
