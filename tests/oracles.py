"""Independent brute-force oracles used to check the library's algorithms.

Everything here is deliberately naive and written against plain edge lists,
not against the library's own types, so a bug in the package cannot hide
inside its oracle. The results reader returns the library's `ResultSet` so
the two can be compared, but decodes each line with `json.loads`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

from conceptcheck import (
    Answer, AnswerRecord, ConceptCheckError, ContextBlock, GroupCount, MismatchedDataset, ReportRow, ResultSet,
    SchemaViolation, UnreadableSource, Verdict, normalize_answer
)
from conceptcheck.errors import BOOLEAN, INTEGER, STRING, one_of, optional, read_fields
from conceptcheck.ingest import ParseResult, _collect

# What `json.loads` raises for text it refuses: JSONDecodeError, a ValueError
# too, for text that is not JSON; ValueError for an integer past the
# interpreter's digit limit; RecursionError for nesting past its recursion limit.
JSON_REFUSALS = (ValueError, RecursionError)


def floyd_warshall_reachability(nodes: list[str], edges: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """All-pairs reachability by cubic Floyd-Warshall over a boolean matrix.

    Returns the set of ordered (source, target) pairs with a directed path
    of length >= 1. Irreflexive unless the graph has a cycle through a node.
    """
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for a, b in edges:
        reach[index[a]][index[b]] = True
    for k in range(n):
        row_k = reach[k]
        for i in range(n):
            if reach[i][k]:
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return {(nodes[i], nodes[j]) for i in range(n) for j in range(n) if reach[i][j]}


def all_paths_by_joining(edges: set[tuple[str, str]], min_len: int, max_len: int = 64) -> set[tuple[str, ...]]:
    """Every directed path with min_len..max_len edges, built by repeated joins.

    Level k+1 paths are level k paths extended by one edge; on a DAG this
    terminates because path node counts are bounded by the node count.
    """
    by_tail: dict[str, list[tuple[str, str]]] = {}
    for a, b in edges:
        by_tail.setdefault(a, []).append((a, b))
    level: set[tuple[str, ...]] = {(a, b) for a, b in edges}
    found: set[tuple[str, ...]] = set(level) if min_len <= 1 else set()
    length = 1
    while level and length < max_len:
        nxt: set[tuple[str, ...]] = set()
        for path in level:
            for _, b in by_tail.get(path[-1], []):
                if b in path:
                    continue
                nxt.add(path + (b,))
        length += 1
        if length >= min_len:
            found |= nxt
        level = nxt
    return found


def ancestors_by_bfs(node: str, edges: set[tuple[str, str]]) -> set[str]:
    """Every node reachable from `node` by walking child->parent edges."""
    parents: dict[str, set[str]] = {}
    for a, b in edges:
        parents.setdefault(a, set()).add(b)
    seen: set[str] = set()
    frontier = [node]
    while frontier:
        nxt: list[str] = []
        for cur in frontier:
            for p in parents.get(cur, ()):
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def undirected_distance(a: str, b: str, nodes: list[str], edges: set[tuple[str, str]]) -> float:
    """Shortest hop count between a and b ignoring direction; inf if disconnected."""
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for x, y in edges:
        adj[x].add(y)
        adj[y].add(x)
    if a == b:
        return 0
    dist = {a: 0}
    frontier = [a]
    while frontier:
        nxt = []
        for cur in frontier:
            for other in adj[cur]:
                if other not in dist:
                    dist[other] = dist[cur] + 1
                    if other == b:
                        return dist[other]
                    nxt.append(other)
        frontier = nxt
    return float("inf")


def unrelated_candidates(
    nodes: list[str],
    edges: set[tuple[str, str]],
    same_as: set[frozenset[str]],
    min_distance: int,
) -> list[tuple[str, str]]:
    """Pairs (a, b), a before b in `nodes`, with no reachability either way,
    no same-as link, and undirected distance >= min_distance; in row order."""
    reach = floyd_warshall_reachability(nodes, edges)
    out: list[tuple[str, str]] = []
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if (a, b) in reach or (b, a) in reach:
                continue
            if frozenset((a, b)) in same_as:
                continue
            if undirected_distance(a, b, nodes, edges) < min_distance:
                continue
            out.append((a, b))
    return out


def unrelated_pairs_by_enumeration(
    nodes: list[str],
    edges: set[tuple[str, str]],
    same_as: set[frozenset[str]],
    min_distance: int,
) -> set[frozenset[str]]:
    """All unordered pairs with no reachability either way, no same-as link,
    and undirected distance >= min_distance."""
    return {frozenset(p) for p in unrelated_candidates(nodes, edges, same_as, min_distance)}


def sampled_unrelated_pairs(
    labels: dict[str, str],
    edges: set[tuple[str, str]],
    same_as: set[frozenset[str]],
    count: int,
    seed: int,
    min_distance: int,
) -> tuple[list[tuple[str, str]], int]:
    """The seeded sample of unrelated pairs, drawn from the full list.

    Lists every candidate with the nodes in label order, samples `count` of
    them (all when the supply is short) and orients each by a coin flip.
    Returns the oriented pairs and the number of candidates.
    """
    nodes = sorted(labels, key=labels.__getitem__)
    candidates = unrelated_candidates(nodes, edges, same_as, min_distance)
    rng = random.Random(seed)
    chosen = list(candidates) if count >= len(candidates) else rng.sample(candidates, count)
    return [(a, b) if rng.random() < 0.5 else (b, a) for a, b in chosen], len(candidates)


def first_path_per_pair(labels: dict[str, str], edges: set[tuple[str, str]], min_len: int) -> list[tuple[str, ...]]:
    """Every path of at least min_len edges sorted by label sequence, keeping
    the first one per endpoint pair that is not itself an edge."""
    paths = sorted(all_paths_by_joining(edges, min_len), key=lambda p: [labels[n] for n in p])
    out: list[tuple[str, ...]] = []
    seen: set[tuple[str, str]] = set()
    for path in paths:
        ends = (path[0], path[-1])
        if ends not in edges and ends not in seen:
            seen.add(ends)
            out.append(path)
    return out


def random_dag(rng: random.Random, max_nodes: int = 50, edge_prob: float = 0.15) -> tuple[list[str], set[tuple[str, str]]]:
    """Seeded random DAG; edges only point from lower to higher topological rank."""
    n = rng.randint(2, max_nodes)
    nodes = [f"n{i:02d}" for i in range(n)]
    order = nodes[:]
    rng.shuffle(order)
    edges: set[tuple[str, str]] = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.add((order[i], order[j]))
    return nodes, edges


def render_prompt_by_joining(
    preamble: str,
    few_shot: list[tuple[str, str]],
    question: str,
    context: list[str],
) -> str:
    """The prompt as one list of lines joined by newlines: the preamble and a
    blank line, each few-shot pair and a blank line, the context lines, then
    the question and the answer cue."""
    parts: list[str] = []
    if preamble:
        parts.append(preamble)
        parts.append("")
    for shot_q, shot_a in few_shot:
        parts.append(f"Q: {shot_q}")
        parts.append(f"A: {shot_a}")
        parts.append("")
    parts.extend(context)
    parts.append(f"Q: {question}")
    parts.append("A:")
    return "\n".join(parts)


def cluster_to_dict(c) -> dict:
    """A QuestionCluster as the JSON object a dataset file holds: every
    field, with "path" only when it is not None."""
    entry: dict = {
        "id": c.id,
        "type": c.type.value,
        "expected": c.expected.value,
        "source": c.source,
        "target": c.target,
        "questions": list(c.questions),
        "statements": list(c.statements),
    }
    if c.path is not None:
        entry["path"] = list(c.path)
    return entry


def dataset_to_dict(dataset) -> dict:
    """A ClusterDataset as the JSON object its file and fingerprint encode."""
    return {
        "version": dataset.version,
        "graph_fingerprint": dataset.graph_fingerprint,
        "config": dataclasses.asdict(dataset.config),
        "clusters": [cluster_to_dict(c) for c in dataset.clusters],
    }


def dataset_file_by_hand(dataset) -> bytes:
    """The bytes of a dataset file: `dataset_to_dict` as indented JSON with
    sorted keys and a final newline, from the standard library's encoder."""
    return (json.dumps(dataset_to_dict(dataset), indent=2, sort_keys=True) + "\n").encode("ascii")


def fingerprint_by_hand(obj: object) -> str:
    """sha256 of the compact sorted-key JSON of `obj`, spelled out as each
    fingerprint wrote it before they shared one codec."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def results_by_hand(path) -> ResultSet:
    """A results file read as its format describes it, one line at a time:
    lines of JSON whitespace only are skipped, every other line goes through
    `json.loads` and then `read_fields`, and each error, a refusal of
    `json.loads` among them, names the file and the line, as `read_results`
    words it."""
    header = None
    records = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.strip(" \t\r") == "":
            continue
        try:
            data = json.loads(line)
        except JSON_REFUSALS as exc:
            raise SchemaViolation(f"{path}:{lineno}: not valid JSON: {exc}") from None
        kind = None
        if isinstance(data, dict):
            kind = data.get("record")
        try:
            if kind == "answer":
                fields = {
                    "cluster_id": STRING,
                    "question_index": INTEGER,
                    "raw": STRING,
                    "normalized": one_of("yes", "no", "other"),
                    "correct": BOOLEAN,
                    "error": BOOLEAN,
                }
                cluster_id, index, raw, normalized, correct, error = read_fields(data, fields, "answer")
                records.append(AnswerRecord(cluster_id, index, raw, Answer(normalized), correct, error))
            elif kind == "header":
                if header is not None:
                    raise SchemaViolation("duplicate header record")
                version = data.get("version")
                if version != "1":
                    raise SchemaViolation(
                        f"results format version {version!r} is not supported (this version reads '1')"
                    )
                fields = {
                    "backend": STRING,
                    "dataset_fingerprint": STRING,
                    "prompt_fingerprint": STRING,
                    "context_fingerprint": optional(STRING),
                }
                header = read_fields(data, fields, "header")
            else:
                raise SchemaViolation(f"unknown record kind {kind!r}")
        except SchemaViolation as exc:
            raise SchemaViolation(f"{path}:{lineno}: {exc}") from None
    if header is None:
        raise SchemaViolation(f"{path}: missing header record")
    return ResultSet.from_records(*header, records)


def entity_dump_by_hand(source) -> ParseResult:
    """An entity dump read as one text: a file by `Path.read_text`, a stream
    by one `read()`, decoded as UTF-8 when it gives bytes. Each line of
    `text.split("\\n")` is stripped of JSON whitespace and a trailing comma;
    empty and array wrapper lines are skipped, and every other line goes
    through `json.loads`, a line it refuses (with any of `JSON_REFUSALS`)
    being a diagnostic that names its number. The records then go through `parse_entity_dump`'s own rules
    for ids and labels."""
    try:
        if hasattr(source, "read"):
            where = f"dump stream {source.name}" if hasattr(source, "name") else "dump stream"
            text = source.read()
            text = text.decode("utf-8") if isinstance(text, bytes) else text
        else:
            where = f"dump file {source}"
            text = Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UnreadableSource(f"cannot read {where}: {exc}") from None
    result = ParseResult(entities=[])

    def records():
        for lineno, line in enumerate(text.split("\n"), start=1):
            stripped = line.strip(" \t\n\r").rstrip(",")
            if stripped in ("", "[", "]"):
                continue
            try:
                data = json.loads(stripped)
            except JSON_REFUSALS as exc:
                result.diagnostics.append(f"line {lineno}: not valid JSON: {exc}")
                continue
            yield f"line {lineno}", data

    return _collect(records(), result)


def noisy_answer_by_hand(seed: int, flip_probability: float, question: str, truth: str) -> str:
    """The noisy oracle's answer: `truth` flipped when the first eight bytes of
    sha256("<seed>:<question>"), as a fraction of 2**64, fall below the flip
    probability."""
    draw = int.from_bytes(hashlib.sha256(f"{seed}:{question}".encode("utf-8")).digest()[:8], "big") / 2**64
    if draw < flip_probability:
        return {"yes": "no", "no": "yes"}[truth]
    return truth


# Characters that surround an answer's leading word without being part of it.
ANSWER_PUNCTUATION = frozenset(".,;:!?\"'`()[]*")


def normalized_by_hand(raw: str) -> Answer:
    """The leading-token rule, spelled out: the first whitespace-separated
    word that is not all punctuation, with punctuation peeled off both ends
    one character at a time, is yes or no when it casefolds to "yes" or
    "no"; any other word, or none, is Other."""
    for word in raw.split():
        start, end = 0, len(word)
        while start < end and word[start] in ANSWER_PUNCTUATION:
            start += 1
        while end > start and word[end - 1] in ANSWER_PUNCTUATION:
            end -= 1
        if start < end:
            return {"yes": Answer.YES, "no": Answer.NO}.get(word[start:end].casefold(), Answer.OTHER)
    return Answer.OTHER


def judged_by_hand(jobs, backend) -> list[AnswerRecord]:
    """One record per (cluster_id, question_index, question, prefix, expected)
    job, asked in order and built by keyword: a `ConceptCheckError` gives an
    incorrect Other record with an empty raw and the error flag; any other raw
    has its surrogate pairs joined into the characters they encode and is
    judged by `normalize_answer`."""
    records = []
    for cluster_id, idx, question, prefix, expected in jobs:
        try:
            raw = backend.answer(question, prefix)
        except ConceptCheckError:
            records.append(AnswerRecord(
                cluster_id=cluster_id, question_index=idx, raw="", normalized=Answer.OTHER, correct=False, error=True
            ))
            continue
        raw = raw.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")
        normalized = normalize_answer(raw)
        records.append(AnswerRecord(
            cluster_id=cluster_id, question_index=idx, raw=raw, normalized=normalized,
            correct=normalized == expected, error=False,
        ))
    return records


# The report group each cluster type's clusters count in, by the type's value.
REPORT_GROUP_BY_TYPE = {
    "positive_edge": "edges", "inverse_edge": "edges", "negative_edge": "edges",
    "path": "paths", "property_inheritance": "property",
}


def verdicts_by_hand(resultset: ResultSet, dataset) -> dict[str, Verdict]:
    """Each cluster's verdict, walking the clusters and slicing the answers in
    dataset order: consistent when every flag of the cluster's questions is
    set, incomplete when none is, inconsistent otherwise. A cluster without
    questions gets none."""
    verdicts = {}
    n = 0
    for cluster in dataset.clusters:
        flags = [resultset.correct[n + i] for i in range(len(cluster.questions))]
        n += len(flags)
        if not flags:
            continue
        if all(flags):
            verdicts[cluster.id] = Verdict.CONSISTENT
        elif not any(flags):
            verdicts[cluster.id] = Verdict.INCOMPLETE
        else:
            verdicts[cluster.id] = Verdict.INCONSISTENT
    return verdicts


def report_by_hand(backend_id: str, verdicts: dict, dataset) -> ReportRow:
    """A report row tallied one cluster at a time: in dataset order, each
    cluster's verdict joins its group's list and the list of all; a cluster
    with no verdict is refused, naming it. Each list is then counted verdict
    by verdict."""
    groups = {"edges": [], "paths": [], "property": [], "all": []}
    for cluster in dataset.clusters:
        verdict = verdicts.get(cluster.id)
        if verdict is None:
            raise MismatchedDataset(f"no verdict for cluster {cluster.id}")
        groups[REPORT_GROUP_BY_TYPE[cluster.type.value]].append(verdict)
        groups["all"].append(verdict)

    def count(verdicts: list) -> GroupCount:
        return GroupCount(
            total=len(verdicts),
            consistent=sum(1 for v in verdicts if v is Verdict.CONSISTENT),
            inconsistent=sum(1 for v in verdicts if v is Verdict.INCONSISTENT),
            incomplete=sum(1 for v in verdicts if v is Verdict.INCOMPLETE),
        )

    return ReportRow(backend_id, count(groups["edges"]), count(groups["paths"]),
                     count(groups["property"]), count(groups["all"]))


def context_by_hand(resultsets: list[ResultSet], dataset, granularity: str = "question") -> ContextBlock:
    """The context block of result sets that follow the dataset, walking the
    clusters: a question is picked when every result set answered it
    incorrectly or, at cluster granularity, every question of a cluster is
    picked when no result set's verdict for it is consistent. Picked
    statements join in dataset order unless already there; a cluster joins
    the sources when any of its questions was picked."""
    verdicts = [verdicts_by_hand(rs, dataset) for rs in resultsets]
    statements: list[str] = []
    sources: list[str] = []
    n = 0
    for cluster in dataset.clusters:
        size = len(cluster.questions)
        if granularity == "cluster":
            missed = all(v.get(cluster.id) is not Verdict.CONSISTENT for v in verdicts)
            picked = list(range(size)) if missed else []
        else:
            picked = [i for i in range(size) if not any(rs.correct[n + i] for rs in resultsets)]
        n += size
        for i in picked:
            if cluster.statements[i] not in statements:
                statements.append(cluster.statements[i])
        if picked:
            sources.append(cluster.id)
    return ContextBlock(tuple(statements), tuple(sources), tuple(rs.backend_id for rs in resultsets),
                        dataset.fingerprint)


# --- question forms, spelled out one function per kind of text ---------------


def article_by_hand(label: str, style: str) -> str:
    """"an" before a leading vowel in the grammatical style, "a" otherwise."""
    if style == "grammatical" and label[:1].lower() in "aeiou":
        return "an"
    return "a"


def subsumption_question_by_hand(form: str, a: str, b: str, style: str = "literal") -> str:
    ar_a, ar_b = article_by_hand(a, style), article_by_hand(b, style)
    if form == "plain":
        return f"is {ar_a} {a} {ar_b} {b} ?"
    if form == "type_of":
        return f"is {ar_a} {a} a type of {b} ?"
    if form == "every":
        return f"is every {a} {ar_b} {b} ?"
    if form == "also":
        return f"is {ar_a} {a} also {ar_b} {b} ?"
    raise KeyError(form)


def subsumption_statement_by_hand(form: str, a: str, b: str, style: str = "literal") -> str:
    ar_a, ar_b = article_by_hand(a, style), article_by_hand(b, style)
    if form == "plain":
        return f"{ar_a} {a} is {ar_b} {b}"
    if form == "type_of":
        return f"{ar_a} {a} is a type of {b}"
    if form == "every":
        return f"every {a} is {ar_b} {b}"
    if form == "also":
        return f"{ar_a} {a} is also {ar_b} {b}"
    raise KeyError(form)


def property_question_by_hand(form: str, prop: str, subject: str, value: str, style: str = "literal") -> str:
    ar_s = article_by_hand(subject, style)
    if form == "property_of":
        return f"is the {prop} of {ar_s} {subject} {value} ?"
    if form == "value_is":
        return f"is {value} the {prop} of {ar_s} {subject} ?"
    raise KeyError(form)


def property_statement_by_hand(form: str, prop: str, subject: str, value: str, style: str = "literal") -> str:
    ar_s = article_by_hand(subject, style)
    if form == "property_of":
        return f"the {prop} of {ar_s} {subject} is {value}"
    if form == "value_is":
        return f"{value} is the {prop} of {ar_s} {subject}"
    raise KeyError(form)


def extract_by_hand(
    claims: dict[str, dict[str, list[str]]],
    labels: dict[str, str],
    seed: str,
    direction: str,
    max_depth: int,
    seed_property: str | None = None,
) -> tuple[list[tuple[str, str]], set[tuple[str, str]], set[tuple[str, str, str]], set[tuple[str, str]]]:
    """(concepts, edges, properties, same-as pairs) of the fragment around
    `seed`, read from `claims` (id -> property -> targets) node by node.

    P279 and P31 claims to other ids of the dump are subclass claims. The
    walk is a queue of (node, depth); the claims between reached nodes are
    tried in sorted order, and a claim whose parent already reaches its
    child through the kept claims is dropped.
    """

    def parents(node: str) -> list[str]:
        return [t for pid in ("P279", "P31") for t in claims[node].get(pid, []) if t in claims and t != node]

    def neighbours(node: str) -> list[str]:
        up = parents(node) if direction in ("ancestors", "both") else []
        down = [other for other in claims if node in parents(other)] if direction in ("descendants", "both") else []
        return up + down

    reached = {seed}
    queue = [(seed, 0)]
    while queue:
        node, depth = queue.pop(0)
        for other in neighbours(node) if depth < max_depth else []:
            if other not in reached:
                reached.add(other)
                queue.append((other, depth + 1))

    edges: set[tuple[str, str]] = set()
    for child, parent in sorted({(c, p) for c in reached for p in parents(c) if p in reached}):
        if child not in ancestors_by_bfs(parent, edges):
            edges.add((child, parent))

    concepts = [(node, labels[node]) for node in sorted(reached)]
    properties: set[tuple[str, str, str]] = set()
    if seed_property:
        name = labels.get(seed_property, seed_property)
        for node in reached:
            properties |= {(node, name, labels.get(t, t)) for t in claims[node].get(seed_property, [])}
    same_as = {
        (min(node, t), max(node, t)) for node in reached for t in claims[node].get("P460", []) if t in reached and t != node
    }
    return concepts, edges, properties, same_as
