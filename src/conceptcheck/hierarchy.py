"""Concept hierarchy core: immutable graph, deductive closure, and queries.

The graph holds concepts, child->parent subconcept edges, property
assertions, and same-as links. Everything is validated at construction
(`build_graph`), after which instances are immutable and safe to share
across threads. The deductive closure is exact transitive reachability,
not an approximation, and is bound to its source graph by fingerprint.
"""

from __future__ import annotations

import hashlib
import random
import re
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path
from typing import Iterable

from .errors import LIST, STRING, STRINGS, Kind, optional, read_fields
from .errors import (
    ConfigError,
    CycleDetected,
    DanglingReference,
    DuplicateLabel,
    InsufficientPairsWarning,
    SchemaViolation,
    UnknownConcept,
    read_json,
    write_json,
)

# Concept ids are opaque strings: an external KG id (Q-number) or a local slug.
ConceptId = str

GRAPH_FORMAT_VERSION = "1"

# `implied_paths` refuses to list more paths than this; pair-mode path
# clusters never list paths and are not limited by it.
MAX_ENUMERATED_PATHS = 100_000

# The ways an extraction walks from its seed concept: up, down or both.
DIRECTIONS = ("ancestors", "descendants", "both")


@dataclass(frozen=True)
class Concept:
    """A node in the hierarchy. `aliases` are alternative surface labels."""

    id: ConceptId
    label: str
    aliases: tuple[str, ...] = ()


@dataclass(frozen=True)
class PropertyAssertion:
    """`subject` carries `property` with `value`; labels, not ids."""

    subject: ConceptId
    property: str
    value: str


def _slug(label: str) -> str:
    """A label as it appears in cluster ids; two labels are the same when their slugs are."""
    out = re.sub(r"[\W_]+", "-", label.casefold()).strip("-")
    return out or "x"


@dataclass(frozen=True)
class ConceptGraph:
    """Validated, immutable concept graph. Construct via `build_graph`."""

    concepts: tuple[Concept, ...]
    edges: tuple[tuple[ConceptId, ConceptId], ...]
    properties: tuple[PropertyAssertion, ...]
    same_as: tuple[tuple[ConceptId, ConceptId], ...]

    @cached_property
    def by_id(self) -> dict[ConceptId, Concept]:
        return {c.id: c for c in self.concepts}

    @cached_property
    def concept_ids(self) -> tuple[ConceptId, ...]:
        return tuple(c.id for c in self.concepts)

    @cached_property
    def ids_by_label(self) -> tuple[ConceptId, ...]:
        return tuple(c.id for c in sorted(self.concepts, key=lambda c: c.label))

    @cached_property
    def edge_set(self) -> frozenset[tuple[ConceptId, ConceptId]]:
        return frozenset(self.edges)

    @cached_property
    def parents_map(self) -> dict[ConceptId, tuple[ConceptId, ...]]:
        return self._neighbours(self.edges)

    @cached_property
    def children_map(self) -> dict[ConceptId, tuple[ConceptId, ...]]:
        return self._neighbours((parent, child) for child, parent in self.edges)

    def _neighbours(self, pairs: Iterable[tuple[ConceptId, ConceptId]]) -> dict[ConceptId, tuple[ConceptId, ...]]:
        """Each concept's partners b in the (a, b) `pairs`, sorted by label."""
        out: dict[ConceptId, list[ConceptId]] = {c.id: [] for c in self.concepts}
        for a, b in pairs:
            out[a].append(b)
        return {k: tuple(sorted(v, key=self.label_of)) for k, v in out.items()}

    @cached_property
    def parent_first(self) -> tuple[ConceptId, ...]:
        """Every concept, each one after all of its parents (Kahn's order)."""
        remaining = {i: len(self.parents_map[i]) for i in self.concept_ids}
        queue = [i for i in self.concept_ids if remaining[i] == 0]
        order: list[ConceptId] = []
        while queue:
            node = queue.pop()
            order.append(node)
            for child in self.children_map[node]:
                remaining[child] -= 1
                if remaining[child] == 0:
                    queue.append(child)
        return tuple(order)

    @cached_property
    def same_as_sets(self) -> frozenset[frozenset[ConceptId]]:
        return frozenset(frozenset(p) for p in self.same_as)

    @cached_property
    def fingerprint(self) -> str:
        return graph_fingerprint(self.edges)

    def label_of(self, concept: ConceptId) -> str:
        try:
            return self.by_id[concept].label
        except KeyError:
            raise UnknownConcept(concept) from None

    def __contains__(self, concept: ConceptId) -> bool:
        return concept in self.by_id


def graph_fingerprint(edges: Iterable[tuple[ConceptId, ConceptId]]) -> str:
    """Stable hash of the sorted edge list; binds downstream artifacts."""
    lines = sorted(f"{child}\t{parent}" for child, parent in edges)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _find_cycle(graph: ConceptGraph) -> list[ConceptId]:
    """A cycle among the concepts `parent_first` leaves out.

    Each left-out concept has a left-out parent, or it would have been
    ordered; walking from the least one to its least such parent must
    return to a concept already visited, and that closes the cycle.
    """
    left_out = set(graph.concept_ids).difference(graph.parent_first)
    node = min(left_out)
    path: list[ConceptId] = []
    visited: set[ConceptId] = set()
    while node not in visited:
        visited.add(node)
        path.append(node)
        node = min(p for p in graph.parents_map[node] if p in left_out)
    return path[path.index(node):] + [node]


def build_graph(
    concepts: Iterable[Concept],
    edges: Iterable[tuple[ConceptId, ConceptId]],
    properties: Iterable[PropertyAssertion] = (),
    same_as: Iterable[tuple[ConceptId, ConceptId]] = (),
) -> ConceptGraph:
    """Validate and freeze a concept graph.

    Rejects empty or duplicate ids (SchemaViolation), labels with equal
    slugs (DuplicateLabel), property names or values of one subject that
    differ but have equal slugs (SchemaViolation), references to unknown
    ids (DanglingReference), and any cycle in the subconcept relation,
    self-edges included (CycleDetected). Repeated edges and repeated
    property assertions collapse to one.
    """
    concept_list = sorted(concepts, key=lambda c: c.id)
    ids: set[ConceptId] = set()
    seen_labels: dict[str, ConceptId] = {}
    for c in concept_list:
        if not c.id or not c.label:
            raise SchemaViolation(f"concept with empty id or label: {c!r}")
        if c.id in ids:
            raise SchemaViolation(f"duplicate concept id: {c.id}")
        ids.add(c.id)
        slug = _slug(c.label)
        if slug in seen_labels:
            raise DuplicateLabel(f"label {c.label!r} of {c.id} collides with {seen_labels[slug]} as {slug!r}")
        seen_labels[slug] = c.id

    edge_set: set[tuple[ConceptId, ConceptId]] = set()
    for child, parent in edges:
        if child not in ids:
            raise DanglingReference(f"edge child {child!r} is not a concept")
        if parent not in ids:
            raise DanglingReference(f"edge parent {parent!r} is not a concept")
        if child == parent:
            raise CycleDetected([child, parent])
        edge_set.add((child, parent))

    prop_list = sorted(set(properties), key=lambda p: (p.subject, p.property, p.value))
    seen_parts: dict[tuple[str, ...], str] = {}
    for p in prop_list:
        if p.subject not in ids:
            raise DanglingReference(f"property subject {p.subject!r} is not a concept")
        if not p.property or not p.value:
            raise SchemaViolation(f"property assertion with empty field: {p!r}")
        # Property names and values become cluster-id parts by their slugs.
        parts = {(p.subject, _slug(p.property)): p.property, (p.subject, p.property, _slug(p.value)): p.value}
        for key, text in parts.items():
            if seen_parts.setdefault(key, text) != text:
                raise SchemaViolation(f"{seen_parts[key]!r} and {text!r} of {p.subject} collide as {key[-1]!r}")

    same_pairs: set[tuple[ConceptId, ConceptId]] = set()
    for a, b in same_as:
        if a not in ids or b not in ids:
            raise DanglingReference(f"same-as pair ({a!r}, {b!r}) names a non-concept")
        if a == b:
            raise SchemaViolation(f"same-as pair of a concept with itself: {a}")
        same_pairs.add((min(a, b), max(a, b)))

    graph = ConceptGraph(
        concepts=tuple(concept_list),
        edges=tuple(sorted(edge_set)),
        properties=tuple(prop_list),
        same_as=tuple(sorted(same_pairs)),
    )
    # Kahn's order leaves out exactly the concepts on or below a cycle.
    if len(graph.parent_first) != len(graph.concepts):
        raise CycleDetected(_find_cycle(graph))
    return graph


@dataclass(frozen=True)
class DeductiveClosure:
    """Exact transitive reachability over subconcept edges.

    `ancestor_sets` is the one stored relation: each concept's ancestors,
    never the concept itself. `direct` holds the graph's (child, parent)
    edges and `derived_from` its fingerprint. The pair views, `implied` (every
    (descendant, ancestor) pair) and `strictly_implied` (those not in
    `direct`), are built on first read and kept.
    """

    direct: frozenset[tuple[ConceptId, ConceptId]]
    derived_from: str
    ancestor_sets: dict[ConceptId, frozenset[ConceptId]] = field(repr=False, hash=False)

    @cached_property
    def implied(self) -> frozenset[tuple[ConceptId, ConceptId]]:
        return frozenset((child, anc) for child, ancs in self.ancestor_sets.items() for anc in ancs)

    @cached_property
    def strictly_implied(self) -> frozenset[tuple[ConceptId, ConceptId]]:
        return self.implied - self.direct

    @cached_property
    def _descendant_sets(self) -> dict[ConceptId, frozenset[ConceptId]]:
        out: dict[ConceptId, list[ConceptId]] = {n: [] for n in self.ancestor_sets}
        for child, ancestors in self.ancestor_sets.items():
            for ancestor in ancestors:
                out[ancestor].append(child)
        return {k: frozenset(v) for k, v in out.items()}

    def ancestors(self, concept: ConceptId) -> frozenset[ConceptId]:
        self._check(concept)
        return self.ancestor_sets[concept]

    def strict_descendants(self, concept: ConceptId) -> frozenset[ConceptId]:
        self._check(concept)
        return self._descendant_sets[concept]

    def _check(self, concept: ConceptId) -> None:
        if concept not in self.ancestor_sets:
            raise UnknownConcept(concept)


def deductive_closure(graph: ConceptGraph) -> DeductiveClosure:
    """Compute the closure by ancestor propagation in parent-first order."""
    ancestors: dict[ConceptId, frozenset[ConceptId]] = {}
    for node in graph.parent_first:
        parents = graph.parents_map[node]
        acc = set(parents)
        for parent in parents:
            acc |= ancestors[parent]
        ancestors[node] = frozenset(acc)
    return DeductiveClosure(direct=graph.edge_set, derived_from=graph.fingerprint, ancestor_sets=ancestors)


def is_subconcept(
    closure: DeductiveClosure,
    candidate: ConceptId,
    ancestor: ConceptId,
    *,
    reflexive: bool = False,
) -> bool:
    """Strict subsumption by default; `reflexive=True` makes c <= c true."""
    closure._check(candidate)
    closure._check(ancestor)
    if candidate == ancestor:
        return reflexive
    return ancestor in closure.ancestor_sets[candidate]


def inherited_properties(
    graph: ConceptGraph,
    closure: DeductiveClosure,
    concept: ConceptId,
) -> list[PropertyAssertion]:
    """Assertions on the concept itself and on every ancestor.

    The assertion's `subject` tells which ancestor each one came from; an
    assertion reachable along several paths appears once.
    """
    if concept not in graph:
        raise UnknownConcept(concept)
    holders = {concept} | set(closure.ancestors(concept))
    hits = {p for p in graph.properties if p.subject in holders}
    return sorted(hits, key=lambda p: (p.property, p.value, p.subject))


def unrelated_pairs(
    graph: ConceptGraph,
    closure: DeductiveClosure,
    count: int,
    *,
    seed: int,
    min_distance: int = 2,
) -> list[tuple[ConceptId, ConceptId]]:
    """Sample up to `count` ordered pairs with no subsumption either way.

    Candidates are unordered pairs that are unreachable in both directions,
    not linked by same-as, and at undirected distance >= min_distance
    (disconnected counts as infinitely far). Sampling and orientation are
    driven by `seed` only, so a fixed seed reproduces the exact list. When
    fewer candidates exist than requested, all are returned and an
    InsufficientPairsWarning is emitted.

    The candidates, label-sorted pairs (a, b) with a before b, are never
    listed: each row a only counts its partners, and sampled indices are
    mapped back to pairs. Time is O(V + E + closure) plus the
    radius-(min_distance - 1) neighbourhoods; extra memory is O(V + count).
    """
    if count < 0:
        raise ConfigError("count must be >= 0")
    if min_distance < 1:
        raise ConfigError("min_distance must be >= 1")
    ordered = graph.ids_by_label
    position = {c: i for i, c in enumerate(ordered)}
    linked = graph._neighbours(chain(graph.same_as, ((b, a) for a, b in graph.same_as)))

    def excluded_after(i: int) -> list[int]:
        """Positions after row i that are not candidate partners of row i."""
        a = ordered[i]
        near = frontier = {a}
        for _ in range(min_distance - 1):
            frontier = {o for cur in frontier for o in chain(graph.parents_map[cur], graph.children_map[cur])} - near
            if not frontier:
                break
            near = near | frontier
        excluded = near.union(linked[a], closure.ancestors(a), closure.strict_descendants(a))
        return sorted(p for p in map(position.__getitem__, excluded) if p > i)

    ends = list(accumulate(len(ordered) - 1 - i - len(excluded_after(i)) for i in range(len(ordered))))
    total = ends[-1] if ends else 0
    rng = random.Random(seed)
    if count > total:
        warnings.warn(
            f"requested {count} unrelated pairs but only {total} exist",
            InsufficientPairsWarning,
            stacklevel=2,
        )
    # sample(range(n), k) draws the same indices as sampling any n-item list.
    indices = range(total) if count >= total else rng.sample(range(total), count)
    gaps: dict[int, list[int]] = {}
    chosen = []
    for index in indices:
        i = bisect_right(ends, index)
        j = index - (ends[i - 1] if i else 0)
        if i not in gaps:
            # gaps[i][k]: candidate partners of row i before its k-th excluded position
            gaps[i] = [p - i - 1 - k for k, p in enumerate(excluded_after(i))]
        chosen.append((ordered[i], ordered[i + 1 + j + bisect_right(gaps[i], j)]))
    return [(a, b) if rng.random() < 0.5 else (b, a) for a, b in chosen]


def _count_paths(graph: ConceptGraph, min_len: int) -> int:
    """Number of directed paths with at least `min_len` edges, by one DP.

    exact[v][k] counts the paths from v with exactly k < min_len edges and
    longer[v] those with at least min_len; O((V + E) * min(min_len, V)).
    """
    min_len = min(min_len, len(graph.concepts))
    exact: dict[ConceptId, list[int]] = {}
    longer: dict[ConceptId, int] = {}
    for node in graph.parent_first:
        row, tail = [1] + [0] * (min_len - 1), 0
        for parent in graph.parents_map[node]:
            up = exact[parent]
            for k in range(1, min_len):
                row[k] += up[k - 1]
            tail += up[min_len - 1] + longer[parent]
        exact[node], longer[node] = row, tail
    return sum(longer.values())


def implied_paths(graph: ConceptGraph, min_len: int = 2) -> list[tuple[ConceptId, ...]]:
    """Every directed path with at least `min_len` edges.

    Paths are returned as node-id tuples in lexicographic order of their
    label sequences. The number of paths can grow exponentially with the
    graph, so they are first counted in O((V + E) * min_len); above
    MAX_ENUMERATED_PATHS this raises ConfigError instead of enumerating.
    """
    if min_len < 1:
        raise ConfigError("min_len must be >= 1")
    total = _count_paths(graph, min_len)
    if total > MAX_ENUMERATED_PATHS:
        raise ConfigError(
            f"the graph has {total} paths with at least {min_len} edges, "
            f"more than the {MAX_ENUMERATED_PATHS} that can be enumerated"
        )
    label = graph.label_of
    out: list[tuple[ConceptId, ...]] = []

    def extend(path: tuple[ConceptId, ...]) -> None:
        for parent in graph.parents_map[path[-1]]:
            longer = path + (parent,)
            if len(longer) - 1 >= min_len:
                out.append(longer)
            extend(longer)

    for node in graph.ids_by_label:
        extend((node,))
    out.sort(key=lambda p: tuple(label(n) for n in p))
    return out


# --- native file format ---------------------------------------------------
#
# {
#   "version": "1",
#   "concepts":   [{"id", "label", "aliases": [...]}, ...],
#   "edges":      [{"child", "parent"}, ...],
#   "properties": [{"subject", "property", "value"}, ...],
#   "same_as":    [[id, id], ...]
# }
#
# Arrays are kept sorted so a graph always serializes to the same bytes.


def graph_to_dict(graph: ConceptGraph) -> dict:
    return {
        "version": GRAPH_FORMAT_VERSION,
        "concepts": [
            {"id": c.id, "label": c.label, "aliases": list(c.aliases)}
            for c in graph.concepts
        ],
        "edges": [{"child": c, "parent": p} for c, p in graph.edges],
        "properties": [
            {"subject": p.subject, "property": p.property, "value": p.value}
            for p in graph.properties
        ],
        "same_as": [list(pair) for pair in graph.same_as],
    }


_GRAPH_FIELDS = {
    "concepts": LIST,
    "edges": LIST,
    "properties": optional(LIST, []),
    "same_as": optional(Kind("a list of [id, id] pairs", (list,), lambda v: all(
        type(p) is list and len(p) == 2 and STRINGS.test(p) for p in v
    )), []),
}
_CONCEPT_FIELDS = {"id": STRING, "label": STRING, "aliases": optional(STRINGS, [])}
_EDGE_FIELDS = {"child": STRING, "parent": STRING}
_PROPERTY_FIELDS = {"subject": STRING, "property": STRING, "value": STRING}


def graph_from_dict(data: object) -> ConceptGraph:
    concepts, edges, props, same_as = read_fields(data, _GRAPH_FIELDS, "graph file")
    concepts = [read_fields(c, _CONCEPT_FIELDS, f"graph concept #{i}") for i, c in enumerate(concepts)]
    return build_graph(
        [Concept(cid, label, tuple(aliases)) for cid, label, aliases in concepts],
        [tuple(read_fields(e, _EDGE_FIELDS, f"graph edge #{i}")) for i, e in enumerate(edges)],
        [PropertyAssertion(*read_fields(p, _PROPERTY_FIELDS, f"graph property #{i}")) for i, p in enumerate(props)],
        [tuple(pair) for pair in same_as],
    )


def save_graph(graph: ConceptGraph, path: str | Path) -> None:
    write_json(path, graph_to_dict(graph))


def load_graph(path: str | Path) -> ConceptGraph:
    data = read_json(path, "graph file")
    return graph_from_dict(data)
