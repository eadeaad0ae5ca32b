"""Ingestion of external knowledge-graph entity dumps.

Reads the line-delimited JSON entity format used by large collaborative
KGs (one entity object per line, optionally wrapped in a JSON array with
trailing commas). Only the fields this package needs are interpreted:

    {"id": "Q...", "labels": {lang: {"value": ...}},
     "aliases": {lang: [{"value": ...}, ...]},
     "claims": {pid: [{"mainsnak": {"datavalue": {"value": <target>}}}, ...]}}

where a claim target is either {"id": "Q..."} (an item reference) or a
plain string. Instance-of and subclass-of claims both become subconcept
edges; a configurable identity property becomes same-as links; one seed
property may be carried over as property assertions.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable

from .errors import INTEGER, LIST, optional, read_fields
from .errors import (
    JSON_REFUSALS,
    JSON_SPACE,
    ConfigError,
    EmptyFragment,
    MalformedResponse,
    SeedNotFound,
    read_lines,
)
from .hierarchy import DIRECTIONS, Concept, ConceptGraph, PropertyAssertion, build_graph

log = logging.getLogger(__name__)

SUBCLASS_PROPERTIES = ("P279", "P31")
SAME_AS_PROPERTY = "P460"


@dataclass(frozen=True)
class RawEntity:
    """One parsed dump record; claims map property id -> target values."""

    id: str
    labels: dict[str, str]
    aliases: dict[str, tuple[str, ...]]
    claims: dict[str, tuple[str, ...]]

    def label(self, language: str) -> str:
        return self.labels.get(language, self.id)


@dataclass(frozen=True)
class ExtractionSpec:
    """What to pull out of a dump and how far to walk."""

    seed_concept: str
    seed_property: str | None = None
    max_depth: int = 3
    direction: str = "descendants"
    language: str = "en"

    def validate(self) -> None:
        if not self.seed_concept:
            raise ConfigError("seed_concept is required")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"unknown direction {self.direction!r}")


@dataclass
class ParseResult:
    entities: list[RawEntity]
    diagnostics: list[str] = field(default_factory=list)


def _as_object(value: object, what: str, problems: list[str]) -> dict:
    """`value` if it is an object, else {}; noted in `problems` unless null."""
    if value is not None and not isinstance(value, dict):
        problems.append(f"{what} is not an object; left out")
    return value if isinstance(value, dict) else {}


def _claim_targets(snaks: object, claim: str, problems: list[str]) -> tuple[str, ...]:
    targets = []
    for i, snak in enumerate(snaks if isinstance(snaks, list) else ()):
        where = f"{claim} #{i}"
        mainsnak = _as_object(_as_object(snak, where, problems).get("mainsnak"), f"{where} mainsnak", problems)
        value = _as_object(mainsnak.get("datavalue"), f"{where} datavalue", problems).get("value")
        if isinstance(value, dict) and isinstance(value.get("id"), str):
            targets.append(value["id"])
        elif isinstance(value, str):
            targets.append(value)
    return tuple(targets)


def _parse_record(data: object, source: str, problems: list[str]) -> RawEntity | None:
    """The entity in one record, or None without a usable id. Parts of the
    wrong JSON type are left out, each with a note in `problems` naming `source`."""
    if not isinstance(data, dict) or not isinstance(data.get("id"), str) or not data["id"]:
        return None
    where = f"{source}: record {data['id']}"
    labels = {
        lang: entry["value"]
        for lang, entry in _as_object(data.get("labels"), f"{where} labels", problems).items()
        if isinstance(entry, dict) and isinstance(entry.get("value"), str)
    }
    aliases = {
        lang: tuple(
            entry["value"]
            for entry in entries
            if isinstance(entry, dict) and isinstance(entry.get("value"), str)
        )
        for lang, entries in _as_object(data.get("aliases"), f"{where} aliases", problems).items()
        if isinstance(entries, list)
    }
    claims = {
        pid: _claim_targets(snaks, f"{where} claim {pid}", problems)
        for pid, snaks in _as_object(data.get("claims"), f"{where} claims", problems).items()
    }
    return RawEntity(id=data["id"], labels=labels, aliases=aliases, claims=claims)


def _collect(tagged: Iterable[tuple[str, object]], result: ParseResult) -> ParseResult:
    """Add the entities of `(where, record)` pairs to `result`. A record with no
    usable id or no labels is left out, and a repeated id keeps its first
    record; each such case is a diagnostic naming `where` ("line 3", "page 2")."""
    seen: set[str] = set()
    for where, data in tagged:
        entity = _parse_record(data, where, result.diagnostics)
        if entity is None:
            result.diagnostics.append(f"{where}: record without a usable id")
        elif not entity.labels:
            result.diagnostics.append(f"{where}: record {entity.id} has no labels; skipped")
        elif entity.id in seen:
            result.diagnostics.append(f"{where}: duplicate entity {entity.id}; keeping the first")
        else:
            seen.add(entity.id)
            result.entities.append(entity)
    return result


def parse_entity_dump(source: str | Path | IO[str] | IO[bytes]) -> ParseResult:
    """Parse a line-delimited dump; malformed lines become diagnostics.

    Well-formed records always come back, in file order; array wrapper
    lines ("[", "]"), trailing commas and JSON whitespace around a record
    are tolerated because full dump exports carry them; what is left of a
    line is decoded by `json.loads`, and a line it refuses is a diagnostic
    naming the line. The dump is read by
    `read_lines`, a block at a time, from a file (UTF-8, universal newlines),
    a text stream, or a binary stream (UTF-8, newlines as they are). Records
    are parsed as their blocks are read, so bytes that are not UTF-8 stop the
    parse with an UnreadableSource only when reading reaches them.
    """
    result = ParseResult(entities=[])

    def records():
        for lineno, line in read_lines(source, "dump"):
            stripped = line.strip(JSON_SPACE).rstrip(",")
            if not stripped or stripped in ("[", "]"):
                continue
            try:
                data = json.loads(stripped)
            except JSON_REFUSALS as exc:
                result.diagnostics.append(f"line {lineno}: not valid JSON: {exc}")
                continue
            yield f"line {lineno}", data

    return _collect(records(), result)


def _reaches(adjacency: dict[str, set[str]], start: str, goal: str) -> bool:
    stack = [start]
    seen = {start}
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def extract_fragment(spec: ExtractionSpec, entities: Iterable[RawEntity]) -> ConceptGraph:
    """Walk the dump from the seed and build a validated concept graph.

    Traversal is breadth-first up to max_depth over one table of each
    entity's subclass claims within the dump, toward ancestors, descendants,
    or both; every subclass claim between two visited entities becomes an
    edge. Claims that would close a cycle are dropped with a logged
    diagnostic (processing order is sorted, so the surviving edge set is
    deterministic). Of two records with one id the first is read, as
    `parse_entity_dump` and `fetch_live` keep it; beyond that, the order of
    the records never reaches the graph.
    """
    spec.validate()
    by_id: dict[str, RawEntity] = {}
    for entity in entities:
        by_id.setdefault(entity.id, entity)
    if spec.seed_concept not in by_id:
        raise SeedNotFound(f"seed concept {spec.seed_concept!r} is not in the dump")

    # The subclass relation, once: each entity's parents within the dump.
    parents = {
        eid: {target for pid in SUBCLASS_PROPERTIES for target in entity.claims.get(pid, ()) if target in by_id}
        - {eid}
        for eid, entity in by_id.items()
    }
    children: dict[str, set[str]] = {eid: set() for eid in by_id}
    for child, above in parents.items():
        for parent in above:
            children[parent].add(child)
    steps = [table for name, table in (("ancestors", parents), ("descendants", children))
             if spec.direction in (name, "both")]
    visited = frontier = {spec.seed_concept}
    for _ in range(spec.max_depth):
        frontier = {nxt for eid in frontier for table in steps for nxt in table[eid]} - visited
        visited = visited | frontier

    accepted: dict[str, set[str]] = {}
    for child, parent in sorted((child, parent) for child in visited for parent in parents[child] & visited):
        # Walking child -> parent must not already be possible in reverse.
        if _reaches(accepted, parent, child):
            log.warning("dropping cycle-closing claim %s -> %s", child, parent)
            continue
        accepted.setdefault(child, set()).add(parent)
    if not accepted:
        raise EmptyFragment(
            f"no subconcept edges within depth {spec.max_depth} of {spec.seed_concept!r}"
        )

    concepts = [
        Concept(
            id=eid,
            label=by_id[eid].label(spec.language),
            aliases=by_id[eid].aliases.get(spec.language, ()),
        )
        for eid in sorted(visited)
    ]

    properties: list[PropertyAssertion] = []
    if spec.seed_property:
        prop_entity = by_id.get(spec.seed_property)
        prop_label = prop_entity.label(spec.language) if prop_entity else spec.seed_property
        for eid in sorted(visited):
            for target in by_id[eid].claims.get(spec.seed_property, ()):
                value = by_id[target].label(spec.language) if target in by_id else target
                properties.append(PropertyAssertion(subject=eid, property=prop_label, value=value))

    # build_graph orders each pair and drops repeats.
    same_as = [
        (eid, target)
        for eid in visited
        for target in by_id[eid].claims.get(SAME_AS_PROPERTY, ())
        if target in visited and target != eid
    ]

    edges = [(child, parent) for child, above in accepted.items() for parent in above]
    return build_graph(concepts, edges, properties, same_as)


# --- live fetching ----------------------------------------------------------

_PAGE_FIELDS = {"entities": LIST, "next_page": optional(INTEGER)}


def fetch_live(
    spec: ExtractionSpec,
    endpoint: str,
    *,
    cache_dir: str | Path | None = None,
    rate_limit: float = 0.1,
    timeout: float = 30.0,
    retries: int = 3,
    backoff_base: float = 0.5,
    backoff_cap: float = 8.0,
) -> ParseResult:
    """Fetch entity pages from a REST endpoint, politely and replayably.

    Protocol: GET {endpoint}?seed=<id>&page=<n> returning
    {"entities": [<record>, ...], "next_page": <n+1> | null}. Each page is
    cached in a ResponseCache by request hash, so a warm cache replays the
    crawl with zero network traffic; every live attempt, retries included,
    waits out `rate_limit` seconds since the last one. Records are read as
    `parse_entity_dump` reads them, with diagnostics naming their page.
    """
    from .backends import ResponseCache  # here, so reading a dump never loads the backends
    from .transport import JsonClient  # here, so a process that builds no client never loads http.client
    spec.validate()
    client = JsonClient(  # checks the endpoint before a cache directory is made
        endpoint, timeout=timeout, retries=retries,
        backoff_base=backoff_base, backoff_cap=backoff_cap, min_interval=rate_limit,
    )
    cache = ResponseCache(cache_dir) if cache_dir is not None else None

    def records():
        page: int | None = 1
        while page is not None:
            params = {"seed": spec.seed_concept, "page": str(page)}
            key = hashlib.sha256(
                json.dumps({"endpoint": endpoint, "params": params}, sort_keys=True).encode("utf-8")
            ).hexdigest()
            cached = cache.get(key) if cache is not None else None
            body = cached if cached is not None else client.request(params=params)
            entries, nxt = read_fields(body, _PAGE_FIELDS, f"page {page} response", MalformedResponse)
            if nxt is not None and nxt <= page:
                raise MalformedResponse(f"page {page} has non-advancing next_page {nxt!r}")
            if cache is not None and cached is None:
                cache.store(key, body)
            for entry in entries:
                yield f"page {page}", entry
            page = nxt

    return _collect(records(), ParseResult(entities=[]))
