"""Seeded input generators and the benchmark's own closed forms.

Every workload has one fixed size. The seed changes labels, which child
hangs under which parent, which concepts carry properties and the sampling
and noise seeds, but never the shape counts: every seed yields the same
number of edges, strictly implied pairs and property clusters, so runs on
different seeds measure the same amount of work.

The closed forms below are computed from the generator's own edge list,
without the library, and are what the correctness gate compares against.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

_SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou")
PROPERTY_NAME = "field of work"


@dataclass(frozen=True)
class GraphSpec:
    """A graph as plain tuples: (id, label), (child, parent), (subject, property, value)."""

    concepts: tuple[tuple[str, str], ...]
    edges: tuple[tuple[str, str], ...]
    properties: tuple[tuple[str, str, str], ...]


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(3))


def _labels(rng: random.Random, count: int) -> list[str]:
    """Distinct two-word labels of a fixed length, so prompt sizes do not move with the seed."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        label = f"{_word(rng)} {_word(rng)}"
        if label not in seen:
            seen.add(label)
            out.append(label)
    return out


def _spec(rng: random.Random, ids: list[str], edges: list[tuple[str, str]], subjects: list[str]) -> GraphSpec:
    labels = _labels(rng, len(ids))
    values = _labels(rng, len(subjects))
    return GraphSpec(
        concepts=tuple(zip(ids, labels)),
        edges=tuple(edges),
        properties=tuple((s, PROPERTY_NAME, v) for s, v in zip(subjects, values)),
    )


def ladder_and_forest(seed: int, ladder: int = 22, stars: int = 200, leaves: int = 3, props: int = 5) -> GraphSpec:
    """A ladder (each concept a child of the two before it) beside a forest of stars.

    The ladder makes exhaustive path enumeration expensive; the forest makes
    the unrelated-pair candidate list large.
    """
    rng = random.Random(f"ladder-forest:{seed}")
    ladder_ids = [f"l{i:02d}" for i in range(ladder)]
    edges = [(ladder_ids[i], ladder_ids[i - k]) for i in range(1, ladder) for k in (1, 2) if i - k >= 0]
    centers = [f"s{i:03d}" for i in range(stars)]
    leaf_ids = [f"f{i:04d}" for i in range(stars * leaves)]
    shuffled = leaf_ids[:]
    rng.shuffle(shuffled)
    edges += [(leaf, centers[i // leaves]) for i, leaf in enumerate(shuffled)]
    subjects = rng.sample(centers, props)
    return _spec(rng, ladder_ids + centers + leaf_ids, edges, subjects)


def level_tree(seed: int, levels: tuple[int, ...], isolated: int, subject_levels: tuple[int, ...]) -> GraphSpec:
    """A tree with fixed level sizes plus isolated concepts.

    Each level's size is a multiple of the one above, and children are dealt
    to a shuffled parent list in equal shares, so every node on a level has
    the same subtree size. `subject_levels` names the level of each property
    subject; the subject on that level is drawn by seed.
    """
    rng = random.Random(f"level-tree:{seed}")
    by_level: list[list[str]] = []
    edges: list[tuple[str, str]] = []
    for depth, size in enumerate(levels):
        ids = [f"t{depth}-{i:03d}" for i in range(size)]
        if depth:
            parents = by_level[-1][:]
            rng.shuffle(parents)
            share = size // len(parents)
            edges += [(child, parents[i // share]) for i, child in enumerate(ids)]
        by_level.append(ids)
    extra = [f"x{i:03d}" for i in range(isolated)]
    subjects: list[str] = []
    for level in subject_levels:
        subjects.append(rng.choice([n for n in by_level[level] if n not in subjects]))
    return _spec(rng, [n for level in by_level for n in level] + extra, edges, subjects)


def generate_heavy(seed: int) -> GraphSpec:
    return ladder_and_forest(seed)


def augment_heavy(seed: int) -> GraphSpec:
    return level_tree(seed, (1, 2, 4, 8, 16, 32, 64, 64), 9, (0, 1, 1, 2, 2))


def remote_stub(seed: int) -> GraphSpec:
    return level_tree(seed, (1, 3, 6, 12, 24), 4, (0, 1, 1, 2, 2))


GENERATORS = {
    "generate-heavy": generate_heavy,
    "augment-heavy": augment_heavy,
    "remote-stub": remote_stub,
}

# Unrelated-pair (negative) clusters requested per workload.
NEGATIVES = {"generate-heavy": 200, "augment-heavy": 50, "remote-stub": 53}


def derived_seed(seed: int, purpose: str) -> int:
    """A stable per-purpose integer drawn from the workload seed."""
    digest = hashlib.sha256(f"{purpose}:{seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % 1_000_000


# --- closed forms -------------------------------------------------------------


def ancestors(edges) -> dict[str, set[str]]:
    parents: dict[str, list[str]] = {}
    for child, parent in edges:
        parents.setdefault(child, []).append(parent)
        parents.setdefault(parent, [])
    memo: dict[str, set[str]] = {}

    def up(node: str) -> set[str]:
        if node not in memo:
            acc: set[str] = set()
            for p in parents[node]:
                acc.add(p)
                acc |= up(p)
            memo[node] = acc
        return memo[node]

    return {node: up(node) for node in parents}


@dataclass(frozen=True)
class ClosedForm:
    positive: int
    inverse: int
    path: int
    property: int


def closed_form(edges, properties) -> ClosedForm:
    """Cluster counts the generators must produce (pair granularity, no same-as links)."""
    anc = ancestors(edges)
    direct = set(edges)
    strict = sum(1 for node, ups in anc.items() for a in ups if (node, a) not in direct)
    descendants: dict[str, int] = {}
    for node, ups in anc.items():
        for a in ups:
            descendants[a] = descendants.get(a, 0) + 1
    return ClosedForm(
        positive=len(direct),
        inverse=len(direct),
        path=strict,
        property=sum(descendants.get(subject, 0) for subject, _, _ in properties),
    )


def noisy_flips(questions, seed: int, flip_probability: float) -> int:
    """How many of `questions` NoisyOracle flips, by its documented sha256 rule."""
    flips = 0
    for q in questions:
        digest = hashlib.sha256(f"{seed}:{q}".encode("utf-8")).digest()
        if int.from_bytes(digest[:8], "big") / 2**64 < flip_probability:
            flips += 1
    return flips
