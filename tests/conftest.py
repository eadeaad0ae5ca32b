"""Shared fixtures: the bundled medical graph, its closure, and a generated
dataset are expensive enough to build once per session."""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest
from hypothesis import strategies as st

import conceptcheck as cc


@pytest.fixture(scope="session")
def medical_graph() -> cc.ConceptGraph:
    return cc.load_medical_graph()


@pytest.fixture(scope="session")
def medical_closure(medical_graph) -> cc.DeductiveClosure:
    return cc.deductive_closure(medical_graph)


@pytest.fixture(scope="session")
def medical_dataset(medical_graph) -> cc.ClusterDataset:
    return cc.generate_dataset(medical_graph, cc.MEDICAL_GENERATION)


@pytest.fixture(scope="session")
def template() -> cc.PromptTemplate:
    return cc.load_default_prompt()


def make_graph(edges, properties=(), same_as=(), extra=()):
    """Build a small graph whose concept ids double as labels.

    `edges` are (child, parent) pairs; `extra` adds isolated concepts.
    """
    ids = sorted({c for e in edges for c in e} | set(extra))
    concepts = [cc.Concept(id=i, label=i, aliases=()) for i in ids]
    props = [cc.PropertyAssertion(subject=s, property=p, value=v) for s, p, v in properties]
    return cc.build_graph(concepts, edges, props, same_as)


def ladder_edges(rungs: int) -> list[tuple[str, str]]:
    """A ladder: each rung a child of the two before it, so paths grow like Fibonacci numbers."""
    return [(f"r{i:02d}", f"r{j:02d}") for i in range(1, rungs) for j in (i - 1, i - 2) if j >= 0]


class Jittery(cc.Backend):
    """Forwards to `inner` after a random sleep of up to 2 ms, eight calls at a time.

    `peak` is the most calls seen in flight at once.
    """

    id = "jittery"
    concurrency = 8

    def __init__(self, inner: cc.Backend):
        self._inner = inner
        self._rng = random.Random(0)
        self._lock = threading.Lock()
        self.peak = 0
        self._live = 0

    def answer(self, question, prefix):
        with self._lock:
            self._live += 1
            self.peak = max(self.peak, self._live)
        time.sleep(self._rng.random() / 500)
        with self._lock:
            self._live -= 1
        return self._inner.answer(question, prefix)


# The bare spellings that `normalize_answer` looks up in its table.
BARE_ANSWERS = ("yes", "no", "Yes", "No", "Yes.", "No.", "YES", "NO")
# A bare spelling in another case (or with a long s, which casefolds to s),
# inside whitespace, punctuation and trailing words.
bare_answers_in_noise = st.builds(
    lambda before, word, case, after: before + case(word) + after,
    st.text(" \t\r\n\u00a0\u2028.,;:!?\"'`()[]*-", max_size=3),
    st.sampled_from(BARE_ANSWERS),
    st.sampled_from([str, str.lower, str.upper, str.title, str.swapcase, lambda w: w.replace("s", "\u017f")]),
    st.one_of(
        st.text(" \t\n.,;:!?\"'`()[]*", max_size=3),
        st.sampled_from(["s", "pe", " sir", ", every one", "\u00e9"]),
    ),
)


# JSON values that `json` refuses with an error other than a JSONDecodeError,
# each with the start of its message: an integer one digit past the
# interpreter's limit (when it has one), and nesting past the recursion limit.
REFUSED_JSON_VALUES = [
    pytest.param("1" * (sys.get_int_max_str_digits() + 1), "Exceeds the limit", id="digits", marks=pytest.mark.skipif(
        sys.get_int_max_str_digits() == 0, reason="the interpreter has no integer digit limit")),
    pytest.param("[" * 100_000, "maximum recursion depth exceeded", id="nesting"),
]
