"""Bundled sample data: two small concept graphs, a dump, prompts, policies.

The medical graph is the workhorse: a two-level specialist hierarchy with
multiple inheritance (a pediatric surgeon is both a surgeon and a
pediatrician), six sibling specialties, one deliberately isolated concept
(hypnotherapist) so that far-apart unrelated pairs exist, and five
field-of-occupation assertions. The finance graph is a single
home-equity-loan chain with no properties — the smallest interesting
hierarchy. The dump file carries the connected medical concepts in the
external entity-record format so the extraction path can be exercised
offline.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .clusters import GenerationConfig
from .errors import UnreadableSource
from .evaluation import PromptTemplate, load_prompt_template
from .hierarchy import ConceptGraph, load_graph

if TYPE_CHECKING:
    from .scenarios import PolicyScenario

# The seven concepts the policy scenarios quantify over.
MEDICAL_SPECIALISTS: tuple[str, ...] = (
    "medical-specialist",
    "surgeon",
    "pediatrician",
    "orthopedian",
    "pediatric-surgeon",
    "orthopedic-surgeon",
    "orthopedic-pediatric-surgeon",
)

# Generation settings under which the medical dataset reaches its full
# documented size (96 edge clusters; every unrelated pair but four).
MEDICAL_GENERATION = GenerationConfig(seed=1, negative_count=66)

FIXTURE_PREFIX = "fixture:"
_FIXTURE_DIR = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    path = _FIXTURE_DIR / name
    if not path.is_file():
        raise UnreadableSource(
            f"no bundled fixture named {name!r}; available: {', '.join(_available_fixtures())}"
        )
    return path


def _available_fixtures() -> list[str]:
    return sorted(p.name for p in _FIXTURE_DIR.iterdir() if p.is_file())


def resolve_path(path: str) -> Path:
    """Expand the fixture: prefix; plain paths pass through untouched."""
    if path.startswith(FIXTURE_PREFIX):
        return fixture_path(path[len(FIXTURE_PREFIX):])
    return Path(path)


def load_medical_graph() -> ConceptGraph:
    return load_graph(fixture_path("medical_graph.json"))


def load_default_prompt() -> PromptTemplate:
    return load_prompt_template(fixture_path("prompt_default.json"))


def load_medical_scenarios() -> list[PolicyScenario]:
    from .scenarios import load_scenarios  # here, so a command that runs no scenarios never loads them

    return load_scenarios(fixture_path("scenarios_medical.json"))


def medical_dump_path() -> Path:
    return fixture_path("medical_dump.jsonl")
