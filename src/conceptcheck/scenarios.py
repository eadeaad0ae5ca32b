"""Policy scenarios: consistency of rule application over the hierarchy.

A scenario states a policy anchored at one concept ("Only pediatric
surgeons can ...") and asks, for every specialist on a roster, whether the
policy applies to them and what it entitles or forbids. Expected answers
come from the deductive closure alone:

* applicability questions follow grant semantics: yes exactly when the
  specialist is the anchor or a subconcept of it;
* policy questions follow the scenario polarity: "grant" mirrors
  applicability, "restriction" negates it (whoever the policy restricts
  loses the permission everyone else keeps).

The policy text itself is handed to the backend as a context line above
each question, so the model answers relative to the stated rule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from pathlib import Path
from string import Formatter

from .answers import Answer
from .backends import Backend, ScriptedBackend
from .clusters import answer_table
from .errors import TEXT, one_of, read_fields
from .errors import (
    ConfigError,
    SchemaViolation,
    UnknownConcept,
    read_json,
    write_json_lines,
)
from .evaluation import AnswerRecord, PromptTemplate, Verdict, _verdict_of, ask_and_judge
from .evaluation import prompt_with_prefix, records_of, render_prefix
from .hierarchy import ConceptGraph, ConceptId, DeductiveClosure, is_subconcept
from .reporting import format_percent

SCENARIO_POLARITIES = ("grant", "restriction")


class ScenarioQuestionKind(str, Enum):
    APPLICABILITY = "applicability"
    POLICY = "policy"


@dataclass(frozen=True)
class PolicyScenario:
    id: str
    policy_text: str
    anchor: ConceptId
    applicability_template: str
    policy_question_template: str
    polarity: str


@dataclass(frozen=True)
class ScenarioQuestion:
    scenario_id: str
    kind: ScenarioQuestionKind
    specialist: ConceptId
    question: str
    expected: Answer


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's questions, position by position their answer records,
    and the verdict of those answers."""

    scenario: PolicyScenario
    questions: tuple[ScenarioQuestion, ...]
    answers: tuple[AnswerRecord, ...]
    verdict: Verdict


@dataclass(frozen=True)
class ScenarioSummary:
    """Counts behind the two headline numbers."""

    total_questions: int
    incorrect_questions: int
    total_scenarios: int
    inconsistent_scenarios: int


_SCENARIO_FIELDS = {
    **dict.fromkeys(("id", "policy_text", "anchor", "applicability_template", "policy_question_template"), TEXT),
    "polarity": one_of(*SCENARIO_POLARITIES),
}


def _validate_scenario(entry: object, index: int) -> PolicyScenario:
    scenario = PolicyScenario(*read_fields(entry, _SCENARIO_FIELDS, f"scenario #{index}"))
    for key in ("applicability_template", "policy_question_template"):
        try:  # parse yields (literal text, field name, format spec, conversion) tuples
            fields = [part[1:] for part in Formatter().parse(getattr(scenario, key)) if part[1] is not None]
        except ValueError:  # a single "{" or "}"
            fields = None
        if fields != [("specialist", "", None)]:
            raise SchemaViolation(
                f"scenario {scenario.id}: {key} must hold exactly one replacement field, a bare {{specialist}}; "
                f"write a literal brace twice"
            )
    return scenario


def load_scenarios(path: str | Path) -> list[PolicyScenario]:
    """Read a scenario file: a JSON array of scenario objects."""
    data = read_json(path, "scenario file")
    if not isinstance(data, list):
        raise SchemaViolation("scenario file must hold a JSON array")
    scenarios = [_validate_scenario(entry, i) for i, entry in enumerate(data)]
    ids = [s.id for s in scenarios]
    if len(ids) != len(set(ids)):
        raise SchemaViolation("scenario ids must be unique")
    return scenarios


def expected_answer(
    closure: DeductiveClosure,
    scenario: PolicyScenario,
    specialist: ConceptId,
    kind: ScenarioQuestionKind,
) -> Answer:
    """Closure-determined truth for one scenario question."""
    applies = is_subconcept(closure, specialist, scenario.anchor, reflexive=True)
    if kind is ScenarioQuestionKind.APPLICABILITY or scenario.polarity == "grant":
        return Answer.YES if applies else Answer.NO
    return Answer.NO if applies else Answer.YES


def gen_scenario_questions(
    scenario: PolicyScenario,
    specialists: list[ConceptId],
    graph: ConceptGraph,
    closure: DeductiveClosure,
) -> list[ScenarioQuestion]:
    """Both templates instantiated for every specialist on the roster."""
    if scenario.anchor not in graph:
        raise UnknownConcept(f"scenario {scenario.id} anchor: {scenario.anchor}")
    out = []
    for kind, template in (
        (ScenarioQuestionKind.APPLICABILITY, scenario.applicability_template),
        (ScenarioQuestionKind.POLICY, scenario.policy_question_template),
    ):
        for specialist in specialists:
            label = graph.label_of(specialist)
            out.append(
                ScenarioQuestion(
                    scenario_id=scenario.id,
                    kind=kind,
                    specialist=specialist,
                    question=template.format(specialist=label),
                    expected=expected_answer(closure, scenario, specialist, kind),
                )
            )
    return out


def _scenario_jobs(
    scenarios: list[PolicyScenario],
    specialists: list[ConceptId],
    graph: ConceptGraph,
    closure: DeductiveClosure,
    template: PromptTemplate,
) -> tuple[list[tuple[PolicyScenario, list[ScenarioQuestion]]], list[str], dict[str, str]]:
    """Each scenario with its questions, the prefix each question is asked
    below, in the same order, and the `answer_table` of their full prompts.

    Each scenario's policy line is the context of its questions, rendered
    once per scenario into the prefix they share. Refuses an empty or
    repeating scenario set, an empty roster, an unknown or repeated
    specialist, and, with SchemaViolation, a prompt that would carry two
    different expected answers, since no backend could then answer both.
    """
    # An empty scenario set or roster asks nothing, so a run would pass vacuously.
    if not scenarios:
        raise ConfigError("the scenario set is empty")
    if not specialists:
        raise ConfigError("the specialist roster is empty")
    unknown = [s for s in dict.fromkeys(specialists) if s not in graph]
    if unknown:
        raise UnknownConcept(f"the specialist roster names unknown concepts: {', '.join(unknown)}")
    repeated = [s for s, n in Counter(specialists).items() if n > 1]
    if repeated:
        raise ConfigError(f"the specialist roster repeats {', '.join(repeated)}")
    repeated = [i for i, n in Counter(scenario.id for scenario in scenarios).items() if n > 1]
    if repeated:
        raise ConfigError(f"the scenario set repeats {', '.join(repeated)}")
    asked = [(scenario, gen_scenario_questions(scenario, specialists, graph, closure)) for scenario in scenarios]
    prefixes = [*chain.from_iterable(
        repeat(render_prefix(template, (scenario.policy_text,)), len(questions)) for scenario, questions in asked
    )]
    flat = [q for _, questions in asked for q in questions]
    return asked, prefixes, answer_table(
        [q.scenario_id for q in flat], [q.expected for q in flat],
        [(prompt_with_prefix(p, q.question),) for p, q in zip(prefixes, flat)], [(q.question,) for q in flat],
        "scenarios", " below one policy text",
    )


class ScenarioOracle(ScriptedBackend):
    """Answers every scenario question correctly.

    Keyed by the full prompt, which it joins from the prefix and the
    question, not by the bare question: scenarios routinely share an
    applicability template, so the same question text can carry different
    expected answers under different policies. The injected policy line
    makes the prompt unambiguous, and scenarios whose prompts would not be
    are refused with SchemaViolation.
    """

    by_prompt = True

    def __init__(
        self,
        scenarios: list[PolicyScenario],
        specialists: list[ConceptId],
        graph: ConceptGraph,
        closure: DeductiveClosure,
        template: PromptTemplate,
        *,
        id: str = "perfect",
    ):
        super().__init__(_scenario_jobs(scenarios, specialists, graph, closure, template)[2], id=id)


def evaluate_scenarios(
    scenarios: list[PolicyScenario],
    specialists: list[ConceptId],
    graph: ConceptGraph,
    closure: DeductiveClosure,
    backend: Backend,
    template: PromptTemplate,
) -> tuple[list[ScenarioResult], ScenarioSummary]:
    """Ask every scenario question through `ask_and_judge`, as dataset questions are.

    The questions come from `_scenario_jobs`, so a bad roster or a prompt
    with two expected answers is refused before any question is asked. An
    answer's cluster id is its scenario's id, and its question index the
    question's position in that scenario. A scenario's verdict is that of
    its slice of the `correct` column, as a cluster's is.
    """
    asked, prefixes, _ = _scenario_jobs(scenarios, specialists, graph, closure, template)
    flat = [q for _, questions in asked for q in questions]
    columns = ask_and_judge([q.question for q in flat], prefixes, [q.expected for q in flat], backend)
    indices = chain.from_iterable(range(len(questions)) for _, questions in asked)
    records = records_of([q.scenario_id for q in flat], indices, *columns)
    correct = columns[2]
    results, end = [], 0
    for scenario, questions in asked:
        start, end = end, end + len(questions)
        results.append(ScenarioResult(scenario, tuple(questions), records[start:end], _verdict_of(correct[start:end])))
    summary = ScenarioSummary(
        total_questions=len(correct),
        incorrect_questions=correct.count(0),
        total_scenarios=len(results),
        inconsistent_scenarios=sum(1 for r in results if r.verdict is Verdict.INCONSISTENT),
    )
    return results, summary


def write_scenario_results(
    results: list[ScenarioResult],
    summary: ScenarioSummary,
    backend_id: str,
    path: str | Path,
) -> None:
    """Line-delimited JSON: header, then one record per answered question."""
    header = {
        "record": "header",
        "backend": backend_id,
        "total_questions": summary.total_questions,
        "incorrect_questions": summary.incorrect_questions,
        "total_scenarios": summary.total_scenarios,
        "inconsistent_scenarios": summary.inconsistent_scenarios,
    }
    answers = (
        {
            "record": "scenario_answer",
            "scenario_id": q.scenario_id,
            "kind": q.kind.value,
            "specialist": q.specialist,
            "question": q.question,
            "expected": q.expected.value,
            "raw": a.raw,
            "normalized": a.normalized.value,
            "correct": a.correct,
            "error": a.error,
        }
        for result in results
        for q, a in zip(result.questions, result.answers)
    )
    write_json_lines(path, chain([header], answers))


def _share_cells(summary: ScenarioSummary) -> tuple[str, str]:
    """The rounded percentages of incorrect answers and of inconsistent scenarios."""
    return (
        format_percent(summary.incorrect_questions, summary.total_questions),
        format_percent(summary.inconsistent_scenarios, summary.total_scenarios),
    )


def render_scenario_markdown(
    results: list[ScenarioResult],
    summary: ScenarioSummary,
    backend_id: str,
) -> str:
    lines = [
        "# Scenario report",
        "",
        f"Backend: {backend_id}",
        "",
        "| scenario | anchor | polarity | incorrect answers | verdict |",
        "|---|---|---|---|---|",
    ]
    for result in results:
        wrong = sum(1 for a in result.answers if not a.correct)
        lines.append(
            f"| {result.scenario.id} | {result.scenario.anchor} | {result.scenario.polarity} "
            f"| {wrong}/{len(result.answers)} | {result.verdict.value} |"
        )
    incorrect, inconsistent = _share_cells(summary)
    lines += [
        "",
        f"Incorrect individual answers: {incorrect}% ({summary.incorrect_questions}/{summary.total_questions})",
        "",
        f"Inconsistent scenarios: {inconsistent}% ({summary.inconsistent_scenarios}/{summary.total_scenarios})",
    ]
    return "\n".join(lines) + "\n"


def render_scenario_summary(summaries: list[tuple[str, ScenarioSummary]]) -> str:
    """One table row of headline shares per (backend id, summary) pair."""
    lines = [
        "# Scenario summary",
        "",
        "| backend | % incorrect answers | % inconsistent scenarios |",
        "|---|---|---|",
    ]
    for backend_id, summary in summaries:
        incorrect, inconsistent = _share_cells(summary)
        lines.append(f"| {backend_id} | {incorrect} | {inconsistent} |")
    return "\n".join(lines) + "\n"
