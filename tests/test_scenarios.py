"""Policy scenarios: loading, expected answers, evaluation, and reports."""

from __future__ import annotations

import dataclasses
import json

import pytest

import conceptcheck as cc
from conceptcheck.scenarios import render_scenario_summary
from conftest import Jittery

K = cc.ScenarioQuestionKind
SPECIALISTS = list(cc.MEDICAL_SPECIALISTS)


@pytest.fixture(scope="module")
def scenarios():
    return cc.load_medical_scenarios()


@pytest.fixture(scope="module")
def grant(scenarios):
    return next(s for s in scenarios if s.id == "minors-surgery")


@pytest.fixture(scope="module")
def restriction(scenarios):
    return next(s for s in scenarios if s.id == "four-day-week")


def write_scenarios(path, entries):
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


def valid_entry(**overrides):
    entry = {
        "id": "night-shift",
        "policy_text": "Only surgeons may schedule night shifts.",
        "anchor": "surgeon",
        "polarity": "grant",
        "applicability_template": "Does the policy apply to every {specialist}?",
        "policy_question_template": "Is every {specialist} allowed to schedule night shifts?",
    }
    entry.update(overrides)
    return entry


# --- loading -----------------------------------------------------------------


def test_fixture_scenarios_load(scenarios):
    assert len(scenarios) == 10
    assert len({s.id for s in scenarios}) == 10
    assert {s.polarity for s in scenarios} == {"grant", "restriction"}
    anchors = {s.anchor for s in scenarios}
    assert anchors <= set(SPECIALISTS)


def test_load_scenarios_field_validation(tmp_path):
    path = tmp_path / "scenarios.json"
    for broken in (
        valid_entry(id=""),
        valid_entry(policy_text=None),
        valid_entry(polarity="ban"),
        {"id": "x"},
    ):
        write_scenarios(path, [broken])
        with pytest.raises(cc.SchemaViolation):
            cc.load_scenarios(path)
    # A template holds one replacement field, a bare {specialist}; other braces are doubled.
    for key, template in (
        ("applicability_template", "Does the policy apply?"),
        ("policy_question_template", "Is every {specialist} of {specialist} allowed?"),
        ("policy_question_template", "may {specialist} operate on {day} ?"),
        ("policy_question_template", "may {specialist} operate on day 3} ?"),
        ("applicability_template", "Does {the policy apply to every {specialist}?"),
        ("applicability_template", "Does the policy apply to every {{specialist}}?"),
        ("applicability_template", "Does the policy apply to every {specialist!r}?"),
        ("applicability_template", "Does the policy apply to every {specialist:>20}?"),
        ("applicability_template", "Does the policy apply to every {specialist.title}?"),
        ("applicability_template", "Does the policy apply to every {}?"),
    ):
        write_scenarios(path, [valid_entry(**{key: template})])
        with pytest.raises(cc.SchemaViolation, match=f"^scenario night-shift: {key} must hold "):
            cc.load_scenarios(path)
    write_scenarios(path, [valid_entry(policy_question_template="Is every {specialist} on the {{night}} rota?")])
    (scenario,) = cc.load_scenarios(path)
    assert scenario.policy_question_template.format(specialist="surgeon") == "Is every surgeon on the {night} rota?"


def test_load_scenarios_envelope_errors(tmp_path):
    path = tmp_path / "scenarios.json"
    with pytest.raises(cc.UnreadableSource):
        cc.load_scenarios(path)
    path.write_text("{not json")
    with pytest.raises(cc.SchemaViolation):
        cc.load_scenarios(path)
    path.write_text(json.dumps({"scenarios": []}))
    with pytest.raises(cc.SchemaViolation):
        cc.load_scenarios(path)
    write_scenarios(path, [valid_entry(), valid_entry()])
    with pytest.raises(cc.SchemaViolation):
        cc.load_scenarios(path)


# --- expected answers -----------------------------------------------------------


def test_grant_policy_truth_table(medical_closure, grant):
    # anchor pediatric-surgeon: the policy reaches it and its descendants.
    cases = {
        "pediatric-surgeon": cc.Answer.YES,  # the anchor itself
        "orthopedic-pediatric-surgeon": cc.Answer.YES,  # descendant
        "surgeon": cc.Answer.NO,  # ancestor: not every surgeon is covered
        "medical-specialist": cc.Answer.NO,
        "orthopedian": cc.Answer.NO,  # unrelated branch
    }
    for specialist, want in cases.items():
        assert cc.expected_answer(medical_closure, grant, specialist, K.APPLICABILITY) is want
        assert cc.expected_answer(medical_closure, grant, specialist, K.POLICY) is want


def test_restriction_policy_truth_table(medical_closure, restriction):
    # anchor surgeon, restrictive wording: covered specialists answer no.
    applies = {"surgeon", "pediatric-surgeon", "orthopedic-surgeon", "orthopedic-pediatric-surgeon"}
    for specialist in SPECIALISTS:
        expected_applicability = cc.Answer.YES if specialist in applies else cc.Answer.NO
        expected_policy = cc.Answer.NO if specialist in applies else cc.Answer.YES
        assert (
            cc.expected_answer(medical_closure, restriction, specialist, K.APPLICABILITY)
            is expected_applicability
        )
        assert cc.expected_answer(medical_closure, restriction, specialist, K.POLICY) is expected_policy


# --- question generation -----------------------------------------------------------


def test_gen_scenario_questions_shape(medical_graph, medical_closure, grant):
    questions = cc.gen_scenario_questions(grant, SPECIALISTS, medical_graph, medical_closure)
    assert len(questions) == 14
    assert [q.kind for q in questions[:7]] == [K.APPLICABILITY] * 7
    assert [q.kind for q in questions[7:]] == [K.POLICY] * 7
    assert [q.specialist for q in questions[:7]] == SPECIALISTS
    assert [q.specialist for q in questions[7:]] == SPECIALISTS
    assert questions[0].question == "Does the policy apply to every medical specialist?"
    assert questions[13].question == (
        "Is every orthopedic pediatric surgeon allowed to treat or operate on "
        "patients younger than 18 years old?"
    )
    for q in questions:
        assert q.expected is cc.expected_answer(medical_closure, grant, q.specialist, q.kind)


def test_gen_scenario_questions_unknown_anchor(medical_graph, medical_closure, grant):
    foreign = dataclasses.replace(grant, anchor="podiatrist")
    with pytest.raises(cc.UnknownConcept):
        cc.gen_scenario_questions(foreign, SPECIALISTS, medical_graph, medical_closure)


# --- the scenario oracle -------------------------------------------------------------


def test_scenario_oracle_is_perfect(scenarios, medical_graph, medical_closure, template):
    oracle = cc.ScenarioOracle(scenarios, SPECIALISTS, medical_graph, medical_closure, template)
    results, summary = cc.evaluate_scenarios(
        scenarios, SPECIALISTS, medical_graph, medical_closure, oracle, template
    )
    assert summary == cc.ScenarioSummary(
        total_questions=140, incorrect_questions=0, total_scenarios=10, inconsistent_scenarios=0
    )
    assert all(r.verdict is cc.Verdict.CONSISTENT for r in results)
    assert render_scenario_summary([("perfect", summary)]).endswith("\n| perfect | 0 | 0 |\n")


def test_scenario_oracle_distinguishes_shared_question_text(
    scenarios, medical_graph, medical_closure, template
):
    # Every fixture scenario shares one applicability template, so the bare
    # question text is ambiguous; the oracle must still answer each policy
    # correctly. minors-surgery covers a surgeon's sub-specialty while
    # four-day-week covers surgeon itself, so the same question text has
    # opposite truth values under the two policies.
    grant = next(s for s in scenarios if s.id == "minors-surgery")
    restriction = next(s for s in scenarios if s.id == "four-day-week")
    question = "Does the policy apply to every surgeon?"
    oracle = cc.ScenarioOracle(
        [grant, restriction], SPECIALISTS, medical_graph, medical_closure, template
    )
    under_grant = cc.render_prefix(template, (grant.policy_text,))
    under_restriction = cc.render_prefix(template, (restriction.policy_text,))
    assert oracle.answer(question, under_grant) == "no"
    assert oracle.answer(question, under_restriction) == "yes"


def test_scenario_oracle_rejects_foreign_prompt(scenarios, medical_graph, medical_closure, template):
    oracle = cc.ScenarioOracle(scenarios[:1], SPECIALISTS, medical_graph, medical_closure, template)
    prefix = cc.render_prefix(template, (scenarios[0].policy_text,))
    question = cc.gen_scenario_questions(scenarios[0], SPECIALISTS, medical_graph, medical_closure)[0].question
    assert oracle.answer(question, prefix) in ("yes", "no")
    with pytest.raises(cc.MismatchedDataset):
        oracle.answer("Is water wet?", prefix)
    with pytest.raises(cc.MismatchedDataset):  # a known question below another policy
        oracle.answer(question, cc.render_prefix(template, (scenarios[1].policy_text,)))


def equal_templates(scenario):
    return [dataclasses.replace(scenario, policy_question_template=scenario.applicability_template)]


def moved_anchor(scenario):
    return [scenario, dataclasses.replace(scenario, id=f"{scenario.id}-moved", anchor="pediatric-surgeon")]


@pytest.mark.parametrize(
    "variant,named",
    [(equal_templates, "four-day-week and four-day-week"), (moved_anchor, "four-day-week and four-day-week-moved")],
    ids=["equal-templates", "moved-anchor"],
)
def test_scenarios_refuse_a_prompt_with_two_expected_answers(
    variant, named, restriction, medical_graph, medical_closure, template
):
    # A restriction whose two templates are equal asks one prompt expecting
    # yes and no; so do two scenarios that share policy text and templates
    # but not their anchor. A perfect oracle could not be perfect on either.
    scenarios = variant(restriction)
    with pytest.raises(cc.SchemaViolation, match=f"scenarios {named} ask .* expected answers (yes and no|no and yes)"):
        cc.ScenarioOracle(scenarios, SPECIALISTS, medical_graph, medical_closure, template)
    yes_man = cc.ScriptedBackend({}, default="yes", id="yes-man")
    with pytest.raises(cc.SchemaViolation, match=f"scenarios {named} "):
        cc.evaluate_scenarios(scenarios, SPECIALISTS, medical_graph, medical_closure, yes_man, template)


def test_scenarios_sharing_a_prompt_and_its_answer_are_accepted(
    restriction, medical_graph, medical_closure, template
):
    copy = dataclasses.replace(restriction, id="four-day-week-copy")
    oracle = cc.ScenarioOracle([restriction, copy], SPECIALISTS, medical_graph, medical_closure, template)
    _, summary = cc.evaluate_scenarios(
        [restriction, copy], SPECIALISTS, medical_graph, medical_closure, oracle, template
    )
    assert summary == cc.ScenarioSummary(
        total_questions=28, incorrect_questions=0, total_scenarios=2, inconsistent_scenarios=0
    )


# --- evaluation ------------------------------------------------------------------------


def test_evaluate_scenarios_mixed_backend(medical_graph, medical_closure, grant, template):
    yes_man = cc.ScriptedBackend({}, default="yes", id="yes-man")
    results, summary = cc.evaluate_scenarios(
        [grant], SPECIALISTS, medical_graph, medical_closure, yes_man, template
    )
    # The grant anchored at pediatric-surgeon holds for exactly two roster
    # members, per question kind: 4 of 14 yes answers are correct.
    assert summary == cc.ScenarioSummary(
        total_questions=14, incorrect_questions=10, total_scenarios=1, inconsistent_scenarios=1
    )
    assert results[0].verdict is cc.Verdict.INCONSISTENT
    result = results[0]
    correct = {(q.kind, q.specialist) for q, a in zip(result.questions, result.answers) if a.correct}
    assert correct == {
        (K.APPLICABILITY, "pediatric-surgeon"),
        (K.APPLICABILITY, "orthopedic-pediatric-surgeon"),
        (K.POLICY, "pediatric-surgeon"),
        (K.POLICY, "orthopedic-pediatric-surgeon"),
    }


def test_evaluate_scenarios_incomplete_is_not_inconsistent(
    medical_graph, medical_closure, grant, template
):
    class Contrarian(cc.Backend):
        id = "contrarian"

        def __init__(self):
            questions = cc.gen_scenario_questions(grant, SPECIALISTS, medical_graph, medical_closure)
            self._wrong = {
                q.question: "no" if q.expected is cc.Answer.YES else "yes" for q in questions
            }

        def answer(self, question, prefix):
            return self._wrong[question]

    results, summary = cc.evaluate_scenarios(
        [grant], SPECIALISTS, medical_graph, medical_closure, Contrarian(), template
    )
    assert results[0].verdict is cc.Verdict.INCOMPLETE
    assert summary.incorrect_questions == 14
    assert summary.inconsistent_scenarios == 0


def test_evaluate_scenarios_records_backend_errors(
    medical_graph, medical_closure, grant, template
):
    empty = cc.ScriptedBackend({}, id="empty")  # raises on every question
    results, summary = cc.evaluate_scenarios(
        [grant], SPECIALISTS, medical_graph, medical_closure, empty, template
    )
    assert summary.incorrect_questions == 14
    answers = results[0].answers
    assert len(answers) == 14
    assert all(
        a.error and not a.correct and a.raw == "" and a.normalized is cc.Answer.OTHER for a in answers
    )


@pytest.mark.parametrize("roster,error,message", [
    (["surgeon", "nobody"], cc.UnknownConcept, "roster names unknown concepts: nobody"),
    (["surgeon", "surgeon"], cc.ConfigError, "roster repeats surgeon"),
])
def test_evaluate_scenarios_rejects_a_bad_roster(
    medical_graph, medical_closure, grant, template, roster, error, message
):
    with pytest.raises(error, match=message):
        cc.evaluate_scenarios([grant], roster, medical_graph, medical_closure, cc.ScriptedBackend({}), template)


def test_evaluate_scenarios_rejects_empty_roster(
    medical_graph, medical_closure, grant, template
):
    # An empty roster asks nothing, so every scenario would pass vacuously.
    with pytest.raises(cc.ConfigError, match="roster is empty"):
        cc.evaluate_scenarios(
            [grant], [], medical_graph, medical_closure, cc.ScriptedBackend({}), template
        )


def test_evaluate_scenarios_rejects_an_empty_scenario_set(medical_graph, medical_closure, template):
    # An empty scenario set asks nothing, so every backend would pass vacuously.
    with pytest.raises(cc.ConfigError, match="^the scenario set is empty$"):
        cc.evaluate_scenarios([], SPECIALISTS, medical_graph, medical_closure, cc.ScriptedBackend({}), template)
    with pytest.raises(cc.ConfigError, match="^the scenario set is empty$"):
        cc.ScenarioOracle([], SPECIALISTS, medical_graph, medical_closure, template)


def test_evaluate_scenarios_rejects_a_repeated_scenario(scenarios, medical_graph, medical_closure, template):
    # A repeated scenario would be asked and counted twice; a scenario file that repeats one is refused already.
    first, second = scenarios[:2]
    repeating = [first, second, first, second, first]
    message = f"^the scenario set repeats {first.id}, {second.id}$"
    oracle = cc.ScenarioOracle(scenarios, SPECIALISTS, medical_graph, medical_closure, template)
    with pytest.raises(cc.ConfigError, match=message):
        cc.evaluate_scenarios(repeating, SPECIALISTS, medical_graph, medical_closure, oracle, template)
    with pytest.raises(cc.ConfigError, match=message):
        cc.ScenarioOracle(repeating, SPECIALISTS, medical_graph, medical_closure, template)
    # Two scenarios that differ but share an id are refused too.
    renamed = dataclasses.replace(second, id=first.id)
    with pytest.raises(cc.ConfigError, match=f"^the scenario set repeats {first.id}$"):
        cc.evaluate_scenarios([first, renamed], SPECIALISTS, medical_graph, medical_closure, oracle, template)


def test_evaluate_scenarios_runs_a_concurrent_backend_in_order(
    scenarios, medical_graph, medical_closure, template
):
    oracle = cc.ScenarioOracle(scenarios, SPECIALISTS, medical_graph, medical_closure, template)
    backend = Jittery(oracle)
    results, summary = cc.evaluate_scenarios(
        scenarios, SPECIALISTS, medical_graph, medical_closure, backend, template
    )
    sequential = cc.evaluate_scenarios(
        scenarios, SPECIALISTS, medical_graph, medical_closure, oracle, template
    )
    assert (results, summary) == sequential
    assert all(a.correct for r in results for a in r.answers)
    for r in results:
        assert [(a.cluster_id, a.question_index) for a in r.answers] == [
            (r.scenario.id, i) for i in range(len(r.questions))
        ]
    assert 1 < backend.peak <= backend.concurrency  # requests really overlapped, within the limit


def test_evaluate_scenarios_passes_policy_text_as_context(
    medical_graph, medical_closure, grant, template
):
    asked: list[tuple[str, str]] = []

    class Recorder(cc.Backend):
        id = "recorder"

        def answer(self, question, prefix):
            asked.append((question, prefix))
            return "yes"

    cc.evaluate_scenarios([grant], SPECIALISTS, medical_graph, medical_closure, Recorder(), template)
    questions = cc.gen_scenario_questions(grant, SPECIALISTS, medical_graph, medical_closure)
    assert [q for q, _ in asked] == [q.question for q in questions]
    assert len(asked) == 14
    prefix = asked[0][1]
    assert prefix == cc.render_prefix(template, (grant.policy_text,))
    assert prefix.endswith(f"\n{grant.policy_text}\n")
    assert all(p is prefix for _, p in asked)  # one string for the scenario, not a copy per question


# --- persistence and rendering -----------------------------------------------------------


def test_write_scenario_results_format(tmp_path, scenarios, medical_graph, medical_closure, template):
    oracle = cc.ScenarioOracle(scenarios, SPECIALISTS, medical_graph, medical_closure, template)
    results, summary = cc.evaluate_scenarios(
        scenarios, SPECIALISTS, medical_graph, medical_closure, oracle, template
    )
    path = tmp_path / "scenario-results.jsonl"
    cc.write_scenario_results(results, summary, oracle.id, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 1 + 140
    header = lines[0]
    assert header == {
        "record": "header",
        "backend": "perfect",
        "total_questions": 140,
        "incorrect_questions": 0,
        "total_scenarios": 10,
        "inconsistent_scenarios": 0,
    }
    body = lines[1:]
    assert all(entry["record"] == "scenario_answer" for entry in body)
    assert all(entry["correct"] for entry in body)
    assert {entry["scenario_id"] for entry in body} == {s.id for s in scenarios}
    assert {entry["kind"] for entry in body} == {"applicability", "policy"}


def test_render_scenario_markdown(medical_graph, medical_closure, grant, template):
    yes_man = cc.ScriptedBackend({}, default="yes", id="yes-man")
    results, summary = cc.evaluate_scenarios(
        [grant], SPECIALISTS, medical_graph, medical_closure, yes_man, template
    )
    text = cc.render_scenario_markdown(results, summary, "yes-man")
    assert "Backend: yes-man" in text
    assert "| minors-surgery | pediatric-surgeon | grant | 10/14 | inconsistent |" in text
    assert "Incorrect individual answers: 71.43% (10/14)" in text
    assert "Inconsistent scenarios: 100% (1/1)" in text


def test_scenario_summary_handles_empty():
    summary = cc.ScenarioSummary(
        total_questions=0, incorrect_questions=0, total_scenarios=0, inconsistent_scenarios=0
    )
    assert render_scenario_summary([("idle", summary)]).endswith("\n| idle | - | - |\n")
