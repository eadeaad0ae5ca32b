"""Consistency testing of concept-hierarchy knowledge in yes/no answerers.

The pipeline: build or extract a subconcept graph, compute its deductive
closure, generate clusters of questions that must agree, evaluate a model
backend, classify each cluster as consistent, inconsistent, or incomplete,
and optionally re-evaluate with the jointly-missed statements injected as
prompt context.

Importing the package loads none of its modules. The first read of any
exported name loads them all, in the order of `_EXPORTS`, and binds every
export at once, so that the library's import cost is paid in one place and
not inside the first call of each function. `import conceptcheck.<module>`
loads only that module and what it imports.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module and the names the package exports from it.
_EXPORTS = {
    "answers": ("Answer", "normalize_answer"),
    "backends": (
        "Backend", "NoisyOracle", "PerfectOracle", "RemoteBackend", "ResponseCache", "ScriptedBackend",
        "backend_from_config", "load_scripted_answers",
    ),
    "clusters": (
        "ClusterDataset", "ClusterType", "GenerationConfig", "QuestionCluster",
        "dataset_fingerprint", "generate_dataset", "read_dataset", "write_dataset",
    ),
    "errors": (
        "AuthMissing", "ConceptCheckError", "ConfigError", "CycleDetected", "DanglingReference",
        "DenominatorMismatch", "DuplicateLabel", "EmptyFragment", "FingerprintMismatch",
        "InsufficientPairsWarning", "MalformedResponse", "MismatchedDataset", "NetworkError",
        "SchemaViolation", "SeedNotFound", "UnknownConcept", "UnknownTemplate", "UnreadableSource",
    ),
    "evaluation": (
        "AnswerRecord", "ContextBlock", "GroupCount", "PromptTemplate", "ReportRow", "ResultSet", "Verdict",
        "build_context", "compute_report", "evaluate_dataset", "improvement", "load_context",
        "load_prompt_template", "prompt_with_prefix", "read_results", "render_prefix", "report_from_verdicts",
        "save_context", "write_results",
    ),
    "fixtures": (
        "MEDICAL_GENERATION", "MEDICAL_SPECIALISTS", "fixture_path", "load_default_prompt",
        "load_medical_graph", "load_medical_scenarios", "medical_dump_path", "resolve_path",
    ),
    "hierarchy": (
        "MAX_ENUMERATED_PATHS", "Concept", "ConceptGraph", "DeductiveClosure", "PropertyAssertion",
        "build_graph", "deductive_closure", "graph_fingerprint", "implied_paths", "is_subconcept",
        "load_graph", "save_graph", "unrelated_pairs",
    ),
    "ingest": ("ExtractionSpec", "RawEntity", "extract_fragment", "fetch_live", "parse_entity_dump"),
    "reporting": ("format_percent", "render_csv", "render_markdown", "round_percent"),
    "scenarios": (
        "PolicyScenario", "ScenarioOracle", "ScenarioQuestion", "ScenarioQuestionKind", "ScenarioResult",
        "ScenarioSummary", "evaluate_scenarios", "expected_answer", "gen_scenario_questions", "load_scenarios",
        "render_scenario_markdown", "write_scenario_results",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    """Bind every export on the first read of one (PEP 562); other names are missing."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        namespace = vars(import_module(f".{module}", __name__))
        globals().update((export, namespace[export]) for export in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
