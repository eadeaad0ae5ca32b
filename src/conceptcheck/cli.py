"""Command-line pipeline: extract -> generate -> evaluate -> augment -> report.

Every option can also live in a JSON run-config file (--config); explicit
flags win over config values. Exit codes: 0 on success, 1 when evaluation
finished but some backend calls failed (the failures are recorded in the
results files), 2 on configuration or input errors. Paths may use the
"fixture:" prefix to name bundled sample data, e.g. fixture:medical_graph.json.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import re
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .clusters import (
    ARTICLE_STYLES,
    PATH_GRANULARITIES,
    ClusterDataset,
    ClusterType,
    GenerationConfig,
    generate_dataset,
    read_dataset,
    write_dataset,
)
from .errors import INTEGER, LIST, OBJECT, STRING, STRINGS, Kind, optional, read_fields
from .errors import JSON_REFUSALS, ConceptCheckError, ConfigError, read_json, write_json, write_text
from .evaluation import (
    CONTEXT_GRANULARITIES,
    PromptTemplate,
    ResultSet,
    build_context,
    check_context,
    compute_report,
    evaluate_dataset,
    load_context,
    load_prompt_template,
    read_results,
    report_from_verdicts,
    save_context,
    write_results,
)
from .fixtures import MEDICAL_SPECIALISTS, load_default_prompt, resolve_path
from .hierarchy import DIRECTIONS, ConceptGraph, deductive_closure, load_graph, save_graph

if TYPE_CHECKING:
    from .backends import Backend

log = logging.getLogger(__name__)


_RUN_CONFIG_FIELDS = {
    "graph": optional(OBJECT, {}),
    "generation": optional(OBJECT, {}),
    "backends": optional(LIST, []),
    "specialists": optional(Kind(
        "a comma-separated string or a list of strings", (str, list), lambda v: type(v) is str or STRINGS.test(v)
    )),
    **dict.fromkeys(("dataset", "prompt", "cache_dir", "granularity", "scenarios"), optional(STRING)),
}
_GRAPH_CONFIG_FIELDS = {
    **dict.fromkeys(("path", "source", "endpoint"), optional(STRING)), "extraction": optional(OBJECT, {})
}
_EXTRACTION_CONFIG_FIELDS = {
    **dict.fromkeys(("seed_concept", "seed_property", "direction", "language"), optional(STRING)),
    "max_depth": optional(INTEGER),
}


def _config_section(data: object, fields: dict[str, Kind], where: str) -> dict:
    return dict(zip(fields, read_fields(data, fields, where, ConfigError)))


def _load_run_config(path: str | None) -> dict:
    """The run config with every key the commands read; one the file leaves out is null (an empty section)."""
    data = read_json(resolve_path(path), "config file") if path is not None else {}
    config = _config_section(data, _RUN_CONFIG_FIELDS, "config file")
    graph = config["graph"] = _config_section(config["graph"], _GRAPH_CONFIG_FIELDS, "config 'graph'")
    graph["extraction"] = _config_section(graph["extraction"], _EXTRACTION_CONFIG_FIELDS, "config 'graph.extraction'")
    return config


def _merge(flag_value, config_value, default=None):
    """Flag beats config beats default."""
    if flag_value is not None:
        return flag_value
    return config_value if config_value is not None else default


def _make_dir(path: Path) -> None:
    """Make the output directory `path` and its parents, as a ConfigError
    naming it when a file or the system stands in the way."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make directory {path}: {exc.strerror}") from exc


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "backend"


def _load_prompt(prompt: str | None, config: dict) -> PromptTemplate:
    path = _merge(prompt, config["prompt"])
    if path is None:
        return load_default_prompt()
    return load_prompt_template(resolve_path(path))


def _generation_config(config: dict, **flags) -> GenerationConfig:
    base = GenerationConfig.from_dict(config["generation"], "config 'generation'", ConfigError)
    return replace(base, **{name: value for name, value in flags.items() if value is not None})


def _load_graph_arg(graph: str | None, config: dict) -> ConceptGraph:
    path = _merge(graph, config["graph"]["path"])
    if path is None:
        raise ConfigError("a graph file is required (--graph or config graph.path)")
    return load_graph(resolve_path(path))


def _load_dataset(dataset_path: str | None, config: dict) -> ClusterDataset:
    path = _merge(dataset_path, config["dataset"])
    if path is None:
        raise ConfigError("a dataset file is required (--dataset or config dataset)")
    return read_dataset(resolve_path(path))


def extract(config, dump, native, endpoint, seed_concept, seed_property, max_depth,
            direction, language, cache_dir, out):
    """Build a native graph file from a dump, an endpoint, or a native file."""
    from .ingest import ExtractionSpec, extract_fragment, fetch_live, parse_entity_dump  # here: only extract runs it

    graph_cfg = config["graph"]
    source_kind = graph_cfg["source"]
    dump = dump or (graph_cfg["path"] if source_kind == "dump" else None)
    native = native or (graph_cfg["path"] if source_kind == "native" else None)
    endpoint = endpoint or graph_cfg["endpoint"]
    given = [name for name, value in (("--dump", dump), ("--native", native), ("--endpoint", endpoint)) if value]
    if len(given) != 1:
        raise ConfigError(f"exactly one of --dump, --native, --endpoint is required (got {given or 'none'})")

    diagnostics: list[str] = []
    spec = None
    if native:
        graph = load_graph(resolve_path(native))
        source = {"kind": "native", "path": str(native)}
    else:
        extraction = graph_cfg["extraction"]
        spec = ExtractionSpec(
            seed_concept=_merge(seed_concept, extraction["seed_concept"], ""),
            seed_property=_merge(seed_property, extraction["seed_property"]),
            max_depth=_merge(max_depth, extraction["max_depth"], 3),
            direction=_merge(direction, extraction["direction"], "descendants"),
            language=_merge(language, extraction["language"], "en"),
        )
        if dump:
            parsed = parse_entity_dump(resolve_path(dump))
            source = {"kind": "dump", "path": str(dump)}
        else:
            parsed = fetch_live(spec, endpoint, cache_dir=_merge(cache_dir, config["cache_dir"]))
            source = {"kind": "live", "endpoint": endpoint}
        diagnostics = parsed.diagnostics
        for line in diagnostics:
            log.warning("%s: %s", source["kind"], line)
        graph = extract_fragment(spec, parsed.entities)

    out_path = Path(out)
    _make_dir(out_path.parent)
    save_graph(graph, out_path)
    manifest = {
        "source": source,
        "extraction": None if spec is None else asdict(spec),
        "concepts": len(graph.concepts),
        "edges": len(graph.edges),
        "properties": len(graph.properties),
        "fingerprint": graph.fingerprint,
        "diagnostics": diagnostics,
    }
    manifest_path = out_path.with_name(out_path.stem + ".manifest.json")
    write_json(manifest_path, manifest)
    print(f"wrote {out_path} ({len(graph.concepts)} concepts, {len(graph.edges)} edges) + {manifest_path.name}")


def generate(config, graph, seed, negative_count, min_distance, min_path_len,
             article_style, path_granularity, out):
    """Generate the question-cluster dataset from a graph file."""
    loaded = _load_graph_arg(graph, config)
    gen_config = _generation_config(
        config,
        seed=seed,
        negative_count=negative_count,
        min_distance=min_distance,
        min_path_len=min_path_len,
        article_style=article_style,
        path_granularity=path_granularity,
    )
    dataset = generate_dataset(loaded, gen_config)
    _make_dir(Path(out).parent)
    write_dataset(dataset, out)
    by_type = Counter(cluster.type for cluster in dataset.clusters)
    for kind in ClusterType:
        print(f"{kind.value}: {by_type[kind]}")
    questions = sum(len(c.questions) for c in dataset.clusters)
    print(f"total: {len(dataset.clusters)} clusters, {questions} questions -> {out}")


def _build_all(backend_flags: list[str], cache_dir: str | None, config: dict, build) -> list[Backend]:
    """A backend by `build` from each --backend (else config, else perfect) spec,
    their ids checked, and only then the remote ones' caches opened, so a
    refused spec or id leaves no cache directory. A remote spec without a
    cache_dir takes --cache-dir (else the config's)."""
    from .backends import read_spec, shared_cache  # here, so the commands that ask no backend never load them

    specs = []
    for text in backend_flags:
        try:
            specs.append(json.loads(text))
        except JSON_REFUSALS as exc:
            raise ConfigError(f"--backend must be a JSON object: {text!r} ({exc})") from exc
    specs = specs or config["backends"] or [{"kind": "perfect"}]
    for i, spec in enumerate(specs, start=1):
        read_spec(spec, f"backend spec #{i}")
    directory = _merge(cache_dir, config["cache_dir"])
    specs = [{"cache_dir": directory, **spec} if spec["kind"] == "remote" else spec for spec in specs]
    backends = [build({**spec, "cache_dir": None} if spec["kind"] == "remote" else spec) for spec in specs]
    _check_unique_ids(backends)
    caches = {}
    for backend, spec in zip(backends, specs):
        if spec.get("cache_dir"):
            backend.cache = shared_cache(spec["cache_dir"], caches)
    return backends


def _build_backends(config: dict, backend_flags, cache_dir, graph, dataset: ClusterDataset) -> list[Backend]:
    """The --backend (or config) backends; the oracle kinds answer from the --graph closure."""
    from .backends import backend_from_config  # here, so the commands that ask no backend never load them

    graph_path = _merge(graph, config["graph"]["path"])
    closure = deductive_closure(load_graph(resolve_path(graph_path))) if graph_path else None

    def build(spec: dict) -> Backend:
        if spec["kind"] in ("perfect", "noisy") and closure is None:
            raise ConfigError(
                f"backend kind {spec['kind']!r} needs --graph to derive the answer key"
            )
        return backend_from_config(spec, closure=closure, dataset=dataset)

    return _build_all(backend_flags, cache_dir, config, build)


def _check_unique_ids(backends: list[Backend]) -> None:
    """Each backend's output files are named after the slug of its id, so slugs must differ."""
    ids = [b.id for b in backends]
    if len(ids) != len(set(ids)):
        raise ConfigError(f"backend ids must be unique, got {ids}; set explicit 'id' fields")
    by_slug: dict[str, str] = {}
    for backend_id in ids:
        first = by_slug.setdefault(_slug(backend_id), backend_id)
        if first != backend_id:
            raise ConfigError(
                f"backend ids {first!r} and {backend_id!r} would both write files named "
                f"{_slug(backend_id)!r}; set explicit 'id' fields"
            )


def _evaluate_backends(backends, dataset, template, context, out: Path, suffix: str = "") -> tuple[list, int]:
    """Evaluate and write results-<id><suffix>.jsonl per backend; report rows and failed calls."""
    rows = []
    errors = 0
    for backend in backends:
        resultset = evaluate_dataset(dataset, backend, template, context)
        write_results(resultset, out / f"results-{_slug(backend.id)}{suffix}.jsonl")
        # The records were just built in dataset order, so the row needs no compute_report.
        rows.append(report_from_verdicts(resultset.backend_id, resultset.verdicts, dataset))
        errors += resultset.error_count
    return rows, errors


def _read_baselines(paths: list[str]) -> dict[str, ResultSet]:
    """Each --baseline file's result set by backend id; report rows are
    matched by that id, so two files holding one id are refused."""
    resultsets, files = {}, {}
    for path in paths:
        resultset = read_results(resolve_path(path))
        if resultset.backend_id in files:
            raise ConfigError(
                f"baseline files {files[resultset.backend_id]} and {path} both hold "
                f"results of backend id {resultset.backend_id!r}"
            )
        files[resultset.backend_id] = path
        resultsets[resultset.backend_id] = resultset
    return resultsets


def _exit_if_failed(errors: int) -> None:
    """Exit 1 when backend calls failed; their records are already written."""
    if errors:
        print(f"warning: {errors} backend call(s) failed and were recorded as errors", file=sys.stderr)
        sys.exit(1)


def _write_reports(rows, out_dir: Path, fingerprint: str, baselines=None, title="Consistency report") -> None:
    from .reporting import render_csv, render_markdown  # here, so extract and generate never load the renderers

    write_text(
        out_dir / "report.md", render_markdown(rows, dataset_fingerprint=fingerprint, baselines=baselines, title=title)
    )
    write_text(out_dir / "report.csv", render_csv(rows, baselines=baselines))


def evaluate(config, dataset_path, graph, prompt, backend_flags, context_path, cache_dir, out_dir):
    """Run backends over a dataset; write per-backend results and a report."""
    dataset = _load_dataset(dataset_path, config)
    template = _load_prompt(prompt, config)
    context = load_context(resolve_path(context_path)) if context_path else None
    check_context(context, dataset)
    backends = _build_backends(config, backend_flags, cache_dir, graph, dataset)

    out = Path(out_dir)
    _make_dir(out)
    rows, errors = _evaluate_backends(backends, dataset, template, context, out)
    _write_reports(rows, out, dataset.fingerprint)
    print(f"evaluated {len(backends)} backend(s) over {len(dataset.clusters)} clusters -> {out}/report.md")
    _exit_if_failed(errors)


def augment(config, dataset_path, baseline_paths, graph, prompt, backend_flags,
            granularity, cache_dir, out_dir):
    """Build context from jointly-missed questions and re-evaluate with it."""
    dataset = _load_dataset(dataset_path, config)
    baselines = _read_baselines(baseline_paths)
    # build_context checks each baseline against the dataset, so its rows need no compute_report.
    context = build_context(
        list(baselines.values()), dataset, granularity=_merge(granularity, config["granularity"], "question")
    )
    baseline_rows = {name: report_from_verdicts(name, rs.verdicts, dataset) for name, rs in baselines.items()}
    template = _load_prompt(prompt, config)
    backends = _build_backends(config, backend_flags, cache_dir, graph, dataset)
    out = Path(out_dir)
    _make_dir(out)
    save_context(context, out / "context.json")
    print(f"context: {len(context.statements)} statement(s) -> {out}/context.json")
    if not context.statements:
        print("nothing was missed by every baseline; skipping the augmented run")
        return

    rows, errors = _evaluate_backends(backends, dataset, template, context, out, "-augmented")
    _write_reports(
        rows, out, dataset.fingerprint,
        baselines=baseline_rows, title="Consistency report (augmented)",
    )
    print(f"augmented run finished -> {out}/report.md")
    _exit_if_failed(errors)


def scenarios(config, graph, scenario_path, specialists, prompt, backend_flags, cache_dir, out_dir):
    """Evaluate policy scenarios: applicability and policy questions per specialist."""
    # Here, so that only this command loads the scenarios and, with them, the backends.
    from .backends import backend_from_config
    from .scenarios import (
        ScenarioOracle,
        evaluate_scenarios,
        load_scenarios,
        render_scenario_markdown,
        render_scenario_summary,
        write_scenario_results,
    )

    loaded_graph = _load_graph_arg(graph, config)
    scenario_file = _merge(scenario_path, config["scenarios"], "fixture:scenarios_medical.json")
    policy_scenarios = load_scenarios(resolve_path(scenario_file))
    roster_text = _merge(specialists, config["specialists"])
    if roster_text is None:
        roster = [s for s in MEDICAL_SPECIALISTS if s in loaded_graph]
        if len(roster) != len(MEDICAL_SPECIALISTS):
            raise ConfigError("this graph needs an explicit --specialists roster")
    elif isinstance(roster_text, list):
        roster = list(roster_text)
    else:
        roster = [s.strip() for s in roster_text.split(",") if s.strip()]
    closure = deductive_closure(loaded_graph)
    template = _load_prompt(prompt, config)
    # Refuses a bad roster, or a prompt with two expected answers, before any backend opens its cache.
    oracle = ScenarioOracle(policy_scenarios, roster, loaded_graph, closure, template)

    def build(spec: dict) -> Backend:
        if spec["kind"] == "perfect":
            perfect = copy.copy(oracle)
            perfect.id = spec.get("id") or "perfect"
            return perfect
        if spec["kind"] == "noisy":
            raise ConfigError("the noisy backend only evaluates cluster datasets")
        return backend_from_config(spec)

    backends = _build_all(backend_flags, cache_dir, config, build)

    out = Path(out_dir)
    _make_dir(out)
    summaries = []
    errors = 0
    for backend in backends:
        results, summary = evaluate_scenarios(
            policy_scenarios, roster, loaded_graph, closure, backend, template
        )
        slug = _slug(backend.id)
        write_scenario_results(results, summary, backend.id, out / f"scenario-results-{slug}.jsonl")
        write_text(out / f"scenario-report-{slug}.md", render_scenario_markdown(results, summary, backend.id))
        errors += sum(1 for r in results for a in r.answers if a.error)
        summaries.append((backend.id, summary))
        print(
            f"{backend.id}: {summary.incorrect_questions}/{summary.total_questions} incorrect, "
            f"{summary.inconsistent_scenarios}/{summary.total_scenarios} inconsistent scenarios"
        )
    write_text(out / "scenario-summary.md", render_scenario_summary(summaries))
    _exit_if_failed(errors)


def report(config, dataset_path, results_paths, baseline_paths, title, out_dir):
    """Re-render the consistency report from stored results files."""
    dataset = _load_dataset(dataset_path, config)
    rows = [compute_report(read_results(resolve_path(p)), dataset) for p in results_paths]
    baselines = {name: compute_report(rs, dataset) for name, rs in _read_baselines(baseline_paths).items()} or None
    out = Path(out_dir)
    _make_dir(out)
    _write_reports(
        rows, out, dataset.fingerprint,
        baselines=baselines, title=title or "Consistency report",
    )
    print(f"wrote {out}/report.md and {out}/report.csv")


def _parser(prog: str | None) -> argparse.ArgumentParser:
    """The command line; each command's parser sets `run` to the function that carries it out."""
    # Only the options declared here: no -h, and no abbreviated option names.
    parser = argparse.ArgumentParser(prog=prog, description=main.__doc__, add_help=False, allow_abbrev=False)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.add_argument("--config", dest="config_path", metavar="FILE", help="JSON run-config file.")
    parser.add_argument("--verbose", action="store_true", help="Log progress details to stderr.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(run, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        sub = commands.add_parser(
            run.__name__, parents=parents, help=run.__doc__, description=run.__doc__, add_help=False, allow_abbrev=False
        )
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        sub.set_defaults(run=run)
        return sub

    # The options of the commands that ask backends, and of those that write into a directory.
    asking = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    asking.add_argument("--prompt", metavar="FILE")
    asking.add_argument("--backend", dest="backend_flags", action="append", default=[], metavar="JSON", help=(
        'Backend spec, e.g. \'{"kind": "noisy", "flip_probability": 0.3, "seed": 7}\'. Repeatable.'))
    asking.add_argument("--cache-dir", metavar="DIR")
    out_dir = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    out_dir.add_argument("--out-dir", "-o", required=True, metavar="DIR")

    sub = command(extract)
    sub.add_argument("--dump", metavar="FILE", help="Line-delimited entity dump to read.")
    sub.add_argument("--native", metavar="FILE", help="Already-native graph file (validate and re-save).")
    sub.add_argument("--endpoint", metavar="URL", help="Live entity endpoint to crawl.")
    sub.add_argument("--seed-concept", help="Entity id to start the walk from.")
    sub.add_argument("--seed-property", help="Property id carried over as assertions.")
    sub.add_argument("--max-depth", type=int)
    sub.add_argument("--direction", choices=DIRECTIONS)
    sub.add_argument("--language")
    sub.add_argument("--cache-dir", metavar="DIR", help="Page cache for live crawls.")
    sub.add_argument("--out", "-o", required=True, metavar="FILE", help="Native graph file to write.")

    sub = command(generate)
    sub.add_argument("--graph", metavar="FILE")
    sub.add_argument("--seed", type=int, help="Drives unrelated-pair sampling.")
    sub.add_argument("--negative-count", type=int)
    sub.add_argument("--min-distance", type=int)
    sub.add_argument("--min-path-len", type=int)
    sub.add_argument("--article-style", choices=ARTICLE_STYLES)
    sub.add_argument("--path-granularity", choices=PATH_GRANULARITIES)
    sub.add_argument("--out", "-o", required=True, metavar="FILE", help="Dataset file to write.")

    sub = command(evaluate, asking, out_dir)
    sub.add_argument("--dataset", dest="dataset_path", metavar="FILE")
    sub.add_argument("--graph", metavar="FILE", help="Needed by the oracle backend kinds.")
    sub.add_argument("--context", dest="context_path", metavar="FILE",
                     help="Context block whose statements are injected above every question.")

    sub = command(augment, asking, out_dir)
    sub.add_argument("--dataset", dest="dataset_path", metavar="FILE")
    sub.add_argument("--baseline", dest="baseline_paths", action="append", required=True, metavar="FILE",
                     help="Results file from an un-augmented run. Repeatable.")
    sub.add_argument("--graph", metavar="FILE")
    sub.add_argument("--granularity", choices=CONTEXT_GRANULARITIES)

    sub = command(scenarios, asking, out_dir)
    sub.add_argument("--graph", metavar="FILE")
    sub.add_argument("--scenarios", dest="scenario_path", metavar="FILE",
                     help="Scenario file (default: the bundled medical policies).")
    sub.add_argument("--specialists", metavar="IDS", help="Comma-separated concept ids the questions quantify over.")

    sub = command(report, out_dir)
    sub.add_argument("--dataset", dest="dataset_path", metavar="FILE")
    sub.add_argument("--results", dest="results_paths", action="append", required=True, metavar="FILE",
                     help="Results file to include as a row. Repeatable.")
    sub.add_argument("--baseline", dest="baseline_paths", action="append", default=[], metavar="FILE",
                     help="Baseline results matched to rows by backend id; adds an improvement column.")
    sub.add_argument("--title")
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Test how consistently a model answers questions about a concept hierarchy."""
    options = vars(_parser(prog_name).parse_args(args))
    run = options.pop("run")
    config_path = options.pop("config_path")
    logging.basicConfig(
        level=logging.DEBUG if options.pop("verbose") else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        run(_load_run_config(config_path), **options)
    except ConceptCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
