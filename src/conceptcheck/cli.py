"""Command-line pipeline: extract -> generate -> evaluate -> augment -> report.

Every option can also live in a JSON run-config file (--config); explicit
flags win over config values. Exit codes: 0 on success, 1 when evaluation
finished but some backend calls failed (the failures are recorded in the
results files), 2 on configuration or input errors. Paths may use the
"fixture:" prefix to name bundled sample data, e.g. fixture:medical_graph.json.
"""

from __future__ import annotations

import functools
import json
import logging
import re
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import click

from .backends import (
    Backend,
    PromptTemplate,
    backend_from_config,
    load_prompt_template,
    read_spec,
    shared_cache,
)
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
from .errors import ConceptCheckError, ConfigError, read_json, write_json, write_text
from .evaluation import (
    CONTEXT_GRANULARITIES,
    ReportRow,
    ResultSet,
    build_context,
    compute_report,
    evaluate_dataset,
    load_context,
    read_results,
    save_context,
    write_results,
)
from .fixtures import MEDICAL_SPECIALISTS, load_default_prompt, resolve_path
from .hierarchy import ConceptGraph, deductive_closure, load_graph, save_graph
from .ingest import DIRECTIONS, ExtractionSpec, extract_fragment, fetch_live, parse_entity_dump
from .reporting import render_csv, render_markdown
from .scenarios import (
    ScenarioOracle,
    evaluate_scenarios,
    load_scenarios,
    render_scenario_markdown,
    render_scenario_summary,
    write_scenario_results,
)

log = logging.getLogger(__name__)


def _fail_gracefully(fn):
    """Map domain errors to exit code 2 with a one-line stderr message."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConceptCheckError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


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


def _backend_specs(backend_flags: tuple[str, ...], cache_dir: str | None, config: dict) -> list[dict]:
    """The --backend (else config, else perfect) specs; a remote one without a
    cache_dir takes --cache-dir (else the config's)."""
    specs = []
    for text in backend_flags:
        try:
            specs.append(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--backend must be a JSON object: {text!r} ({exc})") from exc
    specs = specs or config["backends"] or [{"kind": "perfect"}]
    for i, spec in enumerate(specs, start=1):
        read_spec(spec, f"backend spec #{i}")
    directory = _merge(cache_dir, config["cache_dir"])
    return [{"cache_dir": directory, **spec} if spec["kind"] == "remote" else spec for spec in specs]


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


@click.group()
@click.option("--config", "config_path", default=None, metavar="FILE", help="JSON run-config file.")
@click.option("--verbose", is_flag=True, help="Log progress details to stderr.")
@click.pass_context
@_fail_gracefully
def main(ctx: click.Context, config_path: str | None, verbose: bool) -> None:
    """Test how consistently a model answers questions about a concept hierarchy."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    ctx.obj = _load_run_config(config_path)


@main.command()
@click.option("--dump", default=None, metavar="FILE", help="Line-delimited entity dump to read.")
@click.option("--native", default=None, metavar="FILE", help="Already-native graph file (validate and re-save).")
@click.option("--endpoint", default=None, metavar="URL", help="Live entity endpoint to crawl.")
@click.option("--seed-concept", default=None, help="Entity id to start the walk from.")
@click.option("--seed-property", default=None, help="Property id carried over as assertions.")
@click.option("--max-depth", type=int, default=None)
@click.option("--direction", type=click.Choice(DIRECTIONS), default=None)
@click.option("--language", default=None)
@click.option("--cache-dir", default=None, metavar="DIR", help="Page cache for live crawls.")
@click.option("--out", "-o", required=True, metavar="FILE", help="Native graph file to write.")
@click.pass_context
@_fail_gracefully
def extract(ctx, dump, native, endpoint, seed_concept, seed_property, max_depth,
            direction, language, cache_dir, out):
    """Build a native graph file from a dump, an endpoint, or a native file."""
    config = ctx.obj
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
    click.echo(f"wrote {out_path} ({len(graph.concepts)} concepts, {len(graph.edges)} edges) + {manifest_path.name}")


@main.command()
@click.option("--graph", default=None, metavar="FILE", required=False)
@click.option("--seed", type=int, default=None, help="Drives unrelated-pair sampling.")
@click.option("--negative-count", type=int, default=None)
@click.option("--min-distance", type=int, default=None)
@click.option("--min-path-len", type=int, default=None)
@click.option("--article-style", type=click.Choice(ARTICLE_STYLES), default=None)
@click.option("--path-granularity", type=click.Choice(PATH_GRANULARITIES), default=None)
@click.option("--out", "-o", required=True, metavar="FILE", help="Dataset file to write.")
@click.pass_context
@_fail_gracefully
def generate(ctx, graph, seed, negative_count, min_distance, min_path_len,
             article_style, path_granularity, out):
    """Generate the question-cluster dataset from a graph file."""
    config = ctx.obj
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
        click.echo(f"{kind.value}: {by_type[kind]}")
    questions = sum(len(c.questions) for c in dataset.clusters)
    click.echo(f"total: {len(dataset.clusters)} clusters, {questions} questions -> {out}")


def _build_all(specs: list[dict], build) -> list[Backend]:
    """A backend from each spec by `build`, their ids checked, and only then the
    remote ones' caches opened, so a refused spec or id leaves no cache directory."""
    backends = [build({**spec, "cache_dir": None} if spec["kind"] == "remote" else spec) for spec in specs]
    _check_unique_ids(backends)
    caches = {}
    for backend, spec in zip(backends, specs):
        if spec.get("cache_dir"):
            backend.cache = shared_cache(spec["cache_dir"], caches)
    return backends


def _build_backends(config: dict, backend_flags, cache_dir, graph, dataset: ClusterDataset) -> list[Backend]:
    """The --backend (or config) backends; the oracle kinds answer from the --graph closure."""
    graph_path = _merge(graph, config["graph"]["path"])
    closure = deductive_closure(load_graph(resolve_path(graph_path))) if graph_path else None

    def build(spec: dict) -> Backend:
        if spec["kind"] in ("perfect", "noisy") and closure is None:
            raise ConfigError(
                f"backend kind {spec['kind']!r} needs --graph to derive the answer key"
            )
        return backend_from_config(spec, closure=closure, dataset=dataset)

    return _build_all(_backend_specs(backend_flags, cache_dir, config), build)


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
        rows.append(compute_report(resultset, dataset))
        errors += resultset.error_count
    return rows, errors


def _read_baselines(paths: tuple[str, ...], dataset: ClusterDataset) -> tuple[list[ResultSet], dict[str, ReportRow]]:
    """Each --baseline file's result set, and its report row by backend id;
    rows are matched by that id, so two files holding one id are refused."""
    resultsets, rows, files = [], {}, {}
    for path in paths:
        resultset = read_results(resolve_path(path))
        if resultset.backend_id in files:
            raise ConfigError(
                f"baseline files {files[resultset.backend_id]} and {path} both hold "
                f"results of backend id {resultset.backend_id!r}"
            )
        files[resultset.backend_id] = path
        resultsets.append(resultset)
        rows[resultset.backend_id] = compute_report(resultset, dataset)
    return resultsets, rows


def _exit_if_failed(errors: int) -> None:
    """Exit 1 when backend calls failed; their records are already written."""
    if errors:
        click.echo(f"warning: {errors} backend call(s) failed and were recorded as errors", err=True)
        sys.exit(1)


def _write_reports(rows, out_dir: Path, fingerprint: str, baselines=None, title="Consistency report") -> None:
    write_text(
        out_dir / "report.md", render_markdown(rows, dataset_fingerprint=fingerprint, baselines=baselines, title=title)
    )
    write_text(out_dir / "report.csv", render_csv(rows, baselines=baselines))


@main.command()
@click.option("--dataset", "dataset_path", default=None, metavar="FILE", required=False)
@click.option("--graph", default=None, metavar="FILE", help="Needed by the oracle backend kinds.")
@click.option("--prompt", default=None, metavar="FILE")
@click.option("--backend", "backend_flags", multiple=True, metavar="JSON",
              help='Backend spec, e.g. \'{"kind": "noisy", "flip_probability": 0.3, "seed": 7}\'. Repeatable.')
@click.option("--context", "context_path", default=None, metavar="FILE",
              help="Context block whose statements are injected above every question.")
@click.option("--cache-dir", default=None, metavar="DIR")
@click.option("--out-dir", "-o", required=True, metavar="DIR")
@click.pass_context
@_fail_gracefully
def evaluate(ctx, dataset_path, graph, prompt, backend_flags, context_path, cache_dir, out_dir):
    """Run backends over a dataset; write per-backend results and a report."""
    config = ctx.obj
    dataset = _load_dataset(dataset_path, config)
    template = _load_prompt(prompt, config)
    context = load_context(resolve_path(context_path)) if context_path else None
    backends = _build_backends(config, backend_flags, cache_dir, graph, dataset)

    out = Path(out_dir)
    _make_dir(out)
    rows, errors = _evaluate_backends(backends, dataset, template, context, out)
    _write_reports(rows, out, dataset.fingerprint)
    click.echo(f"evaluated {len(backends)} backend(s) over {len(dataset.clusters)} clusters -> {out}/report.md")
    _exit_if_failed(errors)


@main.command()
@click.option("--dataset", "dataset_path", default=None, metavar="FILE")
@click.option("--baseline", "baseline_paths", multiple=True, required=True, metavar="FILE",
              help="Results file from an un-augmented run. Repeatable.")
@click.option("--graph", default=None, metavar="FILE")
@click.option("--prompt", default=None, metavar="FILE")
@click.option("--backend", "backend_flags", multiple=True, metavar="JSON")
@click.option("--granularity", type=click.Choice(CONTEXT_GRANULARITIES), default=None)
@click.option("--cache-dir", default=None, metavar="DIR")
@click.option("--out-dir", "-o", required=True, metavar="DIR")
@click.pass_context
@_fail_gracefully
def augment(ctx, dataset_path, baseline_paths, graph, prompt, backend_flags,
            granularity, cache_dir, out_dir):
    """Build context from jointly-missed questions and re-evaluate with it."""
    config = ctx.obj
    dataset = _load_dataset(dataset_path, config)
    baselines, baseline_rows = _read_baselines(baseline_paths, dataset)
    context = build_context(
        baselines, dataset, granularity=_merge(granularity, config["granularity"], "question")
    )
    template = _load_prompt(prompt, config)
    backends = _build_backends(config, backend_flags, cache_dir, graph, dataset)
    out = Path(out_dir)
    _make_dir(out)
    save_context(context, out / "context.json")
    click.echo(f"context: {len(context.statements)} statement(s) -> {out}/context.json")
    if not context.statements:
        click.echo("nothing was missed by every baseline; skipping the augmented run")
        return

    rows, errors = _evaluate_backends(backends, dataset, template, context, out, "-augmented")
    _write_reports(
        rows, out, dataset.fingerprint,
        baselines=baseline_rows, title="Consistency report (augmented)",
    )
    click.echo(f"augmented run finished -> {out}/report.md")
    _exit_if_failed(errors)


@main.command()
@click.option("--graph", default=None, metavar="FILE", required=False)
@click.option("--scenarios", "scenario_path", default=None, metavar="FILE",
              help="Scenario file (default: the bundled medical policies).")
@click.option("--specialists", default=None, metavar="IDS",
              help="Comma-separated concept ids the questions quantify over.")
@click.option("--prompt", default=None, metavar="FILE")
@click.option("--backend", "backend_flags", multiple=True, metavar="JSON")
@click.option("--cache-dir", default=None, metavar="DIR")
@click.option("--out-dir", "-o", required=True, metavar="DIR")
@click.pass_context
@_fail_gracefully
def scenarios(ctx, graph, scenario_path, specialists, prompt, backend_flags, cache_dir, out_dir):
    """Evaluate policy scenarios: applicability and policy questions per specialist."""
    config = ctx.obj
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

    def build(spec: dict) -> Backend:
        if spec["kind"] == "perfect":
            return ScenarioOracle(
                policy_scenarios, roster, loaded_graph, closure, template, id=spec.get("id") or "perfect"
            )
        if spec["kind"] == "noisy":
            raise ConfigError("the noisy backend only evaluates cluster datasets")
        return backend_from_config(spec)

    backends = _build_all(_backend_specs(backend_flags, cache_dir, config), build)

    out = Path(out_dir)
    summaries = []
    errors = 0
    for backend in backends:
        results, summary = evaluate_scenarios(
            policy_scenarios, roster, loaded_graph, closure, backend, template
        )
        _make_dir(out)  # only once a roster has been accepted
        slug = _slug(backend.id)
        write_scenario_results(results, summary, backend.id, out / f"scenario-results-{slug}.jsonl")
        write_text(out / f"scenario-report-{slug}.md", render_scenario_markdown(results, summary, backend.id))
        errors += sum(1 for r in results for a in r.answers if a.error)
        summaries.append((backend.id, summary))
        click.echo(
            f"{backend.id}: {summary.incorrect_questions}/{summary.total_questions} incorrect, "
            f"{summary.inconsistent_scenarios}/{summary.total_scenarios} inconsistent scenarios"
        )
    write_text(out / "scenario-summary.md", render_scenario_summary(summaries))
    _exit_if_failed(errors)


@main.command()
@click.option("--dataset", "dataset_path", default=None, metavar="FILE")
@click.option("--results", "results_paths", multiple=True, required=True, metavar="FILE",
              help="Results file to include as a row. Repeatable.")
@click.option("--baseline", "baseline_paths", multiple=True, metavar="FILE",
              help="Baseline results matched to rows by backend id; adds an improvement column.")
@click.option("--title", default=None)
@click.option("--out-dir", "-o", required=True, metavar="DIR")
@click.pass_context
@_fail_gracefully
def report(ctx, dataset_path, results_paths, baseline_paths, title, out_dir):
    """Re-render the consistency report from stored results files."""
    dataset = _load_dataset(dataset_path, ctx.obj)
    rows = [compute_report(read_results(resolve_path(p)), dataset) for p in results_paths]
    baselines = _read_baselines(baseline_paths, dataset)[1] if baseline_paths else None
    out = Path(out_dir)
    _make_dir(out)
    _write_reports(
        rows, out, dataset.fingerprint,
        baselines=baselines, title=title or "Consistency report",
    )
    click.echo(f"wrote {out}/report.md and {out}/report.csv")


if __name__ == "__main__":
    main()
