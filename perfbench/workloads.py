"""The four workloads: set-up, one pass, and the correctness gate of each.

A pass runs in a fresh worker process (see worker.py). `Pass` collects
what the pass measured; a failed check is recorded in `Pass.problems` and
makes the whole run incorrect. Every call into the library that a
per-layer metric names sits inside `tracer.span(<layer>.<call>)`; the
untraced run uses a tracer that records nothing.
"""

from __future__ import annotations

import csv
import json
import resource
import shutil
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import conceptcheck as cc
import conceptcheck.clusters as cc_clusters
import requests

import inputs
from tracing import NullTracer

HERE = Path(__file__).resolve().parent
FLIP_PROBABILITY = 0.3
STUB_LATENCY_MS = 2.0
# A retried prompt takes about twice the usual latency. At 0.5% of the
# ~1,150 distinct prompts the retried calls stay beyond the cold pass's p99
# instead of straddling it, which made p99 jump between runs.
STUB_FAIL_SHARE = 0.005
REMOTE_CONCURRENCY = 2
# One warm rerun lasts a fraction of a second, often inside a single phase
# of the host's CPU-speed swings; warm_rerun_s is the mean of this many.
WARM_RERUNS = 3


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


Span = tuple[float, float]  # (start, end) on the time.perf_counter() clock


def wall(spans: list[Span]) -> float:
    return sum(b - a for a, b in spans)


@dataclass
class Pass:
    """What one pass measured, plus the problems its checks found.

    Times are kept as spans, so that the worker can scale each one by the
    CPU-speed samples taken inside it (speed.py): `pipeline_s` is the sum
    of `pipeline`, `evaluate_s` the sum of `evaluate`, `warm_rerun_s` the
    mean of `reruns`, and the latencies in `answer_s` are scaled by the
    samples inside `answer_spans`.
    """

    tracer: object
    tmp: Path
    seed: int
    pipeline: list[Span] = field(default_factory=list)
    evaluate: list[Span] = field(default_factory=list)
    reruns: list[Span] = field(default_factory=list)
    answer_s: list[float] = field(default_factory=list)
    answer_spans: list[Span] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float | None = None
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    import_share: dict[str, float] = field(default_factory=dict)
    # speed samples (see speed.py) from the other processes that did the pass's work
    speed_samples: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def layer(self, name: str, value: float) -> None:
        self.layers[name] = self.layers.get(name, 0) + value


class Timed(cc.Backend):
    """Delegates to a backend and records the latency and the end of every answer call."""

    def __init__(self, inner: cc.Backend):
        self.inner = inner
        self.id = inner.id
        self.concurrency = getattr(inner, "concurrency", 1)
        self.latencies: list[float] = []
        self.returns: list[float] = []
        self.prompt_chars: list[int] = []

    def answer(self, question: str, rendered_prompt: str) -> str:
        start = time.perf_counter()
        try:
            return self.inner.answer(question, rendered_prompt)
        finally:
            end = time.perf_counter()
            self.latencies.append(end - start)
            self.returns.append(end)
            self.prompt_chars.append(len(rendered_prompt))


def question_latencies(start: float, returns: list[float]) -> list[float]:
    """Per-question time of a one-call-at-a-time evaluation: from the previous answer (or the start) to this one.

    An in-process oracle answers in well under a microsecond, so the call
    alone mostly times the clock; the loop's time per question is what a
    caller of evaluate_dataset waits for.
    """
    return [b - a for a, b in zip([start] + returns[:-1], returns)]


def evaluate(p: Pass, span: str, dataset, backend: cc.Backend, template, context=None):
    """evaluate_dataset through a timing wrapper: (results, its span, latency of each question)."""
    timed = Timed(backend)
    start = time.perf_counter()
    with p.tracer.span(span):
        results = cc.evaluate_dataset(dataset, timed, template, context)
    end = time.perf_counter()
    busy = sum(timed.latencies)
    calls = timed.latencies if timed.concurrency > 1 else question_latencies(start, timed.returns)
    p.attempted += len(calls)
    p.failed += results.error_count
    if p.tracer.enabled:
        p.layer("backends.answer_calls", len(calls))
        p.layer("backends.answer_busy_s", busy)
        p.layer("evaluation.prompt_bytes", sum(timed.prompt_chars))
        p.layer("evaluation.loop_busy_s", end - start - busy / timed.concurrency)
        p.layer("evaluation.loop_questions", len(calls))
        if isinstance(backend, (cc.PerfectOracle, cc.NoisyOracle)):
            p.layer("backends.oracle_busy_s", busy)
            p.layer("backends.oracle_calls", len(calls))
    return results, (start, end), calls


def timed_rerun(p: Pass, rerun) -> None:
    """One warm rerun; its span goes to `p.reruns`."""
    start = time.perf_counter()
    rerun()
    p.reruns.append((start, time.perf_counter()))


def finish_reruns(p: Pass, rerun) -> None:
    """Repeat the warm rerun after the pass's clock stopped; warm_rerun_s is the mean."""
    with untraced(p):
        for _ in range(WARM_RERUNS - 1):
            timed_rerun(p, rerun)


@contextmanager
def untraced(p: Pass):
    tracer, p.tracer = p.tracer, NullTracer()
    try:
        yield
    finally:
        p.tracer = tracer


def trace_library(tracer) -> None:
    """Time the generator families and closure calls that generate_dataset makes."""
    for attribute, name in (
        ("deductive_closure", "hierarchy.closure"),
        ("unrelated_pairs", "hierarchy.unrelated_pairs"),
        ("implied_paths", "hierarchy.implied_paths"),
        ("gen_positive_clusters", "clusters.gen_positive"),
        ("gen_inverse_clusters", "clusters.gen_inverse"),
        ("gen_negative_clusters", "clusters.gen_negative"),
        ("gen_path_clusters", "clusters.gen_path"),
        ("gen_property_clusters", "clusters.gen_property"),
    ):
        tracer.wrap(cc_clusters, attribute, name)


# --- in-process workloads ------------------------------------------------------


@dataclass
class Inputs:
    spec: inputs.GraphSpec
    graph: cc.ConceptGraph
    config: cc.GenerationConfig
    template: cc.PromptTemplate
    noisy_seed: int


def build_inputs(workload: str, seed: int, tracer) -> Inputs:
    spec = inputs.GENERATORS[workload](seed)
    with tracer.span("hierarchy.build_graph"):
        graph = cc.build_graph(
            [cc.Concept(id=i, label=label) for i, label in spec.concepts],
            spec.edges,
            [cc.PropertyAssertion(*p) for p in spec.properties],
        )
    return Inputs(
        spec=spec,
        graph=graph,
        config=cc.GenerationConfig(seed=inputs.derived_seed(seed, "negatives"),
                                   negative_count=inputs.NEGATIVES[workload]),
        template=cc.load_default_prompt(),
        noisy_seed=inputs.derived_seed(seed, "noise"),
    )


def generate_and_store(p: Pass, inp: Inputs) -> cc.ClusterDataset:
    """generate_dataset, then a write/read round trip; checks shape against the closed forms."""
    tr = p.tracer
    with tr.span("clusters.generate_dataset"):
        dataset = cc.generate_dataset(inp.graph, inp.config)
    path = p.tmp / "dataset.json"
    with tr.span("clusters.write_dataset"):
        cc.write_dataset(dataset, path)
    with tr.span("clusters.read_dataset"):
        loaded = cc.read_dataset(path)
    with tr.span("clusters.dataset_fingerprint"):
        fingerprint = cc.dataset_fingerprint(loaded)
    p.check(loaded == dataset, "dataset changed across a write/read round trip")
    p.check(fingerprint == cc.dataset_fingerprint(dataset), "dataset fingerprint changed across a round trip")
    check_shape(p, loaded, inputs.closed_form(inp.spec.edges, inp.spec.properties), inp.config.negative_count)
    if tr.enabled:
        p.layer("clusters.clusters", len(loaded.clusters))
        p.layer("clusters.questions", sum(len(c.questions) for c in loaded.clusters))
        p.layer("clusters.dataset_bytes", path.stat().st_size)
    return loaded


def check_shape(p: Pass, dataset: cc.ClusterDataset, expected: inputs.ClosedForm, negatives: int) -> None:
    counts = {t: 0 for t in cc.ClusterType}
    for c in dataset.clusters:
        counts[c.type] += 1
    for ctype, want in (
        (cc.ClusterType.POSITIVE_EDGE, expected.positive),
        (cc.ClusterType.INVERSE_EDGE, expected.inverse),
        (cc.ClusterType.NEGATIVE_EDGE, negatives),
        (cc.ClusterType.PATH, expected.path),
        (cc.ClusterType.PROPERTY_INHERITANCE, expected.property),
    ):
        p.check(counts[ctype] == want, f"{ctype.value} clusters: {counts[ctype]}, closed form {want}")


def all_questions(dataset: cc.ClusterDataset) -> list[str]:
    return [q for c in dataset.clusters for q in c.questions]


def check_noisy(p: Pass, results: cc.ResultSet, dataset: cc.ClusterDataset, seed: int) -> None:
    wrong = sum(1 for r in results.records if not r.correct)
    flips = inputs.noisy_flips(all_questions(dataset), seed, FLIP_PROBABILITY)
    p.check(wrong == flips, f"noisy run: {wrong} wrong answers, sha256 rule gives {flips}")


def check_all_consistent(p: Pass, results: cc.ResultSet, what: str) -> None:
    bad = sum(1 for v in results.verdicts.values() if v is not cc.Verdict.CONSISTENT)
    p.check(bad == 0 and results.error_count == 0,
            f"{what}: {bad} clusters not consistent, {results.error_count} errors")


def store_results(p: Pass, results: cc.ResultSet, name: str) -> Path:
    path = p.tmp / name
    with p.tracer.span("evaluation.write_results"):
        cc.write_results(results, path)
    return path


def load_results(p: Pass, path: Path, original: cc.ResultSet) -> cc.ResultSet:
    with p.tracer.span("evaluation.read_results"):
        loaded = cc.read_results(path)
    p.check(loaded == original, f"{path.name} changed across a write/read round trip")
    return loaded


def report(p: Pass, dataset, results: cc.ResultSet, baseline: cc.ResultSet | None = None) -> cc.ReportRow:
    with p.tracer.span("evaluation.compute_report"):
        row = cc.compute_report(results, dataset)
        base_row = cc.compute_report(baseline, dataset) if baseline is not None else None
    with p.tracer.span("reporting.render"):
        cc.render_markdown([row], dataset_fingerprint=results.dataset_fingerprint,
                           baselines={row.backend_id: base_row} if base_row else None)
        cc.render_csv([row])
    return row


def generate_heavy_pass(p: Pass, inp: Inputs) -> None:
    start = time.perf_counter()
    dataset = generate_and_store(p, inp)
    with p.tracer.span("hierarchy.closure"):
        closure = cc.deductive_closure(inp.graph)
    noisy, span, p.answer_s = evaluate(
        p, "evaluation.evaluate", dataset,
        cc.NoisyOracle(closure, dataset, FLIP_PROBABILITY, inp.noisy_seed), inp.template)
    p.evaluate = p.answer_spans = [span]
    path = store_results(p, noisy, "results-noisy.jsonl")

    def rerun():
        report(p, dataset, load_results(p, path, noisy))

    timed_rerun(p, rerun)
    p.pipeline = [(start, time.perf_counter())]
    finish_reruns(p, rerun)
    check_noisy(p, noisy, dataset, inp.noisy_seed)
    if p.tracer.enabled:
        p.layer("hierarchy.implied_pairs", len(closure.implied))


def expected_context(dataset: cc.ClusterDataset, seed: int) -> int:
    """Distinct statements of the questions the noisy oracle flips."""
    return len({
        s for c in dataset.clusters for q, s in zip(c.questions, c.statements)
        if inputs.noisy_flips((q,), seed, FLIP_PROBABILITY)
    })


def augment_heavy_pass(p: Pass, inp: Inputs) -> None:
    tr = p.tracer
    start = time.perf_counter()
    dataset = generate_and_store(p, inp)
    with tr.span("hierarchy.closure"):
        closure = cc.deductive_closure(inp.graph)
    noisy, noisy_span, _ = evaluate(
        p, "evaluation.evaluate", dataset,
        cc.NoisyOracle(closure, dataset, FLIP_PROBABILITY, inp.noisy_seed), inp.template)
    noisy_path = store_results(p, noisy, "results-noisy.jsonl")
    with tr.span("evaluation.build_context"):
        context = cc.build_context([noisy], dataset)
    context_path = p.tmp / "context.json"
    with tr.span("evaluation.save_context"):
        cc.save_context(context, context_path)
    with tr.span("evaluation.load_context"):
        loaded_context = cc.load_context(context_path)
    p.check(loaded_context == context, "context changed across a save/load round trip")
    rss_before = peak_rss_mb()
    augmented, augmented_span, augmented_calls = evaluate(
        p, "evaluation.augmented_evaluate", dataset,
        cc.PerfectOracle(closure, dataset), inp.template, loaded_context)
    rss_growth = peak_rss_mb() - rss_before
    augmented_path = store_results(p, augmented, "results-augmented.jsonl")
    rows = []

    def rerun():
        base = load_results(p, noisy_path, noisy)
        rows[:] = [report(p, dataset, base),
                   report(p, dataset, load_results(p, augmented_path, augmented), baseline=base)]

    timed_rerun(p, rerun)
    p.pipeline = [(start, time.perf_counter())]
    finish_reruns(p, rerun)
    base_row, aug_row = rows
    gain = cc.improvement(base_row, aug_row)
    p.evaluate = [noisy_span, augmented_span]
    # The latency percentiles describe the augmented calls only: mixed with
    # the slower noisy-oracle calls, the median would sit between two modes.
    p.answer_s, p.answer_spans = augmented_calls, [augmented_span]
    check_noisy(p, noisy, dataset, inp.noisy_seed)
    check_all_consistent(p, augmented, "augmented perfect run")
    p.check(abs(gain - base_row.pct_all_inconsistent) < 1e-9,
            f"improvement {gain} should equal the baseline's inconsistent share {base_row.pct_all_inconsistent}")
    want = expected_context(dataset, inp.noisy_seed)
    p.check(len(context.statements) == want, f"context: {len(context.statements)} statements, expected {want}")
    if tr.enabled:
        p.layer("hierarchy.implied_pairs", len(closure.implied))
        p.layer("evaluation.augmented_rss_growth_mb", rss_growth)
        p.layer("evaluation.context_statements", len(context.statements))
        p.layer("evaluation.context_bytes", len("\n".join(context.statements).encode("utf-8")))


# --- remote-stub -----------------------------------------------------------------


class Stub:
    """The stub endpoint in its own process; stopped by closing its stdin."""

    def __init__(self, truth_path: Path, fail_seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--truth", str(truth_path),
             "--latency-ms", str(STUB_LATENCY_MS), "--fail-seed", str(fail_seed),
             "--fail-share", str(STUB_FAIL_SHARE)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict:
        return requests.get(self.url + "/stats", timeout=10).json()

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class CountingCache(cc.ResponseCache):
    """ResponseCache that counts hits and misses (traced runs only)."""

    def __init__(self, directory):
        super().__init__(directory)
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        entry = super().get(key)
        with self.lock:
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
        return entry


def remote_backend(url: str, cache: cc.ResponseCache) -> cc.RemoteBackend:
    return cc.RemoteBackend(
        url + "/complete", "stub-model",
        concurrency=REMOTE_CONCURRENCY, cache=cache, timeout=10.0,
        retries=3, backoff_base=0.002, backoff_cap=0.05, id="remote-stub",
    )


def remote_stub_pass(p: Pass, inp: Inputs) -> None:
    tr = p.tracer
    start = time.perf_counter()
    dataset = generate_and_store(p, inp)
    generated = time.perf_counter()

    # Handing the truth table to a fresh stub is harness work; the clock skips it.
    truth = {q: c.expected.value for c in dataset.clusters for q in c.questions}
    truth_path = p.tmp / "truth.json"
    truth_path.write_text(json.dumps(truth), encoding="utf-8")
    stub = Stub(truth_path, inputs.derived_seed(p.seed, "stub-failures"))
    try:
        resumed = time.perf_counter()
        cache_dir = p.tmp / "cache"
        cache_type = CountingCache if tr.enabled else cc.ResponseCache
        cold_cache = cache_type(cache_dir)
        cold, span, p.answer_s = evaluate(
            p, "evaluation.evaluate", dataset, remote_backend(stub.url, cold_cache), inp.template)
        p.evaluate = p.answer_spans = [span]
        cold_bytes = store_results(p, cold, "results-cold.jsonl").read_bytes()
        after_cold = stub.stats()
        p.speed_samples += after_cold["speed_samples"]
        warm_caches: list[cc.ResponseCache] = []
        warm_calls: list[float] = []

        def rerun():
            # A fresh backend and cache object on the same directory, as a user's second run.
            warm_caches.append(cache_type(cache_dir))
            warm, _, calls = evaluate(p, "evaluation.evaluate", dataset,
                                      remote_backend(stub.url, warm_caches[-1]), inp.template)
            warm_calls.extend(calls)
            p.check(store_results(p, warm, "results-warm.jsonl").read_bytes() == cold_bytes,
                    "warm results differ from the cold results")

        timed_rerun(p, rerun)
        report(p, dataset, cold)
        p.pipeline = [(start, generated), (resumed, time.perf_counter())]
        finish_reruns(p, rerun)
        after_warm = stub.stats()
        p.speed_samples += after_warm["speed_samples"]
    finally:
        stub.stop()
    check_all_consistent(p, cold, "cold remote run")
    p.check(after_warm["requests"] == after_cold["requests"],
            f"warm passes sent {after_warm['requests'] - after_cold['requests']} requests, expected 0")
    if tr.enabled:
        warm_cache = warm_caches[0]  # the one traced warm pass
        hits = cold_cache.hits + warm_cache.hits
        lookups = hits + cold_cache.misses + warm_cache.misses
        p.layer("backends.http_requests", after_warm["requests"])
        p.layer("backends.retries", after_warm["failures"])
        p.layer("backends.errors", p.failed)
        p.layer("backends.cache_hits", hits)
        p.layer("backends.cache_hit_ratio", hits / lookups if lookups else 0.0)
        qps = len(p.answer_s) / wall(p.evaluate)
        p.layer("backends.concurrency_efficiency", qps / (REMOTE_CONCURRENCY / (STUB_LATENCY_MS / 1000.0)))
        p.layer("backends.warm_answer_us", 1e6 * sum(warm_calls) / len(warm_calls))


# --- quickstart-cli ------------------------------------------------------------------

MEDICAL_GRAPH = "fixture:medical_graph.json"


@dataclass
class CliInputs:
    generate_seed: int
    noisy_seed: int
    fixture_graph: dict
    scenario_count: int
    specialist_count: int


def build_cli_inputs(seed: int, tracer) -> CliInputs:
    import conceptcheck.cli  # noqa: F401  (set-up of this workload includes importing the CLI)

    with tracer.span("hierarchy.build_graph"):
        cc.load_medical_graph()
    return CliInputs(
        generate_seed=inputs.derived_seed(seed, "cli-generate"),
        noisy_seed=inputs.derived_seed(seed, "cli-noise"),
        fixture_graph=json.loads(cc.fixture_path("medical_graph.json").read_text(encoding="utf-8")),
        scenario_count=len(cc.load_medical_scenarios()),
        specialist_count=len(cc.MEDICAL_SPECIALISTS),
    )


def quickstart_commands(inp: CliInputs) -> list[tuple[str, list[str]]]:
    noisy_id = f"noisy-p{FLIP_PROBABILITY:g}-s{inp.noisy_seed}"
    return [
        ("extract", ["extract", "--dump", "fixture:medical_dump.jsonl", "--seed-concept", "Q3332438",
                     "--seed-property", "P425", "--out", "graph.json"]),
        ("generate", ["generate", "--graph", MEDICAL_GRAPH, "--seed", str(inp.generate_seed),
                      "--negative-count", "66", "--out", "dataset.json"]),
        ("evaluate", ["evaluate", "--dataset", "dataset.json", "--graph", MEDICAL_GRAPH,
                      "--backend", '{"kind": "perfect"}',
                      "--backend", json.dumps({"kind": "noisy", "flip_probability": FLIP_PROBABILITY,
                                               "seed": inp.noisy_seed}),
                      "--out-dir", "runs/base"]),
        ("augment", ["augment", "--dataset", "dataset.json", "--graph", MEDICAL_GRAPH,
                     "--baseline", f"runs/base/results-{noisy_id}.jsonl",
                     "--backend", '{"kind": "perfect"}', "--out-dir", "runs/aug"]),
        ("report", ["report", "--dataset", "dataset.json", "--results", "runs/base/results-perfect.jsonl",
                    "--results", f"runs/base/results-{noisy_id}.jsonl", "--out-dir", "runs/report"]),
        ("scenarios", ["scenarios", "--graph", MEDICAL_GRAPH, "--backend", '{"kind": "perfect"}',
                       "--out-dir", "runs/scen"]),
    ]


def perfect_row_zero(csv_path: Path) -> bool:
    with csv_path.open(encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["backend"] == "perfect"]
    groups = ("edges", "paths", "property", "all")
    return len(rows) == 1 and all(
        rows[0][f"{g}_{k}"] == "0" for g in groups for k in ("inconsistent", "incomplete")
    )


def quickstart_cli_pass(p: Pass, inp: CliInputs) -> None:
    tr = p.tracer
    spans: dict[str, Span] = {}
    child: dict[str, dict] = {}
    for name, args in quickstart_commands(inp):
        out = p.tmp / f"child-{name}.json"
        with tr.span(f"cli.{name}"):
            spawn = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "cli_child.py"), str(out), repr(spawn), *args],
                cwd=p.tmp, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            spans[name] = (spawn, time.monotonic())
        p.attempted += 1
        if proc.returncode != 0:
            p.failed += 1
            p.problems.append(f"conceptcheck {name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        child[name] = json.loads(out.read_text(encoding="utf-8"))
        p.speed_samples += child[name]["speed_samples"]
    p.pipeline = list(spans.values())
    p.reruns = [spans["report"]]
    p.peak_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
    if p.problems:
        return
    p.evaluate = p.answer_spans = [spans["evaluate"], spans["augment"]]
    for name in ("evaluate", "augment"):
        p.answer_s.extend(child[name]["answer_s"])
    p.attempted += len(p.answer_s)
    check_quickstart(p, inp)
    if tr.enabled:
        p.layer("cli.import_s", sum(c["import_s"] for c in child.values()) / len(child))
        p.layer("cli.interpreter_s", sum(c["interpreter_s"] for c in child.values()) / len(child))
        p.import_share = {n: child[n]["import_s"] / wall([spans[n]]) for n in child}
        library_repeat(p, inp)


def check_quickstart(p: Pass, inp: CliInputs) -> None:
    t = p.tmp
    dataset = cc.read_dataset(t / "dataset.json")
    g = inp.fixture_graph
    properties = [(x["subject"], x["property"], x["value"]) for x in g.get("properties", ())]
    check_shape(p, dataset, inputs.closed_form([(e["child"], e["parent"]) for e in g["edges"]], properties), 66)
    noisy = cc.read_results(t / "runs/base" / f"results-noisy-p{FLIP_PROBABILITY:g}-s{inp.noisy_seed}.jsonl")
    check_noisy(p, noisy, dataset, inp.noisy_seed)
    for where in ("runs/base", "runs/aug", "runs/report"):
        p.check(perfect_row_zero(t / where / "report.csv"), f"{where}: the perfect row is not all zero")
    header = json.loads((t / "runs/scen/scenario-results-perfect.jsonl").read_text(encoding="utf-8").splitlines()[0])
    p.check(header["incorrect_questions"] == 0 and header["inconsistent_scenarios"] == 0,
            f"scenarios: perfect backend has {header['incorrect_questions']} incorrect answers")
    want = 2 * inp.scenario_count * inp.specialist_count
    p.check(header["total_questions"] == want, f"scenarios: {header['total_questions']} questions, expected {want}")
    extracted = cc.load_graph(t / "graph.json")
    fixture_labels = {c["id"]: c["label"] for c in g["concepts"]}
    p.check({(extracted.label_of(a), extracted.label_of(b)) for a, b in extracted.edges}
            == {(fixture_labels[e["child"]], fixture_labels[e["parent"]]) for e in g["edges"]},
            "extract: the extracted edges differ from the bundled graph's")


def library_repeat(p: Pass, inp: CliInputs) -> None:
    """Traced runs only: the library calls the six commands make, in-process, on the same inputs."""
    tr = p.tracer
    spec = cc.ExtractionSpec(seed_concept="Q3332438", seed_property="P425")
    with tr.span("ingest.parse_dump"):
        parsed = cc.parse_entity_dump(cc.medical_dump_path())
    with tr.span("ingest.extract_fragment"):
        cc.extract_fragment(spec, parsed.entities)
    graph = cc.load_medical_graph()
    with tr.span("hierarchy.closure"):
        closure = cc.deductive_closure(graph)
    with tr.span("clusters.generate_dataset"):
        dataset = cc.generate_dataset(graph, cc.GenerationConfig(seed=inp.generate_seed, negative_count=66))
    template = cc.load_default_prompt()
    with tr.span("evaluation.evaluate"):
        noisy = cc.evaluate_dataset(
            dataset, cc.NoisyOracle(closure, dataset, FLIP_PROBABILITY, inp.noisy_seed), template)
    with tr.span("evaluation.build_context"):
        context = cc.build_context([noisy], dataset)
    with tr.span("evaluation.augmented_evaluate"):
        augmented = cc.evaluate_dataset(dataset, cc.PerfectOracle(closure, dataset), template, context)
    with tr.span("reporting.render"):
        rows = [cc.compute_report(noisy, dataset), cc.compute_report(augmented, dataset)]
        cc.render_markdown(rows, dataset_fingerprint=noisy.dataset_fingerprint)
        cc.render_csv(rows)
    scenarios = cc.load_medical_scenarios()
    roster = list(cc.MEDICAL_SPECIALISTS)
    oracle = cc.ScenarioOracle(scenarios, roster, graph, closure, template)
    with tr.span("scenarios.evaluate"):
        results, summary = cc.evaluate_scenarios(scenarios, roster, graph, closure, oracle, template)
    with tr.span("reporting.render"):
        cc.render_scenario_markdown(results, summary, oracle.id)
    p.layer("scenarios.questions", summary.total_questions)
    p.check(summary.incorrect_questions == 0, "in-process scenarios: the perfect oracle answered wrongly")
    check_all_consistent(p, augmented, "in-process augmented perfect run")


# --- dispatch ------------------------------------------------------------------------

WORKLOADS = ("quickstart-cli", "generate-heavy", "augment-heavy", "remote-stub")

PASSES = {
    "generate-heavy": generate_heavy_pass,
    "augment-heavy": augment_heavy_pass,
    "remote-stub": remote_stub_pass,
    "quickstart-cli": quickstart_cli_pass,
}


def set_up(workload: str, seed: int, tracer):
    if workload == "quickstart-cli":
        return build_cli_inputs(seed, tracer)
    return build_inputs(workload, seed, tracer)


def run_pass(workload: str, inp, seed: int, tmp: Path, tracer) -> Pass:
    p = Pass(tracer=tracer, tmp=tmp, seed=seed)
    try:
        PASSES[workload](p, inp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return p
