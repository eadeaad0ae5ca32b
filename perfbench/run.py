"""conceptcheck pipeline benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/`. W is one of the workloads in workloads.py, or `all`. Each pass
runs in a fresh worker process, and passes repeat until S seconds have
gone. Every time is in reference seconds: wall time scaled by the host's
CPU speed, which a fixed loop samples inside the measured code (speed.py);
the workers do the scaling.
The end-to-end metrics (`--trace 0`) are medians over the passes;
`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics, the self time of every span, the tracing overhead and
whether each workload stresses the layer predicted for it. Spans are
written to .perfbench_out/. The last line of standard output is one JSON
object; the exit code is 1 when a correctness check failed and 2 when the
checkout holds no library to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("quickstart-cli", "generate-heavy", "augment-heavy", "remote-stub")
MIN_PASSES = 3
MIN_SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "questions_per_s": "q/s",
    "warm_rerun_s": "s",
}

PER_LAYER = {
    "hierarchy.build_graph_s": "s",
    "hierarchy.closure_s": "s",
    "hierarchy.implied_pairs": "count",
    "hierarchy.unrelated_pairs_s": "s",
    "clusters.gen_positive_s": "s",
    "clusters.gen_inverse_s": "s",
    "clusters.gen_negative_s": "s",
    "clusters.gen_path_s": "s",
    "clusters.gen_property_s": "s",
    "clusters.clusters": "count",
    "clusters.questions": "count",
    "clusters.write_dataset_s": "s",
    "clusters.read_dataset_s": "s",
    "clusters.dataset_fingerprint_s": "s",
    "clusters.dataset_bytes": "bytes",
    "evaluation.evaluate_s": "s",
    "evaluation.augmented_evaluate_s": "s",
    "evaluation.augmented_rss_growth_mb": "MB",
    "evaluation.loop_us_per_question": "us",
    "evaluation.build_context_s": "s",
    "evaluation.context_statements": "count",
    "evaluation.context_bytes": "bytes",
    "evaluation.prompt_bytes": "bytes",
    "evaluation.write_results_s": "s",
    "evaluation.read_results_s": "s",
    "evaluation.compute_report_s": "s",
    "evaluation.question_p50_ms": "ms",
    "evaluation.question_p99_ms": "ms",
    "backends.answer_calls": "count",
    "backends.answer_busy_s": "s",
    "backends.http_requests": "count",
    "backends.cache_hits": "count",
    "backends.cache_hit_ratio": "ratio",
    "backends.retries": "count",
    "backends.errors": "count",
    "backends.concurrency_efficiency": "ratio",
    "backends.warm_answer_us": "us",
    "backends.oracle_answer_us": "us",
    "cli.extract_s": "s",
    "cli.generate_s": "s",
    "cli.evaluate_s": "s",
    "cli.augment_s": "s",
    "cli.report_s": "s",
    "cli.scenarios_s": "s",
    "cli.import_s": "s",
    "cli.interpreter_s": "s",
    "ingest.parse_dump_s": "s",
    "ingest.extract_fragment_s": "s",
    "scenarios.evaluate_s": "s",
    "scenarios.questions": "count",
    "reporting.render_s": "s",
    "trace.overhead_s": "s",
}


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


class Run:
    """Spawns worker processes for one workload and keeps what they report."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tmp = root / ".perfbench_tmp" / f"{os.getpid()}-{workload}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.problems: list[str] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.setups: list[float] = []
        self.count = 0

    def worker(self, *, trace: bool = False, setup_only: bool = False) -> dict | None:
        self.count += 1
        args = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--tmp", str(self.tmp / f"pass-{self.count}"),
                "--pass-id", str(self.count)]
        args += ["--trace"] * trace + ["--setup-only"] * setup_only
        spawn = time.monotonic()
        proc = subprocess.Popen(args + ["--spawn", repr(spawn)], cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.problems.append(f"worker {self.count} timed out")
            return None
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            self.problems.append(f"worker {self.count} exited {proc.returncode} without a result: "
                                 f"{err.strip()[-500:]}")
            return None
        self.problems += result.get("problems", [])
        if proc.returncode != 0 and not result.get("problems"):
            self.problems.append(f"worker {self.count} exited {proc.returncode}: {err.strip()[-500:]}")
            return None
        return result

    def measure(self, seconds: float, trace: bool) -> None:
        # One discarded pass compiles bytecode, warms the file cache and lets
        # the CPU leave its idle state: the first pass after a pause runs slow.
        self.worker()
        start = time.monotonic()
        while not self.problems:
            done = len(self.untraced) + len(self.traced)
            if done >= MIN_PASSES * (1 + trace) and time.monotonic() - start >= seconds:
                break
            traced = trace and len(self.traced) < len(self.untraced)
            result = self.worker(trace=traced)
            if result is None or result.get("problems"):
                break
            (self.traced if traced else self.untraced).append(result)
            self.setups.append(result["setup_s"])
        while not self.problems and len(self.setups) < MIN_SETUP_SAMPLES:
            result = self.worker(setup_only=True)
            if result is not None:
                self.setups.append(result["setup_s"])
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def attempted(self) -> int:
        return sum(r["attempted"] for r in self.untraced + self.traced)

    def failed(self) -> int:
        return sum(r["failed"] for r in self.untraced + self.traced)

    def end_to_end(self) -> dict[str, float]:
        passes = self.untraced
        return {
            "pipeline_s": statistics.median(r["pipeline_s"] for r in passes),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
            "questions_per_s": statistics.median(r["questions"] / r["evaluate_s"] for r in passes),
            "warm_rerun_s": statistics.median(r["warm_rerun_s"] for r in passes),
        }

    def per_layer(self) -> dict[str, float]:
        out = {
            name: statistics.median(r["layers"].get(name, 0.0) for r in self.traced)
            for name in PER_LAYER
        }
        # Each pass's percentiles over its own questions (at least 1,320, so
        # more than 10 lie beyond p99), then the median over passes. They are
        # per-layer, not end-to-end: between runs of the same code on other
        # seeds they spread by up to a third (see README.md).
        out["evaluation.question_p50_ms"] = 1e3 * statistics.median(statistics.median(r["answer_s"]) for r in self.traced)
        out["evaluation.question_p99_ms"] = 1e3 * statistics.median(p99(r["answer_s"]) for r in self.traced)
        out["trace.overhead_s"] = (statistics.median(r["pipeline_s"] for r in self.traced)
                                   - statistics.median(r["pipeline_s"] for r in self.untraced))
        return out


def predictions(run: Run) -> list[tuple[str, float, bool]]:
    """Whether the workload stresses the layer the benchmark's design predicts."""
    def share(part, whole) -> float:
        return statistics.median(part(r) / whole(r) for r in run.traced)

    if run.workload == "generate-heavy":
        s = share(lambda r: r["layers"]["clusters.gen_path_s"] + r["layers"]["clusters.gen_negative_s"],
                  lambda r: r["layers"]["clusters.generate_dataset_s"])
        return [("clusters.gen_path_s + clusters.gen_negative_s are most of generation", s, s > 0.5)]
    if run.workload == "augment-heavy":
        s = share(lambda r: r["layers"]["evaluation.augmented_evaluate_s"], lambda r: r["pipeline_s"])
        return [("evaluation.augmented_evaluate_s is most of the pass", s, s > 0.5)]
    if run.workload == "quickstart-cli":
        out = []
        for name in ("extract", "generate", "evaluate", "augment", "report", "scenarios"):
            share = statistics.median(r["import_share"][name] for r in run.traced)
            out.append((f"cli.import_s is most of `{name}`", share, share > 0.5))
        return out
    return []


def report_trace(run: Run, layers: dict[str, float], out_dir: Path) -> None:
    print(f"  per-layer metrics, median of {len(run.traced)} traced passes:")
    for name, unit in PER_LAYER.items():
        print(f"    {name:40s} {layers[name]:14.6f} {unit}")
    self_times: dict[str, list[float]] = {}
    for r in run.traced:
        for name, value in r["self_times"].items():
            self_times.setdefault(name, []).append(value)
    print("  self time by span, median over traced passes:")
    for name, values in sorted(self_times.items(), key=lambda kv: -statistics.median(kv[1])):
        print(f"    {name:40s} {statistics.median(values):14.6f} s")
    untraced = statistics.median(r["pipeline_s"] for r in run.untraced)
    overhead = layers["trace.overhead_s"]
    print(f"  tracing overhead: pipeline_s {untraced + overhead:.4f} s traced vs {untraced:.4f} s untraced "
          f"({overhead:+.4f} s, {100 * overhead / untraced:+.1f}%)")
    for claim, share, holds in predictions(run):
        print(f"  prediction: {claim}: share {share:.3f}: {'holds' if holds else 'WRONG'}")
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{run.workload}-seed{run.seed}.json"
    path.write_text(json.dumps({
        "workload": run.workload,
        "seed": run.seed,
        "passes": [{"spans": r["trace"], "layers": r["layers"], "self_times": r["self_times"],
                    "scale": r["scale"]} for r in run.traced],
    }) + "\n", encoding="utf-8")
    print(f"  spans written to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "conceptcheck" / "__init__.py").is_file():
        print(f"error: {root} holds no src/conceptcheck to measure; run from a source checkout",
              file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    problems: list[str] = []
    for workload in chosen:
        run = Run(root, workload, args.seed)
        run.measure(args.seconds, bool(args.trace))
        attempted += run.attempted()
        failed += run.failed()
        verdict = "all checks passed" if not run.problems else "CHECKS FAILED"
        print(f"workload {workload}, seed {args.seed}: {len(run.untraced)} untraced + {len(run.traced)} "
              f"traced passes, {len(run.setups)} set-up samples: {verdict}")
        for problem in run.problems:
            print(f"  mismatch: {problem}")
        problems += run.problems
        if run.problems:
            continue
        prefix = f"{workload}/" if args.workload == "all" else ""
        if args.trace:
            values, units = run.per_layer(), PER_LAYER
            report_trace(run, values, root / ".perfbench_out")
        else:
            values, units = run.end_to_end(), END_TO_END
            samples = {"setup_s": f"median of {len(run.setups)} processes"}
            for name, value in values.items():
                note = samples.get(name, f"median of {len(run.untraced)} passes")
                print(f"  {name:18s} {value:14.6f} {units[name]:4s} ({note})")
            wall = {k: statistics.median(r["wall"][k] for r in run.untraced) for k in ("pipeline_s", "setup_s")}
            print(f"  raw wall medians over the passes: pipeline_s {wall['pipeline_s']:.6f} s, setup_s {wall['setup_s']:.6f} s; "
                  f"host speed scale {min(r['scale'] for r in run.untraced):.3f}.."
                  f"{max(r['scale'] for r in run.untraced):.3f}")
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    print(json.dumps({"correct": not problems, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
