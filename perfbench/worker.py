"""One fresh process: set up a workload's inputs, run one pass, report as JSON.

    python3 perfbench/worker.py --workload W --seed N --spawn T --tmp DIR [--pass-id K] [--trace] [--setup-only]

T is the parent's `time.monotonic()` just before it started this process,
so `setup_s` covers interpreter start-up, imports and building the inputs.
Each pass gets its own process because peak RSS never falls within one.
Times are in reference seconds: each measured span is scaled by the
CPU-speed samples taken inside it (see speed.py); `wall` holds the raw
wall times and `scale` the factor of the whole pass, which the per-layer
times get.
The last line of standard output is the result; the exit code is 1 when a
correctness check failed.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import speed

# Started before the library is imported, so that set-up is sampled too.
SAMPLER = speed.Sampler().start()

import tracing  # noqa: E402
import workloads  # noqa: E402


def layer_metrics(p: "workloads.Pass", tracer: tracing.Tracer, scale: float) -> dict[str, float]:
    out = {f"{name}_s": total for name, total in tracer.totals().items()}
    out.update(p.layers)
    if p.layers.get("evaluation.loop_questions"):
        out["evaluation.loop_us_per_question"] = 1e6 * p.layers["evaluation.loop_busy_s"] / p.layers["evaluation.loop_questions"]
    if p.layers.get("backends.oracle_calls"):
        out["backends.oracle_answer_us"] = 1e6 * p.layers["backends.oracle_busy_s"] / p.layers["backends.oracle_calls"]
    return {k: v * scale if k.endswith(("_s", "_us")) else v for k, v in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = tracing.Tracer(pass_id=args.pass_id) if args.trace else tracing.NullTracer()
    if args.trace:
        workloads.trace_library(tracer)
    inp = workloads.set_up(args.workload, args.seed, tracer)
    setup = [(args.spawn, time.monotonic())]
    result = {"setup_s": speed.reference_s(SAMPLER.take(), setup), "wall": {"setup_s": workloads.wall(setup)}}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tmp = Path(args.tmp)
    tmp.mkdir(parents=True)
    start = time.perf_counter()
    with tracer.span("pass"):
        p = workloads.run_pass(args.workload, inp, args.seed, tmp, tracer)
    samples = SAMPLER.take() + p.speed_samples
    scale = speed.factor(samples, [(start, time.perf_counter())])
    answer_scale = speed.factor(samples, p.answer_spans) if p.answer_spans else scale
    result["wall"].update(pipeline_s=workloads.wall(p.pipeline), evaluate_s=workloads.wall(p.evaluate),
                          warm_rerun_s=workloads.wall(p.reruns) / max(len(p.reruns), 1))
    result.update(
        scale=scale,
        pipeline_s=speed.reference_s(samples, p.pipeline),
        peak_rss_mb=p.peak_rss_mb or workloads.peak_rss_mb(),
        evaluate_s=speed.reference_s(samples, p.evaluate),
        questions=len(p.answer_s),
        warm_rerun_s=statistics.fmean(speed.reference_s(samples, [s]) for s in p.reruns) if p.reruns else 0.0,
        answer_s=[x * answer_scale for x in p.answer_s],
        attempted=p.attempted,
        failed=p.failed,
        problems=p.problems,
    )
    if args.trace:
        result.update(
            layers=layer_metrics(p, tracer, scale),
            self_times={k: v * scale for k, v in tracer.self_times().items()},
            trace=tracer.to_json(),
            import_share=p.import_share,
        )
    print(json.dumps(result))
    return 1 if p.problems else 0


if __name__ == "__main__":
    sys.exit(main())
