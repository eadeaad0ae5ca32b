"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It checks that:

* one seed gives the same graph and dataset fingerprints twice, and another
  seed gives different ones;
* the correctness gate fails a pass, with exit code 1, when an oracle
  answers one question wrongly;
* run.py exits nonzero without printing a result where no library exists;
* BENCHMARK.json lists exactly the workloads and metrics run.py reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import conceptcheck as cc  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TMP = ROOT / ".perfbench_tmp" / "selftest"
failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def fingerprints(workload: str, seed: int) -> tuple[str, str]:
    if workload == "quickstart-cli":
        inp = workloads.build_cli_inputs(seed, tracing.NullTracer())
        graph = cc.load_medical_graph()
        config = cc.GenerationConfig(seed=inp.generate_seed, negative_count=66)
        noise = str(inp.noisy_seed)
    else:
        inp = workloads.build_inputs(workload, seed, tracing.NullTracer())
        graph, config, noise = inp.graph, inp.config, str(inp.noisy_seed)
    dataset = cc.generate_dataset(graph, config)
    return graph.fingerprint, cc.dataset_fingerprint(dataset) + noise


def determinism() -> None:
    for workload in workloads.WORKLOADS:
        first, again, other = fingerprints(workload, 5), fingerprints(workload, 5), fingerprints(workload, 6)
        check(first == again, f"{workload}: seed 5 gives the same graph and dataset twice")
        check(first[1] != other[1], f"{workload}: seed 6 gives another dataset")


def wrong_answer_fails(workload: str, target: type, min_prompt_chars: int = 0) -> None:
    """Flip the first answer given to a prompt of at least `min_prompt_chars`."""
    answer = target.answer
    seen: list[str] = []

    def one_wrong(self, question, rendered_prompt):
        truth = answer(self, question, rendered_prompt)
        if not seen and len(rendered_prompt) >= min_prompt_chars:
            seen.append(question)
            return "no" if truth == "yes" else "yes"
        return truth

    args = ["--workload", workload, "--seed", "3", "--spawn", repr(time.monotonic()),
            "--tmp", str(TMP / f"wrong-{workload}")]
    out = StringIO()
    with mock.patch.object(target, "answer", one_wrong), redirect_stdout(out):
        code = worker.main(args)
    problems = json.loads(out.getvalue().strip().splitlines()[-1])["problems"]
    check(code == 1 and bool(problems),
          f"{workload}: one wrong {target.__name__} answer fails the pass ({problems[:1]})")


def no_library_fails() -> None:
    bare = TMP / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "generate-heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"a directory without the library: exit {proc.returncode}, no result printed")


def manifest_matches() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS),
          "BENCHMARK.json lists the workloads run.py runs")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end matches run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "BENCHMARK.json per_layer matches run.py")


def main() -> int:
    TMP.mkdir(parents=True, exist_ok=True)
    try:
        determinism()
        wrong_answer_fails("generate-heavy", cc.PerfectOracle)
        # Only augmented prompts carry the context, which runs to tens of kilobytes.
        wrong_answer_fails("augment-heavy", cc.PerfectOracle, min_prompt_chars=20_000)
        no_library_fails()
        manifest_matches()
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print("self-test " + ("passed" if not failures else f"FAILED: {len(failures)} check(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
