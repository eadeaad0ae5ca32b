"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 perfbench/spread.py [--workload W] [--runs 10] [--first-seed 1] [--out FILE]

Runs the benchmark (from the checkout root, like run.py) once per seed on
each workload and prints, per metric, the median, the quartiles from
`statistics.quantiles(values, n=4)` and their distance as a share of the
median, next to a third of the bound fixed in BENCHMARK.json. With --out
it also makes one traced run per workload and writes everything, with the
git revision, Python version and CPU count, to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        print("\n".join(lines[-20:-1]))
        sys.exit(f"{workload} seed {seed}: the benchmark failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    return result


def revision() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {
        "revision": revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "end_to_end": {},
        "per_layer": {},
    }
    steady = True
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        runs = [run_once(workload, seed, spec["run_seconds"], 0)["metrics"] for seed in seeds]
        record["end_to_end"][workload] = {}
        print(f"{workload}: {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}")
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            ok = name == "setup_s" or share < bound / 3
            steady &= ok
            print(f"  {name:18s} median {median:12.6f} {runs[0][name]['unit']:4s} spread {share:7.4f}"
                  f"  (a third of the bound: {bound / 3:.4f}) {'ok' if ok else 'TOO WIDE'}")
            record["end_to_end"][workload][name] = {
                "unit": runs[0][name]["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": share, "values": values,
            }
        if args.out:
            record["per_layer"][workload] = run_once(workload, seeds[0], spec["run_seconds"], 1)["metrics"]
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
