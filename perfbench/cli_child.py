"""Run one `conceptcheck` CLI command the way the console script does, timed.

    python3 perfbench/cli_child.py OUT.json SPAWN_TIME <conceptcheck arguments...>

SPAWN_TIME is the parent's `time.monotonic()` just before it started this
process (the clock is shared between processes). The command's exit code
is passed through; OUT.json gets the time the interpreter took to reach
this script, the time `import conceptcheck.cli` took, the command's own
run time, the time `evaluate_dataset` took per question (from the previous
answer, or its start, to each `backend.answer` call's return; the CLI's
oracles answer one call at a time) and the CPU-speed samples taken
meanwhile (see speed.py).
"""

import time

_started = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402

_sampler = speed.Sampler().start()
_imported_from = time.monotonic()
import conceptcheck.cli as cli  # noqa: E402

_imported = time.monotonic()


def _timed_evaluate(evaluate, latencies):
    def wrapped(dataset, backend, template, context=None):
        answer = backend.answer
        last = [time.perf_counter()]

        def timed(question, rendered_prompt):
            try:
                return answer(question, rendered_prompt)
            finally:
                now = time.perf_counter()
                latencies.append(now - last[0])
                last[0] = now

        backend.answer = timed
        try:
            return evaluate(dataset, backend, template, context)
        finally:
            del backend.answer

    return wrapped


def main() -> int:
    out_path, spawn_time, args = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    latencies: list[float] = []
    cli.evaluate_dataset = _timed_evaluate(cli.evaluate_dataset, latencies)
    code = 0
    try:
        cli.main(args, prog_name="conceptcheck")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    done = time.monotonic()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "interpreter_s": _started - spawn_time,
                "import_s": _imported - _imported_from,
                "run_s": done - _imported,
                "answer_s": latencies,
                "exit_code": code,
                "speed_samples": _sampler.take(),
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
