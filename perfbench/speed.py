"""The host's CPU speed, sampled inside the measured code.

On a shared host the speed of each core swings: the same pure-Python loop
runs up to twice as long, for a fraction of a second or for minutes, as
other tenants load the machine, and the two cores swing independently.
Wall times taken in different phases are not comparable, and which phase
a run falls in does not depend on the program.

So every process that does a pass's work (the worker, the remote stub,
each CLI child) runs a `Sampler`: a profiling timer signal after every
INTERVAL_S of the process's CPU time runs a tiny fixed loop in the middle
of whatever code is running and records when, and how much thread CPU
time the loop took. A process that waits takes no samples, so the samples
weigh each core's speed by the work done on it. Each measured interval
(a pass, an evaluation, a warm rerun, a set-up) is multiplied by

    REFERENCE_NS / (mean of the samples taken inside the interval)

The results are in reference seconds: the time the work would have taken
on a core where the loop takes REFERENCE_NS. A faster program still shows
as a shorter time, because the loop lives here and not in the library. The
loop costs about 0.5% of each process's time. run.py also prints the raw
wall times.

Timestamps are `time.perf_counter()`, which on Linux reads CLOCK_MONOTONIC,
as `time.monotonic()` does; the clock is shared by all processes.
"""

from __future__ import annotations

import atexit
import signal
import statistics
import time

# Roughly what the loop takes on the 2-vCPU VM of the first baseline; it
# only sets the unit.
REFERENCE_NS = 100_000
INTERVAL_S = 0.02
# An interval with fewer samples inside takes this many of the nearest ones.
MIN_SAMPLES = 3


def _loop() -> int:
    """Dict, string and list work, the kind of work the library does most."""
    counts: dict[str, int] = {}
    words = []
    for i in range(120):
        key = f"w{i % 97}:{i % 7}"
        counts[key] = counts.get(key, 0) + 1
        words.append(key)
    words.sort()
    return len(counts)


class Sampler:
    """Times `_loop` on SIGPROF, so the samples fall inside the measured code."""

    def __init__(self):
        self.samples: list[tuple[float, int]] = []

    def sample(self, signum=None, frame=None) -> None:
        when = time.perf_counter()
        start = time.thread_time_ns()
        _loop()
        self.samples.append((when, time.thread_time_ns() - start))

    def start(self) -> Sampler:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        # The timer must stop before the interpreter resets the handler at
        # exit, or SIGPROF would kill the process.
        atexit.register(self.stop)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def take(self) -> list[tuple[float, int]]:
        """The samples since the last take (at least one)."""
        if not self.samples:
            self.sample()
        out, self.samples = self.samples, []
        return out


def factor(samples, spans) -> float:
    """REFERENCE_NS over the mean of the samples taken inside `spans`, a list of (start, end)."""
    inside = [ns for t, ns in samples if any(a <= t <= b for a, b in spans)]
    if len(inside) < MIN_SAMPLES:
        middle = statistics.fmean((a + b) / 2 for a, b in spans)
        inside = [ns for _, ns in sorted(samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]]
    return REFERENCE_NS / statistics.fmean(inside)


def reference_s(samples, spans) -> float:
    """The summed length of `spans` in reference seconds, each span scaled by its own samples."""
    return sum((b - a) * factor(samples, [(a, b)]) for a, b in spans)
