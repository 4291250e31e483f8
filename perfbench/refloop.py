"""The reference: a fixed piece of pure-Python exact arithmetic, timed next to operations.

It belongs to the benchmark, not to the program, so a change to arithcurves
never changes it.  Samples are taken between operations on the same pinned
CPU, and run the way the workload runs its operations: in a fresh interpreter
(``python -I -S -c``) for the cold workloads, whose operations are fresh CLI
processes, and in this process for the warm ones.  README.md gives the
measurements behind that choice.

An operation's time in ref is its wall time divided by the reference time
interpolated at the operation's midpoint between the sample taken just before
it and the one taken just after it.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

REFERENCE_CODE = """\
from fractions import Fraction
acc = Fraction(0)
for k in range(1, 240):
    acc += Fraction(k, k + 1) * Fraction(2 * k + 1, 3 * k + 2)
assert acc.denominator > 1
"""
# a sample is the median of this many loops (fresh processes, or in process)
PROCESS_REPS = 3
IN_PROCESS_REPS = 5


class Reference:
    """Reference samples (time, seconds), at most ``interval`` seconds apart."""

    def __init__(self, interval: float, fresh_process: bool):
        self.interval = interval
        self.fresh_process = fresh_process
        self.code = compile(REFERENCE_CODE, "<reference>", "exec")
        self.times: list[float] = []
        self.values: list[float] = []

    def _loop_seconds(self) -> float:
        start = time.perf_counter()
        if self.fresh_process:
            subprocess.run([sys.executable, "-I", "-S", "-c", REFERENCE_CODE], check=True)
        else:
            exec(self.code, {})
        return time.perf_counter() - start

    def sample(self) -> None:
        start = time.perf_counter()
        reps = PROCESS_REPS if self.fresh_process else IN_PROCESS_REPS
        value = statistics.median(self._loop_seconds() for _ in range(reps))
        self.times.append((start + time.perf_counter()) / 2)
        self.values.append(value)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.interval:
            self.sample()

    def unit(self, start: float, end: float) -> float:
        """Reference time at the midpoint of [start, end], between its neighbours."""
        mid = (start + end) / 2
        k = bisect.bisect_left(self.times, mid)
        if k == 0:
            return self.values[0]
        if k == len(self.times):
            return self.values[-1]
        t0, t1 = self.times[k - 1], self.times[k]
        v0, v1 = self.values[k - 1], self.values[k]
        return v0 + (v1 - v0) * (mid - t0) / (t1 - t0)
