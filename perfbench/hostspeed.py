"""How fast the host ran: a fixed tick, timed on the program's CPU while
the program runs.

The shared host the benchmark was built on slows each CPU by up to about
1.8x, in spells that come and go within seconds and whose mix drifts
over minutes. CPU time tracks wall time, so the slowdown is real, not
time stolen from the guest, and the two vCPUs' spells are unrelated
(their 1 s means correlated 0.1). The same operation's wall time moved
by a sixth from one run to the next and by a third between sets of runs
twenty minutes apart.

So, while the benchmark times set-ups and operations, a background
thread on the same CPU as the program runs a short fixed tick every
PERIOD_S: a few small vector updates on rows scattered through a 2.9 MB
array, then float formatting and parsing, the kinds of work the program
does, without the program. The benchmark scales each timed interval by
REFERENCE_S over the mean CPU time of the ticks inside it: the figures
it reports are seconds on a host running at the reference speed. In one
run of each workload, the operations' wall times varied by 10-16%
(standard deviation over mean) and their scaled times by 2-4%. The tick
costs about 2% of the CPU.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

# The tick's time, run alone on the host the benchmark was built on while
# it ran fast (Intel Xeon, 2 vCPUs, numpy with OpenBLAS on one thread).
# Beside the program the tick takes longer (about 0.8 ms fast, 1.4 ms
# slow), so scaled times read below raw ones; only their ratios matter.
REFERENCE_S = 0.0006
PERIOD_S = 0.05

_rng = np.random.default_rng(20230309)
_X = _rng.standard_normal((18000, 20))
_ROWS = _X[::300]
_FLOATS = _X.ravel()[_rng.integers(0, _X.size, 300)]


def tick() -> float:
    """Run the tick once; returns a checksum so no step is skipped."""
    v = np.full(20, 20**-0.5)
    for x in _ROWS:
        v += 0.01 * x * (x @ v)
        v /= np.linalg.norm(v)
    text = ",".join(repr(float(a)) for a in _FLOATS)
    return float(v[0]) + sum(float(a) for a in text.split(","))


def pin_to_one_cpu() -> None:
    """Keep this thread, the threads it starts and the processes it spawns
    on one CPU, so that the ticks see the CPU the program runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    """Times ``tick`` every PERIOD_S on a background thread while open."""

    def __init__(self):
        self.ticks: list[tuple[float, float, float]] = []  # (start, end, cpu time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        # A tick's time is its thread's CPU time: the program shares the CPU
        # and may preempt a tick, which must not count as a slow host.
        while not self._stop.wait(PERIOD_S):
            start, cpu = time.perf_counter(), time.thread_time()
            tick()
            self.ticks.append((start, time.perf_counter(), time.thread_time() - cpu))

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean time of the ticks run between ``start``
        and ``end``; the tick nearest the interval when none fits in it."""
        ticks = list(self.ticks)
        inside = [t for t in ticks if start <= t[0] and t[1] <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(ticks, key=lambda t: abs(t[0] + t[1] - 2 * middle))]
        return REFERENCE_S / statistics.mean(cpu for _, _, cpu in inside)
