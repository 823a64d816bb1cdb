"""Timing that holds still on a shared host: CPU time in reference seconds.

The benchmark runs on a few cores of a shared host. There the CPU time of
the same work changes from one moment to the next by a factor of up to
about two, as other tenants load the same physical cores: a fixed 0.1 s
piece of work read between 0.07 s and 0.15 s within ten seconds, the two
cores of one machine did not slow together, and whole runs of the same
pass read 1.8 s at one time and 3.9 s at another. A raw time therefore
cannot tell two commits apart.

So every timed interval runs a small fixed reference kernel of its own,
interleaved with the measured work on the same core: ``Sampler`` arms a
CPU-time interval timer, and each time it fires, the signal handler runs
one kernel piece and records its CPU time. The interval's CPU time without
the kernel, divided by the harmonic mean of its piece times and multiplied
by ``REF_SECONDS``, is the interval in reference seconds: its CPU time on a
machine where one piece takes ``REF_SECONDS``. Pieces are drawn uniformly
in CPU time, so their harmonic mean is the machine's slowness weighted by
work done, which is what scales the measured work.

CPU time is the main thread's (``time.thread_time``): the benchmark runs
one thread, BLAS included, and while a process-wide CPU timer is armed
Linux advances the process clock only at scheduler ticks (4 ms here),
which would round most pieces to 0 or 4 ms.

The kernel does the kinds of work the workloads do, with numpy, scipy and
plain Python: interpreter-bound bookkeeping, small Cholesky solves, sorted
normal scores and a Nelder-Mead search. It runs no crraport code, so a
change to crraport moves only the numerator. It draws from its own random
generator and runs under its own ``numpy.errstate``, so it leaves the
measured program's state alone; the runs' byte-identical outputs check that.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
from scipy import linalg, optimize, special

REF_SECONDS = 0.01  # nominal CPU time of one kernel piece
INTERVAL_S = 0.1  # CPU seconds of measured work between two pieces


def _piece() -> float:
    """One kernel piece; returns a checksum so no step is skipped."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    totals: dict[int, float] = {}
    for i in range(4_000):
        totals[i % 97] = totals.get(i % 97, 0.0) + math.sqrt(i + 1.0)
    acc += sum(totals.values())
    for k in (3, 6, 9, 12):
        for _ in range(3):
            a = rng.normal(size=(k + 4, k))
            s = a.T @ a
            x = linalg.cho_solve(linalg.cho_factor(s), np.ones(k))
            acc += float(x.sum())
    scores = special.ndtri((np.arange(1, 157) - 0.375) / 156.25)
    for _ in range(10):
        y = np.sort(rng.normal(size=156))
        acc += float(np.dot(scores, y - y.mean()) ** 2 / np.sum((y - y.mean()) ** 2))
    res = optimize.minimize(
        lambda w: float(np.sum((w - 0.03) ** 2) + 0.1 * np.sum(w**4)),
        np.full(3, 0.1),
        method="Nelder-Mead",
        options={"maxiter": 120},
    )
    return acc + float(res.fun)


def piece_time() -> float:
    """CPU seconds of one kernel piece."""
    c0 = time.thread_time()
    with np.errstate(all="ignore"):
        _piece()
    return time.thread_time() - c0


class Sampler:
    """Runs a kernel piece every ``interval`` CPU seconds while started.

    ``pieces`` holds each piece's CPU time and ``kernel_s`` their sum, so
    that an interval's own CPU time is its process CPU time minus the
    growth of ``kernel_s`` over it.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        piece_time()  # load everything the kernel touches before it interrupts anything
        # ITIMER_PROF counts CPU seconds of the whole process, kernel included.
        self.interval = interval
        self.pieces: list[float] = []
        self.kernel_s = 0.0
        self.errors: list[str] = []
        self._busy = False
        self._previous = None

    def _handler(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            dt = piece_time()
            self.pieces.append(dt)
            self.kernel_s += dt
        except Exception as exc:  # never let the kernel disturb the measured program
            self.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            self._busy = False

    def snapshot(self) -> tuple[float, float, int]:
        """Process CPU time, kernel CPU time and piece count, read together."""
        busy, self._busy = self._busy, True  # no piece runs between the reads
        try:
            return time.thread_time(), self.kernel_s, len(self.pieces)
        finally:
            self._busy = busy

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)


def to_reference(cpu_s: float, pieces: list[float]) -> float:
    """``cpu_s`` in reference seconds, given the kernel pieces run during it."""
    return cpu_s * REF_SECONDS / statistics.harmonic_mean(pieces)
