"""A work clock that samples the host's speed while the workload runs.

On the reference machine (a 2-core Xeon virtual machine whose host runs other
tenants) the same work takes anywhere from 1x to 1.7x as long from one minute
to the next, and up to 2x between neighbouring half-seconds, with no steal
time recorded. Host seconds alone are then too unsteady to gate a change on.
So while the timed work runs, a timer interrupts it every ``INTERVAL_S`` to
run a fixed reference slice: pure-Python float loops, small numpy arrays and
three LAPACK-backed Lyapunov solves, the mix the library spends its time in.
``WorkClock.now`` excludes the slices, so every duration the workloads take
from it is the library's own. ``reference_seconds`` rescales a duration
piece by piece: the work between two slices is scaled by ``REF_SLICE_S`` over
the host seconds of the slice that ends it. That gives host seconds as they
would read on the reference machine when it is uncontended. Scaling each
0.1 s piece by its own slice, rather than a whole duration by its mean slice,
follows the host's speed as it changes within the duration.

Set-up time is a fresh interpreter's start-up, which the slices do not
resemble: it spawns a process and imports modules. So set-up is rescaled
against ``REFERENCE_SPAWN`` instead, a fresh interpreter that imports only
numpy and scipy.linalg, timed right before and right after each set-up probe.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np
import scipy.linalg

INTERVAL_S = 0.1
# Host seconds of one reference slice on the reference machine (2-core Xeon,
# Python 3.11, numpy 2.4, scipy 1.17), the fastest of 2000 slices.
REF_SLICE_S = 0.0021
# A fresh interpreter importing the library's dependencies and nothing of the
# library, and its host seconds on the reference machine (fastest of 30).
REFERENCE_SPAWN = "import numpy, scipy.linalg; print('ready', flush=True)"
REF_SPAWN_S = 0.25

_A = np.diag(-np.arange(1.0, 19.0)) + 0.1 * np.ones((18, 18))
_Q = -np.eye(18)


def reference_slice() -> None:
    """Fixed work of about REF_SLICE_S; never depends on the library."""
    y = [0.01 * i for i in range(25)]
    for _ in range(300):
        k = [0.999 * a + 0.001 * math.sqrt(abs(a) + 1.0) for a in y]
        y = [a + 0.5 * b for a, b in zip(y, k)]
    v = np.ones(3)
    m = np.eye(3)
    for _ in range(150):
        w = m @ v
        float(np.linalg.norm(np.concatenate([w, v])))
    for _ in range(3):
        scipy.linalg.solve_continuous_lyapunov(_A, _Q)


class WorkClock:
    """``time.perf_counter`` minus the time spent in reference slices.

    Without ``start`` it is a plain performance counter; ``start`` arms a
    SIGALRM timer that runs a reference slice every INTERVAL_S until ``stop``.
    """

    def __init__(self):
        self.ref_s = 0.0   # host seconds spent in reference slices
        self.ref_n = 0     # slices run
        self._start = 0.0
        self._tick_work = []    # work time at each slice
        self._tick_factor = []  # REF_SLICE_S / that slice's host seconds
        self._tick_ref = []     # reference seconds of work from start to each slice

    def now(self) -> float:
        while True:
            n = self.ref_n
            t = time.perf_counter() - self.ref_s
            if n == self.ref_n:   # no slice ran while reading
                return t

    def _reference_at(self, t: float) -> float:
        """Reference seconds of work from ``start`` to work time ``t``; work
        after the last slice takes that slice's factor."""
        i = bisect.bisect_left(self._tick_work, t)
        if i < len(self._tick_work):
            return self._tick_ref[i] - (self._tick_work[i] - t) * self._tick_factor[i]
        return self._tick_ref[-1] + (t - self._tick_work[-1]) * self._tick_factor[-1]

    def reference_seconds(self, begin: float, end: float) -> float:
        """Work seconds between two ``now`` readings taken while the clock
        ran, at the reference machine's speed; NaN if no slice ran."""
        if not self._tick_work:
            return math.nan
        return self._reference_at(end) - self._reference_at(begin)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        work = t0 - self.ref_s
        reference_slice()
        spent = time.perf_counter() - t0
        factor = REF_SLICE_S / spent
        prev_work = self._tick_work[-1] if self._tick_work else self._start
        prev_ref = self._tick_ref[-1] if self._tick_ref else 0.0
        self._tick_work.append(work)
        self._tick_factor.append(factor)
        self._tick_ref.append(prev_ref + (work - prev_work) * factor)
        # all updates land before the interrupted code resumes
        self.ref_s += spent
        self.ref_n += 1

    def start(self) -> None:
        self._start = self.now()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
