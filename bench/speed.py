"""Host speed probe: normalises pass times for a host whose speed drifts.

On a shared host the vCPU this benchmark runs on changes speed by tens of
percent within seconds, with the load of other tenants. The process's CPU
time drifts with it, so neither wall nor CPU time of a pass is steady. While a
pass runs, a timer interrupts it every ``INTERVAL_S`` and runs a fixed
reference computation of about half a millisecond: row scaling and argmax on
a small numpy matrix, then a short Python loop, the same kind of work as the
program's LP code. Its times sample the host's speed uniformly over the pass.
Set-up is sampled the same way, more often, as it lasts a few tenths of a
second.

The normalised time of a pass is its time without the probes, multiplied by
the mean over the probes of ``NOMINAL_S / probe time``: the work the pass did,
expressed as seconds at the speed at which the probe takes ``NOMINAL_S``, about
its time on an unloaded 2-vCPU Xeon VM. A change in the program moves it as it
moves wall time; a change in the host's speed moves probe and pass together
and cancels. The signal handler runs between bytecodes of the main thread, so
the probe never runs inside a numpy call of the program, and it touches none
of the program's state.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
SETUP_INTERVAL_S = 0.01     # a set-up lasts a few tenths of a second
NOMINAL_S = 5e-4
ROWS = 12
SCALINGS = 40
LOOP = 2000


class SpeedProbe:
    """Context manager that samples the probe's time while it is entered."""

    def __init__(self, interval):
        self.interval = interval
        self.samples = []
        self._matrix = np.random.default_rng(0).standard_normal((ROWS, ROWS))
        self._previous = None

    def _probe(self, signum, frame):
        start = time.perf_counter()
        a = self._matrix.copy()
        acc = 0
        for i in range(SCALINGS):
            a = a / np.abs(a).max(axis=1)[:, None]
            acc += int(np.argmax(a[i % ROWS]))
        for i in range(LOOP):
            acc += i * i
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def probe_seconds(self):
        return sum(self.samples)

    def normalise(self, seconds):
        """Seconds of program work (probes excluded) at the nominal speed."""
        if not self.samples:
            return seconds
        return seconds * statistics.fmean(NOMINAL_S / s for s in self.samples)
