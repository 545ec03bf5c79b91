"""Host speed, sampled while the benchmark runs, to put times on one scale.

The benchmark runs on a few cores of a shared host. There, the same pass
over the job list takes up to twice as long from one minute to the next,
because other tenants slow the cores down; the process still gets its CPU
time, it just gets less done with it. So a raw time measures the host as
much as the library.

`HostProbe` measures the host's speed alongside: while installed, a timer
interrupts the run every PROBE_INTERVAL_S and times a fixed loop of integer
arithmetic, PROBE_LOOPS iterations, which touches no library code. A time
measured while the probe ran is put on the reference scale by

    time * PROBE_REFERENCE_S / median(probe times over the same interval)

that is, in seconds on a host where one probe takes PROBE_REFERENCE_S. A
library change moves the measured time and leaves the probe alone; a slow
spell of the host moves both. The probe's own cost, about 1% of the run, is
part of every time measured, on both sides of a comparison.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter

PROBE_INTERVAL_S = 0.01
PROBE_LOOPS = 1500
# the unit of the scaled times: on the 2-core host of the baseline the
# probe's median ranged from about 80 to 170 microseconds
PROBE_REFERENCE_S = 1e-4


class HostProbe:
    """Probe times, in seconds, in the order they were taken."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def take_sample(self, signum, frame) -> None:
        start = perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        self.samples.append(perf_counter() - start)

    @contextlib.contextmanager
    def installed(self):
        previous = signal.signal(signal.SIGALRM, self.take_sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: int = 0, end: int | None = None) -> float:
        """The factor that puts times measured while samples[start:end] were
        taken on the reference scale."""
        return PROBE_REFERENCE_S / statistics.median(self.samples[start:end])
