"""Machine-speed probe: correct timings for the host's speed swings.

On a shared host the same single-threaded work can take twice as long from
one millisecond to the next, because the core is shared with other guests;
CPU time grows with wall time, so neither clock is steady.  The probe runs a
small fixed numpy kernel from a ``SIGALRM`` handler every few milliseconds
while a region is timed, and the kernel's duration samples the machine's
momentary speed.  Samples come at equal steps of wall time, so a region's
corrected time is

    wall * mean(REFERENCE_PROBE_S / probe time in the region)

the time the region would have taken on a machine that runs the kernel in
``REFERENCE_PROBE_S`` throughout.  Averaging the inverse keeps a rare very
slow sample (an interrupt, a descheduled vCPU) from dominating.

The kernel mixes the two kinds of work the workloads do, small matrix-vector
steps dominated by interpreter overhead and a vectorised pass over 8192
complex numbers (the size of one density-kernel chunk), because contention
slows small and cache-sized work by different factors.  It is benchmark
code, so no qtraj change alters it.  Each alarm runs the kernel twice and
times only the second call: the first brings the kernel's arrays back into
cache and its allocations back onto the heap, so a sample does not depend on
what the measured code left there between alarms.

The reference is a fixed constant that only sets the scale of corrected
times (the warm kernel takes 350-390 us on the shared 2-core x86-64 virtual
machine the benchmark was tuned on): corrected times compare across runs and
commits on one machine, not across machines.  The timed region includes the
probe's own cost, two kernel calls per alarm; corrected, that is about
2 * REFERENCE_PROBE_S / INTERVAL_S = 4.2% of every corrected time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.010
KERNEL_STEPS = 4
VECTOR_ROWS = 512
REFERENCE_PROBE_S = 210e-6


@dataclass
class Region:
    wall: float = 0.0
    first: int = 0
    last: int = 0


class SpeedProbe:
    """Context manager that samples machine speed while it is open; regions
    timed inside it can then be corrected with :meth:`corrected`."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._A /= np.linalg.norm(self._A, 2)
        self._v = rng.standard_normal(8) + 0j
        shape = (VECTOR_ROWS, 16)
        self._Z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self._P = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self._P /= np.linalg.norm(self._P, 2)
        self.samples: list[float] = []
        self._previous = None

    def _kernel(self) -> np.ndarray:
        x = self._v
        for _ in range(KERNEL_STEPS):
            x = self._A @ (np.exp(-0.01j * x.real) * x)
        y = self._Z @ self._P.T
        y *= np.exp(0.01j * y.real)
        return 0.5 * (y + y.conj())

    def _on_alarm(self, signum, frame) -> None:
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._kernel()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def region(self):
        """Time a block; the yielded record holds its wall time and the
        indices of the probe samples taken during it."""
        rec = Region(first=len(self.samples))
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec.wall = time.perf_counter() - t0
            rec.last = len(self.samples)

    def speed_factor(self, rec: Region) -> float:
        """Reference speed over the speed the region saw."""
        seen = self.samples[rec.first:rec.last] or self.samples
        return statistics.mean(REFERENCE_PROBE_S / t for t in seen) if seen else 1.0

    def corrected(self, rec: Region) -> float:
        return rec.wall * self.speed_factor(rec)

    def mean_sample_s(self) -> float:
        """Mean probe time over the whole run."""
        return statistics.mean(self.samples) if self.samples else math.nan
