"""Host-speed probe: a fixed micro-kernel timed inside measured intervals.

The benchmark host is shared, and its speed changes by up to a factor of
two within a second, as other tenants load the core: raw median walls of
ten runs of one workload spread by up to 45% (IQR over median). A
reference kernel timed between operations does not help, because the
speed during an operation differs from the speed just before and after it.

So while an interval is measured, a timer signal (``SIGALRM``) fires every
``PERIOD_S`` and its handler times a fixed micro-kernel of about 0.25 ms.
The micro-kernel does the same kind of work as the program's hot paths:
small numpy matrix-vector products and a pure-Python float loop. The
handler runs between the program's bytecodes, so it samples the host
speed the program sees. An interval's work is its wall minus the probe
time, and its scaled wall is the work times ``REF_NOMINAL_S`` over the
mean probe wall. Scaled walls read in seconds at the reference host's
quiet speed, and a slowdown common to the program and the micro-kernel
cancels.

The mean, not the median: the program's slowdown over an interval is the
time average of the host's. Fitted over 24 operations of the three
workloads, log(work) against log(mean probe wall) has slope 0.99-1.05
and correlation 0.98-0.996; against the median probe wall the slope is
only 0.73-0.78, so the median over-corrects.

The micro-kernel lives here, not in the program, so a change to the
program cannot move it. The probe adds about 1% to each measured wall,
and that time lands in whichever traced span was open when it fired.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

#: about the micro-kernel's median wall on a quiet reference host (2-core
#: Intel Xeon, 2.0 GHz); it only fixes the scale of the scaled walls and
#: must never change
REF_NOMINAL_S = 2.5e-4

#: probe period: about 1% overhead, and a 0.2 s interval gets 8 probes
PERIOD_S = 0.025

#: probes run back to back after an interval too short to hold this many
MIN_PROBES = 5

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((24, 24))
_V = _RNG.standard_normal(24)


def micro_kernel() -> float:
    """Run the fixed micro-kernel once and return its wall in seconds."""
    t0 = time.perf_counter()
    x = _V
    for _ in range(60):
        x = _A @ x
        x = x / np.linalg.norm(x)
    s = 0.0
    for i in range(300):
        s += i * 0.5
    return time.perf_counter() - t0


@dataclass
class Interval:
    """One measured interval: its raw wall, the share of it the probes
    took, and the probe walls."""

    wall: float = 0.0
    probe_s: float = 0.0
    probes: list[float] = field(default_factory=list)

    @property
    def work(self) -> float:
        """Wall minus the time the probes took."""
        return self.wall - self.probe_s

    @property
    def scale(self) -> float:
        """Factor that brings the interval's work to reference speed."""
        return REF_NOMINAL_S / statistics.fmean(self.probes)

    @property
    def scaled(self) -> float:
        return self.work * self.scale


class HostProbe:
    """Samples the micro-kernel during intervals; keeps every sample."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    @contextmanager
    def interval(self) -> Iterator[Interval]:
        """Measure the body as one interval, probing the host as it runs."""
        iv = Interval()
        probes = iv.probes

        def on_alarm(_signum: int, _frame: object) -> None:
            probes.append(micro_kernel())

        previous = signal.signal(signal.SIGALRM, on_alarm)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield iv
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            iv.wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        iv.probe_s = sum(probes)
        # a short interval holds few probes: top them up right after it
        probes.extend(micro_kernel() for _ in range(max(0, MIN_PROBES - len(probes))))
        self.samples.extend(probes)
