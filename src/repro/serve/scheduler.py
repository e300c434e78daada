"""Placement records of a served workload, all times simulated.

The resilient event loop (:func:`repro.serve.resilience.run_resilient`) is
the service's scheduler: it replays the workload's arrival trace against
the machine pool in simulated BSP time and records one
:class:`ScheduledJob` per accepted job in a :class:`Schedule`.  Rows carry
a terminal ``disposition`` (``ok | degraded | shed | error``): *every* job
the service accepted gets a row, not just the successes — failed jobs
consumed machine time and count in the latency percentiles (shed jobs,
which never ran, are tallied but excluded from latency statistics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any


@dataclass
class ScheduledJob:
    """Placement decision for one job, all times simulated."""

    job_id: int
    machine_id: int
    p: int
    arrival: float
    start: float
    finish: float
    disposition: str = "ok"   # terminal disposition: ok|degraded|shed|error
    attempts: int = 1         # executed attempts (retries + hedges included)
    hedged: bool = False      # a speculative duplicate was launched

    @property
    def latency(self) -> float:
        """Arrival-to-completion time (queue wait + service)."""
        return self.finish - self.arrival

    @property
    def queue_wait(self) -> float:
        return self.start - self.arrival

    def as_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "machine_id": self.machine_id,
            "p": self.p,
            "arrival": self.arrival,
            "start": self.start,
            "finish": self.finish,
            "latency": self.latency,
            "queue_wait": self.queue_wait,
            "disposition": self.disposition,
            "attempts": self.attempts,
            "hedged": self.hedged,
        }


@dataclass
class Schedule:
    """The full placement of a workload onto a pool."""

    jobs: list[ScheduledJob]
    makespan: float       # last finish − first arrival
    utilization: float    # busy rank-time / (total ranks × makespan)
    busy_rank_time: float

    def latencies(self) -> list[float]:
        """Latencies of every job that actually ran (shed jobs never did —
        counting their zero wait would flatter the percentiles, the exact
        inverse of the old bug where *error* jobs were dropped)."""
        return [j.latency for j in self.jobs if j.disposition != "shed"]

    def percentile(self, q: float) -> float:
        """Exact latency percentile (nearest-rank on the sorted list)."""
        lats = sorted(self.latencies())
        if not lats:
            return 0.0
        idx = min(len(lats) - 1, max(0, math.ceil(q / 100.0 * len(lats)) - 1))
        return lats[idx]

    def dispositions(self) -> dict[str, int]:
        """Histogram disposition -> job count (sorted by name)."""
        out: dict[str, int] = {}
        for j in self.jobs:
            out[j.disposition] = out.get(j.disposition, 0) + 1
        return dict(sorted(out.items()))

    def summary(self) -> dict[str, Any]:
        lats = self.latencies()
        return {
            "jobs": len(self.jobs),
            "makespan": self.makespan,
            "utilization": self.utilization,
            "latency_p50": self.percentile(50.0),
            "latency_p99": self.percentile(99.0),
            "latency_mean": sum(lats) / len(lats) if lats else 0.0,
            "latency_max": max(lats) if lats else 0.0,
            "dispositions": self.dispositions(),
        }
