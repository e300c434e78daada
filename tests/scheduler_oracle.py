"""Reference scheduler: the service's placement policy without resilience.

The resilient event loop (:func:`repro.serve.resilience.run_resilient`)
must place a clean workload exactly as this plain loop does; the tests
use it as that oracle and pin its policy directly.

Policy (FIFO with backfill, best-fit placement), in simulated BSP time:

* queued jobs are scanned in arrival order; the first job whose planned
  rank count fits some machine's free ranks starts immediately — small
  jobs therefore *backfill* around a head-of-line grid-sized job instead
  of idling the pool;
* placement is best-fit: the machine with the fewest free ranks that
  still fit is chosen (ties toward the lowest machine id), which packs
  small jobs together and keeps whole machines free for jobs that need a
  dedicated grid;
* a job whose plan wants every rank of a machine gets the machine to
  itself — the "dedicated grid" case is just best-fit at p = machine.p.

Starvation cannot persist: a job that fits an *empty* machine is started
no later than the first instant one of them drains, and every queue scan
considers the oldest job first.  Beside FIFO, ``policy="edf"`` orders
every queue scan by absolute deadline (earliest-deadline-first) instead
of arrival.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

from repro.serve.pool import MachinePool
from repro.serve.scheduler import Schedule, ScheduledJob


def schedule_jobs(
    requests: Sequence[tuple],
    pool: MachinePool,
    policy: str = "fifo",
) -> Schedule:
    """Place ``(job_id, arrival, p, service_time[, deadline])`` requests.

    The optional fifth element is the job's absolute deadline in simulated
    time; it matters only under ``policy="edf"``, where each dispatch scan
    considers earliest-deadline-first (deadline, then arrival, then id)
    instead of pure arrival order.  Backfill and best-fit placement are
    identical under both policies.

    Raises ``ValueError`` if any request wants more ranks than the largest
    machine offers (the planner caps p at ``pool.max_ranks``, so this
    indicates a planner/pool mismatch, not load).
    """
    if policy not in ("fifo", "edf"):
        raise ValueError(f"policy must be 'fifo' or 'edf', got {policy!r}")
    reqs = [
        (r[0], r[1], r[2], r[3], r[4] if len(r) > 4 else math.inf) for r in requests
    ]
    for job_id, _, p, _, _ in reqs:
        if p > pool.max_ranks:
            raise ValueError(
                f"job {job_id} wants {p} ranks but the largest pool machine "
                f"has {pool.max_ranks}"
            )
        if p < 1:
            raise ValueError(f"job {job_id} wants {p} ranks")

    pending = sorted(reqs, key=lambda r: (r[1], r[0]))  # arrival, then id
    free = {m.machine_id: m.p for m in pool}
    #: running jobs as a (finish, machine_id, p, job_id) min-heap — the
    #: loop only ever needs the earliest finish, so a heap replaces the
    #: old re-sort-on-every-dispatch list with identical pop order
    running: list[tuple[float, int, int, int]] = []
    placed: list[ScheduledJob] = []
    queue: list[tuple[int, float, int, float, float]] = []
    i = 0  # next arrival index
    now = pending[0][1] if pending else 0.0

    def scan_order(entry: tuple[int, float, int, float, float]) -> tuple:
        job_id, arrival, _, _, deadline = entry
        if policy == "edf":
            return (deadline, arrival, job_id)
        return (arrival, job_id)

    def try_dispatch() -> None:
        """Start every queued job that fits, priority scan with backfill."""
        nonlocal queue
        remaining: list[tuple[int, float, int, float, float]] = []
        for entry in sorted(queue, key=scan_order):
            job_id, arrival, p, service, _ = entry
            # best-fit: fewest free ranks that still fit, lowest id on ties
            best_m: int | None = None
            for m in pool:
                f = free[m.machine_id]
                if f >= p and (best_m is None or f < free[best_m]):
                    best_m = m.machine_id
            if best_m is None:
                remaining.append(entry)
                continue
            free[best_m] -= p
            finish = now + service
            heapq.heappush(running, (finish, best_m, p, job_id))
            placed.append(
                ScheduledJob(
                    job_id=job_id,
                    machine_id=best_m,
                    p=p,
                    arrival=arrival,
                    start=now,
                    finish=finish,
                )
            )
        queue = remaining

    while i < len(pending) or queue or running:
        # advance the clock to the next event: an arrival or a completion
        next_arrival = pending[i][1] if i < len(pending) else math.inf
        next_finish = running[0][0] if running else math.inf
        now = min(next_arrival, next_finish)
        if math.isinf(now):
            break  # queue non-empty but nothing running/arriving: impossible
        while running and running[0][0] <= now:
            _, m_id, p, _ = heapq.heappop(running)
            free[m_id] += p
        while i < len(pending) and pending[i][1] <= now:
            queue.append(pending[i])
            i += 1
        try_dispatch()

    placed.sort(key=lambda j: j.job_id)
    if placed:
        t0 = min(j.arrival for j in placed)
        t1 = max(j.finish for j in placed)
        makespan = t1 - t0
    else:
        makespan = 0.0
    busy = sum(j.p * (j.finish - j.start) for j in placed)
    util = busy / (pool.total_ranks * makespan) if makespan > 0 else 0.0
    return Schedule(
        jobs=placed, makespan=makespan, utilization=util, busy_rank_time=busy
    )
