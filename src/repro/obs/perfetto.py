"""Merged Perfetto trace: service tracks + per-job solver tracks.

One Chrome ``trace_event`` document (loadable at https://ui.perfetto.dev)
showing a whole service run on the simulated clock:

* **pid 0 — the service process.**  One *scheduler* thread carrying
  instant events for submits/sheds/terminals plus ``queue_depth`` and
  per-machine breaker/busy counter tracks, and one thread per
  ``(machine, lane)``: every executed attempt (:class:`Trial` as seen by
  the ``dispatch`` events) renders as a complete ("X") slice.  A machine
  hosting several concurrent attempts gets one lane per overlap (greedy
  lowest-free-lane assignment — deterministic), because sync slices on
  one Chrome track must nest.
* **pid 1000+ — one process per solved attempt** whose solver spans were
  captured: the per-solve :class:`~repro.bsp.machine.BSPMachine`'s span
  tree, shifted by the attempt's dispatch time.  Solve model time *is*
  service time (both are γF + βW + νQ + αS of the same counters), so the
  shifted solver timeline tiles the service slice exactly.
* **flow events** (``ph: "s"`` → ``ph: "f"``) connect each service
  attempt slice to the root of its solver track — click an attempt in
  the service swimlane and Perfetto draws the arrow into the solve.

Everything is derived from a :class:`~repro.obs.telemetry.Telemetry`
object; the export is a pure function of it (byte-stable across reruns).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.trace.chrome import span_slice
from repro.trace.spans import span_event_from_dict

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry
    from repro.serve.pool import MachinePool

#: pid of the service process (machines + scheduler live here)
SERVICE_PID = 0
#: tid of the scheduler/counters thread inside the service process
SCHEDULER_TID = 0
#: solver processes start here: pid = SOLVER_PID_BASE + job * SOLVER_PID_STRIDE + attempt
SOLVER_PID_BASE = 1000
SOLVER_PID_STRIDE = 64
#: machine lane threads start here: tid = MACHINE_TID_BASE + machine * MACHINE_TID_STRIDE + lane
MACHINE_TID_BASE = 10
MACHINE_TID_STRIDE = 100


def _assign_lanes(spans: list[dict]) -> dict[int, int]:
    """Greedy per-machine lane assignment for overlapping attempt slices.

    Returns ``{span_index: lane}``.  Scanning in (start, finish, index)
    order and picking the lowest lane that is free at the span's start is
    deterministic and uses the minimum number of lanes at every instant.
    """
    lanes: dict[int, int] = {}
    by_machine: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        by_machine.setdefault(s["machine"], []).append(i)
    for indices in by_machine.values():
        indices.sort(key=lambda i: (spans[i]["start"], spans[i]["finish"], i))
        lane_free_at: list[float] = []  # lane -> earliest free time
        for i in indices:
            s = spans[i]
            lane = next(
                (k for k, free in enumerate(lane_free_at) if free <= s["start"]),
                None,
            )
            if lane is None:
                lane = len(lane_free_at)
                lane_free_at.append(s["finish"])
            else:
                lane_free_at[lane] = s["finish"]
            lanes[i] = lane
    return lanes


def solver_pid(job: int, attempt: int) -> int:
    return SOLVER_PID_BASE + int(job) * SOLVER_PID_STRIDE + int(attempt)


def merged_trace(
    telemetry: "Telemetry",
    pool: "MachinePool | None" = None,
    label: str = "repro service telemetry",
) -> dict[str, Any]:
    """Build the merged trace_event document from a telemetry capture."""
    events: list[dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": SERVICE_PID, "tid": 0,
         "args": {"name": label}},
        {"ph": "M", "name": "thread_name", "pid": SERVICE_PID,
         "tid": SCHEDULER_TID,
         "args": {"name": "scheduler (1 us = 1 model time unit)"}},
        {"ph": "M", "name": "thread_sort_index", "pid": SERVICE_PID,
         "tid": SCHEDULER_TID, "args": {"sort_index": 0}},
    ]

    # --- scheduler track: lifecycle instants -------------------------- #
    for e in telemetry.events:
        if e["ev"] in ("submit", "shed", "terminal"):
            args = {k: v for k, v in e.items() if k not in ("ev", "t", "seq")}
            events.append(
                {
                    "name": e["ev"], "cat": "service", "ph": "i", "s": "t",
                    "pid": SERVICE_PID, "tid": SCHEDULER_TID,
                    "ts": e["t"], "args": args,
                }
            )

    # --- counter tracks from the gauge series ------------------------- #
    for name in sorted(telemetry.series.gauges):
        g = telemetry.series.gauges[name]
        for t, v in g.samples:
            events.append(
                {
                    "ph": "C", "name": name, "pid": SERVICE_PID,
                    "tid": SCHEDULER_TID, "ts": t, "args": {"value": v},
                }
            )

    # --- machine lanes: one slice per executed attempt ---------------- #
    spans = telemetry.attempt_spans()
    lanes = _assign_lanes(spans)
    seen_threads: set[int] = set()
    for i, s in enumerate(spans):
        machine, lane = s["machine"], lanes[i]
        tid = MACHINE_TID_BASE + machine * MACHINE_TID_STRIDE + lane
        if tid not in seen_threads:
            seen_threads.add(tid)
            if pool is not None:
                base = pool.track_label(machine)
            else:
                base = f"machine {machine}"
            suffix = f" lane {lane}" if lane else ""
            events.append(
                {"ph": "M", "name": "thread_name", "pid": SERVICE_PID,
                 "tid": tid, "args": {"name": base + suffix}}
            )
            events.append(
                {"ph": "M", "name": "thread_sort_index", "pid": SERVICE_PID,
                 "tid": tid, "args": {"sort_index": tid}}
            )
        events.append(
            {
                "name": f"job {s['job']} a{s['attempt']} [{s['kind']}]",
                "cat": "attempt", "ph": "X", "pid": SERVICE_PID, "tid": tid,
                "ts": s["start"], "dur": s["finish"] - s["start"],
                "args": {
                    "job": s["job"], "attempt": s["attempt"],
                    "kind": s["kind"], "rung": s["rung"], "p": s["p"],
                    "probe": s["probe"], "ok": s["ok"],
                },
            }
        )

    # --- per-attempt solver processes + flow linkage ------------------ #
    for i, s in enumerate(spans):
        key = f"{s['job']}:{s['attempt']}"
        captured = telemetry.solver.get(key)
        if captured is None or not captured["events"]:
            continue
        pid = solver_pid(s["job"], s["attempt"])
        machine, lane = s["machine"], lanes[i]
        tid = MACHINE_TID_BASE + machine * MACHINE_TID_STRIDE + lane
        flow_id = pid  # unique per (job, attempt) by construction
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": f"job {s['job']} attempt {s['attempt']} "
                              f"solve (p={captured['p']})"}}
        )
        events.append(
            {"ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
             "args": {"sort_index": pid}}
        )
        # flow start on the service attempt slice...
        events.append(
            {"ph": "s", "id": flow_id, "cat": "flow", "name": "solve",
             "pid": SERVICE_PID, "tid": tid, "ts": s["start"]}
        )
        first = True
        for doc in captured["events"]:
            ev = span_event_from_dict(doc)
            events.append(span_slice(ev, pid, 0, offset=s["start"]))
            if first:
                # ...flow finish binds to the first solver slice
                events.append(
                    {"ph": "f", "bp": "e", "id": flow_id, "cat": "flow",
                     "name": "solve", "pid": pid, "tid": 0,
                     "ts": s["start"] + ev.ts}
                )
                first = False

    flows = sum(1 for e in events if e.get("ph") == "s")
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "attempts": len(spans),
            "solver_tracks": flows,
            "lifecycle_events": len(telemetry.events),
            "time_unit": "simulated service time "
                         "(gamma*F + beta*W + nu*Q + alpha*S)",
        },
    }
