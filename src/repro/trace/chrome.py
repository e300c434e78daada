"""Chrome ``trace_event`` exporter: open traced runs in Perfetto.

Converts a :class:`~repro.trace.spans.SpanRecorder`'s completed span events
into the Chrome Trace Event JSON format (the "JSON Array / Object" flavour
with ``traceEvents``), loadable at https://ui.perfetto.dev or
``chrome://tracing``.

Timeline semantics: the x-axis is **modeled BSP time** (γF + βW + νQ + αS
of the global critical path), not wall-clock — one trace microsecond is one
model time unit (γ-normalized flop-times by default).  All spans render on
a single track because the simulator charges the critical path; concurrency
across disjoint rank groups is already folded into the max-over-ranks
counters, exactly as in the paper's cost statements.  Since model time is
monotone in the counters, nesting is always well-formed.

Each span becomes one complete ("ph": "X") event carrying its exclusive
max-over-ranks F/W/Q/S and the executing group size in ``args``.

:func:`chrome_trace_per_rank` is the multi-track upgrade: one Perfetto
track (thread) per rank, each span event duplicated onto the tracks of the
ranks that executed it, plus per-rank counter tracks (memory footprint and
cumulative words sent) sampled from a metrics-enabled machine's superstep
series, and the rank-to-rank heatmap matrices embedded in ``otherData``.

This module is the one place that builds span slices (:func:`span_slice`)
and writes trace files (:func:`write_trace`); the merged service trace in
:mod:`repro.obs.perfetto` uses both.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.trace.spans import SpanRecorder


def span_event_args(ev: Any) -> dict[str, Any]:
    """The ``args`` payload of one span slice, in the canonical key order
    (path, depth, group_size, F, W, Q, S); the order is load-bearing — the
    pinned single-track trace is gated byte-for-byte.
    """
    return {
        "path": ev.path,
        "depth": ev.depth,
        "group_size": ev.group_size,
        "F": ev.flops,
        "W": ev.words,
        "Q": ev.mem_traffic,
        "S": ev.supersteps,
    }


def span_slice(ev: Any, pid: int, tid: int, offset: float = 0.0) -> dict[str, Any]:
    """One span as a complete ("ph": "X") trace event on track ``(pid, tid)``,
    shifted by ``offset`` model time units."""
    return {
        "name": ev.name,
        "cat": "bsp",
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "ts": offset + ev.ts,
        "dur": ev.dur,
        "args": span_event_args(ev),
    }


def _recorder_other_data(recorder: "SpanRecorder") -> dict[str, Any]:
    return {
        "p": recorder.p,
        "spans": len(recorder.events),
        "open_spans": recorder.open_paths(),
        "time_unit": "modeled BSP time (gamma*F + beta*W + nu*Q + alpha*S)",
    }


def chrome_trace(recorder: "SpanRecorder", label: str = "repro BSP model") -> dict[str, Any]:
    """Build the trace_event document for a recorder's completed spans."""
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": label},
        },
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": "critical path (1 us = 1 model time unit)"},
        },
    ]
    events += [span_slice(ev, 0, 0) for ev in recorder.events]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": _recorder_other_data(recorder),
    }


def chrome_trace_per_rank(
    recorder: "SpanRecorder",
    metrics: Any = None,
    label: str = "repro BSP model (per rank)",
) -> dict[str, Any]:
    """Build the multi-track trace_event document: one track per rank.

    Span events land on the tracks of the ranks recorded in each
    :class:`~repro.trace.spans.SpanEvent` (all ranks when the span carried
    no group).  ``metrics``, when given, is a
    :class:`~repro.metrics.MetricsSnapshot` whose superstep series becomes
    per-rank ``memory_words`` / ``words_sent`` counter tracks and whose
    rank-to-rank matrices are embedded under ``otherData["heatmap"]``.
    """
    p = recorder.p
    events: list[dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0, "args": {"name": label}},
    ]
    for r in range(p):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": r,
                "args": {"name": f"rank {r} (1 us = 1 model time unit)"},
            }
        )
        events.append(
            {"ph": "M", "name": "thread_sort_index", "pid": 0, "tid": r, "args": {"sort_index": r}}
        )
    for ev in recorder.events:
        ranks = ev.ranks if ev.ranks is not None else tuple(range(p))
        events += [span_slice(ev, 0, int(r)) for r in ranks]
    other = _recorder_other_data(recorder)
    if metrics is not None:
        for t, memory, sent in metrics.series:
            events.append(
                {
                    "ph": "C",
                    "name": "memory_words",
                    "pid": 0,
                    "tid": 0,
                    "ts": float(t),
                    "args": {f"rank{r}": float(memory[r]) for r in range(p)},
                }
            )
            events.append(
                {
                    "ph": "C",
                    "name": "words_sent",
                    "pid": 0,
                    "tid": 0,
                    "ts": float(t),
                    "args": {f"rank{r}": float(sent[r]) for r in range(p)},
                }
            )
        other["heatmap"] = {
            "words_matrix": metrics.words_matrix.tolist(),
            "messages_matrix": metrics.messages_matrix.tolist(),
            "unpaired_sent": metrics.unpaired_sent.tolist(),
            "unpaired_recv": metrics.unpaired_recv.tolist(),
        }
        other["memory"] = {
            "watermark_words": metrics.watermark_words.tolist(),
            "watermark_superstep": metrics.watermark_superstep.tolist(),
        }
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def write_trace(doc: dict[str, Any], path: Path | str) -> Path:
    """Write a trace_event document to ``path`` (parents created) and return
    the path; every trace file in the repo goes through here."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return out
