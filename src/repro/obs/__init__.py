"""Unified service telemetry (see docs/observability.md, "Service telemetry").

``repro.obs`` observes the serving layer the way ``repro.trace`` /
``repro.metrics`` observe a single solve: job-lifecycle events and
time-series in **simulated time**, solver spans nested under their owning
service attempt, a merged Perfetto export, the gated ``telemetry.json``
document, and the ``repro dash`` flight-recorder report.  Disabled, it is
the inert :data:`NO_TELEMETRY` singleton — a strict no-op.
"""

from repro.metrics.sketch import LatencySketch
from repro.obs.dash import build_dash_html, write_dash
from repro.obs.perfetto import merged_trace
from repro.obs.report import (
    DEFAULT_TELEMETRY_PATH,
    build_telemetry_doc,
    check_telemetry,
    load_telemetry,
    render_telemetry,
    write_telemetry,
)
from repro.obs.series import Gauge, SeriesRegistry
from repro.obs.telemetry import (
    BREAKER_STATE_CODES,
    NO_TELEMETRY,
    NoTelemetry,
    Telemetry,
    read_event_log,
)

__all__ = [
    "BREAKER_STATE_CODES",
    "DEFAULT_TELEMETRY_PATH",
    "Gauge",
    "LatencySketch",
    "NO_TELEMETRY",
    "NoTelemetry",
    "SeriesRegistry",
    "Telemetry",
    "build_dash_html",
    "build_telemetry_doc",
    "check_telemetry",
    "load_telemetry",
    "merged_trace",
    "read_event_log",
    "render_telemetry",
    "write_dash",
    "write_telemetry",
]
