"""Per-layer wall-clock spans, recorded from outside the program.

The traced run rebinds public functions of ``repro`` at every module (or
class) attribute that holds them, so each call into a layer opens a span.
Nothing under ``src/`` is edited and no machine observer is switched on:
``BSPMachine(spans=True)`` would change the chase engine and so measure a
different program.

A span is ``(name, start_ns, end_ns, parent, job, self_ns)``: ``parent``
is the index of the enclosing span (-1 at the top) and ``job`` the id of
the solve or service job it ran for.  Self time is the span's duration
minus the time its child spans cover.  A span directly nested in a span of
the same name (``compact_wy_qr_general`` calling ``compact_wy_qr``) is
merged into its parent, so calls are counted once.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator


class SpanRecorder:
    """In-memory span store with a call stack for self-time accounting."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.job: Any = None
        self._stack: list[list] = []  # [span index, name, child ns]

    def wrap(self, name: str, fn: Callable, job_of: Callable | None = None) -> Callable:
        """``fn`` wrapped so each call records one span called ``name``.

        ``job_of(args, kwargs)``, when given, names the job the call and its
        children run for (the service's per-job solve entry point).
        """
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            outer_job = self.job
            if job_of is not None:
                self.job = job_of(args, kwargs)
            idx = len(spans)
            spans.append(None)
            frame = [idx, name, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job, t1 - t0 - frame[2])
                if stack:
                    stack[-1][2] += t1 - t0
                self.job = outer_job

        return traced

    def take(self) -> list[tuple]:
        """Return the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        done = [s for s in self.spans if s is not None]
        self.spans.clear()
        return done


def totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: ``self_s``, ``incl_s`` and ``calls``."""
    out: dict[str, dict[str, float]] = {}
    for name, t0, t1, _parent, _job, self_ns in spans:
        row = out.setdefault(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
        row["self_s"] += self_ns * 1e-9
        row["incl_s"] += (t1 - t0) * 1e-9
        row["calls"] += 1
    return out


def dump_rows(spans: list[tuple]) -> dict[str, Any]:
    """Compact JSON form: a name table plus one row per span
    ``[name index, start µs, duration µs, parent, job]``."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    base = min((s[1] for s in spans), default=0)
    rows = [
        [index[name], round((t0 - base) / 1e3, 1), round((t1 - t0) / 1e3, 1), parent, job]
        for name, t0, t1, parent, job, _ in spans
    ]
    return {"names": names, "columns": ["name", "start_us", "dur_us", "parent", "job"],
            "rows": rows}


def _payload_job(args: tuple, kwargs: dict) -> Any:
    payload = args[0] if args else kwargs["payload"]
    return payload.get("job_id")


def layer_targets() -> tuple[list[tuple[str, Callable, Any]], list[tuple[str, type, str]]]:
    """The layer entry points: (span name, function, job hook) and
    (span name, class, method name)."""
    from repro.blocks.matmul import carma_matmul
    from repro.blocks.rect_qr import rect_qr
    from repro.bsp.batch import ChargeLog
    from repro.eig.band_to_band import band_to_band_2p5d
    from repro.eig.ca_sbr import ca_sbr_reduce
    from repro.eig.driver import eigensolve_2p5d, finish_sequential
    from repro.eig.full_to_band import full_to_band_2p5d
    from repro.linalg.band_tridiag import band_to_tridiagonal_storage
    from repro.linalg.householder import compact_wy_qr, compact_wy_qr_general
    from repro.linalg.sbr import apply_chase_step
    from repro.linalg.tridiag import sturm_bisection_eigenvalues
    from repro.obs.telemetry import Telemetry
    from repro.serve.journal import JobJournal
    from repro.serve.planner import plan_job
    from repro.serve.resilience import run_resilient
    from repro.serve.service import EigenService, execute_payload

    functions = [
        ("eig.solve", eigensolve_2p5d, None),
        ("eig.full_to_band", full_to_band_2p5d, None),
        ("eig.band_to_band", band_to_band_2p5d, None),
        ("eig.ca_sbr", ca_sbr_reduce, None),
        ("eig.finish", finish_sequential, None),
        ("linalg.sturm_bisection", sturm_bisection_eigenvalues, None),
        ("linalg.band_to_tridiag", band_to_tridiagonal_storage, None),
        ("linalg.apply_chase_step", apply_chase_step, None),
        ("linalg.compact_wy_qr", compact_wy_qr, None),
        ("linalg.compact_wy_qr", compact_wy_qr_general, None),
        ("blocks.rect_qr", rect_qr, None),
        ("blocks.carma_matmul", carma_matmul, None),
        ("serve.plan", plan_job, None),
        ("serve.solve", execute_payload, _payload_job),
        ("serve.loop", run_resilient, None),
    ]
    methods = [
        ("bsp.charge_log_flush", ChargeLog, "flush"),
        ("serve.run_workload", EigenService, "run_workload"),
        ("serve.journal.open", JobJournal, "open"),
        ("serve.journal.append", JobJournal, "record_submitted"),
        ("serve.journal.append", JobJournal, "record_attempt"),
        ("serve.journal.append", JobJournal, "record_terminal"),
        ("serve.journal.close", JobJournal, "close"),
        ("obs.telemetry.emit", Telemetry, "emit"),
        ("obs.telemetry.other", Telemetry, "counter"),
        ("obs.telemetry.other", Telemetry, "gauge"),
        ("obs.telemetry.other", Telemetry, "observe_latency"),
        ("obs.telemetry.other", Telemetry, "attach_solver_spans"),
    ]
    return functions, methods


@contextmanager
def instrumented(rec: SpanRecorder) -> Iterator[None]:
    """Rebind every layer entry point to a span-recording wrapper.

    Functions are replaced at every attribute of every loaded ``repro``
    module that holds them (``from x import f`` copies included; late
    imports read the defining module, which is rebound too).  Restores
    them all on exit.
    """
    functions, methods = layer_targets()
    wrapped = {id(fn): rec.wrap(name, fn, job_of) for name, fn, job_of in functions}
    originals = {id(fn): fn for _, fn, _ in functions}
    undo: list[tuple[Any, str, Any]] = []
    try:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and originals.get(id(value)) is value:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])
        for name, cls, meth in methods:
            fn = cls.__dict__[meth]
            undo.append((cls, meth, fn))
            setattr(cls, meth, rec.wrap(name, fn))
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
