"""Tests for the unified service telemetry layer (``repro.obs``).

The load-bearing guarantees, in order of importance:

1. **Strict no-op when disabled** — a service run with telemetry attached
   produces byte-identical deterministic summaries, spectra, and journal
   bytes to an unobserved run (and the pinned solver trace regenerates
   byte-identical through the shared span-slice builder).
2. **Determinism when enabled** — two telemetry-on runs of the same
   seeded workload produce identical event logs, telemetry documents,
   merged Perfetto traces, and dashboards.
3. The solver spans attached to each attempt *tile* the owning service
   slice exactly (solve model time == service time).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.bsp.machine import BSPMachine
from repro.cli import main
from repro.metrics.sketch import LatencySketch
from repro.obs import (
    NO_TELEMETRY,
    Gauge,
    SeriesRegistry,
    Telemetry,
    build_dash_html,
    build_telemetry_doc,
    check_telemetry,
    load_telemetry,
    merged_trace,
    read_event_log,
    write_dash,
    write_telemetry,
)
from repro.serve import EigenService, MachinePool, TuningCache, mixed_workload
from repro.serve import bench as serve_bench
from repro.serve.resilience import AdmissionPolicy, ResiliencePolicy
from repro.trace import chrome_trace, write_trace
from repro.util.matrices import random_symmetric

PARAMS = serve_bench.SERVE_PARAMS

REPO = Path(__file__).resolve().parents[1]


def small_workload(jobs=10, seed=7):
    return mixed_workload(
        total_jobs=jobs, seed=seed, scf_iterations=2, kpoint_sizes=(12, 16)
    )


def run_service(
    telemetry=None, jobs=10, seed=7, scenario=None, journal=None, policy=None
):
    pool = MachinePool(2, 16, PARAMS)
    service = EigenService(
        pool, TuningCache(), telemetry=telemetry, scenario=scenario,
        journal=journal, policy=policy,
    )
    return service.run_workload(small_workload(jobs, seed)), pool


@pytest.fixture(scope="module")
def observed():
    """One shared telemetry-on run of the small clean workload."""
    telemetry = Telemetry(capture_solver_spans=True)
    report, pool = run_service(telemetry)
    return report, pool, telemetry


@pytest.fixture(scope="module")
def tdoc(observed):
    _, _, telemetry = observed
    return build_telemetry_doc(telemetry, config={"suite": "test"})


# ------------------------------------------------------------------ #
# latency sketch


class TestLatencySketch:
    def test_quantiles_within_relative_accuracy(self):
        sk = LatencySketch(rel_accuracy=0.01)
        values = [float(v) for v in range(1, 2001)]
        for v in values:
            sk.observe(v)
        for q in (0.5, 0.9, 0.99):
            exact = values[min(len(values) - 1, math.ceil(q * len(values)) - 1)]
            got = sk.quantile(q)
            assert abs(got - exact) / exact < 0.03

    def test_order_independent(self):
        a, b = LatencySketch(), LatencySketch()
        vals = [3.7, 1200.0, 0.9, 55.0, 55.0, 3.7e6]
        for v in vals:
            a.observe(v)
        for v in reversed(vals):
            b.observe(v)
        assert a.as_dict() == b.as_dict()

    def test_merge_equals_combined(self):
        a, b, both = LatencySketch(), LatencySketch(), LatencySketch()
        for i, v in enumerate([1.0, 10.0, 100.0, 42.0, 7.0]):
            (a if i % 2 else b).observe(v)
            both.observe(v)
        a.merge(b)
        assert a.as_dict() == both.as_dict()

    def test_dict_round_trip_exact(self):
        sk = LatencySketch()
        for v in (0.25, 3.0, 3.0, 9999.5):
            sk.observe(v)
        doc = json.loads(json.dumps(sk.as_dict()))
        assert LatencySketch.from_dict(doc).as_dict() == sk.as_dict()


class TestSeries:
    def test_gauge_samples_only_changes(self):
        g = Gauge("queue")
        for t, v in [(0.0, 0), (1.0, 0), (2.0, 3), (3.0, 3), (4.0, 1)]:
            g.sample(t, v)
        assert g.samples == [(0.0, 0), (2.0, 3), (4.0, 1)]
        assert g.last == 1 and g.max == 3

    def test_registry_digest_is_stable(self):
        def build():
            reg = SeriesRegistry()
            reg.counter_inc("jobs")
            reg.counter_inc("jobs", 2)
            reg.gauge("depth", 0.0, 4)
            reg.gauge("depth", 1.0, 2)
            return reg.as_dict()

        assert build() == build()
        assert build()["counters"]["jobs"] == 3


# ------------------------------------------------------------------ #
# the strict no-op guarantee


class TestStrictNoOp:
    def test_no_telemetry_singleton_is_inert(self):
        assert not NO_TELEMETRY.enabled
        assert not NO_TELEMETRY.capture_solver_spans
        NO_TELEMETRY.emit("submit", 0.0, job=1)  # all hooks are no-ops
        NO_TELEMETRY.counter("x")
        NO_TELEMETRY.gauge("g", 0.0, 1)
        NO_TELEMETRY.observe_latency("batch", 1.0)

    def test_observed_run_is_byte_identical_to_unobserved(self, observed):
        report, _, _ = observed
        clean, _ = run_service(telemetry=None)
        assert serve_bench.deterministic_summary(
            report.summary()
        ) == serve_bench.deterministic_summary(clean.summary())
        for a, b in zip(clean.results, report.results):
            assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_span_capture_does_not_change_solver_results(self):
        """Engine-level identity: the spans=True machine the telemetry
        path builds produces bit-identical eigenvalues and cost totals
        (the fact that lets solver spans ride a gated pass)."""
        from repro.eig import solve_by_name

        a = random_symmetric(96, seed=3)
        res = {}
        for spans in (False, True):
            machine = BSPMachine(16, PARAMS, spans=spans)
            r = solve_by_name("eig2p5d", machine, a, 2.0 / 3.0)
            cost = machine.cost()
            res[spans] = (r.eigenvalues, cost.total_flops,
                          cost.total_words, cost.supersteps)
        assert np.array_equal(res[False][0], res[True][0])
        assert res[False][1:] == res[True][1:]

    def test_pinned_trace_regenerates_byte_identical(self, tmp_path):
        """The shared span-slice builder and trace writer reproduce the
        committed pinned trace byte for byte."""
        from repro.eig import eigensolve_2p5d

        committed = REPO / "benchmarks" / "results" / "trace_eig_n96_p16.json"
        if not committed.is_file():
            pytest.skip("no committed pinned trace")
        a = random_symmetric(96, seed=3)
        machine = BSPMachine(16, spans=True)
        eigensolve_2p5d(machine, a, delta=2.0 / 3.0)
        fresh = write_trace(
            chrome_trace(machine.spans, label="eigensolve_2p5d n=96 p=16"), tmp_path / "t.json"
        )
        assert fresh.read_bytes() == committed.read_bytes()

    def test_journal_bytes_identical_with_telemetry_on(self, tmp_path):
        j_off, j_on = tmp_path / "off.jsonl", tmp_path / "on.jsonl"
        run_service(telemetry=None, journal=j_off)
        run_service(telemetry=Telemetry(capture_solver_spans=True), journal=j_on)
        assert j_on.read_bytes() == j_off.read_bytes()
        assert "solver_spans" not in j_on.read_text()


# ------------------------------------------------------------------ #
# determinism when enabled


class TestDeterminism:
    def test_two_observed_runs_produce_identical_event_logs(self, observed, tmp_path):
        _, _, first = observed
        second = Telemetry(capture_solver_spans=True)
        run_service(second)
        assert second.event_log_lines() == first.event_log_lines()
        path = second.write_event_log(tmp_path / "events.jsonl")
        assert read_event_log(path) == second.events

    def test_telemetry_docs_and_dash_identical(self, observed, tdoc):
        second = Telemetry(capture_solver_spans=True)
        _, pool = run_service(second)
        doc2 = build_telemetry_doc(second, config={"suite": "test"})
        assert doc2 == tdoc
        assert build_dash_html(doc2) == build_dash_html(tdoc)
        _, _, first = observed
        assert merged_trace(second, pool=pool) == merged_trace(first, pool=pool)


# ------------------------------------------------------------------ #
# lifecycle events


class TestLifecycleEvents:
    def test_clean_run_covers_the_lifecycle(self, observed, tdoc):
        report, _, telemetry = observed
        by_kind = tdoc["events"]["by_kind"]
        jobs = report.jobs
        for kind in ("submit", "plan", "dispatch", "attempt_end", "terminal"):
            assert by_kind[kind] == jobs
        seqs = [e["seq"] for e in telemetry.events]
        assert seqs == sorted(seqs) == list(range(len(seqs)))
        # timestamps are monotone within each kind (the log interleaves
        # the up-front planning loop with the event loop, so global order
        # is by seq, not t)
        for kind in ("submit", "plan", "dispatch", "terminal"):
            ts = [e["t"] for e in telemetry.events_of(kind)]
            assert ts == sorted(ts)

    def test_terminal_latency_is_finish_minus_arrival(self, observed):
        report, _, telemetry = observed
        verdicts = {v.job_id: v for v in report.schedule.jobs}
        for e in telemetry.events_of("terminal"):
            v = verdicts[e["job"]]
            assert e["latency"] == v.finish - v.arrival

    def test_flaky_machine_records_breaker_transitions(self):
        telemetry = Telemetry(capture_solver_spans=False)
        run_service(telemetry, jobs=16, scenario="flaky-machine")
        states = [
            (e["prev"], e["state"]) for e in telemetry.events_of("breaker")
        ]
        assert ("closed", "open") in states
        assert telemetry.series.counters.get("quarantines", 0) >= 1
        # the breaker gauge tracked the transitions too
        codes = {
            v for g in telemetry.series.gauges.values()
            for _, v in g.samples if g.name.endswith("/breaker")
        }
        assert 2 in codes  # open

    def test_straggler_records_hedges(self):
        from repro.serve.resilience import HedgePolicy

        telemetry = Telemetry(capture_solver_spans=False)
        run_service(
            telemetry, jobs=24, scenario="straggler",
            policy=ResiliencePolicy(
                hedge=HedgePolicy(percentile=90.0, min_observations=8)
            ),
        )
        assert telemetry.events_of("hedge_scheduled")
        assert telemetry.series.counters.get("hedges", 0) >= 1

    def test_shed_jobs_emit_shed_events(self):
        telemetry = Telemetry(capture_solver_spans=False)
        pool = MachinePool(1, 8, PARAMS)
        policy = ResiliencePolicy(admission=AdmissionPolicy(queue_limit=1))
        service = EigenService(
            pool, TuningCache(), telemetry=telemetry, policy=policy
        )
        report = service.run_workload(small_workload(jobs=12))
        if report.shed_jobs:
            assert len(telemetry.events_of("shed")) == report.shed_jobs
            assert telemetry.series.counters["sheds"] == report.shed_jobs


# ------------------------------------------------------------------ #
# solver spans nested under service attempts


class TestSolverSpans:
    def test_every_clean_attempt_carries_spans(self, observed):
        report, _, telemetry = observed
        assert len(telemetry.solver) == report.jobs
        assert all(v["events"] for v in telemetry.solver.values())

    def test_solver_timeline_tiles_the_service_slice(self, observed):
        """Solve model time == service time: the solver span timeline,
        offset by the attempt start, ends exactly at the attempt finish."""
        _, _, telemetry = observed
        spans = {
            (str(s["job"]), s["attempt"]): s for s in telemetry.attempt_spans()
        }
        for key, rec in telemetry.solver.items():
            job, attempt = key.split(":")
            s = spans[(job, int(attempt))]
            slice_dur = s["finish"] - s["start"]
            last = max(ev["ts"] + ev["dur"] for ev in rec["events"])
            assert math.isclose(last, slice_dur, rel_tol=1e-9)

    def test_first_attach_wins(self):
        telemetry = Telemetry()
        ev = [{"path": "/x", "name": "x", "depth": 0, "group_size": 1,
               "ts": 0.0, "dur": 1.0, "flops": 1.0, "words": 0.0,
               "mem_traffic": 0.0, "supersteps": 1, "ranks": None}]
        telemetry.attach_solver_spans("7", 0, 4, ev)
        telemetry.attach_solver_spans("7", 0, 8, [])
        assert telemetry.solver["7:0"]["p"] == 4
        assert len(telemetry.solver["7:0"]["events"]) == 1


# ------------------------------------------------------------------ #
# merged Perfetto export


class TestPerfetto:
    def test_flow_events_link_service_to_solver_tracks(self, observed):
        _, pool, telemetry = observed
        doc = merged_trace(telemetry, pool=pool)
        evs = doc["traceEvents"]
        starts = [e for e in evs if e["ph"] == "s"]
        finishes = [e for e in evs if e["ph"] == "f"]
        assert len(starts) == len(finishes) == len(telemetry.solver)
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        # the f-end binds enclosing so the arrow lands on the slice
        assert all(e.get("bp") == "e" for e in finishes)
        # service side on pid 0, solver side on a per-attempt pid
        assert all(e["pid"] == 0 for e in starts)
        assert all(e["pid"] >= 1000 for e in finishes)

    def test_machine_lanes_never_overlap(self, observed):
        _, pool, telemetry = observed
        doc = merged_trace(telemetry, pool=pool)
        by_tid: dict[int, list] = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X" and e["pid"] == 0:
                by_tid.setdefault(e["tid"], []).append((e["ts"], e["ts"] + e["dur"]))
        assert by_tid
        for slices in by_tid.values():
            slices.sort()
            for (_, end), (start, _) in zip(slices, slices[1:]):
                assert start >= end  # Chrome sync slices on a tid must nest

    def test_write_merged_trace(self, observed, tmp_path):
        _, pool, telemetry = observed
        path = write_trace(merged_trace(telemetry, pool=pool), tmp_path / "m.json")
        doc = json.loads(path.read_text())
        assert doc["otherData"]["solver_tracks"] == len(telemetry.solver)


# ------------------------------------------------------------------ #
# the gated document


class TestTelemetryDoc:
    def test_write_load_round_trip_exact(self, tdoc, tmp_path):
        path = write_telemetry(tdoc, tmp_path / "telemetry.json")
        assert load_telemetry(path) == tdoc
        assert check_telemetry(load_telemetry(path), tdoc) == []

    def test_check_flags_counter_drift(self, tdoc):
        import copy

        drifted = copy.deepcopy(tdoc)
        drifted["counters"]["dispatches"] += 1
        failures = check_telemetry(drifted, tdoc)
        assert failures and "counters" in failures[0]

    def test_check_names_event_kind_drift(self, tdoc):
        import copy

        drifted = copy.deepcopy(tdoc)
        drifted["events"]["by_kind"]["retry_fire"] = 5
        failures = check_telemetry(drifted, tdoc)
        assert any("by_kind" in f or "event counts" in f for f in failures)

    def test_version_mismatch_fails_loudly(self, tdoc):
        failures = check_telemetry({"version": 999}, tdoc)
        assert failures and "version" in failures[0]

    def test_missing_baseline_names_the_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="telemetry-out"):
            load_telemetry(tmp_path / "nope.json")


# ------------------------------------------------------------------ #
# ServeReport.summary round-tripping (satellite 2)


class TestSummaryRoundTrip:
    def _assert_native(self, value, path="$"):
        if isinstance(value, dict):
            for k, v in value.items():
                assert type(k) is str, f"non-str key at {path}: {k!r}"
                self._assert_native(v, f"{path}.{k}")
        elif isinstance(value, list):
            for i, v in enumerate(value):
                self._assert_native(v, f"{path}[{i}]")
        else:
            assert value is None or type(value) in (bool, int, float, str), (
                f"non-native {type(value).__name__} at {path}: {value!r}"
            )

    def test_summary_json_round_trip_is_ieee_exact(self, observed):
        report, _, _ = observed
        summary = report.summary()
        self._assert_native(summary)
        assert json.loads(json.dumps(summary)) == summary
        # and again through the on-disk formatting the bench writer uses
        assert json.loads(json.dumps(summary, indent=1, sort_keys=True)) == summary


# ------------------------------------------------------------------ #
# dashboard


class TestDash:
    def test_dash_contains_every_section(self, tdoc):
        html = build_dash_html(tdoc)
        for needle in (
            "viz-root", "Attempt timeline", "Queue depth", "SLO deadline",
            "chronology", "attempts table", "tile",
        ):
            assert needle in html
        assert "NaN" not in html and "Infinity" not in html

    def test_write_dash(self, tdoc, tmp_path):
        out = write_dash(tdoc, tmp_path / "dash.html", title="t")
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>") and "<title>t</title>" in text

    def test_dash_handles_an_empty_run(self):
        doc = build_telemetry_doc(Telemetry())
        html = build_dash_html(doc)
        assert "no attempts recorded" in html
        assert "no queue-depth samples" in html


# ------------------------------------------------------------------ #
# CLI plumbing (satellite 1: the shared exit-2 contract)


class TestCli:
    def test_dash_missing_telemetry_exits_2(self, tmp_path, capsys):
        rc = main(["dash", "--telemetry", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "no telemetry baseline" in capsys.readouterr().err

    def test_dash_renders_a_written_doc(self, tdoc, tmp_path, capsys):
        src = write_telemetry(tdoc, tmp_path / "telemetry.json")
        out = tmp_path / "dash.html"
        rc = main(["dash", "--telemetry", str(src), "--out", str(out)])
        assert rc == 0
        assert out.is_file()
        assert "flight recorder" in capsys.readouterr().out

    def test_serve_bench_missing_telemetry_baseline_exits_2(self, tmp_path, capsys):
        rc = main([
            "serve-bench", "--telemetry-only",
            "--telemetry-check", str(tmp_path / "nope.json"),
        ])
        assert rc == 2
        assert "no telemetry baseline" in capsys.readouterr().err

    def test_serve_bench_missing_serve_baseline_still_exits_2(self, tmp_path, capsys):
        rc = main(["serve-bench", "--check", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "no serve baseline" in capsys.readouterr().err
