"""Tests for span tracing, critical-path breakdowns and Chrome export.

Covers the recorder core (nesting, exclusive attribution, bit-exactness of
the breakdown against the global cost report on both engines), the
per-section profile a breakdown gives (calls, depth, per-rank values,
imbalance and the rendered table), the no-op disabled path, the Chrome
trace-event exporter, ``VerifiedMachine``'s per-span invariant checks, and
the engine-reset regression (the scalar store's old list-replacing
``reset`` left held per-rank references stale).
"""

import json

import numpy as np
import pytest

from repro.bench import per_rank_arrays, report_mismatches
from repro.bsp import BSPMachine, collectives
from repro.blocks.rect_qr import rect_qr
from repro.blocks.streaming import streaming_matmul
from repro.dist.grid import ProcGrid
from repro.trace import NULL_SPAN, SPAN_FIELDS, UNTRACED, chrome_trace, write_trace

from .conftest import make_machine

ENGINES = ("array", "scalar")


def _workload(machine: BSPMachine) -> None:
    """Small mixed workload: charges inside, outside, and between spans."""
    world = machine.world
    machine.charge_flops(world, 3.0)  # before any span -> untraced
    with machine.span("outer"):
        machine.charge_flops(world, 7.0)
        with machine.span("inner", group=world):
            collectives.allreduce(machine, world, 16.0)
        machine.charge_flops(world, 8.0)
        machine.superstep(world)
    machine.charge_comm_batch(world, 2.0, 2.0)  # after -> untraced
    machine.superstep(world)


class TestSpanRecorder:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_nested_paths_and_exclusive_attribution(self, engine):
        machine = BSPMachine(4, engine=engine, spans=True)
        _workload(machine)
        bd = machine.cost().by_span()
        paths = set(bd.paths())
        # allreduce opens its own span nested under outer/inner.
        assert {"outer", "outer/inner", "outer/inner/allreduce", UNTRACED} <= paths
        # outer's exclusive flops: 7 + 8 per rank (inner's excluded).
        outer = bd["outer"]
        assert outer.flops == 15.0
        assert bd["outer/inner"].flops == 0.0  # allreduce did the charging
        assert bd["outer/inner/allreduce"].flops > 0.0
        assert bd[UNTRACED].flops == 3.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_breakdown_is_bit_exact(self, engine):
        machine = BSPMachine(4, engine=engine, spans=True)
        _workload(machine)
        report = machine.cost()
        bd = report.by_span()
        assert bd.verify_exact() == []
        assert machine.spans.verify_attribution() == []
        # Row-ordered per-rank sums telescope to the report's arrays exactly.
        ranks = per_rank_arrays(report)
        for field in SPAN_FIELDS:
            total = bd.per_rank[bd.paths()[0]][field].copy()
            for path in bd.paths()[1:]:
                total = total + bd.per_rank[path][field]
            assert np.array_equal(total.astype(np.float64), ranks[field]), field

    def test_engines_agree_on_breakdown(self):
        rows = {}
        for engine in ENGINES:
            machine = BSPMachine(4, engine=engine, spans=True)
            _workload(machine)
            rows[engine] = machine.cost().by_span()
        a, s = rows["array"], rows["scalar"]
        assert a.paths() == s.paths()
        for ra, rs in zip(a.rows, s.rows):
            assert ra == rs

    def test_unbalanced_close_raises(self):
        machine = BSPMachine(2, spans=True)
        with pytest.raises(RuntimeError):
            machine.spans.close()

    def test_exception_closes_span(self):
        machine = BSPMachine(2, spans=True)
        with pytest.raises(ValueError, match="boom"):
            with machine.span("doomed"):
                machine.charge_flops(machine.world, 1.0)
                raise ValueError("boom")
        assert machine.spans.depth == 0
        bd = machine.cost().by_span()
        assert bd["doomed"].flops == 1.0

    def test_span_share_sums_to_one(self):
        machine = BSPMachine(4, spans=True)
        _workload(machine)
        bd = machine.cost().by_span()
        assert sum(r.share for r in bd.rows) == pytest.approx(1.0)
        assert bd.by_time()[0].time == max(r.time for r in bd.rows)


class TestSpanSections:
    """A span breakdown as a per-section cost profile: rows are exclusive,
    repeated spans accumulate, and per-rank statistics agree with the
    whole-run :class:`~repro.bsp.counters.CostReport`."""

    def test_attributes_charges_to_sections(self):
        m = BSPMachine(4, spans=True)
        with m.span("a"):
            m.charge_flops(0, 100.0)
        with m.span("b"):
            m.charge_comm(sends={0: 10.0}, recvs={1: 10.0})
            m.superstep()
        bd = m.cost().by_span()
        assert bd["a"].flops == 100.0
        assert bd["a"].words == 0.0
        # Rows are critical-path values (max over ranks): rank 0 sent 10
        # and rank 1 received 10, so the max is 10.
        assert bd["b"].words == 10.0
        assert bd["b"].supersteps == 1

    def test_repeated_sections_accumulate(self):
        m = BSPMachine(2, spans=True)
        for _ in range(3):
            with m.span("loop"):
                m.charge_flops(0, 1.0)
        bd = m.cost().by_span()
        assert bd["loop"].calls == 3
        assert bd["loop"].flops == 3.0

    def test_exception_inside_section_still_recorded(self):
        m = BSPMachine(1, spans=True)
        with pytest.raises(RuntimeError):
            with m.span("boom"):
                m.charge_flops(0, 7.0)
                raise RuntimeError("x")
        bd = m.cost().by_span()
        assert bd["boom"].calls == 1
        assert bd["boom"].flops == 7.0

    def test_nesting_depth_and_subtree_total(self):
        m = BSPMachine(2, spans=True)
        with m.span("outer"):
            m.charge_flops(0, 2.0)
            with m.span("inner"):
                m.charge_flops(0, 5.0)
        bd = m.cost().by_span()
        assert bd["outer"].depth == 0
        assert bd["outer/inner"].depth == 1
        # Rows are exclusive; the parent's inclusive total is its subtree sum.
        assert bd["outer"].flops == 2.0
        subtree = [r for r in bd if r.path == "outer" or r.path.startswith("outer/")]
        assert sum(r.total_flops for r in subtree) == 7.0

    def test_render_and_top(self):
        m = BSPMachine(4, spans=True)
        grid = ProcGrid(m, (2, 2, 1))
        rng = np.random.default_rng(0)
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 8))
        with m.span("mm"):
            streaming_matmul(m, grid, a, b)
        with m.span("qr"):
            rect_qr(m, m.world, rng.standard_normal((64, 8)))
        bd = m.cost().by_span()
        text = bd.render()
        assert "mm/streaming_mm" in text and "qr/rect_qr" in text and "share" in text
        assert bd.by_time()[0].path.split("/")[0] in ("mm", "qr")

    def test_section_imbalance_matches_cost_report(self):
        m = BSPMachine(4, spans=True)
        with m.span("everything"):
            m.charge_flops(0, 300.0)
            m.charge_flops(1, 100.0)
            m.charge_comm(sends={0: 10.0, 1: 30.0}, recvs={2: 40.0})
            m.superstep()
        report = m.cost()
        bd = report.by_span()
        for fld in ("flops", "words", "words_sent", "mem_traffic", "supersteps"):
            assert bd.imbalance("everything", fld) == report.imbalance(fld)
            assert bd.gini("everything", fld) == report.gini(fld)

    def test_section_rank_values_accumulate(self):
        m = BSPMachine(2, spans=True)
        for _ in range(2):
            with m.span("loop"):
                m.charge_flops(1, 5.0)
        vals = m.cost().by_span().rank_values("loop", "flops")
        assert list(vals) == [0.0, 10.0]

    def test_section_active_ranks_mask(self):
        m = BSPMachine(4, spans=True)
        with m.span("s"):
            m.charge_flops(2, 1.0)
        assert list(m.cost().by_span().active_ranks("s")) == [False, False, True, False]

    def test_render_shows_balance_columns(self):
        m = BSPMachine(2, spans=True)
        with m.span("s"):
            m.charge_flops(0, 30.0)
            m.charge_flops(1, 10.0)
        bd = m.cost().by_span()
        header, _, row = bd.render().splitlines()[1:4]
        assert header.split() == ["span", "calls", "F", "W", "Q", "S", "bal", "gini", "time", "share"]
        cells = row.split()
        assert cells[0] == "s"
        assert cells[6] == f"{bd.imbalance('s'):.2f}" == "1.50"
        assert cells[7] == f"{bd.gini('s'):.2f}"

    def test_idle_section_is_balanced(self):
        m = BSPMachine(2, spans=True)
        with m.span("idle"):
            pass
        bd = m.cost().by_span()
        assert bd.imbalance("idle") == 1.0 and bd.gini("idle") == 0.0
        assert list(bd.rank_values("idle")) == [0.0, 0.0]

    def test_rank_values_rejects_unknown_field(self):
        m = BSPMachine(2, spans=True)
        with m.span("s"):
            m.charge_flops(0, 1.0)
        with pytest.raises(ValueError):
            m.cost().by_span().rank_values("s", "bogus")


class TestDisabled:
    def test_disabled_machine_returns_null_span(self):
        machine = BSPMachine(4)
        assert machine.span("x") is NULL_SPAN
        with machine.span("x"):
            machine.charge_flops(machine.world, 1.0)
        assert machine.spans.events == []

    def test_disabled_report_has_no_breakdown(self):
        machine = BSPMachine(4)
        machine.charge_flops(machine.world, 1.0)
        with pytest.raises(ValueError, match="spans=True"):
            machine.cost().by_span()

    def test_env_var_enables_spans(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPANS", "1")
        assert BSPMachine(2).spans.enabled
        monkeypatch.setenv("REPRO_SPANS", "0")
        assert not BSPMachine(2).spans.enabled

    def test_disabled_costs_match_enabled(self):
        """Spans charge nothing: enabled and disabled runs cost the same."""
        reports = []
        for spans in (False, True):
            machine = BSPMachine(4, spans=spans)
            _workload(machine)
            reports.append(machine.cost())
        assert report_mismatches(reports[0], reports[1]) == []


class TestChromeExport:
    def test_trace_event_document(self, tmp_path):
        machine = BSPMachine(4, spans=True)
        _workload(machine)
        machine.cost()
        doc = chrome_trace(machine.spans)
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(metas) == 2
        assert len(xs) == len(machine.spans.events) > 0
        for e in xs:
            assert e["dur"] >= 0 and e["ts"] >= 0
            assert {"F", "W", "Q", "S", "path", "depth"} <= set(e["args"])
        # Children nest inside their parents' [ts, ts+dur] window.
        by_path = {e["args"]["path"]: e for e in xs}
        inner, outer = by_path["outer/inner"], by_path["outer"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

        path = write_trace(doc, tmp_path / "sub" / "t.json")
        loaded = json.loads(path.read_text())
        assert loaded["otherData"]["p"] == 4
        assert loaded["otherData"]["open_spans"] == []


class TestVerifiedSpans:
    def test_verified_machine_checks_each_span(self):
        from repro.lint.verify import VerifiedMachine

        machine = VerifiedMachine(4, spans=True)
        before = machine.checks_run
        with machine.span("ok"):
            machine.charge_flops(machine.world, 1.0)
        assert machine.checks_run > before
        assert machine.cost().by_span()["ok"].flops == 1.0

    def test_violation_is_pinned_to_the_span(self):
        from repro.lint.verify import BSPDisciplineError, VerifiedMachine

        machine = VerifiedMachine(4, spans=True)
        with pytest.raises(BSPDisciplineError, match=r"span\(lossy\)"):
            with machine.span("lossy"):
                machine.charge_comm(sends={0: 64.0})  # nothing received


class TestReset:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_reset_restores_engine_state(self, engine):
        """Regression: ScalarCounterStore.reset() replaced its rank list, so
        previously handed-out RankCounters kept pre-reset values and the two
        engines diverged after any mid-run reset."""
        machine = BSPMachine(4, engine=engine, spans=True)
        held = machine.counters[0]  # per-rank view taken BEFORE the reset
        _workload(machine)
        assert held.flops > 0.0
        machine.reset()
        assert held.flops == 0.0
        assert held.supersteps == 0
        assert machine.spans.events == [] and machine.spans.depth == 0

    def test_rerun_after_reset_is_bit_identical_across_engines(self):
        reports = {}
        for engine in ENGINES:
            machine = BSPMachine(4, engine=engine, spans=True)
            _ = machine.counters[0]  # hold a view across the reset
            _workload(machine)
            machine.reset()
            _workload(machine)
            reports[engine] = machine.cost()
        assert report_mismatches(reports["array"], reports["scalar"]) == []
        fresh = BSPMachine(4, spans=True)
        _workload(fresh)
        assert report_mismatches(reports["array"], fresh.cost()) == []


class TestDriverProperty:
    """Per-span deltas sum exactly to the global report, for every solver."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("solver", ["eig2p5d", "ca_sbr", "scalapack", "elpa"])
    def test_span_sums_equal_totals(self, engine, solver):
        from repro.eig.ca_sbr_solver import eigensolve_ca_sbr
        from repro.eig.driver import eigensolve_2p5d
        from repro.eig.elpa_like import eigensolve_elpa_like
        from repro.eig.scalapack_like import eigensolve_scalapack_like
        from repro.util.matrices import random_symmetric

        a = random_symmetric(32, seed=7)
        machine = make_machine(4, engine=engine, spans=True)
        if solver == "eig2p5d":
            eigensolve_2p5d(machine, a, delta=2.0 / 3.0)
        elif solver == "ca_sbr":
            eigensolve_ca_sbr(machine, a)
        elif solver == "scalapack":
            eigensolve_scalapack_like(machine, a)
        else:
            eigensolve_elpa_like(machine, a)
        report = machine.cost()
        bd = report.by_span()
        assert bd.open_paths == ()
        assert bd.verify_exact() == []
        assert machine.spans.verify_attribution() == []
        # The row-ordered per-rank sums telescope to the report's totals
        # exactly (same np.sum over bit-identical arrays).
        total = bd.per_rank[bd.paths()[0]]["flops"].copy()
        for path in bd.paths()[1:]:
            total = total + bd.per_rank[path]["flops"]
        assert float(np.sum(total)) == report.total_flops
