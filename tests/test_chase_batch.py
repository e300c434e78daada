"""Batched bulge-chase charging: schedule arrays, ChargeLog, tapes, engines.

The batched chase engines replace per-step Python charging with one
order-preserving flush per stage; the contract is **bit-identity** of the
resulting cost reports — per rank, on both counter engines — plus unchanged
band numerics.  These tests pin that contract at the unit level (schedule
arrays, :class:`~repro.bsp.batch.ChargeLog`, :class:`~repro.bsp.batch.KernelTape`,
window charge twins), at the stage level (band-to-band and CA-SBR), and at
the full-pipeline level at the benchmark's pinned (n=96, p=16).  Engine
resolution — and the fallback to the per-step path whenever any observer
(trace, spans, metrics, faults) is live — is covered alongside.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import report_mismatches
from repro.bsp import BSPMachine
from repro.bsp.batch import ChargeLog, FlatTape, KernelTape, batched_charging_ok
from repro.dist.banded import DistBandMatrix
from repro.eig.band_to_band import band_to_band_2p5d, resolve_chase_engine
from repro.eig.ca_sbr import ca_sbr_halve, ca_sbr_reduce
from repro.eig.schedule import pipeline_schedule, wave_sizes
from repro.linalg.sbr import WAVE_MIN_WIDTH, chase_step_arrays, chase_steps
from repro.util.matrices import random_banded_symmetric, random_symmetric

ENGINES = ("array", "scalar")

CONFIGS = [
    (32, 8, 4),
    (48, 8, 2),
    (64, 16, 8),
    (65, 16, 8),   # ragged: b does not divide n
    (96, 12, 3),
    (100, 14, 7),  # ragged both ways
]


# ------------------------------------------------------------------ #
# schedule arrays


class TestChaseStepArrays:
    @pytest.mark.parametrize("n,b,h", CONFIGS)
    def test_fields_match_step_enumeration(self, n, b, h):
        arrays = chase_step_arrays(n, b, h)
        steps = list(chase_steps(n, b, h))
        assert len(steps) == arrays["i"].size
        for field in ("i", "j", "oqr_r", "oqr_c", "nr", "ncols", "oup_c", "nc", "ov", "phase"):
            expected = np.array([getattr(s, field) for s in steps], dtype=np.int64)
            assert np.array_equal(arrays[field], expected), field

    @pytest.mark.parametrize("n,b,h", CONFIGS)
    def test_wave_sizes_match_pipeline_schedule(self, n, b, h):
        sizes = wave_sizes(n, b, h)
        sched = pipeline_schedule(n, b, h)
        assert sizes.sum() == sum(ph.concurrency for ph in sched)
        for ph in sched:
            assert sizes[ph.phase - 1] == ph.concurrency

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="need 1 <= h < b < n"):
            chase_step_arrays(32, 8, 8)


# ------------------------------------------------------------------ #
# ChargeLog


def _direct_workload(machine: BSPMachine) -> None:
    w = machine.world
    machine.charge_flops_batch(w, np.linspace(1.0, 2.0, w.size))
    machine.charge_flops(2, 7.0)
    machine.charge_comm(sends={0: 5.0, 1: 3.0}, recvs={2: 8.0})
    machine.mem_stream(1, 11.0)
    machine.superstep(w, 1)
    machine.superstep([0, 3], 2)
    machine.note_memory(w, 40.0)


def _logged_workload(machine: BSPMachine) -> None:
    w = machine.world
    log = ChargeLog(machine)
    log.charge_flops(w.indices(), np.linspace(1.0, 2.0, w.size))
    log.charge_flops(2, 7.0)
    log.charge_comm(np.array([0, 1]), np.array([5.0, 3.0]), np.array([2]), 8.0)
    log.mem_stream(1, 11.0)
    log.superstep(w.indices(), 1)
    log.superstep(np.array([0, 3]), 2)
    log.note_memory(w.indices(), 40.0)
    log.flush()


class TestChargeLog:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_flush_matches_direct_charges(self, engine):
        direct = BSPMachine(4, engine=engine)
        _direct_workload(direct)
        logged = BSPMachine(4, engine=engine)
        _logged_workload(logged)
        assert report_mismatches(direct.cost(), logged.cost()) == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_array_superstep_counts(self, engine):
        """Per-event int64 count arrays (from tape replay) add like scalars."""
        machine = BSPMachine(4, engine=engine)
        log = ChargeLog(machine)
        log._ss.append((np.array([0, 1, 1]), np.array([2, 1, 3], dtype=np.int64)))
        log.superstep(np.array([3]), 4)
        log.flush()
        ss = [machine.counters[r].supersteps for r in range(4)]
        assert ss == [2, 4, 0, 4]

    def test_flush_order_preserves_float_accumulation(self):
        """Same per-rank addition order => bit-identical float sums."""
        amounts = [0.1, 1e16, 0.1, -0.0, 3.7, 1e-8]
        direct = BSPMachine(2)
        for a in amounts:
            direct.charge_flops(0, abs(a))
        logged = BSPMachine(2)
        log = ChargeLog(logged)
        for a in amounts:
            log.charge_flops(0, abs(a))
        log.flush()
        assert (
            direct.counters.field_array("flops")[0]
            == logged.counters.field_array("flops")[0]
        )

    def test_negative_amounts_rejected(self):
        machine = BSPMachine(2)
        log = ChargeLog(machine)
        log.charge_flops(0, -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            log.flush()
        log = ChargeLog(machine)
        log.charge_comm(np.array([0]), -2.0, np.array([1]), 2.0)
        with pytest.raises(ValueError, match="nonnegative"):
            log.flush()

    def test_flush_clears_pending_events(self):
        machine = BSPMachine(2)
        log = ChargeLog(machine)
        log.charge_flops(0, 5.0)
        log.flush()
        log.flush()  # no pending events: must not double-charge
        assert machine.counters.field_array("flops")[0] == 5.0


# ------------------------------------------------------------------ #
# KernelTape


class TestKernelTape:
    @pytest.mark.parametrize("kind", ["rect_qr", "carma"])
    def test_replay_matches_direct_kernel(self, kind, rng):
        from repro.blocks.matmul import carma_matmul
        from repro.blocks.rect_qr import rect_qr

        direct = BSPMachine(8)
        group = direct.world
        if kind == "rect_qr":
            rect_qr(direct, group, rng.standard_normal((32, 8)), charge_redistribution=False)
        else:
            carma_matmul(direct, group, rng.standard_normal((24, 16)),
                         rng.standard_normal((16, 8)),
                         charge_redistribution=False)

        replayed = BSPMachine(8)
        tape = KernelTape(replayed)
        log = ChargeLog(replayed)
        if kind == "rect_qr":
            tape.rect_qr(log, 32, 8, replayed.world)
        else:
            tape.carma(log, 24, 16, 8, replayed.world)
        log.flush()
        assert report_mismatches(direct.cost(), replayed.cost()) == []

    def test_tape_is_memoized_across_instances(self):
        from repro.bsp.batch import _TAPE_CACHE

        m = BSPMachine(8)
        log = ChargeLog(m)
        KernelTape(m).carma(log, 12, 12, 6, m.world)
        key = (m.p, repr(m.params), "carma", 12, 12, 6, m.world.ranks)
        first = _TAPE_CACHE[key]
        KernelTape(m).carma(log, 12, 12, 6, m.world)
        assert _TAPE_CACHE[key] is first
        assert isinstance(first, FlatTape)


# ------------------------------------------------------------------ #
# batched window charge twins


class TestBatchedWindowCharges:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_fetch_and_store_twins_match(self, engine):
        a = random_banded_symmetric(32, 6, seed=5)
        rows, cols = slice(8, 14), slice(4, 10)

        perstep = BSPMachine(8, engine=engine)
        band = DistBandMatrix(perstep, a.copy(), 6, perstep.world)
        grp = perstep.world.take(4)
        win = band.fetch_window(rows, cols, grp)
        band.charge_store(rows, cols, grp)

        batched = BSPMachine(8, engine=engine)
        band2 = DistBandMatrix(batched, a.copy(), 6, batched.world)
        grp2 = batched.world.take(4)
        log = ChargeLog(batched)
        win2 = band2.fetch_window_batched(log, rows, cols, grp2)
        band2.charge_store_batched(log, rows, cols, grp2)
        log.flush()

        assert np.array_equal(win, win2)
        assert report_mismatches(perstep.cost(), batched.cost()) == []


# ------------------------------------------------------------------ #
# engine resolution


class TestEngineResolution:
    def test_auto_picks_batched_on_plain_machine(self):
        m = BSPMachine(4)
        assert batched_charging_ok(m)
        assert resolve_chase_engine(m) == "batched"

    @pytest.mark.parametrize("observer", ["spans", "metrics", "faults"])
    def test_auto_falls_back_under_observation(self, observer):
        if observer == "faults":
            from repro.faults import FaultPlan, FaultSpec, FaultyMachine

            m = FaultyMachine(4, plan=FaultPlan(FaultSpec(), seed=0))
        else:
            m = BSPMachine(4, **{observer: True})
        assert not batched_charging_ok(m)
        assert resolve_chase_engine(m) == "perstep"

    def test_verified_machine_falls_back(self):
        from repro.lint.verify import VerifiedMachine

        assert resolve_chase_engine(VerifiedMachine(4)) == "perstep"

    def test_env_var_overrides_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHASE_ENGINE", "perstep")
        assert resolve_chase_engine(BSPMachine(4)) == "perstep"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHASE_ENGINE", "perstep")
        assert resolve_chase_engine(BSPMachine(4), "batched") == "batched"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown chase engine"):
            resolve_chase_engine(BSPMachine(4), "simd")


# ------------------------------------------------------------------ #
# stage-level identity: per-step vs batched, both counter engines


def _b2b_run(counter_engine: str, chase_engine: str, n=64, b=8, p=16):
    a = random_banded_symmetric(n, b, seed=9)
    machine = BSPMachine(p, engine=counter_engine)
    band = DistBandMatrix(machine, a, b, machine.world)
    out = band_to_band_2p5d(machine, band, k=2, chase_engine=chase_engine)
    return machine.cost(), out.data.copy()


def _sbr_run(counter_engine: str, chase_engine: str, n=64, b=8, p=8, monkeypatch=None):
    a = random_banded_symmetric(n, b, seed=9)
    machine = BSPMachine(p, engine=counter_engine)
    band = DistBandMatrix(machine, a, b, machine.world)
    # CA-SBR resolves its engine from the environment / machine state only.
    monkeypatch.setenv("REPRO_CHASE_ENGINE", chase_engine)
    out = ca_sbr_halve(machine, band)
    return machine.cost(), out.data.copy()


class TestStageIdentity:
    @pytest.mark.parametrize("counter_engine", ENGINES)
    def test_band_to_band_batched_is_bit_identical(self, counter_engine):
        ref_cost, ref_data = _b2b_run(counter_engine, "perstep")
        bat_cost, bat_data = _b2b_run(counter_engine, "batched")
        assert report_mismatches(ref_cost, bat_cost) == []
        assert np.array_equal(ref_data, bat_data)

    @pytest.mark.parametrize("counter_engine", ENGINES)
    def test_ca_sbr_batched_is_bit_identical(self, counter_engine, monkeypatch):
        ref_cost, ref_data = _sbr_run(counter_engine, "perstep", monkeypatch=monkeypatch)
        bat_cost, bat_data = _sbr_run(counter_engine, "batched", monkeypatch=monkeypatch)
        assert report_mismatches(ref_cost, bat_cost) == []
        assert np.array_equal(ref_data, bat_data)

    @pytest.mark.parametrize("counter_engine", ENGINES)
    def test_ca_sbr_reduce_above_wave_crossover_is_bit_identical(self, counter_engine, monkeypatch):
        """Both engines share the wave-stacked numerics, so band data,
        spectra and cost reports agree exactly where the waves stack."""
        n, b = 256, 8
        for bw in (8, 4):
            sizes = wave_sizes(n, bw, bw // 2)
            assert sizes.sum() / np.count_nonzero(sizes) >= WAVE_MIN_WIDTH
        a = random_banded_symmetric(n, b, seed=11)
        runs = {}
        for chase_engine in ("perstep", "batched"):
            monkeypatch.setenv("REPRO_CHASE_ENGINE", chase_engine)
            machine = BSPMachine(8, engine=counter_engine)
            out = ca_sbr_reduce(machine, DistBandMatrix(machine, a.copy(), b, machine.world), 2)
            runs[chase_engine] = (machine.cost(), out.data.copy())
        (ref_cost, ref_data), (bat_cost, bat_data) = runs["perstep"], runs["batched"]
        assert report_mismatches(ref_cost, bat_cost) == []
        assert np.array_equal(ref_data, bat_data)
        assert np.array_equal(np.linalg.eigvalsh(ref_data), np.linalg.eigvalsh(bat_data))

    def test_batched_rejected_configs_match_perstep(self):
        """Both engines validate k the same way."""
        a = random_banded_symmetric(32, 6, seed=1)
        for chase_engine in ("perstep", "batched"):
            m = BSPMachine(8)
            band = DistBandMatrix(m, a.copy(), 6, m.world)
            with pytest.raises(ValueError, match="must divide"):
                band_to_band_2p5d(m, band, k=4, chase_engine=chase_engine)


# ------------------------------------------------------------------ #
# full-pipeline identity at the benchmark's pinned instance


class TestPipelineIdentity:
    def test_eig_n96_p16_all_engine_pairings_identical(self):
        """The pinned bench case: cost reports must be byte-identical across
        {array, scalar} x {perstep, batched} — per rank, not just aggregate."""
        from repro.eig import eigensolve_2p5d

        a = random_symmetric(96, seed=3)
        reports = {}
        for counter_engine in ENGINES:
            for chase_engine in ("perstep", "batched"):
                m = BSPMachine(16, engine=counter_engine)
                eigensolve_2p5d(m, a.copy(), delta=2.0 / 3.0)
                reports[(counter_engine, chase_engine)] = m.cost()
        ref = reports[("array", "perstep")]
        for key, rep in reports.items():
            assert report_mismatches(ref, rep) == [], key

    def test_eig_n96_p16_matches_committed_baseline(self):
        """The live pinned cost equals the committed BENCH_engine.json entry
        (the bench CI gate asserts the same; this keeps it tier-1)."""
        import json
        from pathlib import Path

        from repro.bench import cost_dict, run_eig

        baseline_path = Path(__file__).resolve().parents[1] / "BENCH_engine.json"
        if not baseline_path.is_file():
            pytest.skip("no committed BENCH_engine.json")
        baseline = json.loads(baseline_path.read_text())
        report, _wall = run_eig("array")
        assert cost_dict(report) == baseline["cases"]["eig_n96_p16"]["cost"]


# ------------------------------------------------------------------ #
# observed runs: the batched engine yields, artifacts stay exact


class TestObservedRuns:
    def test_faulty_run_takes_perstep_path_and_keeps_spans_exact(self):
        """A live fault injector disables batching (auto -> perstep); per-span
        sums still reproduce the global report bit-for-bit.  (Recovery-loop
        span exactness under actual injected faults is pinned in
        test_faults.py; here the injector is armed but silent so the stage
        runs to completion without a retry harness.)"""
        from repro.faults import SCENARIOS, FaultPlan, FaultyMachine

        a = random_banded_symmetric(48, 8, seed=2)
        machine = FaultyMachine(
            8, plan=FaultPlan(SCENARIOS["clean"], seed=4), spans=True
        )
        assert resolve_chase_engine(machine) == "perstep"
        band = DistBandMatrix(machine, a, 8, machine.world)
        band_to_band_2p5d(machine, band, k=2)
        bd = machine.cost().by_span()
        assert bd.open_paths == ()
        assert bd.verify_exact() == []

    def test_span_run_costs_match_unobserved_batched_run(self):
        """Spans change *where* charges are attributed, never their values:
        an observed (per-step) run and a batched run agree on every counter."""
        a = random_banded_symmetric(48, 8, seed=2)
        observed = BSPMachine(8, spans=True)
        band = DistBandMatrix(observed, a.copy(), 8, observed.world)
        band_to_band_2p5d(observed, band, k=2)

        plain = BSPMachine(8)
        band2 = DistBandMatrix(plain, a.copy(), 8, plain.world)
        band_to_band_2p5d(plain, band2, k=2, chase_engine="batched")
        assert report_mismatches(observed.cost(), plain.cost()) == []
