"""Tests for the batched eigensolver service (``repro.serve``)."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.bsp.params import MachineParams
from repro.cli import main
from repro.serve import (
    EigenService,
    MachinePool,
    TuningCache,
    Workload,
    mixed_workload,
    plan_job,
    scf_trace,
    verify_against_single_shot,
    zipf_stream,
)
from repro.serve import bench as serve_bench
from repro.util.matrices import random_symmetric
from repro.util.validation import reference_spectrum_error

from tests.scheduler_oracle import schedule_jobs

PARAMS = serve_bench.SERVE_PARAMS

#: a miniature pinned suite so gate tests run in seconds, not minutes
TINY_PINNED = {
    "pool": {"machines": 2, "p": 8},
    "workload": {
        "total_jobs": 12,
        "seed": 3,
        "scf_iterations": 2,
        "kpoint_sizes": [12, 16],
        "zipf_mean_gap": 2.0e4,
    },
    "profile": {
        "gamma": 1.0, "beta": 20.0, "nu": 2.0, "alpha": 3000.0,
        "memory_words": float(2**20), "cache_words": None,
    },
    "algorithm": "eig2p5d",
    "calibration": {"n": 16, "p": 2, "delta": 0.5, "seed": 123, "repeats": 1},
}


def small_workload(jobs=8, seed=5):
    return mixed_workload(
        total_jobs=jobs, seed=seed, scf_iterations=1, kpoint_sizes=(12, 16)
    )


# ------------------------------------------------------------------ #
# workload generation


class TestWorkload:
    def test_generation_is_deterministic(self):
        a = mixed_workload(total_jobs=40, seed=7)
        b = mixed_workload(total_jobs=40, seed=7)
        assert a.jobs == b.jobs
        c = mixed_workload(total_jobs=40, seed=8)
        assert a.jobs != c.jobs

    def test_arrivals_sorted_and_ids_sequential(self):
        w = mixed_workload(total_jobs=50, seed=1)
        arrivals = [j.arrival for j in w.jobs]
        assert arrivals == sorted(arrivals)
        assert [j.job_id for j in w.jobs] == list(range(50))
        assert len({j.seed for j in w.jobs}) == 50  # distinct matrices

    def test_scf_trace_repeats_shapes_across_iterations(self):
        w = scf_trace(iterations=3, kpoint_sizes=(24, 32), seed=0)
        assert len(w) == 6
        assert sorted(w.sizes().items()) == [(24, 3), (32, 3)]

    def test_zipf_stream_favours_small_sizes(self):
        w = zipf_stream(jobs=300, sizes=(8, 16, 96), seed=2)
        sizes = w.sizes()
        assert sizes[8] > sizes.get(96, 0)

    def test_json_round_trip(self, tmp_path):
        w = mixed_workload(total_jobs=20, seed=9, scf_iterations=2)
        path = w.write(tmp_path / "trace.json")
        again = Workload.load(path)
        assert again.jobs == w.jobs
        assert again.descriptor == w.descriptor

    def test_total_smaller_than_scf_trace_rejected(self):
        with pytest.raises(ValueError, match="smaller than the SCF trace"):
            mixed_workload(total_jobs=3, scf_iterations=6)


# ------------------------------------------------------------------ #
# scheduler


class TestScheduler:
    def make_pool(self, machines=2, p=8):
        return MachinePool(machines, p, PARAMS)

    def test_capacity_never_exceeded(self):
        pool = self.make_pool(machines=2, p=8)
        reqs = [(i, float(i % 3), 1 + (i % 8), 50.0) for i in range(40)]
        sched = schedule_jobs(reqs, pool)
        assert len(sched.jobs) == 40
        # sweep every (start, finish) boundary: per-machine rank usage <= p
        times = sorted({j.start for j in sched.jobs} | {j.finish for j in sched.jobs})
        for t in times:
            for m in pool:
                used = sum(
                    j.p
                    for j in sched.jobs
                    if j.machine_id == m.machine_id and j.start <= t < j.finish
                )
                assert used <= m.p

    def test_start_never_before_arrival(self):
        sched = schedule_jobs(
            [(0, 10.0, 4, 5.0), (1, 0.0, 4, 5.0)], self.make_pool()
        )
        for j in sched.jobs:
            assert j.start >= j.arrival
            assert j.finish - j.start == pytest.approx(5.0)
            assert j.latency == pytest.approx(j.queue_wait + 5.0)

    def test_small_jobs_share_one_machine(self):
        pool = self.make_pool(machines=2, p=8)
        # two 4-rank jobs arriving together pack onto machine 0 (best fit)
        sched = schedule_jobs([(0, 0.0, 4, 100.0), (1, 0.0, 4, 100.0)], pool)
        assert {j.machine_id for j in sched.jobs} == {0}
        assert all(j.start == 0.0 for j in sched.jobs)

    def test_grid_job_gets_dedicated_machine(self):
        pool = self.make_pool(machines=2, p=8)
        sched = schedule_jobs(
            [(0, 0.0, 8, 100.0), (1, 1.0, 8, 100.0), (2, 2.0, 8, 100.0)], pool
        )
        by_id = {j.job_id: j for j in sched.jobs}
        assert by_id[0].machine_id != by_id[1].machine_id
        assert by_id[2].start == pytest.approx(100.0)  # waits for a drain

    def test_backfill_around_blocked_head(self):
        pool = self.make_pool(machines=1, p=8)
        # job 0 occupies the machine; job 1 (8 ranks) must wait; job 2
        # (1 rank) backfills around it instead of queueing behind
        sched = schedule_jobs(
            [(0, 0.0, 7, 100.0), (1, 1.0, 8, 10.0), (2, 2.0, 1, 10.0)], pool
        )
        by_id = {j.job_id: j for j in sched.jobs}
        assert by_id[2].start == pytest.approx(2.0)
        assert by_id[1].start >= 100.0

    def test_oversized_job_rejected(self):
        with pytest.raises(ValueError, match="largest pool machine"):
            schedule_jobs([(0, 0.0, 16, 1.0)], self.make_pool(machines=2, p=8))

    def test_utilization_and_percentiles(self):
        pool = self.make_pool(machines=1, p=2)
        sched = schedule_jobs([(0, 0.0, 2, 10.0), (1, 0.0, 2, 10.0)], pool)
        assert sched.makespan == pytest.approx(20.0)
        assert sched.utilization == pytest.approx(1.0)
        assert sched.percentile(50) == pytest.approx(10.0)
        assert sched.percentile(99) == pytest.approx(20.0)

    def test_empty_schedule(self):
        sched = schedule_jobs([], self.make_pool())
        assert sched.makespan == 0.0 and sched.utilization == 0.0
        assert sched.summary()["latency_p99"] == 0.0


# ------------------------------------------------------------------ #
# planner + service


class TestService:
    def test_regime_routing_varies_with_n(self):
        cache = TuningCache()
        small, _ = plan_job(cache, 8, 16, PARAMS)
        large, _ = plan_job(cache, 96, 16, PARAMS)
        assert small.p < large.p
        assert small.regime == "replicated"
        assert large.p == 16 and large.regime == "grid"

    def test_served_spectra_byte_identical_to_single_shot(self):
        pool = MachinePool(2, 8, PARAMS)
        service = EigenService(pool, TuningCache())
        report = service.run_workload(small_workload())
        assert report.ok_jobs == report.jobs
        assert verify_against_single_shot(report.results, PARAMS) == []

    def test_repeat_shapes_hit_the_plan_cache_in_pass(self):
        pool = MachinePool(2, 8, PARAMS)
        service = EigenService(pool, TuningCache())
        report = service.run_workload(
            scf_trace(iterations=3, kpoint_sizes=(12, 16), seed=4)
        )
        # 2 distinct shapes over 6 jobs: 4 of 6 plans are repeats
        assert report.plan_hits == 4

    def test_warm_cache_plans_everything_from_disk(self, tmp_path):
        path = tmp_path / "cache.json"
        workload = small_workload()
        pool = MachinePool(2, 8, PARAMS)
        cold = EigenService(pool, TuningCache(path)).run_workload(workload)
        warm = EigenService(pool, TuningCache(path)).run_workload(workload)
        assert warm.plan_hit_rate == 1.0
        assert cold.plan_hit_rate < 1.0
        for a, b in zip(cold.results, warm.results):
            assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_multiprocessing_workers_match_inline(self):
        workload = small_workload(jobs=6)
        pool = MachinePool(2, 8, PARAMS)
        inline = EigenService(pool, TuningCache()).run_workload(workload)
        forked = EigenService(pool, TuningCache(), workers=2).run_workload(workload)
        assert forked.ok_jobs == inline.ok_jobs == 6
        for a, b in zip(inline.results, forked.results):
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert a.sim_cost == b.sim_cost

    def test_faulted_jobs_never_silently_wrong(self):
        pool = MachinePool(2, 8, PARAMS)
        service = EigenService(
            pool, TuningCache(), faults="chaos", fault_seed0=100
        )
        report = service.run_workload(small_workload(jobs=6, seed=13))
        assert report.jobs == 6
        for r in report.results:
            if r.ok:
                a = random_symmetric(r.n, seed=r.seed)
                assert reference_spectrum_error(a, r.eigenvalues) < 1e-6
            else:
                assert r.error_type  # typed, never a bare failure

    def test_stacked_finish_matches_single_shot_in_both_worker_modes(self, monkeypatch):
        from repro.serve import service as svc

        workload = scf_trace(iterations=3, kpoint_sizes=(8, 12, 16), seed=2)
        assert all(count >= 3 for count in workload.sizes().values())
        stacks = []
        real = svc.sturm_bisection_eigenvalues

        def recording(d, e, *args, **kwargs):
            stacks.append(np.shape(d))
            return real(d, e, *args, **kwargs)

        monkeypatch.setattr(svc, "sturm_bisection_eigenvalues", recording)
        pool = MachinePool(2, 8, PARAMS)
        inline = EigenService(pool, TuningCache()).run_workload(workload)
        assert inline.ok_jobs == inline.jobs
        assert verify_against_single_shot(inline.results, PARAMS) == []
        # one stacked bisection per plan (one plan per size), three lanes each
        assert sorted(stacks) == [(3, 8), (3, 12), (3, 16)]
        forked = EigenService(pool, TuningCache(), workers=2).run_workload(workload)
        for a, b in zip(inline.results, forked.results):
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert a.sim_cost == b.sim_cost
        assert serve_bench.deterministic_summary(
            forked.summary()
        ) == serve_bench.deterministic_summary(inline.summary())

    def test_faulted_payloads_finish_guarded_in_place(self, monkeypatch):
        from repro.eig import driver
        from repro.serve import service as svc

        guarded = []
        real_guard = driver.guard_spectrum

        def recording_guard(machine, evals, n, root):
            real_guard(machine, evals, n, root)
            guarded.append(np.array(evals))

        stacks = []
        real_sturm = svc.sturm_bisection_eigenvalues

        def recording_sturm(d, e, *args, **kwargs):
            stacks.append(np.shape(d))
            return real_sturm(d, e, *args, **kwargs)

        monkeypatch.setattr(driver, "guard_spectrum", recording_guard)
        monkeypatch.setattr(svc, "sturm_bisection_eigenvalues", recording_sturm)
        service = EigenService(
            MachinePool(2, 8, PARAMS), TuningCache(), faults="chaos", fault_seed0=100
        )
        workload = scf_trace(iterations=3, kpoint_sizes=(8, 12, 16), seed=2)
        report = service.run_workload(workload)
        assert report.jobs == len(workload.jobs)
        assert guarded
        # faulted attempts never join a stack; only the clean replicated
        # fallback reaches the service's bisection, one job at a time
        assert all(shape[0] == 1 for shape in stacks)
        for r in report.results:
            if not r.ok:
                assert r.error_type  # typed, never a bare failure
                continue
            a = random_symmetric(r.n, seed=r.seed)
            assert reference_spectrum_error(a, r.eigenvalues) < 1e-6
            if not r.degraded:
                # served exactly the spectrum its own finish guarded
                assert any(np.array_equal(r.eigenvalues, g) for g in guarded)

    def test_escalation_ladder_ends_replicated(self):
        """The retry ladder: primary → same-plan → grid-shrink → replicated."""
        pool = MachinePool(2, 8, PARAMS)
        service = EigenService(pool, TuningCache(), faults="chaos")
        spec = small_workload(jobs=6).jobs[0]
        plan, _ = service.plan(96)  # a grid-routed shape (p = 8)
        rungs = [service._rung_for(plan, spec, k) for k in range(5)]
        assert [r.kind for r in rungs] == [
            "primary", "same-plan", "grid-shrink", "replicated", "replicated"
        ]
        assert rungs[0].p == plan.p and rungs[1].p == plan.p
        assert rungs[2].p == plan.p // 2
        assert rungs[3].p == 1

    def test_typed_error_retried_without_fault_config(self):
        """Recovery must not be gated on fault injection being configured:
        a flaky-machine scenario produces typed errors while ``faults`` is
        unset, and every job still lands ok/degraded via the ladder."""
        pool = MachinePool(2, 8, PARAMS)
        service = EigenService(pool, TuningCache(), scenario="flaky-machine")
        assert service.faults is None
        report = service.run_workload(small_workload(jobs=8, seed=23))
        assert report.resilience["dispositions"]["error"] == 0
        assert report.ok_jobs == report.jobs
        # the flaky machine actually flaked — recovery did real work
        assert report.resilience["retries"] > 0
        assert verify_against_single_shot(report.results, PARAMS) == []


# ------------------------------------------------------------------ #
# bench suite + gate


@pytest.fixture(scope="module")
def tiny_doc(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve_suite")
    return serve_bench.run_serve_suite(
        cache_path=tmp / "cache.json",
        trace_path=tmp / "trace.json",
        pinned=TINY_PINNED,
        log=lambda _: None,
    )


class TestServeSuite:
    def test_three_pass_doc_shape(self, tiny_doc):
        assert set(tiny_doc["passes"]) == {"cold", "warm", "edf"}
        assert tiny_doc["verify"]["mismatches"] == []
        assert tiny_doc["verify"]["warm_identical"] is True
        assert tiny_doc["verify"]["identical"] == {"warm": True, "edf": True}
        assert tiny_doc["passes"]["warm"]["plan_hit_rate"] == 1.0
        assert tiny_doc["calibration_wall_s"] > 0.0
        for entry in tiny_doc["passes"].values():
            assert entry["resilience"]["dispositions"]["error"] == 0
            assert set(entry["slo"]) <= {"interactive", "batch", "best-effort"}

    def test_gate_passes_against_itself(self, tiny_doc):
        assert serve_bench.check_serve(tiny_doc, copy.deepcopy(tiny_doc)) == []

    def test_gate_rejects_pinned_drift(self, tiny_doc):
        other = copy.deepcopy(tiny_doc)
        other["pinned"]["workload"]["seed"] = 999
        failures = serve_bench.check_serve(tiny_doc, other)
        assert len(failures) == 1 and "pinned" in failures[0]

    def test_gate_enforces_hit_rate_floor(self, tiny_doc):
        fresh = copy.deepcopy(tiny_doc)
        fresh["passes"]["warm"]["plan_hit_rate"] = 0.5
        failures = serve_bench.check_serve(fresh, tiny_doc)
        assert any("hit rate" in f and "80%" in f for f in failures)

    def test_gate_flags_simulated_drift_exactly(self, tiny_doc):
        fresh = copy.deepcopy(tiny_doc)
        fresh["passes"]["cold"]["sim_totals"]["flops"] += 1.0
        failures = serve_bench.check_serve(fresh, tiny_doc)
        assert any("simulated-result drift" in f for f in failures)

    def test_throughput_failure_is_retryable_wall_clock(self, tiny_doc):
        """The retry contract: wall-only failures say 'wall-clock regression'."""
        fresh = copy.deepcopy(tiny_doc)
        for entry in fresh["passes"].values():
            entry["jobs_per_s"] = 1e-6
        failures = serve_bench.check_serve(fresh, tiny_doc)
        assert failures
        assert all("wall-clock regression" in f for f in failures)

    def test_throughput_gate_is_host_calibrated(self, tiny_doc):
        # a host 10x slower overall (calibration and throughput alike) passes
        fresh = copy.deepcopy(tiny_doc)
        fresh["calibration_wall_s"] = tiny_doc["calibration_wall_s"] * 10.0
        for label, entry in fresh["passes"].items():
            entry["jobs_per_s"] = tiny_doc["passes"][label]["jobs_per_s"] / 10.0
        assert serve_bench.check_serve(fresh, tiny_doc) == []

    def test_gate_flags_attainment_drift(self, tiny_doc):
        fresh = copy.deepcopy(tiny_doc)
        fresh["attainment"] = {"tampered": {}}
        failures = serve_bench.check_serve(fresh, tiny_doc)
        assert any("attainment" in f for f in failures)


class TestSoak:
    def test_soak_invariants_hold(self, tmp_path):
        doc = serve_bench.run_soak(
            jobs=12, seed=21,
            journal_path=tmp_path / "journal.jsonl", log=lambda _: None,
        )
        assert doc["jobs"] == 12
        assert doc["silent_wrong"] == []
        assert doc["no_job_lost"] is True
        assert doc["deterministic"] is True
        assert doc["ok"] + doc["typed_errors"] + doc["shed"] == doc["jobs"]

    def test_soak_rejects_unknown_scenario(self, tmp_path):
        with pytest.raises(ValueError, match="unknown soak scenario"):
            serve_bench.run_soak(
                jobs=4, scenario="nope",
                journal_path=tmp_path / "j.jsonl", log=lambda _: None,
            )


# ------------------------------------------------------------------ #
# CLI


class TestServeCli:
    def test_serve_bench_and_check_round_trip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(serve_bench, "PINNED", TINY_PINNED)
        # the 12-job suite's wall clock is all process jitter; the gate's
        # throughput tolerance is exercised in TestServeSuite — relax it
        # here so this test only checks the CLI wiring
        real_check = serve_bench.check_serve
        monkeypatch.setattr(
            serve_bench,
            "check_serve",
            lambda fresh, baseline, wall_tolerance=100.0: real_check(
                fresh, baseline, 100.0
            ),
        )
        base = tmp_path / "BENCH_serve.json"
        argv = [
            "serve-bench",
            "--out", str(base),
            "--cache", str(tmp_path / "cache.json"),
            "--trace-out", str(tmp_path / "trace.json"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "eigensolver service benchmark" in out
        assert (tmp_path / "trace.json").is_file()
        assert json.loads(base.read_text())["verify"]["mismatches"] == []

        assert main(argv + ["--check", str(base), "--out", str(tmp_path / "f.json")]) == 0
        assert "baseline check passed" in capsys.readouterr().out

    def test_serve_bench_missing_baseline_exits_2(self, tmp_path, capsys):
        rc = main(["serve-bench", "--check", str(tmp_path / "absent.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "absent.json" in err and "Traceback" not in err

    def test_serve_soak_cli(self, tmp_path, capsys):
        rc = main([
            "serve-bench", "--soak", "--soak-jobs", "12",
            "--soak-out", str(tmp_path / "soak.json"),
            "--journal", str(tmp_path / "journal.jsonl"),
        ])
        assert rc == 0
        assert "soak invariants hold" in capsys.readouterr().out
        doc = json.loads((tmp_path / "soak.json").read_text())
        assert doc["silent_wrong"] == []
        assert doc["no_job_lost"] is True
        assert (tmp_path / "journal.jsonl").is_file()

    def test_bench_missing_baseline_exits_2(self, tmp_path, capsys):
        rc = main(["bench", "--check", str(tmp_path / "absent.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "absent.json" in err and "Traceback" not in err

    def test_metrics_missing_baseline_exits_2(self, tmp_path, capsys):
        rc = main(["metrics", "--check", str(tmp_path / "absent.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "absent.json" in err and "Traceback" not in err

    def test_metrics_corrupt_baseline_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        rc = main(["metrics", "--check", str(bad)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err
