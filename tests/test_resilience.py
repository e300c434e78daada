"""Tests for the service resilience layer (``repro.serve.resilience``).

The event loop is exercised with synthetic rung/outcome callbacks — no
eigensolves — so every mechanism (deadlines, retries, quarantine,
hedging, shedding) is tested in isolation and in milliseconds.  The
integration with real solves is covered by ``tests/test_serve.py`` and
``tests/test_journal.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.serve.pool import MachinePool
from repro.serve.resilience import (
    DEFAULT_POLICY,
    SERVICE_SCENARIOS,
    SLO_CLASSES,
    AdmissionPolicy,
    AttemptOutcome,
    HedgePolicy,
    QuarantinePolicy,
    ResiliencePolicy,
    RetryPolicy,
    Rung,
    ServiceScenario,
    SimJob,
    _hash01,
    deadline_for,
    run_resilient,
    slo_summary,
)

from tests.scheduler_oracle import schedule_jobs

RUNG = Rung(1, 0.5, "primary")


def ok_outcome(service=10.0):
    def outcome_for(job_id, rung, attempt, machine_id):
        return AttemptOutcome(ok=True, service_time=service, sim_cost={"flops": 1.0})
    return outcome_for


def rung_ladder(job_id, failures):
    """A standard 1-rank ladder: primary, then escalating retries."""
    kinds = ["primary", "same-plan", "grid-shrink", "replicated"]
    return Rung(1, 0.5, kinds[min(failures, 3)])


NO_HEDGE = ResiliencePolicy(hedge=HedgePolicy(enabled=False))


# ------------------------------------------------------------------ #
# deterministic draws / policies


class TestPolicies:
    def test_hash01_is_deterministic_and_uniform_range(self):
        draws = [_hash01(i, 7) for i in range(1000)]
        assert draws == [_hash01(i, 7) for i in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.4 < sum(draws) / len(draws) < 0.6  # roughly uniform

    def test_retry_backoff_grows_exponentially_with_bounded_jitter(self):
        pol = RetryPolicy(backoff_base=100.0, backoff_factor=2.0, jitter=0.25)
        d1, d2, d3 = (pol.delay(5, k) for k in (1, 2, 3))
        assert 100.0 <= d1 <= 125.0
        assert 200.0 <= d2 <= 250.0
        assert 400.0 <= d3 <= 500.0
        assert pol.delay(5, 1) == d1  # seeded, not sampled

    def test_scheduling_policy_validated(self):
        with pytest.raises(ValueError, match="fifo.*edf|edf.*fifo"):
            ResiliencePolicy(scheduling="sjf")

    def test_policy_fingerprint_distinguishes_configs(self):
        a = ResiliencePolicy()
        b = ResiliencePolicy(retry=RetryPolicy(budget=5))
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == ResiliencePolicy().fingerprint()

    def test_deadlines_come_from_slo_class(self):
        assert deadline_for("interactive", 100.0) == pytest.approx(
            100.0 + SLO_CLASSES["interactive"].deadline
        )
        assert math.isinf(deadline_for("best-effort", 0.0))
        # unknown class falls back to the default, never crashes
        assert math.isfinite(deadline_for("nonsense", 0.0))

    def test_scenario_menu_covers_the_issue_scenarios(self):
        assert {"flaky-machine", "straggler", "poison-job"} <= set(SERVICE_SCENARIOS)
        scen = ServiceScenario(name="x", poison_rate=0.25, seed=3)
        poisoned = [j for j in range(200) if scen.is_poison(j)]
        assert 20 <= len(poisoned) <= 80  # seeded, near the configured rate
        assert poisoned == [j for j in range(200) if scen.is_poison(j)]


# ------------------------------------------------------------------ #
# the event loop: happy path + each mechanism


class TestHappyPath:
    def test_single_job_runs_and_settles_ok(self):
        pool = MachinePool(1, 1)
        run = run_resilient(
            [SimJob(0, 0.0)], pool, rung_ladder, ok_outcome(), NO_HEDGE
        )
        v = run.verdicts[0]
        assert v.disposition == "ok" and v.finish == pytest.approx(10.0)
        assert run.stats.trials == 1 and run.stats.retries == 0
        assert run.schedule.jobs[0].disposition == "ok"

    def test_matches_plain_scheduler_on_clean_workload(self):
        """With no failures/hedges/deadlines the resilient loop must place
        jobs exactly like the PR 7 scheduler (same machine, start, finish)."""
        rng = np.random.default_rng(42)
        pool = MachinePool(2, 8)
        jobs, services = [], {}
        for i in range(60):
            arrival = float(rng.uniform(0, 500))
            p = int(rng.integers(1, 9))
            service = float(rng.uniform(5, 80))
            jobs.append((SimJob(i, arrival), p, service))
            services[i] = (p, service)

        def rung_for(job_id, failures):
            return Rung(services[job_id][0], 0.5, "primary")

        def outcome_for(job_id, rung, attempt, machine_id):
            return AttemptOutcome(ok=True, service_time=services[job_id][1])

        run = run_resilient(
            [j for j, _, _ in jobs], pool, rung_for, outcome_for, NO_HEDGE
        )
        plain = schedule_jobs(
            [(i, j.arrival, services[i][0], services[i][1])
             for i, (j, _, _) in enumerate(jobs)],
            pool,
        )
        resilient_rows = {
            r.job_id: (r.machine_id, r.start, r.finish) for r in run.schedule.jobs
        }
        plain_rows = {
            r.job_id: (r.machine_id, r.start, r.finish) for r in plain.jobs
        }
        assert resilient_rows == plain_rows
        assert run.schedule.makespan == pytest.approx(plain.makespan)

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_resilient(
                [SimJob(0, 0.0), SimJob(0, 1.0)], MachinePool(1, 1),
                rung_ladder, ok_outcome(),
            )

    def test_oversized_rung_stalls_loudly(self):
        def rung_for(job_id, failures):
            return Rung(64, 0.5, "primary")  # nothing in the pool fits
        with pytest.raises(RuntimeError, match="stalled"):
            run_resilient(
                [SimJob(0, 0.0)], MachinePool(1, 8), rung_for, ok_outcome(),
            )


class TestRetries:
    def test_ladder_escalates_and_settles_degraded(self):
        fails_left = {0: 2}

        def outcome_for(job_id, rung, attempt, machine_id):
            if fails_left[job_id] > 0:
                fails_left[job_id] -= 1
                return AttemptOutcome(ok=False, service_time=5.0)
            return AttemptOutcome(ok=True, service_time=10.0)

        run = run_resilient(
            [SimJob(0, 0.0)], MachinePool(1, 1), rung_ladder, outcome_for, NO_HEDGE
        )
        v = run.verdicts[0]
        # two failures → third attempt runs on the grid-shrink rung
        assert v.disposition == "degraded" and v.rung.kind == "grid-shrink"
        assert v.retries == 2 and v.attempts == 3
        assert run.stats.retries == 2
        # backoff delays pushed the finish past 3 service times
        assert v.finish > 3 * 5.0

    def test_budget_exhaustion_is_a_typed_error_not_a_loop(self):
        def outcome_for(job_id, rung, attempt, machine_id):
            return AttemptOutcome(ok=False, service_time=5.0)

        policy = ResiliencePolicy(
            retry=RetryPolicy(budget=3), hedge=HedgePolicy(enabled=False)
        )
        run = run_resilient(
            [SimJob(0, 0.0)], MachinePool(1, 1), rung_ladder, outcome_for, policy
        )
        v = run.verdicts[0]
        assert v.disposition == "error"
        assert v.attempts == 4  # primary + full budget, then stop
        assert run.stats.dispositions["error"] == 1

    def test_same_plan_retry_success_stays_ok_not_degraded(self):
        fails_left = {0: 1}

        def outcome_for(job_id, rung, attempt, machine_id):
            if fails_left[job_id] > 0:
                fails_left[job_id] -= 1
                return AttemptOutcome(ok=False, service_time=5.0)
            return AttemptOutcome(ok=True, service_time=10.0)

        run = run_resilient(
            [SimJob(0, 0.0)], MachinePool(1, 1), rung_ladder, outcome_for, NO_HEDGE
        )
        assert run.verdicts[0].disposition == "ok"
        assert run.verdicts[0].rung.kind == "same-plan"


class TestQuarantine:
    def test_flaky_machine_is_quarantined_and_drained(self):
        def outcome_for(job_id, rung, attempt, machine_id):
            return AttemptOutcome(ok=machine_id != 0, service_time=10.0)

        jobs = [SimJob(i, float(i)) for i in range(12)]
        run = run_resilient(
            [*jobs], MachinePool(2, 1), rung_ladder, outcome_for, NO_HEDGE
        )
        assert all(v.disposition in ("ok", "degraded") for v in run.verdicts.values())
        h0 = next(h for h in run.health if h["machine_id"] == 0)
        assert h0["quarantines"] >= 1 and h0["failures"] >= 3
        assert run.stats.quarantines >= 1
        # once open, machine 0 stops receiving work: all wins on machine 1
        assert all(v.machine_id == 1 for v in run.verdicts.values())

    def test_half_open_probe_readmits_a_recovered_machine(self):
        # machine 0 fails its first 3 attempts, then recovers
        attempts_on_0 = [0]

        def outcome_for(job_id, rung, attempt, machine_id):
            if machine_id == 0:
                attempts_on_0[0] += 1
                return AttemptOutcome(ok=attempts_on_0[0] > 3, service_time=10.0)
            return AttemptOutcome(ok=True, service_time=10.0)

        policy = ResiliencePolicy(
            quarantine=QuarantinePolicy(failure_threshold=3, cooldown=50.0),
            hedge=HedgePolicy(enabled=False),
        )
        jobs = [SimJob(i, float(i) * 5.0) for i in range(40)]
        run = run_resilient(
            jobs, MachinePool(2, 1), rung_ladder, outcome_for, policy
        )
        h0 = next(h for h in run.health if h["machine_id"] == 0)
        assert h0["probes"] >= 1
        assert h0["state"] == "closed"  # the probe succeeded, breaker closed
        # after re-admission machine 0 serves real work again
        wins_on_0 = [v for v in run.verdicts.values() if v.machine_id == 0]
        assert len(wins_on_0) >= 1

    def test_disabled_quarantine_never_opens(self):
        def outcome_for(job_id, rung, attempt, machine_id):
            return AttemptOutcome(ok=machine_id != 0, service_time=10.0)

        policy = ResiliencePolicy(
            quarantine=QuarantinePolicy(enabled=False),
            hedge=HedgePolicy(enabled=False),
        )
        run = run_resilient(
            [SimJob(i, float(i)) for i in range(10)], MachinePool(2, 1),
            rung_ladder, outcome_for, policy,
        )
        assert run.stats.quarantines == 0
        assert all(h["state"] == "closed" for h in run.health)


class TestHedging:
    def _straggler_setup(self, straggler_id=30, factor=50.0):
        def outcome_for(job_id, rung, attempt, machine_id):
            if job_id == straggler_id and attempt == 0:
                return AttemptOutcome(ok=True, service_time=10.0 * factor)
            return AttemptOutcome(ok=True, service_time=10.0)
        return outcome_for

    def test_straggler_is_hedged_and_the_duplicate_wins(self):
        policy = ResiliencePolicy(
            hedge=HedgePolicy(percentile=95.0, min_observations=16, max_hedges=4)
        )
        jobs = [SimJob(i, float(i) * 20.0) for i in range(40)]
        run = run_resilient(
            jobs, MachinePool(2, 2), rung_ladder, self._straggler_setup(), policy
        )
        assert run.stats.hedges == 1
        assert run.stats.hedge_wins == 1
        v = run.verdicts[30]
        assert v.hedged and v.disposition == "ok"
        # the duplicate (attempt 1, fast) finished long before the straggler
        assert v.finish < jobs[30].arrival + 500.0
        # the loser still ran to completion and was charged
        straggler_trials = [t for t in run.trials if t.job_id == 30]
        assert len(straggler_trials) == 2
        assert sum(t.outcome.service_time for t in straggler_trials) == 510.0

    def test_hedge_budget_caps_speculation(self):
        policy = ResiliencePolicy(
            hedge=HedgePolicy(percentile=50.0, min_observations=4, max_hedges=2)
        )

        def outcome_for(job_id, rung, attempt, machine_id):
            # every job after warmup looks like a straggler
            return AttemptOutcome(ok=True, service_time=10.0 + 10.0 * (job_id % 7))

        run = run_resilient(
            [SimJob(i, float(i) * 5.0) for i in range(30)], MachinePool(2, 2),
            rung_ladder, outcome_for, policy,
        )
        assert run.stats.hedges <= 2

    def test_disabled_hedging_never_speculates(self):
        run = run_resilient(
            [SimJob(i, float(i)) for i in range(40)], MachinePool(2, 2),
            rung_ladder, self._straggler_setup(), NO_HEDGE,
        )
        assert run.stats.hedges == 0
        assert all(not v.hedged for v in run.verdicts.values())


class TestAdmission:
    def test_overload_sheds_instead_of_queueing_unboundedly(self):
        policy = ResiliencePolicy(
            admission=AdmissionPolicy(queue_limit=2),
            hedge=HedgePolicy(enabled=False),
        )
        # 10 jobs arrive at once onto one slow 1-rank machine
        jobs = [SimJob(i, 0.0) for i in range(10)]
        run = run_resilient(
            jobs, MachinePool(1, 1), rung_ladder, ok_outcome(100.0), policy
        )
        shed = [v for v in run.verdicts.values() if v.disposition == "shed"]
        served = [v for v in run.verdicts.values() if v.disposition == "ok"]
        assert len(shed) > 0 and len(served) > 0
        assert len(shed) + len(served) == 10
        assert run.stats.shed == len(shed)
        # shed rows appear in the schedule but not in latency percentiles
        rows = {r.job_id: r for r in run.schedule.jobs}
        assert all(rows[v.job_id].disposition == "shed" for v in shed)
        assert len(run.schedule.latencies()) == len(served)
        # a shed job never hits its deadline
        assert all(not v.deadline_hit for v in shed)

    def test_unbounded_queue_never_sheds(self):
        run = run_resilient(
            [SimJob(i, 0.0) for i in range(10)], MachinePool(1, 1),
            rung_ladder, ok_outcome(100.0), NO_HEDGE,
        )
        assert run.stats.shed == 0
        assert all(v.disposition == "ok" for v in run.verdicts.values())


class TestDeadlinesAndEDF:
    def test_edf_prioritizes_urgent_class_over_arrival_order(self):
        # batch job arrives first, interactive second, both before the
        # machine frees: EDF runs the interactive one first, FIFO doesn't
        jobs = [
            SimJob(0, 0.0),                       # occupies the machine
            SimJob(1, 1.0, slo="batch"),
            SimJob(2, 2.0, slo="interactive"),
        ]
        starts = {}
        for scheduling in ("fifo", "edf"):
            policy = ResiliencePolicy(
                scheduling=scheduling, hedge=HedgePolicy(enabled=False)
            )
            run = run_resilient(
                jobs, MachinePool(1, 1), rung_ladder, ok_outcome(50.0), policy
            )
            starts[scheduling] = {
                v.job_id: v.start for v in run.verdicts.values()
            }
        assert starts["fifo"][1] < starts["fifo"][2]   # arrival order
        assert starts["edf"][2] < starts["edf"][1]     # deadline order

    def test_slo_summary_counts_hits_per_class(self):
        jobs = [
            SimJob(0, 0.0, slo="interactive"),
            SimJob(1, 0.0, slo="interactive"),
            SimJob(2, 0.0, slo="best-effort"),
        ]
        # job 1 waits behind job 0 on the 1-rank machine and misses its
        # deadline with a service time just over half the budget
        service = SLO_CLASSES["interactive"].deadline * 0.6
        run = run_resilient(
            jobs, MachinePool(1, 1), rung_ladder, ok_outcome(service), NO_HEDGE
        )
        doc = slo_summary(list(run.verdicts.values()))
        assert doc["interactive"]["jobs"] == 2
        assert doc["interactive"]["deadline_hits"] == 1
        assert doc["interactive"]["hit_rate"] == pytest.approx(0.5)
        assert doc["best-effort"]["hit_rate"] == 1.0  # inf deadline


class TestDeterminismAndInvariants:
    def test_two_runs_produce_identical_stats_and_verdicts(self):
        scen = ServiceScenario(name="mix", poison_rate=0.1, seed=5)

        def outcome_for(job_id, rung, attempt, machine_id):
            if scen.is_poison(job_id):
                return AttemptOutcome(ok=False, service_time=3.0)
            return AttemptOutcome(ok=machine_id != 0 or job_id % 3 != 0,
                                  service_time=10.0)

        jobs = [SimJob(i, float(i) * 2.0) for i in range(30)]
        runs = [
            run_resilient(jobs, MachinePool(2, 1), rung_ladder, outcome_for)
            for _ in range(2)
        ]
        assert runs[0].stats.as_dict() == runs[1].stats.as_dict()
        assert {
            j: (v.disposition, v.finish, v.machine_id)
            for j, v in runs[0].verdicts.items()
        } == {
            j: (v.disposition, v.finish, v.machine_id)
            for j, v in runs[1].verdicts.items()
        }

    def test_no_job_lost_under_mixed_chaos(self):
        scen = ServiceScenario(
            name="mix", flaky_machines=1, flaky_rate=0.7,
            straggler_rate=0.2, poison_rate=0.15, seed=9,
        )

        def outcome_for(job_id, rung, attempt, machine_id):
            if scen.is_poison(job_id):
                return AttemptOutcome(ok=False, service_time=3.0)
            if scen.is_flaky_attempt(machine_id, job_id, attempt):
                return AttemptOutcome(ok=False, service_time=5.0)
            factor = 8.0 if scen.is_straggler(job_id, attempt) else 1.0
            return AttemptOutcome(ok=True, service_time=10.0 * factor)

        jobs = [SimJob(i, float(i) * 3.0) for i in range(50)]
        run = run_resilient(jobs, MachinePool(2, 2), rung_ladder, outcome_for)
        assert len(run.verdicts) == 50
        assert sum(run.stats.dispositions.values()) == 50
        assert all(
            v.disposition in ("ok", "degraded", "shed", "error")
            for v in run.verdicts.values()
        )
        # every schedule row carries a terminal disposition (satellite: no
        # dropped failed jobs)
        assert len(run.schedule.jobs) == 50
        assert run.schedule.summary()["dispositions"] == {
            k: v for k, v in run.stats.dispositions.items() if v
        }


# ------------------------------------------------------------------ #
# satellite: heapq running queue equivalence (property test)


def _oracle_schedule(requests, pool):
    """The PR 7 scheduler verbatim, with the sorted-list running queue —
    the oracle the heapq rewrite must match placement-for-placement."""
    reqs = [(r[0], r[1], r[2], r[3]) for r in requests]
    pending = sorted(reqs, key=lambda r: (r[1], r[0]))
    free = {m.machine_id: m.p for m in pool}
    running: list[tuple[float, int, int, int]] = []
    placed = []
    queue: list[tuple[int, float, int, float]] = []
    i = 0
    now = pending[0][1] if pending else 0.0

    def try_dispatch():
        nonlocal queue
        remaining = []
        for entry in sorted(queue, key=lambda e: (e[1], e[0])):
            job_id, arrival, p, service = entry
            best_m = None
            for m in pool:
                f = free[m.machine_id]
                if f >= p and (best_m is None or f < free[best_m]):
                    best_m = m.machine_id
            if best_m is None:
                remaining.append(entry)
                continue
            free[best_m] -= p
            running.append((now + service, best_m, p, job_id))
            running.sort()
            placed.append((job_id, best_m, now, now + service))
        queue = remaining

    while i < len(pending) or queue or running:
        next_arrival = pending[i][1] if i < len(pending) else math.inf
        next_finish = running[0][0] if running else math.inf
        now = min(next_arrival, next_finish)
        if math.isinf(now):
            break
        while running and running[0][0] <= now:
            _, m_id, p, _ = running.pop(0)
            free[m_id] += p
        while i < len(pending) and pending[i][1] <= now:
            queue.append(pending[i])
            i += 1
        try_dispatch()
    return sorted(placed)


class TestHeapqEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_heap_scheduler_matches_sorted_list_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pool = MachinePool(int(rng.integers(1, 4)), 8)
        n_jobs = int(rng.integers(5, 80))
        reqs = [
            (
                i,
                float(rng.uniform(0, 300)),
                int(rng.integers(1, 9)),
                float(rng.uniform(1, 60)),
            )
            for i in range(n_jobs)
        ]
        sched = schedule_jobs(reqs, pool)
        got = sorted((j.job_id, j.machine_id, j.start, j.finish) for j in sched.jobs)
        assert got == _oracle_schedule(reqs, pool)

    def test_edf_policy_validated(self):
        with pytest.raises(ValueError, match="fifo.*edf|edf.*fifo"):
            schedule_jobs([], MachinePool(1, 1), policy="lifo")

    def test_edf_reorders_by_deadline_tuple(self):
        pool = MachinePool(1, 1)
        # both queued while the machine is busy; deadlines invert arrival
        reqs = [
            (0, 0.0, 1, 50.0, math.inf),
            (1, 1.0, 1, 10.0, 1000.0),
            (2, 2.0, 1, 10.0, 100.0),
        ]
        fifo = {j.job_id: j.start for j in schedule_jobs(reqs, pool).jobs}
        edf = {j.job_id: j.start for j in schedule_jobs(reqs, pool, policy="edf").jobs}
        assert fifo[1] < fifo[2]
        assert edf[2] < edf[1]
