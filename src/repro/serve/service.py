"""The batched eigensolver service: queue → plan → solve → schedule.

:class:`EigenService` is the serving pipeline the tentpole describes:

1. **Plan** — each request's ``(n, p_max, params)`` shape is routed through
   the persistent δ-autotuning cache (:mod:`repro.serve.cache`) and the
   regime planner (:mod:`repro.serve.planner`): how many ranks, which δ,
   replicated or grid.  Repeat shapes skip re-planning entirely.
2. **Solve** — every attempt runs the planned solver on a **fresh**
   :class:`~repro.bsp.machine.BSPMachine` of exactly its planned rank
   count, so its eigenvalues and cost report are byte-identical to a
   single-shot run of the same ``(matrix, p, δ)``.  Repeat attempts of
   the same plan (retries, hedges) hit a solve memo — one wall-clock
   solve per distinct plan, however many simulated trials charge it.
   First attempts of one plan are solved as one batch that ends in a
   single stacked Sturm bisection (see ``docs/serving.md``).
3. **Schedule** — the measured cost reports give each attempt its
   simulated service time T = γF + βW + νQ + αS; the resilient event loop
   (:mod:`repro.serve.resilience`) replays the workload's arrival trace
   against the machine pool under the service's
   :class:`~repro.serve.resilience.ResiliencePolicy` — deadlines/EDF,
   retry ladder, quarantine, hedging, admission control — and drives
   every job to a terminal disposition (``ok | degraded | shed | error``).

Failure handling is the resilience layer's escalation ladder and runs for
*any* typed error outcome, whether it came from configured fault
injection, a service-level chaos scenario, or a genuine solver bug:
same-plan retry → grid-shrink replan (δ through the cache's ``replan``
path) → replicated single-rank solve.  Only a job that exhausts its
retry budget surfaces as an error result; no code path returns a
spectrum that was not guarded.

With a :class:`~repro.serve.journal.JobJournal` attached, every
submission, attempt outcome, and terminal disposition is journaled
write-ahead (fsync'd JSONL), so a service process killed mid-workload
resumes by replaying completed solves from the journal — byte-identical
to the uninterrupted run, without recomputing finished eigensolves.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.bsp.machine import BSPMachine
from repro.bsp.params import MachineParams
from repro.eig import solve_by_name, tridiagonalize_2p5d
from repro.linalg.tridiag import sturm_bisection_eigenvalues
from repro.metrics.attainment import attainment_ratios
from repro.obs.telemetry import NO_TELEMETRY, Telemetry
from repro.serve.cache import TuningCache, cached_replan_delta, model_fingerprint
from repro.serve.journal import JobJournal
from repro.serve.planner import DEFAULT_ALGORITHM, Plan, plan_job
from repro.serve.pool import MachinePool
from repro.serve.resilience import (
    DEFAULT_POLICY,
    SERVICE_SCENARIOS,
    AttemptOutcome,
    ResiliencePolicy,
    Rung,
    ServiceScenario,
    SimJob,
    run_resilient,
    slo_summary,
)
from repro.serve.scheduler import Schedule
from repro.serve.workload import JobSpec, Workload
from repro.util.matrices import random_symmetric


def _json_native(value: Any) -> Any:
    """Deep-coerce numpy scalars to native python numbers.

    Summary documents are persisted through ``json`` (benches, journals,
    telemetry), whose repr-float serialization round-trips IEEE doubles
    exactly — but only for *native* floats; a ``np.float64`` leaking in
    raises, and a lossy pre-conversion would silently break the journal's
    byte-identity guarantees.  Coercing at the summary boundary makes
    summary → JSON → summary exact by construction (regression-tested in
    ``tests/test_obs.py``).
    """
    if isinstance(value, dict):
        return {k: _json_native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_native(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


@dataclass
class JobResult:
    """Everything the service knows about one terminal (or failed) job."""

    job_id: int
    n: int
    seed: int
    plan: Plan
    status: str                    # "ok" | "error" | "shed"
    eigenvalues: np.ndarray | None
    service_time: float            # simulated T of the winning attempt
    sim_cost: dict[str, float]
    planned_from_cache: bool
    retries: int = 0
    degraded: bool = False         # settled on a grid-shrink/replicated rung
    hedged: bool = False           # a speculative duplicate was launched
    attempts: int = 1              # executed attempts (retries + hedges)
    slo: str = "batch"
    deadline_hit: bool = True
    error: str = ""
    error_type: str = ""
    attainment: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def disposition(self) -> str:
        """Terminal disposition (``ok | degraded | shed | error``)."""
        if self.status == "ok":
            return "degraded" if self.degraded else "ok"
        return self.status


@dataclass
class ServeReport:
    """Aggregate outcome of one workload pass through the service."""

    results: list[JobResult]
    schedule: Schedule
    wall_s: float
    plan_hits: int
    cache_stats: dict[str, Any]
    pool: dict[str, Any]
    resilience: dict[str, Any] = field(default_factory=dict)
    slo: dict[str, Any] = field(default_factory=dict)
    health: list[dict[str, Any]] = field(default_factory=list)

    @property
    def jobs(self) -> int:
        return len(self.results)

    @property
    def ok_jobs(self) -> int:
        return sum(r.ok for r in self.results)

    @property
    def error_jobs(self) -> int:
        return sum(r.status == "error" for r in self.results)

    @property
    def shed_jobs(self) -> int:
        return sum(r.status == "shed" for r in self.results)

    @property
    def jobs_per_s(self) -> float:
        return self.jobs / self.wall_s if self.wall_s > 0 else float("inf")

    @property
    def plan_hit_rate(self) -> float:
        return self.plan_hits / self.jobs if self.jobs else 0.0

    def regimes(self) -> dict[str, int]:
        """Histogram "p=<ranks>" -> job count of the planner's routing."""
        out: dict[str, int] = {}
        for r in self.results:
            key = f"p={r.plan.p}"
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items(), key=lambda kv: int(kv[0][2:])))

    def sim_totals(self) -> dict[str, float]:
        """Exact simulated cost of each job's *winning* attempt, summed.

        Error jobs contribute the partial cost their last attempt accrued
        before faulting (they consumed machine time; dropping them would
        flatter the totals).  The all-attempts total — including hedges,
        retries, and probes — lives in ``resilience["charged"]``; the gap
        between the two is the price of resilience, kept visible.
        """
        totals = {"flops": 0.0, "words": 0.0, "mem_traffic": 0.0, "supersteps": 0.0}
        for r in self.results:
            for k in totals:
                totals[k] += r.sim_cost.get(k, 0.0)
        totals["service_time"] = sum(r.service_time for r in self.results)
        return totals

    def summary(self) -> dict[str, Any]:
        return _json_native(
            {
                "jobs": self.jobs,
                "ok": self.ok_jobs,
                "errors": self.error_jobs,
                "shed": self.shed_jobs,
                "degraded": sum(r.degraded for r in self.results),
                "retries": sum(r.retries for r in self.results),
                "wall_s": self.wall_s,
                "jobs_per_s": self.jobs_per_s,
                "plan_hits": self.plan_hits,
                "plan_hit_rate": self.plan_hit_rate,
                "regimes": self.regimes(),
                "sim": self.schedule.summary(),
                "sim_totals": self.sim_totals(),
                "resilience": self.resilience,
                "slo": self.slo,
                "cache": self.cache_stats,
                "pool": self.pool,
            }
        )


# ------------------------------------------------------------------ #
# job execution (top-level so a multiprocessing pool can pickle it)


def _params_payload(params: MachineParams) -> dict[str, float]:
    return {
        "gamma": params.gamma, "beta": params.beta, "nu": params.nu,
        "alpha": params.alpha, "memory_words": params.memory_words,
        "cache_words": params.cache_words,
    }


def execute_payload(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """Solve a batch of same-plan jobs; pure function of the payload (worker-safe).

    The payload names one plan (``n``, ``p``, ``delta``, ``algorithm``,
    ``params``, ``faults``) and the jobs that share it: ``job_ids`` and
    their matrix ``seeds``.  Returns one plain dict per job, in order
    (arrays and floats only) so results cross a process boundary cheaply.
    A typed fault error is *returned*, not raised — the parent decides the
    escalation policy.  The error dict carries the *partial* cost the
    machine accrued before faulting, so a failed attempt still has a
    simulated service time to charge.

    Stacked finish: each clean job of the paper's solver (``eig2p5d``)
    stops after the tridiagonal of its finish
    (:func:`~repro.eig.tridiagonalize_2p5d`), and the batch ends in one
    stacked Sturm bisection that supplies all their spectra.  Every lane
    of the stacked kernel converges on its own test and the finish is
    charged analytically, so spectra, costs and spans are byte-identical
    to solving each job alone.  A faulted payload (``faults`` set)
    finishes every job in place, so its finish guards the tridiagonal and
    spectrum of its own values.

    With ``payload["spans"]`` (set by a telemetry-enabled service) each
    solve runs with span recording on and its outcome carries the solver's
    :class:`~repro.trace.spans.SpanEvent` tree as plain dicts under
    ``solver_spans``.  Costs, spectra, and service time are byte-identical
    either way — span recording only observes (the batched chase engine
    falls back to its bit-equal per-step path); the flag is deliberately
    excluded from :func:`_memo_key`.
    """
    from repro.faults.errors import FaultError

    params = MachineParams(**payload["params"])
    n, p, delta = payload["n"], payload["p"], payload["delta"]
    algorithm = payload["algorithm"]
    want_spans = bool(payload.get("spans"))
    faults = payload.get("faults")
    stack = not faults and algorithm == "eig2p5d"
    if faults:
        from repro.faults import FaultPlan, FaultyMachine
        from repro.faults.plan import SCENARIOS
    outcomes: list[dict[str, Any]] = []
    pending: list[tuple[dict[str, Any], tuple[np.ndarray, np.ndarray]]] = []
    for job_id, seed in zip(payload["job_ids"], payload["seeds"]):
        a = random_symmetric(n, seed=seed)
        if faults:
            machine: BSPMachine = FaultyMachine(
                p, params,
                plan=FaultPlan(SCENARIOS[faults], payload["fault_seed"]),
                spans=True,
            )
        else:
            machine = BSPMachine(p, params, spans=want_spans)
        try:
            if stack:
                result = tridiagonalize_2p5d(machine, a, delta=delta)
            else:
                result = solve_by_name(algorithm, machine, a, delta)
        except FaultError as exc:
            partial = machine.cost()
            outcomes.append({
                "job_id": job_id,
                "status": "error",
                "error": str(exc),
                "error_type": type(exc).__name__,
                "sim_cost": _cost_doc(partial),
                "service_time": params.time(
                    partial.flops, partial.words, partial.mem_traffic, partial.supersteps
                ),
                **_solver_spans(machine, want_spans),
            })
            continue
        cost = result.cost
        out = {
            "job_id": job_id,
            "status": "ok",
            "eigenvalues": result.eigenvalues,
            "sim_cost": _cost_doc(cost),
            "service_time": params.time(
                cost.flops, cost.words, cost.mem_traffic, cost.supersteps
            ),
            "attainment": attainment_ratios(result.stages, result.stage_meta),
            **_solver_spans(machine, want_spans),
        }
        if result.tridiagonal is not None:
            pending.append((out, result.tridiagonal))
        outcomes.append(out)
    if pending:
        evals = sturm_bisection_eigenvalues(
            np.stack([d for _, (d, _) in pending]), np.stack([e for _, (_, e) in pending])
        )
        for (out, _), ev in zip(pending, evals):
            out["eigenvalues"] = ev
    return outcomes


def _cost_doc(cost: Any) -> dict[str, float]:
    return {
        "flops": cost.flops,
        "words": cost.words,
        "mem_traffic": cost.mem_traffic,
        "supersteps": float(cost.supersteps),
        "peak_memory_words": cost.peak_memory_words,
    }


def _solver_spans(machine: BSPMachine, want: bool) -> dict[str, Any]:
    if not want:
        return {}
    return {
        "solver_p": machine.p,
        "solver_spans": [ev.as_dict() for ev in machine.spans.events],
    }


def _memo_key(payload: dict[str, Any]) -> str:
    """Identity of one solve: every field that changes its outcome.

    ``repr`` on δ keeps the full double, so two plans differing in the
    last ulp never collide.
    """
    return (
        f"n={payload['n']};seed={payload['seed']};p={payload['p']};"
        f"delta={payload['delta']!r};alg={payload['algorithm']};"
        f"faults={payload.get('faults', '')};fseed={payload.get('fault_seed', 0)}"
    )


def _plan_key(payload: dict[str, Any]) -> tuple:
    """The memo key without the matrix: attempts with equal plan keys are
    solved as one :func:`execute_payload` batch."""
    return (
        payload["n"], payload["p"], repr(payload["delta"]), payload["algorithm"],
        payload.get("faults", ""), payload.get("fault_seed", 0),
    )


def _batch_payload(payloads: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """One :func:`execute_payload` batch of same-plan attempt payloads:
    their ``job_id``/``seed`` fields become the ``job_ids``/``seeds`` lists."""
    batch = {k: v for k, v in payloads[0].items() if k not in ("job_id", "seed")}
    batch["job_ids"] = [pl["job_id"] for pl in payloads]
    batch["seeds"] = [pl["seed"] for pl in payloads]
    return batch


def _attempt_to_json(raw: dict[str, Any]) -> dict[str, Any]:
    """Journal form of a solve outcome (JSON floats round-trip doubles).

    Captured solver spans are telemetry, not recovery state: they are
    stripped here so journal bytes are identical with telemetry on or off
    (a resumed run simply re-attaches no spans for replayed attempts).
    """
    doc = dict(raw)
    doc.pop("solver_spans", None)
    doc.pop("solver_p", None)
    ev = doc.get("eigenvalues")
    if ev is not None:
        doc["eigenvalues"] = [float(x) for x in np.asarray(ev)]
    return doc


def _attempt_from_json(doc: dict[str, Any]) -> dict[str, Any]:
    raw = dict(doc)
    ev = raw.get("eigenvalues")
    if ev is not None:
        raw["eigenvalues"] = np.asarray(ev, dtype=np.float64)
    return raw


class EigenService:
    """Batched eigensolver front-end over a pool of simulated machines."""

    def __init__(
        self,
        pool: MachinePool,
        cache: TuningCache | None = None,
        algorithm: str = DEFAULT_ALGORITHM,
        workers: int = 0,
        faults: str | None = None,
        fault_seed0: int = 0,
        policy: ResiliencePolicy | None = None,
        scenario: str | ServiceScenario | None = None,
        journal: JobJournal | str | Path | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.pool = pool
        self.cache = cache if cache is not None else TuningCache()
        self.algorithm = algorithm
        self.workers = workers
        self.faults = faults or None
        self.fault_seed0 = fault_seed0
        self.policy = policy if policy is not None else DEFAULT_POLICY
        #: observability sink; NO_TELEMETRY keeps every hook a no-op and
        #: (crucially) leaves solve payloads untouched — the telemetry-off
        #: service is byte-identical to the pre-telemetry one
        self.telemetry: Any = telemetry if telemetry is not None else NO_TELEMETRY
        if isinstance(scenario, str):
            if scenario not in SERVICE_SCENARIOS:
                raise ValueError(
                    f"unknown service scenario {scenario!r}; "
                    f"choose from {sorted(SERVICE_SCENARIOS)}"
                )
            self.scenario: ServiceScenario | None = SERVICE_SCENARIOS[scenario]
        else:
            self.scenario = scenario
        if journal is None or isinstance(journal, JobJournal):
            self.journal = journal
        else:
            self.journal = JobJournal(journal)

    # -------------------------------------------------------------- #

    def plan(self, n: int) -> tuple[Plan, bool]:
        """Plan one problem size against the pool's largest machine."""
        return plan_job(
            self.cache, n, self.pool.max_ranks, self.pool.params, self.algorithm
        )

    def journal_fingerprint(self, workload: Workload) -> str:
        """Digest binding a journal file to this exact run configuration."""
        doc = {
            "workload": workload.to_json(),
            "params": self.pool.params.fingerprint(),
            "pool": self.pool.as_dict(),
            "algorithm": self.algorithm,
            "policy": self.policy.as_dict(),
            "scenario": self.scenario.as_dict() if self.scenario else None,
            "faults": self.faults,
            "fault_seed0": self.fault_seed0,
            "model": model_fingerprint(),
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def _attempt_payload(
        self, spec: JobSpec, rung: Rung, attempt: int
    ) -> dict[str, Any]:
        """The solve payload of one attempt of one job.

        With the service-wide ``faults`` scenario (the PR 7 chaos path),
        every attempt is faulted with a per-(job, attempt) seed — except
        replicated-rung retries, which model the "clean single-rank
        fallback" the degraded path has always promised.  Service
        :class:`ServiceScenario` failures (flaky machine, poison,
        straggler) are applied *outside* the solve, in ``outcome_for`` —
        they are service-level events, so the underlying spectrum stays a
        clean memoizable solve.
        """
        payload: dict[str, Any] = {
            "job_id": spec.job_id,
            "n": spec.n,
            "seed": spec.seed,
            "p": rung.p,
            "delta": rung.delta,
            "algorithm": self.algorithm,
            "params": _params_payload(self.pool.params),
        }
        if self.telemetry.capture_solver_spans:
            payload["spans"] = True
        if (
            self.scenario is None
            and self.faults
            and not (rung.kind == "replicated" and attempt > 0)
        ):
            payload["faults"] = self.faults
            payload["fault_seed"] = self.fault_seed0 + spec.job_id + 1_000_003 * attempt
        return payload

    def _rung_for(self, plan: Plan, spec: JobSpec, failures: int) -> Rung:
        """The escalation ladder: failure count → next attempt's plan."""
        if failures == 0:
            return Rung(plan.p, plan.delta, "primary")
        if failures == 1:
            return Rung(plan.p, plan.delta, "same-plan")
        if failures == 2 and plan.p > 1:
            p2 = max(1, plan.p // 2)
            delta = cached_replan_delta(
                self.cache, spec.n, p2, self.pool.params, self.algorithm
            )
            return Rung(p2, delta, "grid-shrink" if p2 > 1 else "replicated")
        delta = cached_replan_delta(
            self.cache, spec.n, 1, self.pool.params, self.algorithm
        )
        return Rung(1, delta, "replicated")

    def run_workload(self, workload: Workload) -> ServeReport:
        """Serve every job of a workload; returns the aggregate report.

        Wall-clock work (actual eigensolves) goes through a memo keyed on
        the solve identity: every job's first attempt is solved up front,
        batched by plan, and later rungs solve lazily inside the simulated
        event loop.  Retries and hedges of an identical plan cost nothing
        extra in wall time while still being fully charged in simulated
        time.
        """
        t0 = time.perf_counter()
        telemetry = self.telemetry
        specs = {spec.job_id: spec for spec in workload.jobs}
        plans: dict[int, tuple[Plan, bool]] = {}
        for spec in workload.jobs:
            plans[spec.job_id] = self.plan(spec.n)
            if telemetry.enabled:
                plan, hit = plans[spec.job_id]
                telemetry.emit(
                    "plan", spec.arrival, job=spec.job_id, n=spec.n,
                    p=plan.p, delta=plan.delta, cache_hit=bool(hit),
                )
                telemetry.counter("plans")
                if hit:
                    telemetry.counter("plan_cache_hits")

        memo: dict[str, dict[str, Any]] = {}
        journal = self.journal
        if journal is not None:
            journal.open(self.journal_fingerprint(workload), len(workload.jobs))
            for key, doc in journal.attempts.items():
                memo[key] = _attempt_from_json(doc)
            for spec in workload.jobs:
                journal.record_submitted(spec.job_id, spec.as_dict())

        def remember(payload: dict[str, Any], raw: dict[str, Any]) -> None:
            key = _memo_key(payload)
            memo[key] = raw
            if journal is not None:
                journal.record_attempt(key, _attempt_to_json(raw))

        def solve(payload: dict[str, Any]) -> dict[str, Any]:
            raw = memo.get(_memo_key(payload))
            if raw is None:
                raw = execute_payload(_batch_payload([payload]))[0]
                remember(payload, raw)
            return raw

        # Attempt-0 payloads are placement-independent: solve them before
        # the (serial) simulated loop, one batch per plan so each batch
        # ends in one stacked Sturm call — inline, or one batch per task in
        # the worker pool.  Later rungs solve lazily, one job at a time.
        batches: dict[tuple, dict[str, dict[str, Any]]] = {}
        for spec in workload.jobs:
            pl = self._attempt_payload(
                spec, self._rung_for(plans[spec.job_id][0], spec, 0), 0
            )
            key = _memo_key(pl)
            if key not in memo:
                batches.setdefault(_plan_key(pl), {})[key] = pl
        groups = [list(batch.values()) for batch in batches.values()]
        todo = [_batch_payload(group) for group in groups]
        use_pool = self.workers > 0 and bool(todo)
        with ProcessPoolExecutor(self.workers) if use_pool else nullcontext() as pool:
            solved = pool.map(execute_payload, todo) if pool else map(execute_payload, todo)
            for group, outcomes in zip(groups, solved):  # journaled as each batch lands
                for pl, raw in zip(group, outcomes):
                    remember(pl, raw)

        def rung_for(job_id: int, failures: int) -> Rung:
            return self._rung_for(plans[job_id][0], specs[job_id], failures)

        def outcome_for(
            job_id: int, rung: Rung, attempt: int, machine_id: int
        ) -> AttemptOutcome:
            spec = specs[job_id]
            raw = solve(self._attempt_payload(spec, rung, attempt))
            if telemetry.capture_solver_spans and "solver_spans" in raw:
                telemetry.attach_solver_spans(
                    str(job_id), attempt, int(raw.get("solver_p", rung.p)),
                    raw["solver_spans"],
                )
            out = dict(raw)  # never mutate the memoized dict
            service = float(raw.get("service_time", 0.0))
            scen = self.scenario
            if scen is not None and out["status"] == "ok":
                if scen.is_flaky_attempt(machine_id, job_id, attempt):
                    out = {
                        "job_id": job_id,
                        "status": "error",
                        "error": f"machine {machine_id} flaked on job {job_id} "
                        f"attempt {attempt}",
                        "error_type": "MachineFlakeError",
                        "sim_cost": raw.get("sim_cost", {}),
                        "service_time": service,
                    }
                elif scen.is_poison(job_id):
                    out = {
                        "job_id": job_id,
                        "status": "error",
                        "error": f"poison job {job_id}: typed failure on every attempt",
                        "error_type": "PoisonJobError",
                        "sim_cost": raw.get("sim_cost", {}),
                        "service_time": service,
                    }
            if scen is not None and scen.is_straggler(job_id, attempt):
                service *= scen.straggler_factor
                out["service_time"] = service
            return AttemptOutcome(
                ok=out["status"] == "ok",
                service_time=service,
                sim_cost=out.get("sim_cost", {}),
                payload=out,
            )

        def on_terminal(v) -> None:
            if journal is not None:
                journal.record_terminal(
                    v.job_id,
                    {
                        "disposition": v.disposition,
                        "slo": v.slo,
                        "deadline_hit": v.deadline_hit,
                        "finish": v.finish,
                        "attempts": v.attempts,
                        "retries": v.retries,
                        "hedged": v.hedged,
                    },
                )

        sim_jobs = [
            SimJob(spec.job_id, spec.arrival, spec.slo) for spec in workload.jobs
        ]
        run = run_resilient(
            sim_jobs, self.pool, rung_for, outcome_for, self.policy, on_terminal,
            telemetry=telemetry,
        )
        wall = time.perf_counter() - t0

        results: list[JobResult] = []
        for spec in workload.jobs:
            v = run.verdicts[spec.job_id]
            plan, hit = plans[spec.job_id]
            used = plan
            if v.rung is not None and (
                v.rung.p != plan.p or v.rung.delta != plan.delta
            ):
                used = Plan(
                    n=spec.n, p=v.rung.p, delta=v.rung.delta,
                    predicted_time=float("inf"), algorithm=self.algorithm,
                )
            payload = v.outcome.payload if v.outcome is not None else {}
            common = dict(
                job_id=spec.job_id, n=spec.n, seed=spec.seed, plan=used,
                planned_from_cache=hit, retries=v.retries,
                degraded=v.disposition == "degraded", hedged=v.hedged,
                attempts=v.attempts, slo=spec.slo, deadline_hit=v.deadline_hit,
            )
            if v.disposition in ("ok", "degraded"):
                results.append(
                    JobResult(
                        status="ok",
                        eigenvalues=payload["eigenvalues"],
                        service_time=v.outcome.service_time if v.outcome else 0.0,
                        sim_cost=payload.get("sim_cost", {}),
                        attainment=payload.get("attainment", []),
                        **common,
                    )
                )
            elif v.disposition == "shed":
                results.append(
                    JobResult(
                        status="shed",
                        eigenvalues=None, service_time=0.0, sim_cost={},
                        error="shed by admission control (queue at limit)",
                        error_type="Shed",
                        **common,
                    )
                )
            else:
                results.append(
                    JobResult(
                        status="error",
                        eigenvalues=None,
                        service_time=v.outcome.service_time if v.outcome else 0.0,
                        sim_cost=payload.get("sim_cost", {}),
                        error=payload.get("error", ""),
                        error_type=payload.get("error_type", ""),
                        **common,
                    )
                )

        self.cache.save()
        if journal is not None:
            journal.close()
        return ServeReport(
            results=sorted(results, key=lambda r: r.job_id),
            schedule=run.schedule,
            wall_s=wall,
            plan_hits=sum(hit for _, hit in plans.values()),
            cache_stats=self.cache.stats.as_dict(),
            pool=self.pool.as_dict(),
            resilience=run.stats.as_dict(),
            slo=slo_summary(list(run.verdicts.values())),
            health=run.health,
        )


def single_shot_eigenvalues(
    n: int, seed: int, p: int, delta: float, params: MachineParams,
    algorithm: str = DEFAULT_ALGORITHM,
) -> np.ndarray:
    """The reference a served job must match byte-for-byte: one fresh
    machine, one solve — exactly what a user calling ``eigensolve`` gets."""
    a = random_symmetric(n, seed=seed)
    machine = BSPMachine(p, params)
    return solve_by_name(algorithm, machine, a, delta).eigenvalues


def verify_against_single_shot(
    results: Sequence[JobResult], params: MachineParams
) -> list[str]:
    """Byte-identity check of every ok job versus a single-shot solve.

    Returns human-readable mismatch descriptions ([] = all identical).
    Degraded/hedged/retried jobs are verified against their *winning*
    plan — that is the solve that actually produced their spectrum.
    """
    problems: list[str] = []
    for r in results:
        if not r.ok:
            continue
        ref = single_shot_eigenvalues(
            r.n, r.seed, r.plan.p, r.plan.delta, params, r.plan.algorithm
        )
        assert r.eigenvalues is not None
        if not (
            r.eigenvalues.shape == ref.shape
            and r.eigenvalues.dtype == ref.dtype
            and np.array_equal(r.eigenvalues, ref)
        ):
            problems.append(
                f"job {r.job_id} (n={r.n}, p={r.plan.p}, delta={r.plan.delta:.3f}): "
                "served eigenvalues differ from the single-shot solve"
            )
    return problems
