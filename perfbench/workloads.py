"""The three benchmark workloads: set-up, one timed operation, checks.

Every workload runs in one process with ``workers=0`` through the public
APIs (``eigensolve_2p5d`` and ``EigenService.run_workload``).  The
benchmark seed picks the input matrices; the shape of each workload (sizes,
arrival trace, machine) is fixed, so runs with different seeds measure the
same work.  Checks run between operations, outside the timed region.
"""

from __future__ import annotations

import json
import shutil
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

import repro.eig as eig
from repro.bench import COST_FIELDS
from repro.bsp.batch import _TAPE_CACHE
from repro.bsp.machine import BSPMachine
from repro.eig.band_to_band import resolve_chase_engine
from repro.metrics.attainment import attainment_ratios
from repro.obs.telemetry import Telemetry
from repro.serve.bench import SERVE_PARAMS
from repro.serve.cache import TuningCache
from repro.serve.journal import JobJournal, read_journal
from repro.serve.pool import MachinePool
from repro.serve.service import EigenService, single_shot_eigenvalues, verify_against_single_shot
from repro.serve.workload import Workload, mixed_workload, scf_trace
from repro.util.matrices import random_symmetric
from repro.util.validation import frobenius_norm, reference_spectrum_error

from hostspeed import HostProbe

#: spectrum tolerance against the numpy oracle, relative to ‖A‖_F; a
#: backward-stable solve errs by O(n·eps·‖A‖₂) ≈ 1e-13·‖A‖ at n = 512
SPECTRUM_RTOL = 1e-10

#: eigensolver stage kinds, in pipeline order (Theorem IV.4)
STAGES = ("full_to_band", "band_to_band", "ca_sbr", "finish")

#: a missing job (shed or failed) ranks after every completed one in the
#: latency percentiles; when a percentile lands on one it reads as this
MISSING_LATENCY = 1.0e308


def derived_seed(seed: int, index: int) -> int:
    """Matrix seed of input ``index`` under benchmark seed ``seed``."""
    return (seed * 1_000_003 + index * 7919 + 17) % (2**31 - 1)


def spectrum_problem(a: np.ndarray, evals: np.ndarray | None, what: str) -> str | None:
    if evals is None:
        return f"{what}: no spectrum"
    err = reference_spectrum_error(a, evals)
    tol = SPECTRUM_RTOL * max(frobenius_norm(a), 1.0)
    if not err <= tol:
        return f"{what}: spectrum error {err:.3e} exceeds {tol:.3e}"
    return None


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the one ``repro.serve`` reports)."""
    vals = sorted(values)
    if not vals:
        return 0.0
    idx = min(len(vals) - 1, max(0, int(np.ceil(q / 100.0 * len(vals))) - 1))
    return vals[idx]


def stage_facts(attainment: list[list[dict]]) -> dict[str, float]:
    """Simulated per-stage counts and words attainment, summed over jobs."""
    out: dict[str, float] = {}
    ratios: dict[str, list[float]] = {s: [] for s in STAGES}
    for kind in STAGES:
        for comp in ("flops", "words", "supersteps"):
            out[f"eig.{kind}.sim_{comp}"] = 0.0
    for entries in attainment:
        for entry in entries:
            kind = entry.get("kind")
            if kind not in ratios:
                continue
            for comp in ("flops", "words", "supersteps"):
                out[f"eig.{kind}.sim_{comp}"] += float(entry["measured"][comp])
            r = entry["ratio"].get("words")
            if r is not None:
                ratios[kind].append(float(r))
    for kind in STAGES:
        vals = ratios[kind]
        out[f"eig.{kind}.attain_words.mean"] = sum(vals) / len(vals) if vals else 0.0
    return out


@dataclass
class Op:
    """One timed operation and what its checks and metrics need.

    ``wall`` is the operation's wall without the probe time, and ``scale``
    the host-speed factor measured while it ran (hostspeed.py); ``wall *
    scale`` is its wall at reference speed.  Set-up operations carry only
    their check outcome.
    """

    attempted: int
    out: Any
    wall: float = 0.0
    scale: float = 1.0
    problems: list[str] = field(default_factory=list)
    failed_items: int = 0

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.scale


class SolveWorkload:
    """Closed loop of single ``eigensolve_2p5d`` calls on the pinned
    n = 512, p = 256, δ = 2/3 instance shape."""

    #: one operation is one request: its spans share the operation's id
    request_is_op = True
    #: traced stage spans must cover this share of the solve
    coverage_metric = "trace.stage_coverage"

    #: a plain machine observes nothing, so the batched engine must run
    expected_engine = "batched"

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        doc = json.loads((root / "BENCH_engine.json").read_text())
        self.pinned = doc["pinned"]["eig_large"]
        self.pinned_cost = doc["cases"]["eig_n512_p256"]["cost"]
        self.engine = ""
        self.setup_ops: list[Op] = []

    def _solve(self, a: np.ndarray) -> dict[str, Any]:
        machine = BSPMachine(self.pinned["p"])
        res = eig.eigensolve_2p5d(machine, a, delta=self.pinned["delta"])
        return {"a": a, "res": res, "engine": resolve_chase_engine(machine),
                "params": machine.params}

    def setup(self) -> None:
        """Solve the pinned instance with an empty charge-tape memo: the
        solve fills the memo, and its cost is checked against
        BENCH_engine.json."""
        _TAPE_CACHE.clear()
        out = self._solve(random_symmetric(self.pinned["n"], seed=self.pinned["seed"]))
        op = Op(1, None)
        bad = self._cost_problem(out, "pinned instance") or spectrum_problem(
            out["a"], out["res"].eigenvalues, "pinned instance")
        if bad:
            op.problems.append(bad)
            op.failed_items = 1
        self.setup_ops.append(op)

    def make_input(self, index: int) -> np.ndarray:
        return random_symmetric(self.pinned["n"], seed=derived_seed(self.seed, index))

    def run(self, inp: np.ndarray, probe: HostProbe) -> Op:
        with probe.interval() as iv:
            out = self._solve(inp)
        return Op(1, out, iv.work, iv.scale)

    def _cost_problem(self, out: dict[str, Any], what: str) -> str | None:
        cost = out["res"].cost
        diffs = [f for f in COST_FIELDS if getattr(cost, f) != self.pinned_cost[f]]
        if diffs:
            return f"{what}: simulated cost differs from BENCH_engine.json in {diffs}"
        return None

    def check(self, op: Op, index: int, ref: Op | None) -> None:
        """Engine, simulated cost and spectrum of one solve."""
        self.engine = op.out["engine"]
        problems = [
            self._cost_problem(op.out, f"solve {index}"),
            spectrum_problem(op.out["a"], op.out["res"].eigenvalues, f"solve {index}"),
        ]
        if op.out["engine"] != self.expected_engine:
            problems.append(f"solve {index}: chase engine {op.out['engine']!r}, "
                            f"expected {self.expected_engine!r}")
        op.problems += [p for p in problems if p]
        op.failed_items = 1 if op.problems else 0

    def same_outputs(self, ref: Op, other: Op) -> list[str]:
        """Differences between two solves of the same input."""
        r, o = ref.out["res"], other.out["res"]
        out = []
        if ref.out["engine"] != other.out["engine"]:
            out.append(f"chase engine {ref.out['engine']} vs {other.out['engine']}")
        if not np.array_equal(r.eigenvalues, o.eigenvalues):
            out.append("spectra differ")
        if any(getattr(r.cost, f) != getattr(o.cost, f) for f in COST_FIELDS):
            out.append("simulated costs differ")
        return out

    def end_to_end(self, ops: list[Op]) -> dict[str, float]:
        walls = [op.scaled_wall for op in ops]
        cost = ops[0].out["res"].cost
        t_sim = ops[0].out["params"].time(cost.flops, cost.words, cost.mem_traffic, cost.supersteps)
        ok = sum(1 for op in ops if not op.problems)
        return {
            "solve_wall_s.p50": statistics.median(walls),
            "jobs_per_s": statistics.median(1.0 / w for w in walls),
            "sim_latency.p50": t_sim,
            "sim_latency.p90": t_sim,
            "deadline_hit_rate": ok / len(ops),
            "sim_time": t_sim,
            "sim_words": cost.words,
            "sim_supersteps": float(cost.supersteps),
        }

    def layer_facts(self, op: Op) -> dict[str, float]:
        res = op.out["res"]
        return stage_facts([attainment_ratios(res.stages, res.stage_meta)])

    def describe(self) -> dict[str, Any]:
        return {"engine": self.engine, "expected_engine": self.expected_engine,
                "instance": {k: self.pinned[k] for k in ("n", "p", "delta")}}


class ServeWorkload:
    """One ``EigenService.run_workload`` pass per operation on a fixed
    arrival trace; the benchmark seed re-draws every job's matrix."""

    #: requests are the service's jobs: solve spans carry the job id
    request_is_op = False
    #: the solves plus the event loop's own time must cover this share of
    #: the pass
    coverage_metric = "trace.solve_loop_share"

    def __init__(self, root: Path, seed: int, durable: bool):
        self.seed = seed
        self.durable = durable
        self.state = root / ".perfbench" / ("serve-scf-durable" if durable else "serve-mixed")
        if durable:
            shape = scf_trace(iterations=17, kpoint_sizes=(24, 32, 32, 48, 64, 96),
                              iteration_gap=3.0e6, seed=0)
        else:
            shape = mixed_workload(200, seed=7)
        self.workload = Workload(
            jobs=[replace(j, seed=derived_seed(seed, j.job_id)) for j in shape.jobs],
            descriptor={**shape.descriptor, "matrix_seed": seed},
        )
        self.params = SERVE_PARAMS
        self.setup_ops: list[Op] = []
        self.sizes = sorted({j.n for j in self.workload.jobs})

    @property
    def cache_path(self) -> Path:
        return self.state / "tuning_cache.json"

    @property
    def journal_path(self) -> Path:
        return self.state / "journal.jsonl"

    def _service(self) -> EigenService:
        pool = MachinePool(4, 16, self.params)
        if not self.durable:
            return EigenService(pool, TuningCache())
        return EigenService(
            pool, TuningCache(self.cache_path), journal=JobJournal(self.journal_path),
            telemetry=Telemetry(capture_solver_spans=True),
        )

    def setup(self) -> None:
        """Warm the process for the pass: the mixed stream solves each
        distinct size once on its planned machine with an empty charge-tape
        memo (filling it); the durable stream writes the on-disk tuning
        cache (its solves record spans, which take the memo-free path)."""
        if self.state.exists():
            shutil.rmtree(self.state)
        self.state.mkdir(parents=True)
        if self.durable:
            cache = TuningCache(self.cache_path)
            service = EigenService(MachinePool(4, 16, self.params), cache)
            for n in self.sizes:
                service.plan(n)
            cache.save()
            self.setup_ops.append(Op(len(self.sizes), None))
            return
        _TAPE_CACHE.clear()
        service = EigenService(MachinePool(4, 16, self.params), TuningCache())
        op = Op(len(self.sizes), None)
        for n in self.sizes:
            plan, _ = service.plan(n)
            s = derived_seed(self.seed, 10**6 + n)
            evals = single_shot_eigenvalues(n, s, plan.p, plan.delta, self.params)
            bad = spectrum_problem(random_symmetric(n, seed=s), evals, f"warm-up n={n}")
            if bad:
                op.problems.append(bad)
                op.failed_items += 1
        self.setup_ops.append(op)

    def make_input(self, index: int) -> None:
        """Every pass serves the same workload; a durable pass starts from
        an empty journal."""
        if self.durable and self.journal_path.exists():
            self.journal_path.unlink()  # a fresh journal: no resumed attempts

    def run(self, _inp: None, probe: HostProbe) -> Op:
        with probe.interval() as iv:
            service = self._service()
            report = service.run_workload(self.workload)
        out: dict[str, Any] = {"report": report}
        if self.durable:
            out["journal"] = read_journal(self.journal_path)
            out["journal_bytes"] = self.journal_path.stat().st_size
            out["telemetry_events"] = len(service.telemetry.events)
        return Op(report.jobs, out, iv.work, iv.scale)

    def check(self, op: Op, index: int, ref: Op | None) -> None:
        """Every job ok and within tolerance of numpy; the first pass
        byte-identical to single-shot solves, later passes to the first."""
        report = op.out["report"]
        bad_jobs: set[int] = set()
        for r in report.results:
            if not r.ok:
                problem = f"job {r.job_id}: {r.status} {r.error_type} {r.error}"
            else:
                problem = spectrum_problem(random_symmetric(r.n, seed=r.seed), r.eigenvalues,
                                           f"pass {index} job {r.job_id}")
            if problem:
                op.problems.append(problem)
                bad_jobs.add(r.job_id)
        if ref is None:
            for r in report.results:
                mismatch = verify_against_single_shot([r], self.params)
                if mismatch:
                    op.problems += mismatch
                    bad_jobs.add(r.job_id)
        else:
            for a, b in zip(ref.out["report"].results, report.results):
                if a.ok and b.ok and not np.array_equal(a.eigenvalues, b.eigenvalues):
                    op.problems.append(f"pass {index} job {b.job_id}: spectrum differs from pass 0")
                    bad_jobs.add(b.job_id)
        if self.durable:
            j = op.out["journal"]
            if j["missing_terminals"] or j["terminals"] != report.jobs or j["torn_tail"]:
                op.problems.append(f"pass {index}: journal incomplete {j}")
                op.failed_items += 1
        op.failed_items += len(bad_jobs)
        op.out["bad_jobs"] = bad_jobs

    def same_outputs(self, ref: Op, other: Op) -> list[str]:
        a, b = ref.out["report"], other.out["report"]
        out = []
        for ra, rb in zip(a.results, b.results):
            if ra.status != rb.status or (
                    ra.ok and not np.array_equal(ra.eigenvalues, rb.eigenvalues)):
                out.append(f"job {ra.job_id}: outcome differs")
        if a.sim_totals() != b.sim_totals():
            out.append("simulated totals differ")
        if a.schedule.summary() != b.schedule.summary():
            out.append("simulated schedule differs")
        return out

    def end_to_end(self, ops: list[Op]) -> dict[str, float]:
        report = ops[0].out["report"]
        bad = ops[0].out["bad_jobs"]
        done = {j.job_id: j.latency for j in report.schedule.jobs
                if j.disposition in ("ok", "degraded") and j.job_id not in bad}
        lats = [done.get(r.job_id, float("inf")) for r in report.results]
        totals = report.sim_totals()
        hits = sum(1 for r in report.results
                   if r.ok and r.deadline_hit and r.job_id not in bad)
        return {
            "solve_wall_s.p50": statistics.median(op.scaled_wall for op in ops),
            "jobs_per_s": statistics.median(op.attempted / op.scaled_wall for op in ops),
            "sim_latency.p50": min(nearest_rank(lats, 50.0), MISSING_LATENCY),
            "sim_latency.p90": min(nearest_rank(lats, 90.0), MISSING_LATENCY),
            "deadline_hit_rate": hits / report.jobs,
            "sim_time": totals["service_time"],
            "sim_words": totals["words"],
            "sim_supersteps": totals["supersteps"],
        }

    def layer_facts(self, op: Op) -> dict[str, float]:
        report = op.out["report"]
        facts = stage_facts([r.attainment for r in report.results])
        res = report.resilience
        waits = [j.queue_wait for j in report.schedule.jobs if j.disposition != "shed"]
        useful = report.sim_totals()["service_time"]
        facts.update({
            "serve.plan_hit_rate": report.plan_hit_rate,
            "serve.queue_wait.p50": nearest_rank(waits, 50.0),
            "serve.queue_wait.p90": nearest_rank(waits, 90.0),
            "serve.utilization": report.schedule.utilization,
            "serve.hedges": float(res.get("hedges", 0)),
            "serve.hedge_wins": float(res.get("hedge_wins", 0)),
            "serve.retries": float(res.get("retries", 0)),
            "serve.charged_over_useful": res["charged"]["service_time"] / useful if useful else 0.0,
            "serve.journal.bytes": float(op.out.get("journal_bytes", 0)),
            "obs.telemetry.events": float(op.out.get("telemetry_events", 0)),
        })
        return facts

    def describe(self) -> dict[str, Any]:
        return {"jobs": len(self.workload.jobs), "sizes": self.sizes,
                "pool": {"machines": 4, "p": 16}, "durable": self.durable}


#: workload name -> constructor(repository root, benchmark seed)
WORKLOADS = {
    "solve-n512": SolveWorkload,
    "serve-mixed": lambda root, seed: ServeWorkload(root, seed, durable=False),
    "serve-scf-durable": lambda root, seed: ServeWorkload(root, seed, durable=True),
}
