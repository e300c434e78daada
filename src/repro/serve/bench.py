"""The ``repro serve-bench`` throughput benchmark and its CI gate.

Three passes of the pinned seeded workload run through the service:

* **cold** — the persistent tuning cache starts absent: every distinct
  shape plans from scratch (in-pass repeats already hit);
* **warm** — a *fresh* service instance reloads the cache file the cold
  pass persisted, demonstrating cross-process reuse: the plan hit rate
  must reach :data:`HIT_RATE_FLOOR` (the acceptance gate is ≥ 80%; with a
  correct store it is 100%);
* **edf** — the warm workload re-served under earliest-deadline-first
  dispatch (``ResiliencePolicy(scheduling="edf")``): same plans, same
  spectra, only the simulated queue order may differ — the SLO section
  shows what deadline-aware dispatch buys the interactive class.

The document written to ``benchmarks/results/BENCH_serve.json`` (a fresh
output, never committed; the gated baseline is the root ``BENCH_serve.json``)
carries, per pass: wall-clock
throughput (jobs/s), simulated-latency percentiles (p50/p99 in BSP time
units), pool utilization, the regime histogram of the planner's routing,
exact simulated cost totals, and cache statistics; plus the byte-identity
verification of every served spectrum against a single-shot solve, and
the per-job bound-attainment roll-up.

``check_serve`` gates a fresh run against the committed baseline with the
same split as ``repro bench``: **simulated quantities compare exactly**
(they are deterministic — drift means the accounting or the scheduler
changed and the baseline must be recommitted deliberately), while
**wall-clock throughput** is compared after host calibration (a pinned
single-shot solve timed on both hosts) with the shared
``REPRO_BENCH_ENVELOPE`` tolerance, and wall-only failures are retried by
:func:`repro.bench.check_with_retries` (the failure text says
"wall-clock regression", which is the retry trigger).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.bench import WALL_TOLERANCE, BenchError
from repro.bsp.machine import BSPMachine
from repro.bsp.params import MachineParams
from repro.eig import solve_by_name
from repro.metrics.attainment import attainment_rollup
from repro.obs.dash import write_dash
from repro.obs.perfetto import merged_trace
from repro.obs.report import build_telemetry_doc
from repro.obs.telemetry import Telemetry
from repro.serve.cache import TuningCache
from repro.serve.journal import CRASH_AFTER_ENV, CRASH_EXIT_CODE, read_journal
from repro.serve.pool import MachinePool
from repro.serve.resilience import SERVICE_SCENARIOS, ResiliencePolicy
from repro.serve.service import (
    EigenService,
    ServeReport,
    verify_against_single_shot,
)
from repro.serve.workload import Workload, mixed_workload
from repro.trace.chrome import write_trace
from repro.util.matrices import random_symmetric
from repro.util.validation import reference_spectrum_error

#: default fresh-results location (the committed baseline lives at the
#: repo root as BENCH_serve.json, mirroring BENCH_engine.json)
DEFAULT_RESULT_PATH = Path("benchmarks") / "results" / "BENCH_serve.json"
DEFAULT_TRACE_PATH = Path("benchmarks") / "results" / "serve_trace.json"
DEFAULT_CACHE_PATH = Path("benchmarks") / "results" / "serve_tuning_cache.json"
DEFAULT_SOAK_PATH = Path("benchmarks") / "results" / "serve_soak.json"
DEFAULT_MERGED_TRACE_PATH = (
    Path("benchmarks") / "results" / "serve_merged_trace.json"
)
DEFAULT_DASH_PATH = Path("benchmarks") / "results" / "serve_dash.html"

#: the serve-bench machine profile: a latency-heavy commodity cluster
#: (α/γ = 3000) chosen so the planner's regime routing is *exercised* —
#: over the pinned size menu the modeled optimum walks from a replicated
#: single-rank solve (n = 8) through 2-, 4- and 8-rank sub-grids up to the
#: dedicated 16-rank grid (n ≥ 96), with δ varying between 1/2 and 2/3.
SERVE_PARAMS = MachineParams(
    gamma=1.0, beta=20.0, nu=2.0, alpha=3000.0, memory_words=float(2**20)
)

#: pinned suite inputs; changing any of these invalidates a baseline
PINNED: dict[str, Any] = {
    "pool": {"machines": 4, "p": 16},
    "workload": {
        "total_jobs": 200,
        "seed": 7,
        "scf_iterations": 6,
        "kpoint_sizes": [24, 32, 32, 48],
        "zipf_mean_gap": 2.0e4,
    },
    "profile": {
        "gamma": 1.0, "beta": 20.0, "nu": 2.0, "alpha": 3000.0,
        "memory_words": float(2**20), "cache_words": None,  # None = inf
    },
    "algorithm": "eig2p5d",
    "calibration": {"n": 32, "p": 2, "delta": 0.5, "seed": 123, "repeats": 3},
}

#: minimum plan hit rate of the warm pass (the acceptance floor; a correct
#: persistent store achieves 1.0)
HIT_RATE_FLOOR = 0.8

#: per-pass summary fields gated by exact equality (deterministic).  The
#: resilience and SLO sections are gate food too: retry/hedge/shed counts
#: and per-class deadline hit rates are pure functions of the seeded
#: workload, so any drift means the resilience layer changed behavior.
EXACT_PASS_FIELDS = (
    "jobs", "ok", "errors", "shed", "degraded", "regimes",
    "sim", "sim_totals", "resilience", "slo",
)

#: summary fields that are wall-clock (the only non-deterministic ones)
WALL_SUMMARY_FIELDS = ("wall_s", "jobs_per_s")


def deterministic_summary(summary: dict[str, Any]) -> dict[str, Any]:
    """A ServeReport summary with its wall-clock fields stripped — two
    same-seed runs must agree on this dict *exactly* (the determinism
    acceptance gate)."""
    return {k: v for k, v in summary.items() if k not in WALL_SUMMARY_FIELDS}


def pinned_workload(pinned: dict[str, Any] | None = None) -> Workload:
    cfg = (pinned or PINNED)["workload"]
    return mixed_workload(
        total_jobs=cfg["total_jobs"],
        seed=cfg["seed"],
        scf_iterations=cfg["scf_iterations"],
        kpoint_sizes=cfg["kpoint_sizes"],
        zipf_mean_gap=cfg["zipf_mean_gap"],
    )


def _profile_params(pinned: dict[str, Any]) -> MachineParams:
    prof = dict(pinned["profile"])
    if prof.get("cache_words") is None:
        prof["cache_words"] = float("inf")
    return MachineParams(**prof)


def calibration_wall(pinned: dict[str, Any] | None = None) -> float:
    """Median wall of a pinned single-shot solve — the host speed probe.

    Scaling the committed throughput by the ratio of this number across
    hosts makes the gate measure *service* regressions, not runner
    hardware (the same trick ``repro bench`` plays with its scalar
    oracle).
    """
    cfg = (pinned or PINNED)["calibration"]
    params = _profile_params(pinned or PINNED)
    a = random_symmetric(cfg["n"], seed=cfg["seed"])
    walls = []
    for _ in range(cfg["repeats"]):
        machine = BSPMachine(cfg["p"], params)
        t0 = time.perf_counter()
        solve_by_name((pinned or PINNED)["algorithm"], machine, a, cfg["delta"])
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _pass_doc(report: ServeReport) -> dict[str, Any]:
    return report.summary()


def run_serve_suite(
    cache_path: Path | str | None = None,
    trace_path: Path | str | None = None,
    workers: int = 0,
    pinned: dict[str, Any] | None = None,
    log: Callable[[str], None] = print,
) -> dict[str, Any]:
    """Run the two-pass pinned suite; return the results document.

    Raises :class:`~repro.bench.BenchError` if any job errors on a clean
    machine, or any served spectrum is not byte-identical to its
    single-shot reference.
    """
    pinned = pinned or PINNED
    params = _profile_params(pinned)
    cache_path = Path(cache_path) if cache_path is not None else DEFAULT_CACHE_PATH
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    if cache_path.exists():
        cache_path.unlink()  # the cold pass must actually be cold

    workload = pinned_workload(pinned)
    if trace_path is not None:
        workload.write(trace_path)

    pool_cfg = pinned["pool"]
    doc: dict[str, Any] = {
        "version": 1,
        "pinned": pinned,
        "workload_sizes": {str(k): v for k, v in workload.sizes().items()},
        "passes": {},
    }

    #: pass → scheduling policy: "edf" re-serves the warm workload under
    #: earliest-deadline-first dispatch (same plans, same spectra — only
    #: the simulated queue order may differ)
    reports: dict[str, ServeReport] = {}
    for label in ("cold", "warm", "edf"):
        pool = MachinePool(pool_cfg["machines"], pool_cfg["p"], params)
        cache = TuningCache(cache_path)  # warm/edf passes reload the cold store
        service = EigenService(
            pool, cache, algorithm=pinned["algorithm"], workers=workers,
            policy=ResiliencePolicy(scheduling="edf") if label == "edf" else None,
        )
        report = service.run_workload(workload)
        reports[label] = report
        doc["passes"][label] = _pass_doc(report)
        bad = [r for r in report.results if not r.ok]
        if bad:
            raise BenchError(
                f"{label} pass: {len(bad)} job(s) errored on a clean machine: "
                + "; ".join(f"job {r.job_id}: {r.error_type}: {r.error}" for r in bad[:3])
            )
        log(
            f"{label}: {report.jobs} jobs, {report.jobs_per_s:.1f} jobs/s, "
            f"plan hit rate {report.plan_hit_rate:.1%}, "
            f"sim p50={report.schedule.percentile(50):.3g} "
            f"p99={report.schedule.percentile(99):.3g}, "
            f"util={report.schedule.utilization:.1%}"
        )

    log("verifying byte-identity of every served spectrum vs single-shot runs...")
    mismatches = verify_against_single_shot(reports["cold"].results, params)
    identical = {
        label: all(
            a.ok and b.ok
            and a.eigenvalues is not None and b.eigenvalues is not None
            and np.array_equal(a.eigenvalues, b.eigenvalues)
            for a, b in zip(reports["cold"].results, reports[label].results)
        )
        for label in ("warm", "edf")
    }
    doc["verify"] = {
        "checked": reports["cold"].ok_jobs,
        "mismatches": mismatches,
        "warm_identical": identical["warm"],
        "identical": identical,
    }
    if mismatches:
        raise BenchError(
            "served eigenvalues diverged from single-shot solves:\n  "
            + "\n  ".join(mismatches[:5])
        )
    for label, same in identical.items():
        if not same:
            raise BenchError(f"{label}-pass eigenvalues differ from the cold pass")

    doc["attainment"] = attainment_rollup(
        r.attainment for r in reports["cold"].results
    )
    doc["calibration_wall_s"] = calibration_wall(pinned)
    return doc


# ------------------------------------------------------------------ #
# gate


def check_serve(
    fresh: dict[str, Any],
    baseline: dict[str, Any],
    wall_tolerance: float = WALL_TOLERANCE,
) -> list[str]:
    """Gate failures of a fresh serve suite vs the baseline ([] = pass)."""
    failures: list[str] = []
    if fresh.get("pinned") != baseline.get("pinned"):
        return [
            "pinned suite inputs differ from the baseline — regenerate it with "
            "`repro serve-bench --out BENCH_serve.json`"
        ]
    verify = fresh.get("verify", {})
    if verify.get("mismatches"):
        failures.append(
            f"{len(verify['mismatches'])} served spectrum(s) not byte-identical "
            "to single-shot solves"
        )
    if not verify.get("warm_identical", False):
        failures.append("warm-pass eigenvalues differ from the cold pass")
    for label, same in verify.get("identical", {}).items():
        if label != "warm" and not same:
            failures.append(f"{label}-pass eigenvalues differ from the cold pass")

    warm = fresh.get("passes", {}).get("warm", {})
    hit_rate = warm.get("plan_hit_rate", 0.0)
    if hit_rate < HIT_RATE_FLOOR:
        failures.append(
            f"warm-pass plan cache hit rate {hit_rate:.1%} is below the "
            f"{HIT_RATE_FLOOR:.0%} floor"
        )

    cal_fresh = fresh.get("calibration_wall_s") or 0.0
    cal_base = baseline.get("calibration_wall_s") or 0.0
    scale = (cal_fresh / cal_base) if cal_fresh > 0 and cal_base > 0 else 1.0

    for label, entry in fresh.get("passes", {}).items():
        base = baseline.get("passes", {}).get(label)
        if base is None:
            failures.append(f"pass {label}: missing from baseline")
            continue
        for fld in EXACT_PASS_FIELDS:
            if entry.get(fld) != base.get(fld):
                failures.append(
                    f"pass {label}: simulated-result drift in {fld}: "
                    f"baseline {base.get(fld)!r} != fresh {entry.get(fld)!r}"
                )
        # throughput: fresh jobs/s may not fall below baseline / (tol × host
        # scale); phrased as a wall-clock regression so the shared retry
        # loop re-times a loaded host instead of failing the build
        base_jps = base.get("jobs_per_s", 0.0)
        floor = base_jps / (wall_tolerance * scale) if base_jps else 0.0
        if entry.get("jobs_per_s", 0.0) < floor:
            failures.append(
                f"pass {label}: throughput wall-clock regression: "
                f"{entry.get('jobs_per_s', 0.0):.2f} jobs/s is below "
                f"{floor:.2f} (= baseline {base_jps:.2f} / {wall_tolerance:.2f} "
                f"/ host-scale {scale:.2f})"
            )
    if fresh.get("attainment") != baseline.get("attainment"):
        failures.append(
            "per-job attainment roll-up drifted from the baseline "
            "(stage cost accounting changed — recommit deliberately)"
        )
    return failures


# ------------------------------------------------------------------ #
# telemetry (PR 10): the observed pass and its gated document


def run_telemetry_suite(
    pinned: dict[str, Any] | None = None,
    workers: int = 0,
    capture_solver_spans: bool = True,
    trace_path: Path | str | None = None,
    dash_path: Path | str | None = None,
    log: Callable[[str], None] = print,
) -> dict[str, Any]:
    """One telemetry-on pass of the pinned workload → the gated document.

    Runs the pinned workload twice on fresh pools with in-memory tuning
    caches: once unobserved, once with a :class:`~repro.obs.telemetry.
    Telemetry` attached (and solver-span capture threaded into every
    solve).  The two deterministic summaries must agree *exactly* — that
    is the strict-no-op acceptance gate in its strongest form: observing
    the service does not change a single simulated quantity.  The
    telemetry document it returns is itself fully deterministic and is
    gated against ``benchmarks/results/telemetry.json`` the same way the
    simulated sections of ``BENCH_serve.json`` are.

    This pass is deliberately **separate** from the three gated
    wall-clock passes of :func:`run_serve_suite`: span capture slows the
    solver's wall clock (never its simulated results), so it must not
    contaminate the throughput numbers.
    """
    pinned = pinned or PINNED
    params = _profile_params(pinned)
    pool_cfg = pinned["pool"]
    workload = pinned_workload(pinned)

    def one_pass(telemetry: Telemetry | None) -> tuple[ServeReport, MachinePool]:
        pool = MachinePool(pool_cfg["machines"], pool_cfg["p"], params)
        service = EigenService(
            pool, TuningCache(), algorithm=pinned["algorithm"],
            workers=workers, telemetry=telemetry,
        )
        return service.run_workload(workload), pool

    unobserved, _ = one_pass(None)
    telemetry = Telemetry(capture_solver_spans=capture_solver_spans)
    observed, pool = one_pass(telemetry)
    if deterministic_summary(observed.summary()) != deterministic_summary(
        unobserved.summary()
    ):
        raise BenchError(
            "telemetry is not a strict no-op: the observed pass's "
            "deterministic summary differs from the unobserved pass"
        )

    doc = build_telemetry_doc(
        telemetry,
        config={
            "pool": dict(pool_cfg),
            "workload": dict(pinned["workload"]),
            "algorithm": pinned["algorithm"],
            "capture_solver_spans": bool(capture_solver_spans),
        },
    )
    if trace_path is not None:
        write_trace(
            merged_trace(telemetry, pool=pool, label="serve-bench pinned workload"), trace_path
        )
    if dash_path is not None:
        write_dash(doc, dash_path, title="repro serve-bench flight recorder")
    ev = doc["events"]
    log(
        f"telemetry: {ev['count']} lifecycle events, "
        f"{doc['solver']['span_events']} solver span events across "
        f"{doc['solver']['attempts_with_spans']} attempts; "
        "observed pass byte-identical to unobserved (strict no-op holds)"
    )
    return doc


# ------------------------------------------------------------------ #
# soak (nightly): solver- and service-level chaos scenarios

DEFAULT_JOURNAL_PATH = Path("benchmarks") / "results" / "serve_journal.jsonl"


def _soak_workload(jobs: int, seed: int):
    return mixed_workload(total_jobs=jobs, seed=seed, scf_iterations=2)


def _soak_service(
    scenario: str | None,
    journal: Path | None,
    workers: int = 0,
    fault_seed0: int = 0,
    telemetry: Telemetry | None = None,
) -> EigenService:
    """One soak service instance on the pinned 2×16 pool.

    ``scenario`` routes to the right injection layer: a service-level name
    (:data:`~repro.serve.resilience.SERVICE_SCENARIOS`) configures the
    resilient loop's chaos hooks; anything else is a solver-level fault
    scenario installed on every pool worker (the PR 7 path); ``None`` runs
    clean (the crash scenario — the only failure is the kill itself).
    """
    pool = MachinePool(2, 16, SERVE_PARAMS)
    if scenario is not None and scenario in SERVICE_SCENARIOS:
        return EigenService(
            pool, TuningCache(), workers=workers,
            scenario=scenario, fault_seed0=fault_seed0, journal=journal,
            telemetry=telemetry,
        )
    return EigenService(
        pool, TuningCache(), workers=workers,
        faults=scenario, fault_seed0=fault_seed0, journal=journal,
        telemetry=telemetry,
    )


def _silent_wrong(report: ServeReport, tol: float) -> list[dict[str, Any]]:
    """Ok-status jobs whose spectrum misses the numpy reference — the
    never-silently-wrong invariant's violation list (must be empty)."""
    out: list[dict[str, Any]] = []
    for r in report.results:
        if not r.ok:
            continue
        a = random_symmetric(r.n, seed=r.seed)
        err = reference_spectrum_error(a, r.eigenvalues)
        if not err < tol:
            out.append(
                {"job_id": r.job_id, "n": r.n, "error": float(err), "degraded": r.degraded}
            )
    return out


def crash_driver(
    jobs: int, seed: int, journal_path: str, workers: int = 0
) -> None:
    """Subprocess entry point of the crash scenario: serve the pinned soak
    workload against a journal with ``REPRO_SERVE_CRASH_AFTER`` armed, so
    the process hard-exits mid-workload (``os._exit(70)``)."""
    service = _soak_service(None, Path(journal_path), workers=workers)
    service.run_workload(_soak_workload(jobs, seed))


def run_crash_resume(
    jobs: int = 48,
    seed: int = 11,
    journal_path: Path | str = DEFAULT_JOURNAL_PATH,
    crash_after: int | None = None,
    tol: float = 1e-6,
    dash_path: Path | str | None = None,
    log: Callable[[str], None] = print,
) -> dict[str, Any]:
    """The mid-run-crash scenario: kill a serving subprocess, resume, compare.

    1. Serve the workload uninterrupted (no journal) — the reference.
    2. Spawn a subprocess serving the same workload against a journal with
       the crash hook armed; it must die with :data:`CRASH_EXIT_CODE`.
    3. Resume in this process against the journal; the resumed report must
       be byte-identical to the reference (summary and spectra), and the
       journal must show every submitted job with a terminal disposition.
    """
    journal_path = Path(journal_path)
    journal_path.parent.mkdir(parents=True, exist_ok=True)
    if journal_path.exists():
        journal_path.unlink()
    if crash_after is None:
        # past the header + submit records and a handful of attempts:
        # solidly mid-workload, well before the last terminal
        crash_after = 1 + jobs + max(3, jobs // 4)

    workload = _soak_workload(jobs, seed)
    reference = _soak_service(None, None).run_workload(workload)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    env[CRASH_AFTER_ENV] = str(crash_after)
    code = (
        "from repro.serve.bench import crash_driver; "
        f"crash_driver(jobs={jobs}, seed={seed}, journal_path={str(journal_path)!r})"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    if proc.returncode != CRASH_EXIT_CODE:
        raise BenchError(
            f"crash subprocess exited {proc.returncode}, expected "
            f"{CRASH_EXIT_CODE} (the injected crash): {proc.stderr[-500:]}"
        )
    interrupted = read_journal(journal_path)

    # the flight recorder observes the *resumed* run (telemetry is a
    # strict no-op, so the byte-identity compare below still holds)
    telemetry = (
        Telemetry(capture_solver_spans=False) if dash_path is not None else None
    )
    resumed = _soak_service(
        None, journal_path, telemetry=telemetry
    ).run_workload(workload)
    summary_identical = deterministic_summary(
        resumed.summary()
    ) == deterministic_summary(reference.summary())
    spectra_identical = all(
        (a.eigenvalues is None) == (b.eigenvalues is None)
        and (a.eigenvalues is None or np.array_equal(a.eigenvalues, b.eigenvalues))
        for a, b in zip(reference.results, resumed.results)
    )
    jsum = read_journal(journal_path)
    doc = {
        "version": 2,
        "scenario": "crash",
        "jobs": resumed.jobs,
        "ok": resumed.ok_jobs,
        "typed_errors": resumed.error_jobs,
        "degraded": sum(r.degraded for r in resumed.results),
        "error_types": sorted({r.error_type for r in resumed.results if not r.ok}),
        "crash_after_appends": crash_after,
        "crash_exit": proc.returncode,
        "journal_at_crash": interrupted,
        "journal": jsum,
        "resumed_summary_identical": summary_identical,
        "resumed_spectra_identical": spectra_identical,
        "deterministic": summary_identical and spectra_identical,
        "no_job_lost": (
            jsum["submitted"] == resumed.jobs and not jsum["missing_terminals"]
        ),
        "silent_wrong": _silent_wrong(resumed, tol),
        "dispositions": resumed.schedule.dispositions(),
        "resilience": resumed.resilience,
        "slo": resumed.slo,
    }
    if telemetry is not None and dash_path is not None:
        tdoc = build_telemetry_doc(
            telemetry,
            config={"scenario": "crash", "jobs": jobs, "seed": seed,
                    "crash_after": crash_after},
        )
        write_dash(
            tdoc, dash_path, title="repro soak flight recorder — crash resume"
        )
        doc["dash"] = {
            "path": str(dash_path),
            "events": tdoc["events"]["count"],
            "event_digest": tdoc["events"]["digest"],
        }
    log(
        f"soak[crash]: killed after {crash_after} journal appends "
        f"({interrupted['attempts']} attempts journaled), resumed "
        f"{doc['ok']}/{doc['jobs']} ok; summary identical: {summary_identical}, "
        f"spectra identical: {spectra_identical}, no job lost: {doc['no_job_lost']}"
    )
    return doc


def run_soak(
    jobs: int = 48,
    machines: int = 2,
    machine_p: int = 16,
    seed: int = 11,
    scenario: str = "chaos",
    fault_seed0: int = 0,
    tol: float = 1e-6,
    workers: int = 0,
    journal_path: Path | str = DEFAULT_JOURNAL_PATH,
    dash_path: Path | str | None = None,
    log: Callable[[str], None] = print,
) -> dict[str, Any]:
    """Serve a workload under a chaos scenario and check the invariants.

    ``scenario`` is a solver-level fault scenario (``chaos``,
    ``rank-failure``, ...: every pool worker injects faults), a
    service-level scenario (``flaky-machine``, ``straggler``,
    ``poison-job``: the resilient loop's chaos hooks), or ``crash``
    (delegates to :func:`run_crash_resume`).  Three invariants gate:

    * **never silently wrong** — every ok-status spectrum matches the
      numpy reference within ``tol``;
    * **no job lost** — every submitted job owns a journal terminal
      record with a disposition in ``ok | degraded | shed | error``;
    * **deterministic** — a second run of the same seeded config produces
      an identical summary (wall-clock fields excluded).
    """
    if scenario == "crash":
        return run_crash_resume(
            jobs=jobs, seed=seed, journal_path=journal_path, tol=tol,
            dash_path=dash_path, log=log,
        )
    if scenario not in SERVICE_SCENARIOS:
        from repro.faults.plan import SCENARIOS

        if scenario not in SCENARIOS:
            raise ValueError(
                f"unknown soak scenario {scenario!r}; choose a solver scenario "
                f"{sorted(SCENARIOS)} or a service scenario "
                f"{sorted(SERVICE_SCENARIOS) + ['crash']}"
            )
    del machines, machine_p  # pinned by _soak_service (kept for API compat)

    journal_path = Path(journal_path)
    journal_path.parent.mkdir(parents=True, exist_ok=True)
    if journal_path.exists():
        journal_path.unlink()  # each soak run journals from scratch

    workload = _soak_workload(jobs, seed)
    # the flight recorder rides the journaled run; telemetry is a strict
    # no-op so the determinism compare against the untelemetried rerun
    # still holds (solver-span capture stays off to keep soak wall cheap)
    telemetry = (
        Telemetry(capture_solver_spans=False) if dash_path is not None else None
    )
    report = _soak_service(
        scenario, journal_path, workers=workers, fault_seed0=fault_seed0,
        telemetry=telemetry,
    ).run_workload(workload)
    rerun = _soak_service(
        scenario, None, workers=workers, fault_seed0=fault_seed0
    ).run_workload(workload)
    deterministic = deterministic_summary(report.summary()) == deterministic_summary(
        rerun.summary()
    )
    silent_wrong = _silent_wrong(report, tol)
    jsum = read_journal(journal_path)
    doc = {
        "version": 2,
        "scenario": scenario,
        "fault_seed0": fault_seed0,
        "tol": tol,
        "jobs": report.jobs,
        "ok": report.ok_jobs,
        "typed_errors": report.error_jobs,
        "shed": report.shed_jobs,
        "degraded": sum(r.degraded for r in report.results),
        "error_types": sorted(
            {r.error_type for r in report.results if not r.ok}
        ),
        "silent_wrong": silent_wrong,
        "dispositions": report.schedule.dispositions(),
        "resilience": report.resilience,
        "slo": report.slo,
        "health": report.health,
        "journal": jsum,
        "no_job_lost": (
            jsum["submitted"] == report.jobs and not jsum["missing_terminals"]
        ),
        "deterministic": deterministic,
    }
    if telemetry is not None and dash_path is not None:
        tdoc = build_telemetry_doc(
            telemetry,
            config={"scenario": scenario, "jobs": jobs, "seed": seed,
                    "fault_seed0": fault_seed0},
        )
        write_dash(
            tdoc, dash_path, title=f"repro soak flight recorder — {scenario}"
        )
        doc["dash"] = {
            "path": str(dash_path),
            "events": tdoc["events"]["count"],
            "event_digest": tdoc["events"]["digest"],
        }
    log(
        f"soak[{scenario}]: {doc['ok']}/{doc['jobs']} ok "
        f"({doc['degraded']} degraded, {doc['shed']} shed), "
        f"{doc['typed_errors']} typed errors, {len(silent_wrong)} silently wrong; "
        f"no job lost: {doc['no_job_lost']}, deterministic: {deterministic}"
    )
    return doc


# ------------------------------------------------------------------ #
# document I/O (mirrors repro.bench)


def render_serve(doc: dict[str, Any]) -> str:
    from repro.report.tables import format_table

    rows = []
    for label, entry in doc.get("passes", {}).items():
        sim = entry.get("sim", {})
        rows.append(
            [
                label,
                entry.get("jobs", 0),
                f"{entry.get('jobs_per_s', 0.0):.1f}",
                f"{entry.get('plan_hit_rate', 0.0):.1%}",
                f"{sim.get('latency_p50', 0.0):.4g}",
                f"{sim.get('latency_p99', 0.0):.4g}",
                f"{sim.get('utilization', 0.0):.1%}",
                " ".join(f"{k}:{v}" for k, v in entry.get("regimes", {}).items()),
            ]
        )
    table = format_table(
        ["pass", "jobs", "jobs/s", "plan hits", "sim p50", "sim p99", "util", "regimes"],
        rows,
        title="eigensolver service benchmark (latency in simulated BSP time)",
    )
    verify = doc.get("verify", {})
    tail = (
        f"\nbyte-identity: {verify.get('checked', 0)} spectra verified against "
        f"single-shot solves, {len(verify.get('mismatches', []))} mismatches; "
        f"warm pass identical: {verify.get('warm_identical')}"
    )
    return table + tail


def write_serve_results(doc: dict[str, Any], path: Path | str) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return out


def load_serve_baseline(path: Path | str) -> dict[str, Any]:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(
            f"no serve baseline at {path}; create one with `repro serve-bench --out {path}`"
        )
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"serve baseline {path} is unreadable: {exc}") from exc
