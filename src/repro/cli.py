"""Command-line interface: ``python -m repro <command>``.

Commands
--------
solve    run the 2.5D eigensolver on a random symmetric matrix and print
         the spectrum edges plus the measured BSP cost breakdown
         (``--verify`` runs it on a VerifiedMachine that asserts the BSP
         discipline invariants every superstep)
run      alias of ``solve``
lint     static cost-accounting lint of the source tree (see
         docs/static_analysis.md)
bench    wall-clock benchmark of the accounting engine itself; with
         ``--check`` gates against a committed BENCH_engine.json baseline
trace    run one eigensolve with span tracing on, print the critical-path
         breakdown, and export a Chrome trace-event JSON (Perfetto);
         ``--per-rank`` adds a multi-track file with one timeline per rank
metrics  run one instrumented eigensolve and export per-rank metrics:
         rank-to-rank communication heatmap, memory watermarks vs the
         Theorem IV.4 bound, imbalance statistics, and bound-attainment
         ratios; with ``--check`` gates against a committed baseline
chaos    sweep seeded fault scenarios over the pinned eigensolve and
         assert the chaos invariant: every run recovers or fails with a
         typed, span-attributed error (see docs/robustness.md)
serve-bench
         run the pinned seeded workload through the batched eigensolver
         service (machine pool + bin-packing scheduler + persistent
         δ-autotuning cache): three passes (cold, warm from the persisted
         cache, then EDF scheduling), byte-identity verification of every
         served spectrum against single-shot solves, and a
         BENCH_serve.json throughput/latency/SLO report; ``--check``
         gates against a committed baseline, ``--soak`` runs a chaos
         scenario (solver faults, flaky-machine, straggler, poison-job,
         or crash/resume) and asserts never-silently-wrong, no-job-lost,
         and determinism (see docs/serving.md); ``--telemetry-out`` runs
         the observed pass of the unified telemetry layer and writes the
         deterministic telemetry.json (``--telemetry-check`` gates it,
         ``--merged-trace-out`` exports the merged Perfetto trace,
         ``--dash-out`` the flight-recorder HTML — see
         docs/observability.md)
dash     render a telemetry.json as a self-contained HTML flight-recorder
         dashboard (timeline, SLO hit rates, latency percentiles,
         breaker/hedge chronology)
table1   print the paper's Table I, symbolically and evaluated at (n, p)
figure1  print the Figure 1 structure diagram (Algorithm IV.1)
figure2  print the Figure 2 pipeline diagram (Algorithm IV.2)
tune     sweep δ for a machine profile and report the best setting
"""

from __future__ import annotations

import argparse
import sys


def _fail(msg: str) -> int:
    """Uniform CLI failure path: one-line diagnostic on stderr, exit 2."""
    print(f"repro: error: {msg}", file=sys.stderr)
    return 2


def _load_baseline(loader, path):
    """The shared ``--check`` preamble of every gated command.

    Loads the committed baseline *before* the (slow) suite runs, through
    the command's own ``loader``.  A missing or unreadable baseline is a
    configuration error, not a bench failure — the typed contract, shared
    by ``repro bench``, ``repro metrics``, ``repro serve-bench`` and the
    telemetry gate, is **exit 2** with a one-line message naming the
    expected file (each loader's FileNotFoundError text says how to
    create it).

    Returns ``(baseline, None)`` on success, ``(None, exit_code)`` on
    failure — the caller returns the exit code immediately.
    """
    from repro.bench import BenchError

    try:
        return loader(path), None
    except (OSError, ValueError, BenchError) as exc:
        return None, _fail(str(exc))


def _report_gate(failures: list[str], baseline_path, what: str) -> int:
    """The shared ``--check`` epilogue: print failures (exit 1) or the
    pass line (exit 0)."""
    if failures:
        print(f"\n{what} FAILED against baseline {baseline_path}:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"baseline check passed against {baseline_path}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro import BSPMachine, eigensolve_2p5d
    from repro.util import random_symmetric
    from repro.util.validation import reference_spectrum_error

    a = random_symmetric(args.n, seed=args.seed)
    if args.verify:
        from repro.lint.verify import VerifiedMachine

        machine: BSPMachine = VerifiedMachine.for_problem(args.p, args.n, args.delta)
    elif args.faults:
        from repro.faults import FaultPlan, FaultyMachine, parse_faults

        spec, fault_seed = parse_faults(args.faults)
        machine = FaultyMachine(args.p, plan=FaultPlan(spec, fault_seed), spans=True)
    else:
        from repro.faults import machine_from_env

        machine = machine_from_env(args.p)
    res = eigensolve_2p5d(machine, a, delta=args.delta)
    err = reference_spectrum_error(a, res.eigenvalues)
    print(f"n={args.n} p={args.p} delta={res.delta:.3f} c={res.replication} b0={res.initial_bandwidth}")
    print(f"lambda_min={res.eigenvalues[0]:+.6f}  lambda_max={res.eigenvalues[-1]:+.6f}")
    print(f"max |lambda - numpy| = {err:.3e}")
    print(res.stage_summary())
    if machine.faults.enabled:
        print(machine.plan.summary())
    if args.verify:
        print(
            f"verified: {machine.checks_run} invariant checks "
            f"(conservation, monotone counters, M <= {machine.memory_bound_words:.4g} words/rank) passed"
        )
    return 0 if err < 1e-6 else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import runner

    argv = [str(p) for p in args.paths]
    if args.baseline is not None:
        argv += ["--baseline", str(args.baseline)]
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.write_baseline:
        argv.append("--write-baseline")
    if args.fail_stale:
        argv.append("--fail-stale")
    if args.dataflow:
        argv.append("--dataflow")
    if args.explain is not None:
        argv += ["--explain", args.explain]
    if args.sarif is not None:
        argv += ["--sarif", str(args.sarif)]
    return runner.main(argv)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro import bench

    baseline = None
    if args.check is not None:
        baseline, err = _load_baseline(bench.load_baseline, args.check)
        if err is not None:
            return err

    try:
        results = bench.run_suite(repeats=args.repeats)
    except bench.BenchError as exc:
        print(f"bench FAILED: {exc}", file=sys.stderr)
        return 1
    print(bench.render_results(results))
    out = bench.write_results(results, args.out)
    print(f"\nwrote {out}")
    if baseline is None:
        return 0
    try:
        final, failures = bench.check_with_retries(
            results, baseline, lambda: bench.run_suite(repeats=args.repeats)
        )
    except bench.BenchError as exc:
        print(f"bench FAILED: {exc}", file=sys.stderr)
        return 1
    if final is not results:
        out = bench.write_results(final, args.out)
        print(f"rewrote {out} with the re-timed results")
    return _report_gate(failures, args.check, "bench")


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro import BSPMachine, eigensolve_2p5d
    from repro.trace import chrome_trace, chrome_trace_per_rank, write_trace
    from repro.util import random_symmetric

    a = random_symmetric(args.n, seed=args.seed)
    machine = BSPMachine(args.p, engine=args.engine, spans=True, metrics=args.per_rank)
    res = eigensolve_2p5d(machine, a, delta=args.delta)
    breakdown = res.cost.by_span()
    engine = "scalar" if args.engine == "scalar" else "array"
    print(breakdown.render(
        title=f"critical-path breakdown (n={args.n}, p={args.p}, delta={res.delta:.3f}, engine={engine})"
    ))
    problems = breakdown.verify_exact()
    if problems:
        print(
            "trace FAILED: span sums diverge from the global cost report in: "
            + ", ".join(problems),
            file=sys.stderr,
        )
        return 1
    print("\nspan sums are bit-exact against the global cost report")
    out = args.out
    if out is None:
        out = Path("benchmarks") / "results" / f"trace_eig_n{args.n}_p{args.p}.json"
    label = f"eigensolve_2p5d n={args.n} p={args.p}"
    path = write_trace(chrome_trace(machine.spans, label=label), out)
    print(f"wrote {path} ({len(machine.spans.events)} spans; open in Perfetto or chrome://tracing)")
    if args.per_rank:
        out = Path(out)
        per_rank_out = out.with_name(out.stem + ".per_rank" + out.suffix)
        snap = res.cost.metrics()
        doc = chrome_trace_per_rank(machine.spans, metrics=snap, label=f"{label} (per rank)")
        path = write_trace(doc, per_rank_out)
        print(
            f"wrote {path} ({snap.p} rank tracks with memory/words counter series)"
        )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro import BSPMachine, bench, eigensolve_2p5d
    from repro.metrics import (
        DEFAULT_ENVELOPE,
        build_metrics_doc,
        check_metrics,
        load_metrics,
        render_metrics,
        write_metrics,
    )
    from repro.util import random_symmetric

    envelope = DEFAULT_ENVELOPE if args.envelope is None else args.envelope

    # Load the baseline *before* writing the fresh document: the default
    # output path is the committed baseline path, so writing first would
    # compare the fresh run against itself.
    baseline = None
    if args.check is not None:
        baseline, err = _load_baseline(load_metrics, args.check)
        if err is not None:
            return err

    def run() -> dict:
        a = random_symmetric(args.n, seed=args.seed)
        machine = BSPMachine(args.p, engine=args.engine, spans=True, metrics=True)
        res = eigensolve_2p5d(machine, a, delta=args.delta)
        engine = "scalar" if args.engine == "scalar" else "array"
        return build_metrics_doc(res, args.n, engine=engine, config={"seed": args.seed})

    doc = run()
    print(render_metrics(doc))
    out = args.out
    if out is None:
        from pathlib import Path

        out = Path("benchmarks") / "results" / f"metrics_eig_n{args.n}_p{args.p}.json"
    out = write_metrics(doc, out)
    print(f"\nwrote {out}")
    if doc["conservation"]["problems"]:
        print("metrics FAILED: conservation violated:", file=sys.stderr)
        for problem in doc["conservation"]["problems"]:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    if baseline is None:
        return 0
    # check_metrics never emits wall-clock failures, so the retry loop of
    # check_with_retries never fires — the gate is fully deterministic.
    final, failures = bench.check_with_retries(
        doc, baseline, run, wall_tolerance=envelope, check=check_metrics
    )
    return _report_gate(failures, args.check, "metrics")


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import render_report, run_chaos, write_report

    outcomes = run_chaos(
        range(args.seed0, args.seed0 + args.seeds),
        n=args.n, p=args.p, delta=args.delta, tol=args.tol,
    )
    print(render_report(outcomes, n=args.n, p=args.p))
    out = write_report(outcomes, args.out, n=args.n, p=args.p)
    print(f"\nwrote {out}")
    bad = [o for o in outcomes if not o.ok]
    if bad:
        seeds = ", ".join(str(o.seed) for o in bad)
        print(
            f"chaos FAILED: {len(bad)} run(s) returned a silently wrong "
            f"spectrum (seeds {seeds})",
            file=sys.stderr,
        )
        return 1
    recovered = sum(o.outcome == "recovered" for o in outcomes)
    typed = sum(o.outcome == "typed-error" for o in outcomes)
    print(
        f"chaos invariant holds: {recovered} recovered, {typed} failed with "
        "typed span-attributed errors, 0 silently wrong"
    )
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro import bench
    from repro.serve import bench as serve_bench

    if args.soak:
        try:
            doc = serve_bench.run_soak(
                jobs=args.soak_jobs,
                scenario=args.faults,
                fault_seed0=args.fault_seed0,
                tol=args.tol,
                workers=args.workers,
                journal_path=args.journal,
                dash_path=args.dash_out,
            )
        except (ValueError, bench.BenchError) as exc:
            print(f"serve soak FAILED: {exc}", file=sys.stderr)
            return 1
        out = serve_bench.write_serve_results(doc, args.soak_out)
        print(f"wrote {out}")
        if doc.get("dash"):
            print(
                f"wrote {doc['dash']['path']} "
                f"(flight recorder: {doc['dash']['events']} lifecycle events)"
            )
        violations = []
        if doc["silent_wrong"]:
            violations.append(
                f"{len(doc['silent_wrong'])} job(s) returned a silently wrong spectrum"
            )
        if not doc.get("no_job_lost", False):
            violations.append(
                "journal shows submitted jobs without a terminal disposition "
                f"(missing: {doc.get('journal', {}).get('missing_terminals')})"
            )
        if not doc.get("deterministic", False):
            violations.append(
                "two same-seed runs produced different summaries"
                if args.faults != "crash"
                else "resumed run is not byte-identical to the uninterrupted run"
            )
        if violations:
            print("serve soak FAILED:", file=sys.stderr)
            for v in violations:
                print(f"  - {v}", file=sys.stderr)
            return 1
        print(
            f"serve soak invariants hold: {doc['ok']}/{doc['jobs']} ok "
            f"({doc['degraded']} degraded, {doc.get('shed', 0)} shed), "
            f"{doc['typed_errors']} typed errors, 0 silently wrong, "
            "no job lost, deterministic"
        )
        return 0

    # both baselines load before any (slow) suite so a missing file fails
    # fast with the shared exit-2 contract
    baseline = None
    if args.check is not None:
        baseline, err = _load_baseline(serve_bench.load_serve_baseline, args.check)
        if err is not None:
            return err
    tel_baseline = None
    if args.telemetry_check is not None:
        from repro.obs import load_telemetry

        tel_baseline, err = _load_baseline(load_telemetry, args.telemetry_check)
        if err is not None:
            return err

    want_telemetry = args.telemetry_only or any(
        x is not None
        for x in (
            args.telemetry_out, args.telemetry_check,
            args.merged_trace_out, args.dash_out,
        )
    )

    if not args.telemetry_only:

        def run() -> dict:
            return serve_bench.run_serve_suite(
                cache_path=args.cache,
                trace_path=args.trace_out,
                workers=args.workers,
            )

        try:
            doc = run()
        except bench.BenchError as exc:
            print(f"serve-bench FAILED: {exc}", file=sys.stderr)
            return 1
        print(serve_bench.render_serve(doc))
        out = serve_bench.write_serve_results(doc, args.out)
        print(f"\nwrote {out}")
        if baseline is not None:
            try:
                final, failures = bench.check_with_retries(
                    doc, baseline, run, check=serve_bench.check_serve
                )
            except bench.BenchError as exc:
                print(f"serve-bench FAILED: {exc}", file=sys.stderr)
                return 1
            if final is not doc:
                out = serve_bench.write_serve_results(final, args.out)
                print(f"rewrote {out} with the re-timed results")
            rc = _report_gate(failures, args.check, "serve-bench")
            if rc != 0:
                return rc

    if not want_telemetry:
        return 0

    # the observed pass: separate from the wall-clock passes above (span
    # capture slows the wall clock, never the simulated results)
    from repro.obs import check_telemetry, render_telemetry, write_telemetry

    try:
        tdoc = serve_bench.run_telemetry_suite(
            workers=args.workers,
            trace_path=args.merged_trace_out,
            dash_path=args.dash_out,
        )
    except bench.BenchError as exc:
        print(f"serve-bench telemetry FAILED: {exc}", file=sys.stderr)
        return 1
    print(render_telemetry(tdoc))
    if args.telemetry_out is not None:
        out = write_telemetry(tdoc, args.telemetry_out)
        print(f"wrote {out}")
    if args.merged_trace_out is not None:
        print(f"wrote {args.merged_trace_out} (merged Perfetto trace)")
    if args.dash_out is not None:
        print(f"wrote {args.dash_out} (flight-recorder dashboard)")
    if tel_baseline is None:
        return 0
    # fully deterministic — no retry loop needed
    return _report_gate(
        check_telemetry(tdoc, tel_baseline), args.telemetry_check,
        "serve-bench telemetry",
    )


def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.obs import load_telemetry, write_dash

    # missing/unreadable telemetry document: the shared exit-2 contract
    doc, err = _load_baseline(load_telemetry, args.telemetry)
    if err is not None:
        return err
    out = write_dash(doc, args.out, title=args.title)
    ev = doc.get("events", {})
    print(
        f"wrote {out} (flight recorder: {ev.get('count', 0)} lifecycle "
        f"events, {doc.get('solver', {}).get('span_events', 0)} solver span "
        "events; self-contained HTML — open in a browser)"
    )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.model.table1 import render_table1, table1_numeric
    from repro.report.tables import format_table

    print(render_table1())
    print()
    rows = [
        [name, cost.W, cost.Q, cost.S]
        for name, cost in table1_numeric(args.n, args.p, args.delta).items()
    ]
    print(format_table(
        ["algorithm", "W", "Q", "S"],
        rows,
        title=f"evaluated at n={args.n}, p={args.p}, delta={args.delta:.3f}",
    ))
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    from repro.report.figures import render_figure1

    print(render_figure1(n_panels=args.panels, step=args.step))
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.report.figures import render_figure2

    print(render_figure2(n=args.n, b=args.b, k=args.k))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.bsp.params import MachineParams
    from repro.model.tuning import best_delta, tuning_table
    from repro.report.tables import format_table

    params = MachineParams(
        gamma=args.gamma, beta=args.beta, nu=args.nu, alpha=args.alpha,
        memory_words=args.memory,
    )
    rows = [
        [r["delta"], r["c"], r["W"], r["S"], r["memory_words"], "yes" if r["fits"] else "no", r["time"]]
        for r in tuning_table(args.n, args.p, params)
    ]
    print(format_table(
        ["delta", "c", "W", "S", "M/rank", "fits", "modeled T"],
        rows,
        title=f"Theorem IV.4 tuning (n={args.n}, p={args.p})",
    ))
    try:
        d, t = best_delta(args.n, args.p, params)
        print(f"\nbest delta = {d:.4f}  (c = {args.p ** (2 * d - 1):.2f}),  modeled T = {t:.4g}")
        return 0
    except ValueError as exc:
        print(f"\nno feasible delta: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Communication-avoiding symmetric eigensolver (SPAA'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("solve", "run"):
        p_solve = sub.add_parser(name, help="run the 2.5D eigensolver" + (" (alias of solve)" if name == "run" else ""))
        p_solve.add_argument("--n", type=int, default=128)
        p_solve.add_argument("--p", type=int, default=16)
        p_solve.add_argument("--delta", type=float, default=2.0 / 3.0)
        p_solve.add_argument("--seed", type=int, default=0)
        p_solve.add_argument(
            "--verify",
            action="store_true",
            help="run on a VerifiedMachine asserting BSP discipline invariants per superstep",
        )
        p_solve.add_argument(
            "--faults",
            default="",
            metavar="SCENARIO[:SEED]",
            help="run on a FaultyMachine injecting the named seeded fault "
            "scenario (also honored via REPRO_FAULTS; see repro chaos)",
        )
        p_solve.set_defaults(fn=_cmd_solve)

    from pathlib import Path

    p_lint = sub.add_parser("lint", help="static cost-accounting lint")
    p_lint.add_argument("paths", nargs="*", type=Path)
    p_lint.add_argument("--baseline", type=Path, default=None)
    p_lint.add_argument("--no-baseline", action="store_true")
    p_lint.add_argument("--write-baseline", action="store_true")
    p_lint.add_argument(
        "--fail-stale",
        action="store_true",
        help="error on baseline entries allowing more findings than currently exist",
    )
    p_lint.add_argument(
        "--dataflow",
        action="store_true",
        help="interprocedural race/ownership rules and symbolic cost certificates",
    )
    p_lint.add_argument(
        "--explain",
        metavar="RULE",
        default=None,
        help="print the long-form explanation for one rule and exit",
    )
    p_lint.add_argument(
        "--sarif", type=Path, default=None, metavar="PATH",
        help="also write findings as a SARIF 2.1.0 log",
    )
    p_lint.set_defaults(fn=_cmd_lint)

    p_bench = sub.add_parser("bench", help="wall-clock benchmark of the accounting engine")
    p_bench.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per case (median is reported)"
    )
    p_bench.add_argument(
        "--out",
        type=Path,
        default=Path("benchmarks") / "results" / "BENCH_engine.json",
        help="where to write the fresh results JSON",
    )
    p_bench.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="compare against a committed BENCH_engine.json; exit 1 on cost drift, "
        ">25%% wall regression (host-calibrated), or speedup below the 3x floor",
    )
    p_bench.set_defaults(fn=_cmd_bench)

    p_trace = sub.add_parser(
        "trace",
        help="span-traced eigensolve: critical-path breakdown + Chrome trace JSON",
    )
    p_trace.add_argument("--n", type=int, default=96)
    p_trace.add_argument("--p", type=int, default=16)
    p_trace.add_argument("--delta", type=float, default=2.0 / 3.0)
    p_trace.add_argument("--seed", type=int, default=3)
    p_trace.add_argument(
        "--engine",
        choices=("array", "scalar"),
        default=None,
        help="accounting engine (default: the vectorized array engine)",
    )
    p_trace.add_argument(
        "--out",
        type=Path,
        default=None,
        help="Chrome trace-event JSON path (default benchmarks/results/trace_eig_n<N>_p<P>.json)",
    )
    p_trace.add_argument(
        "--per-rank",
        action="store_true",
        help="also write a multi-track Perfetto file (<out>.per_rank.json) with "
        "one timeline per rank plus memory/words counter tracks",
    )
    p_trace.set_defaults(fn=_cmd_trace)

    p_metrics = sub.add_parser(
        "metrics",
        help="per-rank metrics: comm heatmap, memory watermarks, bound attainment",
    )
    p_metrics.add_argument("--n", type=int, default=96)
    p_metrics.add_argument("--p", type=int, default=16)
    p_metrics.add_argument("--delta", type=float, default=2.0 / 3.0)
    p_metrics.add_argument("--seed", type=int, default=3)
    p_metrics.add_argument(
        "--engine",
        choices=("array", "scalar"),
        default=None,
        help="accounting engine (default: the vectorized array engine)",
    )
    p_metrics.add_argument(
        "--out",
        type=Path,
        default=None,
        help="metrics JSON path (default benchmarks/results/metrics_eig_n<N>_p<P>.json)",
    )
    p_metrics.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="gate against a committed metrics JSON: conservation, memory "
        "watermark <= model bound, exact comm totals, attainment drift <= envelope",
    )
    p_metrics.add_argument(
        "--envelope",
        type=float,
        default=None,
        help="relative attainment drift allowed vs the baseline (default 0.25)",
    )
    p_metrics.set_defaults(fn=_cmd_metrics)

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded fault-scenario sweep over the pinned eigensolve",
    )
    p_chaos.add_argument("--n", type=int, default=96)
    p_chaos.add_argument("--p", type=int, default=16)
    p_chaos.add_argument("--delta", type=float, default=2.0 / 3.0)
    p_chaos.add_argument("--seeds", type=int, default=8, help="number of seeded runs")
    p_chaos.add_argument("--seed0", type=int, default=0, help="first seed of the sweep")
    p_chaos.add_argument(
        "--tol", type=float, default=1e-6,
        help="spectrum tolerance of the recovered verdict (clean-run gate)",
    )
    p_chaos.add_argument(
        "--out",
        type=Path,
        default=Path("benchmarks") / "results" / "chaos_report.json",
        help="per-scenario outcome report JSON (the CI artifact)",
    )
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_serve = sub.add_parser(
        "serve-bench",
        help="batched eigensolver service throughput bench (pinned workload)",
    )
    p_serve.add_argument(
        "--out",
        type=Path,
        default=Path("benchmarks") / "results" / "BENCH_serve.json",
        help="where to write the fresh results JSON",
    )
    p_serve.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="gate against a committed BENCH_serve.json: exact simulated "
        "latency/cost/regime drift, warm-pass cache hit rate >= 80%%, "
        "byte-identity of served spectra, and host-calibrated throughput",
    )
    p_serve.add_argument(
        "--cache",
        type=Path,
        default=Path("benchmarks") / "results" / "serve_tuning_cache.json",
        help="persistent tuning-cache path (removed first so the cold pass is cold)",
    )
    p_serve.add_argument(
        "--trace-out",
        type=Path,
        default=Path("benchmarks") / "results" / "serve_trace.json",
        help="where to write the generated workload trace (the CI artifact)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="multiprocessing pool workers for the solve phase (0 = inline)",
    )
    p_serve.add_argument(
        "--soak",
        action="store_true",
        help="fault-injection soak instead of the throughput bench: pool "
        "workers run under the named fault scenario; every job must recover, "
        "degrade to a replicated solve, or fail typed — never silently wrong",
    )
    p_serve.add_argument(
        "--soak-jobs", type=int, default=48, help="workload size of the soak run"
    )
    p_serve.add_argument(
        "--soak-out",
        type=Path,
        default=Path("benchmarks") / "results" / "serve_soak.json",
        help="soak report JSON (the nightly CI artifact)",
    )
    p_serve.add_argument(
        "--faults",
        default="chaos",
        metavar="SCENARIO",
        help="chaos scenario of --soak: a solver-level fault scenario "
        "(chaos, rank-failure, ...), a service-level one (flaky-machine, "
        "straggler, poison-job), or crash (kill + journal resume)",
    )
    p_serve.add_argument(
        "--journal",
        type=Path,
        default=Path("benchmarks") / "results" / "serve_journal.jsonl",
        help="write-ahead job journal path of the soak run (the no-job-lost "
        "evidence; uploaded as a nightly CI artifact)",
    )
    p_serve.add_argument(
        "--fault-seed0", type=int, default=0, help="first per-job fault seed of the soak"
    )
    p_serve.add_argument(
        "--tol", type=float, default=1e-6,
        help="spectrum tolerance of the soak's silently-wrong verdict",
    )
    p_serve.add_argument(
        "--telemetry-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="run the telemetry-on pass (strict no-op gated against an "
        "unobserved pass) and write the deterministic telemetry.json there",
    )
    p_serve.add_argument(
        "--telemetry-check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="gate the telemetry-on pass against a committed telemetry.json "
        "(exact equality — every field is deterministic)",
    )
    p_serve.add_argument(
        "--merged-trace-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the merged Perfetto trace of the telemetry pass: service "
        "tracks + per-job solver tracks linked by flow events",
    )
    p_serve.add_argument(
        "--dash-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the self-contained HTML flight-recorder dashboard of the "
        "telemetry pass (with --soak: of the soak run)",
    )
    p_serve.add_argument(
        "--telemetry-only",
        action="store_true",
        help="skip the three wall-clock passes and run only the telemetry "
        "pass (baseline generation / quick dashboard refresh)",
    )
    p_serve.set_defaults(fn=_cmd_serve_bench)

    p_dash = sub.add_parser(
        "dash",
        help="render a telemetry.json as a self-contained HTML flight recorder",
    )
    p_dash.add_argument(
        "--telemetry",
        type=Path,
        default=Path("benchmarks") / "results" / "telemetry.json",
        help="telemetry document to render (written by "
        "`repro serve-bench --telemetry-out`)",
    )
    p_dash.add_argument(
        "--out",
        type=Path,
        default=Path("benchmarks") / "results" / "serve_dash.html",
        help="where to write the HTML report",
    )
    p_dash.add_argument(
        "--title",
        default="repro service flight recorder",
        help="report title",
    )
    p_dash.set_defaults(fn=_cmd_dash)

    p_t1 = sub.add_parser("table1", help="print Table I")
    p_t1.add_argument("--n", type=int, default=65536)
    p_t1.add_argument("--p", type=int, default=32768)
    p_t1.add_argument("--delta", type=float, default=2.0 / 3.0)
    p_t1.set_defaults(fn=_cmd_table1)

    p_f1 = sub.add_parser("figure1", help="print Figure 1")
    p_f1.add_argument("--panels", type=int, default=6)
    p_f1.add_argument("--step", type=int, default=3)
    p_f1.set_defaults(fn=_cmd_figure1)

    p_f2 = sub.add_parser("figure2", help="print Figure 2")
    p_f2.add_argument("--n", type=int, default=48)
    p_f2.add_argument("--b", type=int, default=8)
    p_f2.add_argument("--k", type=int, default=2)
    p_f2.set_defaults(fn=_cmd_figure2)

    p_tune = sub.add_parser("tune", help="pick delta/c for a machine")
    p_tune.add_argument("--n", type=int, default=65536)
    p_tune.add_argument("--p", type=int, default=32768)
    p_tune.add_argument("--gamma", type=float, default=1.0)
    p_tune.add_argument("--beta", type=float, default=100.0)
    p_tune.add_argument("--nu", type=float, default=10.0)
    p_tune.add_argument("--alpha", type=float, default=1e5)
    p_tune.add_argument("--memory", type=float, default=float("inf"))
    p_tune.set_defaults(fn=_cmd_tune)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.faults.errors import FaultError

    try:
        return args.fn(args)
    except FaultError as exc:
        # typed fault-layer errors already carry their span attribution
        return _fail(str(exc))
    except (ValueError, TypeError, FileNotFoundError, NotImplementedError) as exc:
        # invalid n/p/delta combinations etc. — one-line diagnostic, not a
        # traceback (matching _cmd_bench's BenchError handling)
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
