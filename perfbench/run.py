"""Repository benchmark: end-to-end and per-layer metrics of three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload solve-n512 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs one untraced operation, then traced operations on the
same input, and reports the per-layer metrics (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines
describe the host and the run.  Any failed correctness check makes the
exit code 1.  A refused environment or a directory without the program
exits 2 without a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: switches that change which code path the program executes
PATH_SWITCHES = (
    "REPRO_ENGINE", "REPRO_CHASE_ENGINE", "REPRO_SPANS", "REPRO_METRICS",
    "REPRO_FAULTS", "REPRO_VERIFY", "REPRO_SERVE_CRASH_AFTER",
)

#: thread-count variables of the BLAS/OpenMP runtimes numpy may load
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
#: one thread: the program's kernels are small, and a single thread keeps
#: timings on a shared two-core host from fighting over the second core
THREAD_CAP = 1

#: fresh-interpreter imports and workload set-ups per run; setup_s
#: counts the median of each
SETUP_REPEATS = 3

#: a traced stage or service pass must account for this share of its wall
MIN_COVERAGE = 0.95

END_TO_END = {
    "setup_s": "s", "solve_wall_s.p50": "s", "jobs_per_s": "1/s",
    "sim_latency.p50": "bsp_units", "sim_latency.p90": "bsp_units",
    "deadline_hit_rate": "ratio", "sim_time": "bsp_units", "sim_words": "words",
    "sim_supersteps": "supersteps", "peak_rss_mib": "MiB", "ok_frac": "ratio",
}

STAGES = ("full_to_band", "band_to_band", "ca_sbr", "finish")
TIMED_LAYERS = (
    "linalg.sturm_bisection", "linalg.band_to_tridiag", "linalg.apply_chase_step",
    "linalg.compact_wy_qr", "blocks.rect_qr", "blocks.carma_matmul",
    "bsp.charge_log_flush", "serve.plan", "serve.solve",
)
PER_LAYER: dict[str, str] = {"eig.solve.incl_s": "s"}
for _s in STAGES:
    PER_LAYER.update({
        f"eig.{_s}.self_s": "s", f"eig.{_s}.incl_s": "s", f"eig.{_s}.calls": "count",
        f"eig.{_s}.sim_flops": "flops", f"eig.{_s}.sim_words": "words",
        f"eig.{_s}.sim_supersteps": "supersteps", f"eig.{_s}.attain_words.mean": "ratio",
    })
for _l in TIMED_LAYERS:
    PER_LAYER.update({f"{_l}.self_s": "s", f"{_l}.calls": "count"})
PER_LAYER.update({
    "serve.solve.incl_s": "s", "serve.loop.self_s": "s", "serve.plan_hit_rate": "ratio",
    "serve.journal.self_s": "s", "serve.journal.appends": "count",
    "serve.journal.bytes": "bytes", "obs.telemetry.events": "count",
    "obs.telemetry.emit_s": "s",
    "serve.queue_wait.p50": "bsp_units", "serve.queue_wait.p90": "bsp_units",
    "serve.utilization": "ratio", "serve.hedges": "count", "serve.hedge_wins": "count",
    "serve.retries": "count", "serve.charged_over_useful": "ratio",
    "trace.overhead": "ratio", "trace.stage_coverage": "ratio",
    "trace.serve_coverage": "ratio", "trace.solve_loop_share": "ratio",
    "host.probe_s": "s",
})


def pin_host() -> dict:
    """Cap the BLAS/OpenMP thread pools (before numpy loads) and describe
    the host."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(min(THREAD_CAP, nproc))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"nproc": nproc, "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
            "versions": versions, "cpu": cpu}


def layer_metrics(tot: dict, facts: dict) -> dict[str, float]:
    """Per-layer values of one traced operation."""
    def get(name: str, key: str) -> float:
        return float(tot.get(name, {}).get(key, 0.0))

    m: dict[str, float] = {"eig.solve.incl_s": get("eig.solve", "incl_s")}
    for s in STAGES:
        for key in ("self_s", "incl_s", "calls"):
            m[f"eig.{s}.{key}"] = get(f"eig.{s}", key)
    for layer in TIMED_LAYERS:
        m[f"{layer}.self_s"] = get(layer, "self_s")
        m[f"{layer}.calls"] = get(layer, "calls")
    m["serve.solve.incl_s"] = get("serve.solve", "incl_s")
    m["serve.loop.self_s"] = get("serve.loop", "self_s")
    m["serve.journal.self_s"] = sum(
        get(f"serve.journal.{k}", "self_s") for k in ("open", "append", "close"))
    m["serve.journal.appends"] = get("serve.journal.append", "calls")
    m["obs.telemetry.emit_s"] = get("obs.telemetry.emit", "self_s") + get(
        "obs.telemetry.other", "self_s")
    stages = sum(m[f"eig.{s}.incl_s"] for s in STAGES)
    m["trace.stage_coverage"] = stages / m["eig.solve.incl_s"] if m["eig.solve.incl_s"] else 0.0
    run_wall = get("serve.run_workload", "incl_s")
    if run_wall:
        m["trace.serve_coverage"] = 1.0 - get("serve.run_workload", "self_s") / run_wall
        m["trace.solve_loop_share"] = (m["serve.solve.incl_s"] + m["serve.loop.self_s"]) / run_wall
    m.update(facts)
    return m


def measure(wl, probe, seconds: float, trace: bool, name: str) -> tuple[list, dict, list[str]]:
    """Run operations until their summed wall reaches ``seconds``; check
    them; return (ops, per-layer metrics or {}, wall-share lines)."""
    if not trace:
        ops = []
        while not ops or sum(op.wall for op in ops) < seconds:
            inp = wl.make_input(len(ops))
            gc.collect()
            op = wl.run(inp, probe)
            wl.check(op, len(ops), ops[0] if ops else None)
            if ops:
                # only the first operation's outputs are read again; holding
                # the rest would tie peak_rss_mib to the sample count
                op.out = None
            ops.append(op)
        return ops, {}, []

    from layertrace import SpanRecorder, dump_rows, instrumented, totals

    inp = wl.make_input(0)
    gc.collect()
    ref = wl.run(inp, probe)
    rec = SpanRecorder()
    traced = []
    with instrumented(rec):
        while not traced or ref.wall + sum(op.wall for op, _ in traced) < seconds:
            inp = wl.make_input(0)
            rec.job = len(traced) if wl.request_is_op else None
            gc.collect()
            op = wl.run(inp, probe)
            traced.append((op, rec.take()))
    wl.check(ref, 0, None)
    per_op = []
    for i, (op, spans) in enumerate(traced, 1):
        op.problems += [f"traced op {i}: {d}" for d in wl.same_outputs(ref, op)]
        m = layer_metrics(totals(spans), wl.layer_facts(op))
        for k, unit in PER_LAYER.items():
            if unit == "s" and k in m:
                m[k] *= op.scale
        m["trace.overhead"] = op.scaled_wall / ref.scaled_wall
        if m[wl.coverage_metric] < MIN_COVERAGE:
            op.problems.append(f"traced op {i}: {wl.coverage_metric} "
                               f"{m[wl.coverage_metric]:.3f} < {MIN_COVERAGE}")
        op.failed_items = max(op.failed_items, 1 if op.problems else 0)
        per_op.append(m)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spans_{name}.json").write_text(json.dumps(dump_rows(traced[-1][1])))
    traced_ops = [op for op, _ in traced]
    layers = {k: statistics.median(m.get(k, 0.0) for m in per_op) for k in PER_LAYER}
    layers["host.probe_s"] = statistics.fmean(probe.samples)
    op_wall = statistics.median(op.scaled_wall for op in traced_ops)
    return [ref] + traced_ops, layers, wall_share(layers, op_wall)


def wall_share(layers: dict, op_wall: float) -> list[str]:
    """Human-readable "where the wall goes" lines of a traced operation."""
    rows = [(f"eig.{s} (incl)", layers[f"eig.{s}.incl_s"]) for s in STAGES]
    rows += [(f"{layer} (self)", layers[f"{layer}.self_s"]) for layer in TIMED_LAYERS]
    rows += [("serve.loop (self)", layers["serve.loop.self_s"]),
             ("serve.journal (self)", layers["serve.journal.self_s"]),
             ("obs.telemetry (self)", layers["obs.telemetry.emit_s"])]
    lines = [f"traced op wall {op_wall:.3f} s"]
    lines += [f"  {label:32s} {v:8.3f} s {100 * v / op_wall:6.1f}%"
              for label, v in rows if v > 0]
    return lines


def import_seconds(repeats: int) -> float:
    """Median scaled time to import the benchmark's program modules in a
    fresh interpreter (interpreter start-up and numpy excluded)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    probe = ("import hostspeed\n"
             "with hostspeed.HostProbe().interval() as iv:\n"
             "    import workloads\n"
             "print(iv.scaled)")
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    set_switches = [v for v in PATH_SWITCHES if os.environ.get(v, "") not in ("", "0")]
    if set_switches:
        print(f"perfbench: refusing to run with {set_switches} set: they change "
              "the executed path", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
            ROOT / "BENCH_engine.json").is_file():
        print(f"perfbench: {ROOT} holds no src/repro package or BENCH_engine.json",
              file=sys.stderr)
        return 2
    host = pin_host()
    sys.path.insert(0, str(ROOT / "src"))

    import resource

    from hostspeed import HostProbe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    probe = HostProbe()
    import_s = import_seconds(SETUP_REPEATS)
    with probe.interval() as iv:
        wl = WORKLOADS[args.workload](ROOT, args.seed)
    build_s = iv.scaled
    setups_s = []
    for _ in range(SETUP_REPEATS):
        with probe.interval() as iv:
            wl.setup()
        setups_s.append(iv.scaled)
    setup_s = import_s + build_s + statistics.median(setups_s)

    ops, layers, share = measure(wl, probe, args.seconds, bool(args.trace), args.workload)

    every = wl.setup_ops + ops
    attempted = sum(op.attempted for op in every)
    failed = sum(op.failed_items for op in every)
    problems = [p for op in every for p in op.problems]
    correct = not problems and failed == 0
    if args.trace:
        metrics = {k: {"value": float(v), "unit": PER_LAYER[k]} for k, v in layers.items()}
    else:
        e2e = wl.end_to_end(ops)
        e2e["setup_s"] = setup_s
        e2e["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e["ok_frac"] = 1.0 - failed / attempted
        metrics = {k: {"value": float(e2e[k]), "unit": u} for k, u in END_TO_END.items()}

    print(json.dumps({"host": host}))
    print(json.dumps({"run": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": len(ops), "op_walls_s": [round(op.wall, 4) for op in ops],
        "op_scales": [round(op.scale, 4) for op in ops],
        "probe_ms": {"min": 1e3 * min(probe.samples), "mean": 1e3 * statistics.fmean(
            probe.samples), "max": 1e3 * max(probe.samples), "count": len(probe.samples)},
        "scaled_setups_s": [round(s, 4) for s in setups_s], "scaled_import_s": import_s,
        "scaled_build_s": build_s,
        **wl.describe()}}))
    for line in share:
        print(line)
    for p in problems[:20]:
        print(f"FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
