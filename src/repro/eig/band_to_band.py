"""Algorithm IV.2: 2.5D band-to-band reduction.

Reduces a symmetric band-``b`` matrix to band-width ``h = b/k`` by pipelined
bulge chasing, where — unlike CA-SBR, which gives each processor a set of
bulge chases — every QR factorization and trailing update is itself executed
by a *processor group* ``Π̂_j`` of ``p̂ = p·b/n`` ranks (line 5: group j
performs chase j of every bulge, as soon as group j−1 has finished chase
j−1 of the previous bulge).

Execution here follows the panel-major linearization of the pipeline (a
valid dependency order — see :mod:`repro.eig.schedule` for the concurrency
structure); each step charges only its own group's ranks, so the aggregated
BSP cost reflects the pipeline's concurrency exactly.

Measured costs (Lemma IV.3, k = b/h):
F = O(n²b/p), W = O(n^{1+δ} b^{1−δ}/p^δ), S = O(k^δ n^{1−δ} p^δ/b^{1−δ} ·log p).
"""

from __future__ import annotations

import os

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.kernels import qr_flops
from repro.bsp.machine import BSPMachine
from repro.blocks.matmul import carma_matmul
from repro.blocks.rect_qr import rect_qr
from repro.dist.banded import DistBandMatrix
from repro.eig.schedule import group_of_step
from repro.linalg.sbr import ChaseStep, chase_steps
from repro.linalg.householder import compact_wy_qr_general


def _charge_chase_qr(machine: BSPMachine, group: RankGroup, block: np.ndarray) -> None:
    """Charge one chase block's QR on a group (rect-QR, or local when degenerate)."""
    m, ncols = block.shape
    if m >= ncols and group.size > 1:
        rect_qr(machine, group, block, charge_redistribution=False)
    else:
        machine.charge_flops(group[0], qr_flops(max(m, ncols), min(m, ncols)))
        machine.superstep(group, 1)


def apply_chase_parallel(
    machine: BSPMachine,
    band: DistBandMatrix,
    step: ChaseStep,
    qr_group: RankGroup,
    upd_group: RankGroup,
    tag: str = "b2b",
) -> None:
    """Execute one chase step (lines 16–22) with group-parallel kernels.

    Numerically identical to :func:`repro.linalg.sbr.apply_chase_step`, but
    the QR runs on ``qr_group`` (Π̂_j[1 : ph/n]) and the V/update products on
    ``upd_group`` (Π̂_j), with window fetch/store charged against the band's
    column owners.

    The band's *values* evolve via one direct compact-WY factorization and
    plain dense products per step — the same arithmetic the batched engine
    (:mod:`repro.eig.chase_batch`) performs — while the parallel kernels run
    alongside purely for their charges, spans and fault hooks (their
    costs depend only on shapes and groups, their numerical results only in
    summation order).  Sharing one data evolution keeps window nonzero
    counts — the only value-dependent charges — identical across engines,
    which is what makes the two cost reports byte-equal at every size.
    """
    rows = slice(step.oqr_r, step.oqr_r + step.nr)
    cols = slice(step.oqr_c, step.oqr_c + step.ncols)
    with machine.span("chase_qr", group=qr_group):
        block = band.fetch_window(rows, cols, qr_group, tag=f"{tag}:qr_fetch")
        u, t, r = compact_wy_qr_general(block)
        _charge_chase_qr(machine, qr_group, block)
        out = np.zeros_like(block)
        out[: r.shape[0], :] = r
        band.store_window(rows, cols, out, qr_group)

    if step.nc <= 0:
        return
    up = slice(step.oup_c, step.oup_c + step.nc)
    with machine.span("chase_update", group=upd_group):
        bup = band.fetch_window(up, rows, upd_group, tag=f"{tag}:upd_fetch")
        # Lines 19–20: W = B[Iup, Iqr]·U·T;  V = −W + ½U(Tᵀ(Uᵀ W[Iv])).  These
        # products are charged through CARMA (Lemma III.2), exactly as Lemma
        # IV.3's proof invokes it — for these outer shapes CARMA splits both
        # operands, beating any pattern that replicates U to the whole group.
        ut = u @ t  # cost: free(charged via the carma call on the next line)
        carma_matmul(machine, upd_group, u, t, charge_redistribution=False)
        w = bup @ ut  # cost: free(charged via the carma call on the next line)
        carma_matmul(machine, upd_group, bup, ut, charge_redistribution=False)
        v = -w
        vrows = slice(step.ov, step.ov + step.nr)
        inner = u.T @ w[vrows, :]  # cost: free(charged via the carma call on the next line)
        carma_matmul(machine, upd_group, u.T, w[vrows, :], charge_redistribution=False)
        v[vrows, :] += 0.5 * (u @ (t.T @ inner))  # cost: free(charged via charge_flops on the next line)
        machine.charge_flops(upd_group, 2.0 * u.size * t.shape[0] / upd_group.size)
        # Lines 21–22: two-sided rank-2h update of the window (both triangles;
        # the overlap block B[Iqr, Iqr] accumulates UVᵀ AND VUᵀ).
        uvt = u @ v.T  # cost: free(charged via the carma call on the next line)
        carma_matmul(machine, upd_group, u, v.T, charge_redistribution=False)
        band.data[rows, up] += uvt
        band.data[up, rows] += uvt.T
        band.charge_store(rows, up, upd_group)


def resolve_chase_engine(machine: BSPMachine, chase_engine: str | None = None) -> str:
    """Pick "batched" or "perstep" for the chase loops.

    Explicit argument wins, then the ``REPRO_CHASE_ENGINE`` environment
    variable, then "auto".  "auto" selects the batched engine exactly when
    :func:`repro.bsp.batch.batched_charging_ok` holds — observed runs
    (spans, metrics, fault injection, verifying machines) always get
    the per-step path so their artifacts are unchanged.
    """
    from repro.bsp.batch import batched_charging_ok

    engine = chase_engine or os.environ.get("REPRO_CHASE_ENGINE") or "auto"
    if engine not in ("auto", "batched", "perstep"):
        raise ValueError(f"unknown chase engine {engine!r}")
    if engine == "auto":
        return "batched" if batched_charging_ok(machine) else "perstep"
    return engine


def band_to_band_2p5d(
    machine: BSPMachine,
    band: DistBandMatrix,
    k: int = 2,
    tag: str = "b2b",
    chase_engine: str | None = None,
) -> DistBandMatrix:
    """Reduce a distributed band-``b`` matrix to band-width ``b/k``.

    Returns a new :class:`DistBandMatrix` with band-width ``h = b/k`` over
    the same group.  ``k`` must divide ``b`` (the paper's b mod k ≡ 0).

    ``chase_engine`` selects per-step or batched charging (see
    :func:`resolve_chase_engine`); both produce bit-identical cost reports.
    """
    b = band.b
    n = band.n
    if k < 2:
        raise ValueError("k must be >= 2")
    if b % k:
        raise ValueError(f"k={k} must divide the band-width b={b}")
    h = b // k
    group = band.group
    p = group.size
    # ⌈n/b⌉ groups Π̂_j of p̂ = p·b/n ranks each (at least one rank per group;
    # ceil so a ragged final panel gets its own group, matching group_of_step).
    n_groups = max(1, min(p, -(-n // b)))
    subgroups = group.split(n_groups)
    # QR sub-groups: Π̂_j[1 : p·h/n] (line 16).
    qr_size = max(1, (p * h) // n)

    if resolve_chase_engine(machine, chase_engine) == "batched":
        from repro.eig.chase_batch import run_chases_batched

        run_chases_batched(machine, band, h, subgroups, qr_size, n_groups)
    else:
        with machine.span("band_to_band", group=group):
            for step in chase_steps(n, b, h):
                gidx = group_of_step(step, n, b) % n_groups
                upd_group = subgroups[gidx]
                qr_group = upd_group.take(min(qr_size, upd_group.size))
                apply_chase_parallel(machine, band, step, qr_group, upd_group, tag=tag)

    band.data[:] = (band.data + band.data.T) / 2.0
    return DistBandMatrix(machine, band.data, h, group)
