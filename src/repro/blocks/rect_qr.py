"""rect-QR (Algorithm III.2): QR of arbitrary rectangular matrices.

A binary reduction tree over row panels: ``r = min(p, ⌈m/2n⌉)`` concurrent
recursive factorizations on disjoint processor subsets, a recursive QR of
the stacked R factors on the whole group, then the concurrent products
``Q_i = W_i·Z_i`` (line 11).  Base cases (m ≤ 2n, or a single rank) use
:func:`~repro.blocks.square_qr.square_qr` on up to ``qmax`` ranks —
Theorem III.6 picks ``qmax = (p·n/m)·log(p)^{1/δ}`` to balance latency
against bandwidth.

The public entry point returns the aggregated Householder form ``(U, T, R)``
via reconstruction (Corollary III.7); the internal recursion passes explicit
thin Q factors (cheap at these panel sizes, and exactly what line 11
multiplies).
"""

from __future__ import annotations

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine
from repro.blocks.matmul import carma_matmul
from repro.blocks.square_qr import square_qr
from repro.blocks.square_qr_25d import square_qr_25d
from repro.blocks.tsqr import reconstruct_householder
from repro.linalg.householder import expand_q


def default_qmax(p: int, m: int, n: int, delta: float = 0.5) -> int:
    """Theorem III.6's base-case rank cap: (p·n/m)·log₂(p)^{1/δ}."""
    if p <= 1:
        return 1
    lg = max(1.0, np.log2(p))
    return max(1, int(np.ceil(p * n / m * lg ** (1.0 / delta))))


def _rect_qr_thin(
    machine: BSPMachine,
    group: RankGroup,
    a: np.ndarray,
    qmax: int,
    delta: float,
    base25d: bool,
) -> tuple[np.ndarray, np.ndarray]:
    m, n = a.shape
    g = group.size

    # Base cases (lines 1–2).  The 2.5D base case is opt-in: its replicated
    # streaming term wins only for base cases far larger than the 2b×b
    # blocks the eigensolvers produce (see bench_ablation.py).
    if g == 1 or m <= 2 * n:
        sub = group.take(min(g, max(1, qmax)))
        if base25d and delta > 0.5 and sub.size >= 8:
            u, t, r = square_qr_25d(machine, sub, a, delta=delta)
        else:
            u, t, r = square_qr(machine, sub, a)
        return expand_q(u, t), r

    # Line 3: r row panels on disjoint subsets.
    r_parts = min(g, max(2, -(-m // (2 * n))))
    subgroups = group.split(r_parts)
    sizes = [m // r_parts + (1 if i < m % r_parts else 0) for i in range(r_parts)]
    offs = np.concatenate(([0], np.cumsum(sizes)))

    # Lines 5–6: concurrent recursive QRs (disjoint groups — costs land on
    # their own ranks, so sequential execution models concurrency).
    ws: list[np.ndarray] = []
    rs: list[np.ndarray] = []
    for i, sub in enumerate(subgroups):
        ai = a[offs[i] : offs[i + 1], :]
        wi, ri = _rect_qr_thin(machine, sub, ai, qmax, delta, base25d)
        ws.append(wi)
        rs.append(ri)

    # Line 7: recursive QR of the stacked R factors on the whole group.
    stacked = np.vstack(rs)
    z, r_final = _rect_qr_thin(machine, group, stacked, qmax, delta, base25d)

    # Lines 9–11: Q_i = W_i · Z_i, concurrent per subset.
    q_blocks: list[np.ndarray] = []
    for i, sub in enumerate(subgroups):
        zi = z[i * n : (i + 1) * n, :]
        q_blocks.append(
            carma_matmul(machine, sub, ws[i], zi, charge_redistribution=False)
        )
    machine.superstep(group, 1)
    return np.vstack(q_blocks), r_final


def rect_qr(
    machine: BSPMachine,
    group: RankGroup,
    a: np.ndarray,
    qmax: int | None = None,
    delta: float = 0.5,
    base25d: bool = False,
    charge_redistribution: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QR of an m×n matrix (m ≥ n) on ``group``, in Householder form.

    Returns ``(U, T, R)`` with ``A = (I − U T Uᵀ)E·R``; measured costs
    follow Theorem III.6:  F = O(mn²/p), W = O(m^δ n^{2−δ}/p^δ + mn/p),
    S = O((np/m)^δ log² p).
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if m < n:
        raise ValueError(f"rect_qr requires m >= n, got {a.shape}")
    machine.check_group(group)
    if qmax is None:
        qmax = default_qmax(group.size, m, n, delta)
    with machine.span("rect_qr", group=group):
        if charge_redistribution and group.size > 1:
            per_rank = m * n / group.size
            machine.charge_comm_batch(group, per_rank, per_rank)
            machine.superstep(group, 1)
        q_thin, r = _rect_qr_thin(machine, group, a, qmax, delta, base25d)
        return reconstruct_householder(machine, group, q_thin, r)
