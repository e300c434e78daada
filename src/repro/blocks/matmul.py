"""CARMA: communication-optimal recursive rectangular matrix multiplication.

Lemma III.2 (after Demmel, Eliahu, Fox, Kamil, Lipshitz, Schwartz,
Spillinger, IPDPS'13): for any load-balanced starting layout, an m×n by n×k
product on p processors costs

    W = O((mn + nk + mk)/p + v^{1/3} (mnk/p)^{2/3}),   S = O(v log p),

using M = O((mn+nk+mk)/p + (mnk/(vp))^{2/3}) memory, where v ≥ 1 trades
memory for communication (v = 1 with unconstrained memory).

The implementation walks the actual recursion — split the largest of
(m, n, k) in half, halving the processor group (a *BFS* step) — and charges
each rank the operand-doubling or partial-sum traffic of that split.  When a
per-rank memory budget is given and a BFS step would exceed it, a *DFS* step
executes both halves on the whole group sequentially (extra passes → the
``v^{1/3}`` communication inflation and ``v log p`` supersteps).
"""

from __future__ import annotations

import math

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.kernels import local_matmul
from repro.bsp.machine import BSPMachine


def _charge_split(machine: BSPMachine, group: RankGroup, words_per_rank: float) -> None:
    """Charge an operand re-spreading step: each rank sends and receives
    ``words_per_rank`` words, one superstep."""
    if words_per_rank <= 0:
        machine.superstep(group, 1)
        return
    machine.charge_comm_batch(group, words_per_rank, words_per_rank)
    machine.superstep(group, 1)


def _rec(
    machine: BSPMachine,
    a: np.ndarray,
    b: np.ndarray,
    group: RankGroup,
    memory_words: float,
) -> np.ndarray:
    m, n = a.shape
    k = b.shape[1]
    g = group.size
    if g == 1:
        rank = group[0]
        machine.note_memory(rank, float(m * n + n * k + m * k))
        return local_matmul(machine, rank, a, b)

    # Per-rank footprint after a BFS split ~ doubles the non-split operands.
    footprint = (m * n + n * k + m * k) / g

    def bfs_ok(extra: float) -> bool:
        return footprint + extra <= memory_words

    if m >= n and m >= k:
        # Split m: B becomes twice as dense per rank.
        extra = n * k / g
        if bfs_ok(extra) or g == 1:
            _charge_split(machine, group, extra)
            g1, g2 = group.split(2)
            c1 = _rec(machine, a[: m // 2], b, g1, memory_words)
            c2 = _rec(machine, a[m // 2 :], b, g2, memory_words)
            return np.vstack([c1, c2])
        # DFS: both halves on the full group, operands restreamed each pass.
        _charge_split(machine, group, (m * n / 2 + n * k) / g)
        c1 = _rec(machine, a[: m // 2], b, group, memory_words)
        _charge_split(machine, group, (m * n / 2 + n * k) / g)
        c2 = _rec(machine, a[m // 2 :], b, group, memory_words)
        return np.vstack([c1, c2])
    if k >= n:
        # Split k: A becomes twice as dense per rank.
        extra = m * n / g
        if bfs_ok(extra):
            _charge_split(machine, group, extra)
            g1, g2 = group.split(2)
            c1 = _rec(machine, a, b[:, : k // 2], g1, memory_words)
            c2 = _rec(machine, a, b[:, k // 2 :], g2, memory_words)
            return np.hstack([c1, c2])
        _charge_split(machine, group, (m * n + n * k / 2) / g)
        c1 = _rec(machine, a, b[:, : k // 2], group, memory_words)
        _charge_split(machine, group, (m * n + n * k / 2) / g)
        c2 = _rec(machine, a, b[:, k // 2 :], group, memory_words)
        return np.hstack([c1, c2])
    # Split n (inner): partial C's must be summed across the halves.
    extra = m * k / g
    if bfs_ok(extra):
        g1, g2 = group.split(2)
        c1 = _rec(machine, a[:, : n // 2], b[: n // 2], g1, memory_words)
        c2 = _rec(machine, a[:, n // 2 :], b[n // 2 :], g2, memory_words)
        per_rank = m * k / g
        machine.charge_comm_batch(group, per_rank, per_rank)
        machine.charge_flops(group, per_rank)
        machine.superstep(group, 1)
        return c1 + c2
    # DFS over n: sequential partial sums on the whole group.
    _charge_split(machine, group, (m * n + n * k) / (2 * g))
    c1 = _rec(machine, a[:, : n // 2], b[: n // 2], group, memory_words)
    _charge_split(machine, group, (m * n + n * k) / (2 * g))
    c2 = _rec(machine, a[:, n // 2 :], b[n // 2 :], group, memory_words)
    machine.charge_flops(group, m * k / g)
    return c1 + c2


def carma_matmul(
    machine: BSPMachine,
    group: RankGroup,
    a: np.ndarray,
    b: np.ndarray,
    memory_words: float = math.inf,
    charge_redistribution: bool = True,
) -> np.ndarray:
    """Multiply A (m×n) by B (n×k) on ``group`` with CARMA's cost profile.

    ``memory_words`` is the per-rank budget M; a finite budget triggers DFS
    steps (higher W and S, lower M), realizing the ``v`` trade-off of
    Lemma III.2.  ``charge_redistribution`` accounts the move from an
    arbitrary load-balanced input layout to the recursion's layout.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} @ {b.shape}")
    machine.check_group(group)
    if memory_words <= 0:
        raise ValueError("memory_words must be positive")
    m, n = a.shape
    k = b.shape[1]
    with machine.span("carma", group=group):
        if charge_redistribution and group.size > 1:
            per_rank = (m * n + n * k) / group.size
            machine.charge_comm_batch(group, per_rank, per_rank)
            machine.superstep(group, 1)
        c = _rec(machine, a, b, group, memory_words)
        if machine.faults.enabled:
            from repro.faults.abft import abft_check  # late import: faults wraps bsp

            c = machine.faults.corrupt_output(c, "carma")
            abft_check(machine, group, a, b, c, site="carma")
        return c
