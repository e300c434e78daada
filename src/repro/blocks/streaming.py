"""Streaming matrix multiplication against a replicated operand.

Algorithm III.1 / Lemma III.3: A (m×n) is stored redundantly on each of the
c layers of a q×q×c grid (block Aij on the whole fiber Π[i,j,:]); B (n×k) is
in any load-balanced layout.  Each fiber rank handles w of the z = w·c
column-blocks of B: per block it gathers B_jh, multiplies by its resident
A_ij, and reduce-scatters C_ih = Σ_j C̄_ijh across its grid row — giving

    W = O((mk + nk)/p^δ),   S = O(w),

with A never leaving cache if H ≥ mn/p^{2(1−δ)} (the conditional Q term of
Lemma III.3 arises *automatically* from the machine's LRU cache model).

By the grid's symmetry (q²·c = p) every rank's charge per h-iteration is
identical: it receives one n/q × k/z block of B, sends its share of the
gathers (the same volume), multiplies against its resident m/q × n/q block
of A, and exchanges (c−1)/c of an m/q × k/z partial C in the reduce-scatter.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.machine import BSPMachine
from repro.dist.grid import ProcGrid


def streaming_matmul(
    machine: BSPMachine,
    grid: ProcGrid,
    a: np.ndarray,
    b: np.ndarray,
    w: int = 1,
    a_key: object | None = None,
    charge_b_redistribution: bool = True,
) -> np.ndarray:
    """Compute C = A·B where A is replicated on every layer of ``grid``.

    ``grid`` must be 3-D (q×q×c).  ``w`` is the pipeline depth (number of
    sequential block multiplications per rank: more supersteps, less
    temporary memory).  ``a_key`` identifies A in the cache model so that
    repeated calls against the same replicated A (the left-looking updates
    of Algorithm IV.1) hit cache when it fits.
    """
    if grid.ndim != 3:
        raise ValueError("streaming_matmul requires a q×q×c grid")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} @ {b.shape}")
    if w < 1:
        raise ValueError("w must be >= 1")
    q0, q1, c = grid.shape
    if q0 != q1:
        raise ValueError(f"grid layers must be square, got {grid.shape}")
    q = q0
    m, n = a.shape
    k = b.shape[1]
    z = w * c
    p = grid.size
    group = grid.group()

    with machine.span("streaming_mm", group=group):
        # Line 4: redistribute B so each rank owns its k/(z·q) column slivers.
        if charge_b_redistribution and p > 1:
            per_rank = n * k / p
            machine.charge_comm_batch(group, per_rank, per_rank)
            machine.superstep(group, 1)

        # The numerical product (identical to the sum of the per-fiber partials).
        c_out = a @ b  # cost: free(numerical product computed once; flops charged per pipeline stage below)

        blk_m = -(-m // q)  # rows of Aij and of the C_ih partial
        blk_n = -(-n // q)  # cols of Aij / rows of B_jh
        blk_k = -(-k // z)  # cols of B_jh
        a_block_words = float(blk_m * blk_n)
        b_block_words = float(blk_n * blk_k)
        c_block_words = float(blk_m * blk_k)

        for h in range(w):
            # Line 9: gather B_jh onto each rank (recv one block; by symmetry the
            # send side of all concurrent gathers is the same volume per rank).
            machine.charge_comm_batch(group, b_block_words, b_block_words)
            # Line 10: local multiply against the resident A block.
            machine.charge_flops(group, 2.0 * blk_m * blk_n * blk_k)
            for idx, rank in enumerate(group):
                if a_key is not None:
                    machine.mem_read(rank, (a_key, idx), a_block_words)
                else:
                    machine.mem_stream(rank, a_block_words)
                machine.mem_stream(rank, b_block_words + c_block_words)
            # Line 11: reduce-scatter C_ih = Σ_j C̄_ijh across the grid row
            # (q participants — this is the j-summation of Algorithm III.1).
            if q > 1:
                rs = c_block_words * (q - 1) / q
                machine.charge_comm_batch(group, rs, rs)
                machine.charge_flops(group, rs)
            machine.superstep(group, 2)
        if machine.faults.enabled:
            from repro.faults.abft import abft_check  # late import: faults wraps bsp

            c_out = machine.faults.corrupt_output(c_out, "streaming_mm")
            abft_check(machine, group, a, b, c_out, site="streaming_mm")
    machine.note_memory(group, a_block_words + b_block_words + c_block_words)
    return c_out
