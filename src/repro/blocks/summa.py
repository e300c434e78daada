"""SUMMA: the classic 2-D matrix multiplication (van de Geijn & Watts).

Algorithm III.1 is described by the paper as "a variant of the SUMMA
algorithm"; this module provides the plain 2-D original as a baseline:
C stays stationary on a q×q grid, and for each of the n/nb panel steps the
current A-column-panel is broadcast along grid rows and the B-row-panel
along grid columns.

Costs per rank:  W = O((mn + nk)/√p · 1)  — the 2-D bound, a factor √c worse
than the replicated Algorithm III.1 whenever memory allows c > 1 (shown in
the matmul benchmark).
"""

from __future__ import annotations

import numpy as np

from repro.bsp.machine import BSPMachine
from repro.dist.grid import ProcGrid


def summa_matmul(
    machine: BSPMachine,
    grid: ProcGrid,
    a: np.ndarray,
    b: np.ndarray,
    panel: int | None = None,
) -> np.ndarray:
    """Compute C = A·B on a 2-D grid with SUMMA's broadcast structure.

    ``grid`` must be 2-D and square; ``panel`` is the broadcast panel width
    (defaults to ⌈n/q⌉, one step per grid column).
    """
    if grid.ndim != 2:
        raise ValueError("summa_matmul requires a 2-D grid")
    q0, q1 = grid.shape
    if q0 != q1:
        raise ValueError(f"summa_matmul requires a square grid, got {grid.shape}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} @ {b.shape}")
    m, n = a.shape
    k = b.shape[1]
    q = q0
    p = grid.size
    group = grid.group()
    if panel is None:
        panel = max(1, -(-n // q))
    if panel <= 0:
        raise ValueError("panel must be positive")

    c = a @ b  # cost: free(numerical product computed once; flops charged per SUMMA step below)

    steps = -(-n // panel)
    # Per step and rank: receive an (m/q)×nb sliver of A (row broadcast) and
    # an nb×(k/q) sliver of B (column broadcast); multiply into local C.
    a_sliver = (m / q) * panel
    b_sliver = panel * (k / q)
    with machine.span("summa", group=group):
        for _ in range(steps):
            per_rank = 2.0 * (a_sliver + b_sliver) * (q - 1) / q
            machine.charge_comm_batch(group, per_rank, per_rank)
            machine.charge_flops(group, 2.0 * (m / q) * panel * (k / q))
            for r in group:
                machine.mem_stream(r, a_sliver + b_sliver + (m / q) * (k / q))
            machine.superstep(group, 2)
        machine.note_memory(group, (m * n + n * k + m * k) / p + a_sliver + b_sliver)
        if machine.faults.enabled:
            from repro.faults.abft import abft_check  # late import: faults wraps bsp

            c = machine.faults.corrupt_output(c, "summa")
            abft_check(machine, group, a, b, c, site="summa")
    return c
