"""Algorithm-based fault tolerance (ABFT) checksums for charged matmuls.

Huang–Abraham row/column checksums: for C = A·B,

    colsum(C) = colsum(A)·B        (1×k, from the left)
    rowsum(C) = A·rowsum(B)        (m×1, from the right)

so a single corrupted entry of C perturbs exactly one column checksum and
one row checksum — O((m+k)·n) verification flops against the O(m·n·k)
product, the classic ABFT ratio.  The check runs *inside* the matmul's
span, so a mismatch raises :class:`~repro.faults.errors.CorruptData`
attributed to the block that produced the bad data, and its flops, streamed
words, and the one-word agreement allreduce are charged to the machine:
``CostReport.by_span()`` shows detection as an ``abft`` child of each
protected matmul.

Only consulted when ``machine.faults.enabled`` — the fault-free path never
pays for (or sees) any of this.
"""

from __future__ import annotations

import numpy as np

from repro.bsp import collectives
from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine
from repro.faults.errors import CorruptData, current_span

#: relative tolerance of the checksum comparison; the two summation orders
#: (sum-then-multiply vs multiply-then-sum) differ only by roundoff, orders
#: of magnitude below any injected flip
ABFT_RTOL = 1e-8


def abft_check(
    machine: BSPMachine,
    group: RankGroup,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    site: str,
    rtol: float = ABFT_RTOL,
) -> None:
    """Verify C = A·B by row/column checksums; raises CorruptData on mismatch.

    Charges each of ``group``'s ranks its share of the checksum flops and
    streaming traffic, plus a one-word allreduce to agree on the verdict.
    """
    m, n = a.shape
    k = b.shape[1]
    with machine.span("abft", group=group):
        g = group.size
        # colsum(A)·B + A·rowsum(B): ~3(mn + nk) + 2mk flops; one pass over
        # the three operands: mn + nk + 2mk streamed words.
        machine.charge_flops(group, (3.0 * (m * n + n * k) + 2.0 * m * k) / g)
        machine.mem_stream_group(group, (m * n + n * k + 2.0 * m * k) / g)
        collectives.allreduce(machine, group, 1.0)

        span = current_span(machine)
        if not np.isfinite(c).all():
            raise CorruptData(
                f"ABFT: non-finite entries in the output of {site}",
                span=span, site=site,
            )
        col_ref = a.sum(axis=0) @ b  # cost: free(checksum flops charged above)
        col_got = c.sum(axis=0)
        row_ref = a @ b.sum(axis=1)  # cost: free(checksum flops charged above)
        row_got = c.sum(axis=1)
        scale = max(
            1.0,
            float(np.abs(col_ref).max(initial=0.0)),
            float(np.abs(row_ref).max(initial=0.0)),
        )
        col_err = float(np.abs(col_got - col_ref).max(initial=0.0))
        row_err = float(np.abs(row_got - row_ref).max(initial=0.0))
        if col_err > rtol * scale or row_err > rtol * scale:
            raise CorruptData(
                f"ABFT checksum mismatch in {site}: "
                f"col err {col_err:.3g}, row err {row_err:.3g} "
                f"(tolerance {rtol:.1g} x {scale:.3g})",
                span=span, site=site,
            )
