"""ScaLAPACK-like baseline: direct one-stage tridiagonalization.

The first row of Table I.  A blocked Householder tridiagonalization on a
√p×√p grid (pdsytrd's structure): every column j requires a matrix–vector
product with the *trailing matrix* before the next column's reflector can be
formed, which is what pins this algorithm's costs at

    W = O(n²/√p),   Q = O(n³/p)  (when H < n²/p),   S = O(n log p).

Numerics: the actual sequential Householder tridiagonalization (exact
similarity transform), with per-column parallel charges — vector broadcast
and allreduce along grid rows/columns, trailing-matrix flops and streaming.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.kernels import sharded_axpy, sharded_dot, sharded_matvec, sharded_rank2_update
from repro.bsp.machine import BSPMachine
from repro.linalg.householder import householder_vector
from repro.linalg.tridiag import sturm_bisection_eigenvalues
from repro.util.validation import check_symmetric


def tridiagonalize_scalapack_like(machine: BSPMachine, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce symmetric ``a`` to tridiagonal (d, e) with 2-D grid charges."""
    a = check_symmetric(a, "A").copy()
    n = a.shape[0]
    p = machine.p
    group = machine.world
    sqrt_p = max(1.0, np.sqrt(p))
    log_p = max(1.0, np.log2(p))

    with machine.span("tridiag", group=group):
        for j in range(n - 2):
            nbar = n - j - 1  # trailing dimension
            x = a[j + 1 :, j]
            v, tau, beta = householder_vector(x)
            # Column broadcast of v along the grid (row + column phases).
            per_rank = 2.0 * nbar / sqrt_p
            if p > 1:
                machine.charge_comm_batch(group, per_rank, per_rank)
            # w = τ·A v (trailing matvec): flops and streaming split over ranks.
            w = sharded_matvec(machine, group, a[j + 1 :, j + 1 :], v, scale=tau)
            # allreduce of the partial w segments.
            if p > 1:
                machine.charge_comm_batch(group, per_rank, per_rank)
            machine.superstep(group, 3)
            if tau != 0.0:
                # w ← w − ½τ(wᵀv)v, then the rank-2 symmetric update
                # A ← A − v wᵀ − w vᵀ; every flop routed through bsp.kernels.
                wv = sharded_dot(machine, group, w, v)
                sharded_axpy(machine, group, -0.5 * tau * wv, v, w)
                sharded_rank2_update(machine, group, a[j + 1 :, j + 1 :], v, w)
            a[j + 1, j] = beta
            a[j, j + 1] = beta
            a[j + 2 :, j] = 0.0
            a[j, j + 2 :] = 0.0
    return np.diag(a).copy(), np.diag(a, -1).copy()


def eigensolve_scalapack_like(machine: BSPMachine, a: np.ndarray, tag: str = "scalapack") -> np.ndarray:
    """Eigenvalues via direct tridiagonalization + Sturm bisection.

    The tridiagonal solve is charged as a parallel bisection (eigenvalue
    intervals split over ranks — embarrassingly parallel, negligible
    communication), matching ScaLAPACK's pdstebz stage.
    """
    with machine.span(tag):
        d, e = tridiagonalize_scalapack_like(machine, a)
        n = d.size
        evals = sturm_bisection_eigenvalues(d, e)
        with machine.span("bisection"):
            machine.charge_flops(machine.world, 64.0 * 5.0 * n * n / machine.p)
            machine.charge_comm_batch(machine.world, float(n), float(n))
            machine.superstep(machine.world, 2)
    return evals
