"""CA-SBR baseline eigensolver (third row of Table I).

Ballard–Demmel–Knight's recipe: a 2-D (c = 1) full-to-band reduction
followed by O(log n) CA-SBR band-halving steps down to band-width ~n/p,
then a sequential finish on the gathered narrow band:

    W = O(n²/√p),  Q = O(n² log n/√p),  S = O(√p (log²p + log n)).

The successive halvings are where the log n factors of Table I's CA-SBR row
come from — each of the log(bp/n) stages re-streams the band.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.machine import BSPMachine
from repro.dist.banded import DistBandMatrix
from repro.dist.grid import ProcGrid
from repro.eig.ca_sbr import ca_sbr_reduce
from repro.eig.driver import finish_sequential
from repro.eig.full_to_band import full_to_band_2p5d
from repro.util.validation import check_symmetric


def eigensolve_ca_sbr(
    machine: BSPMachine, a: np.ndarray, b: int | None = None, tag: str = "ca_sbr"
) -> np.ndarray:
    """Eigenvalues via 2-D full-to-band + CA-SBR successive halving."""
    a = check_symmetric(a, "A")
    n = a.shape[0]
    p = machine.p
    q = max(1, int(np.sqrt(p)))
    if b is None:
        b = max(2, n // (2 * q))
    if not 1 <= b < n:
        raise ValueError(f"band-width must be in [1, n-1], got {b}")

    with machine.span(tag):
        grid = ProcGrid(machine, (q, q, 1), machine.world.take(q * q))
        banded = full_to_band_2p5d(machine, grid, a, b)

        band = DistBandMatrix(machine, banded, b, machine.world)
        target = max(1, n // p)
        if band.b > target:
            band = ca_sbr_reduce(machine, band, target)

        return finish_sequential(machine, band, tag=tag)
