"""Figure 1 — the matrices of Algorithm IV.1 at two successive steps.

Reproduces the structure diagram and cross-checks it against an *actual
instrumented run*: a span-traced ``full_to_band_2p5d`` must factor exactly
the panels the figure depicts — one ``full_to_band/panel_qr`` span per
(n − s·b) × b sub-diagonal panel, s = 0 … n/b − 2, with the U/V aggregates
growing by b columns per step.
"""

import numpy as np

from repro.bsp import BSPMachine
from repro.dist.grid import ProcGrid
from repro.eig.full_to_band import full_to_band_2p5d
from repro.report.figures import render_figure1
from repro.util.matrices import random_symmetric

from _common import run_once, write_result

N, B = 96, 16


def run_experiment():
    mach = BSPMachine(4, spans=True)
    grid = ProcGrid(mach, (2, 2, 1))
    a = random_symmetric(N, seed=0)
    out = full_to_band_2p5d(mach, grid, a, B)
    panels = [e for e in mach.spans.events if e.path == "full_to_band/panel_qr"]
    return out, panels, a


def test_figure1(benchmark):
    out, panels, a = run_once(benchmark, run_experiment)
    fig = render_figure1(n_panels=N // B, step=3)
    write_result("figure1", fig)

    # The instrumented run factors one panel per b columns, exactly the
    # sequence the figure depicts, one after the other.
    assert len(panels) == N // B - 1
    assert all(prev.ts + prev.dur <= nxt.ts for prev, nxt in zip(panels, panels[1:]))
    # And the output really is banded with A's spectrum (the figure's "#").
    ref = np.linalg.eigvalsh(a)
    got = np.linalg.eigvalsh(out)
    assert np.abs(ref - got).max() < 1e-9 * max(1, np.abs(ref).max())
    benchmark.extra_info["panels"] = len(panels)
