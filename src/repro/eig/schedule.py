"""Bulge-chase pipeline schedule of Algorithm IV.2 (Figure 2).

Panel ``i``'s elimination starts as soon as bulge ``i−1`` has been chased
twice, so chase ``(i, j)`` executes in pipeline *phase* ``j + 2(i−1)``, and
all steps of equal phase run concurrently on their disjoint processor
groups.  Figure 2 of the paper shows phases 5 and 6 for k = 2:
``{(3,1), (2,3), (1,5)}`` then ``{(3,2), (2,4), (1,6)}``.

This module derives the schedule from the shared
:func:`repro.linalg.sbr.chase_steps` enumeration (so the diagram is provably
the schedule the reduction actually executes) and computes the quantities
Lemma IV.3's proof reasons about: number of phases, maximum concurrency, and
which processor group Π̂_j executes each step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.sbr import ChaseStep, chase_step_arrays, chase_steps


@dataclass(frozen=True)
class PipelinePhase:
    """All chase steps executing concurrently in one pipeline phase."""

    phase: int
    steps: tuple[ChaseStep, ...]

    @property
    def ij_set(self) -> set[tuple[int, int]]:
        """The (panel, chase) pairs of this phase — Figure 2's labels."""
        return {(s.i, s.j) for s in self.steps}

    @property
    def concurrency(self) -> int:
        return len(self.steps)


def pipeline_schedule(n: int, b: int, h: int) -> list[PipelinePhase]:
    """The full pipeline: one entry per phase, in execution order."""
    buckets: dict[int, list[ChaseStep]] = {}
    for s in chase_steps(n, b, h):
        buckets.setdefault(s.phase, []).append(s)
    return [
        PipelinePhase(phase=ph, steps=tuple(sorted(buckets[ph], key=lambda s: s.i)))
        for ph in sorted(buckets)
    ]


def wave_sizes(n: int, b: int, h: int) -> np.ndarray:
    """Concurrent step count of each pipeline phase (phases 1..max, dense).

    ``wave_sizes(...)[ph-1]`` is the width of Figure 2's row ``ph`` — the
    number of disjoint-group chase steps the pipeline runs at once.
    """
    phase = chase_step_arrays(n, b, h)["phase"]
    return np.bincount(phase)[1:]


def group_of_step(step: ChaseStep, n: int, b: int) -> int:
    """Index of the processor group Π̂_j executing a chase step.

    The paper assigns chase j of every bulge to group Π̂_j (line 5); groups
    are indexed 0-based here and wrap if a chase chain is longer than the
    ⌈n/b⌉ available groups (only possible for ragged trailing chains).

    The group count is ⌈n/b⌉, not ⌊n/b⌋: when b does not divide n, the
    ragged trailing panel adds one more chase to each chain, and flooring
    made two *same-phase* steps wrap onto one group — serializing steps the
    schedule proves disjoint (and double-charging that group's ranks).
    """
    n_groups = max(1, -(-n // b))
    return (step.j - 1) % n_groups


def max_concurrency(n: int, b: int, h: int) -> int:
    """Peak number of simultaneously active chase steps."""
    sched = pipeline_schedule(n, b, h)
    return max((ph.concurrency for ph in sched), default=0)


def _cells(n: int, r0: int, nr: int, c0: int, nc: int) -> set[int]:
    """Flat (row·n + col) indices of a block and of its transpose."""
    r = np.arange(r0, r0 + nr)[:, None]
    c = np.arange(c0, c0 + nc)[None, :]
    return set((r * n + c).ravel().tolist()) | set((c * n + r).ravel().tolist())


def _wave_stackable(n: int, phase: PipelinePhase) -> bool:
    """Whether one wave may run as all its QRs, then all its updates.

    Each step's exact index sets: its QR reads its block and writes ``[R; 0]``
    there and into the transpose; its update reads and writes the window
    ``up × rows`` and ``rows × up``.  Ascending panel order runs the steps
    of a wave one after another, and the stacked order agrees with it when

    * no update writes the QR block of a higher panel of the wave (that QR
      runs later in ascending order but first when stacked) — lower panels'
      QR blocks *are* written, after their QR, in both orders;
    * the update write sets are pairwise disjoint;
    * an update reads, of the other steps' writes, only QR writes of lower
      panels;
    * the QR blocks (with transposes) are pairwise disjoint.

    An update's read set equals its write set, so the first and third
    conditions test the same intersection.
    """
    qr = {s.i: _cells(n, s.oqr_r, s.nr, s.oqr_c, s.ncols) for s in phase.steps}
    window = {s.i: _cells(n, s.oup_c, s.nc, s.oqr_r, s.nr) for s in phase.steps}
    for s in phase.steps:
        for t in phase.steps:
            if t.i == s.i:
                continue
            if window[s.i] & window[t.i] or qr[s.i] & qr[t.i]:
                return False
            if t.i > s.i and window[s.i] & qr[t.i]:
                return False
    return True


def schedule_checks(n: int, b: int, h: int) -> dict[str, bool]:
    """Structural invariants of the schedule (used by tests and benches).

    * ``phases_disjoint``: the QR blocks of one phase occupy pairwise-
      disjoint row ranges.  Their update windows are *not* disjoint from
      the other steps' QR blocks: same-phase steps depend on each other;
    * ``wave_stackable``: in every phase, the exact read and write sets
      make "every QR, then every update" equal to ascending panel order
      (see :func:`_wave_stackable`) — what lets
      :func:`repro.linalg.sbr.run_chase_schedule` stack a wave;
    * within a panel, chase j+1 starts exactly where chase j's QR rows began
      (the bulge-handoff invariant derived in :mod:`repro.linalg.sbr`);
    * steps of one phase map to pairwise-distinct processor groups under
      :func:`group_of_step` (no same-phase collision — the invariant the
      ⌈n/b⌉ group count exists to preserve).
    """
    sched = pipeline_schedule(n, b, h)
    disjoint = True
    for ph in sched:
        # Concurrent QR blocks must not overlap (row ranges; columns follow).
        spans = sorted((s.oqr_r, s.oqr_r + s.nr) for s in ph.steps)
        for a, c in zip(spans, spans[1:]):
            if c[0] < a[1]:
                disjoint = False
    stackable = all(_wave_stackable(n, ph) for ph in sched)
    handoff = True
    by_panel: dict[int, list[ChaseStep]] = {}
    for s in chase_steps(n, b, h):
        by_panel.setdefault(s.i, []).append(s)
    for steps in by_panel.values():
        steps.sort(key=lambda s: s.j)
        for s0, s1 in zip(steps, steps[1:]):
            if s1.oqr_c != s0.oqr_r:
                handoff = False
    groups_ok = True
    for ph in sched:
        gids = [group_of_step(s, n, b) for s in ph.steps]
        if len(set(gids)) != len(gids):
            groups_ok = False
    return {
        "phases_disjoint": disjoint,
        "wave_stackable": stackable,
        "bulge_handoff": handoff,
        "groups_disjoint": groups_ok,
    }
