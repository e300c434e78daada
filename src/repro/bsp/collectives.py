"""BSP collective communication primitives (cost-charging layer).

Algorithms in this repo execute with plain numpy data (orchestrated SPMD) and
*declare* their communication through these primitives, which charge each
participating rank the words it would send/receive and end the appropriate
number of supersteps.  Word counts are measured by the caller from the actual
arrays being moved, so the totals are measured, not modeled.

Cost conventions (g = group size, w = payload words):

* all collectives are O(1) supersteps, matching the paper's BSP assumption
  that an all-to-all completes in one superstep;
* bandwidth-optimal two-phase implementations are assumed for broadcast,
  reduction, and allreduce (scatter+allgather / reduce-scatter+gather), so
  every rank moves O(w) words rather than the root moving O(g·w);
* a reduction charges the combining flops (one add per reduced word) to the
  ranks that perform them.

Charging is vectorized: each collective computes its per-rank word counts
once (a scalar for the uniform case, a g-vector when the root differs) and
charges the whole group through the machine's batched entry points
(:meth:`~repro.bsp.machine.BSPMachine.charge_comm_batch`,
:meth:`~repro.bsp.machine.BSPMachine.charge_comm_matrix`), so a collective
costs O(1) numpy ops regardless of group size.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine


def _check(machine: BSPMachine, group: RankGroup, words: float) -> None:
    machine.check_group(group)
    if words < 0:
        raise ValueError("words must be nonnegative")


def _retransmit_on_drop(machine: BSPMachine, site: str, group: RankGroup, charge) -> None:
    """Fault-layer hook: a dropped payload is healed by retransmission.

    ``charge`` re-issues the collective's own charges, so the recovery
    words and barriers land in the surrounding span.  With faults off this
    is one attribute read (see :data:`repro.bsp.machine.NO_FAULTS`).
    """
    if machine.faults.enabled:
        machine.faults.on_collective(site, group, charge)


def _root_index(group: RankGroup, root: int | None) -> tuple[int, int]:
    """Resolve the root rank and its position within the group."""
    root = group.root if root is None else root
    if root not in group:
        raise ValueError(f"root {root} not in group")
    return root, group.index_of(root)


def bcast(machine: BSPMachine, group: RankGroup, words: float, root: int | None = None) -> None:
    """Broadcast ``words`` from ``root`` to the group (two-phase optimal)."""
    _check(machine, group, words)
    root, ri = _root_index(group, root)
    g = group.size
    if g == 1 or words == 0:
        return
    share = words / g
    # Phase 1: root scatters g-1 shares; phase 2: allgather of shares.
    sends = np.full(g, (g - 1) * share)
    recvs = np.full(g, share + (g - 1) * share)
    sends[ri] = (2 * (g - 1)) * share
    recvs[ri] = (g - 1) * share
    pairs = None
    if machine.metrics.enabled:
        # Exact pairwise pattern of the two phases: the root sends one share
        # to every other rank (scatter), then every rank sends its share to
        # every other rank (allgather).
        pairs = share * (np.ones((g, g)) - np.eye(g))
        pairs[ri, :] += share
        pairs[ri, ri] = 0.0
    def _charge() -> None:
        machine.charge_comm_batch(group, sends, recvs, pairs=pairs)
        machine.superstep(group, 2)

    with machine.span("bcast", group=group):
        _charge()
        _retransmit_on_drop(machine, "bcast", group, _charge)


def reduce(machine: BSPMachine, group: RankGroup, words: float, root: int | None = None) -> None:
    """Reduce ``words`` contributions from every rank onto ``root``."""
    _check(machine, group, words)
    root, ri = _root_index(group, root)
    g = group.size
    if g == 1 or words == 0:
        return
    share = words / g
    # Phase 1: reduce-scatter; phase 2: gather shares onto root.
    base = (g - 1) * share
    sends = np.full(g, base + share)
    recvs = np.full(g, base)
    sends[ri] = base
    recvs[ri] = base + base
    pairs = None
    if machine.metrics.enabled:
        # Exact pairwise pattern of the two phases: every rank sends one
        # share to every other rank (reduce-scatter), then every non-root
        # rank sends its reduced share to the root (gather).
        pairs = share * (np.ones((g, g)) - np.eye(g))
        pairs[:, ri] += share
        pairs[ri, ri] = 0.0
    def _charge() -> None:
        machine.charge_comm_batch(group, sends, recvs, pairs=pairs)
        machine.charge_flops(group, base)
        machine.superstep(group, 2)

    with machine.span("reduce", group=group):
        _charge()
        _retransmit_on_drop(machine, "reduce", group, _charge)


def allreduce(machine: BSPMachine, group: RankGroup, words: float) -> None:
    """Reduce ``words`` contributions and leave the result on every rank."""
    _check(machine, group, words)
    g = group.size
    if g == 1 or words == 0:
        return
    share = words / g
    per_rank = 2 * (g - 1) * share
    def _charge() -> None:
        machine.charge_comm_batch(group, per_rank, per_rank)
        machine.charge_flops(group, (g - 1) * share)
        machine.superstep(group, 2)

    with machine.span("allreduce", group=group):
        _charge()
        _retransmit_on_drop(machine, "allreduce", group, _charge)


def reduce_scatter(machine: BSPMachine, group: RankGroup, words_total: float) -> None:
    """Each rank contributes ``words_total``; each ends with its 1/g share summed."""
    _check(machine, group, words_total)
    g = group.size
    if g == 1 or words_total == 0:
        return
    share = words_total / g
    per_rank = (g - 1) * share
    def _charge() -> None:
        machine.charge_comm_batch(group, per_rank, per_rank)
        machine.charge_flops(group, per_rank)
        machine.superstep(group, 1)

    with machine.span("reduce_scatter", group=group):
        _charge()
        _retransmit_on_drop(machine, "reduce_scatter", group, _charge)


def allgather(machine: BSPMachine, group: RankGroup, words_each: float) -> None:
    """Each rank contributes ``words_each``; everyone ends with all g blocks."""
    _check(machine, group, words_each)
    g = group.size
    if g == 1 or words_each == 0:
        return
    per_rank = (g - 1) * words_each
    def _charge() -> None:
        machine.charge_comm_batch(group, per_rank, per_rank)
        machine.superstep(group, 1)

    with machine.span("allgather", group=group):
        _charge()
        _retransmit_on_drop(machine, "allgather", group, _charge)


def gather(machine: BSPMachine, group: RankGroup, words_each: float, root: int | None = None) -> None:
    """Each non-root rank sends its ``words_each`` block to ``root``."""
    _check(machine, group, words_each)
    root, ri = _root_index(group, root)
    g = group.size
    if g == 1 or words_each == 0:
        return
    sends = np.full(g, words_each)
    recvs = np.zeros(g)
    sends[ri] = 0.0
    recvs[ri] = (g - 1) * words_each
    def _charge() -> None:
        machine.charge_comm_batch(group, sends, recvs)
        machine.superstep(group, 1)

    with machine.span("gather", group=group):
        _charge()
        _retransmit_on_drop(machine, "gather", group, _charge)


def scatter(machine: BSPMachine, group: RankGroup, words_each: float, root: int | None = None) -> None:
    """``root`` sends a distinct ``words_each`` block to each other rank."""
    _check(machine, group, words_each)
    root, ri = _root_index(group, root)
    g = group.size
    if g == 1 or words_each == 0:
        return
    sends = np.zeros(g)
    recvs = np.full(g, words_each)
    sends[ri] = (g - 1) * words_each
    recvs[ri] = 0.0
    def _charge() -> None:
        machine.charge_comm_batch(group, sends, recvs)
        machine.superstep(group, 1)

    with machine.span("scatter", group=group):
        _charge()
        _retransmit_on_drop(machine, "scatter", group, _charge)


def alltoall(machine: BSPMachine, group: RankGroup, transfers: dict[tuple[int, int], float]) -> None:
    """Arbitrary point-to-point exchange completed in one superstep.

    ``transfers[(src, dst)]`` is the word count moved from src to dst;
    src == dst entries are local and free.  For dense exchange patterns,
    :func:`alltoall_matrix` charges a whole g×g transfer matrix in O(1)
    numpy ops instead of a Python dict walk.
    """
    machine.check_group(group)
    sends: dict[int, float] = {}
    recvs: dict[int, float] = {}
    pairs: list[tuple[int, int, float]] | None = [] if machine.metrics.enabled else None
    for (src, dst), w in transfers.items():
        if w < 0:
            raise ValueError("transfer words must be nonnegative")
        if src not in group or dst not in group:
            raise ValueError(f"transfer ({src}->{dst}) outside group")
        if src == dst or w == 0:
            continue
        sends[src] = sends.get(src, 0.0) + w
        recvs[dst] = recvs.get(dst, 0.0) + w
        if pairs is not None:
            pairs.append((src, dst, float(w)))
    def _charge() -> None:
        machine.charge_comm(sends=sends, recvs=recvs, pairs=pairs)
        machine.superstep(group, 1)

    with machine.span("alltoall", group=group):
        _charge()
        _retransmit_on_drop(machine, "alltoall", group, _charge)


def alltoall_matrix(machine: BSPMachine, group: RankGroup, matrix) -> None:
    """All-to-all from a dense g×g transfer matrix, one superstep.

    ``matrix[i, j]`` words move from ``group[i]`` to ``group[j]``; diagonal
    entries are local and free.  Row/column sums are charged in one
    vectorized op via :meth:`~repro.bsp.machine.BSPMachine.charge_comm_matrix`.
    """
    machine.check_group(group)
    mat = np.asarray(matrix, dtype=np.float64)
    def _charge() -> None:
        machine.charge_comm_matrix(group, mat)
        machine.superstep(group, 1)

    with machine.span("alltoall", group=group):
        _charge()
        _retransmit_on_drop(machine, "alltoall", group, _charge)


def p2p(machine: BSPMachine, src: int, dst: int, words: float) -> None:
    """Point-to-point transfer; does NOT end a superstep (caller batches)."""
    if words < 0:
        raise ValueError("words must be nonnegative")
    if src == dst or words == 0:
        return
    pairs = ((src, dst, float(words)),) if machine.metrics.enabled else None
    machine.charge_comm(sends={src: words}, recvs={dst: words}, pairs=pairs)
