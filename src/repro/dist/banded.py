"""Distributed symmetric band matrices.

The band-reduction stages (Algorithm IV.2, CA-SBR) operate on a symmetric
matrix of band-width ``b`` stored as its band only ((b+1)·n words) and
distributed in 1-D contiguous column-panels: group ``Π̂_j`` owns columns
``[(j−1)·n/g, j·n/g)`` (the paper assigns panels of ``b`` columns to groups
of ``p̂ = pb/n`` ranks, which is the same partition).

As with :class:`~repro.dist.matrix.DistMatrix`, the numerical content is a
global dense array (window reads/writes during bulge chasing are cheap and
exact), while ownership drives the communication accounting.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine
from repro.util.intlog import chunk_offsets, split_evenly
from repro.util.validation import check_symmetric


class DistBandMatrix:
    """Symmetric band-``b`` matrix, columns block-distributed over a group."""

    def __init__(self, machine: BSPMachine, data: np.ndarray, bandwidth: int, group: RankGroup):
        self.machine = machine
        self.data = check_symmetric(data, "band matrix")
        self.n = self.data.shape[0]
        if not 0 <= bandwidth < self.n:
            raise ValueError(f"bandwidth must be in [0, n-1], got {bandwidth}")
        self.b = int(bandwidth)
        self.group = group
        machine.check_group(group)
        sizes = split_evenly(self.n, group.size)
        self._col_starts = np.array(chunk_offsets(sizes) + [self.n], dtype=np.int64)
        self._ranks_arr = np.array(group.ranks, dtype=np.int64)
        # Band storage words per rank: (b+1) words per owned column.
        machine.note_memory(group, (self.b + 1.0) * np.asarray(sizes, dtype=np.float64))

    # ------------------------------------------------------------------ #

    @property
    def words(self) -> int:
        """Total stored words of the band."""
        return (self.b + 1) * self.n

    def owner_of_col(self, j: int) -> int:
        """Rank owning column j."""
        if not 0 <= j < self.n:
            raise IndexError(f"column {j} out of range")
        blk = int(np.searchsorted(self._col_starts, j, side="right") - 1)
        return self.group[blk]

    def owners_of_cols(self, j0: int, j1: int) -> RankGroup:
        """Distinct ranks owning columns [j0, j1)."""
        if j1 <= j0:
            return RankGroup(())
        # Owning blocks are a contiguous run; two searchsorteds replace the
        # old O(j1−j0) per-column scan.  Zero-width blocks inside the run
        # (possible when group.size > n) own no columns and are dropped.
        lo = int(np.searchsorted(self._col_starts, j0, side="right")) - 1
        hi = int(np.searchsorted(self._col_starts, j1 - 1, side="right")) - 1
        blks = np.arange(lo, hi + 1)
        widths = self._col_starts[blks + 1] - self._col_starts[blks]
        return RankGroup(tuple(int(r) for r in self._ranks_arr[blks[widths > 0]]))

    def band_words_in_cols(self, j0: int, j1: int) -> float:
        """Stored band words in columns [j0, j1)."""
        return float((self.b + 1) * max(0, j1 - j0))

    # ------------------------------------------------------------------ #
    # data motion

    def fetch_window(self, rows: slice, cols: slice, to_group: RankGroup, tag: str = "fetch") -> np.ndarray:
        """Bring the window B[rows, cols] onto ``to_group``.

        Charges: owners of the window's columns send the window's *actual
        content* — the stored band plus any live bulge fill, measured as the
        window's nonzero count (a distributed band never ships the zeros
        outside its structure); each member of ``to_group`` receives its
        1/|group| share.  One superstep.
        """
        window = self.data[rows, cols]
        words = float(max(int(np.count_nonzero(window)), min(window.size, 1)))
        owners = self.owners_of_cols(cols.start, cols.stop)
        share = words / to_group.size
        sends: dict[int, float] = {}
        recvs: dict[int, float] = {}
        for r in owners:
            sends[r] = sends.get(r, 0.0) + words / owners.size
        for r in to_group:
            recvs[r] = recvs.get(r, 0.0) + share
        involved = RankGroup(tuple(dict.fromkeys(list(owners) + list(to_group))))
        self.machine.charge_comm(sends=sends, recvs=recvs)
        self.machine.superstep(involved, 1)
        window = window.copy()
        if self.machine.faults.enabled:
            self.machine.faults.corrupt_window(window, f"fetch_window:{tag}")
        return window

    def charge_store(self, rows: slice, cols: slice, from_group: RankGroup) -> None:
        """Charge the write-back of a window from ``from_group`` to the
        owners of its columns (dual of :meth:`fetch_window`), without
        touching the data — callers that update ``data`` in place use this.
        Like the fetch, only the window's actual (nonzero) content moves."""
        window = self.data[rows, cols]
        words = float(max(int(np.count_nonzero(window)), min(window.size, 1)))
        owners = self.owners_of_cols(cols.start, cols.stop)
        sends = {r: words / from_group.size for r in from_group}
        recvs = {r: words / owners.size for r in owners}
        involved = RankGroup(tuple(dict.fromkeys(list(from_group) + list(owners))))
        self.machine.charge_comm(sends=sends, recvs=recvs)
        self.machine.superstep(involved, 1)

    # -- batched variants (charge into a ChargeLog, one flush per stage) -- #
    #
    # These append the *same* per-rank charge amounts fetch_window /
    # charge_store issue, in the same order, to a
    # :class:`repro.bsp.batch.ChargeLog`; the log's single flush replays
    # them with order-preserving batch adds, so aggregate costs are
    # bit-identical to the per-step path.  Callers must hold
    # ``batched_charging_ok(machine)`` — fault hooks are skipped here.

    def fetch_window_batched(self, log, rows: slice, cols: slice, to_group: RankGroup) -> np.ndarray:
        """ChargeLog twin of :meth:`fetch_window`; returns the window copy."""
        window = self.data[rows, cols]
        words = float(max(int(np.count_nonzero(window)), min(window.size, 1)))
        owners = self.owners_of_cols(cols.start, cols.stop)
        log.charge_comm(owners.indices(), words / owners.size,
                        to_group.indices(), words / to_group.size)
        log.superstep(np.union1d(owners.indices(), to_group.indices()), 1)
        return window.copy()

    def charge_store_batched(self, log, rows: slice, cols: slice, from_group: RankGroup) -> None:
        """ChargeLog twin of :meth:`charge_store` (window already written)."""
        window = self.data[rows, cols]
        words = float(max(int(np.count_nonzero(window)), min(window.size, 1)))
        owners = self.owners_of_cols(cols.start, cols.stop)
        log.charge_comm(from_group.indices(), words / from_group.size,
                        owners.indices(), words / owners.size)
        log.superstep(np.union1d(from_group.indices(), owners.indices()), 1)

    def store_window(self, rows: slice, cols: slice, values: np.ndarray, from_group: RankGroup) -> None:
        """Write back a dense window from ``from_group`` to the owners.

        Symmetric counterpart of :meth:`fetch_window` (dual communication).
        The symmetric mirror B[cols, rows] is updated too (the band stores
        one triangle; mirroring is free).
        """
        if values.shape != (rows.stop - rows.start, cols.stop - cols.start):
            raise ValueError("window shape mismatch")
        self.data[rows, cols] = values
        self.data[cols, rows] = values.T
        self.charge_store(rows, cols, from_group)

    def gather(self, target: int, tag: str = "band_gather") -> np.ndarray:
        """Collect the whole band on one rank (end of Algorithm IV.3)."""
        per_rank_cols = np.diff(self._col_starts)
        sends = {
            r: float((self.b + 1) * per_rank_cols[k])
            for k, r in enumerate(self.group)
            if r != target
        }
        recvs = {target: float(sum(sends.values()))}
        group = RankGroup(tuple(dict.fromkeys(list(self.group) + [target])))
        self.machine.charge_comm(sends=sends, recvs=recvs)
        self.machine.superstep(group, 1)
        self.machine.note_memory(target, float(self.words))
        if self.machine.faults.enabled:
            # NOTE: gather returns the live array, so a flip here corrupts
            # the band itself — exactly the failure the finish stage's
            # checkpoint + tridiagonal guard must catch and roll back.
            self.machine.faults.corrupt_window(self.data, f"band_gather:{tag}")
        return self.data

    def redistribute(self, new_group: RankGroup) -> "DistBandMatrix":
        """Re-partition the columns over a (possibly smaller) group.

        Used between stages of Algorithm IV.3 ("Gather B onto Π̄"): charges
        each source rank the words whose owner changes.
        """
        new = DistBandMatrix(self.machine, self.data, self.b, new_group)
        old_starts, new_starts = self._col_starts, new._col_starts
        # Vectorized owner maps: one array searchsorted per layout instead of
        # a scalar searchsorted per column.  Each moved column contributes
        # the same integer-valued w = b+1, so per-rank counts × w equals the
        # old per-column accumulation bit-for-bit (exact float integers).
        cols = np.arange(self.n)
        src = self._ranks_arr[np.searchsorted(old_starts, cols, side="right") - 1]
        dst = new._ranks_arr[np.searchsorted(new_starts, cols, side="right") - 1]
        mask = src != dst
        w = float(self.b + 1)
        src_ranks, src_counts = np.unique(src[mask], return_counts=True)
        dst_ranks, dst_counts = np.unique(dst[mask], return_counts=True)
        sends = {int(r): float(k) * w for r, k in zip(src_ranks, src_counts)}
        recvs = {int(r): float(k) * w for r, k in zip(dst_ranks, dst_counts)}
        involved = RankGroup(tuple(dict.fromkeys(list(self.group) + list(new_group))))
        self.machine.charge_comm(sends=sends, recvs=recvs)
        self.machine.superstep(involved, 1)
        return new

    def with_bandwidth(self, new_b: int) -> "DistBandMatrix":
        """Rebind with a smaller declared band-width (after a reduction)."""
        return DistBandMatrix(self.machine, self.data, new_b, self.group)
