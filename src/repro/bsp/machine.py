"""The simulated BSP machine.

A :class:`BSPMachine` owns per-rank cost counters and cache models and is
threaded through every parallel algorithm in this repo.  Algorithms execute
sequentially in Python ("orchestrated SPMD"); the machine records what each
*virtual* rank computed, sent, received, and synchronized on, so the final
:class:`~repro.bsp.counters.CostReport` is the BSP cost the same program
would have on a real machine (max over ranks per quantity).

Disjoint groups that the paper runs concurrently are simply charged on their
own ranks; the max-over-ranks aggregation then reflects the concurrency.

Accounting engines
------------------
Counters live in a pluggable *store*.  The default ``engine="array"`` is a
:class:`~repro.bsp.counters.CounterArray`: numpy arrays with one slot per
rank, so charging a :class:`~repro.bsp.group.RankGroup` is one fancy-indexed
slice op against the group's cached index array — O(1) numpy calls instead
of O(|group|) Python iterations.  ``engine="scalar"`` (also selectable
machine-wide with the ``REPRO_ENGINE`` environment variable) is the
pre-vectorization Python-loop oracle used by the equivalence suite and
``repro bench``; both engines produce bit-identical cost reports.

Batched entry points (:meth:`charge_flops_batch`, :meth:`charge_comm_batch`,
:meth:`charge_comm_matrix`, :meth:`mem_stream_group`) let collectives and
sharded kernels charge a whole group — uniformly, per-rank weighted, or from
a g×g transfer matrix — without building Python dicts in inner loops.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Union

import numpy as np

from repro.bsp.cache import CacheModel
from repro.bsp.counters import CostReport, CounterArray
from repro.bsp.group import RankGroup
from repro.bsp.params import MachineParams
from repro.trace.spans import NULL_SPAN, SpanHandle, SpanRecorder
from repro.util.validation import check_positive_int

if TYPE_CHECKING:
    from repro.bsp.scalar import ScalarCounterStore

#: valid accounting engines (see module docstring)
ENGINES = ("array", "scalar")


class NoFaults:
    """Inert fault layer installed on every machine by default.

    :class:`repro.faults.FaultyMachine` replaces it with a live injector;
    instrumented sites gate on ``machine.faults.enabled``, so the default
    path costs a single attribute read and charges nothing (the bench wall
    and all cost reports are unchanged with faults off).
    """

    __slots__ = ()

    enabled: bool = False
    failed_ranks: frozenset = frozenset()

    def live_group(self, group: "RankGroup") -> "RankGroup":
        return group


#: shared no-op fault layer (cf. NULL_SPAN)
NO_FAULTS = NoFaults()


class NoMetrics:
    """Inert per-rank metrics layer installed on every machine by default.

    A metrics-enabled machine (``BSPMachine(p, metrics=True)`` or
    ``REPRO_METRICS=1``) replaces it with a live
    :class:`repro.metrics.collector.MetricsCollector`; the charging
    primitives gate on ``machine.metrics.enabled``, so the default path
    costs a single attribute read and the pinned trace/cost outputs are
    byte-identical with metrics off.
    """

    __slots__ = ()

    enabled: bool = False

    def reset(self) -> None:
        """No telemetry to clear."""


#: shared no-op metrics layer (cf. NO_FAULTS, NULL_SPAN)
NO_METRICS = NoMetrics()

#: either counter store; both implement the same accumulation interface
CounterStore = Union[CounterArray, "ScalarCounterStore"]


def _make_store(engine: str, p: int):
    if engine == "array":
        return CounterArray(p)
    if engine == "scalar":
        from repro.bsp.scalar import ScalarCounterStore  # late import: avoid cycle

        return ScalarCounterStore(p)
    raise ValueError(f"unknown accounting engine {engine!r}; expected one of {ENGINES}")


class BSPMachine:
    """A ``p``-processor simulated BSP machine with cost accounting."""

    def __init__(
        self,
        p: int,
        params: MachineParams | None = None,
        engine: str | None = None,
        spans: bool | None = None,
        metrics: bool | None = None,
    ):
        self.p = check_positive_int(p, "p")
        self.params = params or MachineParams()
        self.engine = engine or os.environ.get("REPRO_ENGINE") or "array"
        self.counters = _make_store(self.engine, self.p)
        self.caches: list[CacheModel] = [CacheModel(self.params.cache_words) for _ in range(self.p)]
        if spans is None:
            spans = os.environ.get("REPRO_SPANS", "") not in ("", "0")
        self.spans = SpanRecorder(self.counters, self.params, enabled=spans)
        self.world = RankGroup(tuple(range(self.p)))
        # Fault layer: a shared no-op here; FaultyMachine installs a live
        # injector.  Typed Any because the injector lives in repro.faults,
        # which imports this module.
        self.faults: Any = NO_FAULTS
        # Per-rank metrics layer: same pattern (the collector lives in
        # repro.metrics, which imports this module — hence the late import).
        if metrics is None:
            metrics = os.environ.get("REPRO_METRICS", "") not in ("", "0")
        if metrics:
            from repro.metrics.collector import MetricsCollector

            self.metrics: Any = MetricsCollector(self.p, self.params)
        else:
            self.metrics = NO_METRICS

    # ------------------------------------------------------------------ #
    # validation helpers

    def _check_rank(self, rank: int) -> int:
        if not 0 <= rank < self.p:
            raise ValueError(f"rank {rank} out of range [0, {self.p})")
        return rank

    def check_group(self, group: RankGroup) -> RankGroup:
        group.indices()  # build the cache (and cache min/max) once
        if group.min_rank < 0 or group.max_rank >= self.p:
            bad = group.min_rank if group.min_rank < 0 else group.max_rank
            raise ValueError(f"rank {bad} out of range [0, {self.p})")
        return group

    def _resolve(self, ranks: RankGroup | Iterable[int] | int):
        """Normalize a rank spec to ``(idx, unique)``.

        ``idx`` is an int (single rank) or an int64 index array — for a
        :class:`RankGroup` the group's cached array, bounds-checked in O(1).
        ``unique`` is False only for arbitrary iterables, whose possible
        duplicate entries must still accumulate (loop semantics).
        """
        if isinstance(ranks, RankGroup):
            self.check_group(ranks)
            return ranks.indices(), True
        if isinstance(ranks, (int, np.integer)):
            return self._check_rank(int(ranks)), True
        idx = np.fromiter((int(r) for r in ranks), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.p):
            bad = int(idx.min()) if idx.min() < 0 else int(idx.max())
            raise ValueError(f"rank {bad} out of range [0, {self.p})")
        # Arbitrary iterables may repeat a rank; flag so additive charges
        # accumulate per occurrence (np.add.at) as the old loops did.
        unique = idx.size == len(set(idx.tolist()))
        return idx, unique

    # ------------------------------------------------------------------ #
    # charging primitives

    def charge_flops(self, ranks: RankGroup | Iterable[int] | int, flops_each: float) -> None:
        """Charge ``flops_each`` local operations to each listed rank."""
        if flops_each < 0:
            raise ValueError("flops must be nonnegative")
        idx, unique = self._resolve(ranks)
        self.counters.add_flops(idx, flops_each, unique=unique)

    def charge_flops_batch(self, ranks: RankGroup | Iterable[int], flops_per_rank) -> None:
        """Charge rank ``ranks[i]`` exactly ``flops_per_rank[i]`` flops.

        The vector-valued sibling of :meth:`charge_flops`: one numpy op for a
        whole group with heterogeneous (e.g. load-imbalanced) charges.
        """
        idx, unique = self._resolve(ranks)
        amounts = np.asarray(flops_per_rank, dtype=np.float64)
        size = 1 if isinstance(idx, int) else idx.size
        if amounts.ndim != 1 or amounts.size != size:
            raise ValueError(
                f"flops_per_rank must be a 1-D array of length {size}, got shape {amounts.shape}"
            )
        if amounts.size and amounts.min() < 0:
            raise ValueError("flops must be nonnegative")
        self.counters.add_flops(idx, float(amounts[0]) if isinstance(idx, int) else amounts, unique=unique)

    def charge_comm(
        self,
        sends: Mapping[int, float] | None = None,
        recvs: Mapping[int, float] | None = None,
        pairs: Iterable[tuple[int, int, float]] | None = None,
    ) -> None:
        """Charge horizontal word counts: ``sends[r]`` words sent by rank r, etc.

        ``pairs`` optionally carries the exact (src, dst, words) wire
        pattern behind the marginals for the metrics heatmap; it charges
        nothing and is ignored unless metrics are enabled.
        """
        s_idx = s_w = r_idx = r_w = None
        if sends:
            s_idx = np.fromiter(sends.keys(), dtype=np.int64, count=len(sends))
            s_w = np.fromiter(sends.values(), dtype=np.float64, count=len(sends))
            if s_w.min() < 0:
                raise ValueError("sent words must be nonnegative")
            if s_idx.min() < 0 or s_idx.max() >= self.p:
                self._check_rank(int(s_idx.min() if s_idx.min() < 0 else s_idx.max()))
        if recvs:
            r_idx = np.fromiter(recvs.keys(), dtype=np.int64, count=len(recvs))
            r_w = np.fromiter(recvs.values(), dtype=np.float64, count=len(recvs))
            if r_w.min() < 0:
                raise ValueError("received words must be nonnegative")
            if r_idx.min() < 0 or r_idx.max() >= self.p:
                self._check_rank(int(r_idx.min() if r_idx.min() < 0 else r_idx.max()))
        if s_idx is not None or r_idx is not None:
            self.counters.add_comm(s_idx, s_w, r_idx, r_w)
            if self.metrics.enabled:
                self.metrics.on_comm(s_idx, s_w, r_idx, r_w, pairs=pairs)

    def charge_comm_batch(
        self,
        group: RankGroup | Iterable[int],
        sent_each=None,
        recv_each=None,
        pairs=None,
    ) -> None:
        """Charge send/recv words across ``group`` in one vector op.

        ``sent_each``/``recv_each`` are either scalars (the uniform per-rank
        word count — the common collective case) or 1-D arrays aligned with
        the group's rank order.  ``None`` skips that direction.  ``pairs``
        optionally carries the exact zero-diagonal g×g wire pattern (group
        positions) for the metrics heatmap; it charges nothing and is
        ignored unless metrics are enabled.
        """
        if sent_each is None and recv_each is None:
            return
        idx, unique = self._resolve(group)
        if not unique:
            raise ValueError("charge_comm_batch requires distinct ranks (use a RankGroup)")

        def _prep(words, label):
            if words is None:
                return None
            arr_or_scalar = words
            if np.ndim(words) == 0:
                if float(words) < 0:
                    raise ValueError(f"{label} words must be nonnegative")
                return float(words)
            arr = np.asarray(words, dtype=np.float64)
            size = 1 if isinstance(idx, int) else idx.size
            if arr.ndim != 1 or arr.size != size:
                raise ValueError(f"{label} words must be a 1-D array aligned with the group")
            if arr.size and arr.min() < 0:
                raise ValueError(f"{label} words must be nonnegative")
            return arr

        sent = _prep(sent_each, "sent")
        recvd = _prep(recv_each, "received")
        self.counters.add_comm(
            idx if sent is not None else None,
            sent,
            idx if recvd is not None else None,
            recvd,
        )
        if self.metrics.enabled:
            self.metrics.on_comm_batch(idx, sent, recvd, pairs=pairs)

    def charge_comm_matrix(self, group: RankGroup, matrix) -> None:
        """Charge a g×g transfer matrix over ``group`` in one vector op.

        ``matrix[i, j]`` is the word count moved from ``group[i]`` to
        ``group[j]``; diagonal entries are local copies and free.  Row sums
        are charged as sends, column sums as receives — the batched
        equivalent of an ``alltoall`` transfer dict.  Does not end a
        superstep (callers batch, as with :func:`~repro.bsp.collectives.p2p`).
        """
        idx, unique = self._resolve(group)
        if isinstance(idx, int):
            return  # single-rank group: all transfers are local
        if not unique:
            raise ValueError("charge_comm_matrix requires distinct ranks (use a RankGroup)")
        g = idx.size
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.shape != (g, g):
            raise ValueError(f"transfer matrix must be {g}x{g} for this group, got {mat.shape}")
        if mat.size and mat.min() < 0:
            raise ValueError("transfer words must be nonnegative")
        off = mat.copy()
        np.fill_diagonal(off, 0.0)
        sends = off.sum(axis=1)
        recvs = off.sum(axis=0)
        self.counters.add_comm(idx, sends, idx, recvs)
        if self.metrics.enabled:
            self.metrics.on_comm_matrix(idx, off, sends, recvs)

    def superstep(self, group: RankGroup | Iterable[int] | None = None, count: int = 1) -> None:
        """End ``count`` supersteps for the given group (default: all ranks)."""
        if count < 0:
            raise ValueError("superstep count must be nonnegative")
        ranks = self.world if group is None else group
        idx, unique = self._resolve(ranks)
        self.counters.add_supersteps(idx, count, unique=unique)
        if self.metrics.enabled:
            self.metrics.on_superstep(self.counters)

    # ------------------------------------------------------------------ #
    # vertical (memory <-> cache) traffic

    def mem_read(self, rank: int, key: object, words: float) -> None:
        """Rank reads a dataset from memory; charges Q only on a cache miss."""
        moved = self.caches[self._check_rank(rank)].access(key, words)
        self.counters.add_mem_traffic(rank, moved)

    def mem_write(self, rank: int, key: object, words: float) -> None:
        """Rank produces a dataset; charges its write-back to memory."""
        moved = self.caches[self._check_rank(rank)].write(key, words)
        self.counters.add_mem_traffic(rank, moved)

    def mem_stream(self, rank: int, words: float) -> None:
        """Charge uncacheable streaming traffic (always moves)."""
        if words < 0:
            raise ValueError("words must be nonnegative")
        self.counters.add_mem_traffic(self._check_rank(rank), words)

    def mem_stream_group(self, ranks: RankGroup | Iterable[int], words_each: float) -> None:
        """Charge ``words_each`` streamed words to every rank in the group.

        The batched sibling of :meth:`mem_stream` used by sharded kernels.
        """
        if words_each < 0:
            raise ValueError("words must be nonnegative")
        idx, unique = self._resolve(ranks)
        self.counters.add_mem_traffic(idx, words_each, unique=unique)

    def cache_resident(self, rank: int, key: object) -> bool:
        """True iff the dataset is currently in the rank's cache."""
        return self.caches[self._check_rank(rank)].contains(key)

    # ------------------------------------------------------------------ #
    # memory-footprint tracking (high-water mark per rank)

    def note_memory(
        self, ranks: RankGroup | Iterable[int] | int, words_each: float | np.ndarray
    ) -> None:
        """Record that each listed rank currently holds ``words_each`` words.

        ``words_each`` is a scalar or a 1-D array aligned with the rank
        order.  The distribution layer calls this when matrices are created
        or replicated; only the peak matters for the M claims.
        """
        idx, unique = self._resolve(ranks)
        # max-based: duplicates are order-insensitive either way
        self.counters.note_memory(idx, words_each, unique=unique)

    def add_memory(
        self, ranks: RankGroup | Iterable[int] | int, words_each: float | np.ndarray
    ) -> None:
        """Increase each rank's live footprint by ``words_each`` words."""
        idx, unique = self._resolve(ranks)
        if not unique and np.min(words_each) < 0:
            # negative grants: per-occurrence peak order matters, keep the loop
            each = np.broadcast_to(np.asarray(words_each, dtype=np.float64), idx.shape)
            for r, w in zip(idx.tolist(), each.tolist()):
                self.counters.add_memory(r, w)
            return
        self.counters.add_memory(idx, words_each, unique=unique)

    def release_memory(
        self, ranks: RankGroup | Iterable[int] | int, words_each: float | np.ndarray
    ) -> None:
        """Decrease each rank's live footprint (never below zero)."""
        idx, unique = self._resolve(ranks)
        if not unique and np.min(words_each) < 0:
            # negative releases: per-occurrence clamp order matters, keep the loop
            each = np.broadcast_to(np.asarray(words_each, dtype=np.float64), idx.shape)
            for r, w in zip(idx.tolist(), each.tolist()):
                self.counters.release_memory(r, w)
            return
        self.counters.release_memory(idx, words_each, unique=unique)

    # ------------------------------------------------------------------ #
    # span tracing (see repro.trace)

    def span(self, name: str, group: RankGroup | None = None) -> SpanHandle:
        """Open a named cost-attribution span as a context manager.

        Counter deltas charged while the span is innermost are attributed
        to it (see :mod:`repro.trace.spans`).  When span tracing is
        disabled (the default) this returns a shared no-op handle, so
        instrumented hot paths cost two trivial calls.
        """
        if not self.spans.enabled:
            return NULL_SPAN
        return self.spans.handle(name, group)

    # ------------------------------------------------------------------ #
    # reporting

    def cost(self) -> CostReport:
        """Snapshot the aggregated cost so far.

        On a span-enabled machine the report carries the per-span
        breakdown, readable with :meth:`CostReport.by_span`; on a
        metrics-enabled machine it carries the per-rank telemetry
        snapshot, readable with :meth:`CostReport.metrics`.
        """
        report = self.counters.report()
        if self.spans.enabled:
            report = report.with_spans(self.spans.breakdown())
        if self.metrics.enabled:
            report = report.with_metrics(self.metrics.snapshot(self.counters))
        return report

    def reset(self) -> None:
        """Zero all engine state: counters, caches, open spans, metrics.

        Both engines reset their stores *in place* (held per-rank views
        stay live), so a reset machine is indistinguishable from a fresh
        one on either engine — see the reset regression tests.
        """
        self.counters.reset()
        self.caches = [CacheModel(self.params.cache_words) for _ in range(self.p)]
        self.spans.reset()
        self.metrics.reset()

    def __repr__(self) -> str:
        return f"BSPMachine(p={self.p}, params={self.params}, engine={self.engine!r})"
