"""Dynamic BSP discipline verifier.

:class:`VerifiedMachine` is a drop-in :class:`~repro.bsp.machine.BSPMachine`
that re-checks the accounting invariants the whole cost methodology rests
on, at every superstep barrier and at every :meth:`cost` snapshot:

* **conservation** — globally, Σ words_sent == Σ words_received (every
  transfer books both sides);
* **monotone counters** — F, W, Q, S and the peak-memory high-water mark
  never decrease (nothing un-charges cost);
* **memory bound** — no rank's live footprint exceeds the configured
  per-rank budget, by default the paper's M = O(n²/p^{2(1−δ)}) from
  :func:`repro.model.bounds.memory_bound_words`;
* **read provenance** (``strict_reads=True``) — a rank may only
  ``mem_read`` a keyed dataset it previously wrote, read, or was granted
  via :meth:`grant`; i.e. no rank consumes data it was never sent.

Violations raise :class:`BSPDisciplineError` at the *first* barrier that
observes them, so the failing superstep is identifiable from its span.
Enable in tests with ``REPRO_VERIFY=1`` (see ``tests/conftest.py``) and on
the CLI with ``repro solve --verify`` / ``repro run --verify``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from types import TracebackType

from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine
from repro.bsp.params import MachineParams
from repro.trace.spans import SpanHandle

#: counter quantities whose per-rank values must never decrease
_MONOTONE_FIELDS = (
    "flops",
    "words_sent",
    "words_recv",
    "mem_traffic",
    "supersteps",
    "peak_memory_words",
)


class BSPDisciplineError(AssertionError):
    """A BSP cost-accounting invariant was violated."""


class _VerifiedSpan(SpanHandle):
    """Span handle that re-checks all invariants when the span closes, so
    a violation is pinned to the span that caused it, not just to the next
    superstep barrier."""

    __slots__ = ("_machine", "_inner", "_name")

    def __init__(self, machine: "VerifiedMachine", inner: SpanHandle, name: str):
        self._machine = machine
        self._inner = inner
        self._name = name

    def __enter__(self) -> "_VerifiedSpan":
        self._inner.__enter__()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self._inner.__exit__(exc_type, exc, tb)
        if exc_type is None:
            self._machine.verify(f"span({self._name})")
        return False


class VerifiedMachine(BSPMachine):
    """A ``BSPMachine`` that asserts accounting invariants as it runs.

    Parameters beyond :class:`BSPMachine`'s:

    ``memory_bound_words``
        per-rank peak-memory budget; ``None`` disables the check.
    ``strict_reads``
        enforce read provenance on keyed ``mem_read`` calls.
    ``conservation_rtol``
        relative tolerance on global sent-vs-received words.  The repo's
        collectives balance exactly; the tolerance only absorbs float
        summation order.
    """

    def __init__(
        self,
        p: int,
        params: MachineParams | None = None,
        engine: str | None = None,
        spans: bool | None = None,
        metrics: bool | None = None,
        *,
        memory_bound_words: float | None = None,
        strict_reads: bool = False,
        conservation_rtol: float = 1e-6,
    ):
        super().__init__(p, params, engine, spans, metrics)
        self.memory_bound_words = memory_bound_words
        self.strict_reads = strict_reads
        self.conservation_rtol = conservation_rtol
        self.checks_run = 0
        self._watermarks = self.counters.snapshot()
        self._known_keys: list[set[object]] = [set() for _ in range(self.p)]

    @classmethod
    def for_problem(
        cls,
        p: int,
        n: int,
        delta: float,
        params: MachineParams | None = None,
        slack: float = 8.0,
        **kwargs: object,
    ) -> "VerifiedMachine":
        """A verifier budgeted for one (n, p, δ) eigensolve: per-rank memory
        capped at ``slack`` × the Theorem IV.4 bound M = n²/p^{2(1−δ)}."""
        from repro.model.bounds import memory_bound_words

        return cls(
            p, params, memory_bound_words=memory_bound_words(n, p, delta, slack=slack), **kwargs
        )

    # -------------------------------------------------------------- #
    # checked primitives

    def superstep(self, group: RankGroup | Iterable[int] | None = None, count: int = 1) -> None:
        super().superstep(group, count)
        self.verify("superstep")

    def cost(self):  # noqa: ANN201 — see BSPMachine.cost
        self.verify("cost()")
        return super().cost()

    def span(self, name: str, group: RankGroup | None = None) -> SpanHandle:
        inner = super().span(name, group)
        if not self.spans.enabled:
            return inner
        return _VerifiedSpan(self, inner, name)

    def reset(self) -> None:
        super().reset()
        self._watermarks = self.counters.snapshot()
        self._known_keys = [set() for _ in range(self.p)]

    def mem_write(self, rank: int, key: object, words: float) -> None:
        self._known_keys[self._check_rank(rank)].add(key)
        super().mem_write(rank, key, words)

    def mem_read(self, rank: int, key: object, words: float) -> None:
        known = self._known_keys[self._check_rank(rank)]
        if self.strict_reads and key not in known:
            raise BSPDisciplineError(
                f"read-provenance violation: rank {rank} reads dataset {key!r} "
                "it never wrote, read, or was granted (data it was never sent)"
            )
        known.add(key)
        super().mem_read(rank, key, words)

    def grant(self, ranks: Iterable[int] | int, key: object) -> None:
        """Record that a dataset was delivered to ``ranks`` (e.g. by a
        broadcast the caller charged), licensing future strict reads."""
        if isinstance(ranks, int):
            ranks = (ranks,)
        for r in ranks:
            self._known_keys[self._check_rank(r)].add(key)

    # -------------------------------------------------------------- #
    # the invariants

    def verify(self, context: str = "explicit") -> None:
        """Check all invariants now; raises :class:`BSPDisciplineError`.

        All three checks are whole-array numpy comparisons against the
        previous watermark snapshot, so a verified run costs O(1) numpy ops
        per superstep instead of O(p) Python attribute reads — this is what
        keeps ``--verify`` close to the cost of an unverified run.
        """
        self.checks_run += 1
        self._check_conservation(context)
        self._check_monotone(context)
        self._check_memory_bound(context)
        self._watermarks = self.counters.snapshot()

    def _check_conservation(self, context: str) -> None:
        sent = float(np.sum(self.counters.field_array("words_sent")))
        recv = float(np.sum(self.counters.field_array("words_recv")))
        tol = self.conservation_rtol * max(1.0, sent, recv)
        if abs(sent - recv) > tol:
            raise BSPDisciplineError(
                f"conservation violation at {context}: words sent ({sent:.6g}) "
                f"!= words received ({recv:.6g}); some transfer books only one side"
            )

    def _check_monotone(self, context: str) -> None:
        for name in _MONOTONE_FIELDS:
            now = self.counters.field_array(name)
            mark = self._watermarks.field_array(name)
            decreased = now < mark
            if decreased.any():
                rank = int(np.argmax(decreased))
                raise BSPDisciplineError(
                    f"monotonicity violation at {context}: rank {rank} counter "
                    f"{name} decreased ({float(mark[rank]):.6g} -> {float(now[rank]):.6g})"
                )

    def _check_memory_bound(self, context: str) -> None:
        if self.memory_bound_words is None:
            return
        peak = self.counters.field_array("peak_memory_words")
        over = peak > self.memory_bound_words
        if over.any():
            rank = int(np.argmax(over))
            raise BSPDisciplineError(
                f"memory-bound violation at {context}: rank {rank} peak footprint "
                f"{float(peak[rank]):.6g} words exceeds the M budget "
                f"{self.memory_bound_words:.6g}"
            )

    def __repr__(self) -> str:
        return (
            f"VerifiedMachine(p={self.p}, params={self.params}, "
            f"memory_bound_words={self.memory_bound_words}, strict_reads={self.strict_reads})"
        )
