"""Order-preserving batched charging: ChargeLog and kernel charge tapes.

The batched chase engines (:mod:`repro.eig.chase_batch`, the CA-SBR batched
path) eliminate per-step Python charging overhead without changing a single
accumulated bit.  Two pieces make that possible:

:class:`ChargeLog`
    An append-only event log bound to a machine.  Callers append the *same*
    (rank-index, amount) charges the per-step code would have issued, in the
    same order; :meth:`ChargeLog.flush` replays each counter field with one
    ``np.add.at`` call.  ``np.add.at`` is unbuffered and applies additions
    in index-array order, so every rank receives the identical sequence of
    IEEE-754 additions the per-step path performs — the flushed cost report
    is byte-identical, on both counter engines (the scalar store loops over
    the same event arrays in the same order).

:class:`KernelTape`
    A memo of the charge sequences emitted by the parallel kernels
    (``rect_qr``, ``carma_matmul``) whose costs depend only on operand
    shapes and the executing group — never on operand values (their leaves
    charge ``mem_stream``/``note_memory``/``charge_comm_batch`` computed
    from shapes; no cache keys are involved).  The first occurrence of a
    (kernel, shape, group) key runs the real kernel once on dummy operands
    against a scratch machine with a recording store; later occurrences
    replay the recorded events into a :class:`ChargeLog` in original order.

Superstep counts are integers (commutative, exact) and memory notes are
running maxima (order-insensitive), so batching those is trivially exact;
the float fields rely on the ordered-replay argument above.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.bsp.machine import BSPMachine


def batched_charging_ok(machine: BSPMachine) -> bool:
    """True iff order-preserving batched charging may replace per-step calls.

    Batched paths bypass the machine's per-charge hooks, so they are only
    sound on a plain :class:`BSPMachine` (no verifying subclass) with every
    observer — span attribution, per-rank metrics, fault injection —
    disabled.  Observed runs fall back to the per-step path, which keeps
    their artifacts byte-identical by construction.
    """
    return (
        type(machine) is BSPMachine
        and not machine.spans.enabled
        and not machine.metrics.enabled
        and not machine.faults.enabled
    )


def _as_idx(idx) -> np.ndarray:
    if isinstance(idx, (int, np.integer)):
        return np.array([int(idx)], dtype=np.int64)
    return np.asarray(idx, dtype=np.int64)


def _as_amounts(idx: np.ndarray, amount) -> np.ndarray:
    if np.ndim(amount) == 0:
        return np.full(idx.size, float(amount), dtype=np.float64)
    return np.asarray(amount, dtype=np.float64)


class ChargeLog:
    """Append-only charge event log flushed with order-preserving batch adds.

    Method names mirror the :class:`BSPMachine` charging primitives (and are
    recognized as charging calls by the lint callgraph).  ``idx`` arguments
    are resolved rank indices: an ``int`` or an ``int64`` array (e.g. a
    cached :meth:`RankGroup.indices` array).  Bounds are the caller's
    responsibility — the batched engines only charge groups the machine has
    already validated.
    """

    __slots__ = ("machine", "_flops", "_sent", "_recv", "_mem", "_ss", "_note")

    def __init__(self, machine: BSPMachine):
        self.machine = machine
        self._flops: list[tuple[np.ndarray, np.ndarray]] = []
        self._sent: list[tuple[np.ndarray, np.ndarray]] = []
        self._recv: list[tuple[np.ndarray, np.ndarray]] = []
        self._mem: list[tuple[np.ndarray, np.ndarray]] = []
        self._ss: list[tuple[np.ndarray, int]] = []
        self._note: list[tuple[np.ndarray, np.ndarray]] = []

    # -- event append (same call sites/order as the per-step path) ------- #

    def charge_flops(self, idx, amount) -> None:
        i = _as_idx(idx)
        self._flops.append((i, _as_amounts(i, amount)))

    def charge_comm(self, send_idx=None, sent=None, recv_idx=None, recvd=None) -> None:
        if send_idx is not None:
            i = _as_idx(send_idx)
            self._sent.append((i, _as_amounts(i, sent)))
        if recv_idx is not None:
            i = _as_idx(recv_idx)
            self._recv.append((i, _as_amounts(i, recvd)))

    def mem_stream(self, idx, words) -> None:
        i = _as_idx(idx)
        self._mem.append((i, _as_amounts(i, words)))

    def superstep(self, idx, count: int = 1) -> None:
        self._ss.append((_as_idx(idx), int(count)))

    def note_memory(self, idx, words) -> None:
        i = _as_idx(idx)
        self._note.append((i, _as_amounts(i, words)))

    def extend_tape(self, tape: "FlatTape") -> None:
        """Append a pre-flattened kernel tape's per-field event arrays."""
        if tape.flops is not None:
            self._flops.append(tape.flops)
        if tape.sent is not None:
            self._sent.append(tape.sent)
        if tape.recv is not None:
            self._recv.append(tape.recv)
        if tape.mem is not None:
            self._mem.append(tape.mem)
        if tape.ss is not None:
            self._ss.append(tape.ss)
        if tape.note is not None:
            self._note.append(tape.note)

    # -- replay ---------------------------------------------------------- #

    @staticmethod
    def _concat(events: list[tuple[np.ndarray, np.ndarray]]):
        if not events:
            return None, None
        if len(events) == 1:
            return events[0]
        return (
            np.concatenate([e[0] for e in events]),
            np.concatenate([e[1] for e in events]),
        )

    def flush(self) -> None:
        """Apply all pending events and clear the log.

        One ``np.add.at`` per counter field; per-rank addition order equals
        event-append order, which the engines keep equal to per-step order.
        """
        counters = self.machine.counters
        idx, amt = self._concat(self._flops)
        if idx is not None:
            if amt.size and amt.min() < 0:
                raise ValueError("flops must be nonnegative")
            counters.add_flops(idx, amt, unique=False)
        s_idx, s_amt = self._concat(self._sent)
        r_idx, r_amt = self._concat(self._recv)
        if s_idx is not None or r_idx is not None:
            for label, arr in (("sent", s_amt), ("received", r_amt)):
                if arr is not None and arr.size and arr.min() < 0:
                    raise ValueError(f"{label} words must be nonnegative")
            counters.add_comm(s_idx, s_amt, r_idx, r_amt, unique=False)
        idx, amt = self._concat(self._mem)
        if idx is not None:
            if amt.size and amt.min() < 0:
                raise ValueError("words must be nonnegative")
            counters.add_mem_traffic(idx, amt, unique=False)
        if self._ss:
            # integer superstep increments commute: concatenate and add
            idx = np.concatenate([i for i, _ in self._ss])
            cnt = np.concatenate(
                [c if isinstance(c, np.ndarray) else np.full(i.size, c, dtype=np.int64)
                 for i, c in self._ss]
            )
            counters.add_supersteps(idx, cnt, unique=False)
        idx, amt = self._concat(self._note)
        if idx is not None:
            counters.note_memory(idx, amt, unique=False)
        self._flops.clear()
        self._sent.clear()
        self._recv.clear()
        self._mem.clear()
        self._ss.clear()
        self._note.clear()


class _RecordingStore:
    """Counter-store stand-in capturing (field, idx, amount) event sequences."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def add_flops(self, idx, amount, unique: bool = True) -> None:
        self.events.append(("flops", idx, amount))

    def add_comm(self, send_idx=None, sent=None, recv_idx=None, recvd=None,
                 unique: bool = True) -> None:
        self.events.append(("comm", send_idx, sent, recv_idx, recvd))

    def add_supersteps(self, idx, count, unique: bool = True) -> None:
        self.events.append(("ss", idx, int(count)))

    def add_mem_traffic(self, idx, words, unique: bool = True) -> None:
        self.events.append(("mem", idx, words))

    def note_memory(self, idx, words_each, unique: bool = True) -> None:
        self.events.append(("note", idx, words_each))

    def add_memory(self, idx, words_each, unique: bool = True) -> None:
        raise RuntimeError("taped kernels must not call add_memory")

    def release_memory(self, idx, words_each, unique: bool = True) -> None:
        raise RuntimeError("taped kernels must not call release_memory")


class FlatTape:
    """A kernel's charge events flattened to one array pair per field.

    Within one kernel call, per-field event order is preserved by the
    flattening concatenation; cross-field interleaving carries no
    information (each counter field accumulates independently, and taped
    kernels never touch the order-sensitive add/release memory pair), so
    appending a FlatTape to a ChargeLog reproduces the kernel's per-rank
    additions exactly.
    """

    __slots__ = ("flops", "sent", "recv", "mem", "ss", "note")

    def __init__(self, events: list[tuple]):
        log = ChargeLog.__new__(ChargeLog)
        ChargeLog.__init__(log, machine=None)  # type: ignore[arg-type]
        for ev in events:
            kind = ev[0]
            if kind == "flops":
                log.charge_flops(ev[1], ev[2])
            elif kind == "comm":
                log.charge_comm(ev[1], ev[2], ev[3], ev[4])
            elif kind == "ss":
                log.superstep(ev[1], ev[2])
            elif kind == "mem":
                log.mem_stream(ev[1], ev[2])
            else:  # "note"
                log.note_memory(ev[1], ev[2])
        self.flops = ChargeLog._concat(log._flops) if log._flops else None
        self.sent = ChargeLog._concat(log._sent) if log._sent else None
        self.recv = ChargeLog._concat(log._recv) if log._recv else None
        self.mem = ChargeLog._concat(log._mem) if log._mem else None
        self.note = ChargeLog._concat(log._note) if log._note else None
        if log._ss:
            idx = np.concatenate([i for i, _ in log._ss])
            cnt = np.concatenate(
                [np.full(i.size, c, dtype=np.int64) for i, c in log._ss]
            )
            self.ss = (idx, cnt)
        else:
            self.ss = None


# Recorded tapes are reusable across KernelTape instances (and hence across
# band-to-band stages and bench repeats): the key pins everything a kernel's
# charge sequence depends on — machine size, machine parameters, kernel,
# operand shapes, and the executing group's exact rank tuple.
_TAPE_CACHE: dict[tuple, FlatTape] = {}


class KernelTape:
    """Shape-keyed memo of kernel charge sequences, replayed into ChargeLogs."""

    def __init__(self, machine: BSPMachine):
        self.machine = machine
        self._scratch: BSPMachine | None = None
        self._rng = np.random.default_rng(0x5EED)
        self._params_key = repr(machine.params)

    def _record(self, run) -> FlatTape:
        """Run ``run(scratch_machine)`` with a recording store installed."""
        if self._scratch is None:
            self._scratch = BSPMachine(
                self.machine.p, params=self.machine.params,
                engine="array", spans=False, metrics=False,
            )
        recorder = _RecordingStore()
        saved = self._scratch.counters
        self._scratch.counters = recorder  # type: ignore[assignment]
        try:
            run(self._scratch)
        finally:
            self._scratch.counters = saved
        return FlatTape(recorder.events)

    def rect_qr(self, log: ChargeLog, m: int, n: int, group: Any) -> None:
        """Replay the charges of ``rect_qr`` on an m×n block over ``group``."""
        key = (self.machine.p, self._params_key, "rect_qr", m, n, group.ranks)
        tape = _TAPE_CACHE.get(key)
        if tape is None:
            from repro.blocks.rect_qr import rect_qr  # late import: avoid cycle

            dummy = self._rng.standard_normal((m, n))
            tape = self._record(
                lambda sm: rect_qr(sm, group, dummy, charge_redistribution=False)
            )
            _TAPE_CACHE[key] = tape
        log.extend_tape(tape)

    def carma(self, log: ChargeLog, m: int, n: int, k: int, group: Any) -> None:
        """Replay the charges of ``carma_matmul`` (m×n @ n×k) over ``group``."""
        key = (self.machine.p, self._params_key, "carma", m, n, k, group.ranks)
        tape = _TAPE_CACHE.get(key)
        if tape is None:
            from repro.blocks.matmul import carma_matmul  # late import

            a = self._rng.standard_normal((m, n))
            b = self._rng.standard_normal((n, k))
            tape = self._record(
                lambda sm: carma_matmul(sm, group, a, b, charge_redistribution=False)
            )
            _TAPE_CACHE[key] = tape
        log.extend_tape(tape)
