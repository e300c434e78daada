"""The fault-injecting machine wrapper.

:class:`FaultyMachine` mirrors :class:`repro.lint.verify.VerifiedMachine`:
a drop-in :class:`~repro.bsp.machine.BSPMachine` subclass that any algorithm
in the repo accepts unchanged.  It installs a live :class:`FaultInjector` as
``machine.faults`` (replacing the shared :data:`~repro.bsp.machine.NO_FAULTS`
no-op) and consults the seeded :class:`~repro.faults.plan.FaultPlan` at

* **superstep barriers** — fail-stop rank failures (the rank dies at the
  barrier; a typed :class:`~repro.faults.errors.RankFailure` propagates to
  the driver's recovery loop);
* **collectives** — message drops, healed transparently by a charged
  retransmission (the recovery traffic lands in the surrounding span);
* **data movement and kernel outputs** — single-entry bit-flips/NaNs,
  caught downstream by ABFT checksums or the driver's invariant guards.

Opt-in is explicit: construct a ``FaultyMachine``, or set ``REPRO_FAULTS``
(``"<scenario>[:<seed>]"`` or a bare seed, which selects the ``chaos``
scenario) and build machines via :func:`machine_from_env`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine
from repro.bsp.params import MachineParams
from repro.faults.errors import RankFailure, current_span
from repro.faults.plan import SCENARIOS, FaultPlan, FaultSpec


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the driver responds to detected faults."""

    #: retries per stage before giving up with UnrecoverableFault
    max_retries: int = 2
    #: supersteps charged per recovery, doubling each attempt (backoff)
    backoff_supersteps: int = 1
    #: snapshot stage inputs so a retry restarts from clean data
    checkpoints: bool = True


class FaultInjector:
    """Live fault layer of a :class:`FaultyMachine` (``machine.faults``)."""

    enabled = True

    def __init__(self, machine: BSPMachine, plan: FaultPlan, policy: RecoveryPolicy):
        self.machine = machine
        self.plan = plan
        self.policy = policy
        self.failed_ranks: set[int] = set()
        self.recoveries: list[tuple[str, str]] = []
        self._paused = 0

    # ------------------------------------------------------------------ #

    @property
    def paused(self) -> bool:
        return self._paused > 0

    @contextmanager
    def quiesce(self) -> Iterator[None]:
        """Suspend injection while recovery actions (checkpoint restore,
        redistribution, backoff) run — recovery itself does not fault."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def live_group(self, group: RankGroup) -> RankGroup | None:
        """The surviving members of ``group`` (None if nobody survived)."""
        if not self.failed_ranks:
            return group
        alive = tuple(r for r in group if r not in self.failed_ranks)
        return RankGroup(alive) if alive else None

    # ------------------------------------------------------------------ #
    # injection sites

    def at_barrier(self, ranks: Sequence[int]) -> None:
        """Superstep barrier: maybe fail-stop one participating rank."""
        if self._paused:
            return
        span = current_span(self.machine)
        victim = self.plan.draw_rank_failure(ranks, "superstep", span)
        if victim is not None:
            self.failed_ranks.add(victim)
            raise RankFailure(
                f"rank {victim} failed at a superstep barrier",
                rank=victim, span=span, site="superstep",
            )

    def on_collective(self, site: str, group: RankGroup,
                      recharge: Callable[[], None]) -> None:
        """Collective boundary: a dropped payload is retransmitted —
        ``recharge`` re-issues the collective's charges so the recovery
        words and supersteps are accounted in the surrounding span."""
        if self._paused:
            return
        if self.plan.draw_message_drop(site, current_span(self.machine)):
            recharge()

    def corrupt_window(self, array: np.ndarray, site: str) -> np.ndarray:
        """Data-movement boundary (fetched windows, gathers): maybe flip
        one entry in place."""
        if not self._paused:
            self.plan.corrupt(array, site, current_span(self.machine),
                              self.plan.spec.message_corrupt_prob)
        return array

    def corrupt_output(self, array: np.ndarray, site: str) -> np.ndarray:
        """Kernel output boundary: maybe flip one entry in place."""
        if not self._paused:
            self.plan.corrupt(array, site, current_span(self.machine),
                              self.plan.spec.kernel_corrupt_prob)
        return array

    # ------------------------------------------------------------------ #
    # recovery accounting

    def backoff(self, attempt: int, group: RankGroup) -> None:
        """Charge the backoff barrier wait of recovery ``attempt``."""
        self.machine.superstep(group, self.policy.backoff_supersteps << attempt)

    def note_recovery(self, stage: str, exc: BaseException) -> None:
        self.recoveries.append((stage, f"{type(exc).__name__}: {exc}"))


class FaultyMachine(BSPMachine):
    """A :class:`BSPMachine` that injects faults from a seeded plan.

    Drop-in: every algorithm in the repo runs on it unchanged.  The fault
    layer draws from ``plan`` at the injection sites described in the
    module docstring; ``policy`` shapes the driver's recovery behavior.
    """

    def __init__(
        self,
        p: int,
        params: MachineParams | None = None,
        engine: str | None = None,
        spans: bool | None = None,
        metrics: bool | None = None,
        *,
        plan: FaultPlan,
        policy: RecoveryPolicy | None = None,
    ):
        super().__init__(p, params, engine=engine, spans=spans, metrics=metrics)
        self.plan = plan
        self.policy = policy or RecoveryPolicy()
        self.faults = FaultInjector(self, plan, self.policy)

    def superstep(self, group: RankGroup | Iterable[int] | None = None, count: int = 1) -> None:
        if group is not None and not isinstance(group, (RankGroup, int, np.integer)):
            group = tuple(group)  # materialize: charged once, then drawn on
        super().superstep(group, count)
        if group is None:
            members: Sequence[int] = self.world.ranks
        elif isinstance(group, RankGroup):
            members = group.ranks
        elif isinstance(group, (int, np.integer)):
            members = (int(group),)
        else:
            members = group
        self.faults.at_barrier(members)

    def __repr__(self) -> str:
        return (f"FaultyMachine(p={self.p}, plan={self.plan.spec.name!r}, "
                f"seed={self.plan.seed}, engine={self.engine!r})")


# ---------------------------------------------------------------------- #
# environment opt-in

def parse_faults(value: str) -> tuple[FaultSpec, int]:
    """Parse a ``REPRO_FAULTS`` value: ``<scenario>[:<seed>]`` or a bare
    integer seed (which selects the ``chaos`` scenario)."""
    name, _, seed_text = value.partition(":")
    if not seed_text and name.lstrip("-").isdigit():
        return SCENARIOS["chaos"], int(name)
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown fault scenario {name!r}; expected one of {sorted(SCENARIOS)}"
        )
    seed = int(seed_text) if seed_text else 0
    return SCENARIOS[name], seed


def machine_from_env(p: int, **kwargs) -> BSPMachine:
    """A machine honoring ``REPRO_FAULTS`` (plain BSPMachine when unset)."""
    value = os.environ.get("REPRO_FAULTS", "")
    if value in ("", "0"):
        return BSPMachine(p, **kwargs)
    spec, seed = parse_faults(value)
    return FaultyMachine(p, plan=FaultPlan(spec, seed), **kwargs)
