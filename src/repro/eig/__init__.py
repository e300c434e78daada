"""Symmetric eigensolvers (Section IV) and the Table I baselines.

* :func:`full_to_band_2p5d` — Algorithm IV.1: dense → band-width b with
  replicated storage and left-looking aggregated updates.
* :func:`band_to_band_2p5d` — Algorithm IV.2: pipelined bulge chasing with
  processor groups inside each chase.
* :func:`ca_sbr_halve` — the CA-SBR band-halving step (Lemma IV.2 baseline,
  stage 3 of the complete solver).
* :func:`eigensolve_2p5d` — Algorithm IV.3: the complete 2.5D eigensolver;
  :func:`tridiagonalize_2p5d` stops it at the tridiagonal of its finish.
* :func:`eigensolve_scalapack_like`, :func:`eigensolve_elpa_like`,
  :func:`eigensolve_ca_sbr` — the other three rows of Table I.
* :mod:`repro.eig.schedule` — the bulge-chase pipeline schedule (Figure 2).
"""

from repro.eig.full_to_band import full_to_band_2p5d
from repro.eig.band_to_band import band_to_band_2p5d
from repro.eig.ca_sbr import ca_sbr_halve, band_to_tridiagonal_1d
from repro.eig.driver import eigensolve_2p5d, tridiagonalize_2p5d, EigensolveResult
from repro.eig.scalapack_like import eigensolve_scalapack_like
from repro.eig.elpa_like import eigensolve_elpa_like
from repro.eig.ca_sbr_solver import eigensolve_ca_sbr

__all__ = [
    "full_to_band_2p5d",
    "band_to_band_2p5d",
    "ca_sbr_halve",
    "band_to_tridiagonal_1d",
    "eigensolve_2p5d",
    "tridiagonalize_2p5d",
    "EigensolveResult",
    "eigensolve_scalapack_like",
    "eigensolve_elpa_like",
    "eigensolve_ca_sbr",
    "SOLVERS",
    "solve_by_name",
]


def _baseline_result(machine, evals) -> EigensolveResult:
    """Wrap a baseline's bare spectrum in the driver's result type (the
    Table I baselines are 2-D: c = 1, no stage descriptors)."""
    return EigensolveResult(
        eigenvalues=evals, cost=machine.cost(), delta=0.5,
        replication=1, initial_bandwidth=0,
    )


def _solve_scalapack_like(machine, a, delta=0.5):
    return _baseline_result(machine, eigensolve_scalapack_like(machine, a))


def _solve_elpa_like(machine, a, delta=0.5):
    return _baseline_result(machine, eigensolve_elpa_like(machine, a))


def _solve_ca_sbr(machine, a, delta=0.5):
    return _baseline_result(machine, eigensolve_ca_sbr(machine, a))


#: uniform solver dispatch for the serving layer (repro.serve): every entry
#: is ``f(machine, a, delta) -> EigensolveResult``.  ``eig2p5d`` is the
#: paper's Algorithm IV.3 and the only δ-tunable entry; the Table I
#: baselines ignore δ (they are 2-D algorithms).
SOLVERS = {
    "eig2p5d": lambda machine, a, delta=0.5: eigensolve_2p5d(machine, a, delta=delta),
    "scalapack_like": _solve_scalapack_like,
    "elpa_like": _solve_elpa_like,
    "ca_sbr": _solve_ca_sbr,
}


def solve_by_name(name: str, machine, a, delta: float = 0.5) -> EigensolveResult:
    """Run the named solver (see :data:`SOLVERS`) on ``machine``."""
    try:
        solver = SOLVERS[name]
    except KeyError:
        raise ValueError(
            f"unknown solver {name!r}; expected one of {sorted(SOLVERS)}"
        ) from None
    return solver(machine, a, delta)
