"""Tests for the complete eigensolvers (Algorithm IV.3 and the baselines)."""

import numpy as np
import pytest

from repro.bsp import BSPMachine
from repro.eig import (
    eigensolve_2p5d,
    eigensolve_ca_sbr,
    eigensolve_elpa_like,
    eigensolve_scalapack_like,
)
from repro.eig.driver import default_initial_bandwidth, eigensolve_2p5d_check, finish_sequential
from repro.dist.banded import DistBandMatrix
from repro.util.matrices import (
    random_banded_symmetric,
    random_spectrum_symmetric,
    random_symmetric,
    wilkinson,
)

from tests.helpers import eig_err


class Test2p5dSolver:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_spectrum_across_p(self, p):
        a = random_symmetric(48, seed=p)
        res, err = eigensolve_2p5d_check(BSPMachine(p), a)
        assert err < 1e-8

    @pytest.mark.parametrize("delta", [0.5, 0.58, 2.0 / 3.0])
    def test_spectrum_across_delta(self, delta):
        a = random_symmetric(64, seed=1)
        res, err = eigensolve_2p5d_check(BSPMachine(16), a, delta=delta)
        assert err < 1e-8

    def test_prescribed_spectrum(self):
        d = np.linspace(-5, 5, 32)
        a = random_spectrum_symmetric(d, seed=2)
        res = eigensolve_2p5d(BSPMachine(4), a)
        assert np.abs(res.eigenvalues - d).max() < 1e-8

    def test_wilkinson_clusters(self):
        w = wilkinson(33)
        res = eigensolve_2p5d(BSPMachine(4), w, b0=8)
        assert eig_err(w, res.eigenvalues) < 1e-8

    def test_result_metadata(self):
        res = eigensolve_2p5d(BSPMachine(16), random_symmetric(48, 3), delta=2.0 / 3.0)
        assert res.replication >= 1
        assert 0.5 <= res.delta <= 0.76
        assert res.initial_bandwidth >= 2
        assert res.cost.p == 16
        assert len(res.stages) >= 2
        assert "full_to_band" in res.stages[0][0]
        assert "finish" in res.stages[-1][0]
        assert "total" in res.stage_summary()

    def test_stage_costs_sum_to_total(self):
        res = eigensolve_2p5d(BSPMachine(8), random_symmetric(48, 4))
        stage_flops = sum(rep.total_flops for _, rep in res.stages)
        assert stage_flops == pytest.approx(res.cost.total_flops, rel=1e-9)

    def test_explicit_b0(self):
        res = eigensolve_2p5d(BSPMachine(4), random_symmetric(48, 5), b0=12)
        assert res.initial_bandwidth == 12
        assert eig_err(random_symmetric(48, 5), res.eigenvalues) < 1e-8

    def test_rejects_n_smaller_than_p(self):
        with pytest.raises(ValueError, match="n >= p"):
            eigensolve_2p5d(BSPMachine(64), random_symmetric(8, 0))

    def test_rejects_bad_b0(self):
        with pytest.raises(ValueError):
            eigensolve_2p5d(BSPMachine(4), random_symmetric(16, 0), b0=16)

    def test_default_initial_bandwidth(self):
        b = default_initial_bandwidth(1024, 64, 0.5)
        assert b & (b - 1) == 0  # power of two
        assert 2 <= b <= 512


class TestBaselines:
    def test_scalapack_like(self):
        a = random_symmetric(40, seed=6)
        m = BSPMachine(16)
        ev = eigensolve_scalapack_like(m, a)
        assert eig_err(a, ev) < 1e-9
        assert m.cost().S >= 40  # per-column synchronization

    def test_elpa_like(self):
        a = random_symmetric(48, seed=7)
        m = BSPMachine(16)
        ev = eigensolve_elpa_like(m, a)
        assert eig_err(a, ev) < 1e-8

    def test_elpa_explicit_bandwidth(self):
        a = random_symmetric(48, seed=8)
        ev = eigensolve_elpa_like(BSPMachine(4), a, b=6)
        assert eig_err(a, ev) < 1e-8

    def test_elpa_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            eigensolve_elpa_like(BSPMachine(4), random_symmetric(16, 0), b=16)

    def test_ca_sbr_solver(self):
        a = random_symmetric(48, seed=9)
        m = BSPMachine(16)
        ev = eigensolve_ca_sbr(m, a)
        assert eig_err(a, ev) < 1e-8

    def test_all_solvers_agree(self):
        a = random_symmetric(32, seed=10)
        evs = [
            eigensolve_2p5d(BSPMachine(4), a).eigenvalues,
            eigensolve_scalapack_like(BSPMachine(4), a),
            eigensolve_elpa_like(BSPMachine(4), a),
            eigensolve_ca_sbr(BSPMachine(4), a),
        ]
        for ev in evs[1:]:
            assert np.abs(ev - evs[0]).max() < 1e-8


class TestFinishSequential:
    def test_charges_only_root(self):
        m = BSPMachine(4)
        a = random_banded_symmetric(24, 3, seed=11)
        band = DistBandMatrix(m, a, 3, m.world)
        ev = finish_sequential(m, band)
        assert eig_err(a, ev) < 1e-9
        assert m.counters[0].flops > 0
        assert m.counters[1].flops == 0.0

    def test_tridiagonal_band_skips_reduction(self):
        m = BSPMachine(2)
        a = random_banded_symmetric(16, 1, seed=12)
        band = DistBandMatrix(m, a, 1, m.world)
        ev = finish_sequential(m, band)
        assert eig_err(a, ev) < 1e-10


class TestSolverBoundary:
    """The input envelope at the ``eigensolve_2p5d`` boundary."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_a_typed_error(self, bad):
        from repro.util.validation import NonFiniteInputError

        a = random_symmetric(16, seed=4)
        a[3, 5] = a[5, 3] = bad
        with pytest.raises(NonFiniteInputError, match="non-finite"):
            eigensolve_2p5d(BSPMachine(4), a)
        assert issubclass(NonFiniteInputError, ValueError)

    def test_one_by_one_matrix_is_its_own_spectrum(self):
        res = eigensolve_2p5d(BSPMachine(1), np.array([[-2.5]]))
        assert np.array_equal(res.eigenvalues, [-2.5])
        assert res.cost.flops == 0.0

    @pytest.mark.parametrize("n,p", [(1, 1), (12, 1), (48, 4), (64, 16)])
    def test_tridiagonal_stop_completes_bit_identically(self, n, p):
        from repro.eig import tridiagonalize_2p5d
        from repro.linalg.tridiag import sturm_bisection_eigenvalues

        a = random_symmetric(n, seed=n + p)
        full_m, part_m = BSPMachine(p, spans=True), BSPMachine(p, spans=True)
        full = eigensolve_2p5d(full_m, a, delta=2.0 / 3.0)
        part = tridiagonalize_2p5d(part_m, a, delta=2.0 / 3.0)
        assert part.eigenvalues is None and full.tridiagonal is None
        assert np.array_equal(sturm_bisection_eigenvalues(*part.tridiagonal), full.eigenvalues)
        assert part.cost == full.cost
        assert part.stages == full.stages
        assert [ev.as_dict() for ev in part_m.spans.events] == [
            ev.as_dict() for ev in full_m.spans.events
        ]

    def test_tridiagonal_stop_refuses_a_faulty_machine(self):
        from repro.eig import tridiagonalize_2p5d
        from repro.faults import FaultPlan, FaultyMachine
        from repro.faults.plan import SCENARIOS

        machine = FaultyMachine(4, plan=FaultPlan(SCENARIOS["chaos"], 1))
        with pytest.raises(ValueError, match="fault"):
            tridiagonalize_2p5d(machine, random_symmetric(16, seed=1))
