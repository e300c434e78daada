"""Tests for sequential successive band reduction (the numerical reference
for Algorithms IV.1 / IV.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eig.schedule import wave_sizes
from repro.linalg import sbr
from repro.linalg.band import SymmetricBand
from repro.linalg.sbr import (
    apply_chase_step,
    band_reduce_seq,
    chase_steps,
    eigenvalues_via_sbr,
    full_to_band_seq,
    run_chase_schedule,
    tridiagonalize_band_seq,
)
from repro.util.matrices import random_banded_symmetric, random_symmetric
from repro.util.validation import matrix_bandwidth

from tests.helpers import eig_err


class TestChaseSteps:
    def test_rejects_bad_bandwidths(self):
        with pytest.raises(ValueError):
            chase_steps(10, 4, 4)  # h must be < b
        with pytest.raises(ValueError):
            chase_steps(10, 12, 2)  # b must be < n

    def test_first_step_is_panel_elimination(self):
        steps = chase_steps(24, 4, 2)
        s = steps[0]
        assert (s.i, s.j) == (1, 1)
        assert s.oqr_r == 2 and s.oqr_c == 0
        assert s.ov == 0

    def test_bulge_handoff_invariant(self):
        # Chase j+1 eliminates columns starting exactly at chase j's rows.
        for steps_by_panel in [chase_steps(36, 6, 3), chase_steps(40, 8, 2)]:
            by_panel = {}
            for s in steps_by_panel:
                by_panel.setdefault(s.i, []).append(s)
            for chain in by_panel.values():
                for s0, s1 in zip(chain, chain[1:]):
                    assert s1.oqr_c == s0.oqr_r

    def test_offsets_in_range(self):
        for s in chase_steps(30, 6, 2):
            assert 0 <= s.oqr_c < s.oqr_r < 30
            assert s.nr >= 1 and s.ncols >= 1
            assert s.oqr_r + s.nr <= 30

    def test_phase_formula(self):
        for s in chase_steps(48, 8, 4):
            assert s.phase == s.j + 2 * (s.i - 1)

    @given(st.integers(10, 40), st.integers(2, 8), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_every_column_block_eliminated(self, n, b, h):
        if not (1 <= h < b < n):
            return
        steps = chase_steps(n, b, h)
        # Panel eliminations (j = 1) must cover all columns up to n-h.
        covered = set()
        for s in steps:
            if s.j == 1:
                covered.update(range(s.oqr_c, s.oqr_c + s.ncols))
        n_panels = -(-n // h) - 1
        assert covered == set(range(min(n - 1, n_panels * h)))


class TestBandReduce:
    @pytest.mark.parametrize("n,b,h", [(24, 4, 2), (24, 4, 1), (32, 8, 4), (30, 6, 3), (30, 6, 2)])
    def test_bandwidth_and_eigenvalues(self, n, b, h):
        a = random_banded_symmetric(n, b, seed=n + b + h)
        out = band_reduce_seq(a, b, h)
        assert matrix_bandwidth(out) <= h
        assert eig_err(a, out) < 1e-10

    def test_ragged_sizes(self):
        # n not divisible by b or h.
        a = random_banded_symmetric(29, 5, seed=1)
        out = band_reduce_seq(a, 5, 2)
        assert matrix_bandwidth(out) <= 2
        assert eig_err(a, out) < 1e-10

    def test_single_chase_step_preserves_eigenvalues(self):
        a = random_banded_symmetric(20, 4, seed=2)
        b_mat = a.copy()
        step = chase_steps(20, 4, 2)[0]
        apply_chase_step(b_mat, step)
        b_mat = (b_mat + b_mat.T) / 2
        assert eig_err(a, b_mat) < 1e-11

    def test_dense_input_with_declared_band_fails_gracefully(self):
        # Reducing a matrix whose actual band-width exceeds `b` is a caller
        # contract violation; the reduction then cannot reach band h.
        a = random_symmetric(16, seed=3)  # dense
        out = band_reduce_seq(a, 4, 2)
        assert matrix_bandwidth(out) > 2  # leftover fill betrays the misuse


# h ∤ b, h = 1, ragged n, and the n = 512 halvings of the pinned solve
WAVE_SHAPES = [
    (32, 8, 4), (48, 8, 2), (64, 16, 8), (65, 16, 8), (96, 12, 3), (100, 14, 7),
    (64, 8, 1), (70, 9, 4), (96, 8, 6), (128, 8, 4), (256, 16, 8), (101, 4, 2),
    (512, 4, 2),
]


def _mean_wave_width(n, b, h):
    sizes = wave_sizes(n, b, h)
    return sizes.sum() / np.count_nonzero(sizes)


def _run_in_order(a, steps):
    out = a.copy()
    for step in steps:
        apply_chase_step(out, step)
    return out


class TestWaveExecutor:
    @pytest.mark.parametrize("n,b,h", WAVE_SHAPES)
    def test_stacked_waves_match_sequential_reduction(self, n, b, h, monkeypatch):
        monkeypatch.setattr(sbr, "WAVE_MIN_WIDTH", 0.0)  # stack every shape
        a = random_banded_symmetric(n, b, seed=n + b + h)
        ref = band_reduce_seq(a, b, h)
        out = a.copy()
        run_chase_schedule(out, b, h)
        out = (out + out.T) / 2.0
        assert np.abs(np.tril(out, -h - 1)).max() == 0.0  # band-width exactly h
        norm = np.abs(np.linalg.eigvalsh(a)).max()
        assert np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(ref)).max() <= 1e-12 * norm

    @pytest.mark.parametrize("n,b,h", [(64, 8, 4), (65, 16, 8), (70, 9, 4), (40, 6, 1)])
    def test_ascending_wave_order_is_panel_major_bit_for_bit(self, n, b, h):
        a = random_banded_symmetric(n, b, seed=3)
        steps = chase_steps(n, b, h)
        ref = _run_in_order(a, steps)
        waves = _run_in_order(a, sorted(steps, key=lambda s: (s.phase, s.i)))
        assert np.array_equal(waves, ref)

    def test_descending_wave_order_breaks_the_reduction(self):
        """Same-phase steps depend on each other: an update reads the QR
        output of every lower panel of its phase."""
        a = random_banded_symmetric(64, 8, seed=3)
        steps = chase_steps(64, 8, 4)
        ref = _run_in_order(a, steps)
        wrong = _run_in_order(a, sorted(steps, key=lambda s: (s.phase, -s.i)))
        assert np.abs(wrong - ref).max() > 1e-3 * np.abs(a).max()

    def test_narrow_schedules_run_step_by_step(self):
        n, b, h = 96, 16, 8
        assert _mean_wave_width(n, b, h) < sbr.WAVE_MIN_WIDTH
        a = random_banded_symmetric(n, b, seed=4)
        out = a.copy()
        run_chase_schedule(out, b, h)
        assert np.array_equal(out, _run_in_order(a, chase_steps(n, b, h)))

    def test_wide_schedules_call_the_step_kernel_only_for_ragged_steps(self, monkeypatch):
        n, b, h = 131, 8, 4  # ragged: b ∤ n
        assert _mean_wave_width(n, b, h) >= sbr.WAVE_MIN_WIDTH
        seen = []
        step_kernel = sbr.apply_chase_step

        def counting(mat, step):
            seen.append(step)
            return step_kernel(mat, step)

        monkeypatch.setattr(sbr, "apply_chase_step", counting)
        a = random_banded_symmetric(n, b, seed=5)
        out = a.copy()
        run_chase_schedule(out, b, h)
        ragged = [s for s in chase_steps(n, b, h) if s.nr < b or s.ncols < h]
        assert seen == sorted(ragged, key=lambda s: (s.phase, s.i))
        assert 0 < len(seen) < len(chase_steps(n, b, h)) // 4
        assert eig_err(a, (out + out.T) / 2.0) < 1e-12


class TestFullToBand:
    @pytest.mark.parametrize("n,b", [(24, 4), (32, 8), (29, 6), (16, 15)])
    def test_bandwidth_and_eigenvalues(self, n, b):
        a = random_symmetric(n, seed=n + b)
        out = full_to_band_seq(a, b)
        assert matrix_bandwidth(out) <= b
        assert eig_err(a, out) < 1e-10

    def test_rejects_bad_bandwidth(self):
        a = random_symmetric(8, seed=4)
        with pytest.raises(ValueError):
            full_to_band_seq(a, 0)
        with pytest.raises(ValueError):
            full_to_band_seq(a, 8)

    def test_band_input_is_noop_like(self):
        a = random_banded_symmetric(20, 3, seed=5)
        out = full_to_band_seq(a, 10)
        assert eig_err(a, out) < 1e-11


class TestTridiagonalizeAndPipeline:
    def test_tridiagonalize(self):
        a = random_banded_symmetric(24, 6, seed=6)
        t = tridiagonalize_band_seq(a, 6)
        assert matrix_bandwidth(t) <= 1
        assert eig_err(a, t) < 1e-9

    def test_eigenvalues_via_sbr(self):
        a = random_symmetric(40, seed=7)
        evals = eigenvalues_via_sbr(a)
        assert eig_err(a, evals) < 1e-9

    def test_eigenvalues_via_sbr_small(self):
        a = random_symmetric(3, seed=8)
        assert eig_err(a, eigenvalues_via_sbr(a)) < 1e-12

    def test_eigenvalues_one_by_one(self):
        a = np.array([[5.0]])
        assert eigenvalues_via_sbr(a)[0] == 5.0

    @given(st.integers(6, 28))
    @settings(max_examples=15, deadline=None)
    def test_property_spectrum_preserved(self, n):
        a = random_symmetric(n, seed=n * 7)
        assert eig_err(a, eigenvalues_via_sbr(a)) < 1e-8


class TestSymmetricBandStorage:
    def test_roundtrip(self):
        a = random_banded_symmetric(12, 3, seed=9)
        sb = SymmetricBand.from_dense(a, 3)
        assert np.abs(sb.to_dense() - a).max() < 1e-14
        assert sb.words == 4 * 12

    def test_indexing(self):
        a = random_banded_symmetric(8, 2, seed=10)
        sb = SymmetricBand.from_dense(a, 2)
        assert sb[3, 1] == pytest.approx(a[3, 1])
        assert sb[1, 3] == pytest.approx(a[3, 1])  # symmetric access
        assert sb[0, 7] == 0.0  # outside band reads zero

    def test_write_outside_band_raises(self):
        sb = SymmetricBand(8, 2)
        with pytest.raises(IndexError):
            sb[0, 5] = 1.0

    def test_bandwidth_check_and_shrink(self):
        a = random_banded_symmetric(10, 1, seed=11)
        sb = SymmetricBand.from_dense(a, 4)
        assert sb.bandwidth_check() == 1
        small = sb.shrink(2)
        assert small.b == 2
        with pytest.raises(ValueError):
            small.shrink(0)  # data has band-width 1 > 0

    def test_eigenvalues(self):
        a = random_banded_symmetric(14, 3, seed=12)
        sb = SymmetricBand.from_dense(a, 3)
        assert eig_err(a, sb.eigenvalues()) < 1e-9

    def test_eigenvalues_tridiagonal_and_diagonal(self):
        a = random_banded_symmetric(10, 1, seed=13)
        assert eig_err(a, SymmetricBand.from_dense(a, 1).eigenvalues()) < 1e-10
        d = np.diag(np.arange(5.0))
        assert np.allclose(SymmetricBand.from_dense(d, 0).eigenvalues(), np.arange(5.0))
