"""Tests for Householder kernels and compact-WY aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg.householder import (
    apply_block_reflector_left,
    apply_block_reflector_right,
    compact_wy_qr,
    compact_wy_qr_general,
    compact_wy_qr_stacked,
    expand_q,
    householder_vector,
)


class TestHouseholderVector:
    def test_annihilates_tail(self, rng):
        x = rng.standard_normal(7)
        v, tau, beta = householder_vector(x)
        hx = x - tau * v * np.dot(v, x)
        assert abs(hx[0] - beta) < 1e-12
        assert np.abs(hx[1:]).max() < 1e-12

    def test_norm_preserved(self, rng):
        x = rng.standard_normal(5)
        _, _, beta = householder_vector(x)
        assert abs(abs(beta) - np.linalg.norm(x)) < 1e-12

    def test_already_reduced_vector(self):
        v, tau, beta = householder_vector(np.array([3.0, 0.0, 0.0]))
        assert tau == 0.0 and beta == 3.0

    def test_sign_avoids_cancellation(self):
        _, _, beta = householder_vector(np.array([1.0, 1e-8]))
        assert beta < 0  # opposite sign of x[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            householder_vector(np.array([]))

    @given(st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_reflector_is_orthogonal(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        v, tau, _ = householder_vector(x)
        h = np.eye(n) - tau * np.outer(v, v)
        assert np.abs(h @ h.T - np.eye(n)).max() < 1e-12


class TestCompactWY:
    def test_factorization_identity(self, rng):
        a = rng.standard_normal((12, 5))
        u, t, r = compact_wy_qr(a)
        q = np.eye(12) - u @ t @ u.T
        assert np.abs(q.T @ q - np.eye(12)).max() < 1e-12
        assert np.abs((q.T @ a)[:5] - r).max() < 1e-11
        assert np.abs((q.T @ a)[5:]).max() < 1e-11

    def test_u_is_unit_lower_trapezoidal(self, rng):
        u, t, r = compact_wy_qr(rng.standard_normal((8, 4)))
        assert np.allclose(np.diag(u[:4, :4]), 1.0)
        assert np.abs(np.triu(u[:4, :4], 1)).max() == 0.0

    def test_t_is_upper_triangular(self, rng):
        u, t, r = compact_wy_qr(rng.standard_normal((8, 4)))
        assert np.abs(np.tril(t, -1)).max() == 0.0

    def test_wy_identity(self, rng):
        # UᵀU = T⁻¹ + T⁻ᵀ for a valid Householder representation.
        u, t, _ = compact_wy_qr(rng.standard_normal((10, 4)))
        tinv = np.linalg.inv(t)
        assert np.abs(u.T @ u - (tinv + tinv.T)).max() < 1e-10

    def test_rejects_wide(self, rng):
        with pytest.raises(ValueError):
            compact_wy_qr(rng.standard_normal((3, 5)))

    def test_square_input(self, rng):
        a = rng.standard_normal((6, 6))
        u, t, r = compact_wy_qr(a)
        q = np.eye(6) - u @ t @ u.T
        assert np.abs(q @ r - a).max() < 1e-11


class TestCompactWYGeneral:
    def test_wide_matrix(self, rng):
        a = rng.standard_normal((3, 8))
        u, t, r = compact_wy_qr_general(a)
        q = np.eye(3) - u @ t @ u.T
        assert np.abs(q.T @ a - r).max() < 1e-11
        assert np.abs(np.tril(r[:, :3], -1)).max() == 0.0

    def test_tall_agrees_with_compact_wy(self, rng):
        a = rng.standard_normal((9, 4))
        u1, t1, r1 = compact_wy_qr(a.copy())
        u2, t2, r2 = compact_wy_qr_general(a.copy())
        assert np.array_equal(r1, r2)
        assert np.array_equal(u1, u2)


def _rel(x, ref):
    return np.abs(x - ref).max() / max(1.0, np.abs(ref).max())


class TestCompactWYStacked:
    """The stacked kernel factors each block as compact_wy_qr does."""

    @pytest.mark.parametrize("shape", [(1, 6, 3), (7, 8, 4), (5, 6, 6), (32, 4, 2), (3, 16, 8), (4, 5, 1)])
    def test_matches_per_block_kernel(self, rng, shape):
        a = rng.standard_normal(shape)
        a[0, 0, 0] = -abs(a[0, 0, 0]) - 1.0  # a negative pivot: β > 0
        u, t, r = compact_wy_qr_stacked(a)
        m, k = shape[1:]
        for w in range(shape[0]):
            u1, t1, r1 = compact_wy_qr(a[w])
            assert _rel(u[w], u1) < 1e-13
            assert _rel(t[w], t1) < 1e-13
            assert _rel(r[w], r1) < 1e-13
            q = np.eye(m) - u[w] @ t[w] @ u[w].T
            resid = np.linalg.norm(a[w] - q[:, :k] @ r[w]) / np.linalg.norm(a[w])
            assert resid <= 1e-14 * m

    def test_sign_convention(self, rng):
        a = rng.standard_normal((2, 5, 2))
        a[0, 0, 0], a[1, 0, 0] = 3.0, -3.0
        _, t, r = compact_wy_qr_stacked(a)
        assert r[0, 0, 0] < 0 < r[1, 0, 0]  # β opposite to the pivot
        assert 1.0 <= t[0, 0, 0] <= 2.0 and 1.0 <= t[1, 0, 0] <= 2.0

    def test_reduced_column_takes_tau_zero_branch(self, rng):
        a = rng.standard_normal((3, 6, 3))
        a[1:, 1:, 0] = 0.0  # lanes 1, 2: first column already (x₀, 0, …, 0)
        a[2, 2:, 1] = 0.0  # lane 2: H₀ = I, so its second column is too
        u, t, r = compact_wy_qr_stacked(a)
        assert t[1, 0, 0] == 0.0 and r[1, 0, 0] == a[1, 0, 0]
        assert np.array_equal(u[1, :, 0], np.eye(6)[:, 0])
        assert t[2, 1, 1] == 0.0 and t[0, 1, 1] != 0.0
        for w in range(3):
            u1, t1, r1 = compact_wy_qr(a[w])
            assert _rel(u[w], u1) < 1e-13 and _rel(t[w], t1) < 1e-13 and _rel(r[w], r1) < 1e-13

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError, match="m >= k"):
            compact_wy_qr_stacked(rng.standard_normal((2, 3, 4)))
        with pytest.raises(ValueError, match="stack"):
            compact_wy_qr_stacked(rng.standard_normal((3, 4)))


class TestApplyAndExpand:
    def test_apply_left_matches_explicit(self, rng):
        a = rng.standard_normal((10, 4))
        u, t, _ = compact_wy_qr(a)
        q = np.eye(10) - u @ t @ u.T
        c = rng.standard_normal((10, 6))
        assert np.abs(apply_block_reflector_left(u, t, c) - q @ c).max() < 1e-11
        assert np.abs(apply_block_reflector_left(u, t, c, transpose=True) - q.T @ c).max() < 1e-11

    def test_apply_right_matches_explicit(self, rng):
        a = rng.standard_normal((10, 4))
        u, t, _ = compact_wy_qr(a)
        q = np.eye(10) - u @ t @ u.T
        c = rng.standard_normal((6, 10))
        assert np.abs(apply_block_reflector_right(u, t, c) - c @ q).max() < 1e-11

    def test_expand_thin_vs_full(self, rng):
        u, t, _ = compact_wy_qr(rng.standard_normal((8, 3)))
        qf = expand_q(u, t, full=True)
        qt = expand_q(u, t)
        assert qt.shape == (8, 3)
        assert np.abs(qf[:, :3] - qt).max() < 1e-12
