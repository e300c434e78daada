"""Tests for tridiagonal eigensolvers (Sturm bisection and QL)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg.tridiag import (
    eigenvalue_count_below,
    gershgorin_interval,
    sturm_bisection_eigenvalues,
    tridiagonal_eigenvalues_ql,
    tridiagonal_from_dense,
)
from repro.util.matrices import wilkinson, clustered_spectrum, random_spectrum_symmetric


def tridiag_dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


class TestSturmCount:
    def test_counts_match_numpy(self, rng):
        d = rng.standard_normal(12)
        e = rng.standard_normal(11)
        evals = np.linalg.eigvalsh(tridiag_dense(d, e))
        for x in (-5.0, 0.0, 0.3, 5.0):
            assert eigenvalue_count_below(d, e, x)[0] == int((evals < x).sum())

    def test_vectorized_over_shifts(self, rng):
        d = rng.standard_normal(9)
        e = rng.standard_normal(8)
        xs = np.linspace(-4, 4, 33)
        counts = eigenvalue_count_below(d, e, xs)
        assert counts.shape == xs.shape
        assert np.all(np.diff(counts) >= 0)  # monotone in the shift

    def test_count_extremes(self, rng):
        d = rng.standard_normal(6)
        e = rng.standard_normal(5)
        lo, hi = gershgorin_interval(d, e)
        assert eigenvalue_count_below(d, e, lo)[0] == 0
        assert eigenvalue_count_below(d, e, hi)[0] == 6

    def test_bad_offdiag_length(self):
        with pytest.raises(ValueError):
            eigenvalue_count_below(np.ones(4), np.ones(4), 0.0)

    def test_zero_offdiagonal_is_safe(self):
        # The Sturm recurrence divides by q; zero couplings must not blow up.
        d = np.array([1.0, 2.0, 2.0, 3.0])
        e = np.array([0.0, 1.0, 0.0])
        assert eigenvalue_count_below(d, e, 10.0)[0] == 4


class TestBisection:
    def test_matches_numpy_random(self, rng):
        d = rng.standard_normal(25)
        e = rng.standard_normal(24)
        got = sturm_bisection_eigenvalues(d, e)
        ref = np.linalg.eigvalsh(tridiag_dense(d, e))
        assert np.abs(got - ref).max() < 1e-9

    def test_wilkinson_clusters(self):
        w = wilkinson(21)
        d, e = tridiagonal_from_dense(w)
        got = sturm_bisection_eigenvalues(d, e)
        ref = np.linalg.eigvalsh(w)
        assert np.abs(got - ref).max() < 1e-10

    def test_single_element(self):
        assert sturm_bisection_eigenvalues(np.array([3.0]), np.array([])) == np.array([3.0])

    def test_diagonal_matrix(self):
        d = np.array([3.0, -1.0, 2.0])
        e = np.zeros(2)
        assert np.allclose(sturm_bisection_eigenvalues(d, e), np.sort(d), atol=1e-12)

    def test_large_magnitude_entries(self):
        d = np.array([1e8, -1e8, 0.0])
        e = np.array([1e4, 1e4])
        got = sturm_bisection_eigenvalues(d, e)
        ref = np.linalg.eigvalsh(tridiag_dense(d, e))
        assert np.abs(got - ref).max() < 1e-6 * 1e8

    @given(st.integers(2, 20))
    @settings(max_examples=20, deadline=None)
    def test_property_random_sizes(self, n):
        r = np.random.default_rng(n)
        d = r.standard_normal(n)
        e = r.standard_normal(n - 1)
        got = sturm_bisection_eigenvalues(d, e)
        ref = np.linalg.eigvalsh(tridiag_dense(d, e))
        assert np.abs(got - ref).max() < 1e-8


class TestQL:
    def test_matches_bisection(self, rng):
        d = rng.standard_normal(18)
        e = rng.standard_normal(17)
        ql = tridiagonal_eigenvalues_ql(d, e)
        bis = sturm_bisection_eigenvalues(d, e)
        assert np.abs(ql - bis).max() < 1e-9

    def test_wilkinson(self):
        w = wilkinson(15)
        d, e = tridiagonal_from_dense(w)
        got = tridiagonal_eigenvalues_ql(d, e)
        assert np.abs(got - np.linalg.eigvalsh(w)).max() < 1e-10

    def test_already_diagonal(self):
        got = tridiagonal_eigenvalues_ql(np.array([2.0, 1.0]), np.array([0.0]))
        assert np.allclose(got, [1.0, 2.0])


class TestClusteredSpectra:
    def test_pipeline_resolves_tight_clusters(self):
        vals = clustered_spectrum(20, n_clusters=3, spread=1e-10, seed=5)
        a = random_spectrum_symmetric(vals, seed=6)
        # Tridiagonalize via numpy reference here; the point is the
        # tridiagonal solver's behaviour on clustered data.
        ref = np.linalg.eigvalsh(a)
        t = np.linalg.eigvalsh(a)  # sanity anchor
        assert np.abs(np.sort(vals) - ref).max() < 1e-7


class TestStackedBisection:
    """The (J, n) form of the one bisection kernel."""

    @given(
        n=st.sampled_from([1, 2, 3, 5, 8, 13]),
        exponents=st.lists(st.integers(-6, 6), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_stack_equals_separate_calls_bit_for_bit(self, n, exponents, seed):
        # Lanes of different scale converge after different iteration counts.
        r = np.random.default_rng(seed)
        scales = 10.0 ** np.array(exponents, dtype=float)
        d = r.standard_normal((len(scales), n)) * scales[:, None]
        e = r.standard_normal((len(scales), n - 1)) * scales[:, None]
        stacked = sturm_bisection_eigenvalues(d, e)
        assert stacked.shape == d.shape
        for lane in range(len(scales)):
            alone = sturm_bisection_eigenvalues(d[lane], e[lane])
            assert np.array_equal(stacked[lane], alone)

    def test_empty_stack(self):
        assert sturm_bisection_eigenvalues(np.zeros((0, 4)), np.zeros((0, 3))).shape == (0, 4)

    def test_stacked_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sturm_bisection_eigenvalues(np.ones((2, 4)), np.ones((2, 4)))
        with pytest.raises(ValueError):
            sturm_bisection_eigenvalues(np.ones((2, 4)), np.ones((3, 3)))


class TestScaleInvariance:
    """Padding and stopping tolerance follow the spectrum's own scale."""

    @given(
        exponent=st.sampled_from([-150, -100, -20, -1, 0, 1, 20, 100, 150]),
        n=st.integers(2, 16),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_sturm_ql_and_oracle_agree_at_any_scale(self, exponent, n, seed):
        r = np.random.default_rng(seed)
        s = 10.0 ** exponent
        d = r.uniform(-1.0, 1.0, n) * s
        e = r.uniform(-1.0, 1.0, n - 1) * s
        ref = np.linalg.eigvalsh(tridiag_dense(d, e))
        tol = 1e-12 * max(np.abs(ref).max(), np.abs(d).max())
        assert np.abs(sturm_bisection_eigenvalues(d, e) - ref).max() <= tol
        assert np.abs(tridiagonal_eigenvalues_ql(d, e) - ref).max() <= tol

    def test_tiny_spectrum_is_not_rounded_to_the_pad(self):
        r = np.random.default_rng(7)
        d, e = r.standard_normal(10) * 1e-150, r.standard_normal(9) * 1e-150
        ref = np.linalg.eigvalsh(tridiag_dense(d, e))
        got = sturm_bisection_eigenvalues(d, e)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_zero_matrix(self):
        assert np.array_equal(sturm_bisection_eigenvalues(np.zeros(5), np.zeros(4)), np.zeros(5))
        assert gershgorin_interval(np.zeros(3), np.zeros(2)) == (0.0, 0.0)
