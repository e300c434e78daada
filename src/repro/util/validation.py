"""Argument validation helpers and cost-free verification oracles.

All public entry points of the library validate their inputs through these
functions so error messages are uniform and tests can assert on them.

This module is the single allowlisted entry point for *reference* numerics
(``repro lint`` exempts it): verification against numpy oracles must go
through :func:`reference_eigenvalues` rather than calling
``np.linalg.eigvalsh`` inline, so the static analyzer can tell checking
from under-counted computing.
"""

from __future__ import annotations

import numpy as np


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer; return it as ``int``."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_power_of_two(value: int, name: str) -> int:
    """Validate that ``value`` is a positive power of two."""
    value = check_positive_int(value, name)
    if value & (value - 1):
        raise ValueError(f"{name} must be a power of two, got {value}")
    return value


def check_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is a 2-D square ndarray of floats."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square 2-D, got shape {a.shape}")
    return a


def frobenius_norm(a: np.ndarray) -> float:
    """‖A‖_F as a cost-free host-side oracle.

    Used for relative tolerances here and by the fault layer's
    norm-preservation guards (every pipeline stage is an orthogonal
    similarity, which preserves the Frobenius norm); algorithms that
    *compute* with norms must charge through the machine instead.
    """
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))


class NonFiniteInputError(ValueError):
    """A matrix holds NaN or Inf entries, so it has no meaningful spectrum."""


def check_symmetric(a: np.ndarray, name: str = "matrix", tol: float = 1e-10) -> np.ndarray:
    """Validate that ``a`` is finite and symmetric to within ``tol``, relative
    to ``max(1, ‖A‖_F)`` so well-conditioned but badly scaled inputs
    (entries of order 1e6, say) are judged by their own magnitude.

    A NaN or Inf entry raises :class:`NonFiniteInputError` (NaN compares
    false, so the symmetry test alone would let it through)."""
    a = check_square(a, name)
    if not np.isfinite(a).all():
        raise NonFiniteInputError(f"{name} has non-finite (NaN or Inf) entries")
    scale = max(1.0, frobenius_norm(a))
    if np.abs(a - a.T).max(initial=0.0) > tol * scale:
        raise ValueError(f"{name} is not symmetric to tolerance {tol}")
    return a


def check_banded(a: np.ndarray, bandwidth: int, name: str = "matrix", tol: float = 1e-12) -> np.ndarray:
    """Validate that ``a`` has (half) band-width <= ``bandwidth``.

    Band-width ``b`` means ``a[i, j] == 0`` whenever ``|i - j| > b``, the
    convention used throughout the paper.  The tolerance is relative to
    ``max(1, ‖A‖_F)``, as in :func:`check_symmetric`.
    """
    a = check_square(a, name)
    n = a.shape[0]
    scale = max(1.0, frobenius_norm(a))
    i, j = np.indices((n, n))
    outside = np.abs(i - j) > bandwidth
    if outside.any() and np.abs(a[outside]).max(initial=0.0) > tol * scale:
        raise ValueError(f"{name} has nonzeros outside band-width {bandwidth}")
    return a


def reference_eigenvalues(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Ground-truth ascending spectrum of a symmetric matrix (cost-free).

    Verification-only oracle: it runs on the *host*, charges no simulated
    machine, and must never feed results back into a charged algorithm.
    """
    return np.linalg.eigvalsh(check_symmetric(a, name))


def reference_spectrum_error(a: np.ndarray, eigenvalues: np.ndarray, name: str = "matrix") -> float:
    """``max |λ − λ_numpy|`` of a computed ascending spectrum (cost-free)."""
    ref = reference_eigenvalues(a, name)
    computed = np.asarray(eigenvalues, dtype=np.float64).ravel()
    if computed.shape != ref.shape:
        raise ValueError(f"expected {ref.shape[0]} eigenvalues, got {computed.shape[0]}")
    return float(np.abs(computed - ref).max())


def matrix_bandwidth(a: np.ndarray, tol: float = 1e-12) -> int:
    """Return the smallest b such that ``a[i,j]=0`` for ``|i-j|>b`` (within tol)."""
    a = check_square(a, "matrix")
    n = a.shape[0]
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    for b in range(n - 1, 0, -1):
        # largest offset diagonal with a significant entry
        if max(np.abs(np.diag(a, b)).max(initial=0.0), np.abs(np.diag(a, -b)).max(initial=0.0)) > tol * scale:
            return b
    return 0
