"""Eigenvalues of symmetric tridiagonal matrices, from scratch.

Two independent methods (each validates the other in tests):

* **Sturm-sequence bisection** — the inertia count ``ν(x)`` (#eigenvalues
  below x) from the sign changes of the Sturm sequence, then bisection for
  every eigenvalue.  Robust, embarrassingly parallel across eigenvalues,
  vectorized here across bisection intervals.
* **Implicit-shift QL** — the classic ``tql2``-style iteration with Wilkinson
  shifts; O(n²) for eigenvalues only.

The paper delegates this final step to "one processor computes its
eigenvalues" (its cost is O(γ·n³/p + β·n²/p + α) in context); we implement
it rather than calling LAPACK, per the from-scratch ground rules.
"""

from __future__ import annotations

import numpy as np


_EPS = np.finfo(np.float64).eps
_SAFMIN = np.finfo(np.float64).tiny


def _validate_tridiag(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = np.asarray(d, dtype=np.float64).ravel()
    e = np.asarray(e, dtype=np.float64).ravel()
    if d.size == 0:
        raise ValueError("empty tridiagonal matrix")
    if e.size != d.size - 1:
        raise ValueError(f"off-diagonal must have length n-1 = {d.size - 1}, got {e.size}")
    return d, e


def _validate_stacked(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """``(d, e)`` as a (J, n), (J, n−1) stack; 1-D input is the J = 1 stack.

    Returns the stack and whether the input was already stacked.
    """
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if d.ndim < 2:
        d, e = _validate_tridiag(d, e)
        return d[None], e[None], False
    if d.ndim != 2 or d.shape[1] == 0:
        raise ValueError(f"stacked diagonals must have shape (J, n) with n >= 1, got {d.shape}")
    if e.shape != (d.shape[0], d.shape[1] - 1):
        raise ValueError(
            f"stacked off-diagonals must have shape {(d.shape[0], d.shape[1] - 1)}, got {e.shape}"
        )
    return d, e, True


def _sturm_setup(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-call constants of the Sturm recurrence for a (J, n) stack.

    Returns step-major (n, J) arrays: the diagonal, the squared coupling
    ``e_{i−1}²`` (0 at i = 0), and the zero guard
    ``safmin + eps·(|d_i| + |e_{i−1}|)`` of step i (the LAPACK dstebz
    safeguard that keeps the division finite).
    """
    e_prev = np.zeros_like(d)
    e_prev[:, 1:] = e
    guard = _SAFMIN + _EPS * (np.abs(d) + np.abs(e_prev))
    return (np.ascontiguousarray(d.T), np.ascontiguousarray((e_prev * e_prev).T),
            np.ascontiguousarray(guard.T))


def _sturm_counts(dT: np.ndarray, e2T: np.ndarray, guardT: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """Eigenvalues below each shift: lane j of the stack against ``x[j]``.

    Runs the stationary Sturm recurrence ``q_i = (d_i − x) − e_{i−1}²/q_{i−1}``
    over the step-major constants of :func:`_sturm_setup`; the number of
    negative q_i is the inertia below x (Sylvester).  ``x`` is (J, m).
    """
    count = np.zeros(x.shape, dtype=np.int64)
    q = np.ones(x.shape)
    for d_i, e2_i, g_i in zip(dT[:, :, None], e2T[:, :, None], guardT[:, :, None]):
        q = (d_i - x) - e2_i / q
        tiny = np.abs(q) < g_i
        if tiny.any():
            q = np.where(tiny, -g_i, q)
        count += q < 0.0
    return count


def eigenvalue_count_below(d: np.ndarray, e: np.ndarray, x: np.ndarray | float) -> np.ndarray:
    """Count eigenvalues of tridiag(d, e) strictly below each shift in ``x``.

    Vectorized over shifts; always returns an array of ``x``'s shape (at
    least 1-D).  Shares its recurrence with the bisection.
    """
    d, e = _validate_tridiag(d, e)
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return _sturm_counts(*_sturm_setup(d[None], e[None]), xs.reshape(1, -1)).reshape(xs.shape)


def _gershgorin(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane Gershgorin bounds of a (J, n) stack, padded by 1e-12 of the
    lane's own scale (the zero matrix keeps the exact interval [0, 0])."""
    radius = np.zeros_like(d)
    radius[:, :-1] += np.abs(e)
    radius[:, 1:] += np.abs(e)
    lo = np.min(d - radius, axis=1)
    hi = np.max(d + radius, axis=1)
    pad = 1e-12 * np.maximum(np.abs(lo), np.abs(hi))
    return lo - pad, hi + pad


def gershgorin_interval(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """Return an interval guaranteed to contain all eigenvalues."""
    d, e = _validate_tridiag(d, e)
    lo, hi = _gershgorin(d[None], e[None])
    return float(lo[0]), float(hi[0])


def sturm_bisection_eigenvalues(
    d: np.ndarray, e: np.ndarray, tol: float = 0.0, max_iter: int = 128
) -> np.ndarray:
    """All eigenvalues of tridiag(d, e) by Sturm-sequence bisection.

    Bisects all n eigenvalue brackets simultaneously (vectorized over
    eigenvalue indices).  ``tol=0`` iterates until every bracket is within
    ``4·eps`` of the padded Gershgorin scale (floored at the smallest
    normal double, so the zero matrix terminates).

    Also takes a stack of J same-size problems, ``d`` of shape (J, n) and
    ``e`` of shape (J, n−1), and returns a (J, n) array.  Each lane stops
    once it meets its own convergence test, so every lane is bit-identical
    to a separate 1-D call; stacking only removes per-call overhead.
    """
    d, e, stacked = _validate_stacked(d, e)
    if d.shape[1] == 1:
        out = d.copy()
        return out if stacked else out[0]
    n = d.shape[1]
    lo, hi = _gershgorin(d, e)
    scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), _SAFMIN)
    stop = np.maximum(tol, 4.0 * _EPS * scale)
    target = np.arange(1, n + 1)  # eigenvalue k has ν(x) >= k for x above it
    out = np.empty(d.shape)
    live = np.arange(d.shape[0])  # lanes still bisecting
    dT, e2T, guardT = _sturm_setup(d, e)
    lower = np.repeat(lo[:, None], n, axis=1)
    upper = np.repeat(hi[:, None], n, axis=1)
    for _ in range(max_iter):
        if live.size == 0:
            break
        mid = 0.5 * (lower + upper)
        # If at least k eigenvalues are below mid, eigenvalue k-1 is below mid.
        below = _sturm_counts(dT, e2T, guardT, mid) >= target
        upper = np.where(below, mid, upper)
        lower = np.where(below, lower, mid)
        done = np.max(upper - lower, axis=1) <= stop
        if done.any():
            out[live[done]] = 0.5 * (lower[done] + upper[done])
            keep = ~done
            live, stop, lower, upper = live[keep], stop[keep], lower[keep], upper[keep]
            dT, e2T, guardT = dT[:, keep], e2T[:, keep], guardT[:, keep]
    out[live] = 0.5 * (lower + upper)
    return out if stacked else out[0]


def tridiagonal_eigenvalues_ql(
    d: np.ndarray, e: np.ndarray, max_sweeps: int = 64
) -> np.ndarray:
    """All eigenvalues via implicit-shift QL iteration (tql2, values only).

    Deflates converged off-diagonals and applies the Wilkinson shift through
    plane rotations.  Raises ``RuntimeError`` if an eigenvalue fails to
    converge in ``max_sweeps`` sweeps (does not happen for symmetric input).
    """
    d, e = _validate_tridiag(d, e)
    d = d.copy()
    n = d.size
    ee = np.zeros(n)
    ee[: n - 1] = e
    eps = np.finfo(np.float64).eps
    for l in range(n):
        for sweep in range(max_sweeps + 1):
            # Find the first small off-diagonal at or after l (deflation point).
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(ee[m]) <= eps * dd:
                    break
                m += 1
            if m == l:
                break
            if sweep == max_sweeps:
                raise RuntimeError(f"QL failed to converge for eigenvalue {l}")
            # Wilkinson shift from the leading 2x2.
            g = (d[l + 1] - d[l]) / (2.0 * ee[l])
            r = np.hypot(g, 1.0)
            g = d[m] - d[l] + ee[l] / (g + (r if g >= 0 else -r))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * ee[i]
                b = c * ee[i]
                r = np.hypot(f, g)
                ee[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    ee[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                ee[l] = g
                ee[m] = 0.0
                continue
            # Inner break (r == 0): retry the sweep.
            continue
    return np.sort(d)


def tridiagonal_from_dense(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extract (diagonal, subdiagonal) from a dense tridiagonal matrix."""
    return np.diag(t).copy(), np.diag(t, -1).copy()
