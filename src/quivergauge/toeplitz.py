"""Symmetric Toeplitz matrices: Levinson-Durbin recursion and leading minors.

One kernel serves the moment bootstrap, whose minors of Toeplitz moment
matrices decide positivity, and the exact one-matrix curve, whose
partition function is a Toeplitz determinant of Bessel functions.
"""

from __future__ import annotations

import numpy as np


def _toeplitz(r: np.ndarray, order: int) -> np.ndarray:
    """Batched Toeplitz assembly: first rows (..., order) -> matrices (..., order, order)."""
    idx = np.arange(order)
    return r[..., np.abs(idx[:, None] - idx[None, :])]


def levinson(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levinson-Durbin prediction errors and predictor of symmetric Toeplitz matrices.

    ``r`` holds first rows, shape (..., n), in any float dtype; the
    recursion runs in that dtype.  Returns ``E`` of the same shape with
    ``det T_k = E_0 E_1 ... E_{k-1}`` for the k x k leading block, so the
    leading minors are running products of ``E`` and the reflection
    coefficients are ``kappa_k = acc_k / E_{k-1}`` (Szego-Verblunsky), and
    ``a`` of the same shape, whose first n - 1 entries are the order-(n-1)
    predictor: the solution of ``T_{n-1} a = (r_1, ..., r_{n-1})``
    (Yule-Walker); its last entry is 0.

    The recursion is stable on positive-definite matrices (Cybenko 1980).
    On indefinite ones a small ``E_j`` costs digits in the later entries,
    and an exactly zero one (a singular leading block) leaves them
    non-finite; :func:`leading_minors` shows one repair.
    """
    n = r.shape[-1]
    E = np.empty_like(r)
    E[..., 0] = r[..., 0]
    a = np.zeros_like(r)  # a[..., i] is predictor coefficient a_{i+1}
    for k in range(1, n):
        ak, rev = a[..., : k - 1], r[..., k - 1 : 0 : -1]  # rev[i - 1] = r_{k-i}
        acc = r[..., k] - (ak * rev).sum(axis=-1)
        kappa = acc / E[..., k - 1]
        a[..., : k - 1] = ak - kappa[..., None] * ak[..., ::-1]
        a[..., k - 1] = kappa
        E[..., k] = E[..., k - 1] - kappa * acc
    return E, a


# On an indefinite matrix, a prediction error that drops below this fraction
# of the one before it (a nearly singular leading block) makes the later
# Levinson steps lose digits; an exactly singular block breaks them down.
# Against exact rational minors of triangle moment matrices of orders 6 and 9,
# later minors stayed within 5e-11 relative of exact (or of the dense
# determinant's own error) above this fraction, and lost up to 5e-9 at 1e-3.
_PIVOT_DROP = 1e-2


def leading_minors(mvals: np.ndarray, max_order: int) -> np.ndarray:
    """det M_1 .. det M_n for Toeplitz matrices built from m-values.

    ``mvals`` has shape (..., max_order); the result has shape
    (..., max_order).  Minors are running products of the float64
    Levinson prediction errors.  Matrices whose recursion passes a nearly
    or exactly singular leading block fall back to a dense pivoted
    determinant per leading block; that is judged over the ``max_order``
    orders given, in :func:`quivergauge.bootstrap.scan_region` over the
    deciding stage's orders.
    Minor k is not finite when one of m_0 .. m_{k-1} is not: the recursion
    carries a non-finite value on by itself, and the fallback, whose
    determinant need not show it, sets such minors to NaN.
    """
    r = np.asarray(mvals, dtype=float)[..., :max_order]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        E = levinson(r)[0]  # the predictor is not kept alive through the minors
        minors = np.cumprod(E, axis=-1)
        piv = np.abs(E[..., :-1])  # the last error feeds no later minor
        # comparisons written so that NaN errors count as unsteady too
        steady = (piv[..., :1] > 0).all(axis=-1) & (
            piv[..., 1:] > _PIVOT_DROP * piv[..., :-1]
        ).all(axis=-1)
        if not steady.all():
            rows = r[~steady]
            mats = _toeplitz(rows, max_order)
            dense = np.stack(
                [np.linalg.det(mats[:, :k, :k]) for k in range(1, max_order + 1)], axis=-1
            )
            dense[np.logical_or.accumulate(~np.isfinite(rows), axis=-1)] = np.nan
            minors[~steady] = dense
    return minors
