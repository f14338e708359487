import numpy as np
import pytest
import scipy.linalg

from quivergauge.gww import bessel_i
from quivergauge.toeplitz import levinson


def positive_symbol_rows(rng, rows: int, n: int) -> np.ndarray:
    """First rows of positive-definite Toeplitz matrices: the Fourier
    coefficients (c_0, ..., c_{n-1}) of the trigonometric polynomial
    c_0 + 2 sum_q c_q cos(q t), positive because c_0 > 2 sum |c_q|."""
    c = rng.uniform(-1, 1, size=(rows, n - 1))
    c0 = 2 * np.abs(c).sum(axis=-1) + rng.uniform(0.01, 1, size=rows)
    return np.concatenate([c0[:, None], c], axis=-1)


def bessel_rows(n: int) -> np.ndarray:
    """(I_0, ..., I_{n-1})(z), the exact-curve rows, at a few couplings."""
    z = np.array([-6.0, -1.3, 0.0, 0.7, 4.0])
    return np.stack([bessel_i(q, z) for q in range(n)], axis=-1)


def check_rows(r: np.ndarray, rtol: float) -> None:
    E, a = levinson(r)
    assert E.shape == a.shape == r.shape
    n = r.shape[-1]
    for row, e, pred in zip(r, E, a):
        t = scipy.linalg.toeplitz(row)
        # Yule-Walker: the order-(n-1) predictor solves T_{n-1} a = (r_1, ..., r_{n-1})
        np.testing.assert_allclose(pred[:-1], np.linalg.solve(t[:-1, :-1], row[1:]), rtol=rtol, atol=1e-12)
        assert pred[-1] == 0
        dets = [np.linalg.det(t[:k, :k]) for k in range(1, n + 1)]
        np.testing.assert_allclose(np.cumprod(e), dets, rtol=rtol)


class TestLevinson:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 11])
    def test_positive_symbol_rows(self, n):
        rng = np.random.default_rng(2500 + n)
        check_rows(positive_symbol_rows(rng, 8, n), rtol=1e-10)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_bessel_rows(self, n):
        check_rows(bessel_rows(n), rtol=1e-9)

