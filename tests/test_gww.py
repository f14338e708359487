import csv
import warnings
from decimal import Decimal, getcontext, localcontext

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from quivergauge.gww import (
    WINDOW,
    bessel_i,
    curve_grid,
    first_moment_curve,
    partition_function,
)


def _decimal_bessel(q: int, z: Decimal) -> Decimal:
    half = z / 2
    term = Decimal(1)
    for j in range(1, q + 1):
        term = term * half / j
    total, k = term, 0
    while term and abs(term) > Decimal(10) ** -(getcontext().prec + 10) * abs(total):
        k += 1
        term = term * half * half / (k * (k + q))
        total += term
    return total


def _decimal_det(m: list[list[Decimal]]) -> Decimal:
    """Gaussian elimination with partial pivoting."""
    m = [row[:] for row in m]
    n, det = len(m), Decimal(1)
    for c in range(n):
        p = max(range(c, n), key=lambda i: abs(m[i][c]))
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            for j in range(c, n):
                m[i][j] -= f * m[c][j]
    return det


def _decimal_partition(n: int, x: Decimal) -> Decimal:
    vals = [_decimal_bessel(q, -2 * x * n) for q in range(n)]
    return _decimal_det([[vals[abs(i - j)] for j in range(n)] for i in range(n)])


def decimal_oracle(n: int, x: float, prec: int = 50) -> tuple[float, float]:
    """Z_n(x) and y_n(x) at ``prec`` digits: series, elimination, central difference."""
    with localcontext() as ctx:
        ctx.prec = prec
        xd, h = Decimal(x), Decimal("1e-20")
        z = _decimal_partition(n, xd)
        dz = (_decimal_partition(n, xd + h) - _decimal_partition(n, xd - h)) / (2 * h)
        return float(z), float(-dz / z / (2 * n * n))


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(3, 0.0) == 0.0

    def test_reference_value(self):
        # frozen from a 60-term exact-rational series evaluation
        assert bessel_i(1, 2.0) == pytest.approx(1.590636854637329, abs=1e-9)

    @given(st.floats(min_value=-40, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_order_symmetry(self, z):
        assert bessel_i(-3, z) == bessel_i(3, z)

    @pytest.mark.parametrize("q", [0, 1, 2, 5, 9])
    @pytest.mark.parametrize("z", [-48.0, -7.5, -0.3, 0.9, 12.0, 50.0])
    def test_against_scipy(self, q, z):
        assert bessel_i(q, z) == pytest.approx(float(scipy.special.iv(q, z)), rel=1e-12)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            bessel_i(0, 701.0)


class TestPartitionFunction:
    def test_unit_at_zero_coupling(self):
        for n in range(1, 9):
            assert partition_function(n, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_single_site_is_bessel(self):
        for x in (-1.7, 0.4, 2.0):
            assert partition_function(1, x) == pytest.approx(bessel_i(0, 2 * x), rel=1e-12)

    def test_single_site_against_quadrature(self):
        for x in np.linspace(-2, 2, 9):
            val, _ = scipy.integrate.quad(
                lambda t: np.exp(-2 * x * np.cos(t)) / (2 * np.pi), 0, 2 * np.pi
            )
            assert partition_function(1, x) == pytest.approx(val, rel=1e-8)

    @given(st.floats(min_value=-2.5, max_value=2.5), st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_even_in_coupling(self, x, n):
        zp = partition_function(n, x)
        zm = partition_function(n, -x)
        assert zm == pytest.approx(zp, rel=1e-10)

    def test_overflow_is_inf_without_warnings(self):
        # the curve's guarded pass at one coupling: Z overflows a float at
        # N = 60, x = 3 and is inf, as the curve's z is, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert partition_function(60, 3.0) == np.inf
            assert first_moment_curve(60, [3.0]).z[0] == np.inf


class TestFirstMomentCurve:
    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_coupling_must_be_finite(self, x):
        # a NaN x raised "cannot convert float NaN to integer" from the Bessel series
        with pytest.raises(ValueError, match="coupling x must be finite"):
            first_moment_curve(3, np.array([0.5, x]))
        with pytest.raises(ValueError, match="coupling x must be finite"):
            partition_function(3, x)

    def test_vanishes_at_zero(self):
        for n in range(1, 7):
            curve = first_moment_curve(n, np.array([0.0]))
            assert curve.y[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_site_closed_form(self):
        xs = np.linspace(-2, 2, 11)
        curve = first_moment_curve(1, xs)
        expected = -np.array([bessel_i(1, 2 * x) for x in xs]) / np.array(
            [bessel_i(0, 2 * x) for x in xs]
        )
        assert np.allclose(curve.y, expected, atol=1e-10)

    def test_odd_in_coupling(self):
        xs = curve_grid(**WINDOW)
        for n in range(1, 7):
            curve = first_moment_curve(n, xs)
            assert np.isfinite(curve.y).all()
            assert np.abs(curve.y + curve.y[::-1]).max() < 1e-9

    @pytest.mark.parametrize(
        "n, y_tol", [(3, 1e-12), (4, 1e-12), (5, 1e-11), (6, 1e-9), (7, 1e-9), (8, 1e-6)]
    )
    def test_matches_decimal_oracle(self, n, y_tol):
        # the Toeplitz matrices reach condition 1e12 at N = 8, |x| = 3
        xs = np.linspace(-3, 3, 25)
        curve = first_moment_curve(n, xs)
        for x, z, y in zip(xs.tolist(), curve.z, curve.y):
            z_ref, y_ref = decimal_oracle(n, x)
            assert y == pytest.approx(y_ref, rel=0, abs=y_tol), x
            assert z == pytest.approx(z_ref, rel=1e-5), x
        assert curve.flags == [""] * len(xs)

    @pytest.mark.parametrize("x", [-2.95, 2.95])
    def test_decimal_oracle_agrees_with_itself_at_n11(self, x):
        y60, y90 = decimal_oracle(11, x, 60)[1], decimal_oracle(11, x, 90)[1]
        assert y60 == pytest.approx(y90, rel=0, abs=1e-13)

    # the longdouble Levinson pass is off by 5.9e-3 here and flags nothing
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="unflagged exact-curve points at N = 11 miss the oracle")
    @pytest.mark.parametrize("x", [-2.95, 2.95])
    def test_matches_decimal_oracle_at_n11(self, x):
        curve = first_moment_curve(11, np.array([x]))
        assert curve.flags == [""]
        assert curve.y[0] == pytest.approx(decimal_oracle(11, x, 90)[1], rel=0, abs=1e-9)

    @pytest.mark.parametrize("n", [12, 16, 24, 32])
    def test_unflagged_points_are_normalised_traces(self, n):
        curve = first_moment_curve(n, curve_grid(**WINDOW))
        kept = np.array([not f for f in curve.flags])
        assert (np.abs(curve.y[kept]) <= 1).all()
        assert np.isnan(curve.y[~kept]).all()

    def test_lost_digits_are_flagged(self):
        # the longdouble pass gives y = 1.437 here, from a prediction error
        # E_k <= 0 of a matrix that is positive definite; the exact value is 0.90839
        curve = first_moment_curve(12, np.array([-2.73]))
        assert curve.flags == ["near-singular"]
        assert np.isnan(curve.y[0]) and curve.z[0] > 0

    def test_overflow_is_flagged_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = first_moment_curve(13, curve_grid(**WINDOW))
        overflowed = ~np.isfinite(curve.z)
        assert overflowed.any()
        assert all(f == "near-singular" for f, o in zip(curve.flags, overflowed) if o)

    def test_csv(self, tmp_path):
        curve = first_moment_curve(2, np.array([0.0, 0.5]))
        out = tmp_path / "c.csv"
        curve.to_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "x,Z,y"
        assert len(lines) == 3

    def test_csv_matches_per_row_writer(self, tmp_path):
        # the N = 13 window has overflowed Z (inf) and flagged y (nan) rows
        curve = first_moment_curve(13, curve_grid(**WINDOW))
        assert np.isinf(curve.z).any() and np.isnan(curve.y).any()
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "Z", "y"])
            for xi, zi, yi in zip(curve.x, curve.z, curve.y):
                writer.writerow([repr(float(xi)), repr(float(zi)), repr(float(yi))])
        out = tmp_path / "c.csv"
        curve.to_csv(str(out))
        assert out.read_bytes() == ref.read_bytes()

    def test_degenerate_grid(self):
        assert list(curve_grid(0.0, 0.0, 3)) == [0.0]
