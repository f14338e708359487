import csv
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quivergauge import bootstrap
from quivergauge.bootstrap import (
    default_grid,
    dump_moment_table,
    feasible,
    leading_minors,
    moment,
    scan_region,
)
from quivergauge.laurent import YXPoly

from oracles import gww_large_n, moment_matrix, scan_first_failing


def poly(terms: dict) -> YXPoly:
    return YXPoly(tuple((a, b, c) for (a, b), c in sorted(terms.items())))


# exact closed forms for m_1 .. m_6 of the triangle recursion
MOMENT_TABLE = {
    1: {(1, 0): 1},
    2: {(1, 1): 1, (0, 0): 1},
    3: {(1, 0): 1, (2, 1): 1, (0, 1): 1, (1, 2): 1},
    4: {(1, 1): 4, (2, 2): 3, (0, 2): 1, (1, 3): 1, (0, 0): 1},
    5: {(1, 0): 1, (2, 1): 3, (3, 2): 2, (0, 1): 3, (1, 2): 9, (2, 3): 6, (0, 3): 1, (1, 4): 1},
    6: {(1, 1): 9, (2, 2): 18, (3, 3): 10, (0, 2): 6, (1, 3): 16, (2, 4): 10, (0, 4): 1, (1, 5): 1, (0, 0): 1},
}


class TestMoments:
    def test_normalisation(self):
        assert moment(0) == YXPoly.one()
        assert moment(1) == YXPoly.y()

    def test_scaling_by_zero(self):
        # no term keeps a zero coefficient
        assert moment(4) * 0 == 0 * moment(4) == YXPoly.zero()

    def test_divides_only_by_x(self):
        # the recursion's one divisor; any other, even a polynomial by itself, is refused
        assert YXPoly.y() * YXPoly.x() / YXPoly.x() == YXPoly.y()
        for other in (YXPoly.y(), YXPoly.one(), YXPoly.x() * YXPoly.x()):
            with pytest.raises(ValueError, match="divides only by x"):
                YXPoly.y() / other

    @pytest.mark.parametrize("n", sorted(MOMENT_TABLE))
    def test_exact_closed_forms(self, n):
        assert moment(n) == poly(MOMENT_TABLE[n])

    @pytest.mark.parametrize(
        "x, y",
        [(0.5, 0.25), (np.array([[0.5], [-2.0]]), np.array([0.25, -3.0]))],
        ids=["float", "array"],
    )
    def test_negative_b_term_multiplies_by_x(self, x, y):
        # a term with b < 0 is c * y**a * x**|b|, and |b| falls twice in term
        # order (1 to 0, 2 to 1); these values are exact in binary
        p = poly({(0, -1): -1, (1, 0): 5, (1, 1): 2, (2, -2): 3, (3, 1): 7})
        expected = -x + 5 * y + 2 * y / x + 3 * y * y * x * x + 7 * y * y * y / x
        np.testing.assert_array_equal(p.evaluate(x, y), expected)

    def test_negative_index_reality(self):
        assert moment(-4) == moment(4)

    def test_recursion_consistency(self):
        # m_{n+1} - m_{n-1} = (1/x) sum_l m_l m_{n-l}, through every moment
        # an order-15 scan reads
        for n in range(1, 15):
            s = YXPoly.zero()
            for l in range(n):
                s = s + moment(l) * moment(n - l)
            assert moment(n + 1) - moment(n - 1) == s / YXPoly.x()

    @pytest.mark.parametrize(
        "x, y", [(1.0, -0.75), (2.0, -0.875), (-0.3, 0.3), (0.3, -0.3)],
        ids=["gapped_1", "gapped_2", "ungapped_neg", "ungapped_pos"],
    )
    def test_float_moments_match_exact_ones(self, x, y):
        # m_0 .. m_30 at the float point, against Fractions; the bound is
        # 1e-12, and the float fold meets it with no error at all, where the
        # expanded polynomials are off by 5.8e-5 at x = 1 and 3.3e3 at x = -0.3
        exact = exact_moments(Fraction(x), Fraction(y), 31)
        for k, (got, want) in enumerate(zip(float_moments(x, y, 31), exact)):
            assert abs(Fraction(float(got)) - want) <= Fraction(1, 10**12), k

    def test_dump_table_shape(self):
        table = dump_moment_table(bootstrap._TRIANGLE, 3)
        assert [row["n"] for row in table] == [0, 1, 2, 3]
        assert table[2]["terms"] == [{"c": 1, "a": 0, "b": 0}, {"c": 1, "a": 1, "b": 1}]
        # the table folds its own copy of the moments, which are moment()'s
        for n_max in (0, 1, 12):
            assert [row["terms"] for row in dump_moment_table(bootstrap._TRIANGLE, n_max)] == [
                [{"c": c, "a": a, "b": b} for a, b, c in moment(n).terms] for n in range(n_max + 1)
            ]


def exact_moments(x: Fraction, y: Fraction, order: int) -> list[Fraction]:
    """m_0 .. m_{order-1}, order >= 2, of the triangle in Fractions, by its recursion
    m_{n+1} = m_{n-1} + (1/x) sum_{l<n} m_l m_{n-l}."""
    m = [Fraction(1), y]
    for n in range(1, order - 1):
        m.append(m[n - 1] + sum(m[l] * m[n - l] for l in range(n)) / x)
    return m


def float_moments(x, y, order: int) -> np.ndarray:
    """m_0 .. m_{order-1}, order >= 2, from the scan's float fold at the couplings
    x, y: two floats, or two equal-length vectors laid out as a scan slice."""
    mvals = np.empty(np.shape(x) + (order,))
    m = mvals.T
    m[0], m[1] = 1.0, y
    bootstrap._fold(m, x, map(bootstrap._TRIANGLE, range(1, order - 1)))
    return mvals


class TestMomentMatrix:
    def test_order_two(self):
        m = moment_matrix(2, 0.7, 0.3)
        assert np.allclose(m, [[1.0, 0.3], [0.3, 1.0]])

    def test_order_three_at_unit_coupling(self):
        # m2(1, 0) = 1 and m3(1, 0) = 1 by direct substitution
        m = moment_matrix(3, 1.0, 0.0)
        assert np.allclose(m, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])

    def test_order_one(self):
        assert np.allclose(moment_matrix(1, -2.3, 0.9), [[1.0]])

    def test_singular_at_zero_coupling(self):
        with pytest.raises(ValueError, match="singular"):
            moment_matrix(3, 0.0, 0.5)

    @given(
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=-1.5, max_value=1.5),
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric_unit_diagonal(self, x, y, order):
        m = moment_matrix(order, x, y)
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 1.0)


def cofactor_det(a: np.ndarray) -> float:
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


class TestFeasibility:
    def test_known_infeasible_point(self):
        # m4(2, 0) = 5/4 > 1 forces a sign change among the first 5 minors
        ok, first = feasible(2.0, 0.0, 5)
        assert not ok and first is not None and first <= 5
        assert moment(4).evaluate(2.0, 0.0) == pytest.approx(1.25)

    def test_stripe_boundary(self):
        ok, first = feasible(0.5, 1.5, 2)
        assert not ok and first == 2
        ok, first = feasible(50.0, 0.0, 2)
        assert ok and first is None

    def test_rejects_zero_coupling(self):
        with pytest.raises(ValueError, match="singular"):
            feasible(0.0, 0.1, 3)

    @pytest.mark.parametrize("order", [7.0, 7.5, True, "7"])
    def test_non_integer_order_is_a_domain_error(self, order):
        with pytest.raises(ValueError, match="max_order must be an integer"):
            scan_region(np.array([-0.3]), np.array([0.3]), order)
        with pytest.raises(ValueError, match="max_order must be an integer"):
            feasible(-0.3, 0.3, order)

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_tol_must_be_finite_and_not_negative(self, tol):
        # a NaN tol passes every minor, since no minor compares below NaN
        with pytest.raises(ValueError, match="tol must be >= 0 and finite"):
            scan_region(np.array([1.0]), np.array([0.9]), 7, tol=tol)
        with pytest.raises(ValueError, match="tol must be >= 0 and finite"):
            feasible(1.0, 0.9, 7, tol=tol)

    @pytest.mark.parametrize(
        "x, y", [(np.inf, 0.1), (np.nan, 0.1), (-np.inf, 0.1), (1.0, np.nan), (1.0, np.inf)]
    )
    def test_couplings_must_be_finite(self, x, y):
        # feasible(inf, 0.1, 7) read feasible and feasible(nan, 0.1, 7) failing at order 3
        with pytest.raises(ValueError, match="couplings x and y must be finite"):
            feasible(x, y, 7)
        with pytest.raises(ValueError, match="couplings x and y must be finite"):
            scan_region(np.array([-1.0, x]), np.array([y, 0.5]), 7)

    def test_numpy_integer_order_is_an_integer(self):
        fmap = scan_region(np.array([-0.3]), np.array([0.3]), np.int32(7))
        assert fmap.max_feasible.dtype == np.int64
        first = int(fmap.first_failing[0, 0])
        assert feasible(-0.3, 0.3, np.int64(7)) == (first == 0, first or None)

    @given(
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=-1.1, max_value=1.1),
    )
    @settings(max_examples=60, deadline=None)
    def test_nested_feasibility(self, x, y):
        mvals = np.array([moment(k).evaluate(x, y) for k in range(7)])
        minors = leading_minors(mvals, 7)
        feasible_at = [bool((minors[:n] >= -1e-10).all()) for n in range(1, 8)]
        for n in range(1, 7):
            if feasible_at[n]:
                assert feasible_at[n - 1]

    @given(
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=-1.1, max_value=1.1),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    # exactly singular leading blocks, where the Levinson recursion breaks
    # down; at (0.3, 1.0) the fifth minor is exactly 0, so order 5 would only
    # compare the rounding noise of two determinants
    @example(1.0, 0.0, 6)
    @example(0.3, 1.0, 4)
    @example(2.0, -1.0, 6)
    def test_minors_match_cofactor_oracle(self, x, y, order):
        mvals = np.array([moment(k).evaluate(x, y) for k in range(order)])
        minors = leading_minors(mvals, order)
        mat = moment_matrix(order, x, y)
        for k in range(1, order + 1):
            oracle = cofactor_det(mat[:k, :k])
            assert minors[k - 1] == pytest.approx(oracle, rel=1e-9, abs=1e-12)


class TestLargeNSolution:
    """Verdicts on the exact large-N first moment, which every order must admit."""

    @pytest.mark.parametrize("x", [0.05, -0.05, 0.2, -0.2, 0.4, -0.4, 1.0, -1.0, 2.0, -2.0])
    def test_feasible_through_order_15(self, x):
        assert feasible(x, gww_large_n(x), 15) == (True, None)

    # the expanded polynomials lost digits here and ruled the exact answer
    # out at orders 16, 24 and 29; |x| > 1/2 is left out, where the absolute
    # tol hides the sign of minors that shrink geometrically
    @pytest.mark.parametrize("x", [0.05, -0.05, 0.2, -0.2, 0.4, -0.4])
    def test_feasible_through_order_30(self, x):
        assert feasible(x, gww_large_n(x), 30) == (True, None)


@pytest.fixture(scope="module")
def small_map():
    xs = np.linspace(-3, 3, 40)
    ys = np.linspace(-1.2, 1.2, 41)
    return scan_region(xs, ys, 6)


class TestScanRegion:
    def test_order2_is_the_stripe(self, small_map):
        stripe = np.abs(small_map.ys)[None, :] <= 1.0
        got = small_map.max_feasible >= 2
        assert (got == np.broadcast_to(stripe, got.shape)).all()

    def test_monotone_cell_counts(self, small_map):
        counts = [small_map.feasible_cell_count(k) for k in range(1, 7)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_zero_coupling_column_undefined(self):
        xs = np.array([-1.0, 0.0, 1.0])
        ys = np.array([-0.5, 0.5])
        fmap = scan_region(xs, ys, 3)
        assert (fmap.max_feasible[1] == -1).all()
        assert not (fmap.max_feasible[[0, 2]] == -1).any()
        assert (fmap.first_failing[1] == 0).all()

    def test_csv_output(self, small_map, tmp_path):
        out = tmp_path / "scan.csv"
        small_map.to_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,max_feasible_order,first_failing_order"
        assert len(lines) == 1 + 40 * 41

    @pytest.mark.parametrize(
        "xs, ys, order",
        [
            (np.linspace(-2, 2, 9), np.linspace(-1.5, 1.5, 13), 6),
            (np.array([-1.0, 1.0]), np.array([]), 3),
            (np.linspace(-2, 2, 9), np.array([0.25]), 6),
            (np.array([0.7]), np.linspace(-1.5, 1.5, 13), 6),
            (np.array([]), np.linspace(-1.5, 1.5, 13), 3),
            (np.array([-0.0, 1e-200, -2.5]), np.array([-1e-200, 0.0, 2.0 / 3.0]), 7),
            (*default_grid(), 15),
        ],
        ids=["zero-column", "no-y", "one-y", "one-x", "no-x", "tiny", "default"],
    )
    def test_csv_matches_per_cell_writer(self, tmp_path, xs, ys, order):
        # the row-at-a-time writer must give the bytes of one repr per cell,
        # on grids with an undefined x = 0 column, with no y (header only),
        # one y and one x
        fmap = scan_region(xs, ys, order)
        assert (fmap.max_feasible[xs == 0] == -1).all()
        ref, first_failing = tmp_path / "ref.csv", fmap.first_failing  # derived on each access
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "max_feasible_order", "first_failing_order"])
            for i, x in enumerate(fmap.xs):
                for j, y in enumerate(fmap.ys):
                    writer.writerow(
                        [repr(float(x)), repr(float(y)),
                         int(fmap.max_feasible[i, j]), int(first_failing[i, j])]
                    )
        out = tmp_path / "scan.csv"
        fmap.to_csv(str(out))
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("order", [7, 15])
    def test_feasible_agrees_with_scan_cells(self, order):
        # a point and a grid cell at the same (x, y) take the same float
        # operations, so their moments agree bit for bit, and so must the
        # first failing order
        xs, ys = default_grid()
        fmap = scan_region(xs, ys, order)
        X, Y = np.repeat(xs, len(ys)), np.tile(ys, len(xs))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cells = float_moments(X, Y, order).reshape(len(xs), len(ys), order)
        first_failing = fmap.first_failing
        for i in range(0, len(xs), 6):
            for j in range(0, len(ys), 6):
                x, y = float(xs[i]), float(ys[j])
                point = float_moments(x, y, order)
                np.testing.assert_array_equal(point.view(np.uint64), cells[i, j].view(np.uint64))
                _, first = feasible(x, y, order)
                assert (first or 0) == first_failing[i, j], (x, y)

    @pytest.mark.parametrize("x, y, order", [(1e-25, 0.1, 15), (-1e-25, 0.1, 15), (1e-200, 0.0, 7)])
    def test_feasible_gives_the_scan_verdict_where_a_power_underflows(self, x, y, order):
        # each division by x multiplies the moments by 1/|x|, so they overflow
        # to inf: a point must fail where the scan's cell does, not raise
        fmap = scan_region(np.array([x]), np.array([y]), order)
        assert feasible(x, y, order) == (False, int(fmap.first_failing[0, 0]))

    def test_svg_output(self, small_map, tmp_path):
        out = tmp_path / "scan.svg"
        small_map.to_svg(str(out))
        text = out.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


# couplings down to |x| = 0.005 around an x = 0 column, and a grid whose
# shape and window no other test uses; the one-pass oracle costs about 16 s
# (2 vCPUs) at orders 21 to 30 on the second, so it is checked there up to
# order 20, and the default grid at order 25
SMALL_X = (np.linspace(-0.1, 0.1, 41), np.linspace(-1.2, 1.2, 41))
ODD = (np.linspace(-3.1, 2.9, 301), np.linspace(-1.3, 1.25, 257))


def assert_matches_one_pass(xs, ys, order):
    fmap = scan_region(xs, ys, order)
    first, overflow = scan_first_failing(xs, ys, order, 1e-10)
    feasible_to = np.where(xs[:, None] == 0, -1, np.where(first == 0, order, first - 1))
    np.testing.assert_array_equal(fmap.first_failing, first, err_msg=f"order {order}")
    np.testing.assert_array_equal(fmap.max_feasible, feasible_to, err_msg=f"order {order}")
    return fmap, overflow


class TestStagedScan:
    """``scan_region`` carries only the cells still feasible to its later
    stages; its verdicts must be those of one pass at full order."""

    @pytest.mark.parametrize("grid, orders", [(SMALL_X, 30), (ODD, 20)], ids=["small_x", "odd"])
    def test_matches_one_pass_at_every_order(self, grid, orders):
        for order in range(1, orders + 1):
            assert_matches_one_pass(*grid, order)

    def test_small_x_grid_has_an_undefined_column(self):
        assert (scan_region(*SMALL_X, 3).max_feasible[20] == -1).all()

    @pytest.mark.parametrize("order", [7, 15, 25])
    def test_matches_one_pass_on_default_grid(self, order):
        fmap, overflow = assert_matches_one_pass(*default_grid(), order)
        # flagged: the cells whose verdict rests on a non-finite minor
        np.testing.assert_array_equal(fmap.overflow, overflow)

    def test_overflowing_moments_are_flagged(self):
        # at |x| = 1e-200, m_2 = (y + x) / x is 2.5e199 or more, so minor 3,
        # which holds -m_2**2, is -inf
        xs = np.array([-1e-200, 0.0, 1e-200, 0.5])
        ys = np.array([-0.5, -0.25, 0.25, 0.5])
        fmap = scan_region(xs, ys, 5)
        assert (fmap.first_failing[[0, 2]] == 3).all()
        assert fmap.overflow.tolist() == [[True] * 4, [False] * 4, [True] * 4, [False] * 4]

    def test_nan_moments_fail_the_cell(self):
        # at y = 0, m_2 = 1 and m_3 = 1/x = 1e200, so minor 4 is not finite
        fmap = scan_region(np.array([1e-200]), np.array([0.0]), 5)
        assert (fmap.first_failing[0, 0], fmap.overflow[0, 0]) == (4, True)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_minors_after_a_non_finite_moment_are_not_finite(self, bad):
        # a stack with rows on the Levinson path and on the dense fallback
        # (the second row has an exactly singular order-2 block)
        base = np.array([[1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125], [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]])
        for j in range(6):
            mvals = base.copy()
            mvals[:, j] = bad
            minors = leading_minors(mvals, 6)
            assert not np.isfinite(minors[:, j:]).any()
            # a NaN error sends the first row to the fallback too: rounding differs
            np.testing.assert_allclose(minors[:, :j], leading_minors(base, 6)[:, :j], rtol=1e-12)


OVERFLOW = (np.array([-1e-200, 0.0, 1e-200, 0.5]), np.array([-0.5, -0.25, 0.25, 0.5]))
NAN_CELL = (np.array([1e-200]), np.array([0.0]))
DEFAULT_BUDGET = bootstrap._BLOCK_CELLS


def assert_same_map(got, want):
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
        np.testing.assert_array_equal(a, b, err_msg=field.name)


class TestBlockBudget:
    """``scan_region`` takes at most ``_BLOCK_CELLS`` cells at a time; where
    the slices fall must not change a verdict, a flag or a dtype."""

    @staticmethod
    def budgets(xs, ys, small):
        seams = [len(ys) - 1] if len(ys) > 1 else []
        return ([1, 7] if small else []) + seams + [DEFAULT_BUDGET, len(xs) * len(ys) + 1]

    @pytest.mark.parametrize(
        "grid, orders, small",
        [
            (SMALL_X, [2, 7, 30], True),
            (ODD, [5, 12, 20], False),
            (OVERFLOW, [5, 15], True),
            (NAN_CELL, [5], True),
            ((np.array([]), np.linspace(-1, 1, 5)), [7], True),
            ((np.linspace(-1, 1, 5), np.array([])), [7], True),
        ],
        ids=["small_x", "odd", "overflow", "nan_cell", "no_rows", "no_columns"],
    )
    def test_any_budget_gives_the_one_pass_map(self, monkeypatch, grid, orders, small):
        xs, ys = grid
        for order in orders:
            want = scan_region(xs, ys, order)
            first, overflow = scan_first_failing(xs, ys, order, 1e-10)
            np.testing.assert_array_equal(want.first_failing, first, err_msg=f"order {order}")
            np.testing.assert_array_equal(want.overflow, overflow, err_msg=f"order {order}")
            for budget in self.budgets(xs, ys, small):
                monkeypatch.setattr(bootstrap, "_BLOCK_CELLS", budget)
                assert_same_map(scan_region(xs, ys, order), want)
            monkeypatch.undo()

    def test_a_row_longer_than_the_budget(self):
        # 40,000 cells in one row: the slices split the row
        xs, ys = np.array([0.7]), np.linspace(-1.5, 1.5, 40_000)
        assert len(ys) > DEFAULT_BUDGET
        fmap = scan_region(xs, ys, 15)
        first, overflow = scan_first_failing(xs, ys, 15, 1e-10)
        np.testing.assert_array_equal(fmap.first_failing, first)
        np.testing.assert_array_equal(fmap.overflow, overflow)
        assert 0 < fmap.feasible_cell_count(15) < len(ys)


@pytest.mark.parametrize("n", [300, 1000], ids=["default_grid", "1000x1000"])
def test_scan_memory_is_bounded_by_the_map(n):
    # beside the returned arrays, a scan holds one slice of cells at a time
    xs, ys = np.linspace(-3, 3, n), np.linspace(-1.2, 1.2, n)
    for k in range(1, 14):
        bootstrap._TRIANGLE(k)  # the equations an order-15 scan folds, memoized outside the measurement
    tracemalloc.start()
    try:
        fmap = scan_region(xs, ys, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(v.nbytes for v in vars(fmap).values() if isinstance(v, np.ndarray))
    # the map holds one int64 order and one bool flag a cell, nothing derived
    assert arrays == xs.nbytes + ys.nbytes + 9 * n * n
    assert peak <= 2 * arrays + 4e6, (peak, arrays)
