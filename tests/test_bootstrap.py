import csv
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quivergauge.bootstrap import (
    default_grid,
    derive_moments,
    dump_moment_table,
    feasible,
    leading_minors,
    moment,
    scan_region,
)
from quivergauge.jobfile import triangle_job
from quivergauge.laurent import YXPoly
from quivergauge.quiver import EdgeWord

from oracles import moment_matrix, scan_first_failing


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

    @pytest.mark.parametrize("n", sorted(MOMENT_TABLE))
    def test_exact_closed_forms(self, n):
        assert moment(n) == poly(MOMENT_TABLE[n])

    def test_negative_index_reality(self):
        assert moment(-4) == moment(4)

    def test_recursion_consistency(self):
        # m_{n+1} - m_{n-1} = (1/x) sum_l m_l m_{n-l}, through every moment
        # an order-15 scan reads
        for n in range(1, 15):
            s = YXPoly.zero()
            for l in range(n):
                s = s + moment(l) * moment(n - l)
            assert moment(n + 1) - moment(n - 1) == s * YXPoly.inv_x()

    def test_reversed_loop_derives_the_same_moments(self):
        # the reversed 3-cycle indexes the generator negatively; reality folds it back
        job = replace(triangle_job(), loops=[EdgeWord.from_string("e3- e2- e1-")])
        assert list(islice(derive_moments(job), 10)) == [moment(k) for k in range(10)]

    def test_dump_table_shape(self):
        table = dump_moment_table(3)
        assert [row["n"] for row in table] == [0, 1, 2, 3]
        assert table[2]["terms"] == [{"c": 1, "a": 0, "b": 0}, {"c": 1, "a": 1, "b": 1}]


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
        assert fmap.undefined[1].all()
        assert (fmap.max_feasible[1] == -1).all()
        assert not fmap.undefined[0].any()

    def test_csv_output(self, small_map, tmp_path):
        out = tmp_path / "scan.csv"
        small_map.to_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,max_feasible_order,first_failing_order"
        assert len(lines) == 1 + 40 * 41

    def test_csv_matches_per_cell_writer(self, tmp_path):
        # the row-at-a-time writer must give the bytes of one repr per cell,
        # on a grid with an undefined x = 0 column
        fmap = scan_region(np.linspace(-2, 2, 9), np.linspace(-1.5, 1.5, 13), 6)
        assert fmap.undefined[4].all()
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "max_feasible_order", "first_failing_order"])
            for i, x in enumerate(fmap.xs):
                for j, y in enumerate(fmap.ys):
                    writer.writerow(
                        [repr(float(x)), repr(float(y)),
                         int(fmap.max_feasible[i, j]), int(fmap.first_failing[i, j])]
                    )
        out = tmp_path / "scan.csv"
        fmap.to_csv(str(out))
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("order", [7, 15])
    def test_feasible_agrees_with_scan_cells(self, order):
        # the per-point and the grid paths evaluate the moments differently
        # (YXPoly.evaluate and evaluate_grid), and their low bits differ on
        # many cells, but the first failing order must be the same
        xs, ys = default_grid()
        fmap = scan_region(xs, ys, order)
        for i in range(0, len(xs), 6):
            for j in range(0, len(ys), 6):
                _, first = feasible(float(xs[i]), float(ys[j]), order)
                assert (first or 0) == fmap.first_failing[i, j], (xs[i], ys[j])

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
        assert scan_region(*SMALL_X, 3).undefined[20].all()

    @pytest.mark.parametrize("order", [7, 15, 25])
    def test_matches_one_pass_on_default_grid(self, order):
        fmap, overflow = assert_matches_one_pass(*default_grid(), order)
        # flagged: the cells whose verdict rests on a non-finite minor
        np.testing.assert_array_equal(fmap.overflow, overflow)

    def test_overflowing_moments_are_flagged(self):
        # at |x| = 1e-200, y / x**2 in m_3 overflows, so minor 3 is -inf
        xs = np.array([-1e-200, 0.0, 1e-200, 0.5])
        ys = np.array([-0.5, -0.25, 0.25, 0.5])
        fmap = scan_region(xs, ys, 5)
        assert (fmap.first_failing[[0, 2]] == 3).all()
        assert fmap.overflow.tolist() == [[True] * 4, [False] * 4, [True] * 4, [False] * 4]

    def test_nan_moments_fail_the_cell(self):
        # at y = 0, m_3 = 1/x + y/x**2 is 0 * inf = NaN, so minor 4 is not a number
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
