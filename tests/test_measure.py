import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glslab import (
    CapacityError,
    GaussianMeasureSpec,
    IntegrationError,
    Tilt,
    build_grid,
    integrate,
    normalize,
    report,
)
from glslab.measure import (
    embedded,
    gauss_hermite_1d,
    integrate_with_error,
    rounding_floor,
    row_sums,
    tensor_rule,
)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class TestOneDimensionalRule:
    def test_matches_physicists_rule_after_rescaling(self):
        # reference: numpy's Gauss-Hermite rule for weight exp(-x^2)
        for order in (2, 5, 16, 64):
            x_ref, w_ref = np.polynomial.hermite.hermgauss(order)
            nodes, weights = gauss_hermite_1d(order)
            np.testing.assert_allclose(nodes, np.sqrt(2.0) * x_ref, atol=1e-13)
            np.testing.assert_allclose(weights, w_ref / np.sqrt(np.pi), atol=1e-14)

    def test_even_gaussian_moments(self):
        nodes, weights = gauss_hermite_1d(24)
        for k in range(0, 23, 2):
            moment = float(weights @ nodes**k)
            assert moment == pytest.approx(double_factorial(k - 1), rel=1e-12)

    def test_odd_moments_vanish(self):
        nodes, weights = gauss_hermite_1d(33)
        for k in (1, 3, 7, 15):
            # compare the cancellation against the absolute-value scale
            scale = float(weights @ np.abs(nodes) ** k)
            assert abs(weights @ nodes**k) < 1e-14 * max(1.0, scale)

    def test_symmetry_and_normalization(self):
        nodes, weights = gauss_hermite_1d(17)
        np.testing.assert_allclose(nodes, -nodes[::-1], atol=0)
        np.testing.assert_allclose(weights, weights[::-1], atol=0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert (weights > 0).all()

    def test_every_weight_is_positive(self):
        # the tail weights reach 3e-211 at order 256; none may round to 0
        for order in range(1, 257):
            _, weights = gauss_hermite_1d(order)
            assert (weights > 0).all(), order

    def test_even_moments_exact_to_degree_2n_minus_1(self):
        for order in range(1, 41):
            nodes, weights = gauss_hermite_1d(order)
            for k in range(order):
                moment = float(weights @ nodes ** (2 * k))
                assert moment == pytest.approx(double_factorial(2 * k - 1), rel=1e-13), (order, k)

    @pytest.mark.parametrize("order", [64, 96, 128, 192, 256])
    def test_tail_weights_are_relatively_accurate(self, order):
        # e^{0.24 x^2} gets its integral from the far tail nodes, where only
        # relatively accurate weights keep a higher order from being worse
        nodes, weights = gauss_hermite_1d(order)
        value = float(weights @ np.exp(0.24 * nodes**2))
        assert value == pytest.approx((1.0 - 0.48) ** -0.5, rel=1e-12)

    @pytest.mark.parametrize("a", [2.0, 4.0])
    def test_tilt_entropy_does_not_worsen_with_order(self, a):
        # the tilt e^{a x - a^2/2} has E = 2 a^2; h = u^2 peaks at x = 2a,
        # out among the small weights
        for order in (64, 96, 128, 192, 256):
            grid = build_grid(GaussianMeasureSpec(d=1), order)
            entropy = report(normalize(Tilt(a=np.array([a])), grid), grid).entropy
            assert entropy == pytest.approx(2.0 * a * a, rel=1e-12), order

    def test_order_one(self):
        nodes, weights = gauss_hermite_1d(1)
        np.testing.assert_array_equal(nodes, [0.0])
        np.testing.assert_array_equal(weights, [1.0])


class TestGrids:
    def test_tensor_point_count(self):
        for d in (1, 2, 3):
            grid = build_grid(GaussianMeasureSpec(d=d), 8)
            assert grid.n_points == 8**d
            assert grid.nodes.shape == (8**d, d)

    def test_cross_moments_d2(self, grid2):
        x = grid2.nodes
        assert float(grid2.weights @ (x[:, 0] ** 2 * x[:, 1] ** 2)) == pytest.approx(1.0, rel=1e-12)
        assert abs(grid2.weights @ (x[:, 0] * x[:, 1])) < 1e-14

    def test_dimension_capacity(self):
        with pytest.raises(CapacityError):
            GaussianMeasureSpec(d=0)
        with pytest.raises(CapacityError):
            GaussianMeasureSpec(d=4)

    def test_order_capacity(self):
        spec = GaussianMeasureSpec(d=1)
        with pytest.raises(CapacityError):
            build_grid(spec, 0)
        with pytest.raises(CapacityError):
            build_grid(spec, 257)

    def test_tensor_rule_has_its_own_order_per_axis(self):
        x, w = tensor_rule((3, 1, 2))
        assert x.shape == (6, 3) and w.shape == (6,)
        assert float(w.sum()) == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_array_equal(x[:, 1], 0.0)
        # exact up to degree 2 n_i - 1 along axis i: E x^4 = 3, E x^5 = 0,
        # E z^2 = 1, E z^3 = 0
        assert float(w @ (x[:, 0] ** 4 * x[:, 2] ** 2)) == pytest.approx(3.0, rel=1e-14)
        assert abs(float(w @ (x[:, 0] ** 5 * x[:, 2] ** 3))) < 1e-13
        # but not beyond: the order-3 rule gives E x^6 = 9, not 15
        assert float(w @ x[:, 0] ** 6) == pytest.approx(9.0, rel=1e-14)

    def test_coarse_partner_is_embedded_lower_order(self, grid1):
        coarse = grid1.coarse
        assert coarse.order < grid1.order
        assert coarse.d == grid1.d
        assert abs(coarse.weights.sum() - 1.0) < 1e-14


class TestIntegration:
    def test_error_estimate_small_for_analytic_integrand(self, grid1):
        value, err = integrate_with_error(grid1, lambda x: np.exp(-x[:, 0]))
        assert value == pytest.approx(np.exp(0.5), rel=1e-12)
        assert err < 1e-12

    def test_error_estimate_flags_rough_integrand(self, grid1):
        # |x| has a kink at the origin; the embedded estimate must notice
        value, err = integrate_with_error(grid1, lambda x: np.abs(x[:, 0]))
        assert err > 1e-8
        # ... and it is the embedded difference, far above the rounding floor
        assert err == abs(value - integrate(grid1.coarse, lambda x: np.abs(x[:, 0])))

    def test_error_floor_for_constant_integrand(self):
        # fine and coarse rule see the same rounding of a constant, so the
        # embedded difference alone can be exactly 0; the floor is not
        eps = np.finfo(float).eps
        for d, order in ((1, 8), (1, 24), (1, 32), (1, 256), (2, 24), (3, 16)):
            grid = build_grid(GaussianMeasureSpec(d=d), order)
            for c in (1.0, -1.0):
                value, err = integrate_with_error(grid, lambda x: np.full(x.shape[0], c))
                assert value == pytest.approx(c, abs=16 * eps)
                assert 0.0 < err <= 16 * eps

    def test_nonfinite_values_are_rejected(self, grid1):
        def bad(x):
            out = x[:, 0].copy()
            out[3] = np.nan
            return out

        with pytest.raises(IntegrationError):
            integrate(grid1, bad)

    def test_shape_mismatch_is_rejected(self, grid1):
        with pytest.raises(IntegrationError):
            integrate(grid1, lambda x: x[:5, 0])

    def test_embedded_is_integrate_with_error_on_precomputed_values(self, grid1):
        def f(x):
            return np.exp(-x.sum(axis=1)) + np.abs(x[:, 0])

        for grid in (grid1, build_grid(GaussianMeasureSpec(d=2), 20)):
            (value,), (error,) = embedded(grid, f(grid.points)[None])
            assert (value, error) == integrate_with_error(grid, f)
            # the fine and the coarse sum are the dot products of each rule alone
            fine = integrate(grid, f)
            assert (value, error) == (fine, abs(fine - integrate(grid.coarse, f)))

    def test_embedded_rejects_nonfinite_and_misshapen_values(self, grid1):
        n, n_c = grid1.n_points, grid1.coarse.n_points
        values = np.ones((2, n + n_c))
        for i in (3, n + 3):
            for bad in (np.nan, np.inf, -np.inf):
                broken = values.copy()
                broken[1, i] = bad
                # the message names the index and the point
                with pytest.raises(IntegrationError, match=f"at point {i}, x = "):
                    embedded(grid1, broken)
        for wrong in (values[:, :n], values[:, :n_c], values[:, :5], values[0], values[..., None]):
            with pytest.raises(IntegrationError, match="shape"):
                embedded(grid1, wrong)

    def test_embedded_needs_a_grid_with_a_partner(self, grid1):
        with pytest.raises(IntegrationError, match="no embedded partner"):
            embedded(grid1.coarse, np.ones((1, grid1.coarse.n_points)))


class TestGridLayout:
    @pytest.mark.parametrize("d, order", [(1, 1), (1, 64), (2, 20), (3, 7)])
    def test_nodes_and_coarse_nodes_are_slices_of_points(self, d, order):
        grid = build_grid(GaussianMeasureSpec(d=d), order)
        n, n_c = grid.n_points, grid.coarse.n_points
        assert grid.points.shape == (n + n_c, d)
        assert grid.points.flags.c_contiguous
        assert np.shares_memory(grid.nodes, grid.points)
        assert np.shares_memory(grid.coarse.nodes, grid.points)
        np.testing.assert_array_equal(grid.nodes, grid.points[:n])
        np.testing.assert_array_equal(grid.coarse.nodes, grid.points[n:])
        assert grid.coarse.coarse is None

    @pytest.mark.parametrize("d, order", [(1, 64), (2, 20), (3, 7)])
    def test_each_rule_is_the_tensor_product_of_its_1d_rule(self, d, order):
        # the layout of numpy's meshgrid, indexing "ij": the last axis varies fastest
        grid = build_grid(GaussianMeasureSpec(d=d), order)
        for rule in (grid, grid.coarse):
            x, w = gauss_hermite_1d(rule.order)
            axes = np.meshgrid(*([x] * d), indexing="ij")
            np.testing.assert_array_equal(rule.nodes, np.stack([a.ravel() for a in axes], axis=-1))
            weights = w
            for _ in range(d - 1):
                weights = np.multiply.outer(weights, w)
            np.testing.assert_array_equal(rule.weights, weights.ravel())

    def test_grids_are_shared_read_only_and_not_copied_by_tensor_rule(self):
        before = tensor_rule.cache_info()
        grid = build_grid(GaussianMeasureSpec(d=2), 29)
        assert build_grid(GaussianMeasureSpec(d=2), 29) is grid
        assert tensor_rule.cache_info() == before
        for a in (grid.points, grid.weights, grid.coarse.weights):
            assert not a.flags.writeable


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-10, 10, allow_nan=False),
    b=st.floats(-10, 10, allow_nan=False),
    c=st.floats(-10, 10, allow_nan=False),
)
def test_quadratic_polynomials_integrate_exactly(a, b, c):
    grid = build_grid(GaussianMeasureSpec(d=1), 12)
    value = integrate(grid, lambda x: a * x[:, 0] ** 2 + b * x[:, 0] + c)
    assert value == pytest.approx(a + c, abs=1e-10 * (1 + abs(a) + abs(c)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_row_sums_are_the_dot_product_of_each_row_bit_for_bit(d):
    # a batch of search members is summed row by row; its figures equal those
    # of each member alone only while this holds for the numpy and BLAS in use.
    # k runs to 6, the entropy and Fisher rows of a batch of three members
    grid = build_grid(GaussianMeasureSpec(d), 64)
    n, total = grid.n_points, grid.points.shape[0]
    wide = np.random.default_rng(d).standard_normal((6, total + 7)) ** 3
    for k in range(1, 7):
        rows = wide[:k, 3 : 3 + total]
        for weights, part in ((grid.weights, rows[:, :n]), (grid.coarse.weights, rows[:, n:])):
            got = row_sums(part, weights)
            want = [weights @ row for row in part]
            assert got.shape == (k,)
            assert got.tobytes() == np.array(want).tobytes()
            assert row_sums(part[0], weights).tobytes() == np.float64(want[0]).tobytes()


@pytest.mark.parametrize("d, order", [(1, 64), (2, 20)])
def test_embedded_takes_one_row_per_integrand(d, order):
    grid = build_grid(GaussianMeasureSpec(d), order)
    n, total = grid.n_points, grid.points.shape[0]
    values = np.random.default_rng(2).standard_normal((6, total))
    # a constant row, whose error is its rounding floor, and a zero row
    values[2], values[3] = 1.0, 0.0
    sums, errors = embedded(grid, values)
    assert len(sums) == len(errors) == 6
    for row, got, error in zip(values, sums, errors):
        fine, coarse = grid.weights @ row[:n], grid.coarse.weights @ row[n:]
        floor = rounding_floor(grid.weights @ np.abs(row[:n]), n)
        assert got == fine
        assert error == max(abs(fine - coarse), floor)
        assert embedded(grid, row[None]) == ([got], [error])
    assert errors[2] == rounding_floor(sums[2], n) > 0
    assert (sums[3], errors[3]) == (0.0, 0.0)
    broken = values.copy()
    broken[1, 4] = np.nan
    with pytest.raises(IntegrationError, match=re.escape(f"at point 4, x = {grid.points[4]}")):
        embedded(grid, broken)
    with pytest.raises(IntegrationError, match=rf"shape \({total},\), expected \(k, {total}\)"):
        embedded(grid, values[0])


def test_one_integrand_takes_no_member_axis(grid1):
    # integrate and integrate_with_error read one integrand: a (1, n) or (n, n)
    # integrand is rejected, and the message names its own shape
    for reader, m in ((integrate, grid1.n_points), (integrate_with_error, grid1.points.shape[0])):
        for shape in ((1, m), (m, m)):
            message = f"integrand returned shape {shape}, expected ({m},)"
            with pytest.raises(IntegrationError, match=re.escape(message)):
                reader(grid1, lambda x: np.ones(shape))
