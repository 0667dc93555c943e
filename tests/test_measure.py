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
from glslab.measure import embedded, gauss_hermite_1d, integrate_with_error, tensor_rule


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
            got = embedded(grid, f(grid.nodes), f(grid.coarse.nodes))
            assert got == integrate_with_error(grid, f)

    def test_embedded_rejects_nonfinite_and_misshapen_values(self, grid1):
        fine, coarse = np.ones(grid1.n_points), np.ones(grid1.coarse.n_points)
        nan = fine.copy()
        nan[3] = np.nan
        for args in (
            (nan, coarse),
            (fine, np.full(coarse.shape, np.inf)),
            (fine[:5], coarse),
            (fine, fine),
        ):
            with pytest.raises(IntegrationError):
                embedded(grid1, *args)


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
