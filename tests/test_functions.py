import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from glslab import (
    Affine,
    Bump,
    EvolvedDensity,
    GaussianProfile,
    HermiteExpansion,
    LabError,
    NormalizationError,
    PositivityError,
    TestFunction,
    Tilt,
    TwoBumps,
    build_function,
    center_mass,
    first_moment,
    l2_norm,
    mehler_density,
    normalize,
    second_moment_gap,
)


def _sample_functions():
    return [
        Tilt(a=np.array([0.6])),
        Tilt(a=np.array([0.3, -0.5])),
        Affine(eps=0.15, nu=np.array([1.0])),
        GaussianProfile(sigma2=np.array([0.5]), mean=np.array([0.3])),
        GaussianProfile(sigma2=np.array([0.7, 0.9]), mean=np.array([0.1, -0.2])),
        Bump(radius=2.0, center=np.array([0.0])),
        HermiteExpansion(terms=(((0,), 1.0), ((1,), 0.1), ((2,), 0.12), ((3,), 0.05)), d=1),
        TwoBumps(height=1.0, radius=2.0, separation=4.0),
    ]


class TestTilt:
    def test_value_formula(self):
        u = Tilt(a=np.array([0.5, -0.2]), c=2.0)
        x = np.array([[1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(u.value(x), [2.0 * np.exp(-0.3), 2.0], rtol=1e-15)

    def test_normalization_constant(self, grid1):
        # ||c e^{-a x}|| = 1 forces c = e^{-a^2/2} ... squared norm e^{2a^2}
        u = normalize(Tilt(a=np.array([1.0])), grid1)
        assert u.c == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(PositivityError):
            Tilt(a=np.array([0.5]), c=0.0)

    def test_hessian_is_outer_product(self):
        a = np.array([0.4, 0.1])
        u = Tilt(a=a)
        x = np.array([[0.2, -0.3]])
        expect = u.value(x)[0] * np.outer(a, a)
        np.testing.assert_allclose(u.jet(x)[2][0], expect, rtol=1e-14)

    def test_log_density_hessian_is_zero(self):
        # log u^2 is affine; the base formula leaves rounding behind
        u = Tilt(a=np.array([0.3, -0.4]), c=2.0)
        x = np.random.default_rng(0).normal(size=(7, 2))
        h, mask, hess_log = u.density_and_hess_log(x)
        np.testing.assert_array_equal(h, u.value(x) ** 2)
        assert mask.all()
        np.testing.assert_array_equal(hess_log, np.zeros((7, 2, 2)))


class TestAffine:
    def test_second_moment_gap(self, grid1):
        eps = 0.1
        u = normalize(Affine(eps=eps, nu=np.array([1.0])), grid1)
        gap = second_moment_gap(u, grid1)
        assert gap == pytest.approx(2 * eps**2 / (1 + eps**2), abs=1e-13)

    def test_rejects_amplitude_vanishing_on_hull(self):
        with pytest.raises(PositivityError):
            Affine(eps=0.34, nu=np.array([1.0]))

    def test_direction_is_normalized(self):
        u = Affine(eps=0.1, nu=np.array([3.0, 4.0]))
        np.testing.assert_allclose(u.nu, [0.6, 0.8], rtol=1e-15)

    def test_not_recentrable(self, grid1):
        u = normalize(Affine(eps=0.2, nu=np.array([1.0])), grid1)
        res = center_mass(u, grid1)
        assert not res.recentred
        assert np.linalg.norm(res.shift) > 0.1


class TestGaussianProfile:
    def test_unit_norm_by_construction(self, grid1):
        u = GaussianProfile(sigma2=np.array([0.5]), mean=np.array([0.4]))
        assert l2_norm(u, grid1) == pytest.approx(1.0, abs=1e-13)

    def test_moments(self, grid1):
        s2, b = 0.6, 0.3
        u = GaussianProfile(sigma2=np.array([s2]), mean=np.array([b]))
        m1 = first_moment(u, grid1)
        np.testing.assert_allclose(m1, [b], atol=1e-13)
        gap = second_moment_gap(u, grid1)
        assert gap == pytest.approx(s2 - 1 + b**2, abs=1e-13)

    def test_variance_domain(self):
        with pytest.raises(LabError):
            GaussianProfile(sigma2=np.array([1.2]))
        with pytest.raises(LabError):
            GaussianProfile(sigma2=np.array([0.0]))

    def test_recentring_is_exact(self, grid1):
        u = GaussianProfile(sigma2=np.array([0.5]), mean=np.array([0.4]))
        res = center_mass(u, grid1)
        assert res.recentred
        np.testing.assert_allclose(first_moment(res.function, grid1), [0.0], atol=1e-14)

    def test_constant_function_at_unit_variance(self, grid1):
        u = GaussianProfile(sigma2=np.array([1.0]))
        np.testing.assert_array_equal(u.value(grid1.nodes), np.ones(grid1.n_points))


class TestBump:
    def test_support(self):
        u = Bump(radius=2.0)
        assert u.support_radius == 2.0
        x = np.array([[2.1], [-3.0], [1.9]])
        vals = u.value(x)
        assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] > 0.0

    def test_gradient_vanishes_at_edge(self):
        u = Bump(radius=1.5)
        g = u.jet(np.array([[1.5 - 1e-9], [1.5 + 1e-9]]), 1)[1]
        np.testing.assert_allclose(g, 0.0, atol=1e-8)

    def test_offcenter_support_radius(self):
        u = Bump(radius=1.0, center=np.array([0.5]))
        assert u.support_radius == pytest.approx(1.5)

    def test_second_moment_below_dimension(self, grid1):
        for radius in (1.0, 2.0, 4.0):
            u = normalize(Bump(radius=radius), grid1)
            assert second_moment_gap(u, grid1) < 0


class TestHermiteExpansion:
    def test_value_against_explicit_polynomials(self):
        u = HermiteExpansion(
            terms=(((0,), 1.0), ((1,), 0.1), ((2,), 0.12), ((3,), 0.05)), d=1
        )
        x = np.array([[0.7], [-1.3]])
        t = x[:, 0]
        expect = 1.0 + 0.1 * t + 0.12 * (t**2 - 1) + 0.05 * (t**3 - 3 * t)
        np.testing.assert_allclose(u.value(x), expect, rtol=1e-14)

    def test_rejects_sign_change_on_hull(self):
        with pytest.raises(PositivityError):
            HermiteExpansion(terms=(((0,), 1.0), ((1,), 3.0)), d=1)

    def test_rejects_high_degree(self):
        with pytest.raises(LabError):
            HermiteExpansion(terms=(((13,), 0.001),), d=1)

    def test_flat_coefficient_list(self):
        u = build_function({"family": "hermite", "params": {"coeffs": [1.0, 0.0, 0.15]}, "d": 1})
        x = np.array([[2.0]])
        assert u.value(x)[0] == pytest.approx(0.85 + 0.15 * 4.0, rel=1e-14)

    def test_multi_index_cross_term_d2(self):
        u = HermiteExpansion(terms=(((0, 0), 1.0), ((1, 1), 0.05)), d=2)
        x = np.array([[1.5, -0.5]])
        assert u.value(x)[0] == pytest.approx(1.0 + 0.05 * 1.5 * (-0.5), rel=1e-14)
        # d/dx1 of He1(x1) He1(x2) is He1(x2)
        _, grad, hess = u.jet(x)
        np.testing.assert_allclose(grad[0], [0.05 * (-0.5), 0.05 * 1.5], rtol=1e-14)
        np.testing.assert_allclose(hess[0], [[0.0, 0.05], [0.05, 0.0]], atol=1e-14)


class TestTwoBumps:
    def test_floor_and_peaks(self):
        u = TwoBumps(height=1.0, radius=2.0, separation=4.0)
        x = np.array([[0.0], [4.0], [-4.0]])
        np.testing.assert_allclose(u.value(x), [1.0, 2.0, 2.0], rtol=1e-15)

    def test_strictly_positive_everywhere(self, grid1):
        u = TwoBumps(height=1.0, radius=2.0, separation=4.0)
        assert u.value(grid1.nodes).min() >= 1.0 * u.amplitude


def _jet_cases():
    bump, hermite = Bump(radius=2.0), _sample_functions()[6]
    return _sample_functions() + [
        HermiteExpansion(terms=(((0, 0), 1.0), ((1, 1), 0.05), ((2, 0), 0.1)), d=2),
        Bump(radius=1.5, center=np.array([0.2, -0.1])),
        TwoBumps(height=1.0, radius=1.0, separation=1.5, d=2),
        EvolvedDensity(u0=bump, t=0.3),
        EvolvedDensity(u0=TwoBumps(height=1.0, radius=2.0, separation=4.0), t=0.3),
        mehler_density(bump, 0.3, 16),
        mehler_density(hermite, 0.3, 16),
        mehler_density(Tilt(a=np.array([0.3, -0.5])), 0.3, 8),
    ]


def _case_id(u):
    if isinstance(u, EvolvedDensity):
        path = "exact" if u.inner is None else "quadrature"
        return f"evolved_{u.u0.family}_d{u.d}_{path}"
    return f"{u.family}_d{u.d}"


@pytest.mark.parametrize("u", _jet_cases(), ids=_case_id)
def test_lower_order_jets_are_the_leading_arrays_of_the_full_jet(u):
    # points inside and outside every support, edges included
    x = np.linspace(-4.0, 4.0, 33)[:, None] + np.linspace(0.0, 0.3, u.d)[None, :]
    full = u.jet(x)
    assert [a.shape for a in full] == [(33,), (33, u.d), (33, u.d, u.d)]
    assert all(a.dtype == float for a in full)
    for order in (0, 1):
        part = u.jet(x, order)
        assert len(part) == order + 1
        for got, want in zip(part, full):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(u.value(x), full[0])


def test_families_evaluate_through_jet_alone():
    evaluators = {
        "value", "gradient", "hessian", "density", "density_and_gradient",
        "hess_log_density", "density_and_hess_log", "jet",
    }
    assert {type(u) for u in _jet_cases()} == set(TestFunction.__subclasses__())
    for cls in TestFunction.__subclasses__():
        if cls is EvolvedDensity:
            continue
        closed_form = {"density_and_hess_log"} if cls in (Tilt, GaussianProfile) else set()
        assert evaluators & vars(cls).keys() == {"jet"} | closed_form, cls
    for name in ("gradient", "hessian", "hess_log_density"):
        assert not hasattr(TestFunction, name)
        assert not hasattr(EvolvedDensity, name)


def test_json_round_trip_preserves_values(grid1, grid2):
    rng = np.random.default_rng(11)
    for u in _sample_functions():
        x = rng.uniform(-2.5, 2.5, size=(40, u.d))
        rebuilt = build_function(u.to_json())
        np.testing.assert_allclose(rebuilt.value(x), u.value(x), rtol=1e-14, atol=1e-300)


def test_build_function_rejects_unknown_family():
    with pytest.raises(LabError):
        build_function({"family": "spline", "params": {}, "d": 1})


def test_normalize_gives_unit_norm(grid1, grid2):
    for u in _sample_functions():
        grid = grid1 if u.d == 1 else grid2
        if u.d > 2:
            continue
        v = normalize(u, grid)
        assert l2_norm(v, grid) == pytest.approx(1.0, rel=1e-12)


def test_second_moment_gap_requires_normalization(grid1):
    with pytest.raises(NormalizationError):
        second_moment_gap(Tilt(a=np.array([0.5])), grid1)


NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        lambda: GaussianProfile(sigma2=np.array([NAN])),
        lambda: GaussianProfile(sigma2=np.array([0.5]), amplitude=NAN),
        lambda: Affine(eps=NAN, nu=np.array([1.0])),
        lambda: Affine(eps=0.1, nu=np.array([1.0]), amplitude=NAN),
        lambda: Bump(radius=NAN),
        lambda: Bump(radius=math.inf),
        lambda: Bump(radius=1.0, amplitude=NAN),
        lambda: TwoBumps(height=NAN, radius=1.0, separation=2.0),
        lambda: TwoBumps(height=1.0, radius=math.inf, separation=2.0),
        lambda: TwoBumps(height=1.0, radius=1.0, separation=2.0, amplitude=NAN),
        lambda: HermiteExpansion(terms=(((0,), 1.0), ((2,), NAN)), d=1),
        lambda: build_function({"family": "affine", "params": {"eps": NAN}, "d": 1}),
    ],
    ids=[
        "gaussian_sigma2",
        "gaussian_amplitude",
        "affine_eps",
        "affine_amplitude",
        "bump_radius_nan",
        "bump_radius_inf",
        "bump_amplitude",
        "two_bumps_height",
        "two_bumps_radius_inf",
        "two_bumps_amplitude",
        "hermite_coefficient",
        "built_affine_eps",
    ],
)
def test_construction_rejects_non_finite_parameters(make):
    with pytest.raises(LabError):
        make()


def test_overflowing_norm_fails_normalization_without_a_warning(grid1):
    # e^{-40 x} is finite on the nodes, its square is not
    u = Tilt(a=np.array([40.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert l2_norm(u, grid1) == math.inf
        with pytest.raises(NormalizationError, match="L2 norm inf"):
            normalize(u, grid1)


def test_nan_values_fail_normalization(grid1):
    u = Tilt(a=np.array([NAN]))
    with pytest.raises(NormalizationError):
        normalize(u, grid1)
    with pytest.raises(NormalizationError):
        second_moment_gap(u, grid1)


FAMILY_INDEX = st.integers(min_value=0, max_value=7)


def _clear_of_support_edges(u, x):
    # second derivatives of the bump profile jump at its support sphere,
    # so finite differences must not straddle it
    if isinstance(u, Bump):
        return abs(np.linalg.norm(x - u.center) - u.radius) > 1e-2
    if isinstance(u, TwoBumps):
        off = np.zeros(u.d)
        off[0] = u.separation
        return all(
            abs(np.linalg.norm(x - s * off) - u.radius) > 1e-2 for s in (1.0, -1.0)
        )
    return True


@settings(max_examples=60, deadline=None)
@given(idx=FAMILY_INDEX, seed=st.integers(0, 2**31 - 1))
def test_gradient_matches_finite_differences(idx, seed):
    u = _sample_functions()[idx]
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(1, u.d))
    assume(_clear_of_support_edges(u, x[0]))
    h = 1e-6
    grad = u.jet(x, 1)[1][0]
    for j in range(u.d):
        step = np.zeros((1, u.d))
        step[0, j] = h
        fd = (u.value(x + step)[0] - u.value(x - step)[0]) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=2e-5, abs=2e-7)


@settings(max_examples=60, deadline=None)
@given(idx=FAMILY_INDEX, seed=st.integers(0, 2**31 - 1))
def test_hessian_matches_gradient_differences(idx, seed):
    u = _sample_functions()[idx]
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(1, u.d))
    assume(_clear_of_support_edges(u, x[0]))
    h = 1e-6
    hess = u.jet(x)[2][0]
    for j in range(u.d):
        step = np.zeros((1, u.d))
        step[0, j] = h
        fd = (u.jet(x + step, 1)[1][0] - u.jet(x - step, 1)[1][0]) / (2 * h)
        np.testing.assert_allclose(hess[:, j], fd, rtol=2e-4, atol=2e-6)


@settings(max_examples=30, deadline=None)
@given(idx=FAMILY_INDEX, c=st.floats(0.1, 10.0))
def test_with_scale_is_linear(idx, c):
    u = _sample_functions()[idx]
    x = np.linspace(-1.5, 1.5, 9)[:, None] * np.ones((1, u.d))
    np.testing.assert_allclose(u.with_scale(c).value(x), c * u.value(x), rtol=1e-12)
