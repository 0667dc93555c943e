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
from glslab.functionals import second_moment_floor
from glslab.functions import _BLOCK, _hull_probes, _moments, _rowdot
from glslab.measure import rounding_floor


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

    @pytest.mark.parametrize("members", [(), (4,)])
    def test_value_is_c_exp_of_the_negated_points_bit_for_bit(self, members):
        # jet_rows negates a, not the (n, d) points; the products are the same
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1000, 3))
        a, c = rng.normal(size=members + (3,)), rng.uniform(0.5, 2.0, size=members)
        want = np.exp(np.matmul(-x, a[..., :, None])[..., 0]) * c[..., None]
        np.testing.assert_array_equal(Tilt.jet_rows(x, 0, a=a, c=c)[0], want)

    def test_log_density_hessian_is_zero(self):
        # log u^2 is affine; the base formula leaves rounding behind
        u = Tilt(a=np.array([0.3, -0.4]), c=2.0)
        x = np.random.default_rng(0).normal(size=(7, 2))
        h, mask, hess_log = u.density_and_hess_log(x)
        np.testing.assert_array_equal(h, u.value(x) ** 2)
        assert mask.all()
        ref = np.zeros((7, 2, 2))
        np.testing.assert_array_equal(np.broadcast_to(hess_log, ref.shape), ref)


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

    def test_center_mass_reads_the_density_once(self, grid1, monkeypatch):
        u = normalize(Affine(eps=0.2, nu=np.array([1.0])), grid1)
        shift = first_moment(u, grid1)
        calls = []
        density = Affine.density

        def counted(self, x):
            calls.append(len(x))
            return density(self, x)

        monkeypatch.setattr(Affine, "density", counted)
        res = center_mass(u, grid1)
        assert calls == [grid1.n_points]
        np.testing.assert_array_equal(res.shift, shift)


class TestGaussianProfile:
    def test_log_density_hessian_reads_u_block_by_block_bit_for_bit(self):
        # density_and_hess_log evaluates u in blocks of _BLOCK points
        u = GaussianProfile(sigma2=np.array([0.3, 0.7, 1.0]), mean=np.array([0.5, -0.2, 0.0]))
        x = np.random.default_rng(1).normal(size=(2 * _BLOCK + 5, 3))
        h, mask, hess_log = u.density_and_hess_log(x)
        np.testing.assert_array_equal(h, u.value(x) ** 2)
        np.testing.assert_array_equal(hess_log, np.diag(1.0 - 1.0 / u.sigma2)[None])

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

    @pytest.mark.parametrize("index", [-1, 1.5, math.inf, "1"])
    def test_rejects_a_multi_index_entry_that_is_not_a_degree(self, index):
        # He_{-1} would read as He_0, and 1.5 would truncate to 1
        with pytest.raises(LabError, match="nonnegative integer"):
            HermiteExpansion(terms=(((0,), 1.0), ((index,), 0.1)), d=1)

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
        "hess_log_density", "density_and_hess_log", "jet", "jet_rows",
    }
    assert {type(u) for u in _jet_cases()} == set(TestFunction.__subclasses__())
    for cls in TestFunction.__subclasses__():
        # every family but the Hermite expansion scales through its scaled field
        assert ("with_scale" in vars(cls)) == (cls is HermiteExpansion), cls
        if cls is EvolvedDensity:
            continue
        # one formula, as jet or as jet_rows, plus a closed-form Hess log h
        closed_form = {"density_and_hess_log"} if cls in (Tilt, GaussianProfile) else set()
        defined = evaluators & vars(cls).keys()
        assert len(defined & {"jet", "jet_rows"}) == 1, cls
        assert defined - {"jet", "jet_rows"} == closed_form, cls
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


@pytest.mark.parametrize(
    "obj",
    [
        {"family": "gaussian", "params": {"sigma2": [0.5, 0.5]}, "d": 3},
        {"family": "bump", "params": {"radius": 1.0, "center": [0.0, 0.0]}, "d": 1},
        {"family": "tilt", "params": {"a": [0.1, 0.2, 0.3]}, "d": 2},
        {"family": "tilt", "params": {"a": []}},
        {"family": "hermite", "params": {"coeffs": [1.0, 0.1]}, "d": 2},
    ],
    ids=["gaussian", "bump", "tilt", "tilt_empty", "hermite_flat_coeffs"],
)
def test_build_function_rejects_a_dimension_the_parameters_do_not_have(obj):
    with pytest.raises(LabError, match="parameters have d = "):
        build_function(obj)


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: Tilt(a=np.array([[0.5]])),
        lambda: Affine(eps=0.1, nu=np.array([[1.0]])),
        lambda: GaussianProfile(sigma2=np.array([[0.5]])),
        lambda: GaussianProfile(sigma2=np.array([0.5]), mean=np.array([[0.1]])),
        lambda: Bump(radius=1.0, center=np.array([[0.1]])),
    ],
    ids=["tilt_a", "affine_nu", "gaussian_sigma2", "gaussian_mean", "bump_center"],
)
def test_vector_parameters_must_be_one_dimensional(make):
    with pytest.raises(LabError, match="must be a vector"):
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


# ----------------------------------------------------------- row kernels
#
# The per-point kernels run one length-n column at a time.  The references
# below are the (n, d) broadcast formulas they replace, written out; every
# kernel must agree with them bit for bit.


def _old_tilt_jet(u, x):
    val = u.c * np.exp(-x @ u.a)
    return val, -val[:, None] * u.a[None, :], val[:, None, None] * np.outer(u.a, u.a)[None]


def _old_gaussian_jet(u, x):
    s2, b = u.sigma2, u.mean
    log_u = (-0.25 * (x - b) ** 2 / s2 + 0.25 * x**2).sum(axis=1) - 0.25 * np.log(s2).sum()
    val = u.amplitude * np.exp(log_u)
    grad_log = -0.5 * (x - b) / s2 + 0.5 * x
    outer = grad_log[:, :, None] * grad_log[:, None, :]
    hess = val[:, None, None] * (outer + np.diag(0.5 - 0.5 / s2)[None])
    return val, val[:, None] * grad_log, hess


def _old_bump_jet(u, x):
    z = x - u.center
    q = (z**2).sum(axis=1) / u.radius**2
    inside = q < 1.0
    val = u.amplitude * np.where(inside, (1.0 - q) ** 2, 0.0)
    slope = -4.0 * (1.0 - q) / u.radius**2
    grad = u.amplitude * np.where(inside, slope, 0.0)[:, None] * z
    first = slope[:, None, None] * np.eye(u.d)[None]
    second = (8.0 / u.radius**4) * z[:, :, None] * z[:, None, :]
    return val, grad, u.amplitude * np.where(inside[:, None, None], first + second, 0.0)


def _old_hermite_jet(u, x):
    n, d = x.shape
    kmax = max(max(alpha) for alpha, _ in u.terms)
    table = np.empty((kmax + 1, n, d))
    table[0] = 1.0
    table[1] = x
    for k in range(1, kmax):
        table[k + 1] = x * table[k] - k * table[k - 1]

    def product(factor, ks):
        term = np.full(n, factor)
        for axis, k in enumerate(ks):
            term = term * table[k, :, axis]
        return term

    val, grad, hess = np.zeros(n), np.zeros((n, d)), np.zeros((n, d, d))
    for alpha, coeff in u.terms:
        val += product(coeff, alpha)
        for j in range(d):
            if alpha[j]:
                grad[:, j] += product(coeff * alpha[j], [k - (i == j) for i, k in enumerate(alpha)])
            for l in range(j, d):
                drop = [(i == j) + (i == l) for i in range(d)]
                factor = coeff * alpha[j] * (alpha[j] - 1 if j == l else alpha[l])
                if factor == 0 or min(k - m for k, m in zip(alpha, drop)) < 0:
                    continue
                term = product(factor, [k - m for k, m in zip(alpha, drop)])
                hess[:, j, l] += term
                if j != l:
                    hess[:, l, j] += term
    return val, grad, hess


_D3_JETS = [
    (Tilt(a=np.array([0.37, -0.4, 0.25]), c=0.8), _old_tilt_jet),
    (
        GaussianProfile(
            sigma2=np.array([0.5, 0.8, 1.0]), mean=np.array([0.3, -0.2, 0.1]), amplitude=1.3
        ),
        _old_gaussian_jet,
    ),
    (Bump(radius=2.5, center=np.array([0.2, -0.3, 0.1]), amplitude=0.7), _old_bump_jet),
    (
        HermiteExpansion(
            terms=(
                ((0, 0, 0), 1.0),
                ((1, 0, 2), 0.01),
                ((2, 1, 0), -0.005),
                ((0, 3, 1), 0.001),
                ((1, 1, 1), 0.004),
            ),
            d=3,
        ),
        _old_hermite_jet,
    ),
]


@pytest.mark.parametrize("u, old", _D3_JETS, ids=[u.family for u, _ in _D3_JETS])
def test_d3_jets_equal_the_broadcast_formulas_bit_for_bit(u, old):
    x = np.random.default_rng(5).uniform(-3.0, 3.0, size=(1000, 3))
    for got, want in zip(u.jet(x), old(u, x)):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_rowdot_sums_in_the_order_of_a_row_sum(d, layout):
    # einsum("ij,ij->i") sums a C-ordered d = 3 row as (p0 + p2) + p1; the
    # helper keeps (p0 + p1) + p2, the order of (a * b).sum(axis=1)
    rng = np.random.default_rng(d)
    a, b = (
        np.asarray(rng.normal(size=(4000, d)) * 10.0 ** rng.integers(-8, 8, (4000, d)), order=layout)
        for _ in range(2)
    )
    np.testing.assert_array_equal(_rowdot(a, b), (a * b).sum(axis=1))


_MOMENT_CASES = [
    Tilt(a=np.array([0.5])),
    GaussianProfile(sigma2=np.array([0.6, 0.9]), mean=np.array([0.4, -0.3])),
    HermiteExpansion(terms=(((0, 0), 1.0), ((1, 1), 0.05), ((2, 0), 0.1)), d=2),
    # h dgamma = N(-2a, I): a first moment near 0.8 per axis, summed over 262,144 nodes
    Tilt(a=np.array([-0.37, -0.4, -0.4])),
    GaussianProfile(sigma2=np.array([0.5, 0.8, 1.0]), mean=np.array([0.3, -0.2, 0.1])),
]


@pytest.mark.parametrize("u", _MOMENT_CASES, ids=_case_id)
def test_moments_within_their_rounding_floors(u, grid1, grid2, grid3):
    grid = {1: grid1, 2: grid2, 3: grid3}[u.d]
    u = normalize(u, grid)
    h = u.density(grid.nodes)
    m1, gap = _moments(grid, h)
    L = np.longdouble
    wh, x = grid.weights.astype(L) * h.astype(L), grid.nodes.astype(L)
    terms = wh[:, None] * x
    want_m1 = terms.sum(axis=0)
    want_gap = (wh * (x**2).sum(axis=1)).sum() - grid.d * wh.sum()
    for got, want, scale in zip(m1, want_m1, np.abs(terms).sum(axis=0)):
        assert abs(L(got) - want) <= rounding_floor(float(scale), grid.n_points)
    assert abs(L(gap) - want_gap) <= second_moment_floor(gap, grid.d, float(wh.sum()))


class TestHermiteScale:
    U = HermiteExpansion(terms=(((0, 0), 1.0), ((1, 1), 0.05), ((2, 0), 0.1)), d=2)

    @pytest.mark.parametrize("c", [0.3, 1.0, 1.0 / 0.9123456789, 7.5e3])
    def test_equals_the_replace_path_bit_for_bit(self, c):
        from dataclasses import replace

        want = replace(self.U, terms=tuple((alpha, coeff * c) for alpha, coeff in self.U.terms))
        got = self.U.with_scale(c)
        assert type(got) is HermiteExpansion and got == want
        assert got.to_json() == want.to_json()
        x = np.random.default_rng(3).uniform(-3.0, 3.0, size=(200, 2))
        for a, b in zip(got.jet(x), want.jet(x)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("c", [0.0, -0.0, -2.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_scale_that_is_not_positive_and_finite(self, c):
        with pytest.raises(PositivityError):
            self.U.with_scale(c)

    def test_hull_probes_are_built_once_and_read_only(self):
        probes = _hull_probes(2)
        assert _hull_probes(2) is probes
        assert probes.shape == (41 * 41, 2) and not probes.flags.writeable
