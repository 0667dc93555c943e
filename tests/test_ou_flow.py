"""Exact-solution oracles for the Ornstein-Uhlenbeck evolution.

A Gaussian stays Gaussian: variance s evolves as 1 + e^{-2t}(s - 1) and the
mean contracts by e^{-t}, which pins entropy and Fisher in closed form.  The
first moment contracts by e^{-t} and the second-moment gap by e^{-2t} for
every initial density, giving family-independent decay laws to test against.
"""

import json
import math
import random
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from glslab import (
    CapacityError,
    FlowError,
    GaussianMeasureSpec,
    GaussianProfile,
    HermiteExpansion,
    PositivityError,
    Tilt,
    build_grid,
    certify,
    certify_along_flow,
    corpus,
    flow_csv_rows,
    flow_curve,
    l2_norm,
    mehler_density,
    normalize,
    evolve,
    entropy_production_check,
    fisher_dissipation_check,
    q_ode_check,
)
from glslab import functionals, functions, ou_flow
from glslab.functions import Bump, TwoBumps, build_function
from glslab.logconcavity import _probe_cloud
from glslab.ou_flow import FLOW_CSV_COLUMNS
from glslab.stability import t_star_compact


@pytest.fixture(scope="module")
def grid2_order4():
    # d = 2 two_bumps and bumps take the quadrature path; from order 4 the
    # inner rule doubles up to 256 in about half a second
    return build_grid(GaussianMeasureSpec(d=2), 4)


def _gaussian_ef(s2, b):
    ent = 0.5 * (s2 - 1 - math.log(s2) + b * b)
    fis = 0.25 * ((1 - s2) ** 2 / s2 + b * b)
    return ent, fis


class TestGaussianEvolution:
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
    def test_closed_form_entropy_fisher(self, grid1, t):
        s2, b = 0.5, 0.3
        u = GaussianProfile(sigma2=np.array([s2]), mean=np.array([b]))
        st = evolve(u, t, grid1)
        s2_t = 1 + math.exp(-2 * t) * (s2 - 1)
        b_t = math.exp(-t) * b
        ent, fis = _gaussian_ef(s2_t, b_t)
        assert st.entropy == pytest.approx(ent, abs=1e-9)
        assert st.fisher == pytest.approx(fis, abs=1e-9)
        assert abs(st.mass - 1.0) < 1e-9

    def test_mean_contracts(self, grid1):
        u = GaussianProfile(sigma2=np.array([0.6]), mean=np.array([0.4]))
        st = evolve(u, 0.7, grid1)
        assert st.first_moment[0] == pytest.approx(0.4 * math.exp(-0.7), abs=1e-10)


class TestDecayLaws:
    """Family-independent contraction of the first two moments."""

    @pytest.mark.parametrize("name", ["hermite_mixed", "affine_eps02", "gaussian_shifted"])
    def test_moment_contraction(self, grid1, name):
        u = corpus.get(name).normalized(grid1)
        st0 = evolve(u, 0.0, grid1)
        for t in (0.3, 1.0):
            st = evolve(u, t, grid1)
            scale = max(1.0, float(np.linalg.norm(st0.first_moment)))
            np.testing.assert_allclose(
                st.first_moment,
                math.exp(-t) * st0.first_moment,
                atol=1e-7 * scale,
            )
            assert st.second_moment_gap == pytest.approx(
                math.exp(-2 * t) * st0.second_moment_gap, abs=1e-7
            )
            assert abs(st.mass - 1.0) < 1e-9

    def test_tilt_stays_a_tilt(self, grid1):
        # tilts are fixed up to parameter decay: E(t) = 2 a^2 e^{-2t}, zero deficit
        a = 0.9
        u = normalize(Tilt(a=np.array([a])), grid1)
        for t in (0.25, 1.5):
            st = evolve(u, t, grid1)
            assert st.entropy == pytest.approx(2 * a * a * math.exp(-2 * t), abs=1e-9)
            assert st.deficit == pytest.approx(0.0, abs=1e-9)


class TestSemigroup:
    def test_composition(self, grid1):
        u = corpus.get("hermite_mixed").normalized(grid1)
        nested = mehler_density(mehler_density(u, 0.3), 0.4)
        direct = mehler_density(u, 0.7)
        x = np.linspace(-3.0, 3.0, 11)
        np.testing.assert_allclose(nested.density(x), direct.density(x), rtol=0, atol=1e-7)

    def test_time_zero_is_identity(self, grid1):
        u = corpus.get("gaussian_shifted").normalized(grid1)
        st = evolve(u, 0.0, grid1)
        assert st.inner_order == 0
        x = np.linspace(-2, 2, 7)
        np.testing.assert_allclose(st.v.value(x), u.value(x), rtol=1e-12)

    def test_negative_time_rejected(self, grid1):
        with pytest.raises(FlowError):
            evolve(corpus.get("tilt_half").normalized(grid1), -0.1, grid1)

    def test_scaling_linearity(self, grid1):
        v = mehler_density(corpus.get("affine_eps01").normalized(grid1), 0.4)
        x = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(v.with_scale(2.0).value(x), 2.0 * v.value(x), rtol=1e-14)
        np.testing.assert_allclose(
            v.with_scale(3.0).jet(x)[2], 3.0 * v.jet(x)[2], rtol=1e-12, atol=1e-300
        )


class TestNonFiniteTimes:
    """An infinite or undefined time is refused where the evolved density is
    built, and times that are not a 1-d sequence before any evolution."""

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_single_time(self, grid1, t):
        u = corpus.get("gaussian_shifted").normalized(grid1)
        with pytest.raises(FlowError, match="finite"):
            evolve(u, t, grid1)
        with pytest.raises(FlowError, match="finite"):
            mehler_density(u, t)

    @pytest.mark.parametrize("times", [[0.1, math.inf], [math.nan, 0.5]])
    def test_time_lists(self, grid1, times):
        u = corpus.get("gaussian_shifted").normalized(grid1)
        with pytest.raises(FlowError, match="finite"):
            flow_curve(u, np.array(times), grid1)
        with pytest.raises(FlowError, match="finite"):
            certify_along_flow(u, np.array(times), grid1)

    @pytest.mark.parametrize("times", [0.5, [[0.1, 0.2]]], ids=["scalar", "2d"])
    def test_times_that_are_not_1d(self, grid1, times):
        u = corpus.get("gaussian_shifted").normalized(grid1)
        for op in (flow_curve, certify_along_flow, q_ode_check):
            with pytest.raises(FlowError, match="1-d"):
                op(u, times, grid1)


def _order16(name):
    entry = corpus.get(name)
    grid = build_grid(GaussianMeasureSpec(d=entry.d), 16)
    return entry.normalized(grid), grid.nodes


def _readings(v, x):
    """Every array v's evaluation methods return at x: density, jet and
    density_and_hess_log."""
    return [v.density(x), *v.jet(x), *v.density_and_hess_log(x)]


class TestOnePass:
    """One pass over the inner points serves every average a call needs."""

    def test_each_derivative_of_u0_is_evaluated_once(self, grid1, monkeypatch):
        # one jet of u0 per chunk, to the order of the average
        v = mehler_density(corpus.get("bump_r2").normalized(grid1), 0.5)
        calls = Counter()
        original = Bump.jet

        def counted(self, x, order=2):
            calls[order] += 1
            return original(self, x, order)

        monkeypatch.setattr(Bump, "jet", counted)
        x = np.linspace(-3.0, 3.0, 13)[:, None]
        v.density_and_hess_log(x)
        assert calls == {2: 1}
        for order in (0, 1, 2):
            calls.clear()
            v._average(x, order)
            assert calls == {order: 1}, order

    def test_tilt_jet_runs_once_per_average(self, monkeypatch):
        u, x = _order16("tilt_d2")
        calls = Counter()
        original = Tilt.jet

        def counted(self, x, order=2):
            calls[(order, len(x))] += 1
            return original(self, x, order)

        monkeypatch.setattr(Tilt, "jet", counted)
        v = mehler_density(u, 0.5, 16)
        m = v.inner.n_points
        v._average(x, 2)
        assert calls == {(2, len(x) * m): 1}
        calls.clear()
        v.density_and_gradient(x)
        assert calls == {(1, len(x) * m): 1}

    @pytest.mark.parametrize(
        "name", [e.name for e in corpus.entries() if e.d == 1] + ["tilt_d2"]
    )
    def test_joint_pass_matches_one_kind_at_a_time(self, name):
        # the order-2 pass averages h, grad h and Hess h jointly; the passes of
        # order 0 (h alone) and 1 give its first arrays bit for bit
        u, x = _order16(name)
        joint = mehler_density(u, 0.5, 16)._average(x, 2)
        for order in (0, 1):
            got = mehler_density(u, 0.5, 16)._average(x, order)
            assert len(got) == order + 1
            for g, want in zip(got, joint):
                np.testing.assert_array_equal(g, want)

    def test_quadrature_evolve_repeats_no_average(self, grid2_order4, monkeypatch):
        # no call averages to the same order on the same inner rule and node
        # set twice; started at the grid order, the inner rule doubles six times
        # and stops at its cap unconverged, which warns
        calls = Counter()
        original = ou_flow.EvolvedDensity._average

        def counted(self, x, order):
            calls[(order, self.inner.order, len(x))] += 1
            return original(self, x, order)

        monkeypatch.setattr(ou_flow.EvolvedDensity, "_average", counted)
        u = normalize(_OVERLAPPING, grid2_order4)
        with pytest.warns(UserWarning, match="inner rule error"):
            state = evolve(u, 0.5, grid2_order4)
        assert state.inner_order == 256
        assert calls and max(calls.values()) == 1, calls

    @pytest.mark.parametrize(
        "reader",
        ["bochner_identity", "fisher_flux_identity", "pressure_integrals", "hessian_defect"],
    )
    def test_identity_readers_average_once_per_node_set(self, grid1, reader, monkeypatch):
        # value, gradient and Hessian of an evolved state come from one joint
        # average on grid.points, the fine nodes followed by the coarse ones;
        # pressure_integrals takes h for its unit-norm check and moment gap
        # from the fine nodes' share of that jet
        v = evolve(corpus.get("hermite_mixed").normalized(grid1), 0.3, grid1).v
        assert isinstance(v, ou_flow.EvolvedDensity)
        calls = Counter()
        original = ou_flow.EvolvedDensity._average

        def counted(self, x, order):
            calls[(order, len(x))] += 1
            return original(self, x, order)

        monkeypatch.setattr(ou_flow.EvolvedDensity, "_average", counted)
        if reader == "hessian_defect":
            ou_flow._hessian_defect_integral(v, grid1)
        else:
            getattr(functionals, reader)(v, grid1)
        assert calls == Counter({(2, grid1.n_points + grid1.coarse.n_points): 1})

    @pytest.mark.parametrize("name", ["bump_r2", "hermite_mixed", "tilt_d2"])
    def test_chunks_match_a_single_chunk(self, name, monkeypatch):
        u, x = _order16(name)
        readings = _readings(mehler_density(u, 0.5, 16), x)
        whole = mehler_density(u, 0.5, 16)._average(x, 2)
        # eight outer points per chunk, whole blocks of the rows BLAS sums
        # together: the same bits as one chunk
        monkeypatch.setattr(functions, "_POINT_BUDGET", 8 * 16**u.d * u.d**2)
        for chunked, want in zip(_readings(mehler_density(u, 0.5, 16), x), readings, strict=True):
            np.testing.assert_array_equal(chunked, want)
        # BLAS sums the rows of a matrix-vector product in blocks (of four
        # here) and the remainder rows in another order, so ragged chunks of
        # three points change the averages by rounding only
        monkeypatch.setattr(functions, "_POINT_BUDGET", 3 * 16**u.d * u.d**2)
        chunked = mehler_density(u, 0.5, 16)._average(x, 2)
        for got, want in zip(chunked, whole, strict=True):
            atol = 8 * np.finfo(float).eps * np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)


_CLOSED_FORMS = ["gaussian_shifted", "gaussian_d2_aniso", "tilt_half", "tilt_d2"]
# two_bumps at d = 2 have no exact average: the quadrature path, which at
# t = 0.5 ends at order 256 with an inner error above INNER_TOL (a warning)
_OVERLAPPING = TwoBumps(height=2.0, radius=4.0, separation=1.0, d=2)


class TestClosedForm:
    """Gaussian profiles and tilts evolve in closed form inside evolve."""

    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("name", _CLOSED_FORMS)
    def test_matches_the_quadrature_reference(self, name, t):
        u, x = _order16(name)
        exact, reference = u.evolved(t), mehler_density(u, t, 64)
        readings = [exact.density(x), *exact.jet(x)]
        for got, want in zip(readings, [reference.density(x), *reference.jet(x)], strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
        _, mask, hess_log = exact.density_and_hess_log(x)
        _, ref_mask, ref_hess_log = reference.density_and_hess_log(x)
        np.testing.assert_array_equal(mask, ref_mask)
        # exactly 0 for a tilt: a relative error means nothing there; the
        # closed form is one row for every masked point
        np.testing.assert_allclose(
            np.broadcast_to(hess_log, ref_hess_log.shape), ref_hess_log, rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("name", _CLOSED_FORMS)
    def test_semigroup_law(self, name):
        u = corpus.get(name).function()
        for s, t in [(0.1, 0.4), (0.5, 1.5), (2.0, 0.3)]:
            nested, direct = u.evolved(s).evolved(t).params(), u.evolved(s + t).params()
            assert nested.keys() == direct.keys()
            for key in nested:
                np.testing.assert_allclose(nested[key], direct[key], rtol=8 * np.finfo(float).eps)

    @pytest.mark.parametrize("name", _CLOSED_FORMS)
    def test_evolve_takes_the_exact_path(self, name, grid1, grid2):
        grid = {1: grid1, 2: grid2}[corpus.get(name).d]
        u = corpus.get(name).normalized(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = evolve(u, 0.5, grid)
        assert st.inner_order == 0
        assert st.inner_error == 0.0
        assert st.v.family == u.family
        with pytest.raises(FlowError, match="nonnegative"):
            evolve(u, -0.5, grid)

    def test_quadrature_families_have_no_closed_form(self, grid2_order4):
        for name in ("hermite_mixed", "affine_eps01", "bump_r2", "two_bumps_wide"):
            assert corpus.get(name).function().evolved(0.5) is None
        assert _OVERLAPPING.evolved(0.5) is None
        with pytest.warns(UserWarning, match="inner rule error"):
            st = evolve(normalize(_OVERLAPPING, grid2_order4), 0.5, grid2_order4)
        assert st.inner_order >= 64
        assert st.inner_error > 0.0

    def test_unit_variance_stays_admissible(self):
        # e^{-2t} + (1 - e^{-2t}) can round above 1, which the family rejects
        u = GaussianProfile(sigma2=np.array([1.0, 1.0]))
        for t in np.linspace(0.01, 5.0, 200):
            s2 = u.evolved(float(t)).sigma2
            assert np.all(s2 <= 1.0)
            np.testing.assert_allclose(s2, 1.0, rtol=2 * np.finfo(float).eps)


def _quad_reference(u, x, t):
    """h, grad h and Hess h of P_t(u^2) at the 1-d points x, for a bump or
    two_bumps u, each by scipy.integrate.quad in y with the support ends as
    breakpoints; shape (3, n)."""
    from scipy import integrate

    if u.family == "bump":
        lobes, base = [(float(u.center[0]), 1.0)], 0.0
    else:
        lobes, base = [(u.separation, u.height), (-u.separation, u.height)], 1.0
    r, amp = u.radius, u.amplitude

    def jet(z, k):
        # u, u' and u'' from the lobes height (1 - w^2)_+^2, then h0 = u^2
        v, g, c = base, 0.0, 0.0
        for center, height in lobes:
            w = (z - center) / r
            if abs(w) < 1.0:
                q = 1.0 - w * w
                v += height * q * q
                g -= 4.0 * height * w * q / r
                c += height * (12.0 * w * w - 4.0) / r**2
        v, g, c = amp * v, amp * g, amp * c
        return (v * v, 2.0 * v * g, 2.0 * (g * g + v * c))[k]

    decay, spread = math.exp(-t), math.sqrt(-math.expm1(-2.0 * t))
    out = np.empty((3, len(x)))
    for i, m in enumerate(decay * np.asarray(x)):
        ends = sorted((c + side * r - m) / spread for c, _ in lobes for side in (-1, 1))
        lo, hi, inner = (ends[0], ends[-1], ends[1:-1]) if base == 0.0 else (-40.0, 40.0, ends)
        for k in range(3):
            def f(y, k=k):
                return jet(m + spread * y, k) * math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)

            # grad h and Hess h cross 0: their absolute floor is relative to h
            floor = 0.0 if k == 0 else 1e-11 * out[0, i]
            out[k, i] = integrate.quad(
                f, lo, hi, points=inner or None, epsabs=floor, epsrel=1e-12, limit=200
            )[0]
    return out


def _exact_cases():
    """Corpus bumps and two_bumps, a seeded sample of the workload ranges and
    two_bumps whose lobes overlap."""
    rng = random.Random(11)
    fns = [corpus.get(n).function() for n in ("bump_r1", "bump_r2", "bump_r4", "two_bumps_wide")]
    fns += [
        Bump(radius=rng.uniform(1.0, 4.0), center=np.array([rng.uniform(-0.5, 0.5)]))
        for _ in range(2)
    ]
    fns += [
        TwoBumps(
            height=rng.uniform(0.7, 1.5),
            radius=rng.uniform(1.5, 2.5),
            separation=rng.uniform(3.5, 5.0),
        )
    ]
    return fns + _OVERLAPS


# lobes that overlap: widely, on a window 0.1 wide (narrower than the
# Gaussian for t > 0.005) and at a tiny separation
_OVERLAPS = [
    TwoBumps(height=2.0, radius=4.0, separation=1.0),
    TwoBumps(height=1.0, radius=2.0, separation=1.9),
    TwoBumps(height=1.5, radius=2.0, separation=0.05),
]


_POLYNOMIALS = [e.name for e in corpus.entries() if e.function().family in ("affine", "hermite")]
_FIXTURES = Path(__file__).with_name("golden") / "families"


def _fixture(name):
    return build_function(json.loads((_FIXTURES / f"{name}.json").read_text(encoding="utf-8")))


# corpus entries of each family with an exact average
_EXACT_FAMILIES = ["bump_r2", "two_bumps_wide", "affine_eps02", "hermite_mixed"]


class TestUpperMoments:
    def test_within_1e_11_of_quad_on_0_to_8(self):
        # U_k(lam) = phi(lam) int_0^inf t^k e^{-lam t - t^2/2} dt; the grid has
        # step 0.02 and holds lam = 2.46, where a split at 2.5 was off 1.8e-11
        from scipy import integrate

        from glslab.windows import _upper_moments

        lam = np.linspace(0.0, 8.0, 401)
        got = _upper_moments(lam)
        for k in range(9):
            want = np.array([
                math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi) * integrate.quad(
                    lambda t: t**k * math.exp(-a * t - 0.5 * t * t),
                    0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200,
                )[0]
                for a in lam
            ])
            np.testing.assert_allclose(got[k], want, rtol=1e-11, atol=0, err_msg=f"k = {k}")


class TestExactAverage:
    """d = 1 bumps and two_bumps average exactly along the flow."""

    @staticmethod
    def _check_against_reference(u, x, t):
        h, g, hh = (a[0] for a in u.ou_average(x, [t], 2))
        g, hh = g[:, 0], hh[:, 0, 0]
        rh, rg, rhh = _quad_reference(u, x, t)
        # the probes the certifier keeps
        on = rh > 1e-10 * rh.max()
        assert on.sum() > 40
        assert np.all(np.abs(h - rh)[on] <= 1e-7 * rh[on]), t
        # a floor of 1e-3 h where grad h crosses 0, above the reference's own
        scale = np.maximum(np.abs(rg), 1e-3 * rh)
        assert np.all(np.abs(g - rg)[on] <= 1e-7 * scale[on]), t
        hess_log = hh[on] / h[on] - (g[on] / h[on]) ** 2
        ref = rhh[on] / rh[on] - (rg[on] / rh[on]) ** 2
        assert np.all(np.abs(hess_log - ref) <= 1e-5 * np.maximum(1.0, np.abs(ref))), t

    @pytest.mark.parametrize("u", _exact_cases(), ids=lambda u: u.family)
    def test_matches_an_independent_reference(self, u, grid1):
        u = normalize(u, grid1)
        reach = u.support_radius or u.separation + u.radius
        x = np.concatenate([grid1.nodes[:, 0], _probe_cloud(1, 64)[:, 0]])
        for t in (0.5 * t_star_compact(reach), t_star_compact(reach), 0.1):
            self._check_against_reference(u, x, t)

    @pytest.mark.parametrize(
        "u",
        [
            pytest.param(Bump(radius=0.25), id="bump"),
            pytest.param(TwoBumps(height=2.0, radius=0.3, separation=1.0), id="two_bumps"),
            pytest.param(TwoBumps(height=2.0, radius=0.3, separation=0.1), id="two_bumps_overlap"),
        ],
    )
    def test_windows_narrower_than_the_gaussian_match_the_reference(self, u):
        # s = sqrt(1 - e^{-2t}) above the radius: the Gauss-Legendre branch
        x = _probe_cloud(1, 96)[:, 0]
        for t in (0.3, 1.0, 3.0):
            assert math.sqrt(-math.expm1(-2.0 * t)) > u.radius
            self._check_against_reference(u, x, t)

    @pytest.mark.parametrize(
        "u",
        [
            pytest.param(corpus.get(name).function(), id=name)
            for name in ("bump_r1", "bump_r2", "bump_r4", "two_bumps_wide")
        ]
        + [
            pytest.param(_OVERLAPS[0], id="overlap_wide"),
            # the exact average is within 2e-15 of scipy's quad here; the
            # order-256 rule is 4.7e-6 off at t = 0.1, above its inner error 2.1e-6
            pytest.param(
                _OVERLAPS[1],
                id="overlap_narrow",
                marks=pytest.mark.xfail(
                    strict=True, reason="the inner error understates the rule's own error"
                ),
            ),
            pytest.param(_OVERLAPS[2], id="overlap_tiny_separation"),
        ],
    )
    def test_matches_the_quadrature_within_its_inner_error(self, u, grid1):
        u = normalize(u, grid1)
        for t in (0.1, 0.5, 1.0):
            err, quad = ou_flow._inner_mismatch(mehler_density(u, t, 256), grid1)
            exact = u.ou_average(grid1.nodes, [t], 0)[0][0]
            assert grid1.weights @ np.abs(exact - quad) <= err, t

    @pytest.mark.parametrize(
        "u",
        [pytest.param(corpus.get(name).function(), id=name) for name in _EXACT_FAMILIES]
        + [
            pytest.param(_fixture("affine_d3"), id="affine_d3"),
            pytest.param(_fixture("hermite_d3"), id="hermite_d3"),
            pytest.param(Bump(radius=0.25), id="narrow_bump"),
            pytest.param(_OVERLAPS[0], id="overlapping_two_bumps"),
        ],
    )
    def test_lower_orders_are_a_prefix_of_order_2(self, u):
        # ou_average(x, [t], k) and _average(x, k) give the first k + 1 arrays
        # of order 2 bit for bit, the narrow window (radius 0.25) included
        x = _probe_cloud(u.d, 64)
        v = ou_flow.EvolvedDensity(u0=u, t=0.5)
        full, evolved = [a[0] for a in u.ou_average(x, [0.5], 2)], v._average(x, 2)
        for order in (0, 1):
            averages = [a[0] for a in u.ou_average(x, [0.5], order)]
            for got, want in ((averages, full), (v._average(x, order), evolved)):
                assert len(got) == order + 1
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)

    def test_overlapping_certificate_has_the_reference_margin(self, grid1):
        # the order-256 inner rule of the quadrature path put this margin at
        # +0.0164; M = 1 - Hess log h_t with Hess h_t = e^{-2t} P_t h0''
        t = 0.05
        u = normalize(TwoBumps(height=2.0, radius=4.0, separation=1.0), grid1)
        st = evolve(u, t, grid1)
        assert st.inner_order == 0
        cert = certify(st.v, grid1)
        rh, rg, rhh = _quad_reference(u, cert.worst_point, t)[:, 0]
        reference = 1.0 - math.exp(-2.0 * t) * (rhh / rh - (rg / rh) ** 2)
        assert cert.min_eigenvalue == pytest.approx(reference, rel=0, abs=1e-6)
        assert reference == pytest.approx(0.050652, rel=0, abs=1e-6)

    @pytest.mark.parametrize("name", [e.name for e in corpus.entries()])
    def test_every_corpus_entry_evolves_without_an_inner_rule(self, name):
        entry = corpus.get(name)
        grid = build_grid(GaussianMeasureSpec(d=entry.d), 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = evolve(entry.normalized(grid), 0.5, grid)
        assert st.inner_order == 0

    @pytest.mark.parametrize("name", _EXACT_FAMILIES)
    def test_evolve_takes_the_exact_path(self, name, grid1):
        u = corpus.get(name).normalized(grid1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = evolve(u, 0.5, grid1)
        assert st.inner_order == 0
        assert st.inner_error == 0.0
        assert st.v.inner is None
        assert st.v.to_json()["params"]["inner_order"] == 0
        assert abs(l2_norm(st.v, grid1) - 1.0) < 1e-12

    def test_other_cases_keep_the_quadrature_path(self, grid2_order4):
        # every d = 1 two_bumps averages exactly, touching or overlapping;
        # bumps and two_bumps at d = 2 do not
        for separation in (2.0, 1.9):
            d1 = TwoBumps(height=1.0, radius=2.0, separation=separation)
            assert d1.ou_average(np.zeros((1, 1)), [0.5], 0) is not None
        x = grid2_order4.nodes
        overlapping = TwoBumps(height=1.0, radius=2.0, separation=1.9, d=2)
        assert overlapping.ou_average(x, [0.5], 0) is None
        bump_d2 = Bump(radius=2.0, center=np.zeros(2))
        assert bump_d2.ou_average(x, [0.5], 0) is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            st = evolve(normalize(overlapping, grid2_order4), 0.5, grid2_order4)
        assert st.inner_order >= 64
        assert st.inner_error > 0.0
        with pytest.raises(FlowError, match="no exact average"):
            ou_flow.EvolvedDensity(u0=overlapping, t=0.5).density(x)


class TestPolynomialAverage:
    """Affine and Hermite u of degree k_i along axis i average exactly over
    the tensor product of the order-(k_i + 1) Gauss-Hermite rules, at any d."""

    @pytest.mark.parametrize("t", [0.01, 0.1, 0.5, 2.0])
    @pytest.mark.parametrize("name", _POLYNOMIALS + ["affine_d3", "hermite_d3"])
    def test_matches_the_quadrature_reference(self, name, t):
        if name in _POLYNOMIALS:
            u, x = _order16(name)
            reference = mehler_density(u, t, 64)
        else:
            # an order-64 reference is 64^3 inner points for each node, minutes
            # of work; order 8 is still well above the exact orders 2 and 3
            grid = build_grid(GaussianMeasureSpec(d=3), 8)
            u, x = normalize(_fixture(name), grid), grid.nodes
            reference = mehler_density(u, t, 8)
        x = np.concatenate([x, _probe_cloud(u.d, 64)])
        exact = ou_flow.EvolvedDensity(u0=u, t=t)
        got, want = exact.jet(x), reference.jet(x)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12 * np.abs(w).max())
        h, mask, hess_log = exact.density_and_hess_log(x)
        ref_h, ref_mask, ref_hess_log = reference.density_and_hess_log(x)
        np.testing.assert_allclose(h, ref_h, rtol=0, atol=1e-12 * ref_h.max())
        np.testing.assert_array_equal(mask, ref_mask)
        np.testing.assert_allclose(hess_log, ref_hess_log, rtol=0, atol=5e-12)

    # degree 12 along the first axis alone
    _ONE_AXIS = (((0, 0, 0), 1.0), ((12, 0, 0), 1e-12))

    def test_the_rule_has_the_degree_of_the_function(self, monkeypatch):
        points = []
        original = functions.inner_average

        def recorded(u0, x, t, order, nodes, weights):
            points.append(len(weights))
            return original(u0, x, t, order, nodes, weights)

        monkeypatch.setattr(functions, "inner_average", recorded)
        quartic = corpus.get("hermite_quartic").function()
        one_axis = HermiteExpansion(terms=self._ONE_AXIS, d=3)
        mixed = HermiteExpansion(terms=(((0, 0, 0), 1.0), ((1, 0, 2), 0.01)), d=3)
        for u in (_fixture("affine_d3"), _fixture("hermite_d3"), quartic, one_axis, mixed):
            u.ou_average(np.zeros((1, u.d)), [0.5], 0)
        # per-axis degrees 1 1 1, 2 2 2, 4, 12 0 0 and 1 0 2
        assert points == [2**3, 3**3, 5, 13, 2 * 1 * 3]

    def test_one_high_degree_axis_averages_at_order_64(self, grid3):
        # 13^3 inner points per node put this past the envelope; 13 do not
        u = normalize(HermiteExpansion(terms=self._ONE_AXIS, d=3), grid3)
        h = u.ou_average(grid3.nodes, [0.3], 0)[0][0]
        # P_t conserves mass
        assert abs(float(grid3.weights @ h) - 1.0) < 1e-12

    def test_one_high_degree_axis_matches_the_quadrature_reference(self):
        grid = build_grid(GaussianMeasureSpec(d=3), 16)
        u = normalize(HermiteExpansion(terms=self._ONE_AXIS, d=3), grid)
        # every 16th node and a probe cloud: the order-13 reference costs
        # 13^3 inner points per point
        x = np.concatenate([grid.nodes[::16], _probe_cloud(3, 64)])
        exact = ou_flow.EvolvedDensity(u0=u, t=0.3)
        reference = mehler_density(u, 0.3, 13)
        for g, w in zip(exact.jet(x), reference.jet(x), strict=True):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-14 * np.abs(w).max())

    @pytest.mark.parametrize("name", ["affine_d3", "hermite_d3"])
    def test_d3_fixtures_evolve_at_order_64(self, name, grid3):
        # the moments decay by their exact laws
        u = normalize(_fixture(name), grid3)
        st0, st = evolve(u, 0.0, grid3), evolve(u, 0.3, grid3)
        assert st.inner_order == 0
        assert st.inner_error == 0.0
        assert abs(st.mass - 1.0) < 1e-9
        np.testing.assert_allclose(
            st.first_moment, math.exp(-0.3) * st0.first_moment, rtol=0, atol=1e-12
        )
        assert st.second_moment_gap == pytest.approx(
            math.exp(-0.6) * st0.second_moment_gap, abs=1e-12
        )


class TestCapacity:
    """Averages beyond the point envelope fail before any work."""

    def test_d3_quadrature_evolve_fails_fast(self, grid3):
        u = normalize(Bump(radius=2.0, center=np.zeros(3)), grid3)
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="envelope"):
            evolve(u, 0.5, grid3)
        assert time.perf_counter() - start < 1.0

    def test_envelope_is_counted_in_outer_times_inner_points(self, grid1, monkeypatch):
        v = mehler_density(corpus.get("bump_r2").normalized(grid1), 0.5, 16)
        x = np.linspace(-2.0, 2.0, 9)[:, None]
        monkeypatch.setattr(functions, "MAX_AVERAGE_POINTS", 9 * 16)
        v.density(x)
        monkeypatch.setattr(functions, "MAX_AVERAGE_POINTS", 9 * 16 - 1)
        with pytest.raises(CapacityError):
            v.density(x)

    def test_a_report_within_the_per_node_set_bound_still_runs(self, monkeypatch):
        # report averages the grid's n nodes and its partner's n_c < n in one
        # call: twice n x m, the bound one node set had, holds both
        assert functions.MAX_AVERAGE_POINTS >= 2 * (1 << 29)
        grid = build_grid(GaussianMeasureSpec(d=2), 8)
        u = normalize(Bump(radius=4.0, center=np.zeros(2)), grid)
        ref = evolve(u, 0.5, grid)
        m = ref.inner_order**2
        monkeypatch.setattr(functions, "MAX_AVERAGE_POINTS", 2 * grid.n_points * m)
        st = evolve(u, 0.5, grid)
        assert (st.inner_order, st.entropy, st.fisher) == (ref.inner_order, ref.entropy, ref.fisher)

    def test_an_inner_order_report_cannot_finish_fails_before_its_averages(self, monkeypatch):
        grid = build_grid(GaussianMeasureSpec(d=2), 8)
        u = normalize(Bump(radius=4.0, center=np.zeros(2)), grid)
        m = evolve(u, 0.5, grid).inner_order ** 2
        sizes = []

        def spy(u0, x, t, order, nodes, weights):
            sizes.append(weights.shape[0])
            return functions.inner_average(u0, x, t, order, nodes, weights)

        monkeypatch.setattr(ou_flow, "inner_average", spy)
        monkeypatch.setattr(functions, "MAX_AVERAGE_POINTS", grid.points.shape[0] * m - 1)
        with pytest.raises(CapacityError, match="envelope"):
            evolve(u, 0.5, grid)
        assert sizes and m not in sizes


class TestFlowCurve:
    def test_monotone_functionals(self, grid1):
        u = corpus.get("hermite_mixed").normalized(grid1)
        states = flow_curve(u, np.array([0.0, 0.2, 0.5, 1.0]), grid1)
        ents = [s.entropy for s in states]
        fishs = [s.fisher for s in states]
        assert all(a >= b - 1e-10 for a, b in zip(ents, ents[1:]))
        assert all(a >= b - 1e-10 for a, b in zip(fishs, fishs[1:]))

    def test_rejects_unsorted_times(self, grid1):
        u = corpus.get("tilt_half").normalized(grid1)
        with pytest.raises(FlowError):
            flow_curve(u, np.array([0.5, 0.2]), grid1)
        with pytest.raises(FlowError):
            flow_curve(u, np.array([]), grid1)

    def test_csv_rows_round_trip(self, grid1):
        u = corpus.get("gaussian_shifted").normalized(grid1)
        states = flow_curve(u, np.array([0.1, 0.6]), grid1)
        rows = flow_csv_rows(states)
        assert rows[0] == ",".join(FLOW_CSV_COLUMNS)
        assert len(rows) == 3
        for row, st in zip(rows[1:], states):
            fields = [float(tok) for tok in row.split(",")]
            # %.17g is lossless for binary64
            assert fields[0] == st.t
            assert fields[1] == st.entropy
            assert fields[2] == st.fisher
            assert fields[4] == st.ratio_q

    def test_csv_nan_for_undefined_ratio(self, grid1):
        st = evolve(GaussianProfile(sigma2=np.array([1.0])), 0.5, grid1)
        row = flow_csv_rows([st])[1]
        assert math.isnan(float(row.split(",")[4]))


def _batch_case(name):
    """(u, times, grid, n_probes) of one batched op.  The d = 3 tilt reads
    the full grid at its first two times and the pruned twin at the last
    two; the bump of radius 0.5 takes the Gauss-Legendre branch at t = 0.3
    and 3 (beta = s / R > 1) and the half-line sums at t = 0.01; bump_d2
    takes the quadrature path, whose certificates read 16 probes."""
    d1 = (0.0, 0.05, 0.3, 1.0)
    cases = {
        "tilt_d1": (lambda: corpus.get("tilt_half").function(), d1, 1, 64),
        "tilt_d3_twin": (lambda: Tilt(a=np.full(3, 0.8)), (0.0, 0.1, 0.3, 1.0), 3, 64),
        "gaussian_d2": (lambda: corpus.get("gaussian_d2_aniso").function(), (0.0, 0.2, 1.0), 2, 64),
        "affine_d3": (lambda: _fixture("affine_d3"), (0.0, 0.1, 0.5), 3, 16),
        "hermite_mixed": (lambda: corpus.get("hermite_mixed").function(), d1, 1, 64),
        "bump_narrow": (lambda: Bump(radius=0.5), (0.01, 0.3, 3.0), 1, 64),
        "two_bumps_overlap": (lambda: _OVERLAPS[1], d1, 1, 64),
        "bump_d2": (lambda: _fixture("bump_d2"), (0.0, 0.3), 2, 8),
    }
    build, times, d, order = cases[name]
    grid = build_grid(GaussianMeasureSpec(d=d), order)
    return normalize(build(), grid), list(times), grid, 16 if name == "bump_d2" else None


def _records(items):
    # every float as repr writes it, which round-trips: equal text is equal bits
    return json.dumps([[r.to_json() for r in item] for item in items])


class TestOneBatchPerOp:
    """flow_curve and certify_along_flow evolve all their times in one
    _evolve call, in batches; every state and certificate has the bits of
    evolve and certify at its time alone."""

    @pytest.mark.parametrize(
        "name",
        [
            "tilt_d1",
            "tilt_d3_twin",
            "gaussian_d2",
            "affine_d3",
            "hermite_mixed",
            "bump_narrow",
            "two_bumps_overlap",
            "bump_d2",
        ],
    )
    def test_equals_one_time_at_a_time(self, name):
        u, times, grid, n_probes = _batch_case(name)
        with warnings.catch_warnings():
            # bump_d2's inner rule stops at its cap with a warning
            warnings.simplefilter("ignore", UserWarning)
            states = [evolve(u, t, grid) for t in times]
            certified = [(s, certify(s.v, grid, n_probes)) for s in states]
            assert _records([s] for s in flow_curve(u, times, grid)) == _records([s] for s in states)
            assert _records(certify_along_flow(u, times, grid, n_probes)) == _records(certified)
        if name == "tilt_d3_twin":
            envelope = functions.Envelope
            integrands = (envelope.entropy, envelope.fisher, envelope.moments)
            reads = [functions.pruned_read(s.v, grid, *integrands)[0] is grid for s in states]
            assert reads == [True, True, False, False]
        if name == "bump_narrow":
            betas = [math.sqrt(-math.expm1(-2.0 * t)) / u.radius for t in times]
            assert min(betas) < 1.0 < max(betas)

    def test_batches_hold_one_block_of_rows(self, grid1, monkeypatch):
        # every time of a d = 1 op shares one average, until times x rows
        # passes functions._BLOCK
        u = normalize(Bump(radius=2.0), grid1)
        calls = []
        original = Bump.ou_average

        def counted(self, x, times, order):
            calls.append(len(times))
            return original(self, x, times, order)

        monkeypatch.setattr(Bump, "ou_average", counted)
        times = np.linspace(0.1, 1.0, 10)
        want = flow_curve(u, times, grid1)
        assert calls == [10]
        calls.clear()
        monkeypatch.setattr(ou_flow, "_BLOCK", 4 * grid1.points.shape[0])
        assert _records([s] for s in flow_curve(u, times, grid1)) == _records([s] for s in want)
        assert calls == [4, 4, 2]

    def test_no_average_outlives_its_batch(self):
        # at order 32 each batch is one time of 46592 rows, whose h and
        # grad h take 1.42 MiB: a flow that kept one time's average into the
        # next batch would peak that much above a one-time evolve
        grid = build_grid(GaussianMeasureSpec(d=3), 32)
        u = normalize(_fixture("affine_d3"), grid)

        def peak(op):
            tracemalloc.start()
            try:
                op()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(lambda: evolve(u, 0.5, grid))
        flow = peak(lambda: flow_curve(u, [0.0, 0.1, 0.3, 0.5, 1.0, 2.0], grid))
        assert flow - one <= 0.25 * 2**20


class TestFlowStateIsAReport:
    def test_fields_are_the_report_of_v(self, grid1):
        u = corpus.get("hermite_mixed").normalized(grid1)
        state = evolve(u, 0.5, grid1)
        assert isinstance(state, functionals.FunctionalReport)
        rep = functionals.report(state.v, grid1)
        for name, value in vars(rep).items():
            np.testing.assert_array_equal(getattr(state, name), value, err_msg=name)
        assert state.d == 1 and state.entropy_error > 0.0 and state.fisher_error > 0.0

    def test_compares_and_hashes_by_identity(self, grid2_order4):
        # a d = 2 first_moment is an array, which a generated __eq__ cannot compare
        u = normalize(Tilt(a=np.array([0.3, -0.2])), grid2_order4)
        state = evolve(u, 0.5, grid2_order4)
        twin = evolve(u, 0.5, grid2_order4)
        assert state == state and state != twin
        assert len({state, twin}) == 2
        rep = functionals.report(u, grid2_order4)
        assert rep == rep and rep != functionals.report(u, grid2_order4)


class _Linear:
    """The jet of u = 1 + x / 2 at d = 1, which no admissible family is:
    negative for x < -2."""

    d = 1

    def jet(self, x, order=2):
        u = 1.0 + 0.5 * x[:, 0]
        return (u, np.full((len(u), 1), 0.5), np.zeros((len(u), 1, 1)))[: order + 1]


class TestDerivativeChecks:
    def test_entropy_production(self, grid1):
        r = entropy_production_check(corpus.get("hermite_mixed").normalized(grid1), 0.5, grid1)
        assert abs(r.residual) < 1e-4

    def test_fisher_dissipation(self, grid1):
        r = fisher_dissipation_check(corpus.get("hermite_mixed").normalized(grid1), 0.5, grid1)
        assert abs(r.residual) < 1e-4

    @pytest.mark.parametrize("name", ["hermite_mixed", "two_bumps_wide"])
    def test_fisher_dissipation_error_covers_both_sides(self, grid1, name):
        # the stencil's error on the left, the defect integral's embedded
        # error on the right, as the other identities report theirs
        u = corpus.get(name).normalized(grid1)
        r = fisher_dissipation_check(u, 0.2, grid1)
        lo, mid, hi = ou_flow.stencil_states(u, 0.2, grid1)
        lhs_err = (hi.quadrature_error + lo.quadrature_error) / (2.0 * ou_flow.STENCIL_DT)
        lhs_err += 2.0 * mid.quadrature_error
        rhs, rhs_err = ou_flow._hessian_defect_integral(mid.v, grid1)
        assert r.rhs == rhs
        assert rhs_err > 0.0
        assert r.error == lhs_err + rhs_err

    def test_hessian_defect_refuses_a_negative_function(self, grid1):
        # u = 1 + x / 2 is negative for x < -2; the integrand divides by it
        with pytest.raises(PositivityError, match="negative"):
            ou_flow._hessian_defect_integral(_Linear(), grid1)

    def test_needs_room_for_the_stencil(self, grid1):
        u = corpus.get("tilt_half").normalized(grid1)
        with pytest.raises(FlowError):
            entropy_production_check(u, 1e-4, grid1)

    def test_q_ode_evolves_every_sample_at_once(self, grid1, monkeypatch):
        # the stencils of all samples share one average; a sample time too
        # small for the stencil is refused before any of them is evolved
        u = corpus.get("hermite_mixed").normalized(grid1)
        calls = []
        original = HermiteExpansion.ou_average

        def counted(self, x, times, order):
            calls.append(len(times))
            return original(self, x, times, order)

        monkeypatch.setattr(HermiteExpansion, "ou_average", counted)
        assert len(q_ode_check(u, np.linspace(0.1, 1.0, 10), grid1)) == 10
        assert calls == [30]
        calls.clear()
        with pytest.raises(FlowError, match="centered difference"):
            q_ode_check(u, [0.5, 1e-4], grid1)
        assert calls == []

    @pytest.mark.parametrize(
        "name", ["tilt_half", "affine_eps01", "hermite_mixed", "gaussian_shifted"]
    )
    def test_q_ode_error_is_the_stencil_error_of_q(self, grid1, name):
        # Q = I / E carries (err_I + Q err_E) / E, and its rate the stencil's error
        # (err(t - dt) + err(t + dt)) / (2 dt)
        u = corpus.get(name).normalized(grid1)
        samples = q_ode_check(u, np.array([0.2, 0.5, 1.0]), grid1)
        assert len(samples) == 3
        for s in samples:
            lo, _, hi = ou_flow.stencil_states(u, s.t, grid1)
            err = [(x.fisher_error + x.ratio_q * x.entropy_error) / x.entropy for x in (lo, hi)]
            assert math.isfinite(s.error) and s.error > 0.0, s.t
            assert s.error == (err[0] + err[1]) / (2.0 * ou_flow.STENCIL_DT), s.t

    def test_q_ode_margins(self, grid1):
        u = corpus.get("gaussian_shifted").normalized(grid1)
        samples = q_ode_check(u, np.array([0.2, 0.5, 1.0]), grid1)
        assert len(samples) == 3
        for s in samples:
            assert s.margin > 0
            assert 0.5 <= s.value <= 1.0 + 1e-9


class TestInnerRuleAdaptation:
    """Compactly supported data needs a finer inner rule on the quadrature path,
    which evolve takes for bumps and two_bumps at d >= 2 only; at d = 1 it is
    the reference (mehler_density)."""

    def test_adaptation_rescues_the_certificate(self, grid1):
        # a d = 1 bump is log-concave at every t; the quadrature reference at
        # t* refutes it with the grid's order and certifies it with the doubled rule
        u = corpus.get("bump_r2").normalized(grid1)
        ts = t_star_compact(2.0)
        assert certify(normalize(mehler_density(u, ts, 128), grid1), grid1).certified
        fixed = normalize(mehler_density(u, ts, 64), grid1)
        cert = certify(fixed, grid1)
        assert not cert.certified
        assert cert.min_eigenvalue < -1e-3

    def test_warns_when_cap_is_insufficient(self, grid2_order4):
        # two_bumps at d = 2 have no exact average
        u = normalize(TwoBumps(height=1.0, radius=1.0, separation=0.5, d=2), grid2_order4)
        with pytest.warns(UserWarning, match="inner rule error"):
            st = evolve(u, 0.3, grid2_order4)
        assert st.inner_order == 256

    def test_mass_is_conserved_after_adaptation(self, grid1):
        u = corpus.get("bump_r4").normalized(grid1)
        st = evolve(u, 0.3, grid1)
        assert abs(st.mass - 1.0) < 1e-8
        assert abs(l2_norm(st.v, grid1) - 1.0) < 1e-12
