"""Exact-solution oracles for the Ornstein-Uhlenbeck evolution.

A Gaussian stays Gaussian: variance s evolves as 1 + e^{-2t}(s - 1) and the
mean contracts by e^{-t}, which pins entropy and Fisher in closed form.  The
first moment contracts by e^{-t} and the second-moment gap by e^{-2t} for
every initial density, giving family-independent decay laws to test against.
"""

import math
import random
import time
import warnings
from collections import Counter

import numpy as np
import pytest

from glslab import (
    CapacityError,
    FlowError,
    GaussianMeasureSpec,
    GaussianProfile,
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
from glslab import functionals, ou_flow
from glslab.functions import Bump, TwoBumps
from glslab.logconcavity import _probe_cloud
from glslab.ou_flow import FLOW_CSV_COLUMNS
from glslab.stability import t_star_compact


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
            v.with_scale(3.0).hessian(x), 3.0 * v.hessian(x), rtol=1e-12, atol=1e-300
        )


class TestNonFiniteTimes:
    """An infinite or undefined time is refused where the evolved density is built."""

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


def _order16(name):
    entry = corpus.get(name)
    grid = build_grid(GaussianMeasureSpec(d=entry.d), 16)
    return entry.normalized(grid), grid.nodes


_METHODS = ("density", "gradient", "hessian", "hess_log_density")


class TestOnePass:
    """One pass over the inner points serves every kind of average a call needs."""

    def test_each_derivative_of_u0_is_evaluated_once(self, grid1, monkeypatch):
        v = mehler_density(corpus.get("bump_r2").normalized(grid1), 0.5)
        calls = Counter()
        for name in ("value", "gradient", "hessian"):
            original = getattr(Bump, name)

            def counted(self, x, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, x)

            monkeypatch.setattr(Bump, name, counted)
        v.hess_log_density(np.linspace(-3.0, 3.0, 13)[:, None])
        assert calls == {"value": 1, "gradient": 1, "hessian": 1}

    @pytest.mark.parametrize(
        "name", [e.name for e in corpus.entries() if e.d == 1] + ["tilt_d2"]
    )
    def test_joint_pass_matches_one_kind_at_a_time(self, name):
        u, x = _order16(name)
        joint = mehler_density(u, 0.5, 16)._average(x, "h", "grad", "hess")
        for kind, want in zip(("h", "grad", "hess"), joint):
            np.testing.assert_array_equal(mehler_density(u, 0.5, 16)._average(x, kind)[0], want)

    def test_quadrature_evolve_repeats_no_average(self, grid1, monkeypatch):
        # no call averages the same kinds on the same inner rule and node set
        # twice; started at order 4, the inner rule doubles once
        calls = Counter()
        original = ou_flow.EvolvedDensity._average

        def counted(self, x, *kinds):
            calls[(kinds, self.inner.order, len(x))] += 1
            return original(self, x, *kinds)

        monkeypatch.setattr(ou_flow.EvolvedDensity, "_average", counted)
        u = corpus.get("hermite_mixed").normalized(grid1)
        state = evolve(u, 0.5, grid1, inner_order=4)
        assert state.inner_order == 8
        assert calls and max(calls.values()) == 1, calls

    @pytest.mark.parametrize(
        "reader",
        ["bochner_identity", "fisher_flux_identity", "pressure_integrals", "hessian_defect"],
    )
    def test_identity_readers_average_once_per_node_set(self, grid1, reader, monkeypatch):
        # value, gradient and Hessian of an evolved state come from one joint
        # average per node set; pressure_integrals also reads h on the fine
        # nodes for its unit-norm check and moment gap
        v = evolve(corpus.get("hermite_mixed").normalized(grid1), 0.3, grid1).v
        assert isinstance(v, ou_flow.EvolvedDensity)
        calls = Counter()
        original = ou_flow.EvolvedDensity._average

        def counted(self, x, *kinds):
            calls[(kinds, len(x))] += 1
            return original(self, x, *kinds)

        monkeypatch.setattr(ou_flow.EvolvedDensity, "_average", counted)
        if reader == "hessian_defect":
            ou_flow._hessian_defect_integral(v, grid1)
        else:
            getattr(functionals, reader)(v, grid1)
        joint = ("h", "grad", "hess")
        fine, coarse = grid1.n_points, grid1.coarse.n_points
        want = Counter({(joint, fine): 1})
        if reader != "hessian_defect":
            want[(joint, coarse)] = 1
        if reader == "pressure_integrals":
            want[(("h",), fine)] = 1
        assert calls == want

    @pytest.mark.parametrize("name", ["bump_r2", "hermite_mixed", "tilt_d2"])
    def test_chunks_match_a_single_chunk(self, name, monkeypatch):
        u, x = _order16(name)
        kinds = ("h", "grad", "hess")
        whole = {m: getattr(mehler_density(u, 0.5, 16), m)(x) for m in _METHODS}
        whole.update({k: mehler_density(u, 0.5, 16)._average(x, k)[0] for k in kinds})
        # eight outer points per chunk, whole blocks of the rows BLAS sums
        # together: the same bits as one chunk
        monkeypatch.setattr(ou_flow, "_POINT_BUDGET", 8 * 16**u.d)
        for method in _METHODS:
            chunked = getattr(mehler_density(u, 0.5, 16), method)(x)
            np.testing.assert_array_equal(chunked, whole[method])
        # BLAS sums the rows of a matrix-vector product in blocks (of four
        # here) and the remainder rows in another order, so ragged chunks of
        # three points change the averages by rounding only
        monkeypatch.setattr(ou_flow, "_POINT_BUDGET", 3 * 16**u.d)
        for kind in kinds:
            chunked = mehler_density(u, 0.5, 16)._average(x, kind)[0]
            atol = 8 * np.finfo(float).eps * np.abs(whole[kind]).max()
            np.testing.assert_allclose(chunked, whole[kind], rtol=0.0, atol=atol)


_CLOSED_FORMS = ["gaussian_shifted", "gaussian_d2_aniso", "tilt_half", "tilt_d2"]


class TestClosedForm:
    """Gaussian profiles and tilts evolve in closed form inside evolve."""

    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("name", _CLOSED_FORMS)
    def test_matches_the_quadrature_reference(self, name, t):
        u, x = _order16(name)
        exact, reference = u.evolved(t), mehler_density(u, t, 64)
        for method in ("density", "gradient", "hessian"):
            want = getattr(reference, method)(x)
            np.testing.assert_allclose(
                getattr(exact, method)(x), want, rtol=0, atol=1e-13 * np.abs(want).max()
            )
        # exactly 0 for a tilt: a relative error means nothing there
        np.testing.assert_allclose(
            exact.hess_log_density(x), reference.hess_log_density(x), rtol=0, atol=1e-13
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
            default = evolve(u, 0.5, grid)
            explicit = evolve(u, 0.5, grid, inner_order=4)
        for st in (default, explicit):
            assert st.inner_order == 0
            assert st.inner_error == 0.0
            assert st.v.family == u.family
        assert explicit.entropy == default.entropy
        assert explicit.fisher == default.fisher
        with pytest.raises(FlowError, match="nonnegative"):
            evolve(u, -0.5, grid)

    def test_quadrature_families_have_no_closed_form(self, grid1):
        for name in ("hermite_mixed", "affine_eps01", "bump_r2", "two_bumps_wide"):
            assert corpus.get(name).function().evolved(0.5) is None
        st = evolve(corpus.get("hermite_mixed").normalized(grid1), 0.5, grid1)
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
    """Corpus bumps and two_bumps plus a seeded sample of the workload ranges."""
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
    return fns


class TestExactAverage:
    """d = 1 bumps and disjoint two_bumps average exactly along the flow."""

    @staticmethod
    def _check_against_reference(u, x, t):
        h, g, hh = u.ou_average(x, t, ("h", "grad", "hess"))
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
        [Bump(radius=0.25), TwoBumps(height=2.0, radius=0.3, separation=1.0)],
        ids=lambda u: u.family,
    )
    def test_windows_narrower_than_the_gaussian_match_the_reference(self, u):
        # s = sqrt(1 - e^{-2t}) above the radius: the Gauss-Legendre branch
        x = _probe_cloud(1, 96)[:, 0]
        for t in (0.3, 1.0, 3.0):
            assert math.sqrt(-math.expm1(-2.0 * t)) > u.radius
            self._check_against_reference(u, x, t)

    @pytest.mark.parametrize("name", ["bump_r1", "bump_r2", "bump_r4", "two_bumps_wide"])
    def test_matches_the_quadrature_within_its_inner_error(self, name, grid1):
        u = corpus.get(name).normalized(grid1)
        for t in (0.1, 0.5, 1.0):
            err, quad = ou_flow._inner_mismatch(mehler_density(u, t, 256), grid1)
            exact = u.ou_average(grid1.nodes, t, ("h",))[0]
            assert grid1.weights @ np.abs(exact - quad) <= err, t

    def test_one_call_matches_one_kind_at_a_time(self, grid1):
        x = _probe_cloud(1, 64)
        for name in ("bump_r2", "two_bumps_wide"):
            u = corpus.get(name).normalized(grid1)
            joint = u.ou_average(x, 0.5, ("h", "grad", "hess"))
            for kind, want in zip(("h", "grad", "hess"), joint):
                np.testing.assert_array_equal(u.ou_average(x, 0.5, (kind,))[0], want)

    @pytest.mark.parametrize("name", ["bump_r2", "two_bumps_wide"])
    def test_evolve_takes_the_exact_path(self, name, grid1):
        u = corpus.get(name).normalized(grid1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            default = evolve(u, 0.5, grid1)
            explicit = evolve(u, 0.5, grid1, inner_order=4)
        for st in (default, explicit):
            assert st.inner_order == 0
            assert st.inner_error == 0.0
            assert st.v.inner is None
            assert st.v.to_json()["params"]["inner_order"] == 0
        assert explicit.entropy == default.entropy
        assert explicit.fisher == default.fisher
        assert abs(l2_norm(default.v, grid1) - 1.0) < 1e-12

    def test_other_cases_keep_the_quadrature_path(self, grid1):
        x = grid1.nodes
        touching = TwoBumps(height=1.0, radius=2.0, separation=2.0)
        assert touching.ou_average(x, 0.5, ("h",)) is not None
        overlapping = TwoBumps(height=1.0, radius=2.0, separation=1.9)
        assert overlapping.ou_average(x, 0.5, ("h",)) is None
        bump_d2 = Bump(radius=2.0, center=np.zeros(2))
        assert bump_d2.ou_average(np.zeros((1, 2)), 0.5, ("h",)) is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            st = evolve(normalize(overlapping, grid1), 0.5, grid1)
        assert st.inner_order >= 64
        assert st.inner_error > 0.0
        with pytest.raises(FlowError, match="no exact average"):
            ou_flow.EvolvedDensity(u0=overlapping, t=0.5).density(x)


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
        monkeypatch.setattr(ou_flow, "MAX_AVERAGE_POINTS", 9 * 16)
        v.density(x)
        monkeypatch.setattr(ou_flow, "MAX_AVERAGE_POINTS", 9 * 16 - 1)
        with pytest.raises(CapacityError):
            v.density(x)


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


class TestDerivativeChecks:
    def test_entropy_production(self, grid1):
        r = entropy_production_check(corpus.get("hermite_mixed").normalized(grid1), 0.5, grid1)
        assert abs(r.residual) < 1e-4

    def test_fisher_dissipation(self, grid1):
        r = fisher_dissipation_check(corpus.get("hermite_mixed").normalized(grid1), 0.5, grid1)
        assert abs(r.residual) < 1e-4

    def test_needs_room_for_the_stencil(self, grid1):
        u = corpus.get("tilt_half").normalized(grid1)
        with pytest.raises(FlowError):
            entropy_production_check(u, 1e-4, grid1)

    def test_q_ode_margins(self, grid1):
        u = corpus.get("gaussian_shifted").normalized(grid1)
        samples = q_ode_check(u, np.array([0.2, 0.5, 1.0]), grid1)
        assert len(samples) == 3
        for s in samples:
            assert s.margin > 0
            assert 0.5 <= s.q <= 1.0 + 1e-9


class TestInnerRuleAdaptation:
    """Compactly supported data needs a finer inner rule on the quadrature path."""

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

    def test_warns_when_cap_is_insufficient(self, grid1):
        # overlapping lobes have no exact average
        u = normalize(TwoBumps(height=1.0, radius=1.0, separation=0.5), grid1)
        with pytest.warns(UserWarning, match="inner rule error"):
            st = evolve(u, 0.3, grid1)
        assert st.inner_order == 256

    @pytest.mark.parametrize("inner_order", [0, -5, 257, 100000])
    @pytest.mark.parametrize("name", ["hermite_mixed", "bump_r2", "tilt_half"])
    def test_inner_order_outside_the_envelope_is_rejected(self, grid1, name, inner_order):
        # on the quadrature path (hermite_mixed), the exact-average path
        # (bump_r2) and the closed-form path (tilt_half), at t = 0 too, before any work
        u = corpus.get(name).normalized(grid1)
        for t in (0.0, 0.5):
            with pytest.raises(CapacityError, match="inner order"):
                evolve(u, t, grid1, inner_order=inner_order)

    def test_inner_order_envelope_is_inclusive(self, grid1):
        u = corpus.get("tilt_half").normalized(grid1)
        for inner_order in (1, 256):
            assert evolve(u, 0.5, grid1, inner_order=inner_order).inner_order == 0

    def test_mass_is_conserved_after_adaptation(self, grid1):
        u = corpus.get("bump_r4").normalized(grid1)
        st = evolve(u, 0.3, grid1)
        assert abs(st.mass - 1.0) < 1e-8
        assert abs(l2_norm(st.v, grid1) - 1.0) < 1e-12
