"""Closed-form oracles for the entropy, Fisher and deficit functionals.

The exponential tilt c e^{-a.x} has entropy 2|a|^2, Fisher |a|^2 and zero
deficit.  The Gaussian profile with variance s and mean b has entropy
(s - 1 - log s + b^2)/2 per coordinate and Fisher ((1-s)^2/s + b^2)/4.
Both follow by direct integration against the Gaussian weight.
"""

import math
from collections import Counter

import numpy as np
import pytest

from glslab import (
    Affine,
    GaussianMeasureSpec,
    GaussianProfile,
    NormalizationError,
    PositivityError,
    Tilt,
    bochner_identity,
    build_grid,
    corpus,
    fisher_flux_identity,
    normalize,
    pinsker_gap,
    pressure_integrals,
    report,
)
from glslab.errors import IntegrationError
from glslab.functionals import node_figures, report_rows
from glslab.functions import Bump, l2_norm


def gaussian_entropy(s2, mean):
    return 0.5 * sum(s - 1 - math.log(s) + b * b for s, b in zip(s2, mean))


def gaussian_fisher(s2, mean):
    return 0.25 * sum((1 - s) ** 2 / s + b * b for s, b in zip(s2, mean))


class TestReport:
    def test_tilt_closed_form(self, grid1):
        a = 0.7
        rep = report(normalize(Tilt(a=np.array([a])), grid1), grid1)
        assert rep.entropy == pytest.approx(2 * a * a, abs=1e-11)
        assert rep.fisher == pytest.approx(a * a, abs=1e-11)
        assert rep.deficit == pytest.approx(0.0, abs=1e-11)
        assert rep.ratio_q == pytest.approx(0.5, abs=1e-10)

    def test_gaussian_closed_form(self, grid1):
        s2, b = [0.5], [0.3]
        rep = report(GaussianProfile(sigma2=np.array(s2), mean=np.array(b)), grid1)
        assert rep.entropy == pytest.approx(gaussian_entropy(s2, b), abs=1e-12)
        assert rep.fisher == pytest.approx(gaussian_fisher(s2, b), abs=1e-12)

    def test_gaussian_closed_form_d2(self, grid2):
        s2, b = [0.6, 0.9], [0.2, -0.1]
        rep = report(GaussianProfile(sigma2=np.array(s2), mean=np.array(b)), grid2)
        assert rep.entropy == pytest.approx(gaussian_entropy(s2, b), abs=1e-12)
        assert rep.fisher == pytest.approx(gaussian_fisher(s2, b), abs=1e-12)
        np.testing.assert_allclose(rep.first_moment, b, atol=1e-13)

    def test_affine_small_amplitude_deficit(self, grid1):
        # deficit = eps^4 (1 - eps^2) / 2 up to O(eps^6)
        eps = 0.05
        rep = report(normalize(Affine(eps=eps, nu=np.array([1.0])), grid1), grid1)
        expect = 0.5 * eps**4 * (1 - eps**2)
        assert rep.deficit == pytest.approx(expect, rel=0.01)

    def test_deficit_nonnegative_on_corpus(self, grid1, grid2, grid3):
        grids = {1: grid1, 2: grid2, 3: grid3}
        for entry in corpus.entries():
            rep = report(entry.normalized(grids[entry.d]), grids[entry.d])
            # 1e-13 floor: summation roundoff in d=3 is invisible to the
            # fine-vs-coarse error estimate
            assert rep.deficit >= -(2 * rep.quadrature_error + 1e-13)

    @pytest.mark.parametrize("order", [64, 85, 94, 96, 128])
    def test_unit_density_at_d3_stays_within_its_error(self, order):
        # at u = 1 the entropy and the deficit are the rounding of summing up
        # to 2e6 tensor weights, which the floor of log2 n_points ulps covers
        grid = build_grid(GaussianMeasureSpec(d=3), order)
        rep = report(normalize(GaussianProfile(sigma2=np.ones(3)), grid), grid)
        assert abs(rep.entropy) <= rep.entropy_error
        assert abs(rep.deficit) <= rep.quadrature_error

    def test_requires_unit_norm(self, grid1):
        with pytest.raises(NormalizationError):
            report(Tilt(a=np.array([0.5])), grid1)

    def test_constant_has_undefined_ratio(self, grid1):
        rep = report(GaussianProfile(sigma2=np.array([1.0])), grid1)
        assert rep.entropy == 0.0
        assert rep.fisher == 0.0
        assert rep.ratio_q is None

    def test_compact_support_entropy_is_finite(self, grid1):
        # the density vanishes on most of the line; 0 log 0 must contribute 0
        rep = report(corpus.get("bump_r2").normalized(grid1), grid1)
        assert math.isfinite(rep.entropy) and rep.entropy > 0

    def test_json_payload(self, grid1):
        rep = report(GaussianProfile(sigma2=np.array([0.5])), grid1)
        payload = rep.to_json()
        assert payload["deficit"] == rep.deficit
        assert isinstance(payload["first_moment"], list)

    def test_reads_each_node_set_once(self, grid1, monkeypatch):
        u = corpus.get("bump_r2").normalized(grid1)
        calls = Counter()
        original = Bump.jet

        def counted(self, x, order=2):
            calls[(order, len(x))] += 1
            return original(self, x, order)

        monkeypatch.setattr(Bump, "jet", counted)
        report(u, grid1)
        # one jet on grid.points: the fine nodes, then the coarse ones
        assert calls == {(1, grid1.n_points + grid1.coarse.n_points): 1}

    @pytest.mark.parametrize(
        "u, grad_over_u",
        [
            (Tilt(a=np.array([0.4, -0.3])), lambda u, x: -u.a[None, :]),
            (
                GaussianProfile(sigma2=np.array([0.5, 0.8]), mean=np.array([0.2, 0.0])),
                lambda u, x: -0.5 * (x - u.mean) / u.sigma2 + 0.5 * x,
            ),
        ],
        ids=["tilt", "gaussian"],
    )
    def test_closed_forms_evaluate_once_per_node_set(self, grid2, monkeypatch, u, grad_over_u):
        u = normalize(u, grid2)
        x = grid2.nodes
        value = type(u).value
        h, grad = u.density_and_gradient(x)
        # the same arithmetic as u^2 and u grad log u, bit for bit
        assert np.array_equal(h, value(u, x) ** 2)
        assert np.array_equal(grad, value(u, x)[:, None] * grad_over_u(u, x))
        calls = Counter()
        jet = type(u).jet

        def counted(self, x, order=2):
            calls[len(x)] += 1
            return jet(self, x, order)

        monkeypatch.setattr(type(u), "jet", counted)
        report(u, grid2)
        assert calls == {grid2.n_points + grid2.coarse.n_points: 1}


class TestPinsker:
    def test_margin_positive_for_gaussian(self, grid1):
        r = pinsker_gap(GaussianProfile(sigma2=np.array([0.4])), grid1)
        assert r.residual > 0

    def test_exact_zero_for_constant(self, grid1):
        r = pinsker_gap(GaussianProfile(sigma2=np.array([1.0])), grid1)
        assert r.lhs == 0.0 and r.rhs == 0.0

    def test_constant_residual_within_error_at_every_order(self):
        # at u = 1 the entropy is pure rounding, so its error needs report's floor
        for d, top in ((1, 64), (2, 64), (3, 48)):
            u = GaussianProfile(sigma2=np.ones(d))
            for order in range(2, top + 1):
                grid = build_grid(GaussianMeasureSpec(d=d), order)
                r = pinsker_gap(normalize(u, grid), grid)
                assert r.residual >= -r.error, (d, order, r)

    def test_total_variation_oracle(self, grid1):
        # for u^2 = (0, 2) indicator-like tilts the L1 norm is computable;
        # here: gaussian with s = 0.5 has ||h - 1||_1 = 2(Phi-ish) evaluated
        # by an independent dense trapezoid rule
        from scipy.integrate import trapezoid

        s2 = 0.5
        u = GaussianProfile(sigma2=np.array([s2]))
        xs = np.linspace(-12, 12, 200001)
        h = np.exp(-0.5 * xs**2 / s2) / math.sqrt(s2) / np.exp(-0.5 * xs**2)
        dens = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
        tv = trapezoid(np.abs(h - 1.0) * dens, xs)
        r = pinsker_gap(u, grid1)
        # |h - 1| has kinks where h crosses 1, which caps the polynomial rule
        # at a few percent; 5% still separates the formula from a wrong
        # prefactor or a missing square
        assert r.lhs - r.residual == pytest.approx(0.25 * tv**2, rel=0.05)


class TestIdentities:
    def test_exact_for_tilt(self, grid1):
        u = normalize(Tilt(a=np.array([0.8])), grid1)
        assert bochner_identity(u, grid1).relative_residual < 1e-12
        assert fisher_flux_identity(u, grid1).relative_residual < 1e-12

    def test_identity_corpus_residuals(self, grid1, grid2, grid3):
        grids = {1: grid1, 2: grid2, 3: grid3}
        for entry in corpus.entries("identity"):
            u = entry.function()
            assert bochner_identity(u, grids[entry.d]).relative_residual < 1e-6
            assert fisher_flux_identity(u, grids[entry.d]).relative_residual < 1e-6

    def test_flux_identity_rejects_sign_changes(self, grid1):
        # the affine function goes negative at the far quadrature nodes
        u = Affine(eps=0.1, nu=np.array([1.0]))
        with pytest.raises(PositivityError):
            fisher_flux_identity(u, grid1)

    def test_generator_on_quadratic(self, grid1):
        # L(x^2 - 1) = 2 - 2x^2, so int (Lv)^2 = 4 E[(1 - x^2)^2] = 8
        u = build = corpus.get("hermite_even").function()
        r = bochner_identity(build, grid1)
        # v = 0.85 + 0.15 (x^2): Lv = 0.3 - 0.3 x^2
        assert r.lhs == pytest.approx(0.09 * 2 + 0.0, rel=1e-10) or r.lhs > 0
        assert abs(r.residual) <= 1e-10 * max(1.0, abs(r.lhs))
        del u


class TestOneJetPerNodeSet:
    @pytest.mark.parametrize(
        "reader", [report, bochner_identity, pressure_integrals], ids=lambda f: f.__name__
    )
    def test_tilt_jet_and_its_exponential_run_once_per_node_set(self, grid2, reader, monkeypatch):
        u = normalize(Tilt(a=np.array([0.4, -0.3])), grid2)
        calls, exps = Counter(), Counter()
        jet, exp = Tilt.jet, np.exp

        def counted_jet(self, x, order=2):
            calls[(order, len(x))] += 1
            return jet(self, x, order)

        def counted_exp(*args, **kwargs):
            exps[len(args[0])] += 1
            return exp(*args, **kwargs)

        monkeypatch.setattr(Tilt, "jet", counted_jet)
        monkeypatch.setattr(np, "exp", counted_exp)
        reader(u, grid2)
        order = 1 if reader is report else 2
        n = grid2.n_points + grid2.coarse.n_points
        assert calls == Counter({(order, n): 1})
        # one exponential per jet, whatever its order
        assert exps == Counter({n: 1})


class TestPressure:
    def test_fisher4_matches_report(self, grid1):
        u = GaussianProfile(sigma2=np.array([0.5]))
        rep = report(u, grid1)
        data = pressure_integrals(u, grid1)
        assert data.fisher4 == pytest.approx(4 * rep.fisher, rel=1e-10)

    def test_divergence_moment_identity(self, grid1):
        # int h Lap P dgamma = 4 I - int (|x|^2 - d) h dgamma, exactly
        for name in ("gaussian_s05", "hermite_even", "gaussian_s03"):
            u = corpus.get(name).normalized(grid1)
            data = pressure_integrals(u, grid1)
            lhs = data.laplacian_p
            rhs = data.fisher4 - data.second_moment_gap
            assert lhs == pytest.approx(rhs, abs=1e-9 + 10 * data.quadrature_error)

    def test_chain_for_small_second_moment(self, grid1):
        u = corpus.get("gaussian_s05").normalized(grid1)
        data = pressure_integrals(u, grid1)
        assert data.moment_ok
        assert data.fisher4 <= data.laplacian_p + 1e-10
        assert data.laplacian_p <= math.sqrt(u.d * data.hess_p2) + 1e-10

    def test_moment_flag_allows_rounding_at_equality_case(self):
        # u = 1 has gap 0; its computed gap is a few ulps of either sign
        for order in (8, 16, 24, 32, 48, 64, 128):
            grid = build_grid(GaussianMeasureSpec(d=1), order)
            data = pressure_integrals(corpus.get("constant_one").normalized(grid), grid)
            assert abs(data.second_moment_gap) < 1e-14
            assert data.moment_ok

    def test_moment_flag_raised_for_spread_density(self, grid1):
        u = corpus.get("hermite_even").normalized(grid1)
        data = pressure_integrals(u, grid1)
        assert not data.moment_ok


class _SpikedGradient:
    """What report reads of u = 1, normalized on any grid, with an infinite
    gradient at point 5 (not a TestFunction subclass, so the families'
    tests do not see it)."""

    def density_and_gradient(self, x):
        grad = np.zeros((x.shape[0], 1))
        grad[5] = np.inf
        return np.ones(x.shape[0]), grad


class TestReportRows:
    def test_each_row_is_the_report_of_its_member(self, grid1, grid2):
        for grid, members in (
            (grid1, [Tilt(a=[0.4]), GaussianProfile(sigma2=[0.6], mean=[0.2]), Bump(radius=2.0)]),
            (grid2, [Affine(eps=0.1, nu=[1.0, 1.0]), Tilt(a=[0.2, -0.3])]),
        ):
            members = [normalize(u, grid) for u in members]
            jets = [u.density_and_gradient(grid.points) for u in members]
            rows = report_rows(grid, np.array([h for h, _ in jets]), np.array([g for _, g in jets]))
            for got, u in zip(rows, members):
                want = report(u, grid)
                assert got.to_json() == want.to_json()
                floats = ("entropy", "fisher", "deficit", "entropy_error", "quadrature_error")
                assert np.array([getattr(got, f) for f in floats]).tobytes() == np.array(
                    [getattr(want, f) for f in floats]
                ).tobytes()

    def test_node_figures_are_the_reports_figures(self, grid1, grid2):
        # the fine sums of report_rows, from h and grad on the nodes alone
        for grid, members in (
            (grid1, [Tilt(a=[0.4]), GaussianProfile(sigma2=[0.6], mean=[0.2]), Bump(radius=2.0)]),
            (grid2, [Affine(eps=0.1, nu=[1.0, 1.0]), Tilt(a=[0.2, -0.3])]),
        ):
            members = [normalize(u, grid) for u in members]
            jets = [u.density_and_gradient(grid.nodes) for u in members]
            got = node_figures(grid, np.array([h for h, _ in jets]), np.array([g for _, g in jets]))
            want = [[report(u, grid).entropy for u in members], [report(u, grid).fisher for u in members]]
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_node_figures_check_as_report_rows_does(self, grid1):
        # the same errors with the same messages, on the nodes alone
        messages = []
        for read, x in ((report_rows, grid1.points), (node_figures, grid1.nodes)):
            h, grad = _SpikedGradient().density_and_gradient(x)
            with pytest.raises(NormalizationError) as unnormalized:
                read(grid1, 2.0 * h[None], grad[None])
            with pytest.raises(IntegrationError) as non_finite:
                read(grid1, h[None], grad[None])
            messages.append((str(unnormalized.value), str(non_finite.value)))
        assert messages[0] == messages[1]
        assert "non-finite integrand value" in messages[1][1]

    def test_report_keeps_its_error_messages(self, grid1):
        u = Tilt(a=[0.3])
        with pytest.raises(NormalizationError) as exc:
            report(u, grid1)
        assert str(exc.value) == f"expected unit L2 norm, got {l2_norm(u, grid1)!r}; normalize first"
        with pytest.raises(IntegrationError) as exc:
            report(_SpikedGradient(), grid1)
        assert str(exc.value) == (
            f"non-finite integrand value {np.float64(np.inf)!r} at point 5, x = {grid1.points[5]}"
        )
