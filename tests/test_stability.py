"""Constants, comparison functions and deficit bound verifiers.

The headline constant is C* = 1 + 1/1728, reachable two ways (directly, or
as half of 2 + 1/864); both must agree bit for bit.  The pulled-back ratio
bound and the compact-support constant are two routes to the same number,
q0_lower_bound(C*/2, t*(R)) = C(R)/2, which the tests pin without tolerance
headroom.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glslab import (
    C_STAR,
    ConstraintError,
    DomainError,
    Figures,
    GAUSSIAN_CHEEGER,
    GaussianMeasureSpec,
    GaussianProfile,
    HALVED_CDC,
    POINCARE_LOGCONCAVE,
    StabilityBound,
    build_grid,
    cheeger_sandwich,
    compact_improvement_pipeline,
    constants_table,
    corpus,
    excess_moment_decay_check,
    improved_constant_compact,
    lambda1_tail_lower,
    normalize,
    phi,
    phi_inv,
    poincare_chain,
    psi,
    q0_lower_bound,
    t_star_compact,
    t_star_tail,
    tail_weight,
    tau_of_t,
    verify_bounds,
    verify_compact_support,
    verify_entropy_squared,
    verify_fisher_gap,
    verify_gaussian_tail,
    verify_kappa_weighted,
)
from glslab import stability
from glslab.stability import BOUND_NAMES


def test_constant_values_are_exact():
    assert C_STAR == 1.0 + 1.0 / 1728.0
    assert C_STAR == 0.5 * (2.0 + 1.0 / 864.0)
    assert POINCARE_LOGCONCAVE == 1.0 / 432.0
    assert POINCARE_LOGCONCAVE == 2.0 * HALVED_CDC
    assert GAUSSIAN_CHEEGER == math.sqrt(2.0 / math.pi)


def test_constants_table_relations():
    table = constants_table()
    assert table["c_star"] == table["relations"]["c_star_from_halved_cdc"]
    assert table["poincare_logconcave"] == table["relations"]["poincare_is_double_cdc"]
    assert f"{table['c_star']:.7f}" == "1.0005787"


class TestComparisonFunctions:
    @given(st.floats(0.0, 50.0), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_phi_inverts_phi_inv(self, s, d):
        assert phi(phi_inv(s, d), d) == pytest.approx(s, rel=1e-12, abs=1e-12)

    @given(st.floats(1e-6, 50.0), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_psi_positive_away_from_zero(self, s, d):
        assert psi(s, d) > 0

    def test_psi_at_zero(self):
        assert psi(0.0, 1) == 0.0
        assert psi(0.0, 3) == 0.0

    def test_negative_arguments_rejected(self):
        with pytest.raises(DomainError):
            psi(-0.1, 1)
        with pytest.raises(DomainError):
            phi_inv(-0.1, 2)

    def test_small_s_quadratic_behaviour(self):
        # psi(s) = 2 s^2 / d + O(s^3)
        for d in (1, 2, 3):
            s = 1e-4
            assert psi(s, d) == pytest.approx(2 * s * s / d, rel=1e-3)


class TestWaitingTimes:
    def test_compact_clock(self):
        assert t_star_compact(2.0) == pytest.approx(0.5 * math.log(5.0), rel=1e-15)
        with pytest.raises(DomainError):
            t_star_compact(0.0)

    def test_tail_clock_balances_the_exponent(self):
        # eps tau(t*(eps)) = 1/2 by construction
        for eps in (0.01, 0.1, 0.2):
            assert eps * tau_of_t(t_star_tail(eps)) == pytest.approx(0.5, rel=1e-14)
        with pytest.raises(DomainError):
            t_star_tail(-0.5)
        with pytest.raises(DomainError):
            tau_of_t(-1.0)

    def test_improved_constant_decreases_to_one(self):
        radii = [0.5, 1.0, 2.0, 4.0, 16.0]
        vals = [improved_constant_compact(r) for r in radii]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(1.0 < v < C_STAR for v in vals)
        assert improved_constant_compact(1.0) == 1.0 + (C_STAR - 1.0) / (1.0 + C_STAR)

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 4.0, 8.0])
    def test_pullback_identity(self, radius):
        lhs = q0_lower_bound(0.5 * C_STAR, t_star_compact(radius))
        rhs = 0.5 * improved_constant_compact(radius)
        assert abs(lhs - rhs) <= 1e-15

    def test_pullback_at_time_zero(self):
        assert q0_lower_bound(0.7, 0.0) == pytest.approx(0.7, rel=1e-15)

    @given(st.floats(0.501, 1.5), st.floats(0.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_pullback_stays_in_band(self, q, t):
        val = q0_lower_bound(q, t)
        assert 0.5 < val <= q

    @given(st.floats(0.501, 1.5), st.floats(0.0, 4.0), st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_pullback_monotone_in_time(self, q, t, dt):
        assert q0_lower_bound(q, t + dt) <= q0_lower_bound(q, t)

    def test_pullback_needs_positive_ratio(self):
        with pytest.raises(DomainError):
            q0_lower_bound(0.0, 1.0)


class TestTailEstimate:
    def test_lambda_needs_supercritical_exponent(self):
        with pytest.raises(DomainError):
            lambda1_tail_lower(0.1, 2.0, 0.5)  # eps tau = 0.086 < 1

    def test_lambda_needs_unit_tail_mass(self):
        with pytest.raises(DomainError):
            lambda1_tail_lower(0.1, 0.5, 3.0)

    def test_lambda_value(self):
        eps, a, t = 0.1, 2.0, 3.0
        tau = tau_of_t(t)
        p = eps * tau
        expect = 1.0 / (tau * (p / (p - 1.0) + a ** (1.0 / (p - 1.0))))
        assert lambda1_tail_lower(eps, a, t) == pytest.approx(expect, rel=1e-15)

    def test_tail_integral_oracle(self, grid1):
        # int e^{eps x^2} dN(0, s) = 1 / sqrt(1 - 2 eps s)
        u = GaussianProfile(sigma2=np.array([0.5]))
        tw = tail_weight(u, grid1, eps=0.1)
        assert tw.a_tail == pytest.approx(1.0 / math.sqrt(0.9), rel=1e-10)
        assert tw.t0 == pytest.approx(2.0 * t_star_tail(0.1), rel=1e-15)
        assert tw.constant > 1.0

    def test_exponent_domain(self, grid1):
        u = GaussianProfile(sigma2=np.array([0.5]))
        for bad in (0.0, 0.25, 0.3, -0.1):
            with pytest.raises(DomainError):
                tail_weight(u, grid1, eps=bad)


class TestVerifiers:
    def test_all_bounds_hold_for_centered_gaussian(self, grid1):
        u = corpus.get("gaussian_s05").function()
        results = verify_bounds(u, grid1)
        statuses = {r.name: r.status for r in results}
        assert statuses == {
            "entropy_squared": "verified",
            "fisher_gap": "verified",
            "kappa_weighted": "verified",
            "log_concave": "verified",
            "compact_support": "skipped",
            "gaussian_tail": "verified",
        }
        for r in results:
            if r.status == "verified":
                assert r.margin >= -2.0 * r.quadrature_error

    def test_moment_constraint_skips_spread_densities(self, grid1):
        u = corpus.get("tilt_one").normalized(grid1)
        fig = Figures(u, grid1)
        es = verify_entropy_squared(fig)
        fg = verify_fisher_gap(fig)
        assert es.status == "skipped" and fg.status == "skipped"
        assert not es.constraints["second_moment_at_most_d"]
        assert math.isnan(es.margin)
        assert "second moment gap" in es.message

    def test_centering_constraint(self, grid1):
        u = corpus.get("gaussian_shifted").function()
        kb = verify_kappa_weighted(Figures(u, grid1))
        assert kb.status == "skipped"
        assert not kb.constraints["centered"]

    def test_kappa_matches_entropy_squared_when_slack(self, grid1):
        # centered, second moment below d: kappa = 1 and both right-hand
        # sides coincide in d = 1
        u = corpus.get("gaussian_s05").function()
        fig = Figures(u, grid1)
        assert fig.kappa == pytest.approx(1.0, rel=1e-12)
        kb = verify_kappa_weighted(fig)
        es = verify_entropy_squared(fig)
        assert kb.rhs == pytest.approx(es.rhs, rel=1e-12)

    def test_kappa_covers_the_spread_case(self, grid1):
        # second moment gap is positive here, so the moment-constrained
        # bounds skip but the weighted one still verifies
        u = corpus.get("hermite_even").normalized(grid1)
        fig = Figures(u, grid1)
        assert verify_entropy_squared(fig).status == "skipped"
        kb = verify_kappa_weighted(fig)
        assert kb.status == "verified"
        assert 0.0 < kb.extras["kappa"] < 1.0
        assert kb.margin > 0.01

    def test_fisher_gap_dominates_entropy_squared(self, grid1):
        u = corpus.get("gaussian_s05").function()
        fg = verify_fisher_gap(Figures(u, grid1))
        assert fg.status == "verified"
        assert fg.extras["psi_at_phi_margin"] >= -1e-12

    def test_refuted_certificate_skips_log_concave(self, grid1):
        u = corpus.get("two_bumps_wide").normalized(grid1)
        results = verify_bounds(u, grid1, names=("log_concave",))
        assert len(results) == 1
        assert results[0].status == "skipped"
        assert "refuted" in results[0].message

    def test_compact_support_bound(self, grid1):
        u = corpus.get("bump_r2").normalized(grid1)
        cb = verify_compact_support(Figures(u, grid1))
        assert cb.status == "verified"
        assert cb.extras["support_radius"] == 2.0
        assert cb.constant == pytest.approx(0.5 * improved_constant_compact(2.0), rel=1e-15)

    def test_compact_support_requires_bounded_family(self, grid1):
        # called alone, the verifier gives verify_bounds' skipped record
        u = corpus.get("gaussian_s05").function()
        alone = verify_compact_support(Figures(u, grid1))
        shared = verify_bounds(u, grid1, names=("compact_support",))[0]
        assert alone.status == "skipped"
        assert alone.constraints == {"compact_support": False}
        assert json.dumps(alone.to_json()) == json.dumps(shared.to_json())

    def test_aggregate_skips_unbounded_support(self, grid1):
        u = corpus.get("gaussian_s05").function()
        rec = verify_bounds(u, grid1, names=("compact_support",))[0]
        assert rec.status == "skipped"
        assert "unbounded" in rec.message

    def test_tail_bound_on_gaussian(self, grid1):
        u = corpus.get("gaussian_s05").function()
        tb = verify_gaussian_tail(Figures(u, grid1, eps=0.1))
        assert tb.status == "verified"
        assert tb.extras["a_tail"] == pytest.approx(1.0 / math.sqrt(0.9), rel=1e-9)

    def test_unknown_bound_name(self, grid1):
        with pytest.raises(ConstraintError):
            verify_bounds(corpus.get("gaussian_s05").function(), grid1, names=("spectral",))

    def test_bound_json_round_trip(self, grid1):
        rec = verify_entropy_squared(Figures(corpus.get("gaussian_s05").function(), grid1))
        payload = rec.to_json()
        assert payload["name"] == "entropy_squared"
        assert payload["status"] == "verified"
        assert payload["constraints"] == {"second_moment_at_most_d": True}
        assert isinstance(payload["extras"]["entropy"], float)
        assert isinstance(rec, StabilityBound)


class TestSharedReport:
    """verify_bounds builds one Figures and hands it to every verifier; each
    figure is computed on first use, so a bound pays only for what it reads."""

    def test_verify_bounds_computes_one_report(self, grid1, monkeypatch):
        calls = []
        real = stability.report

        def counting(u, grid):
            calls.append(u)
            return real(u, grid)

        monkeypatch.setattr(stability, "report", counting)
        results = verify_bounds(corpus.get("gaussian_s05").function(), grid1)
        assert len(results) == len(BOUND_NAMES)
        assert len(calls) == 1

    def test_report_only_bounds_skip_certificate_and_tail(self, grid1, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("figure not read by these bounds was computed")

        monkeypatch.setattr(stability, "certify", unexpected)
        monkeypatch.setattr(stability, "tail_weight", unexpected)
        names = ("entropy_squared", "fisher_gap", "kappa_weighted")
        results = verify_bounds(corpus.get("gaussian_s05").function(), grid1, names=names)
        assert [r.status for r in results] == ["verified"] * 3

    @pytest.mark.parametrize("name, tails", [("gaussian_shifted", 0), ("gaussian_s05", 1)])
    def test_tail_integral_runs_only_for_a_bound_that_runs(self, grid1, name, tails, monkeypatch):
        u = corpus.get(name).normalized(grid1)
        # the record of a Figures whose tail was read first, as it once always was
        read_first = Figures(u, grid1)
        read_first.tail
        want = json.dumps(verify_gaussian_tail(read_first).to_json(), sort_keys=True)
        calls = []
        real = stability.tail_weight

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(stability, "tail_weight", counted)
        results = verify_bounds(u, grid1)
        assert len(calls) == tails
        got = results[BOUND_NAMES.index("gaussian_tail")]
        assert json.dumps(got.to_json(), sort_keys=True) == want
        if not tails:
            assert got.status == "skipped"
            assert got.constraints == {"centered": False, "tail_integrable": True}

    @pytest.mark.parametrize("name", [entry.name for entry in corpus.entries()])
    def test_kappa_matches_a_direct_centered_moment(self, name):
        entry = corpus.get(name)
        grid = build_grid(GaussianMeasureSpec(d=entry.d), 16)
        u = entry.normalized(grid)
        fig = Figures(u, grid)
        x = grid.nodes - fig.rep.first_moment
        moment = float(grid.weights @ (u.density(grid.nodes) * (x**2).sum(axis=1)))
        want = fig.rep.l2_norm / max(math.sqrt(u.d), math.sqrt(moment))
        assert fig.kappa == pytest.approx(want, rel=1e-13)

    def test_verify_bounds_calls_the_module_verifier(self, grid1, monkeypatch):
        # wrapping a verifier at the module attribute must reach verify_bounds
        seen = []
        real = stability.verify_kappa_weighted

        def wrapped(fig):
            seen.append(fig)
            return real(fig)

        monkeypatch.setattr(stability, "verify_kappa_weighted", wrapped)
        results = verify_bounds(corpus.get("gaussian_s05").function(), grid1)
        assert len(seen) == 1 and isinstance(seen[0], Figures)
        assert results[BOUND_NAMES.index("kappa_weighted")].status == "verified"

    def test_tail_exponent_out_of_range_is_skipped(self, grid1):
        u = corpus.get("gaussian_s05").function()
        rec = verify_bounds(u, grid1, names=("gaussian_tail",), eps=0.3)[0]
        assert rec.status == "skipped"
        assert rec.constraints == {"tail_integrable": False}
        assert rec.message == "tail exponent must lie in (0, 1/4), got 0.3"

    @pytest.mark.parametrize("name", [entry.name for entry in corpus.entries()])
    def test_standalone_verifiers_match_verify_bounds(self, name):
        # each verifier on a Figures of its own reads only the figures it
        # needs; the records must not depend on what another bound computed
        entry = corpus.get(name)
        grid = build_grid(GaussianMeasureSpec(d=entry.d), 16)
        u = entry.normalized(grid)
        shared = verify_bounds(u, grid)
        for bound, record in zip(BOUND_NAMES, shared):
            alone = getattr(stability, f"verify_{bound}")(Figures(u, grid))
            assert json.dumps(alone.to_json()) == json.dumps(record.to_json()), bound


E_BASED = ("entropy_squared", "fisher_gap", "kappa_weighted", "log_concave")


class TestRoundingFloor:
    """At the equality case u = 1 every margin is rounding; the verdict must
    not depend on how the fine and the coarse rule happen to round."""

    def test_constant_one_verified_at_every_order(self):
        eps = np.finfo(float).eps
        expected = dict.fromkeys(E_BASED + ("gaussian_tail",), "verified")
        expected["compact_support"] = "skipped"
        entropies = []
        # u = 1 in d = 1 and d = 2; d = 2 stops at order 64 to keep the sweep cheap
        for d, orders in ((1, range(2, 257)), (2, range(2, 65))):
            one = GaussianProfile(sigma2=np.ones(d))
            for order in orders:
                grid = build_grid(GaussianMeasureSpec(d=d), order)
                results = verify_bounds(normalize(one, grid), grid)
                assert {r.name: r.status for r in results} == expected, (d, order)
                for r in results:
                    if r.name in E_BASED:
                        # a violation of 1e-12 stays far outside 2 x the error
                        assert r.quadrature_error <= 64 * eps, (d, order, r.name)
                entropies.append(results[0].extras["entropy"])
        # E < 0 by rounding occurs (at d = 2), so fisher_gap's clamp is exercised
        assert min(entropies) < 0.0

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("tilt_half", {}),
            ("tilt_d2", {}),
            ("gaussian_s05", dict.fromkeys(E_BASED + ("gaussian_tail",), "verified")),
        ],
    )
    def test_statuses_do_not_depend_on_order(self, name, expected):
        want = {b: expected.get(b, "skipped") for b in BOUND_NAMES}
        entry = corpus.get(name)
        for order in (8, 32, 64):
            grid = build_grid(GaussianMeasureSpec(d=entry.d), order)
            results = verify_bounds(entry.normalized(grid), grid)
            assert {r.name: r.status for r in results} == want, order


class TestPoincareChain:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_isotropic_value_is_exact(self, d):
        est = poincare_chain(float(d), d)
        assert est.lambda1_logconcave == 1.0 / 432.0

    def test_chain_is_consistent_with_the_gaussian(self):
        # the Gaussian has lambda1 = 1 and Cheeger constant sqrt(2/pi);
        # every link of the chain must sit on the correct side
        lo, hi = cheeger_sandwich(GAUSSIAN_CHEEGER)
        assert lo <= 1.0 <= hi
        est = poincare_chain(1.0, 1)
        assert est.cheeger_lower <= GAUSSIAN_CHEEGER
        assert est.lambda1_lower <= 1.0
        assert est.lambda1_logconcave <= 1.0

    def test_cheeger_lower_value(self):
        est = poincare_chain(4.0, 2)
        assert est.cheeger_lower == pytest.approx(1.0 / (6.0 * math.sqrt(12.0)), rel=1e-15)
        assert est.lambda1_lower == pytest.approx(est.cheeger_lower**2 / 4.0, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            poincare_chain(0.0, 1)
        with pytest.raises(DomainError):
            cheeger_sandwich(-1.0)

    def test_json(self):
        payload = poincare_chain(2.0, 2).to_json()
        assert payload["d"] == 2
        assert payload["lambda1_logconcave"] == pytest.approx(1.0 / 432.0, rel=1e-15)


class TestCompactPipeline:
    @pytest.mark.parametrize("name,radius", [("bump_r1", 1.0), ("bump_r2", 2.0), ("bump_r4", 4.0)])
    def test_verified_across_radii(self, grid1, name, radius):
        u = corpus.get(name).normalized(grid1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = compact_improvement_pipeline(u, grid1)
        assert result.status == "verified"
        assert result.support_radius == radius
        assert result.t_star == pytest.approx(t_star_compact(radius), rel=1e-15)
        assert abs(result.q0_bound - 0.5 * improved_constant_compact(radius)) <= 1e-12
        assert result.certificate.certified
        assert result.q_tstar >= 0.5 * C_STAR - 1e-8
        assert result.q0 >= result.q0_bound - 1e-8

    def test_requires_compact_support(self, grid1):
        with pytest.raises(ConstraintError):
            compact_improvement_pipeline(corpus.get("gaussian_s05").function(), grid1)

    def test_json_nests_the_certificate(self, grid1):
        result = compact_improvement_pipeline(corpus.get("bump_r2").normalized(grid1), grid1)
        payload = result.to_json()
        assert payload["certificate"]["status"] == "certified"
        assert payload["status"] == "verified"


class TestExcessMomentDecay:
    def test_margins_nonnegative(self, grid1):
        u = corpus.get("affine_eps02").normalized(grid1)
        samples = excess_moment_decay_check(u, grid1, np.array([0.25, 0.75, 1.5]))
        assert len(samples) == 3
        for s in samples:
            assert s.margin >= -1e-8
            assert s.bound <= 0.0

    def test_needs_positive_excess(self, grid1):
        with pytest.raises(ConstraintError):
            excess_moment_decay_check(
                corpus.get("gaussian_s05").function(), grid1, np.array([0.5])
            )

    def test_needs_room_for_the_stencil(self, grid1):
        u = corpus.get("affine_eps02").normalized(grid1)
        with pytest.raises(DomainError):
            excess_moment_decay_check(u, grid1, np.array([1e-4]))
