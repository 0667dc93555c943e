"""Acceptance checks: one test per headline property, one verdict line each.

Run with `pytest -v tests/test_acceptance.py` to get a PASSED/FAILED line
per criterion; each test additionally prints its own [criterion NN] verdict
to captured stdout.  Tolerances follow the measured quadrature behaviour of
the order-64 grids: closed forms reproduce to 1e-8 or better, decay laws to
1e-7 relative, integral identities to 1e-6 relative, signed margins to
twice the fine-vs-coarse error estimate.
"""

import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from glslab import (
    Affine,
    Bump,
    C_STAR,
    Figures,
    GaussianProfile,
    Tilt,
    bochner_identity,
    certify,
    certify_along_flow,
    cheeger_sandwich,
    compact_improvement_pipeline,
    corpus,
    entropy_production_check,
    epsilon_expansion,
    evolve,
    excess_moment_decay_check,
    fisher_dissipation_check,
    fisher_flux_identity,
    improved_constant_compact,
    mehler_density,
    normalize,
    pinsker_gap,
    poincare_chain,
    psi,
    q0_lower_bound,
    q_ode_check,
    report,
    t_star_compact,
    verify_compact_support,
    verify_entropy_squared,
    verify_fisher_gap,
    verify_log_concave,
)


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL {text}")
        raise
    print(f"[criterion {num:02d}] PASS {text}")


def _grids(grid1, grid2, grid3):
    return {1: grid1, 2: grid2, 3: grid3}


def test_criterion_01_tilt_manifold_has_zero_deficit(grid1, grid2, grid3):
    grids = _grids(grid1, grid2, grid3)
    with criterion(1, "20 random tilts: deficit 0 within 1e-8, under 10 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(20250823)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            direction = rng.normal(size=d)
            direction /= np.linalg.norm(direction)
            a = rng.uniform(0.1, 1.5) * direction
            rep = report(normalize(Tilt(a=a), grids[d]), grids[d])
            assert abs(rep.deficit) <= 1e-8
            assert rep.entropy == pytest.approx(2 * float(a @ a), abs=1e-8)
            assert rep.fisher == pytest.approx(float(a @ a), abs=1e-8)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_02_affine_expansion_is_half_eps_fourth(grid1, grid2):
    with criterion(2, "deficit ~ 0.5 eps^4 along the affine family, d = 1 and 2"):
        start = time.perf_counter()
        eps = [0.003, 0.01, 0.03, 0.1]
        for grid in (grid1, grid2):
            fit = epsilon_expansion(eps, grid)
            assert fit.order == pytest.approx(4.0, abs=0.05)
            assert fit.coefficient == pytest.approx(0.5, abs=0.02)
            assert fit.excluded == ()
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_03_moment_decay_and_semigroup(grid1, grid2, grid3):
    grids = {1: grid1, 2: grid2, 3: grid3}
    with criterion(3, "moment decay e^{-t}, e^{-2t} and the semigroup law to 1e-7"):
        start = time.perf_counter()
        times = [0.1, 0.5, 1.0, 2.0]
        flow_entries = corpus.entries("flow")
        assert len(flow_entries) == 6
        for entry in flow_entries:
            grid = grids[entry.d]
            u = entry.normalized(grid)
            st0 = evolve(u, 0.0, grid)
            scale1 = max(1.0, float(np.linalg.norm(st0.first_moment)))
            scale2 = max(1.0, abs(st0.second_moment_gap))
            for t in times:
                st = evolve(u, t, grid)
                assert abs(st.mass - 1.0) <= 1e-9
                np.testing.assert_allclose(
                    st.first_moment,
                    math.exp(-t) * st0.first_moment,
                    rtol=0,
                    atol=1e-7 * scale1,
                )
                assert st.second_moment_gap == pytest.approx(
                    math.exp(-2 * t) * st0.second_moment_gap, abs=1e-7 * scale2
                )
        u = corpus.get("hermite_mixed").normalized(grid1)
        nested = mehler_density(mehler_density(u, 0.3), 0.4)
        direct = mehler_density(u, 0.7)
        x = np.linspace(-3.0, 3.0, 11)
        np.testing.assert_allclose(nested.density(x), direct.density(x), rtol=0, atol=1e-7)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_04_flow_derivatives_match_quadrature(grid1):
    with criterion(4, "dE/dt = -4I and the Hessian dissipation identity to 1e-4"):
        names = ["tilt_half", "affine_eps01", "hermite_mixed", "gaussian_shifted"]
        for name in names:
            u = corpus.get(name).normalized(grid1)
            for t in (0.2, 0.5, 1.0):
                prod = entropy_production_check(u, t, grid1)
                diss = fisher_dissipation_check(u, t, grid1)
                assert abs(prod.residual) <= 1e-4, (name, t)
                assert abs(diss.residual) <= 1e-4, (name, t)


def test_criterion_05_integral_identities(grid1, grid2, grid3):
    grids = _grids(grid1, grid2, grid3)
    with criterion(5, "integration-by-parts identities to 1e-6 relative on 10 functions"):
        identity_entries = corpus.entries("identity")
        assert len(identity_entries) == 10
        for entry in identity_entries:
            grid = grids[entry.d]
            u = entry.function()
            assert bochner_identity(u, grid).relative_residual <= 1e-6, entry.name
            assert fisher_flux_identity(u, grid).relative_residual <= 1e-6, entry.name


def test_criterion_06_moment_constrained_deficit_bounds(grid1, grid2, grid3):
    grids = _grids(grid1, grid2, grid3)
    with criterion(6, "quadratic deficit bounds hold wherever the moment condition does"):
        n_checked = 0
        for entry in corpus.entries():
            grid = grids[entry.d]
            u = entry.normalized(grid)
            fig = Figures(u, grid)
            es = verify_entropy_squared(fig)
            fg = verify_fisher_gap(fig)
            assert es.status in ("verified", "skipped"), entry.name
            assert fg.status in ("verified", "skipped"), entry.name
            assert (es.status == "skipped") == (fg.status == "skipped")
            if es.status == "skipped":
                continue
            n_checked += 1
            assert es.margin >= -2.0 * es.quadrature_error, entry.name
            assert fg.margin >= -2.0 * fg.quadrature_error, entry.name
            rep = report(u, grid)
            cross = psi(rep.fisher, entry.d) - rep.entropy**2 / (2.0 * entry.d)
            assert cross >= -1e-12 - 2.0 * rep.quadrature_error, entry.name
            assert fg.extras["psi_at_phi_margin"] >= -1e-12, entry.name
        # the spread families (tilts, affine, hermite) must have been skipped
        assert n_checked == 12


def test_criterion_07_log_concave_improvement(grid1, grid2, grid3):
    grids = _grids(grid1, grid2, grid3)
    with criterion(7, "I >= (C*/2) E on the certified log-concave sub-corpus"):
        assert f"{C_STAR:.7f}" == "1.0005787"
        assert C_STAR == 1.0 + 1.0 / 1728.0
        entries = corpus.entries("log_concave")
        assert len(entries) == 7
        for entry in entries:
            grid = grids[entry.d]
            u = entry.normalized(grid)
            fig = Figures(u, grid)
            assert fig.certificate.certified, entry.name
            rec = verify_log_concave(fig)
            assert rec.status == "verified", entry.name
            assert rec.margin >= -2.0 * rec.quadrature_error, entry.name


def test_criterion_08_compact_support_pipeline(grid1):
    with criterion(8, "waiting-time pipeline for support radii 1, 2, 4"):
        for radius, name in ((1.0, "bump_r1"), (2.0, "bump_r2"), (4.0, "bump_r4")):
            u = corpus.get(name).normalized(grid1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = compact_improvement_pipeline(u, grid1)
                rec = verify_compact_support(Figures(u, grid1))
            assert result.status == "verified", name
            assert result.q0 >= result.q0_bound - 1e-8, name
            assert rec.status == "verified", name
            assert rec.margin >= -2.0 * rec.quadrature_error, name
            pulled = q0_lower_bound(0.5 * C_STAR, t_star_compact(radius))
            assert abs(pulled - 0.5 * improved_constant_compact(radius)) <= 1e-12


def test_criterion_09_ratio_ode_along_the_flow(grid1):
    with criterion(9, "dQ/dt <= 2Q(2Q - 1) + 1e-4 at the sampled times"):
        names = ["tilt_half", "affine_eps01", "hermite_mixed", "gaussian_shifted"]
        for name in names:
            u = corpus.get(name).normalized(grid1)
            samples = q_ode_check(u, np.array([0.2, 0.5, 1.0]), grid1)
            assert len(samples) == 3, name
            for s in samples:
                assert s.margin >= -1e-4, (name, s.t)


def test_criterion_10_poincare_chain():
    with criterion(10, "spectral gap chain with the exact value 1/432 at moment d"):
        for d in (1, 2, 3):
            est = poincare_chain(float(d), d)
            assert est.lambda1_logconcave == 1.0 / 432.0
            lo, hi = cheeger_sandwich(est.cheeger_lower)
            assert lo <= hi
            assert est.lambda1_lower == lo
        # Gaussian consistency: every lower bound sits below lambda1 = 1,
        # and 1 sits inside the Cheeger sandwich at h = sqrt(2/pi)
        lo, hi = cheeger_sandwich(math.sqrt(2.0 / math.pi))
        assert 1.0 / 432.0 <= 1.0 <= hi
        assert lo <= 1.0


def test_criterion_11_certifier_verdicts(grid1):
    with criterion(11, "certifier: Gaussians certified, bimodal refuted, flow preserves"):
        for s2 in (0.3, 0.5, 0.8, 1.0):
            cert = certify(GaussianProfile(sigma2=np.array([s2])), grid1)
            assert cert.certified, s2
            assert cert.min_eigenvalue == pytest.approx(1.0 / s2, rel=1e-10)
        refuted = certify(corpus.get("two_bumps_wide").normalized(grid1), grid1)
        assert refuted.status == "refuted"
        pairs = certify_along_flow(
            corpus.get("gaussian_s05").function(), np.array([0.0, 0.2, 0.5, 1.0]), grid1
        )
        assert len(pairs) == 4
        assert all(cert.certified for _, cert in pairs)
        for radius in (1.0, 3.0):
            u = normalize(Bump(radius=radius), grid1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cert = compact_improvement_pipeline(u, grid1).certificate
            assert cert.certified, radius


def test_criterion_12_excess_moment_regime(grid1):
    with criterion(12, "z' <= -(e^{-2t}/2d)(4z - A)^2 while the excess moment is positive"):
        entries = corpus.entries("excess_moment")
        assert len(entries) == 3
        times = np.array([0.25, 0.5, 0.75, 1.0, 1.5])
        for entry in entries:
            u = entry.normalized(grid1)
            samples = excess_moment_decay_check(u, grid1, times)
            assert len(samples) == 5, entry.name
            for s in samples:
                assert s.margin >= -1e-8, (entry.name, s.t)


def test_criterion_13_entropy_controls_total_variation(grid1, grid2, grid3):
    grids = _grids(grid1, grid2, grid3)
    with criterion(13, "E >= TV^2/4 with nonnegative residual on the whole corpus"):
        for entry in corpus.entries():
            grid = grids[entry.d]
            r = pinsker_gap(entry.normalized(grid), grid)
            assert r.residual >= -r.error, entry.name
