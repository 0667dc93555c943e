"""Certifier verdicts on densities whose curvature is known in closed form.

For the Gaussian profile with variance s the matrix I - Hess log h is
(1/s) I everywhere, so the certificate's minimum eigenvalue is exactly 1/s.
The symmetric double bump has log h convex near the saddle between the
lobes, which the probe cloud must find and refute.
"""

import math
import warnings

import numpy as np
import pytest

from glslab import (
    DomainError,
    GaussianProfile,
    certify,
    certify_along_flow,
    compact_improvement_pipeline,
    corpus,
    normalize,
)
from glslab.functions import Bump
from glslab.logconcavity import PROBE_RADIUS, _probe_cloud


class TestClosedFormCurvature:
    @pytest.mark.parametrize("s2", [0.3, 0.5, 0.8, 1.0])
    def test_gaussian_certified_with_exact_eigenvalue(self, grid1, s2):
        cert = certify(GaussianProfile(sigma2=np.array([s2])), grid1)
        assert cert.certified
        assert cert.min_eigenvalue == pytest.approx(1.0 / s2, rel=1e-12)

    def test_constant_density_has_unit_curvature(self, grid1):
        cert = certify(GaussianProfile(sigma2=np.array([1.0])), grid1)
        assert cert.certified
        assert cert.min_eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_anisotropic_d2(self, grid2):
        cert = certify(GaussianProfile(sigma2=np.array([0.6, 0.9])), grid2)
        assert cert.certified
        # smallest eigenvalue of diag(1/s) comes from the widest coordinate
        assert cert.min_eigenvalue == pytest.approx(1.0 / 0.9, rel=1e-12)


class TestProbeCloud:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_unscrambled_halton_sequence(self, d):
        qmc = pytest.importorskip("scipy.stats.qmc")
        for n in (0, 1, 7, 512 * d, 5120):
            reference = qmc.Halton(d=d, scramble=False).random(n)
            want = (2.0 * PROBE_RADIUS) * reference - PROBE_RADIUS
            np.testing.assert_array_equal(_probe_cloud(d, n), want)


class TestVerdicts:
    def test_double_bump_refuted_at_the_saddle(self, grid1):
        cert = certify(corpus.get("two_bumps_wide").normalized(grid1), grid1)
        assert cert.status == "refuted"
        assert not cert.certified
        # the convex region sits around the inner edge of each lobe
        assert 1.8 <= abs(cert.worst_point[0]) <= 2.6
        assert cert.min_eigenvalue < -1.0

    def test_bump_certified_before_evolution(self, grid1):
        cert = certify(corpus.get("bump_r2").normalized(grid1), grid1)
        assert cert.certified

    def test_probe_accounting(self, grid1):
        cert = certify(corpus.get("bump_r1").normalized(grid1), grid1)
        assert cert.n_probes == 64 + 512
        # probes outside the support are masked
        assert 0 < cert.n_active < cert.n_probes

    def test_negative_probe_count_is_a_domain_error(self, grid1):
        with pytest.raises(DomainError, match="probes"):
            certify(GaussianProfile(sigma2=np.array([0.5])), grid1, n_probes=-3)

    def test_json_payload(self, grid1):
        cert = certify(GaussianProfile(sigma2=np.array([0.5])), grid1)
        payload = cert.to_json()
        assert set(payload) == {
            "status",
            "min_eigenvalue",
            "worst_point",
            "n_probes",
            "n_active",
            "threshold",
            "tolerance",
        }
        assert payload["status"] == "certified"
        assert isinstance(payload["worst_point"], list)


class TestAlongTheFlow:
    def test_gaussian_stays_certified(self, grid1):
        pairs = certify_along_flow(
            corpus.get("gaussian_s05").function(), np.array([0.0, 0.2, 0.5, 1.0]), grid1
        )
        assert len(pairs) == 4
        for state, cert in pairs:
            assert cert.certified
        # curvature relaxes toward the Gaussian value 1
        eigs = [cert.min_eigenvalue for _, cert in pairs]
        assert eigs[0] == pytest.approx(2.0, rel=1e-10)
        assert all(a >= b for a, b in zip(eigs, eigs[1:]))
        assert eigs[-1] == pytest.approx(1.0, abs=0.3)

    @pytest.mark.parametrize("radius", [1.0, 3.0])
    def test_waiting_time_certifies_bumps(self, grid1, radius):
        u = normalize(Bump(radius=radius), grid1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = compact_improvement_pipeline(u, grid1)
        assert result.t_star == pytest.approx(0.5 * math.log1p(radius**2), rel=1e-15)
        assert result.certificate.certified
