"""Certifier verdicts on densities whose curvature is known in closed form.

For the Gaussian profile with variance s the matrix I - Hess log h is
(1/s) I everywhere, so the certificate's minimum eigenvalue is exactly 1/s.
The symmetric double bump has log h convex near the saddle between the
lobes, which the probe cloud must find and refute.
"""

import json
import math
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from glslab import (
    DomainError,
    GaussianMeasureSpec,
    GaussianProfile,
    build_function,
    build_grid,
    certify,
    certify_along_flow,
    compact_improvement_pipeline,
    corpus,
    evolve,
    flow_curve,
    normalize,
)
from glslab.functions import Bump, TwoBumps
from glslab.logconcavity import PROBE_RADIUS, _extreme_eigenvalues, _probe_cloud


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


_CONSTANT_CURVATURE = {
    **{e.name: e.function() for e in corpus.ENTRIES if e.build["family"] in ("tilt", "gaussian")},
    "gaussian_d3": GaussianProfile(
        sigma2=np.array([0.5, 0.7, 0.9]), mean=np.array([0.1, -0.2, 0.3])
    ),
}


class _RowPerPoint:
    """u with its constant Hess log h written out as one row per masked point."""

    def __init__(self, u):
        self.u, self.d = u, u.d

    def density_and_hess_log(self, x):
        h, mask, hess_log = self.u.density_and_hess_log(x)
        rows = np.broadcast_to(hess_log, (int(mask.sum()),) + hess_log.shape[1:])
        return h, mask, rows.copy()


class TestConstantCurvature:
    """Tilts and Gaussian profiles return their constant Hess log h once, as
    a (1, d, d) row that broadcasts over the masked points."""

    def test_every_dimension_is_covered(self):
        assert {u.d for u in _CONSTANT_CURVATURE.values()} == {1, 2, 3}

    @pytest.mark.parametrize("name", sorted(_CONSTANT_CURVATURE))
    def test_one_row(self, name):
        u = _CONSTANT_CURVATURE[name]
        grid = build_grid(GaussianMeasureSpec(d=u.d), 16)
        h, mask, hess_log = u.density_and_hess_log(grid.points)
        assert hess_log.shape == (1, u.d, u.d)
        assert mask.shape == h.shape == (grid.points.shape[0],) and mask.any()

    @pytest.mark.parametrize("name", sorted(_CONSTANT_CURVATURE))
    def test_certificate_equals_one_row_per_point(self, name):
        u = _CONSTANT_CURVATURE[name]
        grid = build_grid(GaussianMeasureSpec(d=u.d), 16)
        cert = certify(u, grid)
        assert cert.to_json() == certify(_RowPerPoint(u), grid).to_json()
        # a copy of the worst probe, which holds no reference to the probe array
        assert cert.worst_point.base is None


class TestProbeCloud:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_unscrambled_halton_sequence(self, d):
        qmc = pytest.importorskip("scipy.stats.qmc")
        for n in (0, 1, 7, 512 * d, 5120):
            reference = qmc.Halton(d=d, scramble=False).random(n)
            want = (2.0 * PROBE_RADIUS) * reference - PROBE_RADIUS
            np.testing.assert_array_equal(_probe_cloud(d, n), want)

    def test_built_once_and_read_only(self):
        cloud = _probe_cloud(2, 1024)
        assert _probe_cloud(2, 1024) is cloud
        assert not cloud.flags.writeable
        with pytest.raises(ValueError):
            cloud[0, 0] = 0.0


def _symmetric(rng, n, d):
    a = rng.normal(size=(n, d, d))
    return 0.5 * (a + a.transpose(0, 2, 1))


def _clustered(rng, n, d, equal):
    """Q diag(lam) Q^T whose first `equal` eigenvalues lie within 1e-16 .. 1e-2."""
    q, _ = np.linalg.qr(rng.normal(size=(n, d, d)))
    lam = 3.0 * rng.normal(size=(n, d))
    gap = 10.0 ** rng.integers(-16, -1, size=(n, 1))
    lam[:, 1:equal] = lam[:, :1] + gap * rng.uniform(-1.0, 1.0, size=(n, equal - 1))
    m = np.einsum("nij,nj,nkj->nik", q, lam, q)
    return 0.5 * (m + m.transpose(0, 2, 1))


def _diagonal(rng, n, d):
    m = np.zeros((n, d, d))
    idx = np.arange(d)
    m[:, idx, idx] = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 6, size=(n, d))
    return m


class TestExtremeEigenvalues:
    """Read off the diagonal or taken from eigvalsh, every row at d = 1 and 3
    and every diagonal row at d = 2 is bit-equal to eigvalsh's smallest
    eigenvalue and largest |eigenvalue|; the other rows at d = 2 come from
    the closed form, within a few ulps of the largest |eigenvalue|."""

    @staticmethod
    def _mixed_rows(d):
        rng = np.random.default_rng(11 + d)
        m = np.concatenate(
            [
                _symmetric(rng, 2000, d),
                _diagonal(rng, 2000, d),
                _clustered(rng, 2000, d, d),
                np.broadcast_to(np.eye(d), (3, d, d)),
            ]
        )[rng.permutation(6003)]
        eigs = np.linalg.eigvalsh(m)
        return m, _extreme_eigenvalues(m), (eigs[:, 0], np.abs(eigs).max(axis=1))

    @pytest.mark.parametrize("d", [1, 3])
    def test_bit_equal_to_eigvalsh_on_mixed_rows(self, d):
        _, (low, top), (want_low, want_top) = self._mixed_rows(d)
        np.testing.assert_array_equal(low, want_low)
        np.testing.assert_array_equal(top, want_top)

    def test_bit_equal_to_eigvalsh_on_diagonal_rows_at_d2(self):
        m, (low, top), (want_low, want_top) = self._mixed_rows(2)
        diagonal = m[:, 1, 0] == 0.0
        assert 2000 <= diagonal.sum() < len(m)
        np.testing.assert_array_equal(low[diagonal], want_low[diagonal])
        np.testing.assert_array_equal(top[diagonal], want_top[diagonal])

    def test_closed_form_within_ulps_of_eigvalsh_on_mixed_rows_at_d2(self):
        m, (low, top), (want_low, want_top) = self._mixed_rows(2)
        full = m[:, 1, 0] != 0.0
        self._close(low[full], top[full], want_low[full], want_top[full])

    @staticmethod
    def _close(low, top, want_low, want_top):
        tol = 4.0 * np.finfo(float).eps * want_top
        assert np.all(np.abs(low - want_low) <= tol)
        assert np.all(np.abs(top - want_top) <= tol)

    @pytest.mark.parametrize("kind", ["random", "near_degenerate", "tiny_offdiagonal"])
    def test_closed_form_2x2_matches_eigvalsh(self, kind):
        rng = np.random.default_rng(5)
        n = 20000
        scale = 10.0 ** rng.integers(-6, 7, size=n)
        a, c = rng.normal(size=n) * scale, rng.normal(size=n) * scale
        b = rng.normal(size=n) * scale
        if kind == "near_degenerate":
            # a = c to within 1e-16 .. 1e-2 relative, and an off-diagonal as small
            c = a * (1.0 + 10.0 ** rng.integers(-16, -1, size=n) * rng.uniform(-1, 1, size=n))
            b = a * 10.0 ** rng.integers(-16, -1, size=n) * rng.uniform(-1, 1, size=n)
        elif kind == "tiny_offdiagonal":
            b = scale * 10.0 ** rng.integers(-300, -8, size=n) * rng.uniform(-1, 1, size=n)
        m = np.stack([np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=1)
        assert np.all(b != 0.0)
        eigs = np.linalg.eigvalsh(m)
        low, top = _extreme_eigenvalues(m)
        self._close(low, top, eigs[:, 0], np.abs(eigs).max(axis=1))


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


_FAMILIES = Path(__file__).with_name("golden") / "families"


def _along_the_flow(name):
    """(u, times, grid, n_probes) of one case: every path of evolve, and each
    branch of the exact bump average (R = 0.5 at t = 3 has a window narrower
    than the Gaussian).  The quadrature path (bump_d2, inner order 256) takes
    16 probes, enough to run its certifier, in a second instead of nine."""
    if name.endswith(".json"):
        obj = json.loads((_FAMILIES / name).read_text())
        grid = build_grid(GaussianMeasureSpec(d=obj["d"]), {3: 16, 2: 8}[obj["d"]])
        return normalize(build_function(obj), grid), [0.3], grid, {3: None, 2: 16}[obj["d"]]
    if name == "affine_d2":
        u = build_function({"family": "affine", "params": {"eps": 0.1, "nu": [0.6, 0.8]}, "d": 2})
    elif name == "two_bumps_overlap":
        u = TwoBumps(height=1.0, radius=2.0, separation=1.9)
    elif name.startswith("bump_r"):
        u = Bump(radius=float(name[len("bump_r") :]))
    else:
        u = corpus.get(name).function()
    grid = build_grid(GaussianMeasureSpec(d=u.d), 64)
    return normalize(u, grid), [0.0, 0.01, 0.3, 3.0], grid, None


def _json(pairs):
    # every float as repr writes it, which round-trips: equal text is equal bits
    return json.dumps([[state.to_json(), cert.to_json()] for state, cert in pairs])


def _counted_averages(monkeypatch, cls):
    """The (rows, order) of each cls.ou_average call from here on."""
    calls = []
    original = cls.ou_average

    def counted(self, x, t, order):
        calls.append((len(x), order))
        return original(self, x, t, order)

    monkeypatch.setattr(cls, "ou_average", counted)
    return calls


class TestOneAveragePerTime:
    """certify_along_flow reads each state and its certificate from one OU
    average on evolve's exact path, with evolve's and certify's bits.

    BLAS rounds an average by row block, so equal bits need each row in the
    same block in either layout: at order 64 (d = 1, 2) and 16 (d = 3) the
    node, coarse and cloud sets are all multiples of 16 rows.  On small
    grids (d = 1 below order 23) some figures move by rounding."""

    @pytest.mark.parametrize(
        "name",
        [
            "bump_r0.5",
            "bump_r2",
            "two_bumps_overlap",
            "affine_d2",
            "hermite_mixed",
            "hermite_d3.json",
            "tilt_half",
            "gaussian_s05",
            "bump_d2.json",
        ],
    )
    def test_equals_evolve_then_certify(self, name):
        u, times, grid, n_probes = _along_the_flow(name)
        # bump_d2's inner rule stops unconverged at its cap, which warns
        quadrature = name == "bump_d2.json"
        with pytest.warns(UserWarning, match="inner rule error") if quadrature else nullcontext():
            want = []
            for t in times:
                state = evolve(u, t, grid)
                want.append((state, certify(state.v, grid, n_probes)))
            assert _json(certify_along_flow(u, times, grid, n_probes)) == _json(want)

    def test_one_average_per_op(self, grid1, monkeypatch):
        # the nonzero times of one call share one average; t = 0 takes none
        u = normalize(Bump(radius=2.0), grid1)
        calls = _counted_averages(monkeypatch, Bump)
        evolve(u, 0.3, grid1)
        assert calls == [(grid1.points.shape[0], 1)]
        calls.clear()
        certify_along_flow(u, [0.0, 0.2, 0.5], grid1)
        assert calls == [(grid1.points.shape[0] + 512, 2)]
        calls.clear()
        flow_curve(u, [0.0, 0.1, 0.2, 0.5, 1.0], grid1)
        assert calls == [(grid1.points.shape[0], 1)]
        calls.clear()
        compact_improvement_pipeline(u, grid1)
        assert len(calls) == 1

    def test_negative_probe_count_fails_before_any_average(self, grid1, monkeypatch):
        u = normalize(Bump(radius=2.0), grid1)
        calls = _counted_averages(monkeypatch, Bump)
        with pytest.raises(DomainError, match="probes"):
            certify_along_flow(u, [0.3], grid1, n_probes=-1)
        assert calls == []
