"""Optimizer wiring and the small-amplitude scaling of the deficit.

The brute-force comparison for the deficit search uses a coarse 10^3
parameter lattice over the Hermite coefficient box; restarted Nelder-Mead
must land at or below the lattice minimum.  The affine fit has the known
answer deficit ~ eps^4 / 2, which pins both the exponent and the
coefficient of the log-log regression.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glslab
from glslab import (
    ConstraintError,
    SearchProblem,
    affine_manifold_distance_sq,
    epsilon_expansion,
    normalize,
    report,
    run_search,
)
from glslab.measure import GaussianMeasureSpec, build_grid
from glslab.search import FAMILIES, instantiate, load_problem, minimize_callable, raw_objective


_INSTANTIATE_CASES = [
    ("hermite", 1, [0.1, 0.0, -0.05, 0.02]),
    ("hermite", 1, [0.0]),
    ("affine", 1, [0.12]),
    ("affine", 2, [-0.08]),
    ("tilt", 1, [0.4]),
    ("tilt", 2, [0.3]),
    ("tilt", 2, [0.3, -0.6]),
    ("gaussian", 1, [0.55]),
    ("gaussian", 2, [0.7]),
    ("gaussian", 2, [0.5, 0.9]),
]


def test_optimizer_solves_a_quadratic():
    center = np.array([0.3, -0.7])
    x, val, nfev = minimize_callable(lambda t: float(((t - center) ** 2).sum()), np.zeros(2))
    np.testing.assert_allclose(x, center, atol=1e-4)
    assert val < 1e-8
    assert nfev > 0


class TestProblemConfig:
    def _problem(self, **overrides):
        base = dict(
            name="demo",
            objective="deficit",
            family="hermite",
            d=1,
            lower=(-0.05,),
            upper=(0.05,),
        )
        base.update(overrides)
        return SearchProblem(**base)

    def test_json_round_trip(self):
        p = self._problem(grid_order=32, seed=7)
        q = SearchProblem.from_json(p.to_json())
        assert q == p

    def test_rejects_unknown_fields(self):
        payload = self._problem().to_json()
        payload["threads"] = 4
        with pytest.raises(ConstraintError):
            SearchProblem.from_json(payload)

    def test_rejects_bad_objective(self):
        with pytest.raises(ConstraintError):
            self._problem(objective="mass")

    def test_stab_margin_needs_a_bound(self):
        with pytest.raises(ConstraintError):
            self._problem(objective="stab_margin")
        p = self._problem(objective="stab_margin", bound="entropy_squared")
        assert p.bound == "entropy_squared"

    def test_rejects_empty_or_inverted_box(self):
        with pytest.raises(ConstraintError):
            self._problem(lower=(), upper=())
        with pytest.raises(ConstraintError):
            self._problem(lower=(1.0,), upper=(-1.0,))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"family": "bump", "lower": (0.5,), "upper": (1.0,)},
            {"family": "hermite", "d": 2},
            {"family": "tilt", "lower": (0.1, 0.1), "upper": (0.3, 0.3)},
            {"lower": (-0.05,) * 13, "upper": (0.05,) * 13},
        ],
        ids=["bump", "hermite_d2", "tilt_d1_two_entries", "hermite_degree_13"],
    )
    def test_rejects_problems_that_can_never_be_feasible(self, overrides):
        with pytest.raises(ConstraintError):
            self._problem(**overrides)

    def test_accepts_every_admissible_box_size(self):
        assert self._problem(lower=(-0.05,) * 12, upper=(0.05,) * 12).n_params == 12
        for family in ("tilt", "gaussian"):
            for n in (1, 2):
                p = self._problem(family=family, d=2, lower=(0.3,) * n, upper=(0.5,) * n)
                assert p.n_params == n

    @pytest.mark.parametrize("field, value", [("restarts", 0), ("maxiter", 0), ("seed", -1)])
    def test_rejects_no_restarts_no_iterations_or_negative_seed(self, field, value):
        with pytest.raises(ConstraintError):
            self._problem(**{field: value})

    def test_load_problem(self, tmp_path):
        p = self._problem(name="from_disk")
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(p.to_json()))
        assert load_problem(str(path)) == p


class TestRunSearch:
    def test_deficit_beats_a_brute_force_lattice(self):
        grid = build_grid(GaussianMeasureSpec(1), 32)
        problem = SearchProblem(
            name="hermite_deficit",
            objective="deficit",
            family="hermite",
            d=1,
            lower=(-0.03, -0.06, -0.02),
            upper=(0.03, -0.01, 0.02),
            grid_order=32,
            maxiter=300,
        )
        result = run_search(problem, grid)
        brute = min(
            raw_objective(problem, np.array([c1, c2, c3]), grid)
            for c1 in np.linspace(-0.03, 0.03, 10)
            for c2 in np.linspace(-0.06, -0.01, 10)
            for c3 in np.linspace(-0.02, 0.02, 10)
        )
        assert result.best_value <= brute + 1e-10
        lower = np.array(problem.lower)
        upper = np.array(problem.upper)
        assert np.all(np.array(result.best_params) >= lower - 1e-12)
        assert np.all(np.array(result.best_params) <= upper + 1e-12)

    def test_same_seed_reproduces(self):
        grid = build_grid(GaussianMeasureSpec(1), 32)
        problem = SearchProblem(
            name="repro",
            objective="deficit",
            family="affine",
            d=1,
            lower=(0.01,),
            upper=(0.2,),
            grid_order=32,
            restarts=2,
            maxiter=60,
            seed=11,
        )
        a = run_search(problem, grid)
        b = run_search(problem, grid)
        assert a.best_params == b.best_params
        assert a.best_value == b.best_value
        assert a.n_evaluations == b.n_evaluations

    def test_ratio_objective_finds_the_tilt_floor(self):
        # Q = 1/2 on every exponential tilt, independent of the parameter
        grid = build_grid(GaussianMeasureSpec(1), 32)
        problem = SearchProblem(
            name="tilt_ratio",
            objective="ratio_q",
            family="tilt",
            d=1,
            lower=(0.2,),
            upper=(1.0,),
            grid_order=32,
            restarts=1,
            maxiter=40,
        )
        result = run_search(problem, grid)
        assert result.best_value == pytest.approx(0.5, abs=1e-8)

    def test_margin_objective_drives_to_the_gaussian(self):
        # the entropy_squared margin vanishes only as sigma2 -> 1
        grid = build_grid(GaussianMeasureSpec(1), 32)
        problem = SearchProblem(
            name="margin",
            objective="stab_margin",
            family="gaussian",
            d=1,
            lower=(0.3,),
            upper=(1.0,),
            bound="entropy_squared",
            grid_order=32,
            restarts=2,
            maxiter=80,
        )
        result = run_search(problem, grid)
        # at the optimum everything vanishes, so roundoff can leave the
        # margin a few ulp below zero
        assert -1e-12 <= result.best_value < 1e-4
        assert result.best_params[0] == pytest.approx(1.0, abs=0.02)

    def test_result_json(self):
        grid = build_grid(GaussianMeasureSpec(1), 32)
        problem = SearchProblem(
            name="payload",
            objective="deficit",
            family="affine",
            d=1,
            lower=(0.01,),
            upper=(0.1,),
            grid_order=32,
            restarts=1,
            maxiter=15,
        )
        result = run_search(problem, grid)
        payload = result.to_json()
        assert payload["problem"]["name"] == "payload"
        assert payload["best_function"]["family"] == "affine"
        assert len(payload["trace"]) == result.n_evaluations

    def test_infeasible_parameters_are_charged_not_raised(self):
        grid = build_grid(GaussianMeasureSpec(1), 32)
        problem = SearchProblem(
            name="edge",
            objective="deficit",
            family="affine",
            d=1,
            lower=(0.01,),
            upper=(0.9,),
            grid_order=32,
        )
        # amplitude 0.9 makes 1 + eps x change sign inside the hull
        from glslab.search import BIG_VALUE

        assert raw_objective(problem, np.array([0.9]), grid) == BIG_VALUE


class TestEpsilonExpansion:
    def test_quartic_scaling(self, grid1):
        fit = epsilon_expansion([0.004, 0.008, 0.016, 0.032], grid1)
        assert fit.order == pytest.approx(4.0, abs=0.05)
        assert fit.coefficient == pytest.approx(0.5, abs=0.02)
        assert fit.residual <= 1e-3
        assert fit.excluded == ()

    def test_matches_in_two_dimensions(self, grid2):
        nu = np.array([1.0, 1.0]) / math.sqrt(2.0)
        fit = epsilon_expansion([0.01, 0.02, 0.04], grid2, nu=nu)
        assert fit.order == pytest.approx(4.0, abs=0.05)
        assert fit.coefficient == pytest.approx(0.5, abs=0.02)

    def test_noise_floor_is_excluded(self, grid1):
        fit = epsilon_expansion([1e-4, 0.01, 0.02, 0.04], grid1)
        assert 1e-4 in fit.excluded
        assert fit.order == pytest.approx(4.0, abs=0.05)

    def test_too_few_survivors(self, grid1):
        with pytest.raises(ConstraintError):
            epsilon_expansion([1e-5, 2e-5], grid1)
        with pytest.raises(ConstraintError):
            epsilon_expansion([-0.1, 0.1], grid1)


class TestManifoldDistance:
    def test_small_amplitude_asymptotics(self):
        for eps in (0.01, 0.03, 0.1):
            ratio = affine_manifold_distance_sq(eps) / (0.5 * eps**4)
            assert ratio == pytest.approx(1.0, abs=5 * eps**2)

    def test_tracks_the_deficit(self, grid1):
        # deficit and squared manifold distance agree to leading order
        from glslab import Affine

        eps = 0.05
        rep = report(normalize(Affine(eps=eps, nu=np.array([1.0])), grid1), grid1)
        assert rep.deficit == pytest.approx(affine_manifold_distance_sq(eps), rel=0.02)

    def test_instantiate_families(self):
        problem = SearchProblem(
            name="f",
            objective="deficit",
            family="gaussian",
            d=2,
            lower=(0.3, 0.3),
            upper=(1.0, 1.0),
        )
        u = instantiate(problem, np.array([0.5, 0.75]))
        assert u.family == "gaussian"
        assert u.d == 2

    def test_instantiate_cases_cover_every_searchable_family(self):
        assert {family for family, _, _ in _INSTANTIATE_CASES} == set(FAMILIES)

    @pytest.mark.parametrize("family, d, theta", _INSTANTIATE_CASES)
    def test_instantiate_builds_what_build_function_builds(self, family, d, theta):
        # the dict route instantiate used to take, member for member
        params = {
            "hermite": {"coeffs": [1.0] + theta},
            "affine": {"eps": theta[0]},
            "tilt": {"a": theta},
            "gaussian": {"sigma2": theta},
        }[family]
        want = glslab.build_function({"family": family, "params": params, "d": d})
        problem = SearchProblem(
            name="f", objective="deficit", family=family, d=d, lower=theta, upper=theta
        )
        got = instantiate(problem, np.array(theta))
        assert type(got) is type(want) and got.to_json() == want.to_json()
        x = np.random.default_rng(1).uniform(-2.0, 2.0, size=(50, d))
        for a, b in zip(got.jet(x), want.jet(x)):
            np.testing.assert_array_equal(a, b)

    def test_instantiate_does_not_share_the_parameter_vector(self):
        problem = SearchProblem(
            name="f", objective="deficit", family="tilt", d=2, lower=(0.0, 0.0), upper=(1.0, 1.0)
        )
        theta = np.array([0.2, 0.4])
        u = instantiate(problem, theta)
        theta[:] = 0.9
        np.testing.assert_array_equal(u.a, [0.2, 0.4])


def test_import_loads_no_scipy_and_search_still_runs():
    # scipy is imported by minimize_callable alone, on the first search, and
    # numpy.polynomial and glslab.windows on first use too; the child imports
    # the same glslab as this process, installed or not
    root = os.path.dirname(os.path.dirname(glslab.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    code = """
import sys, glslab
loaded = [m for m in sys.modules if m.startswith(("scipy", "numpy.polynomial", "glslab.windows"))]
assert not loaded, loaded
problem = glslab.SearchProblem(
    name="affine", objective="deficit", family="affine", d=1,
    lower=(0.01,), upper=(0.2,), grid_order=16, restarts=1, maxiter=20,
)
result = glslab.run_search(problem)
assert result.n_evaluations > 0 and result.best_value < 1e-3, result
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


def test_sharpness_script_fits_the_quartic_scaling():
    # the deficit along 1 + eps x scales like eps^4; the child imports the
    # same glslab as this process
    root = os.path.dirname(os.path.dirname(glslab.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    script = Path(__file__).resolve().parent.parent / "scripts" / "sharpness_search.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--grid-order", "32"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    exponent = float(re.search(r"eps\^(\S+)", proc.stdout).group(1))
    assert abs(exponent - 4.0) <= 0.05, proc.stdout
