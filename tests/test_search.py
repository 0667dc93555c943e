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
import warnings
from pathlib import Path

import numpy as np
import pytest

import glslab
from glslab import (
    ConstraintError,
    LabError,
    SearchProblem,
    affine_manifold_distance_sq,
    epsilon_expansion,
    normalize,
    report,
    run_search,
)
from glslab.functions import _hull_probes
from glslab.measure import GaussianMeasureSpec, build_grid
from glslab import search
from glslab.search import (
    BIG_VALUE,
    FAMILIES,
    instantiate,
    load_problem,
    minimize_callable,
    raw_objective,
)


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


def _scipy_nelder_mead(f, x0, maxiter=200):
    """The reference: scipy's Nelder-Mead with the options the search uses."""
    optimize = pytest.importorskip("scipy.optimize")
    res = optimize.minimize(
        f,
        np.asarray(x0, dtype=float),
        method="Nelder-Mead",
        options={"maxiter": maxiter, "xatol": 1e-9, "fatol": 1e-13},
    )
    return np.asarray(res.x, dtype=float), float(res.fun), int(res.nfev)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _recorded(minimize, f, x0, maxiter):
    """minimize's (x, fun, nfev) and every point it handed to f, in order."""
    points = []

    def g(x):
        points.append(x.copy())
        return f(x)

    return minimize(g, x0, maxiter), points


def _rosenbrock(x):
    return float(((1.0 - x[:-1]) ** 2).sum() + 100.0 * ((x[1:] - x[:-1] ** 2) ** 2).sum())


def _plateau(x):
    # BIG_VALUE where x[0] > 1: a simplex started there has all values tied
    return BIG_VALUE if x[0] > 1.0 else float(((x - 0.5) ** 2).sum())


def _kink(x):
    return float(np.abs(x).sum() + 0.3 * np.abs(x[0] - x[-1]))


def _scribbles(x):
    # overwrites its argument: the optimizer must hand it a copy
    value = float(((x - 0.25) ** 2).sum())
    x[:] = 1e3
    return value


# objective, x0, maxiter; between them they take every step of the method:
# reflection, expansion, outside and inside contraction, shrink, the stopping
# test and maxiter exhaustion, with exact ties in fsim and zero entries in x0
_NELDER_MEAD_CASES = {
    "quadratic": (lambda t: float(((t - np.array([0.3, -0.7])) ** 2).sum()), [0.0, 0.0], 200),
    "rosenbrock_d2": (_rosenbrock, [-1.2, 1.0], 200),
    "rosenbrock_d3_exhausted": (_rosenbrock, [-1.0, 0.5, 0.0], 40),
    "plateau": (_plateau, [1.5, 0.0], 200),
    "plateau_edge": (_plateau, [1.02, 0.3], 200),
    "kink": (_kink, [0.4, -0.2, 0.7], 200),
    "scribbles": (_scribbles, [0.0], 200),
    "one_iteration": (_rosenbrock, [0.5, 0.5], 1),
}


def test_optimizer_solves_a_quadratic():
    center = np.array([0.3, -0.7])
    x, val, nfev = minimize_callable(lambda t: float(((t - center) ** 2).sum()), np.zeros(2))
    np.testing.assert_allclose(x, center, atol=1e-4)
    assert val < 1e-8
    assert nfev > 0


class TestNelderMead:
    """minimize_callable repeats scipy's Nelder-Mead bit for bit."""

    @pytest.mark.parametrize("name", list(_NELDER_MEAD_CASES))
    def test_matches_scipy_point_for_point(self, name):
        f, x0, maxiter = _NELDER_MEAD_CASES[name]
        (want_x, want_fun, want_nfev), want_points = _recorded(
            _scipy_nelder_mead, f, np.array(x0), maxiter
        )
        (x, fun, nfev), points = _recorded(minimize_callable, f, np.array(x0), maxiter)
        assert len(points) == nfev == want_nfev
        assert _bits(points) == _bits(want_points)
        assert _bits(x) == _bits(want_x)
        assert _bits(fun) == _bits(want_fun)

    def test_maxiter_bounds_the_iterations(self):
        # scipy counts from 1: maxiter = 1 stops after the initial simplex
        _, _, nfev = minimize_callable(_rosenbrock, np.array([0.5, 0.5]), maxiter=1)
        assert nfev == 3
        # the exhausted case stops at its cap, not at the stopping test
        f, x0, maxiter = _NELDER_MEAD_CASES["rosenbrock_d3_exhausted"]
        capped = minimize_callable(f, np.array(x0), maxiter)[2]
        assert capped < minimize_callable(f, np.array(x0), maxiter + 1)[2]


# one search per (objective, family, d) of the benchmark's search loop, on
# boxes of the same shape and a coarser grid
_LOOP_PROBLEMS = [
    ("deficit", "affine", 1, (0.05,), (0.15,), None),
    ("ratio_q", "affine", 1, (0.05,), (0.15,), None),
    ("deficit", "tilt", 1, (0.2,), (0.45,), None),
    ("ratio_q", "tilt", 1, (0.2,), (0.45,), None),
    ("deficit", "gaussian", 1, (0.4,), (0.8,), None),
    ("ratio_q", "gaussian", 1, (0.4,), (0.8,), None),
    ("stab_margin", "gaussian", 1, (0.4,), (0.8,), "kappa_weighted"),
    ("deficit", "hermite", 1, (-0.05, -0.04, -0.02), (0.05, 0.04, 0.02), None),
    ("ratio_q", "hermite", 1, (-0.05, -0.04, -0.02), (0.05, 0.04, 0.02), None),
    ("deficit", "gaussian", 2, (0.35, 0.45), (0.8, 0.9), None),
    ("deficit", "tilt", 2, (0.15, 0.25), (0.4, 0.5), None),
]


def _sequential_reference(problem, grid):
    """The search with its restarts run one after another through scipy's
    Nelder-Mead: x0 drawn from the seeded generator, the raw objective plus
    the box penalty, the end point clipped to the box and its raw objective.
    Returns the evaluations (params, objective, penalty) in order, the best
    end point and its value."""
    lower, upper = np.asarray(problem.lower), np.asarray(problem.upper)
    rng = np.random.default_rng(problem.seed)
    evaluations, best_theta, best_val = [], None, math.inf
    for restart in range(problem.restarts):
        weight = 1e3 * 2.0**restart

        def penalized(theta):
            raw = raw_objective(problem, theta, grid)
            below, above = np.maximum(lower - theta, 0.0), np.maximum(theta - upper, 0.0)
            pen = weight * float((below**2 + above**2).sum())
            evaluations.append((tuple(float(v) for v in theta), raw, pen))
            return raw + pen

        x0 = rng.uniform(lower, upper)
        x = np.clip(_scipy_nelder_mead(penalized, x0, problem.maxiter)[0], lower, upper)
        val = raw_objective(problem, x, grid)
        if val < best_val:
            best_theta, best_val = x, val
    return evaluations, best_theta, best_val


@pytest.mark.parametrize(
    "objective, family, d, lower, upper, bound",
    _LOOP_PROBLEMS,
    ids=[f"{o}_{f}_d{d}" for o, f, d, *_ in _LOOP_PROBLEMS],
)
def test_run_search_matches_the_scipy_reference(objective, family, d, lower, upper, bound):
    # the restarts run in lockstep, their points evaluated in batches; the
    # trace is the sequential one, restart 0's evaluations first
    problem = SearchProblem(
        name="oracle", objective=objective, family=family, d=d,
        lower=lower, upper=upper, bound=bound, grid_order=16, seed=5,
    )
    grid = build_grid(GaussianMeasureSpec(d), problem.grid_order)
    got = run_search(problem, grid)
    evaluations, best_theta, best_val = _sequential_reference(problem, grid)
    assert got.n_evaluations == len(got.trace) == len(evaluations)
    assert [point.evaluation for point in got.trace] == list(range(len(evaluations)))
    for i, field in enumerate(("params", "objective", "penalty")):
        values = [getattr(point, field) for point in got.trace]
        assert _bits(values) == _bits([e[i] for e in evaluations]), field
    assert _bits(got.best_params) == _bits(best_theta)
    assert _bits(got.best_value) == _bits(best_val)
    assert got.best_function == instantiate(problem, best_theta).to_json()


# rows of every searchable family, admitted ones mixed with ones the family's
# constructor or normalize rejects: affine beyond the hull (|eps| >= 1/3),
# hermite negative on the hull, sigma2 outside (0, 1], tilts whose norm
# overflows; sigma2 = 1 and a = 0 have zero entropy, which ratio_q charges
_BATCH_ROWS = {
    "affine": (1, [[0.12], [0.5], [-0.08], [-1.0 / 3.0], [0.3]]),
    "hermite": (1, [[0.1, 0.0, -0.05], [0.0, -0.2, 0.0], [0.02, 0.04, 0.0], [-0.6, 0.0, 0.1]]),
    "gaussian": (1, [[0.55], [-0.2], [1.0], [0.0], [1.3], [0.9]]),
    "tilt": (1, [[0.4], [80.0], [0.0], [-0.3], [-200.0]]),
    "gaussian_d2": (2, [[0.5, 0.9], [0.7, -0.1], [1.2, 0.4], [0.35, 0.8]]),
    "tilt_d2": (2, [[0.3, -0.6], [90.0, 0.1], [0.0, 0.2]]),
}


def _member_objective(problem, theta, grid):
    """raw_objective as each member computes it alone: the family's
    constructor, normalize and report."""
    try:
        u = normalize(instantiate(problem, theta), grid)
    except LabError:
        return BIG_VALUE
    rep = report(u, grid)
    if problem.objective == "deficit":
        return rep.deficit
    return BIG_VALUE if rep.entropy < 1e-10 or rep.ratio_q is None else rep.ratio_q


@pytest.mark.parametrize("objective", ["deficit", "ratio_q"])
@pytest.mark.parametrize("case", list(_BATCH_ROWS))
def test_a_batch_equals_its_members_alone(case, objective):
    d, rows = _BATCH_ROWS[case]
    family = case.split("_")[0]
    thetas = np.array(rows)
    problem = SearchProblem(
        name="batch", objective=objective, family=family, d=d,
        lower=thetas.min(axis=0), upper=thetas.max(axis=0),
    )
    grid = build_grid(GaussianMeasureSpec(d), 64 if d == 1 else 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = search._objectives(problem, thetas, grid)
        alone = [raw_objective(problem, theta, grid) for theta in thetas]
        members = [_member_objective(problem, theta, grid) for theta in thetas]
    assert _bits(batch) == _bits(alone) == _bits(members)
    assert BIG_VALUE in batch and min(batch) < BIG_VALUE


def test_searchable_batch_cases_cover_every_family():
    assert {case.split("_")[0] for case in _BATCH_ROWS} == set(FAMILIES)


@pytest.mark.parametrize("d", [1, 2])
def test_lockstep_rounds_batch_the_running_restarts(monkeypatch, d):
    # every running restart's point in one batch
    sizes = []
    batch = search._objectives

    def recorded(problem, thetas, grid):
        sizes.append(thetas.shape[0])
        return batch(problem, thetas, grid)

    monkeypatch.setattr(search, "_objectives", recorded)
    problem = SearchProblem(
        name="lockstep", objective="deficit", family="tilt", d=d,
        lower=(0.1,) * d, upper=(0.4,) * d, maxiter=30,
    )
    result = run_search(problem, build_grid(GaussianMeasureSpec(d), 64))
    assert sizes[0] == max(sizes) == problem.restarts
    # the last round evaluates the restarts' clipped end points
    assert sum(sizes) == result.n_evaluations + problem.restarts


# a deficit and a ratio_q search of a d = 1 and a d = 2 family each, hermite
# for its hull probes
_NODE_PROBLEMS = [
    ("deficit", "hermite", 1, (-0.05, -0.04), (0.05, 0.04)),
    ("ratio_q", "tilt", 1, (0.2,), (0.45,)),
    ("deficit", "gaussian", 2, (0.35, 0.45), (0.8, 0.9)),
    ("ratio_q", "tilt", 2, (0.15, 0.25), (0.4, 0.5)),
]


@pytest.mark.parametrize(
    "objective, family, d, lower, upper",
    _NODE_PROBLEMS,
    ids=[f"{o}_{f}_d{d}" for o, f, d, *_ in _NODE_PROBLEMS],
)
def test_a_search_evaluates_its_members_on_the_nodes_alone(monkeypatch, objective, family, d, lower, upper):
    # every jet of a round is on grid.nodes, or on the hull probes of the
    # hermite admits; none on grid.points or the coarse partner's nodes
    grid = build_grid(GaussianMeasureSpec(d), 16)
    xs = []
    for cls in (search.Affine, search.GaussianProfile, search.HermiteExpansion, search.Tilt):
        original = cls.jet_rows

        def recorded(x, *args, original=original, **kwargs):
            xs.append(x)
            return original(x, *args, **kwargs)

        monkeypatch.setattr(cls, "jet_rows", staticmethod(recorded))
    problem = SearchProblem(
        name="nodes", objective=objective, family=family, d=d,
        lower=lower, upper=upper, grid_order=16, maxiter=30,
    )
    result = run_search(problem, grid)
    assert result.best_value < BIG_VALUE

    def address(a):
        return a.__array_interface__["data"][0], a.shape

    allowed = {address(grid.nodes)}
    if family == "hermite":
        allowed.add(address(_hull_probes(d)))
    assert xs
    assert {address(x) for x in xs} <= allowed
    assert {address(x) for x in xs}.isdisjoint({address(grid.points), address(grid.coarse.nodes)})


def test_run_search_rejects_a_grid_that_does_not_fit_the_problem():
    problem = SearchProblem(
        name="fit", objective="deficit", family="tilt", d=2,
        lower=(0.1, 0.1), upper=(0.3, 0.3), grid_order=16, maxiter=20,
    )
    for d, order in ((1, 16), (2, 8)):
        with pytest.raises(ConstraintError, match="needs the order-16 grid in d = 2"):
            run_search(problem, build_grid(GaussianMeasureSpec(d), order))
    assert run_search(problem, build_grid(GaussianMeasureSpec(2), 16)).best_value < BIG_VALUE


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
        "lower, upper",
        [([float("nan")], [0.05]), ([-0.05], [float("inf")]), ([-1e308], [1e308])],
        ids=["nan", "infinity", "span_overflows"],
    )
    def test_rejects_a_box_without_a_finite_span(self, lower, upper):
        # the restarts draw their starting points uniformly from the box
        payload = {**self._problem().to_json(), "lower": lower, "upper": upper}
        with pytest.raises(ConstraintError, match="finite span"):
            SearchProblem.from_json(payload)

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


def test_import_loads_no_scipy_and_search_still_runs(tmp_path):
    # the child refuses every scipy import, then searches through the library
    # and the CLI; numpy.polynomial and glslab.windows load on first use only.
    # The child imports the same glslab as this process, installed or not
    root = os.path.dirname(os.path.dirname(glslab.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "name": "cli", "objective": "deficit", "family": "affine", "d": 1,
        "lower": [0.01], "upper": [0.2], "grid_order": 16, "restarts": 1, "maxiter": 20,
    }))
    code = """
import contextlib, io, json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"refused import of {name}")
        return None

sys.meta_path.insert(0, NoScipy())
import glslab
from glslab import cli
loaded = [m for m in sys.modules if m.startswith(("scipy", "numpy.polynomial", "glslab.windows"))]
assert not loaded, loaded
hermite = glslab.SearchProblem(
    name="hermite", objective="deficit", family="hermite", d=1,
    lower=(-0.05, -0.04), upper=(0.05, 0.04), grid_order=16, restarts=1, maxiter=20,
)
margin = glslab.SearchProblem(
    name="margin", objective="stab_margin", family="gaussian", d=1, bound="entropy_squared",
    lower=(0.4,), upper=(0.8,), grid_order=16, restarts=1, maxiter=20,
)
result = glslab.run_search(hermite)
assert result.n_evaluations > 0 and result.best_value < 1e-3, result
# the margin falls as sigma2 rises to 1, so on this box its least value is
# the positive margin at the upper edge
result = glslab.run_search(margin)
assert result.best_params == (0.8,) and 0 < result.best_value < 1e-2, result
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["search", "--problem", sys.argv[1]]) == 0
result = json.loads(out.getvalue())["result"]
assert result["n_evaluations"] > 0 and result["best_value"] < 1e-3, result
loaded = [m for m in sys.modules if m.startswith("scipy")]
assert not loaded, loaded
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(problem)],
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
