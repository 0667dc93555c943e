"""Constrained derivative-free searches over the test function families.

A SearchProblem names a family, a box for its free parameters and an
objective (deficit, Fisher-to-entropy ratio, or the margin of a named
stability bound).  The optimizer is restarted Nelder-Mead with quadratic
hinge penalties for the box; the penalty weight doubles on every restart
so late restarts cannot trade constraint violation for objective value.
Construction failures (sign changes, capacity) are charged a large value
instead of raising, which keeps the simplex inside the feasible set.

The Nelder-Mead itself (nelder_mead; Nelder & Mead, Comput. J. 7, 1965)
is written in numpy as a generator: it yields each point to evaluate and
receives its value.  It takes the steps of scipy.optimize's non-adaptive
method and evaluates the same points in the same order, so the search
needs no scipy at run time; minimize_callable drives it with a function,
one point at a time.  The restarts draw their starting points before any
value is known, so run_search runs them in lockstep: each round evaluates
the pending point of every restart still running as one batch, the
members checked, normalized and reported as rows of one array (the
families' jet_rows and admits, functionals.report_rows).  The trace
still lists restart 0's evaluations first, then restart 1's, and so on,
and every figure is bit for bit that of the restarts run one after
another with raw_objective, which is the one-row case of the batch.

The module also fits the small-amplitude scaling of the deficit along the
affine family and evaluates the closed-form squared distance from that
family to the manifold of exponential tilts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConstraintError, LabError
from .measure import GaussianMeasureSpec, QuadratureGrid, build_grid
from .functions import (
    MAX_HERMITE_DEGREE,
    Affine,
    GaussianProfile,
    HermiteExpansion,
    Record,
    TestFunction,
    Tilt,
    l2_norms,
    normalizable,
    normalize,
)
from .functionals import report, report_rows
from .stability import BOUND_NAMES, verify_bounds

BIG_VALUE = 1e6
OBJECTIVES = ("deficit", "ratio_q", "stab_margin")
FAMILIES = ("hermite", "affine", "tilt", "gaussian")


@dataclass(frozen=True)
class SearchProblem(Record):
    """One box-constrained search over a parametric family."""

    name: str
    objective: str
    family: str
    d: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    bound: str | None = None
    grid_order: int = 64
    restarts: int = 3
    maxiter: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ConstraintError(
                f"unknown objective {self.objective!r}; known: {OBJECTIVES}"
            )
        if self.objective == "stab_margin":
            if self.bound is None or self.bound not in BOUND_NAMES:
                raise ConstraintError(
                    f"stab_margin needs a bound name from {BOUND_NAMES}, got {self.bound!r}"
                )
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        if len(lower) != len(upper) or not lower:
            raise ConstraintError("lower and upper must be nonempty and equally long")
        # the restarts draw their starting points uniformly from the box
        if not all(0.0 <= hi - lo < math.inf for lo, hi in zip(lower, upper)):
            raise ConstraintError(f"the box needs lower <= upper and a finite span: {lower}, {upper}")
        if self.family not in FAMILIES:
            raise ConstraintError(
                f"family {self.family!r} is not searchable; searchable: {FAMILIES}"
            )
        if self.family == "hermite" and self.d != 1:
            raise ConstraintError(f"hermite searches run in d = 1, got d = {self.d}")
        # one box entry per free parameter: the hermite coefficients of
        # degree 1 and up, the affine amplitude, one or d tilt or variance entries
        sizes, allowed = {
            "hermite": (range(1, MAX_HERMITE_DEGREE + 1), f"1 to {MAX_HERMITE_DEGREE}"),
            "affine": ((1,), "1"),
        }.get(self.family, ((1, self.d), f"1 or d = {self.d}"))
        if len(lower) not in sizes:
            raise ConstraintError(
                f"a {self.family} search takes {allowed} box entries, got {len(lower)}"
            )
        if self.restarts < 1 or self.maxiter < 1 or self.seed < 0:
            raise ConstraintError(
                "need restarts >= 1, maxiter >= 1 and seed >= 0, got "
                f"{self.restarts}, {self.maxiter} and {self.seed}"
            )
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_params(self) -> int:
        return len(self.lower)

    @classmethod
    def from_json(cls, obj: dict) -> "SearchProblem":
        if not isinstance(obj, dict):
            raise ConstraintError(f"a search problem is a JSON object, got {obj!r}")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ConstraintError(f"unknown search problem fields {sorted(unknown)}")
        counts = ("d", "grid_order", "restarts", "maxiter", "seed")
        # JSON integers only: a bool is an int to isinstance
        bad = [name for name in counts if name in obj and type(obj[name]) is not int]
        if bad:
            raise ConstraintError(f"search problem fields {bad} must be integers")
        try:
            return cls(**obj)
        except (TypeError, ValueError) as exc:
            raise ConstraintError(f"malformed search problem: {exc}") from exc


def instantiate(problem: SearchProblem, theta: np.ndarray) -> TestFunction:
    """Map a parameter vector into the problem's family: the member
    build_function makes of the same parameters, constructed directly from
    its one row of _member_rows."""
    # a copy: the family keeps the array, the optimizer may reuse theta
    family, rows = _member_rows(problem, np.array(theta, dtype=float)[None])
    return family.from_row(**_take(rows, 0))


def _member_rows(problem: SearchProblem, thetas: np.ndarray) -> tuple[type[TestFunction], dict]:
    """The family and its jet_rows keywords for the members of the rows of
    thetas (k, n_params), at scale 1."""
    k, d = thetas.shape[0], problem.d
    ones = np.ones(k)
    if problem.family == "hermite":
        # u = He_0 + sum_j theta_j He_j in d = 1
        coeffs = np.concatenate([ones[:, None], thetas], axis=1)
        return HermiteExpansion, {"alphas": tuple((j,) for j in range(coeffs.shape[1])), "coeffs": coeffs}
    if problem.family == "affine":
        return Affine, {"eps": thetas[:, 0], "nu": np.broadcast_to(np.eye(d)[0], (k, d)), "amplitude": ones}
    # one box entry stands for all d axes
    per_axis = np.repeat(thetas, d, axis=1) if thetas.shape[1] == 1 else thetas
    if problem.family == "tilt":
        return Tilt, {"a": per_axis, "c": ones}
    return GaussianProfile, {"sigma2": per_axis, "mean": np.zeros_like(per_axis), "amplitude": ones}


def _take(rows: dict, index) -> dict:
    """The members at index of a family's jet_rows keywords; a keyword that
    every member shares (the Hermite multi-indices, a tuple) stays whole."""
    return {key: value[index] if isinstance(value, np.ndarray) else value for key, value in rows.items()}


def _margin(problem: SearchProblem, theta: np.ndarray, grid: QuadratureGrid) -> float:
    # the verifiers take one member at a time
    try:
        u = normalize(instantiate(problem, theta), grid)
    except LabError:
        return BIG_VALUE
    bound = verify_bounds(u, grid, names=(problem.bound,))[0]
    if bound.status == "skipped" or not math.isfinite(bound.margin):
        return BIG_VALUE
    return bound.margin


def _objectives(problem: SearchProblem, thetas: np.ndarray, grid: QuadratureGrid) -> list[float]:
    """raw_objective of each row of thetas (k, n_params), evaluated as one batch."""
    if problem.objective == "stab_margin":
        return [_margin(problem, theta, grid) for theta in thetas]
    values = [BIG_VALUE] * thetas.shape[0]
    # a row the family's constructor would reject, or that normalize would,
    # keeps BIG_VALUE and is evaluated no further
    family, rows = _member_rows(problem, thetas)
    live = np.flatnonzero(family.admits(**rows))
    rows = _take(rows, live)
    norms = l2_norms(grid, lambda x: family.jet_rows(x, 0, **rows)[0])
    kept = normalizable(norms)
    live, rows = live[kept], _take(rows, kept)
    # normalize's with_scale(1 / norm), on the one keyword it multiplies
    rows[family.scaled] = (rows[family.scaled].T * (1.0 / norms[kept])).T
    u, grad = family.jet_rows(grid.points, 1, **rows)
    for i, rep in zip(live.tolist(), report_rows(grid, u**2, grad.transpose(0, 2, 1))):
        if problem.objective == "deficit":
            values[i] = rep.deficit
        elif not (rep.entropy < 1e-10 or rep.ratio_q is None):
            values[i] = rep.ratio_q
    return values


def raw_objective(problem: SearchProblem, theta: np.ndarray, grid: QuadratureGrid) -> float:
    """Objective without penalties; BIG_VALUE for infeasible parameters.
    The one-row case of the batches run_search evaluates."""
    return _objectives(problem, np.asarray(theta, dtype=float)[None], grid)[0]


def box_violation(thetas: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> list[float]:
    """Squared distance from the box of each row of thetas (k, n_params)."""
    below = np.maximum(lower - thetas, 0.0)
    above = np.maximum(thetas - upper, 0.0)
    return (below**2 + above**2).sum(axis=1).tolist()


@dataclass(frozen=True)
class TracePoint:
    evaluation: int
    params: tuple[float, ...]
    objective: float
    penalty: float


@dataclass(frozen=True, eq=False)
class SearchResult(Record):
    problem: SearchProblem
    best_params: tuple[float, ...]
    best_value: float
    best_function: dict | None
    n_evaluations: int
    trace: tuple[TracePoint, ...] = field(repr=False)


def nelder_mead(x0: np.ndarray, maxiter: int = 200):
    """Nelder-Mead from x0 as a generator: it yields each point to evaluate,
    a copy the caller may keep or change, takes the point's value by send()
    and returns (best vertex, least value, number of evaluations) as the
    value of its StopIteration.

    Step for step the non-adaptive method of scipy.optimize.minimize
    (scipy 1.17) with xatol 1e-9 and fatol 1e-13: the same initial simplex,
    the coefficients 1, 2, 1/2, 1/2, the same sorting and stopping test, at
    most maxiter - 1 iterations, so it evaluates the same points in the
    same order.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    nfev = 0

    def call(x: np.ndarray):
        # fx = yield from call(x): one evaluation
        nonlocal nfev
        nfev += 1
        return (yield x.copy())

    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.empty(n + 1)
    for j in range(n + 1):
        fsim[j] = yield from call(sim[j])

    def order() -> None:
        nonlocal sim, fsim
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    # scipy sorts twice here (in a finally, then again) and after every
    # step, but not on the break of the stopping test, which leaves its loop
    # before the sort; np.argsort is not stable, so every sort is repeated
    # as scipy places it, and ties in fsim end in the same order
    order()
    order()
    for _ in range(maxiter - 1):
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-9
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-13):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = yield from call(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = yield from call(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = yield from call(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = yield from call(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = yield from call(sim[j])
        order()
    return sim[0], float(np.min(fsim)), nfev


def minimize_callable(
    f,
    x0: np.ndarray,
    maxiter: int = 200,
) -> tuple[np.ndarray, float, int]:
    """Nelder-Mead from x0; returns the best vertex, the least value and the
    number of evaluations.

    Drives the generator nelder_mead with f, one point at a time; run_search
    drives one generator per restart in lockstep instead.
    """
    search = nelder_mead(x0, maxiter)
    x = next(search)
    try:
        while True:
            x = search.send(f(x))
    except StopIteration as done:
        return done.value


def run_search(problem: SearchProblem, grid: QuadratureGrid | None = None) -> SearchResult:
    """Restarted Nelder-Mead on problem; grid must be the problem's, of
    order grid_order in d dimensions, and is built when None.

    The restarts run in lockstep: each round sends every running restart
    the penalized value of its pending point, and the raw objectives of
    those points are evaluated as one batch.  The trace lists restart 0's
    evaluations first, then restart 1's, and so on.
    """
    if grid is None:
        grid = build_grid(GaussianMeasureSpec(d=problem.d), problem.grid_order)
    elif (grid.d, grid.order) != (problem.d, problem.grid_order):
        raise ConstraintError(
            f"problem {problem.name!r} needs the order-{problem.grid_order} grid in d = "
            f"{problem.d}, got the order-{grid.order} grid in d = {grid.d}"
        )
    lower = np.asarray(problem.lower)
    upper = np.asarray(problem.upper)
    rng = np.random.default_rng(problem.seed)
    searches = [nelder_mead(rng.uniform(lower, upper), problem.maxiter)
                for _ in range(problem.restarts)]
    evaluated: list[list[tuple[np.ndarray, float, float]]] = [[] for _ in searches]
    pending = {restart: next(search) for restart, search in enumerate(searches)}
    ends: list[np.ndarray | None] = [None] * problem.restarts
    while pending:
        running = list(pending)
        thetas = np.array([pending[r] for r in running])
        raws = _objectives(problem, thetas, grid)
        violations = box_violation(thetas, lower, upper)
        for restart, raw, violation in zip(running, raws, violations):
            theta = pending[restart]
            # the penalty weight doubles on every restart
            pen = 1e3 * 2.0**restart * violation
            evaluated[restart].append((theta, raw, pen))
            try:
                pending[restart] = searches[restart].send(raw + pen)
            except StopIteration as done:
                del pending[restart]
                ends[restart] = np.clip(done.value[0], lower, upper)
    best_theta: np.ndarray | None = None
    best_val = math.inf
    for x, val in zip(ends, _objectives(problem, np.array(ends), grid)):
        if val < best_val:
            best_val = val
            best_theta = x
    assert best_theta is not None
    trace = tuple(
        TracePoint(evaluation=i, params=tuple(theta.tolist()), objective=raw, penalty=pen)
        for i, (theta, raw, pen) in enumerate(p for points in evaluated for p in points)
    )
    try:
        best_fn = instantiate(problem, best_theta).to_json()
    except LabError:
        best_fn = None
    return SearchResult(
        problem=problem,
        best_params=tuple(float(v) for v in best_theta),
        best_value=float(best_val),
        best_function=best_fn,
        n_evaluations=len(trace),
        trace=trace,
    )


def load_problem(path: str) -> SearchProblem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise LabError(f"cannot read search problem {path!r}: {exc}") from exc
    return SearchProblem.from_json(obj)


@dataclass(frozen=True, eq=False)
class ExpansionFit:
    """Log-log fit of the deficit against the perturbation amplitude."""

    eps: np.ndarray
    deficits: np.ndarray
    order: float
    coefficient: float
    residual: float
    excluded: tuple[float, ...]


def epsilon_expansion(
    eps_values,
    grid: QuadratureGrid,
    nu: np.ndarray | None = None,
) -> ExpansionFit:
    """Fit deficit ~ coefficient * eps^order along the affine family 1 + eps x.nu.

    Amplitudes whose deficit is within 5x the quadrature error estimate are
    excluded from the fit; at least two points must survive.
    """
    d = grid.d
    if nu is None:
        nu = np.zeros(d)
        nu[0] = 1.0
    eps_values = np.asarray(sorted(float(e) for e in eps_values))
    if np.any(eps_values <= 0):
        raise ConstraintError("amplitudes must be positive")
    kept_eps, kept_def, excluded = [], [], []
    for e in eps_values:
        u = normalize(Affine(eps=e, nu=nu), grid)
        rep = report(u, grid)
        if rep.deficit <= 5.0 * rep.quadrature_error:
            excluded.append(float(e))
            continue
        kept_eps.append(float(e))
        kept_def.append(rep.deficit)
    if len(kept_eps) < 2:
        raise ConstraintError(
            "fewer than two amplitudes survive the quadrature error screen"
        )
    log_e = np.log(np.asarray(kept_eps))
    log_d = np.log(np.asarray(kept_def))
    slope, intercept = np.polyfit(log_e, log_d, 1)
    fit = slope * log_e + intercept
    return ExpansionFit(
        eps=np.asarray(kept_eps),
        deficits=np.asarray(kept_def),
        order=float(slope),
        coefficient=float(math.exp(intercept)),
        residual=float(np.abs(log_d - fit).max()),
        excluded=tuple(excluded),
    )


def affine_manifold_distance_sq(eps: float) -> float:
    """Squared L2 distance from the normalized affine function at amplitude eps
    to the best-matching normalized exponential tilt; equals eps^4/2 + O(eps^6)."""
    return 2.0 * (1.0 - math.exp(-0.5 * eps**2) * math.sqrt(1.0 + eps**2))
