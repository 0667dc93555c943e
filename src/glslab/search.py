"""Constrained derivative-free searches over the test function families.

A SearchProblem names a family, a box for its free parameters and an
objective (deficit, Fisher-to-entropy ratio, or the margin of a named
stability bound).  The optimizer is restarted Nelder-Mead with quadratic
hinge penalties for the box; the penalty weight doubles on every restart
so late restarts cannot trade constraint violation for objective value.
Construction failures (sign changes, capacity) are charged a large value
instead of raising, which keeps the simplex inside the feasible set.

The Nelder-Mead itself (minimize_callable; Nelder & Mead, Comput. J. 7,
1965) is written in numpy.  It takes the steps of scipy.optimize's
non-adaptive method and evaluates the same points in the same order, so
the search needs no scipy at run time.

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
    normalize,
)
from .functionals import report
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
        if any(lo > hi for lo, hi in zip(lower, upper)):
            raise ConstraintError(f"empty box: lower {lower} exceeds upper {upper}")
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
    build_function makes of the same parameters, constructed directly."""
    # a copy: the family keeps the array, the optimizer may reuse theta
    theta = np.array(theta, dtype=float)
    d = problem.d
    if problem.family == "hermite":
        # u = He_0 + sum_k theta_k He_k in d = 1, zero coefficients dropped
        terms = (((0,), 1.0),) + tuple(
            ((k,), c) for k, c in enumerate(theta.tolist(), start=1) if c != 0.0
        )
        return HermiteExpansion(terms=terms, d=1)
    if problem.family == "affine":
        return Affine(eps=float(theta[0]), nu=np.eye(d)[0])
    # one box entry stands for all d axes
    per_axis = np.full(d, theta[0]) if theta.shape == (1,) and d > 1 else theta
    if problem.family == "tilt":
        return Tilt(a=per_axis)
    return GaussianProfile(sigma2=per_axis)


def raw_objective(problem: SearchProblem, theta: np.ndarray, grid: QuadratureGrid) -> float:
    """Objective without penalties; BIG_VALUE for infeasible parameters."""
    try:
        u = normalize(instantiate(problem, theta), grid)
    except LabError:
        return BIG_VALUE
    if problem.objective == "stab_margin":
        bound = verify_bounds(u, grid, names=(problem.bound,))[0]
        if bound.status == "skipped" or not math.isfinite(bound.margin):
            return BIG_VALUE
        return bound.margin
    rep = report(u, grid)
    if problem.objective == "deficit":
        return rep.deficit
    if rep.entropy < 1e-10 or rep.ratio_q is None:
        return BIG_VALUE
    return rep.ratio_q


def box_violation(theta: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    below = np.maximum(lower - theta, 0.0)
    above = np.maximum(theta - upper, 0.0)
    return float((below**2 + above**2).sum())


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


def minimize_callable(
    f,
    x0: np.ndarray,
    maxiter: int = 200,
) -> tuple[np.ndarray, float, int]:
    """Nelder-Mead from x0; returns the best vertex, the least value and the
    number of evaluations.

    Step for step the non-adaptive method of scipy.optimize.minimize
    (scipy 1.17) with xatol 1e-9 and fatol 1e-13: the same initial simplex,
    the coefficients 1, 2, 1/2, 1/2, the same sorting and stopping test, at
    most maxiter - 1 iterations, so it evaluates the same points in the
    same order.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    nfev = 0

    def call(x: np.ndarray) -> float:
        nonlocal nfev
        nfev += 1
        # a copy: f may keep or change its argument
        return f(x.copy())

    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([call(x) for x in sim], dtype=float)

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
        fxr = call(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = call(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = call(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = call(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = call(sim[j])
        order()
    return sim[0], float(np.min(fsim)), nfev


def run_search(problem: SearchProblem, grid: QuadratureGrid | None = None) -> SearchResult:
    if grid is None:
        grid = build_grid(GaussianMeasureSpec(d=problem.d), problem.grid_order)
    lower = np.asarray(problem.lower)
    upper = np.asarray(problem.upper)
    rng = np.random.default_rng(problem.seed)
    trace: list[TracePoint] = []
    best_theta: np.ndarray | None = None
    best_val = math.inf
    for restart in range(problem.restarts):
        weight = 1e3 * 2.0**restart

        def penalized(theta: np.ndarray) -> float:
            raw = raw_objective(problem, theta, grid)
            pen = weight * box_violation(theta, lower, upper)
            trace.append(
                TracePoint(
                    evaluation=len(trace),
                    params=tuple(float(v) for v in theta),
                    objective=raw,
                    penalty=pen,
                )
            )
            return raw + pen

        x0 = rng.uniform(lower, upper)
        x, _, _ = minimize_callable(penalized, x0, maxiter=problem.maxiter)
        x = np.clip(x, lower, upper)
        val = raw_objective(problem, x, grid)
        if val < best_val:
            best_val = val
            best_theta = x
    assert best_theta is not None
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
        trace=tuple(trace),
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
