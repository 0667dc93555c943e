"""Seeded workloads of the glslab benchmark: inputs, operations and checks.

Each workload is a single-process closed loop: the next operation ("op")
starts when the previous one returns.  A run repeats whole *cycles*; cycle
k of a workload is drawn from its own generator seeded by (workload, seed,
k), so the inputs of a cycle never depend on how many cycles ran before it
and the same seed always gives the same inputs.  Every cycle of a workload
has the same mix of op kinds; only the parameters change.

The program sees only family descriptions (``{"family", "params", "d"}``)
and search problem descriptions.  The generators draw admissible
parameters only, so an input rejection is never an op.

Checks compare each op's outputs with what is known exactly, allowing twice
the error estimate the program reports for the figure plus the rounding
floor ``FLOOR`` (relative to the size of the exact value, or 1).  The factor
2 is the margin glslab's own verdicts allow (a bound is ``verified`` when
its margin is at least -2 x its quadrature error): the estimates are
differences between two rules, not strict bounds, and a correct program
lands just past 1 x now and then.  Failures are counted as they come;
nothing is filtered.
"""

from __future__ import annotations

import math
import random

import numpy as np
from numpy.polynomial import hermite_e

WORKLOADS = ("verify_sweep", "flow_pipeline", "search_loop")
ORDER = 64
FLOOR = 1e-12
HULL = 3.0
BIG_VALUE = 1e6  # glslab.search charges infeasible parameters this value

# The corpus entries verify_sweep runs in every cycle.  Named rather than
# read from glslab.corpus.ENTRIES so that entries added later do not change
# the workload.
CORPUS_NAMES = (
    "tilt_half", "tilt_one", "tilt_d2", "tilt_d3",
    "affine_eps01", "affine_eps02", "affine_eps03",
    "hermite_mixed", "hermite_even", "hermite_quartic",
    "gaussian_shifted", "gaussian_s08_shifted", "gaussian_s04_neg",
    "gaussian_d2_aniso", "gaussian_d2",
    "gaussian_s03", "gaussian_s05", "gaussian_s08", "constant_one",
    "bump_r1", "bump_r2", "bump_r4", "two_bumps_wide",
)


def grid_dims(workload: str) -> tuple[int, ...]:
    """Dimensions of the order-64 grids a workload builds during set-up."""
    return {"verify_sweep": (1, 2, 3), "flow_pipeline": (1, 2), "search_loop": (1, 2)}[workload]


# ---------------------------------------------------------------- families


def _desc(family: str, d: int, **params) -> dict:
    return {"family": family, "params": params, "d": d}


def _uniform(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    return [rng.uniform(lo, hi) for _ in range(n)]


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled.

    Used for parameters that set an op's cost (bump radius decides the
    inner order), so every cycle costs about the same whatever the seed.
    """
    step = (hi - lo) / n
    values = [lo + step * (i + rng.random()) for i in range(n)]
    rng.shuffle(values)
    return values


def tilt(rng: random.Random, d: int) -> dict:
    reach = 0.8 if d == 1 else 0.5
    return _desc("tilt", d, a=_uniform(rng, -reach, reach, d), c=rng.uniform(0.5, 2.0))


def affine(rng: random.Random, d: int) -> dict:
    nu = [rng.gauss(0.0, 1.0) for _ in range(d)]
    norm = math.sqrt(sum(v * v for v in nu))
    nu = [v / norm for v in nu]
    # positive on |x|_inf <= 3 iff |eps| * 3 * l1(nu) < 1; keep 10% inside
    limit = 0.9 / (HULL * sum(abs(v) for v in nu))
    eps = rng.choice((-1.0, 1.0)) * rng.uniform(0.02 * limit, limit)
    return _desc("affine", d, eps=eps, nu=nu)


def gaussian(rng: random.Random, d: int) -> dict:
    sigma2 = _uniform(rng, 0.3, 1.0, d)
    mean = [0.0] * d if rng.random() < 0.5 else _uniform(rng, -0.5, 0.5, d)
    return _desc("gaussian", d, sigma2=sigma2, mean=mean)


def bump(rng: random.Random, d: int, centered: bool = False, radius: float | None = None) -> dict:
    center = [0.0] * d if centered or rng.random() < 0.5 else _uniform(rng, -0.5, 0.5, d)
    if radius is None:
        radius = rng.uniform(1.0, 4.0)
    return _desc("bump", d, radius=radius, center=center)


def two_bumps(rng: random.Random) -> dict:
    return _desc(
        "two_bumps",
        1,
        height=rng.uniform(0.7, 1.5),
        radius=rng.uniform(1.5, 2.5),
        separation=rng.uniform(3.5, 5.0),
    )


def _he(k: int, x: np.ndarray) -> np.ndarray:
    return hermite_e.hermeval(x, [0.0] * k + [1.0])


def hermite(rng: random.Random, d: int, degree: int | None = None) -> dict:
    """1 + sum c_alpha He_alpha, redrawn until it is >= 0.1 on the hull.

    The package only admits expansions positive on |x|_inf <= 3; the margin
    keeps its own coarser probe set from disagreeing.
    """
    axis = np.linspace(-HULL, HULL, 601 if d == 1 else 121)
    pts = np.meshgrid(*([axis] * d), indexing="ij")
    if d == 1:
        alphas = [(k,) for k in range(1, (degree or rng.randint(2, 4)) + 1)]
    else:
        alphas = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    while True:
        terms = []
        for alpha in alphas:
            size = max(float(np.abs(_he(k, axis)).max()) for k in alpha)
            terms.append((alpha, rng.uniform(-0.4, 0.4) / size))
        value = 1.0
        for alpha, c in terms:
            term = c
            for axis_values, k in zip(pts, alpha):
                term = term * _he(k, axis_values)
            value = value + term
        if float(np.min(value)) >= 0.1:
            break
    if d == 1:
        return _desc("hermite", 1, coeffs=[1.0] + [c for _, c in terms])
    zero = [0] * d
    return _desc("hermite", d, coeffs=[[zero, 1.0]] + [[list(a), c] for a, c in terms])


# ------------------------------------------------------------- generators


def _verify_cycle(rng: random.Random) -> list[dict]:
    # verify_sweep: normalize + all six bounds on one instance per op.  This
    # is where report, the integrals, the verifiers and the certifier do
    # nearly all the work and OU evolution does none.  Mostly d = 1/2; the
    # two d = 3 instances (262k-point grids) dominate the wall time.
    builds = []
    for family in (tilt, affine, gaussian, bump, hermite):
        builds += [family(rng, 1) for _ in range(3)]
    builds += [two_bumps(rng) for _ in range(3)]
    for family in (tilt, affine, gaussian, bump, hermite):
        builds += [family(rng, 2) for _ in range(2)]
    builds += [tilt(rng, 3), gaussian(rng, 3)]
    return [{"kind": "verify", "corpus": name} for name in CORPUS_NAMES] + [
        {"kind": "verify", "build": build} for build in builds
    ]


def _flow_times(rng: random.Random, n: int) -> list[float]:
    return [0.0] + sorted(rng.uniform(0.02, 2.0) for _ in range(n - 1))


def _counts(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n stratified whole numbers in [lo, hi]: op sizes that vary smoothly."""
    return [int(v) for v in _strata(rng, lo, hi + 1, n)]


# d = 1 ops per cycle: FLOW_DRAWS flow curves of each of four families and
# FLOW_DRAWS two_bumps certificates, four times as many bump pipelines and
# five times as many bump certificates.  With these counts p50 falls in the
# middle of the bump pipelines and p90 among the bump certificates, ops of
# 7-65 ms, rather than among the 2-14 ms flow curves, whose timing follows
# the shared host's load about twice as closely.  A cycle takes about 15 s,
# so a 30-s run is two cycles.
FLOW_DRAWS = 25


def _flow_cycle(rng: random.Random) -> list[dict]:
    # flow_pipeline: nearly all time is OU evolution.  The d = 1 bump
    # pipelines and certificates (inner orders up to 256, 7-65 ms) set the
    # latency percentiles, around the flow curves (2-14 ms) and two_bumps
    # refutations (about 1 ms); the two d = 2 evolutions at order 64
    # (seconds each) dominate throughput and peak memory.  Flow curves run
    # over 5-13 times (about 9), bump radii over [1, 4], both stratified so
    # that op sizes spread evenly and the percentiles do not sit on a step.
    n = FLOW_DRAWS
    sizes = iter(_counts(rng, 5, 13, 4 * n))
    ops = []
    for family in (affine, tilt, gaussian):
        ops += [
            {"kind": "flow_curve", "build": family(rng, 1), "times": _flow_times(rng, next(sizes))}
            for _ in range(n)
        ]
    ops += [
        {
            "kind": "flow_curve",
            "build": hermite(rng, 1, 2 + i % 3),
            "times": _flow_times(rng, next(sizes)),
        }
        for i in range(n)
    ]
    ops += [
        {"kind": "pipeline", "build": bump(rng, 1, centered=True, radius=r)}
        for r in _strata(rng, 1.0, 4.0, 4 * n)
    ]
    for r in _strata(rng, 1.0, 4.0, 5 * n):
        t_star = 0.5 * math.log1p(r**2)
        ops.append({
            "kind": "certify_flow",
            "build": bump(rng, 1, radius=r),
            "times": [0.0, 0.5 * t_star, t_star],
        })
    ops += [{"kind": "certify_flow", "build": two_bumps(rng), "times": [0.0]} for _ in range(n)]
    ops += [
        {"kind": "evolve", "build": tilt(rng, 2), "t": rng.uniform(0.05, 1.0)},
        {"kind": "evolve", "build": gaussian(rng, 2), "t": rng.uniform(0.05, 1.0)},
    ]
    return ops


def _box(family: str, d: int, rng: random.Random) -> tuple[list[float], list[float]]:
    if family == "hermite":
        half = [rng.uniform(0.02, 0.08), rng.uniform(0.02, 0.06), rng.uniform(0.01, 0.03)]
        return [-h for h in half], half
    if family == "affine":
        lo = rng.uniform(0.02, 0.1)
        return [lo], [lo + rng.uniform(0.05, 0.15)]
    if family == "tilt":
        lo = _uniform(rng, 0.1, 0.3, d)
        return lo, [v + rng.uniform(0.1, 0.4) for v in lo]
    return _uniform(rng, 0.3, 0.5, d), _uniform(rng, 0.7, 0.95, d)


def _problem(rng, objective: str, family: str, d: int, bound=None) -> dict:
    # no restarts or maxiter: every search runs the program's defaults
    # (3 restarts, 200 iterations), as the README demo, the CLI and
    # scripts/sharpness_search.py do
    lower, upper = _box(family, d, rng)
    return {
        "name": f"{objective}_{family}_d{d}",
        "objective": objective,
        "bound": bound,
        "family": family,
        "d": d,
        "lower": lower,
        "upper": upper,
        "grid_order": ORDER,
        "seed": rng.randrange(2**31),
    }


# the figure each bound's lhs and distance hold
BOUND_LHS = {
    "entropy_squared": "deficit",
    "fisher_gap": "deficit",
    "kappa_weighted": "deficit",
    "log_concave": "fisher",
    "compact_support": "fisher",
    "gaussian_tail": "fisher",
}
BOUND_DISTANCE = {name: "fisher" if name == "fisher_gap" else "entropy" for name in BOUND_LHS}
STAB_BOUNDS = ("entropy_squared", "fisher_gap", "kappa_weighted", "log_concave", "gaussian_tail")


def _search_cycle(rng: random.Random) -> list[dict]:
    # search_loop: thousands of tiny order-64 reports per op plus scipy
    # Nelder-Mead, the opposite of verify_sweep's few huge grids.  Per-call
    # overhead dominates, so a change that speeds up big grids but adds
    # cost per call shows here as a regression.
    #
    # Searches fall in steps of cost: the cheap d = 1 deficit and ratio_q
    # searches (25-80 ms) and the stab_margin ones (80-160 ms); hermite
    # deficit (the README demo) and the d = 2 tilt (250-350 ms); hermite
    # ratio_q (400-600 ms); the d = 2 gaussian (about 1.2 s).  The counts
    # below put each percentile inside a step, not on the edge between two:
    # p50 falls among the cheap searches and p90 among the 250-350 ms ones:
    # a tenth of 48 is the d = 2 gaussian, the two hermite ratio_q and about
    # half of the four 250-350 ms searches, whatever the number of cycles.
    problems = []
    for _ in range(6):
        for family in ("affine", "tilt", "gaussian"):
            for objective in ("deficit", "ratio_q"):
                problems.append(_problem(rng, objective, family, 1))
    problems += [_problem(rng, "stab_margin", "gaussian", 1, bound) for bound in STAB_BOUNDS]
    problems += [_problem(rng, "deficit", "hermite", 1) for _ in range(3)]
    problems += [_problem(rng, "ratio_q", "hermite", 1) for _ in range(2)]
    problems += [
        _problem(rng, "deficit", "gaussian", 2),
        _problem(rng, "deficit", "tilt", 2),
    ]
    return [{"kind": "search", "problem": p} for p in problems]


_CYCLES = {
    "verify_sweep": _verify_cycle,
    "flow_pipeline": _flow_cycle,
    "search_loop": _search_cycle,
}


def cycle_ops(workload: str, seed: int, k: int) -> list[dict]:
    """The op specs of cycle k; plain JSON data, the same for the same seed.

    The order is shuffled so that each kind of op is spread over the whole
    cycle and its latencies sample the machine's speed across the run.
    """
    rng = random.Random(f"{workload}:{seed}:{k}")
    ops = _CYCLES[workload](rng)
    rng.shuffle(ops)
    return ops


# -------------------------------------------------------------------- ops


class Lab:
    """The glslab package plus the order-64 grids a workload built in set-up."""

    def __init__(self, glslab, dims):
        self.g = glslab
        self.grids = {
            d: glslab.build_grid(glslab.GaussianMeasureSpec(d=d), ORDER) for d in dims
        }

    def function(self, spec: dict):
        if "corpus" in spec:
            return self.g.corpus.get(spec["corpus"]).function()
        return self.g.build_function(spec["build"])

    def run(self, spec: dict):
        """Execute one op and return the program's raw outputs."""
        g, kind = self.g, spec["kind"]
        if kind == "search":
            problem = g.SearchProblem.from_json(spec["problem"])
            return g.run_search(problem, self.grids[problem.d])
        u0 = self.function(spec)
        grid = self.grids[u0.d]
        u = g.normalize(u0, grid)
        if kind == "verify":
            return g.verify_bounds(u, grid)
        if kind == "flow_curve":
            return g.flow_curve(u, np.asarray(spec["times"]), grid)
        if kind == "pipeline":
            return g.compact_improvement_pipeline(u, grid)
        if kind == "certify_flow":
            return g.certify_along_flow(u, np.asarray(spec["times"]), grid)
        if kind == "evolve":
            return [g.evolve(u, spec["t"], grid)]
        raise ValueError(f"unknown op kind {kind!r}")

    def check(self, spec: dict, out) -> tuple[dict, list[str]]:
        """Verdict record for the log, and the list of failed checks."""
        kind = spec["kind"]
        problems: list[str] = []
        if kind == "verify":
            statuses = {b.name: b.status for b in out}
            problems += [f"{n} violated" for n, s in statuses.items() if s == "violated"]
            problems += self._closed_form(self.function(spec), out)
            return {"bounds": statuses}, problems
        if kind == "search":
            return self._check_search(spec["problem"], out)
        if kind == "pipeline":
            if out.status != "verified":
                problems.append(f"pipeline {out.status}: {out.message}")
            return {"status": out.status, "certificate": out.certificate.status}, problems
        if kind == "certify_flow":
            statuses = [c.status for _, c in out]
            family = spec["build"]["family"]
            if family == "bump" and any(s != "certified" for s in statuses):
                problems.append(f"bump certificates {statuses}")
            if family == "two_bumps" and statuses[0] != "refuted":
                problems.append(f"two_bumps certificate {statuses[0]}")
            return {"certificates": statuses, "inner_orders": [s.inner_order for s, _ in out]}, problems
        # flow_curve and evolve: lists of FlowState
        problems += self._check_flow(spec, out)
        return {"inner_orders": [s.inner_order for s in out]}, problems

    # Exact values: u^2 dgamma = N(b, diag s2) has E = KL(N(b, s2) | N(0, 1))
    # and I = (1/4) E|grad log h|^2; a tilt c e^{-a.x} is the case s2 = 1,
    # b = -2a.  Under the OU flow s2 -> e^{-2t} s2 + 1 - e^{-2t}, b -> e^{-t} b.
    @staticmethod
    def _gaussian_law(build: dict):
        p, d = build["params"], build["d"]
        if build["family"] == "tilt":
            return np.ones(d), -2.0 * np.asarray(p["a"], dtype=float)
        if build["family"] == "gaussian":
            mean = p.get("mean") or [0.0] * d
            return np.asarray(p["sigma2"], dtype=float), np.asarray(mean, dtype=float)
        return None

    @staticmethod
    def _exact(s2: np.ndarray, b: np.ndarray, t: float = 0.0) -> tuple[float, float]:
        decay = math.exp(-t)
        s2 = decay**2 * s2 + 1.0 - decay**2
        b = decay * b
        entropy = 0.5 * float(np.sum(s2 + b**2 - 1.0 - np.log(s2)))
        fisher = 0.25 * float(np.sum((np.sqrt(s2) - 1.0 / np.sqrt(s2)) ** 2 + b**2))
        return entropy, fisher

    @staticmethod
    def _off(name: str, got: float, want: float, err: float) -> list[str]:
        tol = 2.0 * err + FLOOR * max(1.0, abs(want))
        if abs(got - want) <= tol:
            return []
        return [f"{name} {got!r} != exact {want!r} (tolerance {tol:.2e})"]

    def _closed_form(self, u0, bounds) -> list[str]:
        """Check the entropy, Fisher information and deficit verify_bounds returned.

        A bound's quadrature_error is the report's fisher_error +
        entropy_error / 2, which covers its deficit and Fisher figures;
        twice it covers entropy_error.  A figure no bound returned (tilts
        skip the moment-gated bounds) is checked on a separate report
        against that report's own error of the figure.
        """
        law = self._gaussian_law(u0.to_json())
        if law is None:
            return []
        exact = dict(zip(("entropy", "fisher"), self._exact(*law)))
        exact["deficit"] = exact["fisher"] - 0.5 * exact["entropy"]
        problems: list[str] = []
        seen = set()
        for b in bounds:
            if b.status == "skipped":
                continue
            figures = [(BOUND_LHS[b.name], b.lhs), (BOUND_DISTANCE[b.name], b.distance)]
            figures += [(q, b.extras[q]) for q in ("entropy", "fisher") if q in b.extras]
            for quantity, got in figures:
                err = (2.0 if quantity == "entropy" else 1.0) * b.quadrature_error
                problems += self._off(f"{b.name} {quantity}", got, exact[quantity], err)
                seen.add(quantity)
        if seen != set(exact):
            grid = self.grids[u0.d]
            rep = self.g.report(self.g.normalize(u0, grid), grid)
            errors = {
                "entropy": rep.entropy_error,
                "fisher": rep.fisher_error,
                "deficit": rep.quadrature_error,
            }
            for quantity in sorted(set(exact) - seen):
                got = getattr(rep, quantity)
                problems += self._off(quantity, got, exact[quantity], errors[quantity])
        return problems

    def _check_flow(self, spec: dict, states) -> list[str]:
        problems: list[str] = []
        law = self._gaussian_law(spec["build"])
        grid = self.grids[spec["build"]["d"]]
        base = states[0] if states[0].t == 0.0 else None
        if base is None:
            u = self.g.normalize(self.function(spec), grid)
            base = self.g.evolve(u, 0.0, grid)
        for s in states:
            # quadrature_error = fisher_error + entropy_error / 2, as in
            # _closed_form; the moment checks compare two states' figures
            if law is not None:
                entropy, fisher = self._exact(*law, t=s.t)
                tol = 2.0 * s.quadrature_error + s.inner_error
                problems += self._off(f"entropy(t={s.t:.3f})", s.entropy, entropy, tol)
                tol = s.quadrature_error + s.inner_error
                problems += self._off(f"fisher(t={s.t:.3f})", s.fisher, fisher, tol)
            err = s.quadrature_error + s.inner_error + base.quadrature_error
            decay = math.exp(-s.t)
            for j, (m_t, m_0) in enumerate(zip(s.first_moment, base.first_moment)):
                problems += self._off(f"moment1[{j}](t={s.t:.3f})", m_t, decay * m_0, err)
            problems += self._off(
                f"moment2_gap(t={s.t:.3f})",
                s.second_moment_gap,
                decay**2 * base.second_moment_gap,
                err,
            )
        return problems

    def _check_search(self, problem: dict, result) -> tuple[dict, list[str]]:
        problems: list[str] = []
        inside = all(
            lo <= p <= hi
            for lo, p, hi in zip(problem["lower"], result.best_params, problem["upper"])
        )
        if not inside:
            problems.append(f"best point {result.best_params} outside its box")
        if result.best_function is None or not result.best_value < BIG_VALUE:
            problems.append("no feasible point found")
        elif problem["objective"] == "deficit":
            grid = self.grids[problem["d"]]
            u = self.g.normalize(self.g.build_function(result.best_function), grid)
            err = self.g.report(u, grid).quadrature_error
            if result.best_value < -2.0 * err - FLOOR:
                problems.append(f"deficit {result.best_value!r} below -2 x error {err:.2e}")
        return {"evaluations": result.n_evaluations}, problems
