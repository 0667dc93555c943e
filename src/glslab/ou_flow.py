"""Ornstein-Uhlenbeck evolution of densities, exact or by Gaussian averaging.

The density h = u^2 evolves as

    h(t, x) = int h0(e^{-t} x + sqrt(1 - e^{-2t}) y) dgamma(y).

evolve, the one entry point, takes one of three paths.

1. Closed form.  A family the flow maps to itself (TestFunction.evolved:
   Gaussian profiles and tilts) evolves to another member of the family.
2. Exact average.  A family with exact averages of h0, grad h0 and Hess h0
   (TestFunction.ou_average) evolves into an EvolvedDensity without an
   inner rule.  Affine and Hermite u of degree k_i along axis i average
   over the tensor product of the order-(k_i + 1) Gauss-Hermite rules,
   exact for h0 (any d); every d = 1 bump and two_bumps averages in
   closed form (the windows module).
3. Reference quadrature.  Bumps and two_bumps at d >= 2 are averaged over
   an inner Gauss-Hermite rule in y; differentiating under the integral gives
   grad h = e^{-t} int grad h0(...) and Hess h = e^{-2t} int Hess h0(...).

On paths 1 and 2 the FlowState carries inner_order = 0 and inner_error =
0.0, as at t = 0.  EvolvedDensity wraps the average of paths 2 and 3 as a
TestFunction for v = sqrt(h), which plugs into every functional and
certifier unchanged.  The inner rules of paths 2 and 3 go through one
function, functions.inner_average, whose one pass over the inner points
serves every average a call needs.  Like jet(x, order), every average
takes an order and returns the first order + 1 of h, grad h and Hess h,
each stacked along a leading time axis: (T, n), (T, n, d), (T, n, d, d).

One function, _evolve, evolves a sequence of times; evolve is its one-time
case, and flow_curve, certify_along_flow and the stencils of every rate
check (all sample times of an ODE check at once) each make one call.
Consecutive times of one path go in batches whose times x rows stay within
one block (functions._BLOCK): on path 1 one jet of the batch's members
gives the masses, one their report rows and one report_rows reads them; on
path 2 one average (u0.ou_average over the batch's times) on grid.points,
or with the probe cloud in certify_along_flow, which reads the certificates
from it too, gives every state: one row_sums its masses, one multiply per
order scales it, and one report_rows reads its stacked rows; path 3 goes
one time at a time.  Every state has the bits of a call with its time
alone, and no average outlives its batch.

On path 3 the inner (y) rule starts at the outer order and is doubled
until its embedded error estimate inner_error drops below 1e-9, capped at
MAX_ORDER (256); a state that stops at the cap above 1e-9 warns.
mehler_density is the quadrature path at a fixed inner order for every
family, and the reference paths 1 and 2 are tested against.
Exact facts checked downstream: mass is conserved, the density first
moment decays like e^{-t}, the second moment gap like e^{-2t}, dE/dt = -4 I,
and E, I are non-increasing.  Every rate check reads its centered difference
through one reader, _centered_rate over stencil_states: a figure's rate
(f(t + dt) - f(t - dt)) / (2 dt) with stencil error (err(t - dt) +
err(t + dt)) / (2 dt), dt = STENCIL_DT, from the figure's quadrature error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Callable

import numpy as np

from .errors import FlowError
from .measure import MAX_ORDER, GaussianMeasureSpec, QuadratureGrid, build_grid, row_sums
from .functions import (
    _BLOCK,
    SUPPORT_FLOOR,
    SUPPORT_THRESHOLD,
    Envelope,
    TestFunction,
    _support,
    check_envelope,
    inner_average,
    pruned_read,
)
from .functionals import FunctionalReport, IdentityResult, _integrals, _positive_mask
from .functionals import report, report_rows

INNER_TOL = 1e-9
# time step of the centered differences in the derivative checks
STENCIL_DT = 1e-3


def _root_jet(h: np.ndarray, *derivs: np.ndarray) -> tuple[np.ndarray, ...]:
    """v = sqrt h, then grad v and Hess v for as many of grad h, Hess h as given:

        grad v = grad h / (2 sqrt h),
        Hess v = Hess h / (2 sqrt h) - grad h (x) grad h / (4 h^1.5)

    on the support h > SUPPORT_FLOOR max h of each row, and 0 off it."""
    out = [np.sqrt(np.maximum(h, 0.0))]
    if not derivs:
        return tuple(out)
    mask = _support(h, SUPPORT_FLOOR)
    hm = h[mask]
    ghm = derivs[0][mask]
    grad = np.zeros_like(derivs[0])
    grad[mask] = ghm / (2.0 * np.sqrt(hm))[:, None]
    out.append(grad)
    if len(derivs) == 2:
        hess = np.zeros_like(derivs[1])
        hess[mask] = derivs[1][mask] / (2.0 * np.sqrt(hm))[:, None, None] - (
            ghm[:, :, None] * ghm[:, None, :]
        ) / (4.0 * hm**1.5)[:, None, None]
        out.append(hess)
    return tuple(out)


def _scaled(avg: tuple[np.ndarray, ...], times, amplitudes) -> tuple[np.ndarray, ...]:
    """h, grad h and Hess h at each time t of amplitude^2 times the density
    evolved from u0^2, from u0's averages avg stacked by time: the average of
    order k carries amplitude^2 e^{-k t}."""
    out = []
    for k, a in enumerate(avg):
        factors = np.array([amp**2 * math.exp(-k * t) for t, amp in zip(times, amplitudes)])
        out.append(factors.reshape(factors.shape + (1,) * (a.ndim - 1)) * a)
    return tuple(out)


def _hess_log(h: np.ndarray, gh: np.ndarray, hh: np.ndarray) -> tuple[np.ndarray, ...]:
    """density_and_hess_log from h, grad h and Hess h: h, the support mask
    h > SUPPORT_THRESHOLD max h and Hess h / h - grad log h (x) grad log h on it."""
    mask = _support(h, SUPPORT_THRESHOLD)
    gl = gh[mask] / h[mask, None]
    return h, mask, hh[mask] / h[mask, None, None] - gl[:, :, None] * gl[:, None, :]


@dataclass(frozen=True, eq=False)
class EvolvedDensity(TestFunction):
    """v = sqrt(h(t, .)) for h evolved from u0^2.

    Without an inner rule (inner = None) h, grad h and Hess h are u0's exact
    averages (u0.ou_average); with one they come from inner_average over that
    rule, the reference every family has.  The average of order k carries
    e^{-k t}.  One pass averages h, grad h and Hess h up to the order a call
    needs.  Nothing is kept between calls: jet(x, order) reads one average
    of its own order, density order 0, density_and_gradient order 1 and
    density_and_hess_log order 2.
    """

    u0: TestFunction
    t: float
    inner: QuadratureGrid | None = None
    amplitude: float = 1.0
    family = "evolved"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t > 0):
            raise FlowError(f"evolved density needs a finite t > 0, got {self.t}")
        object.__setattr__(self, "d", self.u0.d)

    def _average(self, x: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        """The first order + 1 of h, grad h and Hess h of the evolved density at x."""
        if self.inner is None:
            avgs = self.u0.ou_average(x, [self.t], order)
            if avgs is None:
                raise FlowError(f"{self.u0.family} has no exact average; give an inner rule")
        else:
            avgs = inner_average(self.u0, x, [self.t], order, self.inner.nodes, self.inner.weights)
        return tuple(a[0] for a in _scaled(avgs, [self.t], [self.amplitude]))

    def jet(self, x: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
        return _root_jet(*self._average(x, order))

    def density(self, x: np.ndarray) -> np.ndarray:
        return self._average(x, 0)[0]

    def density_and_gradient(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h, gh = self._average(x, 1)
        return h, _root_jet(h, gh)[1]

    def density_and_hess_log(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _hess_log(*self._average(x, 2))

    def params(self) -> dict:
        return {
            "t": self.t,
            "inner_order": 0 if self.inner is None else self.inner.order,
            "initial": self.u0.to_json(),
        }


def _check_time(t: float) -> None:
    if t < 0:
        raise FlowError(f"evolution time must be nonnegative, got {t}")
    if not math.isfinite(t):
        raise FlowError(f"evolved density needs a finite t > 0, got {t}")


def mehler_density(u0: TestFunction, t: float, inner_order: int = 64) -> TestFunction:
    """Raw evolved function at a fixed inner order; t = 0 returns u0 itself.

    This is the quadrature path for every family, closed forms and exact
    averages included.
    """
    _check_time(t)
    if t == 0:
        return u0
    inner = build_grid(GaussianMeasureSpec(d=u0.d), inner_order)
    return EvolvedDensity(u0=u0, t=t, inner=inner)


def _inner_mismatch(v: EvolvedDensity, grid: QuadratureGrid) -> tuple[float, np.ndarray]:
    """Weighted L1 gap between the inner rule and its embedded coarse partner,
    with v's density on the grid."""
    hf = v.density(grid.nodes)
    hc = replace(v, inner=v.inner.coarse).density(grid.nodes)
    return float(grid.weights @ np.abs(hf - hc)), hf


@dataclass(frozen=True, eq=False)
class FlowState(FunctionalReport):
    """The report of the normalized evolved density v at time t, with v, the
    mass v was normalized from and the inner rule's order and error."""

    t: float
    v: TestFunction
    mass: float
    inner_error: float
    inner_order: int


def evolve(u0: TestFunction, t: float, grid: QuadratureGrid) -> FlowState:
    """Evolve u0 to time t and report functionals of the normalized state.

    A family with a closed form (u0.evolved) or an exact average
    (u0.ou_average: affine, Hermite, d = 1 bumps and two_bumps) evolves
    exactly, with inner_order = 0 and inner_error = 0.0 in the state.
    Bumps and two_bumps at d >= 2 are averaged by quadrature: the inner rule
    starts at the grid order and doubles up to MAX_ORDER until the
    inner_error between it and its embedded coarse rule is at most
    INNER_TOL; the state records the order used and that error.  The
    one-time case of _evolve.
    """
    return next(_evolve(u0, [t], grid, grid.points, 1))[0]


def _densities(members: list[TestFunction], x: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
    """h = u^2 (k, n) and, for order 1, grad u (k, n, d) of k members of one
    family at x: one jet_rows call on their stacked rows, or, for a family
    without rows, each member's density or density_and_gradient."""
    first = members[0]
    if hasattr(first, "_row"):
        rows = {
            key: np.array([m._row[key] for m in members]) if isinstance(value, np.ndarray) else value
            for key, value in first._row.items()
        }
        u, *grad = type(first).jet_rows(x, order, **rows)
        return (u**2, *(np.swapaxes(g, -1, -2) for g in grad))
    readers = (lambda m: (m.density(x),), lambda m: m.density_and_gradient(x))[order]
    return tuple(np.array(rows) for rows in zip(*map(readers, members)))


def _masses(grid: QuadratureGrid, h: np.ndarray) -> list[float]:
    """||sqrt h||^2 of each row of h (k, n) on grid.nodes, summed as l2_norm
    sums it, so that a member scaled by 1 / sqrt(mass) is normalize(member,
    grid) bit for bit wherever normalize reads grid itself (not on a pruned
    d = 3 twin); FlowError for a mass that vanishes."""
    masses = row_sums(np.sqrt(np.maximum(h, 0.0)) ** 2, grid.weights).tolist()
    if min(masses) <= 0:
        raise FlowError("evolved density has vanishing mass on the grid")
    return masses


def _state(t: float, v: TestFunction, mass: float, rep, inner_err: float = 0.0, inner_order: int = 0):
    return FlowState(
        **vars(rep),
        t=t,
        v=v,
        mass=float(mass),
        inner_error=float(inner_err),
        inner_order=inner_order,
    )


def _closed_form(members: list[TestFunction], times: list[float], grid: QuadratureGrid) -> list:
    """(state, None) of each member, normalized on grid: one jet on
    grid.nodes for the masses, then, for the members that read the same
    grid (pruned_read, decided member by member), one jet on its points and
    one report_rows."""
    masses = _masses(grid, _densities(members, grid.nodes, 0)[0])
    vs = [m.with_scale(1.0 / math.sqrt(mass)) for m, mass in zip(members, masses)]
    reads = [pruned_read(v, grid, Envelope.entropy, Envelope.fisher, Envelope.moments) for v in vs]
    reports = [None] * len(vs)
    for read in {id(g): g for g, _ in reads}.values():
        index = [i for i, (g, _) in enumerate(reads) if g is read]
        h, grad = _densities([vs[i] for i in index], read.points, 1)
        dropped = [tuple(reads[i][1][:2]) for i in index]
        for i, rep in zip(index, report_rows(read, h, grad, dropped=dropped)):
            reports[i] = rep
    return [(_state(*args), None) for args in zip(times, vs, masses, reports)]


def _averaged(
    u0: TestFunction, times: list[float], grid: QuadratureGrid, x: np.ndarray, order: int, read
) -> list:
    """(state, reading) at each time of u0 without a closed form.  The exact
    path takes one average of the given order on x, grid.points followed by
    any other rows, stacked by time and scaled to each state's v: the masses
    read its node rows, one report_rows its grid.points rows, and read, if
    given, all of one time's rows.  The quadrature path goes one time at a
    time, with None for its reading."""
    avgs = u0.ou_average(x, times, order)
    if avgs is None:
        return [(_quadrature(u0, t, grid), None) for t in times]
    masses = _masses(grid, avgs[0][:, : grid.n_points])
    vs = [EvolvedDensity(u0=u0, t=t).with_scale(1.0 / math.sqrt(m)) for t, m in zip(times, masses)]
    avgs = _scaled(avgs, times, [v.amplitude for v in vs])
    points = grid.points.shape[0]
    h = avgs[0][:, :points]
    reports = report_rows(grid, h, _root_jet(h, avgs[1][:, :points])[1])
    return [
        (_state(t, v, mass, rep), None if read is None else read(tuple(a[i] for a in avgs)))
        for i, (t, v, mass, rep) in enumerate(zip(times, vs, masses, reports))
    ]


def _quadrature(u0: TestFunction, t: float, grid: QuadratureGrid) -> FlowState:
    """The state of u0 evolved to t by the adaptive inner rule."""
    order = grid.order
    while True:
        v_raw = mehler_density(u0, t, order)
        # report averages on grid.points: fail before any average it could not finish
        check_envelope(grid.points.shape[0], v_raw.inner.n_points)
        inner_err, h = _inner_mismatch(v_raw, grid)
        if inner_err <= INNER_TOL or order >= MAX_ORDER:
            break
        order = min(2 * order, MAX_ORDER)
    if inner_err > INNER_TOL:
        warnings.warn(
            f"inner rule error {inner_err:.3e} above {INNER_TOL:.0e} at cap order {order}",
            # the caller of evolve, past _averaged, its comprehension and _evolve
            stacklevel=6,
        )
    (mass,) = _masses(grid, h[None])
    v = v_raw.with_scale(1.0 / math.sqrt(mass))
    return _state(t, v, mass, report(v, grid), inner_err, order)


def _time_list(times) -> list[float]:
    """times as a list of floats; FlowError unless they are 1-d."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise FlowError(f"times must be a 1-d sequence, got shape {times.shape}")
    return times.tolist()


def _evolve(
    u0: TestFunction, times, grid: QuadratureGrid, x: np.ndarray, avg_order: int, read=None
):
    """evolve at each of the times, a 1-d sequence, yielded in order as
    (state, reading).

    Consecutive times of one path go in batches of T with T x rows of x <=
    _BLOCK, so that a batch holds at most one block of rows more than one
    time does.  Closed forms (and t = 0) go through _closed_form, the other
    times through _averaged, whose exact path takes one average of order
    avg_order >= 1 on x per batch.  On that path the reading is read(h, grad
    h, ... of the state's v on every row of x), if read is given; it is None
    otherwise, so that no average outlives its batch.
    """
    times = _time_list(times)
    for t in times:
        _check_time(t)
    size = max(1, _BLOCK // x.shape[0])
    members = [u0 if t == 0 else u0.evolved(t) for t in times]
    for closed, run in groupby(range(len(times)), key=lambda i: members[i] is not None):
        run = list(run)
        for start in range(0, len(run), size):
            ts = [times[i] for i in run[start : start + size]]
            if closed:
                yield from _closed_form([members[i] for i in run[start : start + size]], ts, grid)
            else:
                yield from _averaged(u0, ts, grid, x, avg_order, read)


def flow_curve(u0: TestFunction, times: np.ndarray, grid: QuadratureGrid) -> list[FlowState]:
    """States along increasing times; entropy and Fisher must not increase."""
    times = _time_list(times)
    if not times or np.any(np.diff(times) <= 0):
        raise FlowError("times must be nonempty and strictly increasing")
    states = [state for state, _ in _evolve(u0, times, grid, grid.points, 1)]
    for prev, cur in zip(states, states[1:]):
        slack = 1e-8 + 2.0 * (prev.quadrature_error + cur.quadrature_error)
        for name, what in (("entropy", "entropy"), ("fisher", "fisher information")):
            a, b = getattr(prev, name), getattr(cur, name)
            if b > a + slack:
                raise FlowError(
                    f"{what} increased along the flow: {a!r} -> {b!r} "
                    f"between t = {prev.t} and t = {cur.t}"
                )
    return states


FLOW_CSV_COLUMNS = ("t", "entropy", "fisher", "deficit", "Q", "moment1_norm", "moment2_gap")


def flow_csv_rows(states: list[FlowState]) -> list[str]:
    rows = [",".join(FLOW_CSV_COLUMNS)]
    for s in states:
        q = s.ratio_q if s.ratio_q is not None else float("nan")
        vals = (
            s.t,
            s.entropy,
            s.fisher,
            s.deficit,
            q,
            float(np.linalg.norm(s.first_moment)),
            s.second_moment_gap,
        )
        rows.append(",".join("%.17g" % v for v in vals))
    return rows


_Stencil = tuple[FlowState, FlowState, FlowState]
# a figure of a state and its quadrature error
_Figure = Callable[[FlowState], tuple[float, float]]


def _stencils(u0: TestFunction, times, grid: QuadratureGrid):
    """The stencil states at t - STENCIL_DT, t and t + STENCIL_DT of each
    sample time t in turn, from one _evolve call; FlowError for any t <=
    STENCIL_DT, before any evolution."""
    stencil = []
    for t in _time_list(times):
        if t <= STENCIL_DT:
            raise FlowError(f"need t > {STENCIL_DT} for the centered difference, got t = {t}")
        stencil += (t - STENCIL_DT, t, t + STENCIL_DT)
    states = (state for state, _ in _evolve(u0, stencil, grid, grid.points, 1))
    return zip(states, states, states)


def stencil_states(u0: TestFunction, t: float, grid: QuadratureGrid) -> _Stencil:
    """States at t - STENCIL_DT, t and t + STENCIL_DT for a centered difference."""
    (stencil,) = _stencils(u0, [t], grid)
    return stencil


def _centered_rate(states: _Stencil, figure: _Figure) -> tuple[float, float]:
    """The centered rate of a figure over stencil_states and its stencil error
    (err(lo) + err(hi)) / (2 STENCIL_DT)."""
    (lo, lo_err), (hi, hi_err) = figure(states[0]), figure(states[2])
    return (hi - lo) / (2.0 * STENCIL_DT), (hi_err + lo_err) / (2.0 * STENCIL_DT)


def entropy_production_check(u0: TestFunction, t: float, grid: QuadratureGrid) -> IdentityResult:
    """Centered difference of E against the exact production rate -4 I."""
    states = stencil_states(u0, t, grid)
    mid = states[1]
    lhs, err = _centered_rate(states, lambda s: (s.entropy, s.quadrature_error))
    rhs = -4.0 * mid.fisher
    err += 4.0 * mid.quadrature_error
    return IdentityResult.of("entropy_production", lhs, rhs, err)


def _hessian_defect_integral(v: TestFunction, grid: QuadratureGrid) -> tuple[float, float]:
    """-2 int || Hess v - (grad v (x) grad v) / v ||_F^2 dgamma on the support,
    with its embedded error; a negative v at a node raises PositivityError."""

    def terms(x: np.ndarray) -> tuple[np.ndarray]:
        vals, g, hess = v.jet(x)
        mask = _positive_mask(x, vals)
        defect = np.zeros_like(hess)
        defect[mask] = hess[mask] - (g[mask][:, :, None] * g[mask][:, None, :]) / vals[
            mask, None, None
        ]
        return (-2.0 * (defect**2).sum(axis=(1, 2)),)

    (value,), (error,) = _integrals(grid, terms)
    return value, error


def fisher_dissipation_check(u0: TestFunction, t: float, grid: QuadratureGrid) -> IdentityResult:
    """dI/dt + 2 I equals -2 int ||Hess v - grad v (x) grad v / v||^2 dgamma."""
    states = stencil_states(u0, t, grid)
    mid = states[1]
    rate, err = _centered_rate(states, lambda s: (s.fisher, s.quadrature_error))
    lhs = rate + 2.0 * mid.fisher
    rhs, rhs_err = _hessian_defect_integral(mid.v, grid)
    err += 2.0 * mid.quadrature_error + rhs_err
    return IdentityResult.of("fisher_dissipation", lhs, rhs, err)


@dataclass(frozen=True)
class OdeSample:
    """value' <= bound(t, value) at time t: rate is the centered difference of
    value, margin is bound - rate and error is the rate's stencil error.  The
    bound's own error, smaller by a factor |d bound / d value| dt, is left out."""

    t: float
    value: float
    rate: float
    bound: float
    margin: float
    error: float


def _ode_samples(
    u0: TestFunction,
    times: np.ndarray,
    grid: QuadratureGrid,
    figure: _Figure,
    bound: Callable[[float, float], float],
    stop: Callable[[_Stencil], bool] = lambda states: False,
) -> list[OdeSample]:
    """One OdeSample of a figure per time, until stop(stencil states) holds;
    every time is checked, then one _evolve call evolves all their stencils."""
    samples: list[OdeSample] = []
    for states in _stencils(u0, times, grid):
        if stop(states):
            break
        t, value, (rate, err) = states[1].t, figure(states[1])[0], _centered_rate(states, figure)
        b = bound(t, value)
        samples.append(OdeSample(t, value, rate, b, b - rate, err))
    return samples


def q_ode_check(u0: TestFunction, times: np.ndarray, grid: QuadratureGrid) -> list[OdeSample]:
    """Samples of dQ/dt against the comparison rate 2 Q (2 Q - 1).

    Q = I / E has quadrature error (err_I + Q err_E) / E; sampling stops once
    the entropy underflows below 1e-10.
    """
    return _ode_samples(
        u0,
        times,
        grid,
        figure=lambda s: (s.ratio_q, (s.fisher_error + s.ratio_q * s.entropy_error) / s.entropy),
        bound=lambda t, q: 2.0 * q * (2.0 * q - 1.0),
        stop=lambda states: states[1].entropy < 1e-10 or any(s.ratio_q is None for s in states),
    )
