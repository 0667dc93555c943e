"""Explicit stability bounds for the Gaussian log-Sobolev deficit.

Every bound is checked as a StabilityBound record with measured left and
right hand sides, the margin lhs - rhs, and a status:

    verified   constraints hold and margin >= -2 x quadrature error
    violated   constraints hold and the margin is genuinely negative
    skipped    a constraint of the statement is not met by this instance

The quadrature error has a rounding floor of a few ulps (measure,
functionals), so at the Gaussian equality case u = 1, where every margin is
rounding, every bound that applies is `verified` at every grid order.  The
moment precondition A <= 0 likewise allows 2 x quadrature error plus the
rounding floor of A itself.

The bounds, for normalized u with density nu = u^2 dgamma, deficit
delta = I - E/2 and second moment gap A = int (|x|^2 - d) dnu, come in three
shapes.  A shape fixes a record's lhs, distance and exponent, and
rhs = constant x distance^exponent up to rounding:

    delta >= c E^2      lhs delta, distance E, exponent 2, constant c
      entropy_squared   c = 1/(2d)          needs A <= 0
      kappa_weighted    c = kappa^2 / 2     needs barycenter 0
    delta >= psi(I)     lhs delta, distance I, constant and exponent NaN
      fisher_gap                            needs A <= 0
    I >= (C/2) E        lhs I, distance E, exponent 1, constant C/2
      log_concave       C = C*              needs log-concave nu, barycenter 0
      compact_support   C = C(R)            needs supp u in B_R, barycenter 0
      gaussian_tail     C = C_tail          needs finite int e^{eps|x|^2} dnu,
                                            barycenter 0

A skipped record has NaN for all six of lhs, rhs, margin, constant, exponent
and distance.  psi(s) = s - (d/4) log(1 + 4s/d), C* = 1 + 1/1728, and C(R)
and C_tail come from running the flow to an explicit waiting time and
pulling the Fisher-to-entropy ratio Q = I/E back along its comparison ODE
dQ/dt <= 2Q(2Q - 1) (q0_lower_bound).

Each verify_<bound> is a function of one Figures record, which holds the
report, the kappa weight, the log-concavity certificate and the tail weight
of one instance, each computed on first use.  verify_bounds builds one
Figures and hands it to every named verifier; to run one bound alone, call
verify_bounds(u, grid, names=(...)) or verify_<bound>(Figures(u, grid)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ConstraintError, DomainError
from .measure import QuadratureGrid, integrate_with_error
from .functions import (
    Envelope,
    Record,
    TestFunction,
    _rowdot,
    pruned_read,
    second_moment_gap,
)
from .functionals import FunctionalReport, report, second_moment_floor
from .logconcavity import LogConcavityCertificate, certify, certify_along_flow
from .ou_flow import OdeSample, _ode_samples

C_STAR = 1.0 + 1.0 / 1728.0
POINCARE_LOGCONCAVE = 1.0 / 432.0
HALVED_CDC = 1.0 / 864.0
GAUSSIAN_CHEEGER = math.sqrt(2.0 / math.pi)

CENTER_TOL = 1e-8
BOUND_NAMES = (
    "entropy_squared",
    "fisher_gap",
    "kappa_weighted",
    "log_concave",
    "compact_support",
    "gaussian_tail",
)


def psi(s: float, d: int) -> float:
    """psi(s) = s - (d/4) log(1 + 4s/d); the deficit lower bound at Fisher level s."""
    if s < 0:
        raise DomainError(f"psi needs s >= 0, got {s}")
    return s - 0.25 * d * math.log1p(4.0 * s / d)


def phi(s: float, d: int) -> float:
    """Inverse view of the same bound: I >= phi(E) with phi(s) = (d/4)(e^{2s/d} - 1)."""
    return 0.25 * d * math.expm1(2.0 * s / d)


def phi_inv(s: float, d: int) -> float:
    if s < 0:
        raise DomainError(f"phi_inv needs s >= 0, got {s}")
    return 0.5 * d * math.log1p(4.0 * s / d)


def t_star_compact(radius: float) -> float:
    """Waiting time log(1 + R^2)/2 after which a radius-R density is log-concave."""
    if radius <= 0:
        raise DomainError(f"support radius must be positive, got {radius}")
    return 0.5 * math.log1p(radius**2)


def improved_constant_compact(radius: float) -> float:
    """C(R) = 1 + (C* - 1) / (1 + C* R^2), decreasing to 1 as R grows."""
    if radius <= 0:
        raise DomainError(f"support radius must be positive, got {radius}")
    return 1.0 + (C_STAR - 1.0) / (1.0 + C_STAR * radius**2)


def t_star_tail(eps: float) -> float:
    """Waiting time log(1 + 1/eps)/2 attached to the tail weight e^{eps |x|^2}."""
    if eps <= 0:
        raise DomainError(f"tail exponent must be positive, got {eps}")
    return 0.5 * math.log1p(1.0 / eps)


def tau_of_t(t: float) -> float:
    """Variance-like clock tau(t) = (e^{2t} - 1)/2 of the reversed heat flow."""
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    return 0.5 * math.expm1(2.0 * t)


def q0_lower_bound(q: float, t: float) -> float:
    """Lower bound on Q(0) given Q(t) >= q, from dQ/dt <= 2Q(2Q - 1).

    Writing rho = 2 - 1/Q the comparison ODE linearizes to rho' <= 2 rho.
    """
    if not 0 < q:
        raise DomainError(f"need a positive ratio, got {q}")
    growth = math.expm1(2.0 * t)
    return 0.5 * (1.0 + (2.0 * q - 1.0) / (1.0 + 2.0 * q * growth))


def lambda1_tail_lower(eps: float, a_tail: float, t: float) -> float:
    """Poincare constant of the time-t evolved measure from the tail weight.

    Valid once eps tau(t) > 1; then 1/lambda1 <= tau (p/(p-1) + A^{1/(p-1)})
    with p = eps tau and A the tail integral, which must be >= 1.
    """
    if a_tail < 1.0:
        raise DomainError(f"tail integral must be >= 1, got {a_tail}")
    tau = tau_of_t(t)
    p = eps * tau
    if p <= 1.0:
        raise DomainError(
            f"need eps tau > 1 for the tail estimate; eps = {eps}, t = {t} give {p}"
        )
    inv = tau * (p / (p - 1.0) + a_tail ** (1.0 / (p - 1.0)))
    return 1.0 / inv


def constants_table() -> dict:
    """All named constants plus the exact relations tying them together."""
    return {
        "c_star": C_STAR,
        "poincare_logconcave": POINCARE_LOGCONCAVE,
        "halved_cdc": HALVED_CDC,
        "gaussian_cheeger": GAUSSIAN_CHEEGER,
        "relations": {
            "c_star_from_halved_cdc": 0.5 * (2.0 + HALVED_CDC),
            "poincare_is_double_cdc": 2.0 * HALVED_CDC,
        },
    }


@dataclass(frozen=True)
class PoincareEstimate(Record):
    """Spectral gap chain for an isotropic log-concave measure with second
    moment s: Cheeger constant h >= 1/(6 sqrt(3 s)), then h^2/4 <= lambda1
    <= 36 h^2, and the direct bound lambda1 >= (d/s)/432."""

    d: int
    second_moment: float
    cheeger_lower: float
    lambda1_lower: float
    lambda1_logconcave: float


def poincare_chain(second_moment: float, d: int) -> PoincareEstimate:
    if second_moment <= 0:
        raise DomainError(f"second moment must be positive, got {second_moment}")
    h = 1.0 / (6.0 * math.sqrt(3.0 * second_moment))
    return PoincareEstimate(
        d=d,
        second_moment=second_moment,
        cheeger_lower=h,
        lambda1_lower=h**2 / 4.0,
        lambda1_logconcave=(d / second_moment) / 432.0,
    )


def cheeger_sandwich(h: float) -> tuple[float, float]:
    """The two-sided spectral gap estimate h^2/4 <= lambda1 <= 36 h^2."""
    if h <= 0:
        raise DomainError(f"Cheeger constant must be positive, got {h}")
    return h**2 / 4.0, 36.0 * h**2


@dataclass(frozen=True)
class StabilityBound(Record):
    """One verified instance of one deficit bound."""

    name: str
    lhs: float
    rhs: float
    margin: float
    constant: float
    exponent: float
    distance: float
    quadrature_error: float
    status: str
    constraints: dict = field(default_factory=dict)
    message: str = ""
    extras: dict = field(default_factory=dict)


_CENTERED = ("centered", "barycenter norm {barycenter:.3e} is not zero")
_MOMENT = ("second_moment_at_most_d", "second moment gap {rep.second_moment_gap:.3e} is positive")
# the figures of a skipped record
_SKIPPED = dict.fromkeys(("lhs", "rhs", "margin", "constant", "exponent", "distance"), math.nan)

# The preconditions of each bound in the order they are checked, with the
# message of the skipped record when one fails.  A message is formatted with
# the report `rep`, its barycenter norm and the keywords the verifier passes.
_PRECONDITIONS = {
    "entropy_squared": (_MOMENT,),
    "fisher_gap": (_MOMENT,),
    "kappa_weighted": (_CENTERED,),
    "log_concave": (("log_concave", "log-concavity certificate is {status!r}"), _CENTERED),
    "compact_support": (("compact_support", "family {family!r} has unbounded support"), _CENTERED),
    "gaussian_tail": (("tail_integrable", "{error}"), _CENTERED),
}


def _unmet(
    name: str, rep: FunctionalReport, constraints: dict, **context
) -> StabilityBound | None:
    """The skipped record for the first precondition of `name` that fails, else None."""
    for key, message in _PRECONDITIONS[name]:
        if not constraints[key]:
            barycenter = float(np.linalg.norm(rep.first_moment))
            return StabilityBound(
                name=name,
                **_SKIPPED,
                quadrature_error=rep.quadrature_error,
                status="skipped",
                constraints=constraints,
                message=message.format(rep=rep, barycenter=barycenter, **context),
            )
    return None


def _checked(
    name: str, lhs: float, rhs: float, quadrature_error: float, constraints: dict, **fields
) -> StabilityBound:
    """A bound whose preconditions hold: verified if lhs - rhs >= -2 x the error."""
    margin = lhs - rhs
    return StabilityBound(
        name=name,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        quadrature_error=quadrature_error,
        status="verified" if margin >= -2.0 * quadrature_error else "violated",
        constraints=constraints,
        **fields,
    )


def _squared(
    name: str, rep: FunctionalReport, constant: float, rhs: float, constraints: dict, extras: dict
) -> StabilityBound:
    """delta >= c E^2, c = constant: lhs the deficit, distance E, exponent 2.  The
    caller computes rhs, since E^2 / (2d) and (1/(2d)) E^2 differ in the last bit."""
    shape = {"constant": constant, "exponent": 2.0, "distance": rep.entropy, "extras": extras}
    return _checked(name, rep.deficit, rhs, rep.quadrature_error, constraints, **shape)


def _improved(
    name: str, rep: FunctionalReport, c: float, constraints: dict, extras: dict, error: float = 0.0
) -> StabilityBound:
    """I >= (C/2) E, C = c: lhs the Fisher information, distance E, exponent 1,
    rhs (C/2) E, and error added to the report's quadrature error."""
    half = 0.5 * c
    shape = {"constant": half, "exponent": 1.0, "distance": rep.entropy, "extras": extras}
    error += rep.quadrature_error
    return _checked(name, rep.fisher, half * rep.entropy, error, constraints, **shape)


def _centered(rep: FunctionalReport) -> bool:
    return float(np.linalg.norm(rep.first_moment)) <= CENTER_TOL + 2.0 * rep.quadrature_error


def _moment_at_most_d(rep: FunctionalReport) -> bool:
    gap = rep.second_moment_gap
    return gap <= 2.0 * rep.quadrature_error + second_moment_floor(gap, rep.d, rep.l2_norm**2)


def _nonnegative(value: float, error: float, what: str) -> float:
    """Clamp a quantity that is >= 0 for every u to 0 if it is negative by rounding."""
    if value < -2.0 * error:
        raise DomainError(f"{what} {value!r} is negative beyond 2 x its error {error!r}")
    return max(value, 0.0)


@dataclass(frozen=True, eq=False)
class Figures:
    """Everything the six bounds read for one normalized instance u on grid.

    Each figure is computed on first use and then shared, so a subset of
    the bounds pays only for the figures it reads.  kappa comes from the
    report's moments without a pass of its own, and the tail weight is read
    only for a gaussian_tail bound that runs.
    """

    u: TestFunction
    grid: QuadratureGrid
    eps: float = 0.1

    @cached_property
    def rep(self) -> FunctionalReport:
        return report(self.u, self.grid)

    @cached_property
    def kappa(self) -> float:
        """kappa = ||u|| / max(sqrt d, ||(x - x0) u||) with x0 the density barycenter.

        The centered moment comes from the report: with m1 the first moment,
        int |x - m1|^2 u^2 = A + d ||u||^2 - |m1|^2 (2 - ||u||^2).
        """
        rep = self.rep
        mass = rep.l2_norm**2
        m1 = float(rep.first_moment @ rep.first_moment)
        moment = rep.second_moment_gap + rep.d * mass - m1 * (2.0 - mass)
        return rep.l2_norm / math.sqrt(max(rep.d, moment))

    @cached_property
    def certificate(self) -> LogConcavityCertificate:
        return certify(self.u, self.grid)

    @cached_property
    def tail(self) -> TailWeight:
        """The tail weight at exponent eps; raises DomainError for eps outside (0, 1/4).

        verify_gaussian_tail reads it only when its bound runs, that is for a
        centered u and an eps in range.
        """
        return tail_weight(self.u, self.grid, self.eps)


def verify_entropy_squared(fig: Figures) -> StabilityBound:
    """delta >= E^2 / (2d) for densities with second moment at most d."""
    rep = fig.rep
    constraints = {"second_moment_at_most_d": _moment_at_most_d(rep)}
    if skipped := _unmet("entropy_squared", rep, constraints):
        return skipped
    extras = {"entropy": rep.entropy, "deficit": rep.deficit}
    rhs = rep.entropy**2 / (2.0 * rep.d)
    return _squared("entropy_squared", rep, 1.0 / (2.0 * rep.d), rhs, constraints, extras)


def verify_fisher_gap(fig: Figures) -> StabilityBound:
    """delta >= psi(I), equivalently I >= phi(E), under the same moment condition."""
    rep = fig.rep
    constraints = {"second_moment_at_most_d": _moment_at_most_d(rep)}
    if skipped := _unmet("fisher_gap", rep, constraints):
        return skipped
    fisher = _nonnegative(rep.fisher, rep.fisher_error, "Fisher information")
    entropy = _nonnegative(rep.entropy, rep.entropy_error, "entropy")
    # psi(phi(E)) >= E^2/(2d): the bound dominates entropy_squared on its domain
    cross = psi(phi(entropy, rep.d), rep.d) - entropy**2 / (2.0 * rep.d)
    return _checked(
        "fisher_gap",
        rep.deficit,
        psi(fisher, rep.d),
        rep.quadrature_error,
        constraints,
        constant=float("nan"),
        exponent=float("nan"),
        distance=rep.fisher,
        extras={"fisher": rep.fisher, "entropy": rep.entropy, "psi_at_phi_margin": cross},
    )


def verify_kappa_weighted(fig: Figures) -> StabilityBound:
    """delta >= kappa^2 E^2 / 2 for centered u; no second moment restriction."""
    rep = fig.rep
    constraints = {"centered": _centered(rep)}
    if skipped := _unmet("kappa_weighted", rep, constraints):
        return skipped
    kappa = fig.kappa
    rhs = 0.5 * kappa**2 * rep.entropy**2
    return _squared("kappa_weighted", rep, 0.5 * kappa**2, rhs, constraints, {"kappa": kappa})


def verify_log_concave(fig: Figures) -> StabilityBound:
    """I >= (C*/2) E for centered log-concave densities, C* = 1 + 1/1728."""
    rep, certificate = fig.rep, fig.certificate
    constraints = {"centered": _centered(rep), "log_concave": certificate.certified}
    if skipped := _unmet("log_concave", rep, constraints, status=certificate.status):
        return skipped
    extras = {"min_eigenvalue": certificate.min_eigenvalue}
    return _improved("log_concave", rep, C_STAR, constraints, extras)


def verify_compact_support(fig: Figures) -> StabilityBound:
    """I >= (C(R)/2) E for centered u supported in a ball of radius R."""
    rep, u = fig.rep, fig.u
    if u.support_radius is None:
        return _unmet("compact_support", rep, {"compact_support": False}, family=u.family)
    constraints = {"centered": _centered(rep), "compact_support": True}
    if skipped := _unmet("compact_support", rep, constraints):
        return skipped
    radius = float(u.support_radius)
    extras = {"support_radius": radius, "t_star": t_star_compact(radius)}
    return _improved(
        "compact_support", rep, improved_constant_compact(radius), constraints, extras
    )


@dataclass(frozen=True)
class TailWeight:
    """Ingredients of the tail-based constant for one instance."""

    eps: float
    a_tail: float
    t0: float
    lambda1_lower: float
    c0: float
    constant: float
    quadrature_error: float


def _check_tail_exponent(eps: float) -> None:
    """DomainError unless 0 < eps < 1/4, the one way tail_weight can fail: its
    p = eps tau(t0) = 1 + 1/(2 eps) always exceeds 1."""
    if not 0.0 < eps < 0.25:
        raise DomainError(f"tail exponent must lie in (0, 1/4), got {eps}")


def tail_weight(u: TestFunction, grid: QuadratureGrid, eps: float) -> TailWeight:
    """Constant C_tail from the Gaussian tail integral int e^{eps|x|^2} dnu.

    The integral converges against the quadrature only for eps < 1/4; the
    waiting time t0 = 2 t*(eps) = log(1 + 1/eps) keeps eps tau(t0) > 1.
    The Poincare constant of the evolved measure is assumed to obey the tail
    estimate, which holds whenever the tail integral is finite.  At d = 3 a
    u with an envelope is integrated on grid's pruned twin when what it
    leaves out of h e^{eps |x|^2} is at most EPS (functions.pruned_read),
    and the error carries that bound.
    """
    _check_tail_exponent(eps)
    grid, (dropped,) = pruned_read(u, grid, partial(Envelope.tail, eps=eps))
    a_tail, a_err = integrate_with_error(
        grid,
        lambda pts: u.density(pts) * np.exp(eps * _rowdot(pts, pts)),
    )
    t0 = 2.0 * t_star_tail(eps)
    lam = lambda1_tail_lower(eps, max(float(a_tail), 1.0), t0)
    c0 = 1.0 + 0.25 * lam
    return TailWeight(
        eps=eps,
        a_tail=float(a_tail),
        t0=t0,
        lambda1_lower=lam,
        c0=c0,
        # C_tail pulls Q(t0) >= c0/2 back to t = 0
        constant=2.0 * q0_lower_bound(0.5 * c0, t0),
        quadrature_error=float(a_err) + dropped,
    )


def verify_gaussian_tail(fig: Figures) -> StabilityBound:
    """I >= (C_tail/2) E for centered u with finite Gaussian tail integral.

    Whether the tail integral is finite is decided from eps alone, and the
    tail weight is integrated only when the bound runs: an eps out of range
    or a u that is not centered skips it without fig.tail.
    """
    rep = fig.rep
    try:
        _check_tail_exponent(fig.eps)
    except DomainError as exc:
        return _unmet("gaussian_tail", rep, {"tail_integrable": False}, error=exc)
    constraints = {"centered": _centered(rep), "tail_integrable": True}
    if skipped := _unmet("gaussian_tail", rep, constraints):
        return skipped
    tail = fig.tail
    extras = {key: getattr(tail, key) for key in ("eps", "a_tail", "t0", "lambda1_lower")}
    error = tail.quadrature_error
    return _improved("gaussian_tail", rep, tail.constant, constraints, extras, error)


def verify_bounds(
    u: TestFunction,
    grid: QuadratureGrid,
    names: tuple[str, ...] | None = None,
    eps: float = 0.1,
) -> list[StabilityBound]:
    """Run the named bounds (default: all) on one instance from one Figures.

    Each verify_<bound> is looked up in the module at call time, so a
    wrapped or replaced verifier is the one that runs.  Statement
    preconditions that fail structurally (no compact support, no
    certificate, a tail exponent out of range) come back as skipped
    records rather than raising.
    """
    if names is None:
        names = BOUND_NAMES
    unknown = set(names) - set(BOUND_NAMES)
    if unknown:
        raise ConstraintError(f"unknown bound names {sorted(unknown)}; known: {BOUND_NAMES}")
    fig = Figures(u, grid, eps)
    return [globals()[f"verify_{name}"](fig) for name in names]


@dataclass(frozen=True, eq=False)
class PipelineResult(Record):
    """Trace of the waiting-time argument for one compactly supported instance."""

    support_radius: float
    t_star: float
    q0: float | None
    q_tstar: float | None
    q0_bound: float
    constant: float
    certificate: LogConcavityCertificate
    status: str
    message: str = ""


def compact_improvement_pipeline(u: TestFunction, grid: QuadratureGrid) -> PipelineResult:
    """Run the three stages behind the compact-support constant on one instance:
    evolve to t*(R), certify log-concavity there, check Q(t*) >= C*/2, and
    compare the measured Q(0) with the pulled-back lower bound C(R)/2; the
    first two read one OU average (certify_along_flow)."""
    if u.support_radius is None:
        raise ConstraintError(
            f"the pipeline needs a compactly supported family, got {u.family!r}"
        )
    radius = float(u.support_radius)
    t_star = t_star_compact(radius)
    bound = q0_lower_bound(0.5 * C_STAR, t_star)
    rep = report(u, grid)
    ((state, cert),) = certify_along_flow(u, [t_star], grid)
    if rep.entropy < 1e-12 or rep.ratio_q is None or state.ratio_q is None:
        status, message = "skipped", "entropy vanishes; the ratio Q is undefined"
    else:
        tol = 1e-8 + 2.0 * (state.quadrature_error + rep.quadrature_error)
        checks = (
            (cert.certified, f"certificate at t* is {cert.status!r}"),
            (state.ratio_q >= 0.5 * C_STAR - tol, f"Q(t*) = {state.ratio_q!r} fell below C*/2"),
            (
                rep.ratio_q >= bound - tol,
                f"Q(0) = {rep.ratio_q!r} fell below the pulled-back bound {bound!r}",
            ),
        )
        failed = [msg for ok, msg in checks if not ok]
        status, message = ("violated" if failed else "verified"), "; ".join(failed)
    return PipelineResult(
        support_radius=radius,
        t_star=t_star,
        q0=rep.ratio_q,
        q_tstar=state.ratio_q,
        q0_bound=bound,
        constant=improved_constant_compact(radius),
        certificate=cert,
        status=status,
        message=message,
    )


def excess_moment_decay_check(
    u: TestFunction, grid: QuadratureGrid, times: np.ndarray
) -> list[OdeSample]:
    """Comparison ODE for z(t) = e^{2t} I(t) when the excess moment is positive.

    With A0 = int (|x|^2 - d) u^2 dgamma > 0 the flow obeys

        z'(t) <= -(e^{-2t} / (2d)) (4 z(t) - A0)^2,

    checked by centered differences at each sample time; z has quadrature
    error e^{2t} err_I.  A sample time at or below the stencil step
    ou_flow.STENCIL_DT raises the stencil's FlowError.
    """
    a0 = second_moment_gap(u, grid)
    if a0 <= 0:
        raise ConstraintError(
            f"excess_moment_decay needs a positive second moment gap, got {a0:.3e}"
        )
    return _ode_samples(
        u,
        times,
        grid,
        figure=lambda s: (math.exp(2.0 * s.t) * s.fisher, math.exp(2.0 * s.t) * s.fisher_error),
        bound=lambda t, z: -(math.exp(-2.0 * t) / (2.0 * u.d)) * (4.0 * z - a0) ** 2,
    )
