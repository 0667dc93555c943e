"""Parametric test functions u with closed-form derivatives.

Each family writes one evaluation formula, jet(x, order) or jet_rows over
members, which returns u, grad u and Hess u up to the given order and
computes nothing beyond it; value, density and density_and_gradient read
it.  Each family rescales through the one parameter it names in scaled, so
normalization never leaves the family.  The probability density is h = u^2
dgamma (after normalization); the log-density Hessian used by the
log-concavity certifier is

    Hess log(u^2) = 2 (Hess u / u - (grad u / u) (x) (grad u / u)),

which density_and_hess_log forms from one jet on the support
h > SUPPORT_THRESHOLD max h (tilts and Gaussian profiles know it in closed
form, one constant matrix that they return once, as a (1, d, d) row).

Families that can vanish (affine, hermite) are admitted only when strictly
positive on the reference hull |x|_inf <= 3; operations that divide by u
check positivity again at their own evaluation points.  The bump is
compactly supported by design and reports its support radius.

Along the Ornstein-Uhlenbeck flow a family may evolve in closed form
(evolved: Gaussian profiles and tilts) or supply the exact Gaussian
averages of u^2 and its derivatives (ou_average(x, times, order), one
tuple per time, whose order means what jet's does).  Affine and Hermite u
of degree k_i along axis i take them from inner_average on
measure.tensor_rule of the orders k_i + 1, exact for u^2; every d = 1
bump and two_bumps from the windows module, imported on first use so that
`import glslab` does not compile it.  inner_average is also every family's reference quadrature
(ou_flow.EvolvedDensity), the only one of d >= 2 bumps and two_bumps.

Tilts and Gaussian profiles state an Envelope, log h <= l0 + l1 |x| and
|grad log u| <= g0 + g1 |x|; every other family states none.  From it the
readers of a pruned d = 3 grid (QuadratureGrid.pruned) bound what its
left-out nodes add to each integrand they form: h, |h log h|, |grad u|^2
and h e^{eps |x|^2}.  pruned_read picks the twin when u states an envelope
and every such bound is at most EPS x the integral's scale, and otherwise
the full grid, read exactly as without a twin.  l2_norm, and so normalize,
read the twin at the scale of the kept mass.

Per-point kernels run along the point axis: an (n, d) batch is reduced or
broadcast one length-n column at a time (_rowdot for row-wise dot
products), never with numpy looping over the length-d axis, which costs
more than the arithmetic at d <= 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import lru_cache, partial, wraps
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import CapacityError, LabError, NormalizationError, PositivityError
from .measure import (
    EPS,
    GaussianMeasureSpec,
    QuadratureGrid,
    dropped_bound,
    row_sums,
    tensor_rule,
)

POSITIVITY_HULL = 3.0
MAX_HERMITE_DEGREE = 12
# density_and_hess_log's support: h > SUPPORT_THRESHOLD max h
SUPPORT_THRESHOLD = 1e-10
# the support of the readers that divide by v or h: v > SUPPORT_FLOOR max v
SUPPORT_FLOOR = 1e-12
# the parameter names build_function accepts, per family
_PARAMETERS = {
    "tilt": ("a", "c"),
    "affine": ("eps", "nu", "amplitude"),
    "gaussian": ("sigma2", "mean", "amplitude"),
    "bump": ("radius", "center", "amplitude"),
    "hermite": ("coeffs",),
    "two_bumps": ("height", "radius", "separation", "amplitude"),
}
FAMILY_TAGS = tuple(_PARAMETERS)
# outer x inner points x d^2 (a Hessian's entries) of one chunk of inner_average
_POINT_BUDGET = 1 << 22
# outer x inner points of one average, minutes of work.  An average on
# grid.points covers the grid's nodes and its partner's, which are at most as
# many, so the envelope is twice the 2^29 of one node set: d = 2 at order 64
# with an order-256 inner rule fits, certifier probes included; d = 3 at
# order 32 with an order-32 inner rule (1.5e9) does not, nor at order 64
# (9.8e10, hours)
MAX_AVERAGE_POINTS = 1 << 30
# points per block of an evaluation that runs block by block; also times x
# rows of one batch of flow times (ou_flow._evolve)
_BLOCK = 1 << 14


def _points(x: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if d == 1 and x.shape != (1,):
            # a bare 1-d batch (n,) is promoted to (n, 1)
            return x[:, None]
        return x[None, :]
    if x.ndim != 2 or x.shape[1] != d:
        raise LabError(f"points must have shape (n, {d}), got {x.shape}")
    return x


def _plain(value):
    """value as plain JSON data: a test function becomes its to_json(), any
    other dataclass {field name: value}, a dict a dict, a list, tuple or array
    a list, a numpy scalar its Python value; NaN stays NaN."""
    if isinstance(value, TestFunction):
        return value.to_json()
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


class Record:
    """Mixin for result dataclasses: to_json() is the record's fields."""

    def to_json(self) -> dict:
        return _plain(self)


def _vector(name: str, value) -> np.ndarray:
    """value as a 1-d float array, a scalar as one entry; LabError for more axes."""
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.ndim != 1:
        raise LabError(f"{name} must be a vector, got shape {v.shape}")
    return v


def _rowdot(a: np.ndarray, b: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """sum_j a_ij b_ij for each row i of two (..., n, d) arrays, one column at
    a time in axis order, which is the order of (a * b).sum(axis=-1); into
    out, with each column's product in scratch, when given."""
    out = np.multiply(a[..., 0], b[..., 0], out=out)
    for j in range(1, a.shape[-1]):
        out += np.multiply(a[..., j], b[..., j], out=scratch)
    return out


@lru_cache(maxsize=3)
def _hull_probes(d: int) -> np.ndarray:
    """The positivity check's tensor grid on |x|_inf <= POSITIVITY_HULL; one
    shared read-only array per d."""
    per_axis = {1: 201, 2: 41, 3: 17}[d]
    axis = np.linspace(-POSITIVITY_HULL, POSITIVITY_HULL, per_axis)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    probes = np.stack([g.ravel() for g in grids], axis=-1)
    probes.flags.writeable = False
    return probes


def _support(values: np.ndarray, floor: float) -> np.ndarray:
    """The mask values > floor max(values), a relative support cut."""
    return values > floor * max(float(values.max()), 1e-300)


@dataclass(frozen=True)
class Envelope:
    """log h <= l0 + l1 |x| and |grad log u| <= g0 + g1 |x| at every x, with
    l1, g0, g1 >= 0.  Each method is a bound on one integrand as a
    nondecreasing function of r = |x|, in the form measure.dropped_bound reads."""

    l0: float
    l1: float
    g0: float
    g1: float

    def density(self, r: np.ndarray) -> np.ndarray:
        """The bound on h itself."""
        return np.exp(self.l0 + self.l1 * r)

    def moments(self, r: np.ndarray) -> np.ndarray:
        """h (|x|^2 + 3), which bounds h, h |x_i| and h ||x|^2 - d| at d <= 3."""
        return self.density(r) * (r**2 + 3.0)

    def entropy(self, r: np.ndarray) -> np.ndarray:
        """|h log h|: the largest s |log s| over 0 <= s <= H = e^{l0 + l1 r},
        which is H |log H| up to H = 1/e and max(1/e, H log H) beyond."""
        log_h = self.l0 + self.l1 * r
        h = np.exp(log_h)
        return np.where(log_h <= -1.0, -h * log_h, np.maximum(1.0 / math.e, h * log_h))

    def fisher(self, r: np.ndarray) -> np.ndarray:
        """|grad u|^2 = h |grad log u|^2."""
        return self.density(r) * (self.g0 + self.g1 * r) ** 2

    def tail(self, r: np.ndarray, eps: float) -> np.ndarray:
        """h e^{eps |x|^2}."""
        return np.exp(self.l0 + self.l1 * r + eps * r**2)


def pruned_read(
    u: "TestFunction", grid: QuadratureGrid, *integrands, scale: float = 1.0
) -> tuple[QuadratureGrid, list[float]]:
    """The grid a reader of u's integrands reads, and what it leaves out of each.

    integrands are functions (envelope, r) -> a radial bound, such as the
    Envelope methods.  The reader takes grid's pruned twin, with the
    dropped_bound of each integrand, when u states an envelope, grid has a
    twin, and every bound is at most EPS x scale; otherwise grid itself,
    with 0.0 for each.
    """
    twin = grid.pruned
    if twin is not grid and (envelope := u.envelope()) is not None:
        bounds = [dropped_bound(twin, partial(f, envelope)) for f in integrands]
        if all(b <= EPS * scale for b in bounds):
            return twin, bounds
    return grid, [0.0] * len(integrands)


class TestFunction:
    """Base interface: jet(x, order) on (n, d) point batches.

    A family writes jet or jet_rows, and optionally evolved, ou_average or
    envelope; value, density, density_and_gradient and density_and_hess_log
    read one jet.  The searchable families (tilt, affine, gaussian, hermite)
    write their formula once, as jet_rows(x, order, **rows) over an optional
    leading member axis: each keyword holds one row per member, (k,) or
    (k, d) (the Hermite multi-indices are shared), and it returns shapes
    (k, n), (k, d, n) and (k, n, d, d).  Their jet is the default, jet_rows
    on _row, the member's own keywords without that axis, which its
    constructor keeps; from_row(**row) builds the member of one row, by
    default the constructor on its keywords.  admits(**rows) tells which
    rows pass the constructor's check of the parameters, and the
    constructor calls it on its own row.  with_scale multiplies the field
    named by scaled (the amplitude, the tilt's c); the Hermite expansion
    writes its own, which scales every coefficient.
    """

    d: int
    family: str
    scaled = "amplitude"
    support_radius: float | None = None

    def jet(self, x: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
        """The first order + 1 (order = 0, 1 or 2) of u, grad u and Hess u at x,
        shapes (n,), (n, d) and (n, d, d); nothing beyond order is computed.
        By default jet_rows on the member's own row."""
        value, *derivs = self.jet_rows(_points(x, self.d), order, **self._row)
        if not derivs:
            return (value,)
        # the gradient is built axis-major, (d, n), and read transposed
        return (value, derivs[0].T) + tuple(derivs[1:])

    def with_scale(self, c: float) -> "TestFunction":
        """The member c u: by default the field named by scaled times c."""
        return replace(self, **{self.scaled: getattr(self, self.scaled) * c})

    @classmethod
    def from_row(cls, **row) -> "TestFunction":
        """The member of one row of jet_rows keywords (a scalar one an np.float64)."""
        return cls(**row)

    def envelope(self) -> Envelope | None:
        """The bounds log h <= l0 + l1 |x| and |grad log u| <= g0 + g1 |x| at
        every x, None for a family that states none."""
        return None

    def evolved(self, t: float) -> "TestFunction | None":
        """The member v with v^2 = P_t(u^2) under the OU semigroup, None without
        a closed form; t is finite and positive."""
        return None

    def ou_average(self, x: np.ndarray, times, order: int) -> "list[tuple[np.ndarray, ...]] | None":
        """Exact Gaussian averages int f(e^{-t} x + sqrt(1 - e^{-2t}) y) dgamma(y)
        of the first order + 1 of f = h0, grad h0 and Hess h0 (h0 = u^2), shapes
        (n,), (n, d) and (n, d, d), one tuple for each t of the sequence times;
        None for a family without them.  Every t is finite and positive.  The
        families here also take one time t, and then return its one tuple."""
        return None

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.jet(x, 0)[0]

    def density(self, x: np.ndarray) -> np.ndarray:
        return self.value(x) ** 2

    def density_and_gradient(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u^2 and grad u at x, for readers that need both on one node set."""
        u, grad = self.jet(x, 1)
        return u**2, grad

    def density_and_hess_log(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """h = u^2 at every point of x, the support mask h > SUPPORT_THRESHOLD
        max h, and Hess log h on the masked points only, shape (mask.sum(), d, d).

        A family whose Hess log h is the same at every point may return that
        one matrix instead, shape (1, d, d), which broadcasts over the masked
        points; the caller may write into the returned array."""
        u, g, hess = self.jet(x)
        h = u**2
        mask = _support(h, SUPPORT_THRESHOLD)
        u = u[mask]
        gu = g[mask] / u[:, None]
        return h, mask, 2.0 * (hess[mask] / u[:, None, None] - gu[:, :, None] * gu[:, None, :])

    def params(self) -> dict:
        """The constructor fields other than d."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self) if f.name != "d"}

    def to_json(self) -> dict:
        return {"family": self.family, "params": self.params(), "d": self.d}


def check_envelope(n_outer: int, n_inner: int) -> None:
    """CapacityError if an average over n_outer x n_inner points would exceed
    MAX_AVERAGE_POINTS."""
    if n_outer * n_inner > MAX_AVERAGE_POINTS:
        raise CapacityError(
            f"averaging {n_outer} x {n_inner} points exceeds the envelope of "
            f"{MAX_AVERAGE_POINTS}; lower the grid or inner order"
        )


def _per_time(stacked) -> list[tuple[np.ndarray, ...]]:
    """One tuple per time from averages stacked along a leading time axis."""
    return [tuple(a[i] for a in stacked) for i in range(stacked[0].shape[0])]


def _over_times(average):
    """An ou_average over a sequence of times that also takes one time t,
    and then returns its one tuple (or None)."""

    @wraps(average)
    def over(self, x, times, order):
        if np.ndim(times):
            return average(self, x, times, order)
        out = average(self, x, [times], order)
        return None if out is None else out[0]

    return over


def inner_average(
    u0: TestFunction, x: np.ndarray, times, order: int, nodes: np.ndarray, weights: np.ndarray
) -> list[tuple[np.ndarray, ...]]:
    """u0.ou_average(x, times, order) over the inner rule (nodes, weights) in
    y, one tuple per time.

    The outer points go in chunks of _POINT_BUDGET outer x inner points x
    d^2.  One jet of u0 to the given order serves every average of as many
    times as fit in that budget with the chunk; each time is then contracted
    on its own block of the chunk, so its bits are those of a call with that
    time alone.  An average over more than MAX_AVERAGE_POINTS points raises
    CapacityError before any work.
    """
    pts = _points(x, u0.d)
    (n, d), m = pts.shape, weights.shape[0]
    check_envelope(n, m)
    decay = np.array([math.exp(-t) for t in times])[:, None, None, None]
    spread = np.array([math.sqrt(-math.expm1(-2.0 * t)) for t in times])[:, None, None, None]
    avg = tuple(np.empty((len(times), n) + (d,) * k) for k in range(order + 1))
    chunk = max(1, _POINT_BUDGET // (m * d**2))
    for start in range(0, n, chunk):
        xb = pts[start : start + chunk]
        per = max(1, _POINT_BUDGET // (xb.shape[0] * m * d**2))
        for first in range(0, len(times), per):
            batch = slice(first, first + per)
            z = decay[batch] * xb[:, None, :] + spread[batch] * nodes[None, :, :]
            u, *derivs = u0.jet(z.reshape(-1, d), order)
            # one order at a time: h0 = u^2, grad h0 = 2 u grad u,
            # Hess h0 = 2 (grad u (x) grad u + u Hess u)
            for k, out in enumerate(avg):
                if k == 0:
                    vals = u**2
                elif k == 1:
                    vals = 2.0 * u[:, None] * derivs[0]
                else:
                    g, hess = derivs
                    vals = 2.0 * (g[:, :, None] * g[:, None, :] + u[:, None, None] * hess)
                vals = vals.reshape((-1, xb.shape[0], m) + vals.shape[1:])
                for i, block in enumerate(vals, first):
                    out[i, start : start + chunk] = np.tensordot(block, weights, axes=([1], [0]))
    return _per_time(avg)


@dataclass(frozen=True)
class Tilt(TestFunction):
    """Exponential tilt w_{a,c}(x) = c exp(-a . x), the optimizer manifold."""

    a: np.ndarray
    c: float = 1.0
    d: int = field(init=False, default=0)
    family = "tilt"
    scaled = "c"

    def __post_init__(self) -> None:
        a = _vector("a", self.a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", a.shape[0])
        object.__setattr__(self, "_row", {"a": a, "c": np.asarray(self.c)})
        if not self.admits(**self._row):
            raise PositivityError(f"tilt amplitude must be positive, got {self.c}")

    @staticmethod
    def admits(a: np.ndarray, c: np.ndarray) -> np.ndarray:
        return c > 0

    @staticmethod
    def jet_rows(x: np.ndarray, order: int, a: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
        """The tilts c exp(-a . x), a (k, d) and c (k,)."""
        u = np.matmul(x, -a[..., :, None])[..., 0]
        np.exp(u, out=u)
        u *= c[..., None]
        if order == 0:
            return (u,)
        grad = -a[..., :, None] * u[..., None, :]
        if order == 1:
            return u, grad
        outer = a[..., :, None] * a[..., None, :]
        return u, grad, u[..., None, None] * outer[..., None, :, :]

    def density_and_hess_log(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # log u^2 = 2 log c - 2 a . x is affine: one zero matrix for every point;
        # h = u^2 in place of the jet's u
        u = self.value(x)
        h = np.square(u, out=u)
        return h, _support(h, SUPPORT_THRESHOLD), np.zeros((1, self.d, self.d))

    def envelope(self) -> Envelope:
        # log h = 2 log c - 2 a . x and grad log u = -a
        norm_a = float(np.linalg.norm(self.a))
        return Envelope(2.0 * math.log(self.c), 2.0 * norm_a, norm_a, 0.0)

    def evolved(self, t: float) -> "Tilt":
        # P_t c^2 e^{-2a.x} = c^2 e^{2(1 - e^{-2t})|a|^2} e^{-2 e^{-t} a.x}
        growth = math.exp(-math.expm1(-2.0 * t) * float(self.a @ self.a))
        return replace(self, a=math.exp(-t) * self.a, c=self.c * growth)


@dataclass(frozen=True)
class Affine(TestFunction):
    """u(x) = amplitude (1 + eps x . nu) with |nu| = 1.

    Positive on the reference hull only for |eps| l1(nu) < 1/3; rejected
    otherwise.
    """

    eps: float
    nu: np.ndarray
    amplitude: float = 1.0
    d: int = field(init=False, default=0)
    family = "affine"

    def __post_init__(self) -> None:
        nu = _vector("nu", self.nu)
        norm = np.linalg.norm(nu)
        if norm == 0:
            raise LabError("direction nu must be nonzero")
        object.__setattr__(self, "nu", nu / norm)
        object.__setattr__(self, "d", nu.shape[0])
        row = {"eps": np.asarray(self.eps), "nu": self.nu, "amplitude": np.asarray(self.amplitude)}
        object.__setattr__(self, "_row", row)
        if not self.admits(**self._row):
            raise PositivityError(
                f"affine function vanishes on |x|_inf <= {POSITIVITY_HULL}: eps = {self.eps}"
            )
        if not self.amplitude > 0:
            raise PositivityError("amplitude must be positive")

    @staticmethod
    def admits(eps: np.ndarray, nu: np.ndarray, amplitude: np.ndarray) -> np.ndarray:
        # 1 + eps x . nu at its least on the hull
        return 1.0 - np.abs(eps) * POSITIVITY_HULL * np.abs(nu).sum(axis=-1) > 0

    @staticmethod
    def jet_rows(
        x: np.ndarray, order: int, eps: np.ndarray, nu: np.ndarray, amplitude: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """The functions amplitude (1 + eps x . nu), eps and amplitude (k,), nu (k, d)."""
        xnu = np.matmul(x, nu[..., :, None])[..., 0]
        u = amplitude[..., None] * (1.0 + eps[..., None] * xnu)
        if order == 0:
            return (u,)
        slope = (amplitude * eps)[..., None] * nu
        grad = np.empty(slope.shape + u.shape[-1:])
        grad[...] = slope[..., None]
        if order == 1:
            return u, grad
        return u, grad, np.zeros(u.shape + nu.shape[-1:] * 2)

    @_over_times
    def ou_average(self, x, times, order):
        # u^2 is quadratic per axis: the order-2 rule averages it exactly
        return inner_average(self, x, times, order, *tensor_rule((2,) * self.d))


@dataclass(frozen=True)
class GaussianProfile(TestFunction):
    """u with u^2 dgamma equal to a Gaussian of per-axis variance sigma2 <= 1.

    u(x) = amplitude prod_i sigma_i^{-1/2} exp(-(x_i-b_i)^2/(4 sigma_i^2) + x_i^2/4),
    so amplitude = 1 gives ||u||_2 = 1 exactly.
    """

    sigma2: np.ndarray
    mean: np.ndarray | None = None
    amplitude: float = 1.0
    d: int = field(init=False, default=0)
    family = "gaussian"

    def __post_init__(self) -> None:
        s2 = _vector("sigma2", self.sigma2)
        object.__setattr__(self, "sigma2", s2)
        object.__setattr__(self, "d", s2.shape[0])
        mean = self.mean
        if mean is None:
            mean = np.zeros(self.d)
        mean = _vector("mean", mean)
        if mean.shape != (self.d,):
            raise LabError(f"mean must have shape ({self.d},)")
        object.__setattr__(self, "mean", mean)
        row = {"sigma2": s2, "mean": mean, "amplitude": np.asarray(self.amplitude)}
        object.__setattr__(self, "_row", row)
        if not self.admits(**self._row):
            raise LabError(f"variances must lie in (0, 1], got {s2}")
        if not self.amplitude > 0:
            raise PositivityError("amplitude must be positive")

    @staticmethod
    def admits(sigma2: np.ndarray, mean: np.ndarray, amplitude: np.ndarray) -> np.ndarray:
        return np.all((sigma2 > 0) & (sigma2 <= 1.0), axis=-1)

    @staticmethod
    def jet_rows(
        x: np.ndarray, order: int, sigma2: np.ndarray, mean: np.ndarray, amplitude: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """The profiles of variances sigma2 (k, d), means mean (k, d) and
        amplitudes amplitude (k,)."""
        members, d, n = sigma2.shape[:-1], sigma2.shape[-1], x.shape[0]
        # axis by axis, summed in axis order, with at most two (k, n)
        # temporaries besides u and the (k, d, n) rows that become grad log u:
        # log u = sum_i (-(x_i - b_i)^2 / (4 s2_i) + x_i^2 / 4) - sum_i log(s2_i) / 4
        s2 = sigma2[..., None]
        rows = np.empty(members + (d, n)) if order else None
        u = None
        for i in range(d):
            z = np.subtract(x[:, i], mean[..., i, None], out=None if rows is None else rows[..., i, :])
            term = np.square(z)
            term *= -0.25
            term /= s2[..., i, :]
            term += 0.25 * np.square(x[:, i])
            if u is None:
                u = term
            else:
                u += term
        u -= 0.25 * np.log(sigma2).sum(axis=-1, keepdims=True)
        np.exp(u, out=u)
        u *= amplitude[..., None]
        if order == 0:
            return (u,)
        # grad log u, row i = -(x_i - b_i) / (2 s2_i) + x_i / 2, in place of x_i - b_i
        for i in range(d):
            row = rows[..., i, :]
            row *= -0.5
            row /= s2[..., i, :]
            row += 0.5 * x[:, i]
        if order == 1:
            rows *= u[..., None, :]
            return u, rows
        grad = u[..., None, :] * rows
        grad_log = np.swapaxes(rows, -1, -2)
        # diag(0.5 - 0.5 / sigma2): every (d + 1)-th entry of the flattened matrix
        curv = np.zeros(members + (d * d,))
        curv[..., :: d + 1] = 0.5 - 0.5 / sigma2
        curv = curv.reshape(members + (d, d))
        outer = grad_log[..., :, None] * grad_log[..., None, :]
        return u, grad, u[..., None, None] * (outer + curv[..., None, :, :])

    def density_and_hess_log(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # log u^2 is quadratic: one matrix diag(1 - 1 / sigma2) for every point.
        # u point by point, so block by block it is u on all of x bit for bit,
        # with the jet's temporaries the size of a block; h = u^2 in place
        h = np.empty(x.shape[0])
        for start in range(0, x.shape[0], _BLOCK):
            h[start : start + _BLOCK] = self.value(x[start : start + _BLOCK])
        np.square(h, out=h)
        return h, _support(h, SUPPORT_THRESHOLD), np.diag(1.0 - 1.0 / self.sigma2)[None]

    def envelope(self) -> Envelope:
        # log u = gamma + sum_k alpha_k x_k^2 + beta . x with alpha_k <= 0, and
        # grad log u = 2 alpha x + beta
        s2, b = self.sigma2, self.mean
        alpha = 0.25 - 0.25 / s2
        beta = float(np.linalg.norm(b / (2.0 * s2)))
        gamma = math.log(self.amplitude) - 0.25 * float(np.log(s2).sum() + (b**2 / s2).sum())
        return Envelope(2.0 * gamma, 2.0 * beta, beta, 2.0 * float(np.abs(alpha).max()))

    def evolved(self, t: float) -> "GaussianProfile":
        # N(b, s2) flows to N(e^{-t} b, e^{-2t} s2 + 1 - e^{-2t}) with its mass;
        # the clip keeps rounding from lifting a unit variance above 1
        decay = math.exp(-t)
        s2 = np.minimum(decay**2 * self.sigma2 - math.expm1(-2.0 * t), 1.0)
        return replace(self, sigma2=s2, mean=decay * self.mean)


@dataclass(frozen=True)
class Bump(TestFunction):
    """Compactly supported profile u(x) = amplitude (1 - |x-center|^2/R^2)_+^2."""

    radius: float
    center: np.ndarray | None = None
    amplitude: float = 1.0
    d: int = 1
    family = "bump"

    def __post_init__(self) -> None:
        if not 0 < self.radius < math.inf:
            raise LabError(f"support radius must be positive and finite, got {self.radius}")
        center = self.center
        if center is None:
            center = np.zeros(self.d)
        center = _vector("center", center)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "d", center.shape[0])
        if not self.amplitude > 0:
            raise PositivityError("amplitude must be positive")
        object.__setattr__(self, "support_radius", self.radius + float(np.linalg.norm(center)))

    def jet(self, x: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
        z = _points(x, self.d) - self.center
        q = _rowdot(z, z) / self.radius**2
        inside = q < 1.0
        u = self.amplitude * np.where(inside, (1.0 - q) ** 2, 0.0)
        if order == 0:
            return (u,)
        slope = -4.0 * (1.0 - q) / self.radius**2
        grad = self.amplitude * np.where(inside, slope, 0.0)[:, None] * z
        if order == 1:
            return u, grad
        first = slope[:, None, None] * np.eye(self.d)[None, :, :]
        second = (8.0 / self.radius**4) * z[:, :, None] * z[:, None, :]
        return u, grad, self.amplitude * np.where(inside[:, None, None], first + second, 0.0)

    @_over_times
    def ou_average(self, x, times, order):
        if self.d != 1:
            return None
        from .windows import JETS, window_average

        x = _points(x, 1)[:, 0]
        jets = self.amplitude**2 * JETS[4]
        return _per_time(window_average(x, times, float(self.center[0]), self.radius, jets, order))


def _hermite_table(x: np.ndarray, kmax: int) -> np.ndarray:
    """He_k(x) for k = 0..kmax, probabilists' normalization; shape (kmax+1,) + x.shape."""
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = x
    for k in range(1, kmax):
        # He_{k+1} = x He_k - k He_{k-1}, in place
        np.multiply(x, out[k], out=out[k + 1])
        out[k + 1] -= k * out[k - 1]
    return out


@dataclass(frozen=True)
class HermiteExpansion(TestFunction):
    """Truncated expansion u = sum_alpha c_alpha prod_i He_{alpha_i}(x_i).

    Total degree is capped at 12.  Construction rejects coefficient vectors
    that are not strictly positive on the reference hull.
    """

    terms: tuple[tuple[tuple[int, ...], float], ...]
    d: int = 1
    family = "hermite"
    scaled = "coeffs"

    def __post_init__(self) -> None:
        terms = []
        for alpha, coeff in self.terms:
            if not all(isinstance(k, Real) and k >= 0 and float(k).is_integer() for k in alpha):
                raise LabError(f"multi-index {list(alpha)} needs nonnegative integer entries")
            alpha = tuple(int(k) for k in alpha)
            if len(alpha) != self.d:
                raise LabError(f"multi-index {alpha} does not match d = {self.d}")
            if sum(alpha) > MAX_HERMITE_DEGREE:
                raise LabError(f"total degree {sum(alpha)} exceeds {MAX_HERMITE_DEGREE}")
            terms.append((alpha, float(coeff)))
        object.__setattr__(self, "terms", tuple(terms))
        self._keep_row()
        if not self.admits(**self._row, d=self.d):
            raise PositivityError(
                f"expansion vanishes on |x|_inf <= {POSITIVITY_HULL}; adjust coefficients"
            )

    def _keep_row(self) -> None:
        row = {
            "alphas": tuple(alpha for alpha, _ in self.terms),
            "coeffs": np.array([coeff for _, coeff in self.terms], dtype=float),
        }
        object.__setattr__(self, "_row", row)

    @classmethod
    def from_row(cls, alphas: tuple, coeffs: np.ndarray) -> "HermiteExpansion":
        # a term whose coefficient is 0 is left out
        terms = tuple((alpha, c) for alpha, c in zip(alphas, coeffs.tolist()) if c != 0.0)
        return cls(terms=terms, d=len(alphas[0]))

    @staticmethod
    def admits(alphas: tuple, coeffs: np.ndarray, d: int = 1) -> np.ndarray:
        # positive at every probe of the hull |x|_inf <= POSITIVITY_HULL in d dimensions
        u = HermiteExpansion.jet_rows(_hull_probes(d), 0, alphas, coeffs)[0]
        return u.min(axis=-1) > 0

    @staticmethod
    def jet_rows(
        x: np.ndarray, order: int, alphas: tuple, coeffs: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """The expansions sum_t coeffs[:, t] He_{alphas[t]}, coeffs (k, len(alphas)),
        over the multi-indices alphas that every member shares."""
        (n, d), members = x.shape, coeffs.shape[:-1]
        # (kmax + 1, d, n): each table[j, axis] is one contiguous row
        kmax = max((max(alpha) for alpha in alphas), default=0)
        table = _hermite_table(np.ascontiguousarray(x.T), kmax)

        def expansion(terms, out: np.ndarray) -> np.ndarray:
            # out += factor (k,) times prod_axis He_{alpha[axis]}(x_axis), in axis order
            for alpha, factor in terms:
                term = factor[..., None] * table[alpha[0], 0]
                for axis in range(1, d):
                    term = term * table[alpha[axis], axis]
                out += term
            return out

        def derivative(terms, axis: int) -> list:
            # He_k' = k He_{k-1}: a term whose degree along axis is 0 drops out
            return [(alpha[:axis] + (k - 1,) + alpha[axis + 1 :], factor * k)
                    for alpha, factor in terms if (k := alpha[axis]) > 0]

        terms = [(alpha, coeffs[..., t]) for t, alpha in enumerate(alphas)]
        u = expansion(terms, np.zeros(members + (n,)))
        if order == 0:
            return (u,)
        firsts = [derivative(terms, j) for j in range(d)]
        grad = np.zeros(members + (d, n))
        for j, first in enumerate(firsts):
            expansion(first, grad[..., j, :])
        if order == 1:
            return u, grad
        hess = np.zeros(members + (n, d, d))
        for j, first in enumerate(firsts):
            for l in range(j, d):
                expansion(derivative(first, l), hess[..., j, l])
                if l != j:
                    hess[..., l, j] = hess[..., j, l]
        return u, grad, hess

    def with_scale(self, c: float) -> "HermiteExpansion":
        # a positive finite rescale keeps the sign, so the hull check is not rerun
        if not 0 < c < math.inf:
            raise PositivityError(f"scale must be positive and finite, got {c}")
        scaled = object.__new__(HermiteExpansion)
        terms = tuple((alpha, float(coeff * c)) for alpha, coeff in self.terms)
        object.__setattr__(scaled, "terms", terms)
        object.__setattr__(scaled, "d", self.d)
        scaled._keep_row()
        return scaled

    def params(self) -> dict:
        return {"coeffs": [[list(alpha), coeff] for alpha, coeff in self.terms]}

    @_over_times
    def ou_average(self, x, times, order):
        # u^2 has degree <= 2 k_i along axis i, k_i the largest degree there:
        # the order-(k_i + 1) rule on each axis averages it exactly
        degrees = (max(ks) for ks in zip(*(alpha for alpha, _ in self.terms)))
        return inner_average(self, x, times, order, *tensor_rule(tuple(k + 1 for k in degrees)))


@dataclass(frozen=True)
class TwoBumps(TestFunction):
    """1 plus two bump profiles at +-separation along the first axis.

    Strictly positive everywhere.  With well separated modes the density
    u^2 dgamma is not log-concave near the inner support edges, which makes
    this the canonical refutation instance for the certifier.
    """

    height: float
    radius: float
    separation: float
    amplitude: float = 1.0
    d: int = 1
    family = "two_bumps"

    def __post_init__(self) -> None:
        if not all(0 < v < math.inf for v in (self.height, self.radius, self.separation)):
            raise LabError("height, radius, separation must be positive and finite")
        if not self.amplitude > 0:
            raise PositivityError("amplitude must be positive")

    def _lobes(self) -> tuple[Bump, Bump]:
        offset = np.zeros(self.d)
        offset[0] = self.separation
        return (
            Bump(radius=self.radius, center=offset, amplitude=self.height),
            Bump(radius=self.radius, center=-offset, amplitude=self.height),
        )

    def jet(self, x: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
        x = _points(x, self.d)
        right, left = (lobe.jet(x, order) for lobe in self._lobes())
        u = self.amplitude * (1.0 + right[0] + left[0])
        return (u,) + tuple(self.amplitude * (r + l) for r, l in zip(right[1:], left[1:]))

    @_over_times
    def ou_average(self, x, times, order):
        # h0 = A^2 (1 + sum_i (2 b_i + b_i^2) + 2 b_+ b_-): each lobe on its own
        # window, and the cross term where the lobes overlap (separation < radius)
        if self.d != 1:
            return None
        from .windows import JETS, window_average, window_jets

        x = _points(x, 1)[:, 0]
        square = self.amplitude**2
        jets = square * (2.0 * self.height * JETS[2] + self.height**2 * JETS[4])
        right, left = (
            window_average(x, times, center, self.radius, jets, order)
            for center in (self.separation, -self.separation)
        )
        out = [r + l for r, l in zip(right, left)]
        if self.separation < self.radius:
            # b_+- = H q_+-^2 on the overlap z = (R - s) w, with q_+- = 1 - (z -+ s)^2 / R^2
            # = 1 - sigma^2 +- 2 rho sigma w - rho^2 w^2
            half = self.radius - self.separation
            rho, sigma = half / self.radius, self.separation / self.radius
            poly = np.polynomial.polynomial
            q = [[1.0 - sigma**2, sign * 2.0 * rho * sigma, -(rho**2)] for sign in (1.0, -1.0)]
            cross = 2.0 * square * self.height**2 * poly.polypow(poly.polymul(*q), 2)
            for o, c in zip(out, window_average(x, times, 0.0, half, window_jets(cross), order)):
                o += c
        out[0] += square
        return _per_time(out)


def build_function(obj: dict) -> TestFunction:
    """Construct a family member from {"family": tag, "params": {...}, "d": n}.

    A d outside 1..MAX_DIM (default 1), missing, malformed or unknown
    parameters, and parameters of another dimension than d raise LabError.
    """
    try:
        tag = obj["family"]
        params = dict(obj.get("params", {}))
        d = obj.get("d", 1)
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
            raise TypeError(f"d must be an integer, got {d!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise LabError(f"malformed function description: {exc}") from exc
    GaussianMeasureSpec(d)  # CapacityError outside 1 <= d <= MAX_DIM
    known = _PARAMETERS.get(tag) if isinstance(tag, str) else None
    if known is None:
        raise LabError(f"unknown family {tag!r}; known: {FAMILY_TAGS}")
    unknown = [name for name in params if name not in known]
    if unknown:
        raise LabError(f"unknown {tag} parameters {unknown}; known: {sorted(known)}")
    try:
        u = _construct(tag, params, d)
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"{type(exc).__name__}: {exc}"
        raise LabError(f"cannot build a {tag} from {params}: {problem}") from exc
    if u.d != d:
        raise LabError(f"the {tag} parameters have d = {u.d}, the description states d = {d}")
    return u


def _per_axis(value, d: int) -> np.ndarray:
    """value as a float vector; a one-entry value stands for all d axes."""
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return np.full(d, v[0]) if v.shape == (1,) else v


def _construct(tag: str, params: dict, d: int) -> TestFunction:
    """The member of one of the tags in _PARAMETERS."""
    if tag == "tilt":
        return Tilt(a=_per_axis(params.get("a", 0.0), d), c=float(params.get("c", 1.0)))
    if tag == "affine":
        nu = params.get("nu")
        return Affine(
            eps=float(params["eps"]),
            nu=np.eye(d)[0] if nu is None else nu,
            amplitude=float(params.get("amplitude", 1.0)),
        )
    if tag == "gaussian":
        return GaussianProfile(
            sigma2=_per_axis(params["sigma2"], d),
            mean=params.get("mean"),
            amplitude=float(params.get("amplitude", 1.0)),
        )
    if tag == "bump":
        return Bump(
            radius=float(params["radius"]),
            center=params.get("center"),
            amplitude=float(params.get("amplitude", 1.0)),
            d=d,
        )
    if tag == "hermite":
        coeffs = params["coeffs"]
        if coeffs and not isinstance(coeffs[0], Sequence):
            terms = tuple(((k,), float(c)) for k, c in enumerate(coeffs) if c != 0.0)
            if not any(alpha == (0,) for alpha, _ in terms):
                terms = (((0,), 0.0),) + terms
            return HermiteExpansion(terms=terms, d=1)
        terms = tuple((tuple(alpha), float(c)) for alpha, c in coeffs)
        return HermiteExpansion(terms=terms, d=d)
    # two_bumps, the last of the tags build_function admits
    return TwoBumps(
        height=float(params["height"]),
        radius=float(params["radius"]),
        separation=float(params["separation"]),
        amplitude=float(params.get("amplitude", 1.0)),
        d=d,
    )


def l2_norms(grid: QuadratureGrid, value) -> np.ndarray:
    """||u|| of each row of value(grid.nodes), u on the nodes, (n_points,) or
    (k, n_points); an overflow gives inf, which normalizable rejects."""
    with np.errstate(over="ignore"):
        return np.sqrt(row_sums(value(grid.nodes) ** 2, grid.weights))


def normalizable(norm):
    """Whether a norm, or each of an array of them, can be scaled to 1."""
    return (1e-150 <= norm) & (norm < math.inf)


def l2_norm(u: TestFunction, grid: QuadratureGrid) -> float:
    """||u||_{L2(dgamma)}, on grid's pruned twin when the mass it leaves out
    is at most EPS x the kept mass (pruned_read), else on grid."""
    # the scale is the kept mass, known only once the twin is read
    twin, (dropped,) = pruned_read(u, grid, Envelope.density, scale=math.inf)
    norm = float(l2_norms(twin, u.value))
    if twin is grid or dropped <= EPS * norm**2:
        return norm
    return float(l2_norms(grid, u.value))


def normalize(u: TestFunction, grid: QuadratureGrid) -> TestFunction:
    """Rescale within the family so that ||u||_{L2(dgamma)} = 1."""
    norm = l2_norm(u, grid)
    if not normalizable(norm):
        raise NormalizationError(f"cannot normalize a function with L2 norm {norm!r}")
    return u.with_scale(1.0 / norm)


def _moments(grid: QuadratureGrid, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first moment sum_i w_i h_i x_i and the second moment gap
    sum_i w_i h_i (|x_i|^2 - d) of h, given on grid.nodes, (n,) or one row
    per member (k, n): shapes (d,) and () or (k, d) and (k,)."""
    x, wh = grid.nodes, grid.weights * h
    # one pairwise sum per axis keeps m1 within rounding_floor; (w h) @ x through
    # BLAS does not at d = 3, order 64
    m1 = np.array([np.add.reduce(wh * x[:, i], axis=-1) for i in range(grid.d)]).T
    return m1, row_sums(h * (_rowdot(x, x) - grid.d), grid.weights)


def first_moment(u: TestFunction, grid: QuadratureGrid) -> np.ndarray:
    return _moments(grid, u.density(grid.nodes))[0]


def _require_unit_norm(grid: QuadratureGrid, h: np.ndarray) -> list[float]:
    """||u|| from h = u^2 on grid.nodes for each row of h (k, n);
    NormalizationError unless each is 1 within 1e-8."""
    norms = [math.sqrt(s) for s in row_sums(h, grid.weights).tolist()]
    for norm in norms:
        if not abs(norm - 1.0) <= 1e-8:
            raise NormalizationError(f"expected unit L2 norm, got {norm!r}; normalize first")
    return norms


def second_moment_gap(u: TestFunction, grid: QuadratureGrid) -> float:
    """A = integral of u^2 (|x|^2 - d) dgamma for normalized u."""
    h = u.density(grid.nodes)
    _require_unit_norm(grid, h[None])
    return float(_moments(grid, h)[1])


@dataclass(frozen=True)
class CenteredResult:
    function: TestFunction
    shift: np.ndarray
    recentred: bool


def center_mass(u: TestFunction, grid: QuadratureGrid, tol: float = 1e-10) -> CenteredResult:
    """Return a representative with vanishing density first moment when the
    family supports exact recentring (gaussian mean, bump center); otherwise
    report the measured moment with recentred = False."""
    h = u.density(grid.nodes)
    _require_unit_norm(grid, h[None])
    m1 = _moments(grid, h)[0]
    if np.linalg.norm(m1) <= tol:
        return CenteredResult(function=u, shift=np.zeros(u.d), recentred=True)
    if isinstance(u, GaussianProfile):
        moved = replace(u, mean=np.zeros(u.d))
        return CenteredResult(function=moved, shift=m1, recentred=True)
    if isinstance(u, Bump):
        moved = normalize(replace(u, center=np.zeros(u.d)), grid)
        return CenteredResult(function=moved, shift=m1, recentred=True)
    return CenteredResult(function=u, shift=m1, recentred=False)
