"""Parametric test functions u with closed-form derivatives.

Each family evaluates u, grad u and Hess u on batches of points and knows
how to rescale itself, so normalization never leaves the family.  The
associated probability density is u^2 dgamma (after normalization); the
log-density Hessian used by the log-concavity certifier is

    Hess log(u^2) = 2 (Hess u / u - (grad u / u) (x) (grad u / u)).

Families that can vanish (affine, hermite) are admitted only when strictly
positive on the reference hull |x|_inf <= 3; operations that divide by u
check positivity again at their own evaluation points.  The bump is
compactly supported by design and reports its support radius.

Along the Ornstein-Uhlenbeck flow a family may evolve in closed form
(evolved: Gaussian profiles and tilts) or supply the exact Gaussian
averages of u^2 and its derivatives (ou_average: d = 1 bumps and two_bumps
with disjoint lobes, where u^2 is a polynomial on intervals; the windows
module computes them and is imported on first use, so that `import glslab`
does not compile it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Sequence

import numpy as np

from .errors import LabError, NormalizationError, PositivityError
from .measure import QuadratureGrid

POSITIVITY_HULL = 3.0
MAX_HERMITE_DEGREE = 12
FAMILY_TAGS = ("tilt", "affine", "gaussian", "bump", "hermite", "two_bumps")


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
    """value as plain JSON data: a dataclass becomes {field name: value}, a
    dict a dict, a list, tuple or array a list, a numpy scalar its Python
    value; NaN stays NaN."""
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


def _hull_probes(d: int, radius: float = POSITIVITY_HULL) -> np.ndarray:
    per_axis = {1: 201, 2: 41, 3: 17}[d]
    axis = np.linspace(-radius, radius, per_axis)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


class TestFunction:
    """Base interface: value, gradient, hessian on (n, d) point batches."""

    d: int
    family: str
    support_radius: float | None = None

    def value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def with_scale(self, c: float) -> "TestFunction":
        raise NotImplementedError

    def evolved(self, t: float) -> "TestFunction | None":
        """The member v with v^2 = P_t(u^2) under the OU semigroup, None without
        a closed form; t is finite and positive."""
        return None

    def ou_average(
        self, x: np.ndarray, t: float, kinds: Sequence[str]
    ) -> "tuple[np.ndarray, ...] | None":
        """Exact Gaussian averages int f(e^{-t} x + sqrt(1 - e^{-2t}) y) dgamma(y)
        of f = h0, grad h0 and Hess h0 (h0 = u^2), one array per kind in kinds
        ("h", "grad", "hess"), shapes (n,), (n, d) and (n, d, d); None for a
        family without them.  t is finite and positive."""
        return None

    def density(self, x: np.ndarray) -> np.ndarray:
        return self.value(x) ** 2

    def density_and_gradient(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u^2 and grad u at x, for readers that need both on one node set."""
        return self.value(x) ** 2, self.gradient(x)

    def jet(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """u, grad u and Hess u at x, for readers that need all three on one node set."""
        return self.value(x), self.gradient(x), self.hessian(x)

    def hess_log_density(self, x: np.ndarray) -> np.ndarray:
        """Hess log(u^2) where u > 0; caller is responsible for masking."""
        u = self.value(x)
        g = self.gradient(x)
        h = self.hessian(x)
        gu = g / u[:, None]
        return 2.0 * (h / u[:, None, None] - gu[:, :, None] * gu[:, None, :])

    def params(self) -> dict:
        """The constructor fields other than d."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self) if f.name != "d"}

    def to_json(self) -> dict:
        return {"family": self.family, "params": self.params(), "d": self.d}


@dataclass(frozen=True)
class Tilt(TestFunction):
    """Exponential tilt w_{a,c}(x) = c exp(-a . x), the optimizer manifold."""

    a: np.ndarray
    c: float = 1.0
    d: int = field(init=False, default=0)
    family = "tilt"

    def __post_init__(self) -> None:
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", a.shape[0])
        if not self.c > 0:
            raise PositivityError(f"tilt amplitude must be positive, got {self.c}")

    def value(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        return self.c * np.exp(-x @ self.a)

    def density_and_gradient(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = self.value(x)
        return u**2, -u[:, None] * self.a[None, :]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.density_and_gradient(x)[1]

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return self.value(x)[:, None, None] * np.outer(self.a, self.a)[None, :, :]

    def hess_log_density(self, x: np.ndarray) -> np.ndarray:
        # log u^2 = 2 log c - 2 a . x is affine
        x = _points(x, self.d)
        return np.zeros((x.shape[0], self.d, self.d))

    def with_scale(self, c: float) -> "Tilt":
        return replace(self, a=self.a, c=self.c * c)

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
        nu = np.atleast_1d(np.asarray(self.nu, dtype=float))
        norm = np.linalg.norm(nu)
        if norm == 0:
            raise LabError("direction nu must be nonzero")
        object.__setattr__(self, "nu", nu / norm)
        object.__setattr__(self, "d", nu.shape[0])
        worst = 1.0 - abs(self.eps) * POSITIVITY_HULL * np.abs(self.nu).sum()
        if not worst > 0:
            raise PositivityError(
                f"affine function vanishes on |x|_inf <= {POSITIVITY_HULL}: eps = {self.eps}"
            )
        if not self.amplitude > 0:
            raise PositivityError("amplitude must be positive")

    def value(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        return self.amplitude * (1.0 + self.eps * (x @ self.nu))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        g = np.broadcast_to(self.amplitude * self.eps * self.nu, (x.shape[0], self.d))
        return np.array(g, dtype=float)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        return np.zeros((x.shape[0], self.d, self.d))

    def with_scale(self, c: float) -> "Affine":
        return replace(self, amplitude=self.amplitude * c)


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
        s2 = np.atleast_1d(np.asarray(self.sigma2, dtype=float))
        object.__setattr__(self, "sigma2", s2)
        object.__setattr__(self, "d", s2.shape[0])
        mean = self.mean
        if mean is None:
            mean = np.zeros(self.d)
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        if mean.shape != (self.d,):
            raise LabError(f"mean must have shape ({self.d},)")
        object.__setattr__(self, "mean", mean)
        if not np.all((s2 > 0) & (s2 <= 1.0)):
            raise LabError(f"variances must lie in (0, 1], got {s2}")
        if not self.amplitude > 0:
            raise PositivityError("amplitude must be positive")

    def _log_u(self, x: np.ndarray) -> np.ndarray:
        s2, b = self.sigma2, self.mean
        return (-0.25 * (x - b) ** 2 / s2 + 0.25 * x**2).sum(axis=1) - 0.25 * np.log(
            s2
        ).sum()

    def value(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        return self.amplitude * np.exp(self._log_u(x))

    def _grad_log(self, x: np.ndarray) -> np.ndarray:
        return -0.5 * (x - self.mean) / self.sigma2 + 0.5 * x

    def density_and_gradient(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = _points(x, self.d)
        u = self.value(x)
        return u**2, u[:, None] * self._grad_log(x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.density_and_gradient(x)[1]

    def hessian(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        u = self.value(x)
        g = self._grad_log(x)
        curv = np.diag(0.5 - 0.5 / self.sigma2)
        return u[:, None, None] * (g[:, :, None] * g[:, None, :] + curv[None, :, :])

    def hess_log_density(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        curv = np.diag(1.0 - 1.0 / self.sigma2)
        return np.broadcast_to(curv, (x.shape[0], self.d, self.d)).copy()

    def with_scale(self, c: float) -> "GaussianProfile":
        return replace(self, amplitude=self.amplitude * c)

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
        center = np.atleast_1d(np.asarray(center, dtype=float))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "d", center.shape[0])
        if not self.amplitude > 0:
            raise PositivityError("amplitude must be positive")
        object.__setattr__(self, "support_radius", self.radius + float(np.linalg.norm(center)))

    def _q(self, x: np.ndarray) -> np.ndarray:
        return ((x - self.center) ** 2).sum(axis=1) / self.radius**2

    def value(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        q = self._q(x)
        return self.amplitude * np.where(q < 1.0, (1.0 - q) ** 2, 0.0)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        q = self._q(x)
        coeff = np.where(q < 1.0, -4.0 * (1.0 - q) / self.radius**2, 0.0)
        return self.amplitude * coeff[:, None] * (x - self.center)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        q = self._q(x)
        inside = q < 1.0
        z = x - self.center
        eye = np.eye(self.d)
        first = (-4.0 * (1.0 - q) / self.radius**2)[:, None, None] * eye[None, :, :]
        second = (8.0 / self.radius**4) * z[:, :, None] * z[:, None, :]
        return self.amplitude * np.where(inside[:, None, None], first + second, 0.0)

    def with_scale(self, c: float) -> "Bump":
        return replace(self, amplitude=self.amplitude * c)

    def ou_average(self, x, t, kinds):
        if self.d != 1:
            return None
        from .windows import JETS, window_average

        x = _points(x, 1)[:, 0]
        jets = self.amplitude**2 * JETS[4]
        return window_average(x, t, float(self.center[0]), self.radius, jets, kinds)


def _hermite_table(x: np.ndarray, kmax: int) -> np.ndarray:
    """He_k(x) for k = 0..kmax, probabilists' normalization; shape (kmax+1, n)."""
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = x
    for k in range(1, kmax):
        out[k + 1] = x * out[k] - k * out[k - 1]
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

    def __post_init__(self) -> None:
        terms = []
        for alpha, coeff in self.terms:
            alpha = tuple(int(k) for k in alpha)
            if len(alpha) != self.d:
                raise LabError(f"multi-index {alpha} does not match d = {self.d}")
            if sum(alpha) > MAX_HERMITE_DEGREE:
                raise LabError(f"total degree {sum(alpha)} exceeds {MAX_HERMITE_DEGREE}")
            terms.append((alpha, float(coeff)))
        object.__setattr__(self, "terms", tuple(terms))
        probes = _hull_probes(self.d)
        if not self.value(probes).min() > 0:
            raise PositivityError(
                f"expansion vanishes on |x|_inf <= {POSITIVITY_HULL}; adjust coefficients"
            )

    @property
    def _kmax(self) -> int:
        return max((max(alpha) for alpha, _ in self.terms), default=0)

    def value(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        table = _hermite_table(x, self._kmax)  # (k, n, d)
        out = np.zeros(x.shape[0])
        for alpha, coeff in self.terms:
            term = np.full(x.shape[0], coeff)
            for axis, k in enumerate(alpha):
                term = term * table[k, :, axis]
            out += term
        return out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        table = _hermite_table(x, self._kmax)
        out = np.zeros((x.shape[0], self.d))
        for alpha, coeff in self.terms:
            for j, kj in enumerate(alpha):
                if kj == 0:
                    continue
                # He_k' = k He_{k-1}
                term = np.full(x.shape[0], coeff * kj)
                for axis, k in enumerate(alpha):
                    term = term * table[k - 1 if axis == j else k, :, axis]
                out[:, j] += term
        return out

    def hessian(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        table = _hermite_table(x, self._kmax)
        out = np.zeros((x.shape[0], self.d, self.d))
        for alpha, coeff in self.terms:
            for j in range(self.d):
                for l in range(j, self.d):
                    kj, kl = alpha[j], alpha[l]
                    if j == l:
                        if kj < 2:
                            continue
                        factor = coeff * kj * (kj - 1)
                        drop = {j: 2}
                    else:
                        if kj == 0 or kl == 0:
                            continue
                        factor = coeff * kj * kl
                        drop = {j: 1, l: 1}
                    term = np.full(x.shape[0], factor)
                    for axis, k in enumerate(alpha):
                        term = term * table[k - drop.get(axis, 0), :, axis]
                    out[:, j, l] += term
                    if j != l:
                        out[:, l, j] += term
        return out

    def with_scale(self, c: float) -> "HermiteExpansion":
        scaled = tuple((alpha, coeff * c) for alpha, coeff in self.terms)
        return replace(self, terms=scaled)

    def params(self) -> dict:
        return {"coeffs": [[list(alpha), coeff] for alpha, coeff in self.terms]}


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

    def value(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        right, left = self._lobes()
        return self.amplitude * (1.0 + right.value(x) + left.value(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        right, left = self._lobes()
        return self.amplitude * (right.gradient(x) + left.gradient(x))

    def hessian(self, x: np.ndarray) -> np.ndarray:
        x = _points(x, self.d)
        right, left = self._lobes()
        return self.amplitude * (right.hessian(x) + left.hessian(x))

    def with_scale(self, c: float) -> "TwoBumps":
        return replace(self, amplitude=self.amplitude * c)

    def ou_average(self, x, t, kinds):
        # disjoint lobes (separation >= radius) make h0 = A^2 (1 + sum_i 2 b_i + b_i^2)
        # with no cross term; overlapping lobes have no exact average here
        if self.d != 1 or self.separation < self.radius:
            return None
        from .windows import JETS, window_average

        x = _points(x, 1)[:, 0]
        square = self.amplitude**2
        jets = square * (2.0 * self.height * JETS[2] + self.height**2 * JETS[4])
        right, left = (
            window_average(x, t, center, self.radius, jets, kinds)
            for center in (self.separation, -self.separation)
        )
        out = [r + l for r, l in zip(right, left)]
        return tuple(avg + square if kind == "h" else avg for kind, avg in zip(kinds, out))


def build_function(obj: dict) -> TestFunction:
    """Construct a family member from {"family": tag, "params": {...}, "d": n}."""
    try:
        tag = obj["family"]
        params = dict(obj.get("params", {}))
        d = int(obj.get("d", 1))
    except (KeyError, TypeError) as exc:
        raise LabError(f"malformed function description: {exc}") from exc
    if tag == "tilt":
        a = np.atleast_1d(np.asarray(params.get("a", 0.0), dtype=float))
        if a.shape == (1,) and d > 1:
            a = np.full(d, a[0])
        return Tilt(a=a, c=float(params.get("c", 1.0)))
    if tag == "affine":
        nu = params.get("nu")
        if nu is None:
            nu = np.eye(d)[0]
        return Affine(
            eps=float(params["eps"]),
            nu=np.asarray(nu, dtype=float),
            amplitude=float(params.get("amplitude", 1.0)),
        )
    if tag == "gaussian":
        s2 = np.atleast_1d(np.asarray(params["sigma2"], dtype=float))
        if s2.shape == (1,) and d > 1:
            s2 = np.full(d, s2[0])
        return GaussianProfile(
            sigma2=s2,
            mean=params.get("mean"),
            amplitude=float(params.get("amplitude", 1.0)),
        )
    if tag == "bump":
        center = params.get("center")
        if center is None:
            center = np.zeros(d)
        return Bump(
            radius=float(params["radius"]),
            center=np.asarray(center, dtype=float),
            amplitude=float(params.get("amplitude", 1.0)),
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
    if tag == "two_bumps":
        return TwoBumps(
            height=float(params["height"]),
            radius=float(params["radius"]),
            separation=float(params["separation"]),
            amplitude=float(params.get("amplitude", 1.0)),
            d=d,
        )
    raise LabError(f"unknown family {tag!r}; known: {FAMILY_TAGS}")


def l2_norm(u: TestFunction, grid: QuadratureGrid) -> float:
    # an overflow gives inf, which normalize turns into a NormalizationError
    with np.errstate(over="ignore"):
        values = u.value(grid.nodes)
        return math.sqrt(float(grid.weights @ values**2))


def normalize(u: TestFunction, grid: QuadratureGrid) -> TestFunction:
    """Rescale within the family so that ||u||_{L2(dgamma)} = 1."""
    norm = l2_norm(u, grid)
    if not 1e-150 <= norm < math.inf:
        raise NormalizationError(f"cannot normalize a function with L2 norm {norm!r}")
    return u.with_scale(1.0 / norm)


def first_moment(u: TestFunction, grid: QuadratureGrid) -> np.ndarray:
    h = u.density(grid.nodes)
    return (grid.weights[:, None] * grid.nodes * h[:, None]).sum(axis=0)


def _require_unit_norm(grid: QuadratureGrid, h: np.ndarray) -> float:
    """||u|| from h = u^2 on grid.nodes; NormalizationError unless 1 within 1e-8."""
    norm = math.sqrt(float(grid.weights @ h))
    if not abs(norm - 1.0) <= 1e-8:
        raise NormalizationError(f"expected unit L2 norm, got {norm!r}; normalize first")
    return norm


def second_moment_gap(u: TestFunction, grid: QuadratureGrid) -> float:
    """A = integral of u^2 (|x|^2 - d) dgamma for normalized u."""
    h = u.density(grid.nodes)
    _require_unit_norm(grid, h)
    r2 = (grid.nodes**2).sum(axis=1)
    return float(grid.weights @ (h * (r2 - u.d)))


@dataclass(frozen=True)
class CenteredResult:
    function: TestFunction
    shift: np.ndarray
    recentred: bool


def center_mass(u: TestFunction, grid: QuadratureGrid, tol: float = 1e-10) -> CenteredResult:
    """Return a representative with vanishing density first moment when the
    family supports exact recentring (gaussian mean, bump center); otherwise
    report the measured moment with recentred = False."""
    _require_unit_norm(grid, u.density(grid.nodes))
    m1 = first_moment(u, grid)
    if np.linalg.norm(m1) <= tol:
        return CenteredResult(function=u, shift=np.zeros(u.d), recentred=True)
    if isinstance(u, GaussianProfile):
        moved = replace(u, mean=np.zeros(u.d))
        return CenteredResult(function=moved, shift=m1, recentred=True)
    if isinstance(u, Bump):
        moved = normalize(replace(u, center=np.zeros(u.d)), grid)
        return CenteredResult(function=moved, shift=m1, recentred=True)
    return CenteredResult(function=u, shift=m1, recentred=False)
