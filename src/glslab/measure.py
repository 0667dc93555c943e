"""Gauss-Hermite quadrature for the standard Gaussian measure.

All integrals in this package are taken against

    dgamma(x) = (2 pi)^{-d/2} exp(-|x|^2 / 2) dx,   x in R^d,  d <= 3.

The one-dimensional rule is the Golub-Welsch construction for the
probabilists' Hermite polynomials He_n: the Jacobi matrix of the recurrence
He_{n+1}(x) = x He_n(x) - n He_{n-1}(x) is symmetric tridiagonal with zero
diagonal and off-diagonal sqrt(k); its eigenvalues are the nodes and the
squared first eigenvector components are the weights.  Multi-dimensional
grids are full tensor products.

An order-n rule integrates polynomials of degree <= 2n - 1 per axis exactly.
Error estimates are embedded, |result(n) - result(ceil(3n/4))|, with a
rounding floor of ROUNDING_ULPS ulps of sum_i w_i |f(x_i)|.  The floor keeps
the estimate above 0 when the fine and the coarse rule see the same rounding
(a constant integrand, say), so a margin of a few ulps is never judged
against an error of exactly 0.  It is a fixed multiple of eps, not
n_points x eps, which would widen every gate at d = 3 by orders of
magnitude.  At the sigma^2 = 1 Gaussian (u = 1 after normalizing) the
largest entropy residual measured over d = 1..3 and orders 2..256 was 4 ulps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import CapacityError, IntegrationError

MAX_DIM = 3
MAX_ORDER = 256
ROUNDING_ULPS = 8
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class GaussianMeasureSpec:
    """Standard Gaussian measure on R^d, 1 <= d <= 3."""

    d: int

    def __post_init__(self) -> None:
        if not (1 <= self.d <= MAX_DIM):
            raise CapacityError(f"dimension {self.d} outside supported range 1..{MAX_DIM}")


def gauss_hermite_1d(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-n rule for dgamma on R.

    Weights are normalized to sum to one (probability weights).  Nodes and
    weights are symmetrized so odd monomials integrate to exactly zero up
    to rounding.
    """
    if order == 1:
        return np.zeros(1), np.ones(1)
    nodes, vectors = eigh_tridiagonal(np.zeros(order), np.sqrt(np.arange(1.0, order)))
    weights = vectors[0] ** 2
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    weights = weights / weights.sum()
    return nodes, weights


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor Gauss-Hermite grid: ``nodes`` (n_points, d), ``weights`` (n_points,)."""

    d: int
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n_points(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def coarse(self) -> "QuadratureGrid":
        """Embedded lower-order partner used for error estimates, built once per grid."""
        return build_grid(GaussianMeasureSpec(self.d), _coarse_order(self.order))


def _coarse_order(order: int) -> int:
    if order == 1:
        return 1
    return min(order - 1, -(-3 * order // 4))


@lru_cache(maxsize=64)
def _tensor_grid(d: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = gauss_hermite_1d(order)
    if d == 1:
        return x[:, None], w
    axes = np.meshgrid(*([x] * d), indexing="ij")
    nodes = np.stack([a.ravel() for a in axes], axis=-1)
    weights = w
    for _ in range(d - 1):
        weights = np.multiply.outer(weights, w)
    return nodes, weights.ravel()


def build_grid(spec: GaussianMeasureSpec, order: int) -> QuadratureGrid:
    """Construct the tensor rule of the given per-axis order.

    Rejects d > 3 and order > 256 (memory guard).  Order 1 is the single
    node at the origin with weight one.
    """
    if not (1 <= order <= MAX_ORDER):
        raise CapacityError(f"order {order} outside supported range 1..{MAX_ORDER}")
    nodes, weights = _tensor_grid(spec.d, order)
    return QuadratureGrid(d=spec.d, order=order, nodes=nodes, weights=weights)


def _checked(grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_points,):
        raise IntegrationError(
            f"integrand returned shape {values.shape}, expected ({grid.n_points},)"
        )
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise IntegrationError(
            f"non-finite integrand value {values[i]!r} at node {i}, x = {grid.nodes[i]}"
        )
    return values


def rounding_floor(scale: float) -> float:
    """ROUNDING_ULPS ulps of ``scale``: the least error claimed for a sum of that size."""
    return ROUNDING_ULPS * EPS * scale


def integrate(grid: QuadratureGrid, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of f against dgamma.  f maps (n, d) arrays to (n,) arrays."""
    return float(grid.weights @ _checked(grid, f(grid.nodes)))


def embedded(
    grid: QuadratureGrid, fine_values: np.ndarray, coarse_values: np.ndarray
) -> tuple[float, float]:
    """Integral plus its error estimate max(|I(n) - I(ceil(3n/4))|, floor).

    fine_values and coarse_values are the integrand at grid.nodes and at
    grid.coarse.nodes.  The floor is rounding_floor(sum_i w_i |f(x_i)|) over
    the fine values; it is never 0 unless f vanishes on the grid.
    """
    coarse_grid = grid.coarse
    values = _checked(grid, fine_values)
    fine = float(grid.weights @ values)
    coarse = float(coarse_grid.weights @ _checked(coarse_grid, coarse_values))
    floor = rounding_floor(float(grid.weights @ np.abs(values)))
    return fine, max(abs(fine - coarse), floor)


def integrate_with_error(
    grid: QuadratureGrid, f: Callable[[np.ndarray], np.ndarray]
) -> tuple[float, float]:
    """embedded() of f on the grid and its coarse partner."""
    return embedded(grid, f(grid.nodes), f(grid.coarse.nodes))
