"""Gauss-Hermite quadrature for the standard Gaussian measure.

All integrals in this package are taken against

    dgamma(x) = (2 pi)^{-d/2} exp(-|x|^2 / 2) dx,   x in R^d,  d <= 3.

The one-dimensional rule is numpy's hermegauss for the probabilists'
Hermite polynomials He_n, rescaled to probability weights.  Its nodes are
eigenvalues of the companion matrix polished by one Newton step, and its
weights come from 1 / He_{n-1}(x_i)^2, so they are accurate relative to
their own size down to the far tail (3e-211 at order 256), where squared
Golub-Welsch eigenvector components are only accurate to about eps and
underflow to 0.  Multi-dimensional rules are full tensor products
(tensor_rule), with an order of their own on each axis; a QuadratureGrid
(build_grid) has one order on every axis, so it has an embedded coarse
partner.

An order-n rule integrates polynomials of degree <= 2n - 1 per axis exactly.
Error estimates are embedded, |result(n) - result(ceil(3n/4))|, with a
rounding floor of max(ROUNDING_ULPS, ceil(log2 n_points)) ulps of
sum_i w_i |f(x_i)|, the pairwise-summation bound for n_points terms.  The
floor keeps the estimate above 0 when the fine and the coarse rule see the
same rounding (a constant integrand, say), so a margin of a few ulps is
never judged against an error of exactly 0.  It grows like log2 n_points,
not n_points x eps, which would widen every gate at d = 3 by orders of
magnitude.  At the sigma^2 = 1 Gaussian (u = 1 after normalizing) the
largest entropy residual measured was 2 ulps at d = 1 and 4 ulps at d = 2
(orders 2..256 each), and 12 ulps at d = 3 (orders 2..96 and 128), the
rounding of summing up to 10^6 tensor weights: above 8 ulps, below the
20 ulps of log2 n_points there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

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

    numpy's hermegauss rule, with weights rescaled to sum to one
    (probability weights).  Its nodes and weights are symmetric, so odd
    monomials integrate to zero up to rounding.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    return nodes, weights / weights.sum()


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor Gauss-Hermite grid of one order on every axis: ``nodes``
    (n_points, d), ``weights`` (n_points,)."""

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
def tensor_rule(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (n_points, d) and weights (n_points,) of the tensor product of
    the order-orders[i] rules along axis i.

    An average over it is exact for polynomials of degree <= 2 orders[i] - 1
    along axis i.  Cached: the arrays are shared between callers.
    """
    rules = {n: gauss_hermite_1d(n) for n in set(orders)}
    if len(orders) == 1:
        x, w = rules[orders[0]]
        return x[:, None], w
    axes = np.meshgrid(*(rules[n][0] for n in orders), indexing="ij")
    nodes = np.stack([a.ravel() for a in axes], axis=-1)
    weights = rules[orders[0]][1]
    for n in orders[1:]:
        weights = np.multiply.outer(weights, rules[n][1])
    return nodes, weights.ravel()


def build_grid(spec: GaussianMeasureSpec, order: int) -> QuadratureGrid:
    """Construct the tensor rule of the given per-axis order.

    Rejects d > 3 and order > 256 (memory guard).  Order 1 is the single
    node at the origin with weight one.
    """
    if not (1 <= order <= MAX_ORDER):
        raise CapacityError(f"order {order} outside supported range 1..{MAX_ORDER}")
    nodes, weights = tensor_rule((order,) * spec.d)
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


def rounding_floor(scale: float, n_points: int = 1) -> float:
    """max(ROUNDING_ULPS, ceil(log2 n_points)) ulps of ``scale``: the least
    error claimed for a sum of n_points terms whose absolute values sum to scale."""
    return max(ROUNDING_ULPS, math.ceil(math.log2(n_points))) * EPS * scale


def integrate(grid: QuadratureGrid, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of f against dgamma.  f maps (n, d) arrays to (n,) arrays."""
    return float(grid.weights @ _checked(grid, f(grid.nodes)))


def embedded(
    grid: QuadratureGrid, fine_values: np.ndarray, coarse_values: np.ndarray
) -> tuple[float, float]:
    """Integral plus its error estimate max(|I(n) - I(ceil(3n/4))|, floor).

    fine_values and coarse_values are the integrand at grid.nodes and at
    grid.coarse.nodes.  The floor is rounding_floor(sum_i w_i |f(x_i)|, n_points)
    over the fine values; it is never 0 unless f vanishes on the grid.
    """
    coarse_grid = grid.coarse
    values = _checked(grid, fine_values)
    fine = float(grid.weights @ values)
    coarse = float(coarse_grid.weights @ _checked(coarse_grid, coarse_values))
    floor = rounding_floor(float(grid.weights @ np.abs(values)), grid.n_points)
    return fine, max(abs(fine - coarse), floor)


def integrate_with_error(
    grid: QuadratureGrid, f: Callable[[np.ndarray], np.ndarray]
) -> tuple[float, float]:
    """embedded() of f on the grid and its coarse partner."""
    return embedded(grid, f(grid.nodes), f(grid.coarse.nodes))
