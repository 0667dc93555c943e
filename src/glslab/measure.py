"""Gauss-Hermite quadrature for the standard Gaussian measure.

All integrals in this package are taken against

    dgamma(x) = (2 pi)^{-d/2} exp(-|x|^2 / 2) dx,   x in R^d,  d <= 3.

The one-dimensional rule is numpy's hermegauss for the probabilists'
Hermite polynomials He_n, rescaled to probability weights.  Its nodes are
eigenvalues of the companion matrix polished by one Newton step, and its
weights come from 1 / He_{n-1}(x_i)^2, so they are accurate relative to
their own size down to the far tail (3e-211 at order 256), where squared
Golub-Welsch eigenvector components are only accurate to about eps and
underflow to 0.  Multi-dimensional rules are tensor products
(tensor_rule), with an order of their own on each axis; a QuadratureGrid
(build_grid) has one order on every axis, so it has an embedded coarse
partner.  A grid holds its nodes and its partner's in one array,
grid.points, so that an integrand is evaluated once per grid, on
grid.points, and embedded takes the fine and the coarse sum from the two
slices of that one array of values.  embedded is the one integral reader
with an error: it takes k integrands as the rows of one (k, N) array and
sums each row with one dot product (row_sums), bit for bit the sum of that
row alone, so every reader writes its integrands as rows and makes one call.

A d = 3 grid has a pruned twin (grid.pruned), built on first use and not
with the grid: the nodes of each of its two rules whose weight is at least
PRUNE_CUT = 1e-30 x that rule's largest, in the grid's order and laid out
as grid.points, with the nodes it leaves out summarized as N_SHELLS = 64
equal-count shells in |x|, each the largest |x| and the summed weight of
its nodes (Jaeckel 2005, "A note on multivariate Gauss-Hermite
quadrature").  At order 64 it keeps 95,800 of 262,144 fine and 57,856 of
110,592 coarse nodes; at order 16 it drops none and is the grid itself.
For an integrand with |f(x)| <= F(|x|), F nondecreasing, dropped_bound
sums weight x F(largest |x|) over the shells of both rules, at least what
the twin leaves out of the fine and of the coarse sum.  F comes from the
family's envelope, log h <= l0 + l1 |x| and |grad log u| <= g0 + g1 |x|
(functions.Envelope; tilts and Gaussian profiles state one).  normalize,
report and the tail weight read the twin when u states an envelope and
each integrand's bound is at most EPS x that integral's scale
(functions.pruned_read), and add the bound to the error they report;
otherwise they read the full grid as before.  Every other reader keeps
the full grid: the certifier's probes, the identities, the pressure,
Pinsker, evolve's inner rule and mass, and search batches, so a d = 3 search
batch's best_value may differ in the last bits from report of its best
member.  A pruned report sums 95,800 terms, not 262,144, so its rounding
floor is 17 ulps instead of 18.  The cut and the shell count are module
constants, not options.

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
(orders 2..256 each), and 12 ulps at d = 3 (orders 2..96 and 128) on
the full grids and 10 on their pruned twins, the rounding of summing up to
10^6 tensor weights: above 8 ulps, below the 17 to 21 ulps of
log2 n_points there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import CapacityError, IntegrationError

MAX_DIM = 3
MAX_ORDER = 256
ROUNDING_ULPS = 8
EPS = float(np.finfo(float).eps)
# a pruned rule keeps the nodes of weight >= PRUNE_CUT x the rule's largest
PRUNE_CUT = 1e-30
# and summarizes the others as N_SHELLS equal-count shells in |x|
N_SHELLS = 64


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
class Shells:
    """The nodes a pruned rule leaves out, as equal-count shells in |x|:
    the largest |x| (radius) and the summed weight of each shell."""

    radius: np.ndarray
    weight: np.ndarray

    def bound(self, envelope: Callable[[np.ndarray], np.ndarray]) -> float:
        """sum_s weight_s envelope(radius_s): at least sum_i w_i |f(x_i)| over
        the left-out nodes for |f(x)| <= envelope(|x|), envelope nondecreasing.
        A shell of weight 0 adds 0 (its nodes add 0 x f to the full sum).
        Where the envelope is tight (a constant h) the shell sum is the nodes'
        own sum in another order, so it is rounded up by its rounding_floor."""
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self.weight * envelope(self.radius)
        total = float(np.where(self.weight > 0, terms, 0.0).sum())
        return total * (1.0 + rounding_floor(1.0, self.weight.size))


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor Gauss-Hermite grid of one order on every axis.

    ``points`` (n_points + n_coarse, d) holds the grid's nodes and then those
    of its embedded coarse partner, so that an integrand is evaluated once
    per grid; ``nodes`` and ``coarse.nodes`` are row slices of it, and
    ``weights`` (n_points,) belongs to the nodes.  The partner of a grid is
    itself a QuadratureGrid whose points are its nodes, with no partner of
    its own (coarse = None).  The rules of a pruned twin (``pruned``) hold
    the Shells of the nodes they leave out in ``dropped``; a full rule, None.
    """

    d: int
    order: int
    points: np.ndarray
    weights: np.ndarray
    coarse: "QuadratureGrid | None" = None
    dropped: Shells | None = None

    @property
    def n_points(self) -> int:
        return self.weights.shape[0]

    @property
    def nodes(self) -> np.ndarray:
        return self.points[: self.weights.shape[0]]

    @cached_property
    def pruned(self) -> "QuadratureGrid":
        """The grid's pruned twin: at d = 3 the nodes of each rule with weight
        >= PRUNE_CUT x that rule's largest, built on first use and kept with
        the grid; the grid itself where no node falls below the cut, and at
        d < 3."""
        if self.d < MAX_DIM or self.coarse is None:
            return self
        rules = (self, self.coarse)
        keeps = [g.weights >= PRUNE_CUT * g.weights.max() for g in rules]
        if all(keep.all() for keep in keeps):
            return self
        # the kept rows go straight into the one points array, without copies
        n = int(keeps[0].sum())
        points = np.empty((n + int(keeps[1].sum()), self.d))
        for g, keep, out in zip(rules, keeps, (points[:n], points[n:])):
            np.compress(keep, g.nodes, axis=0, out=out)
        weights, coarse_weights = (g.weights[keep] for g, keep in zip(rules, keeps))
        for a in (points, weights, coarse_weights):
            a.flags.writeable = False
        dropped, dropped_c = (_shells(g, keep) for g, keep in zip(rules, keeps))
        coarse = replace(self.coarse, points=points[n:], weights=coarse_weights, dropped=dropped_c)
        return replace(self, points=points, weights=weights, coarse=coarse, dropped=dropped)


def _coarse_order(order: int) -> int:
    if order == 1:
        return 1
    return min(order - 1, -(-3 * order // 4))


def _tensor_product(
    rules: dict[int, tuple[np.ndarray, np.ndarray]], orders: tuple[int, ...], nodes: np.ndarray
) -> np.ndarray:
    """Write the nodes of the tensor product of rules[orders[i]] along axis i
    into nodes, shape (prod(orders), d), in C order of the axes (the last
    axis varies fastest); return its weights."""
    d = len(orders)
    # nodes is C-contiguous, so this is a view and the writes land in nodes
    per_axis = nodes.reshape(orders + (d,))
    for axis, n in enumerate(orders):
        shape = [1] * d
        shape[axis] = n
        per_axis[..., axis] = rules[n][0].reshape(shape)
    weights = rules[orders[0]][1]
    for n in orders[1:]:
        weights = np.multiply.outer(weights, rules[n][1])
    return weights.ravel()


@lru_cache(maxsize=64)
def tensor_rule(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (n_points, d) and weights (n_points,) of the tensor product of
    the order-orders[i] rules along axis i.

    An average over it is exact for polynomials of degree <= 2 orders[i] - 1
    along axis i.  Cached: the arrays are shared between callers.
    """
    rules = {n: gauss_hermite_1d(n) for n in set(orders)}
    nodes = np.empty((math.prod(orders), len(orders)))
    weights = _tensor_product(rules, orders, nodes)
    return nodes, weights


@lru_cache(maxsize=16)
def _grid(d: int, order: int) -> QuadratureGrid:
    coarse_order = _coarse_order(order)
    rules = {n: gauss_hermite_1d(n) for n in {order, coarse_order}}
    n, n_c = order**d, coarse_order**d
    points = np.empty((n + n_c, d))
    weights = _tensor_product(rules, (order,) * d, points[:n])
    coarse_weights = _tensor_product(rules, (coarse_order,) * d, points[n:])
    for a in (points, weights, coarse_weights):
        a.flags.writeable = False
    coarse = QuadratureGrid(d=d, order=coarse_order, points=points[n:], weights=coarse_weights)
    return QuadratureGrid(d=d, order=order, points=points, weights=weights, coarse=coarse)


def build_grid(spec: GaussianMeasureSpec, order: int) -> QuadratureGrid:
    """Construct the tensor rule of the given per-axis order together with
    its embedded partner of order ceil(3 order / 4) (order 1: itself).

    Rejects d > 3 and order > 256 (memory guard).  Order 1 is the single
    node at the origin with weight one.  Cached: a grid and its arrays are
    shared between callers and read-only.
    """
    if not (1 <= order <= MAX_ORDER):
        raise CapacityError(f"order {order} outside supported range 1..{MAX_ORDER}")
    return _grid(spec.d, order)


def _shells(rule: QuadratureGrid, keep: np.ndarray) -> Shells | None:
    """The Shells of the nodes of rule that keep leaves out, None for none."""
    out = ~keep
    if not out.any():
        return None
    radius = np.einsum("ij,ij->i", rule.nodes, rule.nodes)[out]
    np.sqrt(radius, out=radius)
    by_radius = np.argsort(radius, kind="stable")
    radius, weight = radius[by_radius], rule.weights[out][by_radius]
    # equal-count shells: N_SHELLS consecutive runs of the nodes sorted by |x|
    starts = np.linspace(0, radius.size, min(N_SHELLS, radius.size) + 1).astype(int)
    return Shells(radius=radius[starts[1:] - 1], weight=np.add.reduceat(weight, starts[:-1]))


def dropped_bound(grid: QuadratureGrid, envelope: Callable[[np.ndarray], np.ndarray]) -> float:
    """The Shells bound of both of grid's rules on what they leave out of an
    integrand with |f(x)| <= envelope(|x|); 0.0 on a full grid."""
    rules = (grid, grid.coarse)
    return sum((g.dropped.bound(envelope) for g in rules if g.dropped is not None), 0.0)


def rounding_floor(scale, n_points: int = 1):
    """max(ROUNDING_ULPS, ceil(log2 n_points)) ulps of ``scale``: the least
    error claimed for a sum of n_points terms whose absolute values sum to
    scale, a float or an array of them."""
    return max(ROUNDING_ULPS, math.ceil(math.log2(n_points))) * EPS * scale


def integrate(grid: QuadratureGrid, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of f against dgamma.  f maps (n, d) arrays to (n,) arrays."""
    values = _one_integrand(f, grid.nodes)
    _check(values, grid.nodes)
    return float(grid.weights @ values[0])


def _one_integrand(f: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    """f on points as one row, (1, n); IntegrationError unless f returns (n,)."""
    values = np.asarray(f(points), dtype=float)
    if values.shape != points.shape[:1]:
        raise IntegrationError(
            f"integrand returned shape {values.shape}, expected ({points.shape[0]},)"
        )
    return values[None]


def _check(values: np.ndarray, points: np.ndarray) -> None:
    """IntegrationError unless values holds k rows of one finite value per
    point, (k, n)."""
    if values.ndim != 2 or values.shape[1] != points.shape[0]:
        raise IntegrationError(
            f"integrand returned shape {values.shape}, expected (k, {points.shape[0]})"
        )
    if not np.isfinite(values).all():
        r, i = np.argwhere(~np.isfinite(values))[0]
        raise IntegrationError(
            f"non-finite integrand value {values[r, i]!r} at point {i}, x = {points[i]}"
        )


def row_sums(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """weights @ row for each row of values (..., n), as one dot product per
    row: bit for bit the 1-d weights @ row.  values @ weights would run one
    matrix-vector product, which rounds differently."""
    return np.matmul(values[..., None, :], weights)[..., 0]


def embedded(grid: QuadratureGrid, values: np.ndarray) -> tuple[list[float], list[float]]:
    """The integrals of k integrands, one row each of values (k, N) on the N
    grid.points, and their error estimates max(|I(n) - I(ceil(3n/4))|, floor).

    The fine sum of a row reads its first n_points values, the coarse sum
    the rest.  The floor is rounding_floor(sum_i w_i |f(x_i)|, n_points) over
    the fine values; it is never 0 unless f vanishes on the grid.  Each
    row's figures are bit for bit those of that row alone.
    """
    coarse_grid = grid.coarse
    if coarse_grid is None:
        raise IntegrationError(f"the order-{grid.order} grid has no embedded partner")
    values = np.asarray(values, dtype=float)
    _check(values, grid.points)
    n = grid.n_points
    fine_values = values[:, :n]
    fine = row_sums(fine_values, grid.weights)
    coarse = row_sums(values[:, n:], coarse_grid.weights)
    # |values| one row at a time: a (k, n) copy would raise a d = 3 report's peak
    scales = [grid.weights @ np.abs(row) for row in fine_values]
    errors = np.maximum(np.abs(fine - coarse), rounding_floor(np.array(scales), n))
    return fine.tolist(), errors.tolist()


def integrate_with_error(
    grid: QuadratureGrid, f: Callable[[np.ndarray], np.ndarray]
) -> tuple[float, float]:
    """embedded() of f, evaluated once on grid.points."""
    (value,), (error,) = embedded(grid, _one_integrand(f, grid.points))
    return value, error
