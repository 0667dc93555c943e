"""Entropy, Fisher information and deficit for normalized test functions.

For ||u||_{L2(dgamma)} = 1 the three core quantities are

    entropy  E(u) = int u^2 log u^2 dgamma          (0 log 0 = 0)
    fisher   I(u) = int |grad u|^2 dgamma
    deficit  delta(u) = I(u) - E(u) / 2 >= 0

together with the density moments used by the stability bounds.  u is
evaluated once per grid, on grid.points (the grid's nodes followed by its
embedded coarse partner's), and every integral and moment reads that array:
an integral through measure.embedded, a moment or the unit-norm check
through its first n_points entries, the fine nodes.  Every integral carries
an error estimate from the coarse rule with a rounding floor (see
measure.embedded), and the deficit error combines the two parts as
err_I + err_E / 2.  The entropy error is at least rounding_floor(||u||^2, n)
for the n grid points: h = u^2 is itself only known to a few ulps, and
d(h log h)/dh = 1 + log h, so at the Gaussian equality case (h = 1, E = 0)
the entropy is pure rounding.

report_rows takes k members with a leading member axis, h (k, N) and grad
(k, N, d), and writes their entropy and Fisher integrands in place as the 2k
rows of one array for one measure.embedded call (every reader here makes
one); report is its one-row case, bit for bit.  node_figures reads the
same rows on grid.nodes alone with one row_sums, embedded's fine sums,
for callers that need only the entropy and the Fisher information.

The module also checks two exact integral identities satisfied by smooth v
under the generator L = Laplacian - x . grad:

    int (Lv)^2          = int ||Hess v||_F^2 + int |grad v|^2
    int Lv |grad v|^2/v = -2 int Hess v : (grad v (x) grad v) / v
                          + int |grad v|^4 / v^2

and computes the pressure integrals for P = -log u^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import PositivityError
from .measure import QuadratureGrid, _check, embedded, rounding_floor, row_sums
from .functions import (
    SUPPORT_FLOOR,
    Envelope,
    Record,
    TestFunction,
    _moments,
    _require_unit_norm,
    _rowdot,
    _support,
    pruned_read,
)


def second_moment_floor(gap: float, d: int, mass: float) -> float:
    """Rounding floor of the gap A = sum_i w_i h_i (|x_i|^2 - d).

    The absolute terms sum to sum_i w_i h_i (|x_i|^2 + d) = A + 2 d mass with
    mass = sum_i w_i h_i = ||u||^2, so no extra pass over the grid is needed.
    """
    return rounding_floor(gap + 2.0 * d * mass)


def _xlogx(h: np.ndarray, out: np.ndarray) -> None:
    """h log h (0 log 0 = 0) into out: log only where h > 0, without masked copies."""
    out.fill(0.0)
    np.log(h, out=out, where=h > 0)
    out *= h


@dataclass(frozen=True, eq=False)
class FunctionalReport(Record):
    """Core functionals of one normalized test function on one grid."""

    d: int
    entropy: float
    fisher: float
    deficit: float
    ratio_q: float | None
    l2_norm: float
    first_moment: np.ndarray
    second_moment_gap: float
    entropy_error: float
    fisher_error: float
    quadrature_error: float


def deficit_and_ratio(entropy: float, fisher: float) -> tuple[float, float | None]:
    """The deficit I - E / 2 and the ratio Q = I / E (None unless E > 0)."""
    return fisher - 0.5 * entropy, fisher / entropy if entropy > 0 else None


def _integrand_rows(h: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The entropy and Fisher integrands of k members, h (k, n) and grad
    (k, n, d), as k entropy rows, then k Fisher rows, (2k, n)."""
    k = h.shape[0]
    rows = np.empty((2 * k,) + h.shape[1:])
    # the Fisher rows' terms go through the entropy rows first
    _rowdot(grad, grad, out=rows[k:], scratch=rows[:k])
    _xlogx(h, rows[:k])
    return rows


def report(u: TestFunction, grid: QuadratureGrid) -> FunctionalReport:
    """Evaluate entropy, Fisher information and deficit; u must be normalized.

    At d = 3 a u with an envelope is read on grid's pruned twin when what it
    leaves out of |h log h|, |grad u|^2 and the moments' h (|x|^2 + 3) is at
    most EPS each (functions.pruned_read); the entropy and the Fisher error
    then carry their part of it.
    """
    grid, (entropy_out, fisher_out, _) = pruned_read(
        u, grid, Envelope.entropy, Envelope.fisher, Envelope.moments
    )
    h, grad = u.density_and_gradient(grid.points)
    return report_rows(grid, h[None], grad[None], dropped=[(entropy_out, fisher_out)])[0]


def report_rows(
    grid: QuadratureGrid,
    h: np.ndarray,
    grad: np.ndarray,
    dropped: Sequence[tuple[float, float]] | None = None,
) -> list[FunctionalReport]:
    """The report of each of k normalized members, given its density h
    (k, N) and its gradient grad (k, N, d) on the N grid.points; every
    integral and moment is taken over all rows at once.  dropped holds, per
    member, what a pruned grid leaves out of the entropy and of the Fisher
    integral, added to their errors; None for nothing."""
    k, n = h.shape[0], grid.n_points
    fine_h = h[:, :n]
    norms = _require_unit_norm(grid, fine_h)
    m1, gap = _moments(grid, fine_h)
    integrals, errors = embedded(grid, _integrand_rows(h, grad))
    reports = []
    for i, (norm, gap_i) in enumerate(zip(norms, gap.tolist())):
        e_out, f_out = (0.0, 0.0) if dropped is None else dropped[i]
        e, f, f_err = integrals[i], integrals[k + i], errors[k + i] + f_out
        e_err = max(errors[i], rounding_floor(norm**2, n)) + e_out
        deficit, ratio_q = deficit_and_ratio(e, f)
        reports.append(
            FunctionalReport(
                d=grid.d,
                entropy=e,
                fisher=f,
                deficit=deficit,
                ratio_q=ratio_q,
                l2_norm=norm,
                first_moment=m1[i],
                second_moment_gap=gap_i,
                entropy_error=e_err,
                fisher_error=f_err,
                quadrature_error=f_err + 0.5 * e_err,
            )
        )
    return reports


def node_figures(grid: QuadratureGrid, h: np.ndarray, grad: np.ndarray) -> tuple[list[float], list[float]]:
    """The entropies and the Fisher informations of k normalized members,
    given h (k, n) and grad (k, n, d) on the n grid.nodes: report_rows'
    fine sums, bit for bit, with its unit-norm and finiteness checks."""
    k = h.shape[0]
    _require_unit_norm(grid, h)
    rows = _integrand_rows(h, grad)
    _check(rows, grid.nodes)
    sums = row_sums(rows, grid.weights).tolist()
    return sums[:k], sums[k:]


@dataclass(frozen=True)
class IdentityResult:
    name: str
    lhs: float
    rhs: float
    residual: float
    error: float

    @classmethod
    def of(cls, name: str, lhs: float, rhs: float, error: float) -> "IdentityResult":
        """The record of lhs = rhs, with residual lhs - rhs."""
        return cls(name, float(lhs), float(rhs), float(lhs - rhs), float(error))

    @property
    def relative_residual(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs), 1e-300)
        return abs(self.residual) / scale


_Terms = Callable[[np.ndarray], tuple[np.ndarray, ...]]


def _integrals(grid: QuadratureGrid, terms: _Terms) -> tuple[list[float], list[float]]:
    """embedded() of the integrands terms(x) returns, evaluated once on
    grid.points and stacked as rows."""
    return embedded(grid, np.stack(terms(grid.points)))


def _identity(name: str, grid: QuadratureGrid, terms: _Terms) -> IdentityResult:
    """lhs = rhs for terms(x) = (lhs integrand, rhs integrand)."""
    (lhs, rhs), (lhs_err, rhs_err) = _integrals(grid, terms)
    return IdentityResult.of(name, lhs, rhs, lhs_err + rhs_err)


def pinsker_gap(u: TestFunction, grid: QuadratureGrid) -> IdentityResult:
    """Margin of E(u) >= ||u^2 - 1||_{L1}^2 / 4 for normalized u.

    The entropy error has report's floor rounding_floor(||u||^2, n_points).
    """
    h = u.density(grid.points)
    (norm,) = _require_unit_norm(grid, h[None, : grid.n_points])
    rows = np.empty((2,) + h.shape)
    _xlogx(h, rows[0])
    np.abs(h - 1.0, out=rows[1])
    (entropy, tv), (ent_err, tv_err) = embedded(grid, rows)
    ent_err = max(ent_err, rounding_floor(norm**2, grid.n_points))
    rhs = 0.25 * tv**2
    return IdentityResult.of("pinsker_gap", entropy, rhs, ent_err + 0.5 * tv * tv_err)


def bochner_identity(v: TestFunction, grid: QuadratureGrid) -> IdentityResult:
    """int (Lv)^2 dgamma = int ||Hess v||_F^2 dgamma + int |grad v|^2 dgamma."""

    def terms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _, grad, hess = v.jet(x)
        lv = np.trace(hess, axis1=1, axis2=2) - _rowdot(x, grad)
        return lv**2, (hess**2).sum(axis=(1, 2)) + _rowdot(grad, grad)

    return _identity("bochner_identity", grid, terms)


def _positive_mask(x: np.ndarray, vals: np.ndarray) -> np.ndarray:
    if vals.min() < 0:
        i = int(vals.argmin())
        raise PositivityError(
            f"function is negative at node {x[i]} (value {vals[i]!r}); "
            "identity integrands divide by v"
        )
    return _support(vals, SUPPORT_FLOOR)


def fisher_flux_identity(v: TestFunction, grid: QuadratureGrid) -> IdentityResult:
    """int Lv |grad v|^2 / v = -2 int Hess v:(grad v (x) grad v)/v + int |grad v|^4/v^2.

    Integrands are restricted to the effective support v > 1e-12 max v; a
    negative value at any quadrature node raises PositivityError.
    """

    def terms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vals, grad, hess = v.jet(x)
        mask = _positive_mask(x, vals)
        lv = np.trace(hess, axis1=1, axis2=2) - _rowdot(x, grad)
        g2 = _rowdot(grad, grad)
        quad = (hess * grad[:, :, None] * grad[:, None, :]).sum(axis=(1, 2))
        lhs, rhs = np.zeros(x.shape[0]), np.zeros(x.shape[0])
        lhs[mask] = lv[mask] * g2[mask] / vals[mask]
        rhs[mask] = -2.0 * quad[mask] / vals[mask] + g2[mask] ** 2 / vals[mask] ** 2
        return lhs, rhs

    return _identity("fisher_flux_identity", grid, terms)


@dataclass(frozen=True)
class PressureData:
    """Integrals of the pressure P = -log u^2 against the density h = u^2.

    fisher4 is int |grad P|^2 h dgamma = 4 I(u); laplacian_p and hess_p2 are
    int h Lap P dgamma and int h ||Hess P||_F^2 dgamma.  The exact relation
    laplacian_p = fisher4 - second_moment_gap holds for normalized u, and for
    second_moment_gap <= 0 the chain

        fisher4 <= laplacian_p <= sqrt(d hess_p2)

    is the first stage of the curvature argument; moment_ok records whether
    the chain's moment hypothesis holds, up to the gap's rounding floor.
    """

    d: int
    fisher4: float
    laplacian_p: float
    hess_p2: float
    second_moment_gap: float
    moment_ok: bool
    quadrature_error: float


def pressure_integrals(u: TestFunction, grid: QuadratureGrid) -> PressureData:
    """PressureData of normalized u; h, its unit-norm check and the moment gap
    come from the fine nodes' share of the values the integrands read."""
    x = grid.points
    vals, grad, hess = u.jet(x)
    mask = _positive_mask(x, vals)
    gp = np.zeros_like(grad)
    gp[mask] = -2.0 * grad[mask] / vals[mask, None]
    hp = np.zeros_like(hess)
    gu = grad[mask] / vals[mask, None]
    hp[mask] = 2.0 * gu[:, :, None] * gu[:, None, :] - 2.0 * hess[mask] / vals[mask, None, None]
    h = vals**2
    hp2 = (hp**2).sum(axis=(1, 2))
    rows = np.stack([h * _rowdot(gp, gp), h * np.trace(hp, axis1=1, axis2=2), h * hp2])
    h = h[: grid.n_points]
    _require_unit_norm(grid, h[None])
    gap = float(_moments(grid, h)[1])
    (f4, lap, frob), (f4_err, lap_err, frob_err) = embedded(grid, rows)
    return PressureData(
        d=u.d,
        fisher4=f4,
        laplacian_p=lap,
        hess_p2=frob,
        second_moment_gap=gap,
        moment_ok=gap <= second_moment_floor(gap, u.d, 1.0),
        quadrature_error=f4_err + lap_err + frob_err,
    )
