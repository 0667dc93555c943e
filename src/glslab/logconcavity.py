"""Numerical certification that a density u^2 dgamma is log-concave.

Where {h > 0} is convex, log-concavity of h dgamma with h = u^2 is
equivalent to

    M(x) = I - Hess log h(x)  >=  0   wherever h > 0,

so the certifier samples M on the quadrature nodes plus a deterministic
low-discrepancy cloud in the box |x|_inf <= 6 (the unscrambled Halton
sequence, computed by radical inverse and kept read-only for reuse),
masks points with h <= 1e-10 max h, and inspects the smallest eigenvalue.
Masked probes are not examined, so neither the convexity of {h > 0} nor
the curvature where h is below the mask is checked.  One
density_and_hess_log call reads each probe once: it returns h on every
probe and Hess log h on the active ones only (one broadcast row where it
is constant), from which M is formed in place.  certify_along_flow forms
these arrays from the OU average its state reads, where it has one.  Verdicts:

    certified     min eig >= -tol        with tol = 1e-8 max(1, scale)
    refuted       min eig <  -10 tol
    inconclusive  in between, or every probe masked

where scale is the largest eigenvalue magnitude seen.  The inconclusive
band keeps borderline curvature from flipping with the probe set.

Only the smallest eigenvalue and the largest magnitude of each M are read.
At d = 1 they are the entry itself.  A 2 x 2 M = [[a, b], [b, c]] has the
eigenvalues mid -+ rad with mid = (a + c) / 2 and rad = hypot((a - c) / 2, b);
mid - rad and |mid| + rad are within a few ulps of the largest magnitude
from eigvalsh, and where b = 0 the certifier takes min(a, c) and
max(|a|, |c|), bit-identical to eigvalsh.  At d = 3 both come from
numpy's eigvalsh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .measure import QuadratureGrid
from .functions import SUPPORT_THRESHOLD, Record, TestFunction
from .ou_flow import FlowState, _evolve, _hess_log

PROBE_RADIUS = 6.0
BASE_TOLERANCE = 1e-8
HALTON_BASES = (2, 3, 5)


@dataclass(frozen=True, eq=False)
class LogConcavityCertificate(Record):
    status: str
    min_eigenvalue: float
    worst_point: np.ndarray
    n_probes: int
    n_active: int
    threshold: float
    tolerance: float

    @property
    def certified(self) -> bool:
        return self.status == "certified"


@lru_cache(maxsize=3)
def _probe_cloud(d: int, n: int) -> np.ndarray:
    """The first n points of the Halton sequence in bases 2, 3, 5, mapped to the box.

    Point i has coordinate sum_k digit_k(i) base^{-k-1} in each base, the
    radical inverse of i, summed digit by digit from the lowest.  The clouds
    of the last three (d, n) asked for are kept, enough for the default
    n = 512 d at d = 1, 2, 3; each is shared and read-only.
    """
    index = np.arange(n)
    cloud = np.zeros((n, d))
    for axis, base in enumerate(HALTON_BASES[:d]):
        q, scale = index.copy(), 1.0 / base
        while q.any():
            cloud[:, axis] += (q % base) * scale
            q //= base
            scale /= base
    cloud = (2.0 * PROBE_RADIUS) * cloud - PROBE_RADIUS
    cloud.flags.writeable = False
    return cloud


def _extreme_eigenvalues(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smallest eigenvalue and the largest |eigenvalue| of each symmetric
    row of m, shape (n, d, d): the entry itself at d = 1, the closed form at
    d = 2 and eigvalsh at d = 3."""
    d = m.shape[1]
    if d == 1:
        return m[:, 0, 0], np.abs(m[:, 0, 0])
    if d == 2:
        # [[a, b], [b, c]] has the eigenvalues mid -+ rad; a diagonal row
        # keeps a and c themselves, as eigvalsh does
        a, b, c = m[:, 0, 0], m[:, 1, 0], m[:, 1, 1]
        mid = 0.5 * (a + c)
        rad = np.hypot(0.5 * (a - c), b)
        diagonal = b == 0.0
        low = np.where(diagonal, np.minimum(a, c), mid - rad)
        top = np.where(diagonal, np.maximum(np.abs(a), np.abs(c)), np.abs(mid) + rad)
        return low, top
    eigs = np.linalg.eigvalsh(m)
    return eigs[:, 0], np.abs(eigs).max(axis=1)


def _cloud(d: int, n_probes: int | None) -> np.ndarray:
    """The probe cloud of n_probes points, 512 d by default."""
    if n_probes is not None and n_probes < 0:
        raise DomainError(f"number of probes must be nonnegative, got {n_probes}")
    return _probe_cloud(d, 512 * d if n_probes is None else n_probes)


def certify(
    u: TestFunction, grid: QuadratureGrid, n_probes: int | None = None
) -> LogConcavityCertificate:
    probes = np.vstack([grid.nodes, _cloud(u.d, n_probes)])
    return _certificate(probes, *u.density_and_hess_log(probes))


def _certificate(
    probes: np.ndarray, h: np.ndarray, active: np.ndarray, hess_log: np.ndarray
) -> LogConcavityCertificate:
    """The verdict on probes from density_and_hess_log there; writes into hess_log."""
    d = probes.shape[1]
    status, min_eig, tol = "inconclusive", float("nan"), BASE_TOLERANCE
    worst_point = np.full(d, float("nan"))
    if active.any():
        # M = I - Hess log h, formed in place as -Hess log h + I; on the one row
        # of a constant Hess log h the argmin is the first active probe
        curv = np.negative(hess_log, out=hess_log)
        for i in range(d):
            curv[:, i, i] += 1.0
        mins, magnitudes = _extreme_eigenvalues(curv)
        tol = BASE_TOLERANCE * max(1.0, float(magnitudes.max()))
        worst = int(mins.argmin())
        min_eig = float(mins[worst])
        # the worst-th active probe; the first one without an index array
        index = np.flatnonzero(active)[worst] if worst else active.argmax()
        worst_point = probes[index].copy()
        if min_eig >= -tol:
            status = "certified"
        elif min_eig < -10.0 * tol:
            status = "refuted"
    return LogConcavityCertificate(
        status=status,
        min_eigenvalue=min_eig,
        worst_point=worst_point,
        n_probes=probes.shape[0],
        n_active=int(active.sum()),
        threshold=SUPPORT_THRESHOLD * max(float(h.max()), 1e-300),
        tolerance=tol,
    )


def certify_along_flow(
    u0: TestFunction,
    times: np.ndarray,
    grid: QuadratureGrid,
    n_probes: int | None = None,
) -> list[tuple[FlowState, LogConcavityCertificate]]:
    """Certificates for the evolved density at each time; t = 0 is allowed.
    One _evolve call evolves every time.  Where it takes the exact path,
    one order-2 average on grid.points and the probe cloud per batch of
    times gives each state and its certificate (the node and cloud rows of
    its average); elsewhere a time's state is certified as certify does."""
    x = np.vstack([grid.points, _cloud(u0.d, n_probes)])
    rows = np.r_[: grid.n_points, grid.points.shape[0] : x.shape[0]]

    def read(avg):
        return _certificate(x[rows], *_hess_log(*(a[rows] for a in avg)))

    return [
        (state, certify(state.v, grid, n_probes=n_probes) if cert is None else cert)
        for state, cert in _evolve(u0, times, grid, x, 2, read)
    ]
