"""Numerical certification that a density u^2 dgamma is log-concave.

Log-concavity of h dgamma with h = u^2 is equivalent to

    M(x) = I - Hess log h(x)  >=  0   wherever h > 0,

so the certifier samples M on the quadrature nodes plus a deterministic
low-discrepancy cloud in the box |x|_inf <= 6 (the unscrambled Halton
sequence, computed by radical inverse and kept read-only for reuse),
masks points with h <= 1e-10 max h, and inspects the smallest eigenvalue.
One density_and_hess_log call reads each probe once: it returns h on every
probe and Hess log h on the active ones only, from which M is formed in
place.  Verdicts:

    certified     min eig >= -tol        with tol = 1e-8 max(1, scale)
    refuted       min eig <  -10 tol
    inconclusive  in between, or every probe masked

where scale is the largest eigenvalue magnitude seen.  The inconclusive
band keeps borderline curvature from flipping with the probe set.

Only the smallest eigenvalue and the largest magnitude of each M are read.
Where M is exactly diagonal (every off-diagonal entry 0, as eigvalsh reads
the lower triangle) both are read off its diagonal, which is bit-identical
to eigvalsh; that covers every row at d = 1 (taken as the entry itself)
and every row of a tilt or a Gaussian profile, whose Hess log h is
constant and diagonal.  The other rows of a 2 x 2 M = [[a, b], [b, c]]
have the eigenvalues mid -+ rad with mid = (a + c) / 2 and
rad = hypot((a - c) / 2, b), so the smallest is mid - rad and the largest
magnitude |mid| + rad, each within a few ulps of the largest magnitude
from eigvalsh; at d = 3 they go to numpy's eigvalsh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .measure import QuadratureGrid
from .functions import SUPPORT_THRESHOLD, Record, TestFunction
from .ou_flow import FlowState, evolve

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
    row of m, shape (n, d, d): the entry itself at d = 1, read off the
    diagonal where a row is diagonal, in closed form for the other rows at
    d = 2 and from eigvalsh for those at d = 3."""
    d = m.shape[1]
    if d == 1:
        return m[:, 0, 0], np.abs(m[:, 0, 0])
    # entry by entry along the rows: min, max and the != 0 test are exact
    low, top = m[:, 0, 0].copy(), np.abs(m[:, 0, 0])
    full = np.zeros(m.shape[0], dtype=bool)
    for i in range(1, d):
        np.minimum(low, m[:, i, i], out=low)
        np.maximum(top, np.abs(m[:, i, i]), out=top)
        for j in range(i):
            full |= m[:, i, j] != 0.0
    if not full.any():
        return low, top
    rows = m[full]
    if d == 2:
        # [[a, b], [b, c]] has the eigenvalues mid -+ rad
        a, b, c = rows[:, 0, 0], rows[:, 1, 0], rows[:, 1, 1]
        mid = 0.5 * (a + c)
        rad = np.hypot(0.5 * (a - c), b)
        low[full], top[full] = mid - rad, np.abs(mid) + rad
    else:
        eigs = np.linalg.eigvalsh(rows)
        low[full], top[full] = eigs[:, 0], np.abs(eigs).max(axis=1)
    return low, top


def certify(
    u: TestFunction, grid: QuadratureGrid, n_probes: int | None = None
) -> LogConcavityCertificate:
    d = u.d
    if n_probes is None:
        n_probes = 512 * d
    elif n_probes < 0:
        raise DomainError(f"number of probes must be nonnegative, got {n_probes}")
    probes = np.vstack([grid.nodes, _probe_cloud(d, n_probes)])
    h, active, hess_log = u.density_and_hess_log(probes)
    threshold = SUPPORT_THRESHOLD * max(float(h.max()), 1e-300)
    if not active.any():
        return LogConcavityCertificate(
            status="inconclusive",
            min_eigenvalue=float("nan"),
            worst_point=np.full(d, float("nan")),
            n_probes=probes.shape[0],
            n_active=0,
            threshold=threshold,
            tolerance=BASE_TOLERANCE,
        )
    pts = probes[active]
    # M = I - Hess log h, formed in place as -Hess log h + I
    curv = np.negative(hess_log, out=hess_log)
    for i in range(d):
        curv[:, i, i] += 1.0
    mins, magnitudes = _extreme_eigenvalues(curv)
    scale = max(1.0, float(magnitudes.max()))
    tol = BASE_TOLERANCE * scale
    worst = int(mins.argmin())
    min_eig = float(mins[worst])
    if min_eig >= -tol:
        status = "certified"
    elif min_eig < -10.0 * tol:
        status = "refuted"
    else:
        status = "inconclusive"
    return LogConcavityCertificate(
        status=status,
        min_eigenvalue=min_eig,
        worst_point=pts[worst].copy(),
        n_probes=probes.shape[0],
        n_active=int(active.sum()),
        threshold=threshold,
        tolerance=tol,
    )


def certify_along_flow(
    u0: TestFunction,
    times: np.ndarray,
    grid: QuadratureGrid,
    n_probes: int | None = None,
) -> list[tuple[FlowState, LogConcavityCertificate]]:
    """Certificates for the evolved density at each time; t = 0 is allowed."""
    out = []
    for t in np.asarray(times, dtype=float):
        state = evolve(u0, float(t), grid)
        out.append((state, certify(state.v, grid, n_probes=n_probes)))
    return out
