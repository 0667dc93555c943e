"""Exact Gaussian averages of polynomials over a window: the OU averages of
the d = 1 bump families.

Along the Ornstein-Uhlenbeck flow, h0 = u^2 is averaged as

    P_t h0(x) = int h0(e^{-t} x + s y) dgamma(y),   s = sqrt(1 - e^{-2t}).

For a d = 1 bump of radius R and center c, h0 is a polynomial p(w) in
w = (z - c) / R on the window |w| < 1 and 0 outside, so P_t h0 and its
derivatives are finite sums of truncated Gaussian moments (Johnson, Kotz
and Balakrishnan, vol. 1, ch. 13).  window_average evaluates them without
the cancellation of the plain moment sum in the tails, where the
log-concavity certifier still reads h down to 1e-10 of its maximum.
Where the lobes of a two_bumps overlap, the cross term of u^2 is one more
such polynomial; window_jets builds the table window_average reads.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_DEGREE = 8
_POWERS = range(_DEGREE + 1)
# coefficients at 0 times _SHIFT[i] are the Taylor coefficients at w = 0, 1, -1
# (i = 0, 1, 2): entry (j, k) is C(j, k) a^(j - k), which is 0 for k > j
_SHIFT = np.array(
    [[[math.comb(j, k) * a ** max(j - k, 0) for k in _POWERS] for j in _POWERS] for a in (0, 1, -1)],
    dtype=float,
)


def window_jets(coeffs) -> np.ndarray:
    """The (order, point, coefficient) table window_average reads for the
    polynomial p(w) of degree <= 8 with coefficients coeffs, lowest first:
    the Taylor coefficients of p, p' and p'' at w = 0, 1 and -1."""
    derivs = np.zeros((3, _DEGREE + 1))
    for order in range(3):
        c = np.polynomial.polynomial.polyder(coeffs, order)
        derivs[order, : c.size] = c
    return np.tensordot(derivs, _SHIFT, axes=([1], [1]))


# the windows (1 - w^2)^2 (key 2: a bump) and (1 - w^2)^4 (key 4: its square)
_BUMP = np.polynomial.polynomial.polypow([1.0, 0.0, -1.0], 2)
JETS = {2: window_jets(_BUMP), 4: window_jets(np.polynomial.polynomial.polymul(_BUMP, _BUMP))}

# U_k(lam) below: forward recursion up to lam = _FORWARD_MAX, beyond it the
# continued fraction from _FRACTION_DEPTH terms deeper; both keep U_0..U_8
# within 1e-11 relative on [0, 8] against scipy's adaptive quadrature
# (largest 6.9e-12, U_8 at lam = 2.22; a split at 2.5 lets the recursion
# reach 1.8e-11 at lam = 2.46).  Beyond _LAM_MAX every U_k underflows to 0.
_FORWARD_MAX = 2.3
_FRACTION_DEPTH = 32
_LAM_MAX = 40.0


def _upper_moments(lam: np.ndarray) -> np.ndarray:
    """U_k(lam) = int_lam^inf (y - lam)^k dgamma(y) for k = 0..8 and lam >= 0; shape (9, n).

    U_0 is the normal tail, U_1 = phi(lam) - lam U_0 and U_{k+1} = k U_{k-1} -
    lam U_k.  That forward recursion loses about lam^2 per step, so beyond
    _FORWARD_MAX the ratios r_k = U_k / U_{k-1} = k / (lam + r_{k+1}) come
    from the continued fraction instead, started near its large-k fixed
    point, and U_0 = phi(lam) / (lam + r_1).
    """
    lam = np.minimum(lam, _LAM_MAX)
    phi = np.exp(-0.5 * lam**2) / math.sqrt(2.0 * math.pi)
    out = np.empty((_DEGREE + 1,) + lam.shape)
    near = lam <= _FORWARD_MAX
    if near.any():
        ln = lam[near]
        u = [0.5 * np.fromiter(map(math.erfc, (ln * math.sqrt(0.5)).tolist()), float, ln.size)]
        u.append(phi[near] - ln * u[0])
        for k in range(1, _DEGREE):
            u.append(k * u[k - 1] - ln * u[k])
        out[:, near] = u
    far = ~near
    if far.any():
        lf = lam[far]
        top = _DEGREE + _FRACTION_DEPTH
        # r (lam + r + 1 / (2 r + lam)) = top + 1: the fixed point to second order
        ratio = np.zeros_like(lf)
        for _ in range(3):
            c = lf + 1.0 / (2.0 * ratio + lf)
            ratio = 0.5 * (np.sqrt(c * c + 4.0 * (top + 1)) - c)
        ratios = np.empty((_DEGREE + 1, lf.size))
        for k in range(top, 0, -1):
            np.add(lf, ratio, out=ratio)
            np.divide(float(k), ratio, out=ratio)
            if k <= _DEGREE:
                ratios[k] = ratio
        ratios[0] = phi[far] / (lf + ratios[1])
        # the running product U_k = r_0 ... r_k, row by row in place: the bits
        # of np.cumprod along axis 0, without its strided pass
        for k in range(1, _DEGREE + 1):
            ratios[k] *= ratios[k - 1]
        out[:, far] = ratios
    return out


def window_average(
    x: np.ndarray, times, center: float, radius: float, jets: np.ndarray, order: int
) -> tuple[np.ndarray, ...]:
    """Exact averages of p(w), p'(w) / R and p''(w) / R^2 over |w| < 1 at each
    of the times t, the first order + 1 of them with shapes (T, n), (T, n, 1)
    and (T, n, 1, 1) for T times, for the polynomial p whose jets (order,
    point, coefficient) are laid out as JETS, with w = (e^{-t} x + s y -
    center) / R, s = sqrt(1 - e^{-2t}) and y ~ gamma.

    In y the window is [a, b].  Each end e is integrated over the half line
    beyond it, away from 0, as T(e) = sum_k c_k (+-beta)^k U_k(|e|), with c
    the Taylor coefficients of p at w = +-1 and beta = s / R.  Then the
    average is E - T(a) - T(b) for a < 0 <= b, with E the full Gaussian
    average of p (from the moments of w), T(b) - T(a) for b < 0 and
    T(a) - T(b) for a >= 0: no two terms cancel in the tails, where h is
    small.  A window narrower than the Gaussian (beta > 1) goes to
    _narrow_window instead.  Against scipy's adaptive quadrature, h and
    grad h agree to 1e-9 relative and Hess log h to 1e-8 wherever h > 1e-10
    max h, for t >= 1e-3.

    The elementwise work (the ends, U_k and the moments of w) runs once on
    every time's rows; each time is then contracted on its own contiguous
    (9, n) blocks, so its bits are those of a call with that time alone.
    """
    n = x.shape[0]
    decay = [math.exp(-t) for t in times]
    beta = [math.sqrt(-math.expm1(-2.0 * t)) / radius for t in times]
    coeffs = jets[: order + 1] / (radius ** np.arange(order + 1, dtype=float))[:, None, None]
    out = [np.empty((len(times), n) + (1,) * k) for k in range(order + 1)]
    wide = [i for i, beta_t in enumerate(beta) if beta_t <= 1.0]
    for i in (i for i, beta_t in enumerate(beta) if beta_t > 1.0):
        alpha = (decay[i] * x - center) / radius
        for k, c in enumerate(coeffs):
            out[k][i] = _narrow_window(alpha, beta[i], c[0]).reshape((n,) + (1,) * k)
    if not wide:
        return tuple(out)
    b = [beta[i] for i in wide]
    alpha = (np.array([decay[i] for i in wide])[:, None] * x - center) / radius
    ends = np.concatenate([-1.0 - alpha, 1.0 - alpha], axis=1) / np.array(b)[:, None]
    side = np.where(ends < 0, -1.0, 1.0)
    # (time, k, end) blocks: U_k(|end|) beta^k, odd k signed by the end's side
    powers = np.array([beta_t ** np.arange(_DEGREE + 1) for beta_t in b])[:, :, None]
    steps = np.empty((len(wide), _DEGREE + 1, 2 * n))
    np.multiply(_upper_moments(np.abs(ends)).transpose(1, 0, 2), powers, out=steps)
    steps[:, 1::2] *= side[:, None, :]
    # moments of w ~ N(alpha, beta^2), used where 0 lies inside the window
    central = (ends[:, :n] < 0) & (ends[:, n:] >= 0)
    ac = np.where(central, alpha, 0.0)
    # the recurrence's k beta^2, one column per k
    spread = np.array([[k * beta_t**2 for k in range(_DEGREE)] for beta_t in b])
    moments = np.empty((len(wide), _DEGREE + 1, n))
    moments[:, 0], moments[:, 1] = 1.0, ac
    for k in range(1, _DEGREE):
        moments[:, k + 1] = ac * moments[:, k] + spread[:, k, None] * moments[:, k - 1]
    # one order at a time, so that its bits do not depend on the order asked for
    for k, (at0, at1, at_minus1) in enumerate(coeffs):
        avg = np.where(central, at0 @ moments, 0.0)
        avg += side[:, :n] * (at_minus1 @ steps[:, :, :n]) - side[:, n:] * (at1 @ steps[:, :, n:])
        avg = avg.reshape(avg.shape + (1,) * k)
        if len(wide) == len(times):
            out[k] = avg
        else:
            out[k][wide] = avg
    return tuple(out)


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 16-point Gauss-Legendre rule on [-1, 1] with powers 0..8 of its nodes."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    return nodes ** np.arange(_DEGREE + 1)[:, None], weights


def _narrow_window(alpha: np.ndarray, beta: float, taylor: np.ndarray) -> np.ndarray:
    """int_{-1}^{1} p(w) N(w; alpha, beta^2) dw at each alpha, for p of Taylor
    coefficients taylor at 0.

    For beta > 1 the window is narrower than the Gaussian, whose density is
    then smooth on it: the 16-point Gauss-Legendre rule integrates it to
    rounding (2e-14 relative against 30-digit quadrature, including the
    tails), where the half-line sums of window_average cancel like beta^8.
    """
    powers, weights = _legendre_rule()
    dens = np.exp(-0.5 * ((powers[1] - alpha[:, None]) / beta) ** 2)
    dens *= weights / (beta * math.sqrt(2.0 * math.pi))
    return (taylor @ powers) @ dens.T
