"""Cancellation-free iteration of the offspring p.g.f. and derived sequences.

Everything runs on q_j = 1 - F_j(t) rather than F_j itself: the composition
F(s) = s + kappa1*(1-s)**(1+nu) rewrites exactly as

    q_{j+1} = q_j * (1 - kappa1 * q_j**nu),

which involves no subtraction of nearly equal quantities even as F_j(t) -> 1.
`_q_steps`, the one kernel of this step, takes log q_0 and returns one
float64 array of log q_j, so q never underflows: exact log steps while
kappa1*q**nu > 2^-8, then one vectorized pass by the step's Fatou
coordinate.  On top of it, `theta_sums` accumulates S_k = sum_{j<k}
q_j**theta, the exponent of every immigration product gamma_k^(0), and
`theta_tail_bounds` encloses the rest of that sum when theta > nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laws import LawParams

_LN2 = math.log(2.0)
_LOG_FATOU = -8.0 * _LN2      # exact log steps while kappa1*q**nu > 2^-8
_FATOU_CHUNK = 1 << 15        # entries of the Fatou pass formed in cache
_LOG_TINY = math.log(2.0 ** -500)   # log q_0 = log(s*x) below this


def _power(path: np.ndarray, a: float) -> np.ndarray:
    """q_j**a for j = 0..n, a > 0, from the log-q path of `_q_steps`, as
    exp(a*log q_j) in long double; 0 where q_j = 0."""
    out = path.astype(np.longdouble)
    out *= a
    return np.exp(out, out=out)


def _log_steps(nu: float, k1: float, lq: float, n: int):
    """log q from lq on, up to n steps, stopping at the first q with
    tau = k1*q**nu <= 2^-8.  A step adds log(1 - tau), formed from
    x = log tau without cancellation on either side of x = -log 2
    (Maechler 2012); at x = 0 (k1 = 1, q = 1) q steps to 0."""
    lk1 = math.log(k1)
    for _ in range(n):
        x = lk1 + nu * lq
        if x <= _LOG_FATOU:
            break
        yield lq
        lq += (math.log1p(-math.exp(x)) if x < -_LN2
               else math.log(-math.expm1(x)) if x < 0.0 else -math.inf)
    yield lq


def _fatou_steps(nu: float, k1: float, lq: np.ndarray) -> None:
    """Fill lq[1:] in place from lq[0] = log q_m, tau_m = k1*q_m**nu <=
    2^-8, by the Fatou coordinate of tau' = tau*(1 - tau)^nu (Milnor 2006,
    section 10): Phi(tau) = 1/(nu*tau) + (1+nu)/(2*nu)*log(tau) +
    sum_{i<=6} b_i*tau^i, for which Phi(tau') = Phi(tau) + 1 + O(tau^8).

    With w = nu*(log q_m - log q_{m+d}), c = nu*tau_m, h = (1+nu)*tau_m/2
    and g_i = nu*b_i*tau_m^(i+1), Phi(tau_{m+d}) = Phi(tau_m) + d reads
    expm1(w) = R(w) = c*d + h*w - sum_i g_i*(exp(-i*w) - 1).  One Newton
    step on w - log1p(R(w)) from w = log1p(c*d + h*log1p(c*d)) solves it
    to float64 rounding, a chunk at a time so the scratch stays in cache.
    The sum and R'(w) are polynomials in x = expm1(-w), so nothing
    cancels as w -> 0."""
    # nu*b_i cancels the tau^(i+1) term of Phi(tau') - Phi(tau) - 1, where
    # ((1 - tau)^(i*nu) - 1)/nu leads with -i*tau: finite as nu -> 0
    beta, rising = [], 0.5 * (1.0 + nu)
    for i in range(1, 7):
        rising *= (nu + i + 1) / (i + 2)
        beta.append((rising - (1.0 + nu) / (2 * i + 2) - sum(
            j * b * math.prod((k - j * nu) / (k + 1)
                              for k in range(1, i + 1 - j))
            for j, b in enumerate(beta, 1))) / i)
    tau = math.exp(math.log(k1) + nu * lq[0])      # 0 where q_m = 0
    c, h = nu * tau, 0.5 * (1.0 + nu) * tau
    g = [b * tau ** (i + 1) for i, b in enumerate(beta, 1)]
    s = [sum(gi * math.comb(i, k) for i, gi in enumerate(g, 1)) if k else 0.0
         for k in range(len(g) + 1)]
    # R'(w) - h = (1 + x) * dS/dx, S the sum as a polynomial in x
    ds = [k * a + (k + 1) * b for k, (a, b) in enumerate(zip(s, s[1:] + [0]))]
    ds[0] += h
    for lo in range(1, len(lq), _FATOU_CHUNK):
        w = lq[lo:lo + _FATOU_CHUNK]
        cd = c * np.arange(float(lo), lo + len(w))
        np.log1p(cd + h * np.log1p(cd), out=w)
        x = np.expm1(np.negative(w))
        acc = np.empty_like(w)

        def poly(coefs):        # sum_k coefs[k]*x^k, formed in acc
            acc.fill(coefs[-1])
            for co in coefs[-2::-1]:
                np.multiply(acc, x, out=acc)
                np.add(acc, co, out=acc)
            return acc

        cd -= poly(s)
        cd += np.multiply(w, h, out=acc)        # R(w)
        np.subtract(cd, poly(ds), out=acc)
        acc += 1.0                              # 1 + R(w) - R'(w)
        np.log1p(cd, out=x)
        cd += 1.0
        cd /= acc
        x -= w
        x *= cd                                 # -f(w)/f'(w)
        w += x
        w /= -nu
        w += lq[0]


def _q_steps(params: LawParams, lq0: float, n: int) -> np.ndarray:
    """The path log q_0..log q_n from log q_0 = lq0, one read-only float64
    array, -inf where q_j = 0: `_log_steps` while kappa1*q**nu > 2^-8,
    then `_fatou_steps` from the last of them."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    head = np.fromiter(_log_steps(params.nu, params.kappa1, lq0, n), float)
    lq = np.concatenate((head, np.empty(n + 1 - len(head))))
    _fatou_steps(params.nu, params.kappa1, lq[len(head) - 1:])
    lq.flags.writeable = False
    return lq


def _log1m(x: float) -> float:
    """log(1 - x) for x in [0, 1]; -inf at x = 1."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"point {x} outside [0, 1]")
    return math.log1p(-x) if x < 1.0 else -math.inf


def _log_q0(s: float, log_x: float) -> float:
    """log q_0 = log(1 - exp(-s*x)) from s >= 0 and log x, without
    cancellation: log(s*x) itself where s*x < 2^-500."""
    if s == 0.0:
        return -math.inf
    ly = math.log(s) + log_x
    return ly if ly < _LOG_TINY else math.log(-math.expm1(-math.exp(ly)))


def q_iterate(params: LawParams, t: float, n: int) -> np.ndarray:
    """The trajectory q_j = 1 - F_j(t), j = 0..n, from a point t in [0, 1],
    iterated from log q_0 = log1p(-t), as the read-only array of log q_j
    of `_q_steps`.  q_j itself, which may underflow, is
    `_power(path, 1.0)[j]`."""
    return _q_steps(params, _log1m(t), n)


def _end_logs(params: LawParams, t, n: int):
    """(log q_0, log q_n), n >= 1, at each point of `t`, a scalar or a
    grid: from these, q**a is formed as exp(a * log q), where q_n itself
    may underflow."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ts = np.asarray(t, dtype=float)
    if np.any(ts >= 1.0):
        raise ValueError("t must lie in [0, 1)")
    lq0 = np.reshape([_log1m(x) for x in ts.ravel()], ts.shape)
    return lq0, np.reshape([_q_steps(params, y, n)[n]
                            for y in lq0.ravel()], ts.shape)


def rate_gap(params: LawParams, t, n: int):
    """Normalized decay-rate gap kappa1*nu - (q_n**-nu - q_0**-nu)/n.

    Tends to 0 as n grows, uniformly over t in [0, 1): the inverse-power
    survival transform accrues kappa1*nu per generation in the limit.
    """
    nu = params.nu
    lq0, lqn = _end_logs(params, t, n)
    return params.kappa1 * nu - (np.exp(-nu * lqn) - np.exp(-nu * lq0)) / n


def epsilon_term(params: LawParams, t, n: int):
    """Relative error of the first-order survival approximation.

    epsilon(n, t) = q_n**nu * (kappa1*nu*n + (1-t)**-nu) - 1, which equals
    q_n**nu times the unnormalized rate gap exactly.  Its size is of order
    log(n)/n at t = 0.
    """
    nu = params.nu
    lq0, lqn = _end_logs(params, t, n)
    return (np.exp(nu * lqn) * (params.kappa1 * nu * n + np.exp(-nu * lq0))
            - 1.0)


def theta_sums(params: LawParams, lq0: float, n: int):
    """The q-trajectory from log q_0 = lq0, its powers q_j**theta and
    S_k = sum_{j<k} q_j**theta.

    Returns (path, qt, S): the log-q array of q_0..q_n, qt for j = 0..n,
    and S for k = 0..n+1 with S_0 = 0.  qt and S are in extended precision,
    which keeps S accurate to ~1e-15 relative at n = 1e6.
    """
    path = _q_steps(params, lq0, n)
    qt = _power(path, params.theta)
    S = np.concatenate((np.zeros(1, dtype=np.longdouble), np.cumsum(qt)))
    return path, qt, S


def theta_tail_bounds(params: LawParams, lq):
    """Enclosure (lo, hi) of sum_{i>=j} q_i**theta given log q_j = lq,
    theta > nu.

    The increments of q**-nu lie between kappa1*nu and kappa1*nu*C with
    C = (1 - kappa1*q**nu)**(-nu-1), so comparing the sum with integrals
    of x**(theta/nu - 1) gives both bounds.  Where kappa1*q**nu rounds
    to 1, C is inf, without a warning, and lo = 0 is still a bound.
    """
    nu, th, k1 = params.nu, params.theta, params.kappa1
    with np.errstate(divide="ignore"):
        c = (1.0 - k1 * np.exp(nu * lq)) ** (-nu - 1.0)
    q_rel = np.exp((th - nu) * lq)                  # q**(theta - nu)
    lo = q_rel / (k1 * c * (th - nu))
    hi = np.exp(th * lq) + q_rel / (k1 * (th - nu))
    return lo, hi


@dataclass(frozen=True)
class GammaSequence:
    """Immigration survival products along the q-trajectory.

    log_gamma0[k] = -kappa2 * sum_{j<k} q_j(s)**theta  (empty sum at k=0)
    gamma[k]      = (1 - kappa0*q_k(s)**delta) * exp(log_gamma0[k])
    """

    s: float
    log_gamma0: np.ndarray
    gamma: np.ndarray


def _gammas(params: LawParams, lq0: float, n: int):
    """(log_gamma0, gamma) of `GammaSequence` from log q_0 = lq0."""
    path, _, S = theta_sums(params, lq0, n)
    with np.errstate(over="ignore"):    # beyond float64 it reads -inf
        log_gamma0 = (-params.kappa2 * S[:-1]).astype(float)
    qd = _power(path, params.delta).astype(float)
    return log_gamma0, (1.0 - params.kappa0 * qd) * np.exp(log_gamma0)


def gamma_sequences(params: LawParams, s: float, n: int) -> GammaSequence:
    """Both gamma sequences at a point s in [0, 1], log-domain throughout."""
    return GammaSequence(s, *_gammas(params, _log1m(s), n))


def h_n(params: LawParams, s: float, n: int) -> float:
    """Generating function of the n-th generation with immigration.

    H_n(s) = (1 - kappa0*q_n(s)**delta) * exp(-kappa2 * sum_{j<n} q_j(s)**theta).
    """
    return float(gamma_sequences(params, s, n).gamma[n])
