"""Cancellation-free iteration of the offspring p.g.f. and derived sequences.

Everything runs on q_j = 1 - F_j(t) rather than F_j itself: the composition
F(s) = s + kappa1*(1-s)**(1+nu) rewrites exactly as

    q_{j+1} = q_j * (1 - kappa1 * q_j**nu),

which involves no subtraction of nearly equal quantities even as F_j(t) -> 1.
`_q_steps`, the one kernel of this step, is fed log q_0, so q_0 = 1 - e^-y
is formed as log(-expm1(-y)), and steps log q below 2^-500, so q never
underflows.  On top of it, `theta_sums` accumulates S_k = sum_{j<k}
q_j**theta, the exponent of every immigration product gamma_k^(0), and
`theta_tail_bounds` encloses the rest of that sum when theta > nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laws import LawParams
from ._num import ext_power

_SWITCH = 2.0 ** -500         # q steps on a log scale below this
_LOG_SWITCH = math.log(_SWITCH)
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class QPath:
    """One trajectory q_0..q_n of `_q_steps`: q_j as float64 while
    q_j >= 2^-500 (`q`), then log q_j in long double (`lq`)."""

    q: np.ndarray
    lq: np.ndarray

    def power(self, a: float) -> np.ndarray:
        """q_j**a for j = 0..n in long double: `ext_power` on the floats,
        bit for bit, and exp(a*lq) on the tail."""
        head = ext_power(self.q, a)
        if not len(self.lq):
            return head
        return np.concatenate((head, np.exp(np.longdouble(a) * self.lq)))

    def log(self, j: int) -> float:
        """log q_j."""
        k = j - len(self.q)
        return math.log(self.q[j]) if k < 0 else float(self.lq[k])

    def logs(self) -> np.ndarray:
        """log q_j for j = 0..n, as float64."""
        return np.concatenate((np.log(self.q), self.lq.astype(float)))


def _float_steps(nu: float, k1: float, q: float, n: int):
    """q_0 = q, ..., q_n in Python floats, cut short at the first multiple
    of 1024 steps with q < 2^-500.  At nu = 1 the step leaves out the
    power, which changes no bit: x**1 == x."""
    for start in range(0, n + 1, 1024):
        if q < _SWITCH:
            return
        if nu == 1.0:
            for _ in range(min(1024, n + 1 - start)):
                yield q
                q = q * (1.0 - k1 * q)
        else:
            for _ in range(min(1024, n + 1 - start)):
                yield q
                q = q * (1.0 - k1 * q ** nu)


def _log_steps(nu: float, k1: float, lq: float, m: int):
    """m values of log q from lq on.  A step adds log(1 - exp(x)) with
    x = log(k1*q**nu) < 0, formed without cancellation on either side of
    x = -log 2 (Maechler 2012)."""
    lk1 = math.log(k1)
    for _ in range(m):
        yield lq
        x = lk1 + nu * lq
        lq += (math.log1p(-math.exp(x)) if x < -_LN2
               else math.log(-math.expm1(x)))


def _q_steps(params: LawParams, lq0: float, n: int) -> QPath:
    """q_0, ..., q_n from log q_0 = lq0: floats down to 2^-500, then log q,
    so no q underflows; at n = 10^6 and nu = 0.005 log q_n is within
    3e-11 of an 80-bit iteration."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    nu, k1 = params.nu, params.kappa1
    q = np.fromiter(_float_steps(nu, k1, math.exp(lq0), n), dtype=float)
    q = q[:np.count_nonzero(q >= _SWITCH)]      # q never increases
    if len(q):      # the log tail starts from the float step below 2^-500
        qn = float(q[-1])
        qn *= 1.0 - k1 * qn ** nu
        lq0 = math.log(qn) if qn > 0.0 else -math.inf
    m = n + 1 - len(q)
    lq = np.fromiter(_log_steps(nu, k1, lq0, m), dtype=float, count=m)
    return QPath(q, lq.astype(np.longdouble))


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
    return ly if ly < _LOG_SWITCH else math.log(-math.expm1(-math.exp(ly)))


def q_iterate(params: LawParams, t: float, n: int) -> QPath:
    """The trajectory q_j = 1 - F_j(t), j = 0..n, from a point t in [0, 1],
    iterated from log q_0 = log1p(-t).

    The path's `q` holds only its float prefix, the q_j >= 2^-500; read
    q_j as `power(1.0)[j]` and log q_j as `log(j)`.
    """
    return _q_steps(params, _log1m(t), n)


def _end_logs(params: LawParams, t, n: int):
    """(log q_0, log q_n) at each point of `t`, a scalar or a grid: from
    these, q**a is formed as exp(a * log q), where q_n itself may
    underflow."""
    ts = np.asarray(t, dtype=float)
    if np.any(ts >= 1.0):
        raise ValueError("t must lie in [0, 1)")
    paths = [_q_steps(params, _log1m(x), n) for x in ts.ravel()]
    ends = np.array([(p.log(0), p.log(n)) for p in paths])
    ends = ends.reshape(ts.shape + (2,))
    return ends[..., 0], ends[..., 1]


def rate_gap(params: LawParams, t, n: int):
    """Normalized decay-rate gap kappa1*nu - (q_n**-nu - q_0**-nu)/n.

    Tends to 0 as n grows, uniformly over t in [0, 1): the inverse-power
    survival transform accrues kappa1*nu per generation in the limit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    nu = params.nu
    lq0, lqn = _end_logs(params, t, n)
    return params.kappa1 * nu - (np.exp(-nu * lqn) - np.exp(-nu * lq0)) / n


def epsilon_term(params: LawParams, t, n: int):
    """Relative error of the first-order survival approximation.

    epsilon(n, t) = q_n**nu * (kappa1*nu*n + (1-t)**-nu) - 1, which equals
    q_n**nu times the unnormalized rate gap exactly.  Its size is of order
    log(n)/n at t = 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    nu = params.nu
    lq0, lqn = _end_logs(params, t, n)
    return (np.exp(nu * lqn) * (params.kappa1 * nu * n + np.exp(-nu * lq0))
            - 1.0)


def theta_sums(params: LawParams, lq0: float, n: int):
    """The q-trajectory from log q_0 = lq0, its powers q_j**theta and
    S_k = sum_{j<k} q_j**theta.

    Returns (path, qt, S): the `QPath` of q_0..q_n, qt for j = 0..n, and S
    for k = 0..n+1 with S_0 = 0.  qt and S are in extended precision,
    which keeps S accurate to ~1e-15 relative at n = 1e6.
    """
    path = _q_steps(params, lq0, n)
    qt = path.power(params.theta)
    S = np.concatenate((np.zeros(1, dtype=np.longdouble), np.cumsum(qt)))
    return path, qt, S


def theta_tail_bounds(params: LawParams, lq):
    """Enclosure (lo, hi) of sum_{i>=j} q_i**theta given log q_j = lq,
    theta > nu.

    The increments of q**-nu lie between kappa1*nu and kappa1*nu*C with
    C = (1 - kappa1*q**nu)**(-nu-1), so comparing the sum with integrals
    of x**(theta/nu - 1) gives both bounds.
    """
    nu, th, k1 = params.nu, params.theta, params.kappa1
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
    qd = path.power(params.delta).astype(float)
    return log_gamma0, (1.0 - params.kappa0 * qd) * np.exp(log_gamma0)


def gamma_sequences(params: LawParams, s: float, n: int) -> GammaSequence:
    """Both gamma sequences at a point s in [0, 1], log-domain throughout."""
    return GammaSequence(s, *_gammas(params, _log1m(s), n))


def h_n(params: LawParams, s: float, n: int) -> float:
    """Generating function of the n-th generation with immigration.

    H_n(s) = (1 - kappa0*q_n(s)**delta) * exp(-kappa2 * sum_{j<n} q_j(s)**theta).
    """
    return float(gamma_sequences(params, s, n).gamma[n])
