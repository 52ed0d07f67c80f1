"""Cancellation-free iteration of the offspring p.g.f. and derived sequences.

Everything runs on q_j = 1 - F_j(t) rather than F_j itself: the composition
F(s) = s + kappa1*(1-s)**(1+nu) rewrites exactly as

    q_{j+1} = q_j * (1 - kappa1 * q_j**nu),

which involves no subtraction of nearly equal quantities even as F_j(t) -> 1.
`_q_steps` takes this step for both `q_iterate` and `q_last`.  On top of it,
`theta_sums` accumulates S_k = sum_{j<k} q_j**theta, the exponent of every
immigration product gamma_k^(0), and `theta_tail_bounds` encloses the rest
of that sum when theta > nu; the renewal and limit code use these two.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from .laws import LawParams
from ._num import ext_power


@dataclass(frozen=True)
class QTrajectory:
    """Trajectory q_j = 1 - F_j(t) for j = 0..n (axis 0 when t is a grid)."""

    params: LawParams
    t: float | np.ndarray
    q: np.ndarray

    @property
    def horizon(self) -> int:
        return self.q.shape[0] - 1

    def step_gaps(self) -> np.ndarray:
        """Per-step decay gaps kappa1*nu - (q_{j+1}**-nu - q_j**-nu).

        Summing these telescopes to horizon * rate_gap(..) by construction,
        which the property tests exploit.
        """
        nu = self.params.nu
        with np.errstate(divide="ignore"):
            inv = self.q ** -nu
        return self.params.kappa1 * nu - (inv[1:] - inv[:-1])


def _q_steps(params: LawParams, q, n: int):
    """Yield q_0 = q, q_1, ..., q_n; a scalar q runs on Python floats.

    At nu = 1 the step leaves out the power, which changes no bit:
    x**1 == x.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    nu, k1 = params.nu, params.kappa1
    if np.ndim(q) == 0:
        q = float(q)
    yield q
    if nu == 1.0:
        for _ in range(n):
            q = q * (1.0 - k1 * q)
            yield q
        return
    for _ in range(n):
        q = q * (1.0 - k1 * q ** nu)
        yield q


def q_iterate(params: LawParams, t, n: int) -> QTrajectory:
    """Iterate the composition n times from t, storing the whole trajectory.

    `t` may be a scalar or a 1-d grid in [0, 1]; the recursion is elementwise.
    """
    steps = _q_steps(params, 1.0 - np.asarray(t, dtype=float), n)
    row = np.dtype((float, np.shape(t)))
    return QTrajectory(params=params, t=t, q=np.fromiter(steps, dtype=row))


def q_last(params: LawParams, t, n: int):
    """q_n = 1 - F_n(t) without storing the trajectory (O(1) memory)."""
    steps = _q_steps(params, 1.0 - np.asarray(t, dtype=float), n)
    return collections.deque(steps, maxlen=1)[0]


def rate_gap(params: LawParams, t, n: int):
    """Normalized decay-rate gap kappa1*nu - (q_n**-nu - q_0**-nu)/n.

    Tends to 0 as n grows, uniformly over t in [0, 1): the inverse-power
    survival transform accrues kappa1*nu per generation in the limit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    nu = params.nu
    qn = q_last(params, t, n)
    q0 = 1.0 - np.asarray(t, dtype=float)
    return params.kappa1 * nu - (qn ** -nu - q0 ** -nu) / n


def epsilon_term(params: LawParams, t, n: int):
    """Relative error of the first-order survival approximation.

    epsilon(n, t) = q_n**nu * (kappa1*nu*n + (1-t)**-nu) - 1, which equals
    q_n**nu times the unnormalized rate gap exactly.  Its size is of order
    log(n)/n at t = 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    nu = params.nu
    qn = q_last(params, t, n)
    q0 = 1.0 - np.asarray(t, dtype=float)
    return qn ** nu * (params.kappa1 * nu * n + q0 ** -nu) - 1.0


def step_gap(params: LawParams, t):
    """One-step gap Xi(t) = kappa1*nu - [(1-F(t))**-nu - (1-t)**-nu].

    The bracket is evaluated as q0**-nu * expm1(-nu*log1p(-kappa1*q0**nu)),
    avoiding the cancellation of two large inverse powers near t = 1.
    """
    nu, k1 = params.nu, params.kappa1
    q0 = 1.0 - np.asarray(t, dtype=float)
    bracket = q0 ** -nu * np.expm1(-nu * np.log1p(-k1 * q0 ** nu))
    return k1 * nu - bracket


def step_gap_envelope(params: LawParams, t):
    """Lower envelope Theta(t) = kappa1*nu - [(1-t)**nu - (1-F(t))**nu]/(1-F(t))**(2nu).

    Theta <= Xi pointwise and Theta increases to 0 as t -> 1, which gives
    the uniform-in-t control used by the decay-rate diagnostics.
    """
    nu, k1 = params.nu, params.kappa1
    q0 = 1.0 - np.asarray(t, dtype=float)
    qf = q0 * (1.0 - k1 * q0 ** nu)
    diff = -(q0 ** nu) * np.expm1(nu * np.log1p(-k1 * q0 ** nu))
    return k1 * nu - diff / qf ** (2.0 * nu)


def theta_sums(params: LawParams, q0: float, n: int):
    """q_j, q_j**theta and S_k = sum_{j<k} q_j**theta along the trajectory
    from q_0 = q0 (that is, from t = 1 - q0).

    Returns (q, qt, S): q (float64) and qt for j = 0..n, and S for
    k = 0..n+1 with S_0 = 0.  qt and S are in extended precision, which
    keeps S accurate to ~1e-15 relative at n = 1e6.
    """
    q = np.fromiter(_q_steps(params, q0, n), dtype=float)
    qt = ext_power(q, params.theta)
    S = np.concatenate((np.zeros(1, dtype=np.longdouble), np.cumsum(qt)))
    return q, qt, S


def theta_tail_bounds(params: LawParams, q):
    """Enclosure (lo, hi) of sum_{i>=j} q_i**theta given q_j = q, theta > nu.

    The increments of q**-nu lie between kappa1*nu and kappa1*nu*C with
    C = (1 - kappa1*q**nu)**(-nu-1), so comparing the sum with integrals
    of x**(theta/nu - 1) gives both bounds.
    """
    nu, th, k1 = params.nu, params.theta, params.kappa1
    c = (1.0 - k1 * q ** nu) ** (-nu - 1.0)
    lo = q ** (th - nu) / (k1 * c * (th - nu))
    hi = q ** th + q ** (th - nu) / (k1 * (th - nu))
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


def gamma_sequences(params: LawParams, s: float, n: int) -> GammaSequence:
    """Both gamma sequences at a point s in [0, 1], log-domain throughout."""
    q, _, S = theta_sums(params, 1.0 - s, n)
    log_gamma0 = (-params.kappa2 * S[:-1]).astype(float)
    gamma = (1.0 - params.kappa0 * q ** params.delta) * np.exp(log_gamma0)
    return GammaSequence(s=s, log_gamma0=log_gamma0, gamma=gamma)


def h_n(params: LawParams, s: float, n: int) -> float:
    """Generating function of the n-th generation with immigration.

    H_n(s) = (1 - kappa0*q_n(s)**delta) * exp(-kappa2 * sum_{j<n} q_j(s)**theta).
    """
    return float(gamma_sequences(params, s, n).gamma[n])


def laplace_zn(params: LawParams, lam: float, n: int) -> float:
    """Laplace transform E exp(-lam * Z_n) of the unstopped process."""
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    return h_n(params, math.exp(-lam), n)
