"""Evaluation of the limit statements at finite n.

Two families of scalings appear throughout: arguments shrink either with
the extinction rate (t = exp(-s * q_n(0)), balanced immigration theta =
nu) or polynomially (t = exp(-s * n**(-1/theta)), heavy immigration
theta < nu).  One driver, `convergence_sweep`, reports the deviation of
each statement of `THEOREMS` from its proven limit over a grid of s and
n: H_n and the weights gamma_k^(0) of the unstopped chain, and the
conditional transform of the stopped chain, evaluated exactly through
the renewal decomposition.

Both scales x are tiny, so t is never formed: the q-trajectory at t is
fed log q_0 = log(1 - t) = log(-expm1(-s*x)), computed from log x, which
is log q_n(0) read off one q(0) trajectory or -log(n)/theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (MissingConstantError, MissingRenewalError,
                     TolUnreachableError, WrongRegimeError)
from .laws import LawParams
from .pgf import (_gammas, _log1m, _log_q0, _q_steps, theta_sums,
                  theta_tail_bounds)
from .renewal import (RegimeReport, RenewalTable, _BALANCED,
                      _renewal_table, classify_regime, fit_tail)
from ._num import fsum, gauss_legendre_panels

_STATIONARY_CHUNK = 1 << 16     # q-trajectory terms per pass
_SCALINGS = ("by_qn", "by_n_inv_theta")

# the regimes of each limit statement, and what they need
_HEAVY = (("R0",), "theta < nu")
_THETA_EQ_NU = (_BALANCED, "theta = nu")
_STRONG = (("R1", "R2"),
           "theta = nu and sigma >= 1 (below, use lambda_limit)")
_WEAK = (("R3", "R4", "R5"), "theta = nu and sigma < 1")


def _regime(params: LawParams, allowed, needs: str) -> RegimeReport:
    """`classify_regime` of `params`, which must lie in `allowed`."""
    rep = classify_regime(params)
    if rep.regime_id not in allowed:
        raise WrongRegimeError(
            f"needs {needs}, got regime {rep.regime_id} (theta={params.theta},"
            f" nu={params.nu}, sigma={rep.sigma})")
    return rep


def _check_s(s: float) -> None:     # the rule of convergence_sweep's grid
    if not (math.isfinite(s) and s >= 0.0):
        raise ValueError(f"s must be finite and >= 0, got {s}")


def _log_scales(params: LawParams, ns, scaling: str,
                path: np.ndarray | None = None) -> list[float]:
    """log x for each n of `ns`: x = n^{-1/theta} for "by_n_inv_theta",
    and x = q_n(0) for "by_qn", read off the log-q(0) path `path`
    (iterated to max(ns) when not given)."""
    if scaling == "by_n_inv_theta":
        return [-math.log(n) / params.theta for n in ns]
    if path is None:
        path = _q_steps(params, 0.0, max(ns))
    return path[ns].tolist()


# ---------------------------------------------------------------------------
# stationary transform for theta > nu


def stationary_pgf(params: LawParams, s: float, tol: float = 1e-9,
                   max_iter: int = 10 ** 7) -> float:
    """Generating function of the stationary law when theta > nu.

    Evaluates prod_{j>=0} B(F_j(s)) = exp(-kappa2 * sum_j q_j(s)^theta)
    to additive tolerance `tol`: the sum is accumulated until integral
    bounds on its remainder (increments of q^{-nu} are squeezed between
    kappa1*nu and kappa1*nu*C_J) pin the product to within tol, then the
    midpoint of the enclosure is returned.
    """
    _regime(params, ("R6", "UNCOVERED"), "theta > nu")
    # first j whose enclosure is within tol; chunks keep memory bounded
    lq0, head, j0 = _log1m(s), 0.0, 0
    while True:
        n = min(_STATIONARY_CHUNK, max_iter - j0)
        path, _, S = theta_sums(params, lq0, n)
        lo, hi = theta_tail_bounds(params, path)
        width = params.kappa2 * (hi - lo)
        tight = np.nonzero(width <= tol)[0]
        if tight.size:
            j = int(tight[0])
            return math.exp(-params.kappa2
                            * (float(head + S[j]) + 0.5 * (lo[j] + hi[j])))
        if j0 + n >= max_iter:
            raise TolUnreachableError(
                f"enclosure width {width[-1]:.2e} > tol {tol:.1e} "
                f"after {max_iter} terms")
        head, lq0, j0 = head + S[n], float(path[n]), j0 + n


# ---------------------------------------------------------------------------
# exact conditional transform of the stopped process


def conditional_laplace_exact(params: LawParams, n: int, s: float,
                              scaling: str = "by_qn",
                              table: RenewalTable | None = None) -> float:
    """E(t^{W_n} | W_n > 0) for the stopped process, evaluated exactly.

    The complement splits into the never-immigrated part and a renewal
    sum over the last immigration epoch:

        1 - E = gamma_n^(0)(t) q_n(t)^delta / u_n
              + sum_{k=1}^{n} (u_{n-k}/u_n) (gamma_{k-1}^(0)(t) - gamma_k^(0)(t))

    with t = exp(-s q_n(0)) for scaling "by_qn" and t = exp(-s n^{-1/theta})
    for "by_n_inv_theta".  Without a table, one q(0) trajectory to n
    gives both the table and q_n(0).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_s(s)
    if scaling not in _SCALINGS:
        raise ValueError(f"scaling {scaling!r} is not one of {_SCALINGS}")
    path = None if table is not None else _q_steps(params, 0.0, n)
    log_x, = _log_scales(params, [n], scaling, path)
    if table is None:
        table = _renewal_table(params, path)
    if table.params != params:
        raise MissingRenewalError("renewal table built for different params")
    if len(table.u) < n + 1:
        raise MissingRenewalError(
            f"renewal table of length {len(table.u)} < n+1 = {n + 1}")
    return _conditional_laplace(params, table, n, _log_q0(s, log_x))


def _conditional_laplace(params: LawParams, table: RenewalTable, n: int,
                         lq0: float) -> float:
    """`conditional_laplace_exact` at log q_0(t) = lq0, given a table that
    reaches n."""
    path, qt, S = theta_sums(params, lq0, n)
    with np.errstate(over="ignore"):    # beyond float64 it reads -inf
        g0 = np.exp((-params.kappa2 * S[:-1]).astype(float))  # gamma_k^(0)(t)
    # conditioning on a positive start strips the kappa0 atom: the initial
    # transform becomes 1 - (1-x)^delta, so no kappa0 appears here
    xi1 = g0[n] * math.exp(params.delta * float(path[n])) / table.u[n]
    w = g0[:-1] * (-np.expm1(-params.kappa2 * qt[:-1].astype(float)))
    xi2 = fsum(table.u[n - 1::-1] * w / table.u[n])
    return 1.0 - xi1 - xi2


# ---------------------------------------------------------------------------
# limit functions of the conditional transforms


def _heavy_limit(params: LawParams, rep: RegimeReport, s: float) -> float:
    return math.exp(-params.kappa2 * s ** params.theta)


def _balanced_limit(params: LawParams, rep: RegimeReport, s: float) -> float:
    return (1.0 + s ** params.nu) ** (-rep.sigma)


def limit_laplace_heavy_imm(params: LawParams, s: float) -> float:
    """Limit of the conditional transform under n^{-1/theta} scaling."""
    rep = _regime(params, *_HEAVY)
    _check_s(s)
    return _heavy_limit(params, rep, s)


def limit_balanced_strong(params: LawParams, s: float) -> float:
    """(1 + s^nu)^{-sigma}: theta = nu with sigma >= 1."""
    rep = _regime(params, *_STRONG)
    _check_s(s)
    return _balanced_limit(params, rep, s)


def lambda_limit(params: LawParams, s: float, K5: float | None = None) -> float:
    """Two-branch limit function for theta = nu with sigma < 1.

    For sigma >= 1 - delta/nu the singular-integral form collapses to
    (1 + s^nu)^{-1} (used as a quadrature self-check); below that
    threshold the defective branch subtracts a K5-scaled atom:

        1 - (kappa0/K5)(1/(kappa1 nu))^{delta/nu} s^delta (1+s^nu)^{-sigma-delta/nu}
          - sigma s^nu Int_0^1 (1-x)^{-delta/nu} (1+s^nu x)^{-sigma-1} dx

    The endpoint singularity is removed exactly by y = (1-x)^{1-a}.
    """
    rep = _regime(params, *_WEAK)
    _check_s(s)
    if s == 0.0:
        return 1.0
    sg, rho, sn = rep.sigma, params.delta / params.nu, s ** params.nu
    weak = rep.regime_id == "R5"
    if weak and K5 is None:
        raise MissingConstantError(
            "sigma < 1 - delta/nu: pass the fitted tail constant K5")
    # integrand (1-x)^{c-1} (1+s^nu x)^{-sigma-1}, c = 1 - delta/nu on the
    # defective branch and c = sigma on the other; y = (1-x)^c
    c = 1.0 - rho if weak else sg

    def f(y):
        x = 1.0 - y ** (1.0 / c)
        return (1.0 + sn * x) ** (-sg - 1.0)

    integral = gauss_legendre_panels(f, 0.0, 1.0) / c
    atom = 0.0
    if weak:
        atom = ((params.kappa0 / K5)
                * (1.0 / (params.kappa1 * params.nu)) ** rho
                * s ** params.delta * (1.0 + sn) ** (-sg - rho))
    return 1.0 - atom - sg * sn * integral


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class LimitCheck:
    theorem_id: str
    s_grid: np.ndarray
    n_grid: np.ndarray
    computed: np.ndarray       # shape (len(n_grid), len(s_grid))
    limit: np.ndarray          # shape (len(s_grid),)
    deviations: np.ndarray

    def monotone(self) -> bool:
        """True when every deviation is finite and nonincreasing in n."""
        dev = self.deviations
        return bool(np.all(np.isfinite(dev))
                    and np.all(np.diff(dev, axis=0) <= 1e-15))


# finite-n values at (law, regime, renewal table, n, s, log q_0(t))


def _stopped(params, rep, table, n, s, lq0) -> float:
    """E(t^{W_n} | W_n > 0) of the stopped chain."""
    return _conditional_laplace(params, table, n, lq0)


def _unstopped(params, rep, table, n, s, lq0) -> float:
    """H_n(t) of the unstopped chain."""
    return float(_gammas(params, lq0, n)[1][n])


def _worst_weight(params, rep, table, n, s, lq0) -> float:
    """w_k gamma_k^(0)(t) at the k <= n farthest from 1, in the log domain:
    w_k = e^{kappa2 s^theta k/n} on R0, (1 + (k/n) s^nu)^sigma for theta =
    nu.  The log weight is kappa2 (a_k - S_k), a_k = s^theta k/n or
    log1p((k/n) s^nu)/(kappa1 nu), so no inf - inf is formed and sigma,
    which may overflow, never is.  A weight beyond float64 reads inf."""
    _, _, S = theta_sums(params, lq0, n)
    # a_k in long double, like S_k: kappa2 a_k and kappa2 S_k may be
    # large and close
    kn = np.arange(n + 1, dtype=np.longdouble) / n
    s = np.longdouble(s)
    if rep.regime_id == "R0":
        a = s ** params.theta * kn
    else:
        a = np.log1p(kn * s ** params.nu) / (np.longdouble(params.kappa1)
                                             * params.nu)
    with np.errstate(over="ignore"):
        w = np.exp((params.kappa2 * (a - S[:-1])).astype(float))
    return float(w[np.argmax(np.abs(w - 1.0))])


# id -> (scaling, (regimes, what they need), limit at s, finite-n value);
# the limit None is lambda_limit, which may need K5
_SWEEPS = {
    "heavy_immigration": ("by_n_inv_theta", _HEAVY, _heavy_limit, _stopped),
    "balanced_strong": ("by_qn", _STRONG, _balanced_limit, _stopped),
    "balanced_weak": ("by_qn", _WEAK, None, _stopped),
    "unstopped_heavy_immigration": ("by_n_inv_theta", _HEAVY, _heavy_limit,
                                    _unstopped),
    "unstopped_balanced": ("by_qn", _THETA_EQ_NU, _balanced_limit,
                           _unstopped),
    "gamma_heavy_immigration": ("by_n_inv_theta", _HEAVY, lambda *_: 1.0,
                                _worst_weight),
    "gamma_balanced": ("by_qn", _THETA_EQ_NU, lambda *_: 1.0, _worst_weight),
}
THEOREMS = tuple(_SWEEPS)


def convergence_sweep(params: LawParams, theorem_id: str, s_grid,
                      n_grid) -> LimitCheck:
    """Deviations of a finite-n quantity from its limit.

    `theorem_id`, one of `THEOREMS`, picks the scaling, the regimes (checked
    before any q work), the limit and the finite-n value.  `gamma_*` set
    the normalized weight at its worst k <= n against 1.  The stopped ids
    share one renewal table; for "balanced_weak" in R5 the K5 constant
    of `lambda_limit` is fitted from its first 10^5 terms, and the table
    then runs to max(n_grid[-1], 10^5).  One q(0) trajectory, to the
    table's length, gives both the table and every q_n(0).
    """
    if theorem_id not in _SWEEPS:
        raise ValueError(f"unknown theorem_id {theorem_id!r}")
    scaling, (allowed, needs), limit_fn, value = _SWEEPS[theorem_id]
    rep = _regime(params, allowed, needs)
    try:        # an n beyond int64 fails the check like any other
        s_grid = np.asarray(s_grid, dtype=float)
        n_grid = np.asarray(n_grid, dtype=int)
        ok = (s_grid.size and n_grid.size
              and np.all(np.isfinite(s_grid) & (s_grid >= 0.0))
              and np.all(n_grid >= 1))
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError("grids need finite s >= 0 and n >= 1, one at least")
    if np.any(np.diff(s_grid) <= 0) or np.any(np.diff(n_grid) <= 0):
        raise ValueError("grids must be strictly increasing")
    fit = limit_fn is None and rep.regime_id == "R5"

    def limit_column(K5):
        return np.array([lambda_limit(params, s, K5) if limit_fn is None
                         else limit_fn(params, rep, s)
                         for s in s_grid.tolist()])

    limit = None if fit else limit_column(None)
    n_max = int(n_grid[-1])
    path = table = None
    if value is _stopped:
        path = _q_steps(params, 0.0, max(n_max, 10 ** 5) if fit else n_max)
        table = _renewal_table(params, path)
    log_x = _log_scales(params, n_grid.tolist(), scaling, path)
    if fit:
        # K5 is the constant of the unconditional survival kappa0*u_n,
        # so the kappa0 in the atom of lambda_limit cancels against it
        limit = limit_column(params.kappa0 * fit_tail(
            table.u[:10 ** 5 + 1], rep).constants["K"])
    computed = np.array([[value(params, rep, table, n, s, _log_q0(s, lx))
                          for s in s_grid.tolist()]
                         for n, lx in zip(n_grid.tolist(), log_x)])
    dev = np.abs(computed - limit[None, :])
    return LimitCheck(theorem_id=theorem_id, s_grid=s_grid, n_grid=n_grid,
                      computed=computed, limit=limit, deviations=dev)
