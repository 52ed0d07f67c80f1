"""Survival sequence via the renewal recurrence, with an independent
truncated-state dynamic-programming oracle, the tail-regime classifier,
and asymptotics of the no-immigration weights gamma_n^(0).

Everything here works from the extinction sequence q_n = q_n(0) of the
offspring iteration.  Writing g0_k = gamma_k^(0) = exp(-kappa2 *
sum_{j<k} q_j^theta) for the probability that no immigrant arrives along
k surviving generations, the survival weights

    a_k = g0_k * (1 - exp(-kappa2 * q_k^theta))
    d_k = kappa0 * g0_k * q_k^delta

drive  u_n = d_n / kappa0 + sum_{k<n} a_k * u_{n-1-k},  u_0 = 1,
the probability that the population stays positive through generation n
given a positive start.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (CapTooSmallError, InsufficientLengthError,
                     WrongRegimeError)
from .laws import (LawParams, Model, immigration_pmf, initial_pmf,
                   offspring_pmf)
from .pgf import theta_sums, theta_tail_bounds
from ._num import _spectrum, ext_power, fsum, round_to_float64

_BLOCK = 1024                # terms of u solved directly in extended precision
_ALIAS_EXPONENT = 48.0       # evaluation point 1 + c/ring for wrap-around bound
_BABY_STEPS = 16             # powers Fz^1..Fz^b in the DP table; divides every M
_GIANT_CHUNK = 8             # block polynomials formed per matrix product


# ---------------------------------------------------------------------------
# renewal table


@dataclass(frozen=True)
class RenewalTable:
    params: LawParams
    gamma0: np.ndarray       # gamma_k^(0), k = 0..n_max
    a: np.ndarray
    d: np.ndarray
    u: np.ndarray


def build_renewal(params: LawParams, n_max: int) -> RenewalTable:
    """Tabulate gamma0, a, d and the survival sequence u up to n_max.

    The weights are built in extended precision and rounded once to
    float64.  u solves u = f + x*A(x)*u with f = d/kappa0, by one route
    for every n_max (`_solve`), so u[:k] does not depend on n_max beyond
    the last complete doubling level at or below k.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    q, qt, S = theta_sums(params, 1.0, n_max)
    g0 = np.exp(-np.longdouble(params.kappa2) * S[:-1])
    a = g0 * (-np.expm1(-np.longdouble(params.kappa2) * qt))
    d = np.longdouble(params.kappa0) * g0 * ext_power(q, params.delta)
    del q, qt, S
    # the block keeps extended-precision weights, copied because rounding
    # works in place; d / kappa0 is divided in extended precision and
    # rounded once, before d itself is, so a subnormal kappa0 costs no
    # digits.  No other extended-precision array outlives this, so the
    # FFT levels of the solve do not peak on top of them.
    b = min(n_max + 1, _BLOCK)
    f_blk, a_blk = d[:b] / params.kappa0, a[:b].copy()
    f = round_to_float64(d, params.kappa0)
    g0, a, d = (round_to_float64(x) for x in (g0, a, d))
    return RenewalTable(params=params, gamma0=g0, a=a, d=d,
                        u=_solve(f_blk, a_blk, f, a))


def _solve_direct(f: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The first len(f) terms of u = f + x*A*u by direct convolution, in
    extended precision."""
    u = np.empty(len(f), dtype=np.longdouble)
    u[0] = f[0]
    for k in range(1, len(f)):
        u[k] = f[k] + np.dot(a[:k], u[k - 1::-1])
    return u


def _solve(f_blk: np.ndarray, a_blk: np.ndarray, f: np.ndarray,
           a: np.ndarray) -> np.ndarray:
    """The first len(f) terms of u = f + x*A*u, as float64.

    The first b = len(f_blk) terms come from the extended-precision
    weights f_blk, a_blk by direct convolution, and so do those of
    R = 1/(1 - x*A), the renewal sequence of a.  The float64 f and a
    drive the rest, by doubling levels m = b, 2b, ...: since u[:m] has no
    term of degree >= m, one Karp-Markstein step (Karp & Markstein 1997)
    gives

        u[m:2m] = R[:m] * (f + x*A*u[:m])[m:2m]
        R[m:2m] = R[:m] * (x*A*R[:m])[m:2m]

    mod x^m.  Each product is cyclic of size 2m: A*u[:m] wraps only into
    coefficients below m - 1, which are not read, and the others never
    wrap.  The last level is cut at len(f).  Every term is a sum of
    nonnegative products, and a complete level reads only complete
    levels, so a prefix of u does not depend on len(f).
    """
    n, b = len(f), len(f_blk)
    u = np.empty(n)
    # u is nonincreasing; where it is flat below extended precision the
    # computed values jitter, and their running minimum is no further
    # from the true u than the largest error before it
    u[:b] = np.minimum.accumulate(_solve_direct(f_blk, a_blk))
    if n == b:
        return u
    unit = np.zeros(b, dtype=np.longdouble)
    unit[0] = 1.0
    r = _solve_direct(unit, a_blk).astype(float)
    m = b
    while m < n:
        size, top = 2 * m, min(2 * m, n)
        fa = _spectrum(a[:size], size)
        fr = _spectrum(r, size)
        au = np.fft.irfft(fa * _spectrum(u[:m], size), size)
        hi = _spectrum(f[m:top] + au[m - 1:top - 1], size)
        u[m:top] = np.fft.irfft(fr * hi, size)[:top - m]
        if top < n:
            ar = np.fft.irfft(fa * fr, size)
            hi = _spectrum(ar[m - 1:size - 1], size)
            r = np.concatenate((r, np.fft.irfft(fr * hi, size)[:m]))
        m = size
    return u


# ---------------------------------------------------------------------------
# truncated-state DP oracle


@dataclass(frozen=True)
class DpDistribution:
    cap: int
    pi: np.ndarray            # (n+1, cap+1) per-generation distributions
    lost_mass: np.ndarray     # cumulative truncated probability, per generation
    model: Model
    alias_bound: float        # wrap-around contamination bound (0 when nu = 1)


def _log_poly_at(logc: np.ndarray, logx: float) -> float:
    """log of sum_k exp(logc[k]) * x^k, all coefficients nonnegative."""
    k = np.arange(len(logc))
    return float(np.logaddexp.reduce(logc + k * logx))


def dp_distribution(params: LawParams, model, n: int, M: int = 4096,
                    tol: float = 1e-3,
                    init: tuple[np.ndarray, float] | None = None
                    ) -> DpDistribution:
    """Generation-by-generation law of the chosen model on states {0..M}.

    Each step evaluates the one-step transform at the roots of unity of a
    ring of size 4M, then inverts it.  The offspring part
    sum_{w=1..M} pi[w] * Fz^w is evaluated by baby and giant steps
    (Paterson & Stockmeyer 1973): a table of the powers Fz^1..Fz^b,
    b = 16, is built once per call; one real matrix product of the states
    (as M/b rows of b) with that table gives the M/b block polynomials;
    a Horner pass in Fz^b over the blocks, top down, combines them.  The
    product is formed 8 blocks at a time into a reused buffer, so it
    never holds all M/b rows: at M = 4096 the table takes 2 MiB and the
    buffer 1 MiB.  Each step does O(M^2) work, almost all of it in the
    matrix product.  Mass that escapes the truncation is tracked in
    lost_mass, so [sum pi, sum pi + lost] brackets the true probability.

    For nu = 1 the step polynomial has degree at most 3M < 4M, so the
    ring never wraps; for nu < 1 a rigorous wrap-around bound (evaluation
    of the nonnegative step polynomial at a real point > 1) accumulates
    in alias_bound.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if M < 64 or (M & (M - 1)) != 0:
        raise ValueError("M must be a power of two >= 64")
    model = Model(model)
    ring = 4 * M

    fo = offspring_pmf(params, M)
    bo = immigration_pmf(params, M)
    fpad = np.zeros(ring)
    fpad[:M + 1] = fo.probs
    bpad = np.zeros(ring)
    bpad[:M + 1] = bo.probs
    Fz = np.fft.rfft(fpad)
    Bz = np.fft.rfft(bpad)

    pi = np.zeros((n + 1, M + 1))
    lost = np.zeros(n + 1)
    if init is None:
        g = initial_pmf(params, M)
        pi[0] = g.probs
        lost[0] = g.truncation_mass
    else:
        pi[0], lost[0] = init

    track_alias = params.nu < 1.0
    alias = 0.0
    if track_alias:
        logx = math.log1p(_ALIAS_EXPONENT / ring)
        with np.errstate(divide="ignore"):
            logF = _log_poly_at(np.log(fo.probs), logx)
            logB = _log_poly_at(np.log(bo.probs), logx)

    powers = np.empty((_BABY_STEPS, len(Fz)), dtype=complex)
    powers[0] = Fz
    for j in range(1, _BABY_STEPS):
        np.multiply(powers[j - 1], Fz, out=powers[j])
    giant = powers[-1]
    table = powers.view(float)                 # (b, 2 * (2M + 1)) real
    blocks = M // _BABY_STEPS
    buf = np.empty((min(_GIANT_CHUNK, blocks), table.shape[1]))

    p0pow = params.kappa1 ** np.arange(1.0, M + 1)
    for gen in range(1, n + 1):
        cur = pi[gen - 1]
        coef = cur[1:].reshape(blocks, _BABY_STEPS)
        acc = np.zeros(len(Fz), dtype=complex)
        for top in range(blocks, 0, -len(buf)):   # len(buf) divides blocks
            np.matmul(coef[top - len(buf):top], table, out=buf)
            for row in buf.view(complex)[::-1]:
                acc *= giant
                acc += row
        if model is Model.STOPPED_Z:
            spec = Bz * acc
            atom = cur[0]
        elif model is Model.UNSTOPPED_Z:
            spec = Bz * (acc + cur[0])
            atom = 0.0
        else:
            P0 = float(np.dot(cur[1:], p0pow))
            spec = Bz * (acc - P0)
            atom = cur[0] + P0
        out = np.fft.irfft(spec, n=ring)[:M + 1]
        np.clip(out, 0.0, None, out=out)
        out[0] += atom
        pi[gen] = out
        lost[gen] = max(lost[gen - 1], 1.0 - fsum(out))
        if track_alias:
            with np.errstate(divide="ignore"):
                logpi = np.log(cur)
            w = np.arange(M + 1)
            logS = float(np.logaddexp.reduce(logpi + w * logF))
            alias += math.exp(logB + logS - ring * logx)
        if lost[gen] > tol:
            raise CapTooSmallError(gen, lost[gen], tol)
    return DpDistribution(cap=M, pi=pi, lost_mass=lost, model=model,
                          alias_bound=alias)


def u_exact_dp(params: LawParams, model, n: int, M: int = 4096,
               tol: float = 1e-3) -> tuple[float, float]:
    """Rigorous bracket for P(alive at generation n | positive start).

    Returns [1 - pi_n(0) - lost_n, 1 - pi_n(0)]; the width never exceeds
    the truncated mass.
    """
    lo, hi, _ = u_dp_curve(params, model, n, M, tol)
    return float(lo[n]), float(hi[n])


def u_dp_curve(params: LawParams, model, n: int, M: int = 4096,
               tol: float = 1e-3) -> tuple[np.ndarray, np.ndarray, DpDistribution]:
    """Per-generation survival brackets (lo, hi) from one conditioned DP run."""
    # given a positive start the initial law is Sibuya(delta), the
    # kappa0 = 1 initial law; building it directly, not as the kappa0 law
    # divided by kappa0, keeps it exact when kappa0 is tiny
    g = initial_pmf(dataclasses.replace(params, kappa0=1.0), M)
    dist = dp_distribution(params, model, n, M, tol=tol,
                           init=(g.probs, g.truncation_mass))
    hi = 1.0 - dist.pi[:, 0]
    lo = hi - dist.lost_mass
    return lo, hi, dist


# ---------------------------------------------------------------------------
# regime classification and tail fitting


@dataclass(frozen=True)
class RegimeReport:
    regime_id: str
    alpha: float | None
    correction: str            # none | log | inverse-log
    sigma: float
    fitted_alpha: float | None = None
    constants: dict = field(default_factory=dict)


def classify_regime(params: LawParams, tol: float = 1e-9,
                    assume: str | None = None) -> RegimeReport:
    """Predicted decay of u_n: u_n ~ K * n^(-alpha) * (correction).

    Pure sign comparisons of (theta vs nu, sigma vs 1, sigma + delta/nu
    vs 1, delta vs nu) with boundary tolerance `tol`.  The interior
    boundaries sigma = 1 and sigma + delta/nu = 1 are measure-zero in
    floating point, so `assume` in {"R2", "R4"} forces the corresponding
    branch after a loose sanity check.
    """
    nu, th, dl = params.nu, params.theta, params.delta
    sigma = params.kappa2 / (params.kappa1 * nu)
    rho = dl / nu

    def close(x: float, y: float) -> bool:
        # an overflowed sigma is far from every boundary, not close to it
        return (math.isfinite(x) and math.isfinite(y)
                and abs(x - y) <= tol * max(1.0, abs(x), abs(y)))

    if assume is not None:
        if assume == "R2":
            if abs(sigma - 1.0) > 1e-6:
                raise WrongRegimeError(f"sigma={sigma} too far from 1 for R2")
            return RegimeReport("R2", 0.0, "inverse-log", sigma)
        if assume == "R4":
            if abs(sigma + rho - 1.0) > 1e-6:
                raise WrongRegimeError(
                    f"sigma+delta/nu={sigma + rho} too far from 1 for R4")
            return RegimeReport("R4", 1.0 - sigma, "log", sigma)
        raise ValueError("assume must be one of 'R2', 'R4'")

    if close(th, nu):
        if close(sigma, 1.0):
            return RegimeReport("R2", 0.0, "inverse-log", sigma)
        if sigma > 1.0:
            return RegimeReport("R1", 0.0, "none", sigma)
        if close(sigma + rho, 1.0):
            return RegimeReport("R4", 1.0 - sigma, "log", sigma)
        if sigma + rho > 1.0:
            return RegimeReport("R3", 1.0 - sigma, "none", sigma)
        return RegimeReport("R5", rho, "none", sigma)
    if th < nu:
        return RegimeReport("R0", 0.0, "none", sigma)
    if dl < nu and not close(dl, nu):
        return RegimeReport("R6", rho, "none", sigma)
    return RegimeReport("UNCOVERED", None, "none", sigma)


def fit_tail(u: np.ndarray, regime: RegimeReport) -> RegimeReport:
    """Least-squares tail read-off of the survival sequence.

    Fits the slope of log u against log n over the last decade (for R4,
    of log(u / log n)), then refines the regime constant K by a two-term
    fit u * n^alpha = K + C * n^(-beta) where the regime pins beta.
    Returns a copy of `regime` with fitted_alpha and constants filled.
    """
    u = np.asarray(u, dtype=float)
    if len(u) < 10 ** 3:
        raise InsufficientLengthError(f"need >= 1000 values, got {len(u)}")
    nmax = len(u) - 1
    n = np.arange(1, nmax + 1, dtype=float)
    v = u[1:]
    dec = n >= nmax / 10.0
    if not np.all(v[dec] > 0.0):
        first = int(np.argmax(~(u > 0.0)))
        raise InsufficientLengthError(
            f"u_{first} = {u[first]:g}: the fitted decade n >= "
            f"{nmax / 10.0:g} needs u_n > 0")
    logn = np.log(n[dec])

    if regime.regime_id == "R4":
        y = np.log(v[dec] / np.log(n[dec]))
    else:
        y = np.log(v[dec])
    slope = np.polyfit(logn, y, 1)[0]
    fitted = -slope

    consts: dict = {}
    sigma = regime.sigma
    beta = None
    if regime.regime_id == "R1":
        beta = sigma - 1.0
    elif regime.regime_id == "R3":
        beta = regime.alpha
    elif regime.regime_id == "R5":
        beta = 1.0 - sigma - regime.alpha
    wide = n >= max(100.0, nmax / 100.0)
    if regime.regime_id == "R2":
        scaled = v[dec] * np.log(n[dec])
        consts["K"] = float(scaled[-1])
        consts["log_drift"] = float(
            (scaled.max() - scaled.min()) / scaled.mean())
    elif beta is not None and beta > 0.0:
        z = v[wide] * n[wide] ** regime.alpha
        basis = np.vstack([np.ones(z.size), n[wide] ** (-beta)]).T
        coef, *_ = np.linalg.lstsq(basis, z, rcond=None)
        consts["K"] = float(coef[0])
        consts["beta"] = beta
    elif regime.alpha is not None:
        z = v[dec] * n[dec] ** regime.alpha
        if regime.regime_id == "R4":
            z = z / np.log(n[dec])
        consts["K"] = float(z[-1])
    return dataclasses.replace(regime, fitted_alpha=float(fitted),
                               constants=consts)


# ---------------------------------------------------------------------------
# asymptotics of gamma_n^(0)


@dataclass(frozen=True)
class GammaReport:
    branch: str                       # exp-decay | power | convergent
    estimate: float                   # slope, c1 proxy, or c0 estimate
    reference: float | None = None    # explicit c2 when theta < nu
    rel_error: float | None = None
    drift: float | None = None
    interval: tuple[float, float] | None = None


def gamma_asymptotics(params: LawParams, n_max: int) -> GammaReport:
    """Numerical read-off of how gamma_n^(0) behaves for large n.

    theta < nu: -log gamma behaves like c2 * n^(1 - theta/nu); the fitted
    slope is compared against the explicit constant.  theta = nu: gamma
    decays like c1 * n^(-sigma); reports the stabilized product and its
    drift over the last decade.  theta > nu: gamma converges; reports an
    extrapolated limit plus a rigorous enclosure from integral bounds on
    the tail sum of q_j^theta.
    """
    nu, th = params.nu, params.theta
    q, _, S = theta_sums(params, 1.0, n_max)
    neglog = float(params.kappa2) * S[:-1]      # -log gamma0_n at n

    ns = np.unique(np.geomspace(max(10, n_max // 10), n_max, 200).astype(int))
    if th < nu and abs(th - nu) > 1e-9:
        x = ns.astype(float) ** (1.0 - th / nu)
        slope = float(np.polyfit(x, neglog[ns].astype(float), 1)[0])
        c2 = (params.kappa1 ** (-th / nu) * params.kappa2
              * nu ** (1.0 - th / nu) / (nu - th))
        return GammaReport("exp-decay", slope, reference=c2,
                           rel_error=abs(slope - c2) / c2)
    if abs(th - nu) <= 1e-9:
        sigma = params.kappa2 / (params.kappa1 * nu)
        scaled = np.exp(-neglog[ns].astype(float)) * ns.astype(float) ** sigma
        drift = float((scaled.max() - scaled.min()) / scaled.mean())
        return GammaReport("power", float(scaled[-1]), drift=drift)
    # theta > nu: gamma0 converges to c0 > 0
    J = n_max
    lo_tail, hi_tail = theta_tail_bounds(params, float(q[J]))
    interval = (math.exp(-params.kappa2 * (float(S[J]) + hi_tail)),
                math.exp(-params.kappa2 * (float(S[J]) + lo_tail)))
    x = ns.astype(float) ** (1.0 - th / nu)
    intercept = float(np.polyfit(x, neglog[ns].astype(float), 1)[1])
    est = math.exp(-intercept)
    cauchy = abs(math.exp(-float(neglog[J])) -
                 math.exp(-float(neglog[J // 2])))
    return GammaReport("convergent", est, interval=interval, drift=cauchy)
