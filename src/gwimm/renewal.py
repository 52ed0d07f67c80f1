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

a_k <= g0_k, d_k / kappa0 <= g0_k and d_k <= g0_k, so once kappa2 * S_k
passes 1076*log(2) + 1 every weight lies below 2^-1076 and is an exact
0.0 in float64.  Under heavy immigration (theta < nu) S_k grows like
k^(1 - theta/nu), and this happens within a finite prefix: from
k = 70,470 on at nu = delta = 1, theta = 1/2, kappa1 = 1/2, kappa2 = 1.
The weights are formed in extended precision only on that prefix.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapTooSmallError, InsufficientLengthError
from .laws import (LawParams, Model, immigration_pmf, initial_pmf,
                   offspring_pmf)
from .pgf import (QPath, _q_steps, gamma_sequences, q_iterate, theta_sums,
                  theta_tail_bounds)
from ._num import _spectrum, fsum, round_to_float64

_BLOCK = 1024                # terms of u solved directly in extended precision
# kappa2 * S_k past which every weight rounds to 0: 1076*log(2) + 1, where
# g0_k < 2^-1076/e, and one spare nat for the float64 estimate of S_k
_CUT_NATS = 1076.0 * math.log(2.0) + 2.0
_BABY_CAP = 64               # DP baby steps while their rows are short
_FULL_BABY_CAP = 256         # most DP baby steps once their rows are full
_BATCH = 2 ** 18             # coefficients of the blocks of one baby product
_BOUNDARY_TOL = 1e-9         # relative width of every regime boundary
_BALANCED = ("R1", "R2", "R3", "R4", "R5")    # the regimes of theta = nu


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

    The weights are built in extended precision up to the cut of
    `_weight_cut`, past which they are exact zeros (see the module
    docstring), and rounded once to float64, so the table is bit for bit
    the one built over the whole range.  u solves u = f + x*A(x)*u with
    f = d/kappa0, by one route for every n_max (`_solve`), so u[:k] does
    not depend on n_max beyond the last complete doubling level at or
    below k.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return _renewal_table(params, _q_steps(params, 0.0, n_max))


def _weight_cut(params: LawParams, path: QPath) -> int:
    """The first k with E_k >= _CUT_NATS / kappa2, clamped to
    [_BLOCK, n + 1], where E_k is a float64 estimate of S_k =
    sum_{j<k} q_j**theta.  Its roundoff is far below the spare nat of
    _CUT_NATS, so from there on kappa2 * S_k >= 1076*log(2) + 1 and every
    weight rounds to 0.  The block keeps its extended-precision weights,
    so it is never cut."""
    est = np.multiply(path.logs(), params.theta)
    np.exp(est, out=est)
    np.cumsum(est, out=est)                     # est[k] estimates S_{k+1}
    c = 1 + int(np.searchsorted(est, _CUT_NATS / params.kappa2))
    return min(max(c, _BLOCK), len(est))


def _renewal_table(params: LawParams, path: QPath) -> RenewalTable:
    """`build_renewal` on the q(0) trajectory `path`, to its horizon."""
    n1 = len(path.logs())
    c = _weight_cut(params, path)
    path = path.head(c)
    # formed in place, so that no more than four long-double arrays of
    # the prefix are alive at once
    k2 = np.longdouble(params.kappa2)
    qt = path.power(params.theta)
    # g0_k = exp(-kappa2 * S_k), S_0 = 0
    g0 = np.empty(c, dtype=np.longdouble)
    g0[0] = 0.0
    np.cumsum(qt[:-1], out=g0[1:])
    g0 *= -k2
    np.exp(g0, out=g0)
    a = np.multiply(qt, -k2)
    del qt
    np.expm1(a, out=a)
    np.negative(a, out=a)
    a *= g0
    d = np.longdouble(params.kappa0) * g0
    d *= path.power(params.delta)
    del path
    # the block keeps extended-precision weights, copied because rounding
    # works in place; d / kappa0 is divided in extended precision and
    # rounded once, before d itself is, so a subnormal kappa0 costs no
    # digits.  Each weight array is freed as it is rounded, so the FFT
    # levels of the solve do not peak on top of them.
    b = min(n1, _BLOCK)
    f_blk, a_blk = d[:b] / params.kappa0, a[:b].copy()
    f = _rounded(d, n1, params.kappa0)
    d = _rounded(d, n1)
    g0 = _rounded(g0, n1)
    a = _rounded(a, n1)
    return RenewalTable(params=params, gamma0=g0, a=a, d=d,
                        u=_solve(f_blk, a_blk, f, a))


def _rounded(x: np.ndarray, n1: int, divisor: float = 1.0) -> np.ndarray:
    """`round_to_float64(x, divisor)` followed by zeros up to length n1."""
    out = np.zeros(n1)
    out[:len(x)] = round_to_float64(x, divisor)
    return out


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
        au = _spectrum(u[:m], size)     # freed as au is rebound
        au = np.fft.irfft(np.multiply(fa, au, out=au), size)
        hi = _spectrum(f[m:top] + au[m - 1:top - 1], size)
        u[m:top] = np.fft.irfft(fr * hi, size)[:top - m]
        if top < n:
            ar = np.fft.irfft(fa * fr, size)
            hi = _spectrum(ar[m - 1:size - 1], size)
            r = np.concatenate((r, np.fft.irfft(fr * hi, size)[:m]))
        m = size
    return u


def exact_survival(params: LawParams, model, n: int) -> np.ndarray:
    """P(X_k > 0 | X_0 > 0), k = 0..n, under the chosen model, by a route
    that shares no code with the DP step or the simulator.

    stopped: the renewal u of `build_renewal`, which does not depend on
    kappa0.  With p1 the law at kappa0 = 1 (a positive start):
    z: 1 - gamma_k(p1, 0), the closed transform at s = 0;
    gated: the generating function obeys G_k(0) = G_{k-1}(F(0)), so the
    survival is 1 followed by the stopped chain's renewal u on the q(0)
    path shifted by one generation, started at F(0) = kappa1.
    """
    model = Model(model)
    if model is Model.STOPPED_Z:
        return build_renewal(params, n).u
    p1 = dataclasses.replace(params, kappa0=1.0)
    if model is Model.UNSTOPPED_Z:
        return 1.0 - gamma_sequences(p1, 0.0, n).gamma
    if n == 0:
        return np.ones(1)
    return np.r_[1.0, _renewal_table(p1, q_iterate(p1, p1.kappa1, n - 1)).u]


# ---------------------------------------------------------------------------
# truncated-state DP oracle


@dataclass(frozen=True)
class DpDistribution:
    cap: int
    pi: np.ndarray            # (n+1, cap+1) per-generation distributions
    lost_mass: np.ndarray     # cumulative truncated probability, per generation
    model: Model
    # always 0.0, since no step wraps; the benchmark harness still reads it
    alias_bound: float = 0.0


def _times(a: np.ndarray, f: np.ndarray, fz: np.ndarray,
           M: int) -> np.ndarray:
    """a * f mod x^(M+1) for each row of a, of at most M + 1
    coefficients, with fz the rfft of f at a size that holds a[:M] * f.

    That product has at most 2M coefficients, so it does not wrap, and
    a[M] * x^M adds only a[M] * f[0] below x^(M+1)."""
    size = 2 * (fz.shape[-1] - 1)
    la = a.shape[-1]
    out = np.fft.rfft(a[..., :M], size)
    out *= fz
    out = np.fft.irfft(out, size)[..., :min(M + 1, min(la, M) + len(f) - 1)]
    if la > M:
        out[..., M] += a[..., M] * f[0]
    return out


def _composition_plan(F: np.ndarray, M: int, ring: int):
    """The operands of `_compose` that the offspring coefficients F fix
    for a whole run: the rows of F^0..F^(b-1) mod x^(M+1);
    for h = b, 2b, ..., M/4, F^h mod x^(M+1) and its spectrum at the size
    of the level's products; F^(M/2) and its spectrum on the ring; and
    the most blocks of one baby product, about 2^18 coefficients.

    While the rows of F^0..F^63 are shorter than M + 1 (F of low degree,
    as at nu = 1), b = min(64, M/2) and each row is the last one
    convolved with F.  Once they are full, the baby product costs
    M(M + 1) for any b, the rows b FFT products once per call and the
    levels M/b - 1 per generation, so b = min(256, M/2) (32 MiB of rows
    at M = 16384), and rows k..2k-1 are rows 0..k-1 times F^k.  b does
    not depend on the number of generations, so neither does a prefix of
    pi.  F^2h is one FFT squaring of F^h.
    """
    def spectrum(f, la):    # at the least size that holds a[:M] * f
        return np.fft.rfft(f, 1 << (min(la, M) + len(f) - 2).bit_length())

    b = min(_BABY_CAP, M // 2)
    width = min(M + 1, (b - 1) * (len(F) - 1) + 1)
    if width > M:
        b = min(M // 2, _FULL_BABY_CAP)
    rows = np.zeros((b, width))
    rows[0, 0] = 1.0
    batch = max(1, _BATCH // width)
    if width <= M:
        g = rows[0, :1]
        for i in range(1, b + 1):
            g = np.convolve(g, F)[:M + 1]
            if i < b:
                rows[i, :len(g)] = g
    else:
        # in chunks whose FFT temporaries take about one batch of blocks
        g, k, chunk = F, 1, max(1, batch // 8)
        while k < b:
            gz = np.fft.rfft(g, 2 * M)
            for lo in range(0, k, chunk):
                part = rows[lo:min(k, lo + chunk)]
                rows[k + lo:k + lo + len(part)] = _times(part, g, gz, M)
            g = _times(g, g, gz, M)
            k *= 2
    h, levels = b, []
    while h < M // 2:
        levels.append((g, spectrum(g, width)))
        width = min(M + 1, min(width, M) + len(g) - 1)
        g = _times(g, g, spectrum(g, len(g)), M)
        h *= 2
    return rows, levels, (g, np.fft.rfft(g, ring)), batch


def _blocks(c: np.ndarray, plan, M: int, k: int) -> np.ndarray:
    """The block polynomials of the states c, as rows of b, paired level
    by level until k (1 or 2) remain.  Past one batch of rows, the halves
    are reduced to one polynomial each, depth first, so one batch and one
    polynomial per halving are alive at once."""
    rows, levels, _, batch = plan
    if len(c) > batch:
        h = len(c) // 2
        q = np.concatenate((_blocks(c[:h], plan, M, 1),
                            _blocks(c[h:], plan, M, 1)))
        levels = levels[h.bit_length() - 1:]
    else:
        q = c @ rows
    for level in levels:
        if len(q) == k:
            break
        odd = _times(q[1::2], *level, M)    # q_even + F^h * q_odd
        odd[:, :q.shape[1]] += q[::2]
        q = odd
    return q


def _compose(cur: np.ndarray, plan, ring: int) -> np.ndarray:
    """rfft on the ring of a polynomial Q of degree below 2M that agrees
    with sum_{w<M} cur[w+1] * F^w below x^(M+1), M = len(cur) - 1, from
    the operands of `_composition_plan`.

    Q is composed in coefficient space by divide and conquer over blocks
    of b states (Brent & Kung 1978).  Baby step: one matrix product of
    cur[1:], as M/b rows of b, with the rows of F^0..F^(b-1) gives the
    block polynomials q_j = sum_i cur[1 + jb + i] * F^i.  Each level
    h = b, 2b, ..., M/4 pairs the blocks as q_even + F^h * q_odd by one
    batched FFT product (`_times`), cut at M + 1 coefficients.  The top
    level works on the ring: q_0 + F^(M/2) * q_1, with q_1[M] * F^(M/2)[0]
    moved into q_0.  No product wraps.  At nu = 1 the blocks at level h
    have 2h - 1 coefficients, so no product reaches the cut.

    Roundoff: every operand, each q and each F^h, is a nonnegative
    polynomial (to rounding) of l1 norm at most 1.  The FFT products are
    those of the rows, M/(2h) cyclic products at each level h, and one of
    size 4M at the top; with those norms each has the forward error bound
    of Higham (2002, section 24.1).
    """
    M = len(cur) - 1
    q = _blocks(cur[1:].reshape(-1, len(plan[0])), plan, M, 2)
    g, top = plan[2]
    if q.shape[1] > M:
        q[0, M] += q[1, M] * g[0]
        q[1, M] = 0.0
    q0, q1 = np.fft.rfft(q, ring)
    q1 *= top
    q1 += q0
    return q1


def dp_distribution(params: LawParams, model, n: int, M: int = 4096,
                    tol: float = 1e-3) -> DpDistribution:
    """Generation-by-generation law of the chosen model on states {0..M}.

    Each step evaluates the one-step transform at the roots of unity of a
    ring of size 4M, then inverts it, one rule for the three chains: the
    next law is irfft(Bz * (Fz * Q + x)) plus cur[0] - x at state 0.  x
    is 0 for the stopped chain, cur[0] for z (the atom takes immigrants),
    and -P0 for the gated one (P0 = sum_w cur[w] * kappa1^w, the all-zero
    offspring sums, joins the atom with no immigrants).

    The offspring part is F * Q, Q = sum_{w<M} cur[w+1] * F^w, with F
    the offspring law stripped of its trailing exact zeros (three
    coefficients at nu = 1).  States 0..M read no coefficient of F^w past
    x^M, so `_compose` builds Q mod x^(M+1) in coefficient space.  Q has
    degree below 2M and F and B at most M, so the ring never wraps.  A
    step costs O(M log^2 M) while the blocks stay short (nu = 1) and
    O(M^2) once they are full.

    Mass that escapes the truncation is tracked in lost_mass, so
    [sum pi, sum pi + lost] brackets the true probability.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if M < 64 or (M & (M - 1)) != 0:
        raise ValueError("M must be a power of two >= 64")
    model = Model(model)
    ring = 4 * M

    fo = offspring_pmf(params, M)
    bo = immigration_pmf(params, M)
    Fz = np.fft.rfft(fo.probs, ring)
    Bz = np.fft.rfft(bo.probs, ring)
    plan = _composition_plan(np.trim_zeros(fo.probs, "b"), M, ring)

    pi = np.zeros((n + 1, M + 1))
    lost = np.zeros(n + 1)
    g = initial_pmf(params, M)
    pi[0] = g.probs
    lost[0] = g.truncation_mass

    p0pow = params.kappa1 ** np.arange(1.0, M + 1)
    for gen in range(1, n + 1):
        cur = pi[gen - 1]
        acc = _compose(cur, plan, ring)
        acc *= Fz
        if model is Model.STOPPED_Z:
            x = 0.0
        elif model is Model.UNSTOPPED_Z:
            x = cur[0]
        else:
            x = -float(np.dot(cur[1:], p0pow))
        out = np.fft.irfft(Bz * (acc + x), n=ring)[:M + 1]
        np.clip(out, 0.0, None, out=out)
        out[0] += cur[0] - x
        pi[gen] = out
        lost[gen] = max(lost[gen - 1], 1.0 - fsum(out))
        if lost[gen] > tol:
            raise CapTooSmallError(gen, lost[gen], tol)
    return DpDistribution(cap=M, pi=pi, lost_mass=lost, model=model)


def u_dp_curve(params: LawParams, model, n: int, M: int = 4096,
               tol: float = 1e-3) -> tuple[np.ndarray, np.ndarray, DpDistribution]:
    """Per-generation survival brackets (lo, hi) from one conditioned DP run."""
    # given a positive start the initial law is Sibuya(delta), the
    # kappa0 = 1 initial law; building it directly, not as the kappa0 law
    # divided by kappa0, keeps it exact when kappa0 is tiny
    dist = dp_distribution(dataclasses.replace(params, kappa0=1.0), model,
                           n, M, tol=tol)
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


def classify_regime(params: LawParams) -> RegimeReport:
    """Predicted decay of u_n: u_n ~ K * n^(-alpha) * (correction).

    The only test of a regime boundary in the package: theta/nu, delta/nu,
    sigma and sigma + delta/nu are compared with 1, each within relative
    `_BOUNDARY_TOL`, so the regimes do not depend on the scale of nu.
    """
    sigma = params.kappa2 / (params.kappa1 * params.nu)
    ratio = params.theta / params.nu
    rho = params.delta / params.nu

    def close(x: float) -> bool:
        # an overflowed ratio is far from the boundary, not close to it
        return (math.isfinite(x)
                and abs(x - 1.0) <= _BOUNDARY_TOL * max(1.0, x))

    if close(ratio):
        if close(sigma):
            return RegimeReport("R2", 0.0, "inverse-log", sigma)
        if sigma > 1.0:
            return RegimeReport("R1", 0.0, "none", sigma)
        if close(sigma + rho):
            return RegimeReport("R4", 1.0 - sigma, "log", sigma)
        if sigma + rho > 1.0:
            return RegimeReport("R3", 1.0 - sigma, "none", sigma)
        return RegimeReport("R5", rho, "none", sigma)
    if ratio < 1.0:
        return RegimeReport("R0", 0.0, "none", sigma)
    if rho < 1.0 and not close(rho):
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
    the tail sum of q_j^theta.  The grid runs from n = 10 to n_max; the
    exp-decay and convergent branches fit a line to it, so they need two
    grid points, n_max >= 11, and the power branch needs n_max >= 10.
    """
    regime = classify_regime(params)
    least = 10 if regime.regime_id in _BALANCED else 11
    if n_max < least:
        raise InsufficientLengthError(
            f"need n_max >= {least}, got {n_max}")
    nu, th = params.nu, params.theta
    path, _, S = theta_sums(params, 0.0, n_max)
    neglog = float(params.kappa2) * S[:-1]      # -log gamma0_n at n

    ns = np.unique(np.geomspace(max(10, n_max // 10), n_max, 200).astype(int))
    if regime.regime_id == "R0":
        x = ns.astype(float) ** (1.0 - th / nu)
        slope = float(np.polyfit(x, neglog[ns].astype(float), 1)[0])
        c2 = (params.kappa1 ** (-th / nu) * params.kappa2
              * nu ** (1.0 - th / nu) / (nu - th))
        return GammaReport("exp-decay", slope, reference=c2,
                           rel_error=abs(slope - c2) / c2)
    if regime.regime_id in _BALANCED:
        scaled = (np.exp(-neglog[ns].astype(float))
                  * ns.astype(float) ** regime.sigma)
        drift = float((scaled.max() - scaled.min()) / scaled.mean())
        return GammaReport("power", float(scaled[-1]), drift=drift)
    # theta > nu: gamma0 converges to c0 > 0
    J = n_max
    lo_tail, hi_tail = theta_tail_bounds(params, path.log(J))
    interval = (math.exp(-params.kappa2 * (float(S[J]) + hi_tail)),
                math.exp(-params.kappa2 * (float(S[J]) + lo_tail)))
    x = ns.astype(float) ** (1.0 - th / nu)
    intercept = float(np.polyfit(x, neglog[ns].astype(float), 1)[1])
    est = math.exp(-intercept)
    cauchy = abs(math.exp(-float(neglog[J])) -
                 math.exp(-float(neglog[J // 2])))
    return GammaReport("convergent", est, interval=interval, drift=cauchy)
