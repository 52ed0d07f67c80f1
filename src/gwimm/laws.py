"""Offspring, immigration and initial-size laws: exact tables and samplers.

The three families are fixed by their probability generating functions

    F(s)  = s + kappa1 * (1 - s)**(1 + nu)      offspring, critical
    B(s)  = exp(-kappa2 * (1 - s)**theta)       immigration
    G0(s) = 1 - kappa0 * (1 - s)**delta         initial size

All coefficient recurrences below are subtraction-free, and every truncated
table carries its exact tail mass, so downstream mass accounting never has
to rely on "1 minus a sum of floats".
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._num import cumsum_extended, fsum, ratio_cumprod
from .errors import DegenerateThetaError, NonPmfError, OutOfRangeError

# inverse-cdf tables stop at this quantile or this many entries, whichever
# comes first; draws beyond the table fall back to an exact tail walk
_TABLE_QUANTILE = 1.0 - 1e-12
_TABLE_CAP = 1 << 17
_SIBUYA_TABLE = 1024
_ONE = 1 << 53           # a table uniform is a `_keys` integer over _ONE
_GUIDE_BITS = 10         # B: guide buckets per table row, 2**B of them

_HUGE = 1 << 62          # sentinel for astronomically large integer draws
_LGAMMA_LIMIT = 1e3      # above this, lgamma differences lose to Stirling
_SEED_DIRECT = 1e12      # above this, walk steps fall under float resolution
_LOG_SEED_MAX = 64.0     # seed exponent clamp: exp(64) is past _HUGE, finite
_POISSON_LAM_MAX = 1e17  # generator-safe Poisson mean
_LOG_POISSON_LAM_MAX = math.log(_POISSON_LAM_MAX)
_THETA_MIN = 1e-300      # least theta of `stable_positive`: below it
                         # (nearly) every draw leaves the float range


@dataclass(frozen=True)
class LawParams:
    """Validated parameter bundle for the three laws.

    Admissible ranges
    -----------------
    nu, theta        : (0, 1]
    delta            : [smallest normal float, 1]
    kappa0           : (0, 1]
    kappa1           : (0, 1/(1+nu)]   (else the offspring weights are no pmf)
                       and kappa1*nu >= smallest normal float
    kappa2           : (0, inf), finite
    """

    nu: float
    theta: float
    delta: float
    kappa0: float
    kappa1: float
    kappa2: float

    def __post_init__(self):
        for name in ("nu", "theta", "delta"):
            v = float(getattr(self, name))
            if not 0.0 < v <= 1.0:
                raise OutOfRangeError(name, f"0 < {name} <= 1", v)
        # initial-law weights are of order delta: subnormal ones underflow
        if self.delta < sys.float_info.min:
            raise OutOfRangeError("delta", "delta >= smallest normal float",
                                  self.delta)
        if not 0.0 < self.kappa0 <= 1.0:
            raise OutOfRangeError("kappa0", "0 < kappa0 <= 1", self.kappa0)
        if not 0.0 < self.kappa2 < math.inf:
            raise OutOfRangeError("kappa2", "0 < kappa2 < inf", self.kappa2)
        if not self.kappa1 > 0.0:
            raise OutOfRangeError("kappa1", "kappa1 > 0", self.kappa1)
        # kappa1*nu scales the offspring tail and divides the regime's
        # sigma: a subnormal product underflows in both
        if self.kappa1 * self.nu < sys.float_info.min:
            raise OutOfRangeError("kappa1",
                                  "kappa1*nu >= smallest normal float",
                                  self.kappa1)
        if self.kappa1 * (1.0 + self.nu) > 1.0:
            raise NonPmfError("kappa1", "kappa1 <= 1/(1+nu)", self.kappa1)


class Model(str, enum.Enum):
    """The three dynamics: unstopped Z, Z stopped at its first zero, and
    the chain gated on a positive offspring sum (see gwimm.simulate)."""

    UNSTOPPED_Z = "z"
    STOPPED_Z = "stopped"
    GATED_W = "gated"


# ---------------------------------------------------------------------------
# generating functions (closed forms, vectorised over s)

def offspring_pgf(p: LawParams, s):
    s = np.asarray(s, dtype=float)
    return s + p.kappa1 * (1.0 - s) ** (1.0 + p.nu)


def immigration_pgf(p: LawParams, s):
    s = np.asarray(s, dtype=float)
    return np.exp(-p.kappa2 * (1.0 - s) ** p.theta)


def initial_pgf(p: LawParams, s):
    s = np.asarray(s, dtype=float)
    return 1.0 - p.kappa0 * (1.0 - s) ** p.delta


# ---------------------------------------------------------------------------
# exact pmf tables


@dataclass(frozen=True)
class PmfTable:
    """Probabilities on {0, ..., n} together with the exact mass beyond n."""

    probs: np.ndarray
    truncation_mass: float


def offspring_pmf(params: LawParams, nmax: int) -> PmfTable:
    """Offspring law on {0, ..., nmax} with its exact tail mass.

    The weights are p0 = kappa1, p1 = 1 - kappa1*(1+nu),
    p2 = kappa1*(1+nu)*nu/2 and then follow the ratio
    p_{k+1}/p_k = (k-1-nu)/(k+1).  The mass above nmax has the closed
    form p_nmax * (nmax-1-nu)/(1+nu) for nmax >= 2, so the returned
    truncation mass is exact rather than a float complement.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    nu, k1 = params.nu, params.kappa1
    probs = np.zeros(nmax + 1)
    probs[0] = k1
    if nmax >= 1:
        probs[1] = 1.0 - k1 * (1.0 + nu)
    if nmax >= 2:
        probs[2] = k1 * (1.0 + nu) * nu / 2.0
    if nmax >= 3:
        probs[3:] = probs[2] * ratio_cumprod(1.0 + np.longdouble(nu), 2,
                                             nmax)
    if nmax == 0:
        tail = 1.0 - k1
    elif nmax == 1:
        tail = k1 * nu
    else:
        tail = probs[nmax] * (nmax - 1.0 - nu) / (1.0 + nu)
    return PmfTable(probs=probs, truncation_mass=tail)


def initial_pmf(params: LawParams, nmax: int) -> PmfTable:
    """Initial-size law: an atom 1-kappa0 at zero plus a scaled Sibuya law.

    Built from g_1 = kappa0*delta and the ratio g_{k+1}/g_k = (k-delta)/(k+1);
    the mass above nmax is kappa0 * (nmax-delta) * prod_{j<nmax}
    (j-delta)/(j+1) exactly.  This form carries no factor delta, so it
    keeps full relative accuracy where delta is so small that the g_k
    are subnormal; there it rounds to about kappa0, and it is capped at
    kappa0, which the exact mass never exceeds.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    d, k0 = params.delta, params.kappa0
    probs = np.zeros(nmax + 1)
    probs[0] = 1.0 - k0
    if nmax == 0:
        return PmfTable(probs=probs, truncation_mass=k0)
    ratio = np.concatenate(([1.0], ratio_cumprod(d, 1, nmax)))
    probs[1:] = np.longdouble(k0) * d * ratio
    tail = min(k0, float(k0 * (nmax - np.longdouble(d)) * ratio[-1]))
    return PmfTable(probs=probs, truncation_mass=tail)


def immigration_pmf(params: LawParams, nmax: int) -> PmfTable:
    """Immigration law via the exponential-series recurrence.

    With c_k the series coefficients of kappa2*(1 - (1-s)**theta), the
    weights satisfy n*b_n = sum_k k*c_k*b_{n-k}, b_0 = exp(-kappa2).
    Every term is nonnegative, so the recurrence is cancellation-free;
    theta = 1 collapses to the exact Poisson(kappa2) table.  Each step
    sums only up to the last nonzero c_k, which is c_1 at theta = 1; the
    terms left out are exact zeros.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    th, k2 = params.theta, params.kappa2
    b = np.zeros(nmax + 1)
    b[0] = math.exp(-k2)
    if nmax >= 1:
        c = np.zeros(nmax + 1)
        c[1] = k2 * th
        if nmax >= 2:
            c[2:] = c[1] * ratio_cumprod(th, 1, nmax)
        kc = np.trim_zeros(c * np.arange(nmax + 1.0), "b")
        for n in range(1, nmax + 1):
            k = min(n, len(kc) - 1)
            b[n] = np.dot(kc[1:k + 1], b[n - k:n][::-1]) / n
    return PmfTable(probs=b, truncation_mass=max(0.0, 1.0 - fsum(b)))


def offspring_mean_tail(params: LawParams, n: int) -> float:
    """Exact partial-mean tail sum_{k>n} k*p_k of the offspring law.

    Closed form kappa1*(1+nu)*Gamma(n-nu)/(Gamma(1-nu)*Gamma(n)) for n >= 1;
    together with a table sum this pins the critical mean E X = 1 to high
    accuracy without ever summing the infinite series.
    """
    if n < 1:
        return 1.0
    if params.nu == 1.0:
        return 2.0 * params.kappa1 if n == 1 else 0.0
    log_amp = (math.log(params.kappa1 * (1.0 + params.nu))
               - math.lgamma(1.0 - params.nu))
    return math.exp(_log_ratio_gamma(log_amp, 1.0 - params.nu, n - 1))


# ---------------------------------------------------------------------------
# samplers
#
# Strategy: inverse cdf by one integer-key lookup (`_key_table`, `_lookup`);
# the rare draws beyond the table are resolved exactly by inverting the
# closed-form survival function (lgamma anchor + walk with exact ratios).


def _key_table(cdfs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse-cdf table (read-only `keys`, `offs`, `guide`) of the sorted
    cdf rows F_r (float64 or long double, an iterable keyed one row at a
    time), the kernel of every sampler.

    Row r's keys are the integers c_k = ceil(F_r(k) * 2**53) below 2**53.
    For an integer U in [0, 2**53) the count of keys <= U is the least k
    with U / 2**53 < F_r(k): the inverse cdf at u = U / 2**53, and for a
    float64 cdf the count of F_r(k) <= u.  The rows sit in one sorted
    int64 array as (r << 53) + c_k, row r at offs[r]:offs[r+1] (r < 1024),
    so one `searchsorted` serves any mix of rows.  guide[(r << B) + b],
    B = _GUIDE_BITS, is `_guide_row` of row r.
    """
    rows, offs, guides = [], [0], []
    for r, cdf in enumerate(cdfs):
        c = np.ceil(np.asarray(cdf) * _ONE)   # sorted: keep the keys < 2**53
        c = c[:np.searchsorted(c, _ONE)].astype(np.int64)
        # a guide entry is a key count or -1; int16 guides use less cache
        guides.append(_guide_row(c).astype(
            np.int16 if len(c) < 1 << 15 else np.int32))
        offs.append(offs[-1] + len(c))
        c += r << 53
        rows.append(c)
    table = (np.concatenate(rows), np.array(offs, dtype=np.int64),
             np.concatenate(guides))
    for a in table:
        a.flags.writeable = False
    return table


def _guide_row(c: np.ndarray) -> np.ndarray:
    """For each bucket b of the U in [0, 2**53) that share their top
    _GUIDE_BITS bits, the count of the sorted keys `c` that are <= U,
    or -1 where that count is not the same for the whole bucket.

    The count is nondecreasing in U, so it is constant on a bucket
    exactly when the bucket's first and last U give the same count; both
    are counted on the integer keys, so no rounding enters."""
    width = 1 << (53 - _GUIDE_BITS)
    firsts = np.arange(1 << _GUIDE_BITS, dtype=np.int64) * width
    lo = np.searchsorted(c, firsts, side="right")
    hi = np.searchsorted(c, firsts + (width - 1), side="right")
    return np.where(lo == hi, lo, -1)


def _keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """n integer uniforms in [0, 2**53) (int64): the top 53 bits of the
    stream's next n words, the keys u * 2**53 of the n draws
    `rng.random(n)` would make, bit for bit, leaving the stream where
    those draws would leave it."""
    return (rng.bit_generator.random_raw(n) >> 11).view(np.int64)


def _lookup(table, rows, k: np.ndarray) -> np.ndarray:
    """Inverse cdf of the `_key_table` row(s) `rows` (an int or an int64
    array) at the integer uniforms `k` in [0, 2**53) of `_keys`.
    Only the draws in a guide bucket that holds a step of the cdf go on
    to `searchsorted` (Chen & Asau 1974)."""
    keys, offs, guide = table
    x = guide[(rows << _GUIDE_BITS) + (k >> (53 - _GUIDE_BITS))]
    amb = np.nonzero(x < 0)[0]
    x = x.astype(np.int64)
    if amb.size:
        r = rows[amb] if np.ndim(rows) else rows
        x[amb] = np.searchsorted(keys, (r << 53) + k[amb],
                                 side="right") - offs[r]
    return x


@lru_cache(maxsize=64)
def _inverse_cdf_table(pmf, params: LawParams, nmax: int):
    """Length n of the cumulative table of `pmf` up to the _TABLE_QUANTILE,
    the exact mass beyond it, and its `_key_table`."""
    table = pmf(params, nmax)
    cum = cumsum_extended(table.probs)
    stop = min(int(np.searchsorted(cum, _TABLE_QUANTILE)) + 1, len(cum))
    if stop <= nmax:
        # a shorter table is a prefix of the longer one, bit for bit
        table = pmf(params, stop - 1)
    return stop, table.truncation_mass, _key_table([cum[:stop]])


def _draw(table, tail_value, rng: np.random.Generator, size: int,
          lowest: int = 0) -> np.ndarray:
    """Inverse-cdf draws from `table`, conditioned on X >= `lowest` (at
    most the table length n); a draw beyond its last entry is resolved
    exactly by `tail_value(v, n)`, the smallest m >= n with P(X > m) < v.

    The conditioning maps u into [c, 1), c = F(lowest-1) read off its
    stored key ceil(F * 2**53): F itself from lowest = 2 on, where
    F >= P(X <= 1) >= 1/2 lies on the 2**-53 grid, and F rounded up by
    under 2**-53 at lowest = 1.  The complement v = 1 - u, uniform on
    (0, 1 - c], is formed directly, so the tail walk keeps the relative
    precision of v; where c >= 1/2, 1 - v has an exact key.  The key of
    1 - v = 1 is looked up as 2**53 - 1, beyond every cdf value below 1.
    At lowest = n, v is drawn on (0, tail] from the exact tail mass.
    """
    n, tail, keyed = table
    if lowest == n:
        v = tail * (1.0 - rng.random(size))
        x = np.full(size, n, dtype=np.int64)
    elif lowest:
        key = int(keyed[0][lowest - 1])
        v = (1.0 - key / _ONE) * (1.0 - rng.random(size))
        k = np.clip(((1.0 - v) * _ONE).astype(np.int64), key, _ONE - 1)
        # at the engine's lowest (8 or 32) nearly every guide bucket of
        # [c, 1) holds a cdf step, so the guide would only add work
        x = np.searchsorted(keyed[0], k, side="right")
    else:
        k = _keys(rng, size)
        x = _lookup(keyed, 0, k)
    over = np.nonzero(x == n)[0]
    if over.size:
        if tail <= 0.0:
            x[over] = n - 1
        else:
            vo = v[over] if lowest else 1.0 - k[over] / _ONE
            for i, vi in zip(over, vo.tolist()):
                x[i] = tail_value(vi, n)
    return x


def _log_ratio_gamma(log_amp: float, a: float, n: float) -> float:
    """log of S(n) = exp(log_amp) * Gamma(n+a) / Gamma(n+1).

    An lgamma difference is off by about one ulp of lgamma(n), 1e-12 at
    n = 1e3 and growing with n, so beyond _LGAMMA_LIMIT we use the Stirling
    series of the ratio (DLMF 5.11.8) through its n**-3 term, whose
    remainder is below n**-4 / 4: both are good to ~1e-12 in log S.
    """
    if n <= _LGAMMA_LIMIT:
        return log_amp + math.lgamma(n + a) - math.lgamma(n + 1.0)
    b = a * (a - 1.0)
    return (log_amp + (a - 1.0) * math.log(n) + b / (2.0 * n)
            - b * (a - 0.5) / (6.0 * n * n) + b * b / (12.0 * n ** 3))


def _tail_inverse(log_amp: float, a: float, v: float, lo: int) -> int:
    """Smallest integer n >= lo with S(n) < v.

    S(n) = exp(log_amp)*Gamma(n+a)/Gamma(n+1) is decreasing and has the
    exact local ratio S(n+1)/S(n) = (n+a)/(n+1), so after one anchored
    evaluation the walk from the asymptotic seed costs O(1) steps.  Seeds
    past _SEED_DIRECT are returned as-is (clipped at the 2**62 sentinel):
    there a +-1 refinement is below float64 resolution anyway.
    """
    log_v = math.log(v)
    seed = math.exp(min((log_v - log_amp) / (a - 1.0), _LOG_SEED_MAX))
    if seed > _SEED_DIRECT:
        return int(min(seed, float(_HUGE)))
    n = max(int(seed), lo)
    ls = _log_ratio_gamma(log_amp, a, n)
    if ls >= log_v:
        while ls >= log_v:
            ls += math.log((n + a) / (n + 1.0))
            n += 1
    else:
        while n > lo:
            prev = ls - math.log((n - 1.0 + a) / n)
            if prev < log_v:
                ls = prev
                n -= 1
            else:
                break
    return n


def _offspring_tail_value(nu: float, kappa1: float, v: float, lo: int) -> int:
    # P(X > n) = kappa1*nu*Gamma(n-nu)/(Gamma(1-nu)*Gamma(n+1)); at nu = 1
    # it is 0 from n = 2 on, and every table holds 0 and 1 (lo >= 2)
    if nu == 1.0:
        return lo
    log_amp = math.log(kappa1 * nu) - math.lgamma(1.0 - nu)
    return _tail_inverse(log_amp, -nu, v, lo)


def _sibuya_tail_value(delta: float, v: float, lo: int) -> int:
    # P(X > n) = Gamma(n+1-delta)/(Gamma(1-delta)*Gamma(n+1)), about
    # n**-delta.  Where 1 - delta rounds to 1 (delta < 2**-53), the root
    # v**(-1/delta) is past the 2**62 sentinel unless 1 - v < 43*delta
    if 1.0 - delta == 1.0:
        return _HUGE
    return _tail_inverse(-math.lgamma(1.0 - delta), 1.0 - delta, v, lo)


def _offspring_table(nu: float, kappa1: float):
    # one cached table per (nu, kappa1), shared by the sampler and the
    # split; at nu = 1 the law lives on {0, 1, 2}, and building the 2**17
    # table (a 7 MiB transient) would only cut it back to 3 entries
    return _inverse_cdf_table(offspring_pmf,
                              LawParams(nu, 1.0, 1.0, 1.0, kappa1, 1.0),
                              2 if nu == 1.0 else _TABLE_CAP)


def sample_offspring(params: LawParams, rng: np.random.Generator,
                     size: int, lowest: int = 0) -> np.ndarray:
    """Exact offspring draws (int64; values above 2**62 are clipped),
    conditioned on X >= `lowest`.  `lowest` may not exceed the cell count
    of `offspring_split`, which caps it at the inverse-cdf table length."""
    nu, k1 = params.nu, params.kappa1
    table = _offspring_table(nu, k1)
    if not 0 <= lowest <= table[0]:
        raise ValueError(f"lowest={lowest} outside [0, {table[0]}]")
    return _draw(table, lambda v, lo: _offspring_tail_value(nu, k1, v, lo),
                 rng, size, lowest)


@lru_cache(maxsize=64)
def offspring_split(params: LawParams, cells: int) -> np.ndarray:
    """Cell probabilities p_0, ..., p_{k-1}, P(X >= k) of the offspring law
    (cached, read-only).

    k is `cells`, or the length of the sampler's inverse-cdf table where
    that is shorter (a tiny kappa1 or nu near 1 puts the 1 - 1e-12
    quantile below `cells`), so `sample_offspring(..., lowest=k)` can
    draw the tail cell.  The last entry is the exact closed-form tail mass.
    """
    k = min(cells, _offspring_table(params.nu, params.kappa1)[0])
    head = offspring_pmf(params, k - 1)
    pvals = np.append(head.probs, head.truncation_mass)
    pvals.flags.writeable = False
    return pvals


def sample_initial(params: LawParams, rng: np.random.Generator,
                   size: int) -> np.ndarray:
    """Initial-size draws: 0 with probability 1-kappa0, else Sibuya(delta)."""
    u = rng.random(size)
    x = np.zeros(size, dtype=np.int64)
    hit = u < params.kappa0
    n = int(np.count_nonzero(hit))
    if n:
        x[hit] = sample_sibuya(params.delta, rng, n)
    return x


def sample_sibuya(delta: float, rng: np.random.Generator,
                  size: int) -> np.ndarray:
    """Draws with P(X > n) = prod_{j<=n} (1 - delta/j) on {1, 2, ...}."""
    # Sibuya(delta) is the initial law with kappa0 = 1 (empty zero atom)
    table = _inverse_cdf_table(initial_pmf,
                               LawParams(1.0, 1.0, delta, 1.0, 0.5, 1.0),
                               _SIBUYA_TABLE)
    return _draw(table, lambda v, lo: _sibuya_tail_value(delta, v, lo),
                 rng, size)


def sample_immigration(params: LawParams, rng: np.random.Generator,
                       size: int) -> np.ndarray:
    """Immigration draws as a Poisson mixture over a one-sided stable law.

    Conditionally on S ~ stable(theta), a Poisson(kappa2**(1/theta) * S)
    count has exactly the generating function exp(-kappa2*(1-s)**theta).
    theta = 1 short-circuits to plain Poisson(kappa2).  Every other theta
    forms the mean from logs, log lam = (log kappa2 + theta*log S)/theta,
    which is finite before the division: where a small theta sends it to
    -inf or +inf the mean is 0 or the generator cap, its limit law.
    """
    if params.theta == 1.0:
        return rng.poisson(min(params.kappa2, _POISSON_LAM_MAX), size)
    log_lam = math.log(params.kappa2) + _theta_log_stable(params.theta, rng,
                                                          size)
    with np.errstate(over="ignore", under="ignore"):
        log_lam /= params.theta
        np.minimum(log_lam, _LOG_POISSON_LAM_MAX, out=log_lam)
        return rng.poisson(np.exp(log_lam))


def stable_positive(theta: float, rng: np.random.Generator,
                    size: int) -> np.ndarray:
    """One-sided stable(theta) variates with E exp(-l*S) = exp(-l**theta).

    theta must lie in [1e-300, 1) (`_THETA_MIN`).  S leaves the float
    range well above that bound: at theta = 1e-3 about half the draws read
    inf or 0, so `sample_immigration` works with theta*log S instead.
    """
    if not _THETA_MIN <= theta <= 1.0:
        raise OutOfRangeError("theta", "1e-300 <= theta <= 1", theta)
    if theta == 1.0:
        raise DegenerateThetaError(
            "theta = 1 is the deterministic unit mass; no continuous "
            "one-sided stable component exists")
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(_theta_log_stable(theta, rng, size) / theta)


def _theta_log_stable(theta: float, rng: np.random.Generator,
                      size: int) -> np.ndarray:
    """theta*log S for S ~ stable(theta), finite for every 0 < theta < 1,
    where S and log S themselves may leave the float range.

    Uses Kanter's product representation on (0, pi) x Exp(1):

        theta*log S = theta*log sin(theta*u) + (1-theta)*log sin((1-theta)*u)
                      - log sin(u) - (1-theta)*log w,

    with u, w and theta*u clipped at 1e-300, so no sine is 0.
    """
    u = rng.uniform(0.0, math.pi, size)
    w = rng.standard_exponential(size)
    np.clip(u, 1e-300, None, out=u)
    np.clip(w, 1e-300, None, out=w)
    return (theta * np.log(np.sin(np.maximum(theta * u, 1e-300)))
            + (1.0 - theta) * np.log(np.sin((1.0 - theta) * u))
            - np.log(np.sin(u))
            - (1.0 - theta) * np.log(w))
