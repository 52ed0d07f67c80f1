"""Exact stochastic simulation of the branching-with-immigration variants.

Three dynamics share one engine.  With L_n the summed offspring of the
previous generation and Y_n the immigration draw:

    UNSTOPPED_Z : X_n = L_n + Y_n always
    STOPPED_Z   : same one-step law, but absorbed at the first X_n = 0
    GATED_W     : X_n = L_n + Y_n if L_n > 0, else 0; absorbing

L_n is drawn without visiting every individual (see `_offspring_sums`).
At nu = 1 a population of at most _SUM_ROWS individuals takes its sum
from one uniform and a cached inverse-cdf table of the w-fold sum, and a
larger one from two binomials.  At nu < 1 one multinomial splits each
population over the first offspring cells and a tail cell, and only the
individuals in the tail cell get their own draws.

Replicates run in fixed-size blocks of 8192, each block on its own
counter-derived RNG stream, so results are byte-identical for a given
master seed no matter how many worker threads participate.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateConditioningError, OutOfRangeError
from .laws import (LawParams, Model, offspring_split, sample_immigration,
                   sample_initial, sample_offspring)
from .rng import stream

BLOCK = 8192
_CHUNK = 1 << 22         # per-individual draws processed this many at a time
_SPLIT_CELLS = 32        # K: offspring cells split off by the multinomial
_SUM_ROWS = 256          # W: nu = 1 populations up to W sum by table lookup;
                         # W <= 1023 keeps the keys (w << 53) + c in int64
_GUIDE_BITS = 10         # B: guide buckets per table row, 2**B of them
_ONE = 1 << 53           # rng.random draws are multiples of 1 / _ONE
DEFAULT_CAP = 10 ** 9
# largest cap: populations, offspring sums and immigrant counts of a
# replicate below it stay far from the int64 limit 2**63
MAX_CAP = 2 ** 53


@dataclass(frozen=True)
class Trajectory:
    """One simulated path.

    `life` is the first index with a zero population, or None when the path
    was censored first; `censoring` is then "horizon" or "cap".
    """

    values: np.ndarray
    life: int | None
    model: Model
    censoring: str | None = None


@dataclass
class BatchStats:
    """Accumulated Monte Carlo output, deterministic for a fixed seed."""

    reps: int
    seed: int
    survival_counts: np.ndarray        # replicates with X_n > 0, per generation
    censored: int = 0
    censored_counts: np.ndarray | None = None       # cap-censored by gen n

    def survival(self) -> np.ndarray:
        return self.survival_counts / self.reps

    def survival_se(self) -> np.ndarray:
        p = self.survival()
        return np.sqrt(p * (1.0 - p) / self.reps)


def _offspring_sums(params: LawParams, rng: np.random.Generator,
                    pops: np.ndarray) -> np.ndarray:
    """Summed offspring for each population in `pops` (entries >= 1).

    nu = 1: a population w <= _SUM_ROWS draws its sum by inverting the
    exact cdf of a sum of w offspring with one uniform (`_table_sums`);
    a larger one draws its cell counts with two binomials.

    nu < 1: one multinomial per population draws the counts of the cells
    0, ..., K-1 and of a tail cell {X >= K}, K = _SPLIT_CELLS (conditional
    binomials, Devroye 1986, XI.1, vectorised over the replicates), and
    only the individuals in the tail cell are drawn one by one, from
    X | X >= K, in bounded chunks.  The splits give exactly the law of
    per-individual draws, and the table gives it on a 2**-53 grid.

    P(X >= K) falls like K**-(1+nu): about 0.08% of the individuals at
    K = 32 and nu = 1/2.  Populations below the cap 1e4 time the same for
    K from 8 to 32, while K = 64 pays K binomials and a K-wide count row
    for every large population (+10% and +6 MiB on the MIXED benchmark).
    Near the default cap 1e9 the tail draws dominate instead, and K = 32
    halves the time of K = 16 there.
    """
    if params.nu == 1.0:
        big = pops > _SUM_ROWS
        if not big.any():
            return _table_sums(params.kappa1, rng, pops)
        sums = np.empty_like(pops)
        sums[~big] = _table_sums(params.kappa1, rng, pops[~big])
        sums[big] = _split_sums(params.kappa1, rng, pops[big])
        return sums
    pvals = offspring_split(params, _SPLIT_CELLS)
    k = len(pvals) - 1
    counts = rng.multinomial(pops, pvals)
    sums = counts[:, :k] @ np.arange(k)
    rows = np.nonzero(counts[:, k])[0]
    if rows.size:
        sums[rows] += _tail_sums(params, rng, counts[rows, k], k)
    return sums


def _split_sums(kappa1: float, rng: np.random.Generator,
                pops: np.ndarray) -> np.ndarray:
    """nu = 1 sums from the counts of the cells 2 and 1: two binomials,
    one where the cell 1 is empty (kappa1 = 1/2)."""
    p1 = 1.0 - 2.0 * kappa1
    n2 = rng.binomial(pops, kappa1)
    if p1 == 0.0:
        return 2 * n2
    return 2 * n2 + rng.binomial(pops - n2, p1 / (1.0 - kappa1))


@lru_cache(maxsize=8)
def _sum_table(kappa1: float):
    """Inverse-cdf table of the nu = 1 offspring sums L_w, w = 1..W,
    W = _SUM_ROWS (cached, read-only arrays `keys`, `offs`, `guide`).

    Row w is the law of a sum of w offspring, the w-th convolution power
    of (kappa1, 1 - 2*kappa1, kappa1) in long double, summed into its cdf
    F_w.  Its keys are the integers c_k = ceil(F_w(k) * 2**53) below 2**53
    (k < 2w, so c_2w = 2**53 is implied).  For an integer U in
    [0, 2**53), the count of keys <= U is the least k with U < c_k, that
    is with U / 2**53 < F_w(k): the inverse cdf at u = U / 2**53.  The
    rows sit in one sorted int64 array as (w << 53) + c_k, row w at
    offs[w]:offs[w+1], so one `searchsorted` serves any mix of rows.

    guide[(w << B) + b], B = _GUIDE_BITS, is `_guide_row` of row w.
    """
    k1 = np.longdouble(kappa1)
    p1 = 1 - 2 * k1
    one = np.longdouble(_ONE)
    guide = np.full((_SUM_ROWS + 1, 1 << _GUIDE_BITS), -1, dtype=np.int16)
    rows, offs = [], np.zeros(_SUM_ROWS + 2, dtype=np.int64)
    law = np.ones(1, dtype=np.longdouble)
    for w in range(1, _SUM_ROWS + 1):
        nxt = np.zeros(2 * w + 1, dtype=np.longdouble)
        nxt[:-2] += k1 * law
        nxt[1:-1] += p1 * law
        nxt[2:] += k1 * law
        law = nxt
        c = np.ceil(np.cumsum(law[:-1]) * one)
        c = c[c < one].astype(np.int64)       # a prefix: the cdf is sorted
        guide[w] = _guide_row(c)
        offs[w + 1] = offs[w] + len(c)
        rows.append((w << 53) + c)
    keys = np.concatenate(rows)
    guide = guide.ravel()
    for a in (keys, offs, guide):
        a.flags.writeable = False
    return keys, offs, guide


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


def _table_sums(kappa1: float, rng: np.random.Generator,
                pops: np.ndarray) -> np.ndarray:
    """nu = 1 sums for populations 1 <= w <= W, one uniform each, exact
    in law up to the 2**-53 grid of `_sum_table`'s cdf keys.  Only the
    draws in a guide bucket that holds a step of the cdf go on to
    `searchsorted`: 0.6% of them in the Monte Carlo of regime R3."""
    keys, offs, guide = _sum_table(kappa1)
    u = rng.random(len(pops))
    # floor(u * 2**B) is the top B bits of U = u * 2**53, both exact
    x = guide[(pops << _GUIDE_BITS)
              + (u * (1 << _GUIDE_BITS)).astype(np.int64)].astype(np.int64)
    amb = np.nonzero(x < 0)[0]
    if amb.size:
        w = pops[amb]
        x[amb] = np.searchsorted(
            keys, (w << 53) + (u[amb] * _ONE).astype(np.int64),
            side="right") - offs[w]
    return x


def _tail_sums(params: LawParams, rng: np.random.Generator,
               tails: np.ndarray, lowest: int) -> np.ndarray:
    """Summed draws of X | X >= `lowest` for each count in `tails`
    (entries >= 1), taken _CHUNK at a time so memory stays bounded."""
    ends = np.cumsum(tails)
    starts = ends - tails
    total = int(ends[-1])
    sums = np.zeros(len(tails), dtype=np.int64)
    pos = 0
    while pos < total:
        m = min(_CHUNK, total - pos)
        draws = sample_offspring(params, rng, m, lowest)
        i0 = int(np.searchsorted(ends, pos, side="right"))
        i1 = int(np.searchsorted(ends, pos + m - 1, side="right"))
        seg = (np.maximum(starts[i0:i1 + 1], pos) - pos).astype(np.intp)
        sums[i0:i1 + 1] += np.add.reduceat(draws, seg)
        pos += m
    return sums


def _next_generation(params: LawParams, model: Model, cap: int,
                     rng: np.random.Generator, vals: np.ndarray,
                     frozen: np.ndarray) -> None:
    """Advance every active replicate one generation, in place."""
    if model is Model.UNSTOPPED_Z:
        active = ~frozen
    else:
        active = (vals > 0) & ~frozen
    idx = np.nonzero(active)[0]
    if not idx.size:
        return
    pops = vals[idx]
    lam = np.zeros(idx.size, dtype=np.int64)
    has_kids = pops > 0
    if np.any(has_kids):
        lam[has_kids] = _offspring_sums(params, rng, pops[has_kids])
    if model is Model.GATED_W:
        nxt = np.zeros(idx.size, dtype=np.int64)
        g = np.nonzero(lam > 0)[0]
        if g.size:
            nxt[g] = lam[g] + sample_immigration(params, rng, g.size)
    else:
        nxt = lam + sample_immigration(params, rng, idx.size)
    vals[idx] = nxt
    frozen[idx[nxt > cap]] = True


def _check_cap(cap) -> None:
    if not 1 <= cap <= MAX_CAP:
        raise OutOfRangeError("cap", "1 <= cap <= 2**53", cap)


def _evolve_block(params: LawParams, model: Model, horizon: int, cap: int,
                  rng: np.random.Generator, size: int, scale: float | None):
    """Run one block of replicates; returns the (3, horizon+1) counts of
    replicates positive, never zero so far, and cap-censored per generation,
    and the sums [sum, sum of squares] of exp(-scale * X) over the final
    survivors (None without `scale`)."""
    vals = sample_initial(params, rng, size)
    frozen = vals > cap                          # cap-censored, kept as-is
    ever_zero = np.zeros(size, dtype=bool)
    counts = np.empty((3, horizon + 1), dtype=np.int64)
    for n in range(horizon + 1):
        if n:
            _next_generation(params, model, cap, rng, vals, frozen)
        ever_zero |= vals == 0
        counts[:, n] = (np.count_nonzero(vals > 0),
                        size - np.count_nonzero(ever_zero),
                        np.count_nonzero(frozen))
    lap = None
    if scale is not None:
        contrib = np.exp(-scale * vals[vals > 0].astype(float))
        lap = np.array([contrib.sum(), np.square(contrib).sum()])
    return counts, lap


def _run_batch(params: LawParams, model, horizon: int, reps: int, seed: int,
               threads: int | None, cap: int = DEFAULT_CAP,
               scale: float | None = None):
    """Counts of `_evolve_block` summed over the blocks, and the Laplace
    sums added exactly (None without `scale`)."""
    model = Model(model)
    _check_cap(cap)
    nblocks = (reps + BLOCK - 1) // BLOCK
    sizes = [min(BLOCK, reps - i * BLOCK) for i in range(nblocks)]

    def one(i: int):
        return _evolve_block(params, model, horizon, cap,
                             stream(seed, i), sizes[i], scale)

    if threads is None or threads <= 1 or nblocks == 1:
        results = [one(i) for i in range(nblocks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(nblocks)))

    counts = np.sum([r[0] for r in results], axis=0)
    lap = None
    if scale is not None:
        lap = np.array([math.fsum(r[1][i] for r in results) for i in (0, 1)])
    return counts, lap


def simulate(params: LawParams, model, horizon: int, cap: int = DEFAULT_CAP,
             rng: np.random.Generator | None = None) -> Trajectory:
    """Simulate a single trajectory up to `horizon` generations."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    model = Model(model)
    _check_cap(cap)
    if rng is None:
        rng = stream(0, 0)
    # a path absorbed at zero draws nothing more; a capped one stops
    cur = sample_initial(params, rng, 1)
    frozen = cur > cap
    path = [int(cur[0])]
    while len(path) <= horizon and not frozen[0]:
        _next_generation(params, model, cap, rng, cur, frozen)
        path.append(int(cur[0]))
    vals = np.array(path, dtype=np.int64)
    censoring = "cap" if frozen[0] else None
    zeros = np.nonzero(vals == 0)[0]
    life = int(zeros[0]) if zeros.size else None
    if life is None and censoring is None:
        censoring = "horizon"
    return Trajectory(values=vals, life=life, model=model, censoring=censoring)


def _batch_stats(params: LawParams, model, horizon: int, reps: int,
                 seed: int, threads: int | None, cap: int,
                 row: int) -> BatchStats:
    if reps < 1:
        raise ValueError("reps must be >= 1")
    counts, _ = _run_batch(params, model, horizon, reps, seed, threads, cap)
    return BatchStats(reps=reps, seed=seed, survival_counts=counts[row],
                      censored=int(counts[2, -1]), censored_counts=counts[2])


def estimate_survival(params: LawParams, model, horizon: int, reps: int,
                      seed: int, threads: int | None = None,
                      cap: int = DEFAULT_CAP) -> BatchStats:
    """Empirical survival curve: counts of X_n > 0 per generation.

    Cap-censored replicates keep counting as alive (the chance that a
    population above `cap` dies within a desk-scale horizon is negligible;
    the censored count is reported so the bias is visible).
    """
    return _batch_stats(params, model, horizon, reps, seed, threads, cap, 0)


def sample_life_period(params: LawParams, model, reps: int, horizon: int,
                       seed: int, threads: int | None = None,
                       cap: int = DEFAULT_CAP) -> BatchStats:
    """Empirical tail of the life period: counts of {no zero through n}.

    For the absorbing variants this coincides with estimate_survival;
    for UNSTOPPED_Z it differs (the process can revive after a zero).
    """
    return _batch_stats(params, model, horizon, reps, seed, threads, cap, 1)


@dataclass(frozen=True)
class LaplaceEstimate:
    value: float
    se: float
    survivors: int
    censored: int


def conditional_laplace_mc(params: LawParams, model, n: int, scale: float,
                           reps: int, seed: int,
                           threads: int | None = None,
                           cap: int = DEFAULT_CAP) -> LaplaceEstimate:
    """Monte Carlo estimate of E[exp(-scale * X_n) | X_n > 0]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if scale < 0.0:
        raise ValueError("scale must be nonnegative")
    counts, lap = _run_batch(params, model, n, reps, seed, threads, cap,
                             scale=scale)
    survivors = int(counts[0, -1])
    if survivors == 0:
        raise DegenerateConditioningError(
            f"no replicate of {reps} survived to generation {n}")
    mean = lap[0] / survivors
    var = max(lap[1] / survivors - mean * mean, 0.0)
    se = math.sqrt(var / survivors)
    return LaplaceEstimate(value=mean, se=se, survivors=survivors,
                           censored=int(counts[2, -1]))
