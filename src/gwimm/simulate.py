"""Exact stochastic simulation of the branching-with-immigration variants.

Three dynamics share one engine.  With L_n the summed offspring of the
previous generation and Y_n the immigration draw:

    UNSTOPPED_Z : X_n = L_n + Y_n always
    STOPPED_Z   : same one-step law, but absorbed at the first X_n = 0
    GATED_W     : X_n = L_n + Y_n if L_n > 0, else 0; absorbing

L_n is drawn without visiting every individual (see `_offspring_sums`).

Replicates run in fixed-size blocks of 8192, each block on its own
counter-derived RNG stream, so results are byte-identical for a given
master seed no matter how many worker threads participate.  A block
steps only its live replicates (at most `cap`, and positive unless the
model is UNSTOPPED_Z), kept in block order: the dead and cap-censored
ones draw nothing, so each generation's draws are the ones a step of
the whole block would make.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateConditioningError, OutOfRangeError
from .laws import (LawParams, Model, offspring_split, sample_immigration,
                   sample_initial, sample_offspring, _ONE, _key_table,
                   _lookup)
from .rng import stream

BLOCK = 8192
_CHUNK = 1 << 22         # per-individual draws processed this many at a time
_SPLIT_CELLS = 32        # K: offspring cells split off by the multinomial
_SUM_ROWS = 256          # W: nu = 1 populations up to W sum by table lookup
_TAIL_IN_ORDER = 2.0 ** -18  # lighter tail cells: the split draws its mode last
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

    At nu = 1 a population w <= _SUM_ROWS draws its sum by inverting the
    exact cdf of a sum of w offspring with one uniform (`_table_sums`).
    Every other population takes one multinomial over the cells
    0, ..., K-1 and a tail cell {X >= K}, K = _SPLIT_CELLS (conditional
    binomials, Devroye 1986, XI.1, vectorised over the replicates; at
    nu = 1 the cells are kappa1, 1 - 2*kappa1 and kappa1, the last one the
    tail cell where kappa1 <= 1e-12), and only the individuals in the tail
    cell are drawn one by one, from X | X >= K, in bounded chunks.  The
    split gives exactly the law of per-individual draws, and the table
    gives it on a 2**-53 grid.

    P(X >= K) falls like K**-(1+nu): about 0.08% of the individuals at
    K = 32 and nu = 1/2.  Populations below the cap 1e4 time the same for
    K from 8 to 32, while K = 64 pays K binomials and a K-wide count row
    for every large population (+10% and +6 MiB on the MIXED benchmark).
    Near the default cap 1e9 the tail draws dominate instead, and K = 32
    halves the time of K = 16 there.
    """
    if params.nu != 1.0:
        return _split_cell_sums(params, rng, pops)
    big = pops > _SUM_ROWS
    if not big.any():
        return _table_sums(params.kappa1, rng, pops)
    sums = np.empty_like(pops)
    sums[~big] = _table_sums(params.kappa1, rng, pops[~big])
    sums[big] = _split_cell_sums(params, rng, pops[big])
    return sums


def _split_cell_sums(params: LawParams, rng: np.random.Generator,
                     pops: np.ndarray) -> np.ndarray:
    pvals = offspring_split(params, _SPLIT_CELLS)
    k = len(pvals) - 1
    if pvals[k] >= _TAIL_IN_ORDER:
        counts = rng.multinomial(pops, pvals)
    else:
        # numpy draws each cell given 1 minus the cells before it, so past
        # the largest cell every probability is off by ~k * 2**-53
        # absolutely; a tiny tail cell needs the largest cell drawn last
        j = int(np.argmax(pvals))
        order = np.r_[:j, j + 1:k + 1, j]
        counts = np.empty((len(pops), k + 1), dtype=np.int64)
        counts[:, order] = rng.multinomial(pops, pvals[order])
    sums = counts[:, :k] @ np.arange(k)
    rows = np.nonzero(counts[:, k])[0]
    if rows.size:
        sums[rows] += _tail_sums(params, rng, counts[rows, k], k)
    return sums


@lru_cache(maxsize=8)
def _sum_table(kappa1: float):
    """`laws._key_table` of the nu = 1 offspring sums L_w, w = 1..W,
    W = _SUM_ROWS, in row w (row 0 is empty).

    Row w is the law of a sum of w offspring, the w-th convolution power
    of (kappa1, 1 - 2*kappa1, kappa1) in long double, summed into its cdf
    at 0, ..., 2w-1 (F_w(2w) = 1 is implied).
    """
    k1 = np.longdouble(kappa1)
    p1 = 1 - 2 * k1
    cdfs = [[]]
    law = np.ones(1, dtype=np.longdouble)
    for w in range(1, _SUM_ROWS + 1):
        nxt = np.zeros(2 * w + 1, dtype=np.longdouble)
        nxt[:-2] += k1 * law
        nxt[1:-1] += p1 * law
        nxt[2:] += k1 * law
        law = nxt
        cdfs.append(np.cumsum(law[:-1]))
    return _key_table(cdfs)


def _table_sums(kappa1: float, rng: np.random.Generator,
                pops: np.ndarray) -> np.ndarray:
    """nu = 1 sums for populations 1 <= w <= W, one uniform each."""
    k = (rng.random(len(pops)) * _ONE).astype(np.int64)
    return _lookup(_sum_table(kappa1), pops, k)


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


def _next_generation(params: LawParams, model: Model,
                     rng: np.random.Generator, pops: np.ndarray) -> np.ndarray:
    """The populations one generation on from the live `pops`, drawn in
    their order (`pops` is nonempty, and positive unless the model is
    UNSTOPPED_Z)."""
    if model is Model.UNSTOPPED_Z:
        lam = np.zeros_like(pops)
        has_kids = pops > 0
        if has_kids.any():
            lam[has_kids] = _offspring_sums(params, rng, pops[has_kids])
        return lam + sample_immigration(params, rng, pops.size)
    lam = _offspring_sums(params, rng, pops)
    if model is Model.GATED_W:
        g = np.nonzero(lam)[0]
        if g.size:
            lam[g] += sample_immigration(params, rng, g.size)
        return lam
    return lam + sample_immigration(params, rng, pops.size)


def _check_cap(cap) -> None:
    if not 1 <= cap <= MAX_CAP:
        raise OutOfRangeError("cap", "1 <= cap <= 2**53", cap)


def _evolve_block(params: LawParams, model: Model, horizon: int, cap: int,
                  rng: np.random.Generator, size: int, scale: float | None):
    """Run one block of replicates; returns the (3, horizon+1) counts of
    replicates positive, never zero so far, and cap-censored per generation,
    and the sums [sum, sum of squares] of exp(-scale * X) over the final
    survivors (None without `scale`).

    Only the live replicates are stepped: their block indices `idx` and
    values `live`, in block order, so every draw is the one a step of the
    whole block would make.  Live means at most `cap`, and positive too
    for the absorbing models.  A replicate past the cap keeps its value
    in `vals` and counts in `frozen`; a dead one drops out.
    """
    vals = sample_initial(params, rng, size)
    absorbing = model is not Model.UNSTOPPED_Z
    frozen = int(np.count_nonzero(vals > cap))
    keep = vals <= cap
    if absorbing:
        keep &= vals > 0
    idx = np.nonzero(keep)[0]
    live = vals[idx]
    ever_zero = None if absorbing else vals == 0
    counts = np.empty((3, horizon + 1), dtype=np.int64)
    for n in range(horizon + 1):
        if n and live.size:
            live = _next_generation(params, model, rng, live)
            keep = live > 0 if absorbing else None
            if live.max() > cap:
                over = live > cap
                vals[idx[over]] = live[over]
                frozen += int(np.count_nonzero(over))
                keep = ~over if keep is None else keep & ~over
            if keep is not None:
                idx, live = idx[keep], live[keep]
            if not absorbing:
                ever_zero[idx[live == 0]] = True
        if absorbing:
            counts[:, n] = (live.size + frozen, live.size + frozen, frozen)
        else:
            counts[:, n] = (np.count_nonzero(live) + frozen,
                            size - np.count_nonzero(ever_zero), frozen)
    lap = None
    if scale is not None:
        final = np.where(vals > cap, vals, 0)
        final[idx] = live
        contrib = np.exp(-scale * final[final > 0].astype(float))
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
    path = [int(cur[0])]
    while len(path) <= horizon and path[-1] <= cap:
        if path[-1] or model is Model.UNSTOPPED_Z:
            cur = _next_generation(params, model, rng, cur)
        path.append(int(cur[0]))
    vals = np.array(path, dtype=np.int64)
    censoring = "cap" if path[-1] > cap else None
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


def sample_life_period(params: LawParams, model, horizon: int, reps: int,
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
