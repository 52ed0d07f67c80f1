"""Exact stochastic simulation of the branching-with-immigration variants.

Three dynamics share one engine.  With L_n the summed offspring of the
previous generation and Y_n the immigration draw:

    UNSTOPPED_Z : X_n = L_n + Y_n always
    STOPPED_Z   : same one-step law, but absorbed at the first X_n = 0
    GATED_W     : X_n = L_n + Y_n if L_n > 0, else 0; absorbing

L_n is drawn without visiting every individual (see `_offspring_sums`).
A population of at most 256 draws its offspring sum with one uniform
from a table of the exact cdfs of sums of w draws from a head kernel
(`_sum_table`).  At nu = 1 the kernel is the offspring law, and at
nu = theta = 1 `_next_generation` draws from rows that fold the Poisson
immigrants in too, so one uniform draws the next value, L_n + Y_n or
the gated one; their Poisson weights are `laws._poisson_pmf`, the
long-double table that the DP's immigration table rounds.  At nu < 1 the
kernel is X | X < 8: a binomial first counts the individuals with
X >= 8, which are drawn one by one, and a population of up to 4096
sums the others as rows of the table, one uniform per 256 of them.
Larger populations, and at nu = 1 those above 256, split their
individuals by one multinomial over the cells 0..31 (0..2 at nu = 1)
and a tail cell, and draw L_n and Y_n apart.

Replicates run in fixed-size blocks of 8192, each block on its own
counter-derived RNG stream, so results are byte-identical for a given
master seed no matter how many worker threads participate.  The block
is the stream unit; the group, up to 8 consecutive blocks stepped in
lockstep, is the work unit: each generation makes one table lookup for
the whole group (at nu < 1, one a block), while every block draws from
its own stream exactly what it would draw alone, in the same order.
Every draw function takes that block form, the group's streams `rngs`
and its block bounds, block b drawing for entries bounds[b]:bounds[b+1]
from rngs[b], and loops over the blocks itself.  Only the live
replicates (at most `cap`, and positive unless the model is
UNSTOPPED_Z) are stepped, kept in block order: the dead and
cap-censored ones draw nothing, so each generation's draws are the ones
a step of the whole block would make.
The three models share one sum table unless it folds immigrants in:
the gate of GATED_W enters the rows only with the immigrants it gates.

`simulate` draws one path, as a group of one block; `estimate_survival`
is the one batch entry.  Its `BatchStats` holds every statistic a block
counts, all from the same paths: the survival row (X_n > 0), the
life-period row (no zero through n) and the cap-censored row, and with
a `scale` the Laplace sums behind `BatchStats.conditional_laplace()`.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateConditioningError, OutOfRangeError
from .laws import (LawParams, Model, offspring_split, sample_immigration,
                   sample_initial, sample_offspring, _ONE, _key_table,
                   _keys, _lookup, _poisson_pmf)
from .rng import stream

BLOCK = 8192
_GROUP = 8               # blocks stepped in lockstep; R3 times alike at 4 to 16
_CHUNK = 1 << 22         # per-individual draws processed this many at a time
_SPLIT_CELLS = 32        # K: offspring cells split off by the multinomial
_SUM_ROWS = 256          # W: populations up to W sum by table lookup
_ROW_REACH = 16 * _SUM_ROWS   # W2: nu < 1 populations up to W2 sum rows
_HEAD_CELLS = 8          # H: nu < 1 offspring cells the table sums over
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


@dataclass(frozen=True)
class BatchStats:
    """One Monte Carlo batch, deterministic for a fixed seed.

    Per generation n = 0..horizon, the replicates with X_n > 0, those
    with no zero through n (the life period's tail; the same row for the
    absorbing models), and those cap-censored by n.  `laplace_sums` is
    [sum, sum of squares] of exp(-scale * X_horizon) over the survivors
    at the horizon, None unless a `scale` was given.
    """

    reps: int
    survival_counts: np.ndarray
    life_counts: np.ndarray
    censored_counts: np.ndarray
    laplace_sums: np.ndarray | None = None

    @property
    def censored(self) -> int:
        return int(self.censored_counts[-1])

    def survival(self) -> np.ndarray:
        return self.survival_counts / self.reps

    def survival_se(self) -> np.ndarray:
        p = self.survival()
        return np.sqrt(p * (1.0 - p) / self.reps)

    def conditional_laplace(self) -> tuple[float, float]:
        """Estimate of E[exp(-scale * X_n) | X_n > 0] at n = horizon and
        its standard error."""
        if self.laplace_sums is None:
            raise ValueError("the batch was run without a scale")
        survivors = int(self.survival_counts[-1])
        if survivors == 0:
            raise DegenerateConditioningError(
                f"no replicate of {self.reps} survived to generation "
                f"{len(self.survival_counts) - 1}")
        mean = self.laplace_sums[0] / survivors
        var = max(self.laplace_sums[1] / survivors - mean * mean, 0.0)
        return mean, math.sqrt(var / survivors)


def _within(bounds: list, mask: np.ndarray) -> list:
    """The block bounds of the entries that `mask` picks out."""
    return np.searchsorted(np.flatnonzero(mask), bounds).tolist()


def _offspring_sums(params: LawParams, rngs: list, bounds: list,
                    pops: np.ndarray) -> np.ndarray:
    """Summed offspring for each population in `pops` (entries >= 1),
    block b's pops[bounds[b]:bounds[b+1]] drawn from its stream rngs[b].

    A population w up to W = _SUM_ROWS at nu = 1, W2 = _ROW_REACH below,
    sums rows of `_sum_table`, whose kernel (`_kernel`) leaves out a cell
    {X >= h}: T ~ Binomial(w, P(X >= h)) individuals fall in it, rows of
    the table sum the other w - T (`_row_sums`: one row up to W, one more
    per W beyond), and the T are drawn from X | X >= h.  The kernel is
    X | X < H, H = _HEAD_CELLS, at nu < 1, and at nu = 1 the offspring
    law, so P(X >= 3) = 0 and w <= W draws one key of row w.
    Every other population takes one multinomial over the cells
    0, ..., K-1 and a tail cell {X >= K}, K = _SPLIT_CELLS (conditional
    binomials, Devroye 1986, XI.1, vectorised over the replicates; at
    nu = 1 the cells are kappa1, 1 - 2*kappa1 and kappa1, the last one the
    tail cell where kappa1 <= 1e-12).  Tail-cell individuals are drawn one
    by one, in bounded chunks (`_tail_sums`).  The split gives exactly the
    law of per-individual draws, and the table gives it on a 2**-53 grid.
    Each block's stream gives its binomials, table keys, top-cell second
    uniforms, split multinomial, split tail draws, then head tail draws.
    Each kind of draw runs over all the blocks before the next, except
    that a block draws its table keys and second uniforms together.

    P(X >= K) falls like K**-(1+nu): about 0.08% of the individuals at
    K = 32 and nu = 1/2, and 0.8% at H = 8.  A head of H cells gives rows
    of (H-1)*w + 1 values: at H = 32 the table takes 0.7 s to build,
    against 0.1 s at 8, and MIXED runs no faster.  On a MIXED block of
    8192 populations the rows cost 0.3-0.4 us a population at w = 300,
    against 2.2-2.8 us for the split, and about 0.7 ns an individual
    more, mostly the tail draws of X >= H: they meet the split between
    w = 4000 and 5000, hence W2.  At nu = 1 three cells make the split
    cheap, so it starts at W.  In the split, K = 64 pays K binomials and
    a K-wide count row for every large population (+10% and +6 MiB on
    the MIXED benchmark), while near the default cap 1e9 the tail draws
    dominate, and K = 32 halves the time of K = 16 there.
    """
    _, h, mass = _kernel(params.nu, params.kappa1)
    big = pops > (_SUM_ROWS if params.nu == 1.0 else _ROW_REACH)
    crossing = big.any()
    small, at = ((pops[~big], _within(bounds, ~big)) if crossing
                 else (pops, bounds))
    tails = np.concatenate([r.binomial(small[a:b], mass)
                            for r, a, b in zip(rngs, at, at[1:])])
    sums = _row_sums(params.kappa1, params.nu, rngs, at, small - tails)
    if crossing:
        split = _split_cell_sums(params, rngs, _within(bounds, big),
                                 pops[big])
    _tail_sums(params, rngs, at, tails, h, sums)
    if not crossing:
        return sums
    out = np.empty_like(pops)
    out[~big], out[big] = sums, split
    return out


def _row_sums(kappa1: float, nu: float, rngs: list, bounds: list,
              heads: np.ndarray) -> np.ndarray:
    """Sums of m draws of the kernel of `_sum_table(kappa1, nu=nu)` for
    each m in `heads` (0 <= m <= W2), block b's from rngs[b].

    m = W*j + r, 1 <= r <= W (j = r = 0 at m = 0), is the sum of j draws
    from row W and one from row r, keyed in that order by
    `_table_sums`, so m <= W draws the one key of row m.  Each block
    spreads its rows into one array, at most W2/W entries a population,
    and sums them back alone, so one block's rows are alive at a time."""
    sums = np.empty_like(heads)
    for r, a, b in zip(rngs, bounds, bounds[1:]):
        if b > a:
            m = heads[a:b]
            j = np.maximum(m - 1, 0) // _SUM_ROWS
            ends = np.cumsum(j + 1)
            rows = np.full(int(ends[-1]), _SUM_ROWS, dtype=np.int64)
            rows[ends - 1] = m - _SUM_ROWS * j
            x = _table_sums(kappa1, [r], [0, rows.size], rows, nu=nu)
            sums[a:b] = np.add.reduceat(x, ends - (j + 1))
            del rows, x     # one block's rows alive at a time
    return sums


def _split_cell_sums(params: LawParams, rngs: list, bounds: list,
                     pops: np.ndarray) -> np.ndarray:
    """Offspring sums of `pops` by one multinomial over the cells of
    `offspring_split(params, _SPLIT_CELLS)`, each block's counts drawn
    and reduced alone.  numpy draws each cell given 1 minus the cells
    before it, which is off by ~k * 2**-53 past the largest cell, so that
    cell is drawn last; the sum is one product of the counts with the
    cell values in that order, the tail cell's 0 topped up by its
    individuals' draws once every block has its counts."""
    pvals = offspring_split(params, _SPLIT_CELLS)
    k = len(pvals) - 1
    j = int(np.argmax(pvals))
    order = np.r_[:j, j + 1:k + 1, j]
    values = np.where(order < k, order, 0)
    tail = np.flatnonzero(order == k)[0]
    sums, tails = np.empty_like(pops), np.empty_like(pops)
    for r, a, b in zip(rngs, bounds, bounds[1:]):
        if b > a:
            counts = r.multinomial(pops[a:b], pvals[order])
            sums[a:b], tails[a:b] = counts @ values, counts[:, tail]
            del counts      # one block's count rows alive at a time
    _tail_sums(params, rngs, bounds, tails, k, sums)
    return sums


@lru_cache(maxsize=8)
def _kernel(nu: float, kappa1: float) -> tuple:
    """The law on 0..d, in long double, that row w of `_sum_table` sums
    w draws of, the cell h it leaves out and P(X >= h) (cached, read-only):
    at nu = 1 the offspring law (k1, 1 - 2*k1, k1), 3 and 0; at nu < 1 the
    offspring law given X < h, h the head cell count of
    `offspring_split(., _HEAD_CELLS)` (1 gives d = 0), and its tail cell."""
    if nu == 1.0:
        k1 = np.longdouble(kappa1)
        kernel, h, mass = np.array([k1, 1 - 2 * k1, k1]), 3, 0.0
    else:
        pvals = offspring_split(LawParams(nu, 1.0, 1.0, 1.0, kappa1, 1.0),
                                _HEAD_CELLS)
        head, mass = pvals[:-1].astype(np.longdouble), pvals[-1]
        kernel, h = head / head.sum(), len(head)
    kernel.flags.writeable = False
    return kernel, h, mass


@lru_cache(maxsize=8)
def _sum_table(kappa1: float, kappa2: float = 0.0, gated: bool = False,
               nu: float = 1.0):
    """`laws._key_table` of the laws of `_fold_laws` for w = 0..W,
    W = _SUM_ROWS, in row w, for the kernel `_kernel(nu, kappa1)` on 0..d.

    Row w is the cdf of that law at 0, ..., d*w+h-1, h = `_head(kappa2)`
    (no key below 2**53 lies past it).  With nothing folded (kappa2 = 0,
    h = 0) row w is the law of a sum of w kernel draws at 0, ..., d*w-1,
    and F_w(d*w) = 1 is implied, as the computed sum may fall short of 1
    by a few long-double ulps; row 0 is empty.  The rows are keyed one
    at a time, so no long-double row outlives its keys.
    """
    kernel = _kernel(nu, kappa1)[0]
    d, h = len(kernel) - 1, _head(kappa2)
    laws = _fold_laws(kernel, kappa2, gated, d * _SUM_ROWS + h)
    return _key_table(np.cumsum(law[:d * w + h])
                      for w, law in enumerate(laws))


def _fold_laws(kernel: np.ndarray, kappa2: float, gated: bool, size: int):
    """Yield for w = 0, 1, ..., W the law on 0..size-1, in long double, of
    the next population from w live individuals: the sum L_w of w draws
    from `kernel`, plus Poisson(kappa2) immigrants (none at kappa2 = 0),
    which a `gated` chain adds only where L_w > 0.  Every term is a sum
    of nonnegative products, and each step only looks back, so every
    value below `size` is exact.  A step works on the support alone,
    which grows by d = len(kernel) - 1 a step.
    """
    pois = np.zeros(size, dtype=np.longdouble)
    b = _poisson_pmf(kappa2)[:size]
    pois[:len(b)] = b
    law, sup = pois, len(b)
    if gated:
        # w = 0 has no offspring and so no immigrants; a first positive
        # sum brings in its immigrants
        law = np.zeros(size, dtype=np.longdouble)
        law[0] = 1
        kin = _convolve(np.r_[0, kernel[1:]], pois)
    for _ in range(_SUM_ROWS + 1):
        yield law
        sup = min(sup + len(kernel) - 1, size)
        src = law[:sup]
        if gated:
            # the atom at 0 (all offspring sums so far 0) has no
            # immigrants; its offspring step enters through `kin`
            atom, src = law[0], src.copy()
            src[0] = 0
        nxt = np.zeros(size, dtype=np.longdouble)
        nxt[:sup] = _convolve(kernel, src)
        if gated:
            nxt += atom * kin
            nxt[0] = atom * kernel[0]
        law = nxt


def _convolve(kernel: np.ndarray, src: np.ndarray) -> np.ndarray:
    """kernel * src on the indices of `src`, the kernel's terms added in
    its order."""
    out = kernel[0] * src
    for j in range(1, len(kernel)):
        out[j:] += kernel[j] * src[:-j]
    return out


@lru_cache(maxsize=8)
def _head(kappa2: float) -> int:
    """The count h of Poisson(kappa2) cdf keys below 2**53: the values
    0..h-1 before the first whose key reaches 2**53 (0 at kappa2 = 0)."""
    keys = np.ceil(np.cumsum(_poisson_pmf(kappa2)) * _ONE)
    return int(np.searchsorted(keys, _ONE))


def _folded(params: LawParams) -> float:
    """The Poisson mean that `_sum_table` folds into its rows for these
    laws, or 0.0 where nothing is folded.

    Folding needs nu = 1 and Poisson immigration (theta = 1), and is done
    while the Poisson head, the values 0..h up to the first whose cdf key
    reaches 2**53 and the cell past them, fits in W entries: h + 2 <= W,
    which holds up to kappa2 ~ 145.  A Poisson median is at least its
    mean minus log 2, so h + 2 > kappa2, and kappa2 >= W is rejected
    before any pmf is formed.
    """
    k2 = params.kappa2
    if (params.nu == 1.0 and params.theta == 1.0 and k2 < _SUM_ROWS
            and _head(k2) + 2 <= _SUM_ROWS):
        return k2
    return 0.0


def _table_sums(kappa1: float, rngs: list, bounds: list, pops: np.ndarray,
                kappa2: float = 0.0, gated: bool = False,
                nu: float = 1.0) -> np.ndarray:
    """Draws from the rows `pops` (0 <= w <= W) of `_sum_table`, one
    uniform each: sums of w kernel draws, plus the folded immigrants.
    Each block draws its keys from its stream, in block order, and one
    lookup serves them all; then each draws its second uniforms.

    The top uniform U = 2**53 - 1 lies past the last key n_w of every
    row, in the cell that holds all the mass beyond it.  A draw there
    takes a second uniform V and is the inverse cdf at (U + V) / 2**53:
    the smallest m >= n_w with P(X > m) < (1 - V) / 2**53 (`_tails`).
    Below the top, (U + V) / 2**53 < 1 - 2**-53 < F(n_w), so the value is
    at most n_w, as the lookup gives it: no value is clipped."""
    blocks = list(zip(rngs, bounds, bounds[1:]))
    k = np.concatenate([_keys(r, b - a) for r, a, b in blocks])
    x = _lookup(_sum_table(kappa1, kappa2, gated, nu), pops, k)
    top = np.nonzero(k == _ONE - 1)[0]
    if top.size:
        for r, a, b in blocks:
            at = top[(top >= a) & (top < b)]
            if at.size:
                v = (1.0 - r.random(at.size)) / _ONE
                for i, vi in zip(at.tolist(), v.tolist()):
                    tails = _tails(kappa1, kappa2, gated, nu, int(pops[i]))
                    x[i] += np.count_nonzero(tails[1:] >= vi)
    return x


@lru_cache(maxsize=64)
def _tails(kappa1: float, kappa2: float, gated: bool, nu: float,
           w: int) -> np.ndarray:
    """P(X >= n_w + j), j = 0, 1, ..., for X of row w of `_sum_table` and
    n_w its key count, summed in long double from the far end of the
    law, which reaches past every Poisson weight that is nonzero as a
    float64.  Formed only when a draw needs it, for that row alone."""
    kernel = _kernel(nu, kappa1)[0]
    d, reach = len(kernel) - 1, len(_poisson_pmf(kappa2))
    offs = _sum_table(kappa1, kappa2, gated, nu)[1]
    laws = _fold_laws(kernel, kappa2, gated, d * _SUM_ROWS + reach)
    law = next(itertools.islice(laws, w, None))
    return np.cumsum(law[offs[w + 1] - offs[w]:d * w + reach][::-1])[::-1]


def _tail_sums(params: LawParams, rngs: list, bounds: list,
               counts: np.ndarray, lowest: int, sums: np.ndarray) -> None:
    """Add to `sums`, in place, the summed draws of X | X >= `lowest` for
    each count in `counts` (entries >= 0), block b's drawn from rngs[b],
    taken _CHUNK at a time so memory stays bounded."""
    for r, a, b in zip(rngs, bounds, bounds[1:]):
        rows = a + np.flatnonzero(counts[a:b])
        if not rows.size:
            continue
        ends = np.cumsum(counts[rows])
        starts = ends - counts[rows]
        total = int(ends[-1])
        pos = 0
        while pos < total:
            m = min(_CHUNK, total - pos)
            draws = sample_offspring(params, r, m, lowest)
            i0 = int(np.searchsorted(ends, pos, side="right"))
            i1 = int(np.searchsorted(ends, pos + m - 1, side="right"))
            seg = (np.maximum(starts[i0:i1 + 1], pos) - pos).astype(np.intp)
            sums[rows[i0:i1 + 1]] += np.add.reduceat(draws, seg)
            pos += m
            del draws       # one chunk's draws alive at a time


def _next_generation(params: LawParams, model: Model, rngs: list,
                     bounds: list, pops: np.ndarray) -> np.ndarray:
    """The populations one generation on from the live `pops`, drawn in
    their order (`pops` is nonempty, and positive unless the model is
    UNSTOPPED_Z), block b's pops[bounds[b]:bounds[b+1]] from its stream
    rngs[b].  Each block draws what it would draw alone, in the same
    order: table keys, second uniforms, the split, immigrants.

    This is the one place that folds immigrants in.  Where `_sum_table`
    can (`_folded`), a population of at most W draws its next value, the
    gated one included, with one uniform of `_table_sums`.  Every other
    population draws its immigrants apart: the positive ones draw their
    offspring in `_offspring_sums` first, and a gated chain brings in
    immigrants only where that sum is positive."""
    kappa2 = _folded(params)
    gated = model is Model.GATED_W
    fold = pops <= _SUM_ROWS if kappa2 else np.zeros(pops.size, dtype=bool)
    if fold.all():
        return _table_sums(params.kappa1, rngs, bounds, pops, kappa2, gated)
    lam = np.zeros_like(pops)
    if fold.any():
        lam[fold] = _table_sums(params.kappa1, rngs, _within(bounds, fold),
                                pops[fold], kappa2, gated)
    apart = ~fold
    kids = apart & (pops > 0)
    if kids.any():
        lam[kids] = _offspring_sums(params, rngs, _within(bounds, kids),
                                    pops[kids])
    if gated:
        apart &= lam > 0
    if apart.any():
        bounds = _within(bounds, apart)
        lam[apart] += np.concatenate([
            sample_immigration(params, r, b - a)
            for r, a, b in zip(rngs, bounds, bounds[1:]) if b > a])
    return lam


def _check_cap(cap) -> None:
    if not 1 <= cap <= MAX_CAP:
        raise OutOfRangeError("cap", "1 <= cap <= 2**53", cap)


def _evolve_group(params: LawParams, model: Model, horizon: int, cap: int,
                  rngs: list, sizes: list, scale: float | None):
    """Run a group of consecutive blocks in lockstep, block b of sizes[b]
    replicates on its stream rngs[b]; returns the (3, horizon+1) counts of
    replicates positive, never zero so far, and cap-censored per
    generation, summed over the group, and per block the sums
    [sum, sum of squares] of exp(-scale * X) over its final survivors
    (None without `scale`).

    The group's replicates sit in one array in block order, block b's at
    starts[b]:starts[b+1].  Only the live ones are stepped: their group
    indices `idx` and values `live`, in that order, block b's at
    live[bounds[b]:bounds[b+1]], so every draw is the one a step of the
    whole block alone would make.  Live means at most `cap`, and
    positive too for the absorbing models.  A replicate past the cap
    keeps its value in `vals` and counts in `frozen`; a dead one drops
    out.
    """
    vals = np.concatenate([sample_initial(params, rng, size)
                           for rng, size in zip(rngs, sizes)])
    starts = np.cumsum([0, *sizes])
    absorbing = model is not Model.UNSTOPPED_Z
    frozen = int(np.count_nonzero(vals > cap))
    keep = vals <= cap
    if absorbing:
        keep &= vals > 0
    idx = np.nonzero(keep)[0]
    live = vals[idx]
    bounds = np.searchsorted(idx, starts).tolist()
    ever_zero = None if absorbing else vals == 0
    counts = np.empty((3, horizon + 1), dtype=np.int64)
    for n in range(horizon + 1):
        if n and live.size:
            live = _next_generation(params, model, rngs, bounds, live)
            keep = live > 0 if absorbing else None
            if live.max() > cap:
                over = live > cap
                vals[idx[over]] = live[over]
                frozen += int(np.count_nonzero(over))
                keep = ~over if keep is None else keep & ~over
            if keep is not None:
                idx, live = idx[keep], live[keep]
                # binary searches in `idx`; `_within` would scan `keep`
                bounds = np.searchsorted(idx, starts).tolist()
            if not absorbing:
                ever_zero[idx[live == 0]] = True
        if absorbing:
            counts[:, n] = (live.size + frozen, live.size + frozen, frozen)
        else:
            counts[:, n] = (np.count_nonzero(live) + frozen,
                            vals.size - np.count_nonzero(ever_zero), frozen)
    laps = None
    if scale is not None:
        final = np.where(vals > cap, vals, 0)
        final[idx] = live
        laps = []
        for a, b in zip(starts[:-1], starts[1:]):
            block = final[a:b]
            contrib = np.exp(-scale * block[block > 0].astype(float))
            laps.append((contrib.sum(), np.square(contrib).sum()))
    return counts, laps


def simulate(params: LawParams, model, horizon: int, cap: int = DEFAULT_CAP,
             rng: np.random.Generator | None = None) -> Trajectory:
    """Simulate a single trajectory up to `horizon` generations, drawn
    from `rng` (default `stream(0, 0)`) as a group of one block."""
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
            cur = _next_generation(params, model, [rng], [0, 1], cur)
        path.append(int(cur[0]))
    vals = np.array(path, dtype=np.int64)
    censoring = "cap" if path[-1] > cap else None
    zeros = np.nonzero(vals == 0)[0]
    life = int(zeros[0]) if zeros.size else None
    if life is None and censoring is None:
        censoring = "horizon"
    return Trajectory(values=vals, life=life, model=model, censoring=censoring)


def estimate_survival(params: LawParams, model, horizon: int, reps: int,
                      seed: int, threads: int = 1,
                      cap: int = DEFAULT_CAP,
                      scale: float | None = None) -> BatchStats:
    """Run `reps` replicates to generation `horizon`; every row of
    `BatchStats` comes from the same paths.

    Cap-censored replicates keep counting as alive (the chance that a
    population above `cap` dies within a desk-scale horizon is negligible;
    the censored count is reported so the bias is visible).  With a
    `scale`, the Laplace sums of exp(-scale * X_horizon) over the
    survivors are kept too, added exactly across the blocks.

    A block of BLOCK replicates is the stream unit: block i draws from
    `stream(seed, i)`, so every result depends on the seed alone.  A
    group of consecutive blocks is the work unit: the pool has
    min(threads, CPU count) workers, groups of min(8, ceil(blocks /
    workers)) blocks go to them as they become free, and each group
    steps its blocks in lockstep (`_evolve_group`).
    """
    model = Model(model)
    _check_cap(cap)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if scale is not None and not (math.isfinite(scale) and scale >= 0.0):
        raise ValueError("scale must be finite and >= 0")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    nblocks = -(-reps // BLOCK)
    workers = min(threads, os.cpu_count() or 1)
    width = min(_GROUP, -(-nblocks // workers))
    groups = [range(g, min(g + width, nblocks))
              for g in range(0, nblocks, width)]

    def one(blocks: range):
        return _evolve_group(params, model, horizon, cap,
                             [stream(seed, i) for i in blocks],
                             [min(BLOCK, reps - i * BLOCK) for i in blocks],
                             scale)

    if len(groups) == 1 or workers == 1:
        results = [one(g) for g in groups]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, groups))

    counts = np.sum([r[0] for r in results], axis=0)
    lap = None
    if scale is not None:
        lap = np.array([math.fsum(s[i] for r in results for s in r[1])
                        for i in (0, 1)])
    return BatchStats(reps, *counts, laplace_sums=lap)
