"""Monte Carlo engine: exact one-step pins, coupling, thread determinism."""

import importlib
import itertools
import math
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

# gwimm re-exports the simulate() function, so grab the module explicitly
sim = importlib.import_module("gwimm.simulate")
laws = importlib.import_module("gwimm.laws")
from gwimm.errors import DegenerateConditioningError, OutOfRangeError
from gwimm.laws import (LawParams, initial_pgf, offspring_pmf,
                        offspring_split, sample_initial, sample_offspring)
from gwimm.pgf import h_n
from gwimm.rng import stream
from gwimm.simulate import (BatchStats, Model, Trajectory,
                            estimate_survival, simulate)

from conftest import mc_radius

CANON = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
MIXED = LawParams(nu=0.5, theta=0.5, delta=0.5, kappa0=0.8, kappa1=0.5,
                  kappa2=0.7)

U1 = 0.5 * math.exp(-1.0) + 1.0 - math.exp(-1.0)
U2 = 0.375 * math.exp(-1.5) + (1.0 - math.exp(-1.0)) * U1 \
    + math.exp(-1.0) - math.exp(-1.5)


def one_block(rng, pops):
    """The block form of one stream `rng` drawing for all of `pops`: the
    streams, the bounds and the populations the draw functions take."""
    return [rng], [0, len(pops)], pops


def z_score(stats: BatchStats, n: int, target: float) -> float:
    return (stats.survival()[n] - target) / stats.survival_se()[n]


def test_stopped_survival_pins():
    # first two survival probabilities have closed forms at the canonical
    # parameters; fixed seed keeps the comparison deterministic
    bs = estimate_survival(CANON, "stopped", 2, 200_000, seed=42)
    assert abs(z_score(bs, 1, U1)) < 3.5
    assert abs(z_score(bs, 2, U2)) < 3.5
    assert bs.censored == 0


def test_one_step_pins_per_model():
    # P(X_1 > 0) in closed form for each variant:
    #   unstopped: 1 - G0(k1) * exp(-k2)
    #   stopped:   kappa0 - (G0(k1) - G0(0)) * exp(-k2)
    #   gated:     1 - G0(k1)
    p = MIXED
    g_k1 = float(initial_pgf(p, p.kappa1))
    g_0 = float(initial_pgf(p, 0.0))
    e = math.exp(-p.kappa2)
    targets = {
        "z": 1.0 - g_k1 * e,
        "stopped": p.kappa0 - (g_k1 - g_0) * e,
        "gated": 1.0 - g_k1,
    }
    for model, target in targets.items():
        # modest cap bounds the per-individual work under the infinite-mean
        # initial law; a frozen path at 1e4 individuals dies with
        # probability kappa1**1e4, so the alive-while-censored bias is nil
        bs = estimate_survival(p, model, 1, 200_000, seed=7, cap=10_000)
        assert abs(z_score(bs, 1, target)) < 3.5, model


def test_thread_count_does_not_change_counts():
    a = estimate_survival(CANON, "stopped", 10, 50_000, seed=5, threads=1)
    b = estimate_survival(CANON, "stopped", 10, 50_000, seed=5, threads=3)
    assert np.array_equal(a.survival_counts, b.survival_counts)
    assert np.array_equal(a.censored_counts, b.censored_counts)
    # nu < 1: the head/tail split and its chunked tail draws
    a = estimate_survival(MIXED, "z", 10, 50_000, seed=5, threads=1,
                          cap=10_000)
    b = estimate_survival(MIXED, "z", 10, 50_000, seed=5, threads=3,
                          cap=10_000)
    assert np.array_equal(a.survival_counts, b.survival_counts)
    assert np.array_equal(a.censored_counts, b.censored_counts)
    assert a.censored > 0


def test_thread_count_does_not_change_laplace_bits():
    kw = dict(reps=60_000, seed=9, scale=0.3)
    a = estimate_survival(CANON, "z", 8, threads=1, **kw)
    b = estimate_survival(CANON, "z", 8, threads=4, **kw)
    assert a.conditional_laplace() == b.conditional_laplace()
    assert a.survival_counts[-1] == b.survival_counts[-1]


@pytest.mark.parametrize("params, model, cap", [
    # folded nu = theta = 1 table: one lookup per group and generation
    (LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 0.25), "stopped", sim.DEFAULT_CAP),
    # nu = 1 populations crossing 256: table, split and immigrants apart
    (LawParams(1.0, 1.0, 0.5, 0.8, 0.5, 2.0), "gated", 10 ** 4),
    # nu < 1 and the "no zero so far" row of the unstopped chain
    (MIXED, "z", 10 ** 4),
])
def test_grouping_does_not_change_any_result(params, model, cap,
                                             monkeypatch):
    # 9 blocks, the last one partial: groups of 8 and 1 on one thread, of
    # 5 and 4 on two, of 3 on three, each block alone with _GROUP = 1.
    # Groups are sized by the worker count, so the host has 3 CPUs here
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
    reps = 8 * sim.BLOCK + 1000

    def run(threads):
        bs = estimate_survival(params, model, 6, reps, seed=21,
                               threads=threads, cap=cap, scale=0.2)
        return (bs.survival_counts.tolist(), bs.life_counts.tolist(),
                bs.censored_counts.tolist(),
                [float(x).hex() for x in bs.laplace_sums])

    grouped = [run(threads) for threads in (1, 2, 3)]
    monkeypatch.setattr(sim, "_GROUP", 1)
    alone = run(1)
    assert grouped == [alone] * 3
    if model == "z":
        assert alone[1] != alone[0] and alone[2][-1] > 0


@pytest.fixture
def pool_workers(monkeypatch):
    """Replace the thread pool with a stand-in that maps in the calling
    thread, so no thread is started; returns the `max_workers` of every
    pool built."""
    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(sim, "ThreadPoolExecutor", InlinePool)
    return workers


def test_worker_pool_is_bounded_by_the_cpu_count(pool_workers,
                                                  monkeypatch):
    # a thread count past the block count still gives the pool at most
    # one worker per CPU, and the same counts as one thread
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)

    def run(threads):
        bs = estimate_survival(CANON, "stopped", 2, 40 * sim.BLOCK, seed=8,
                               threads=threads)
        return bs.survival_counts.tolist(), bs.censored_counts.tolist()

    assert run(10 ** 6) == run(1)
    assert pool_workers == [4]


def test_groups_are_sized_by_the_workers(pool_workers, monkeypatch):
    # 8 threads asked on 2 CPUs: 16 blocks in two groups of 8 for the two
    # workers, not eight groups of 2 sized by the request
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
    widths = []
    evolve = sim._evolve_group

    def spy(params, model, horizon, cap, rngs, *rest):
        widths.append(len(rngs))
        return evolve(params, model, horizon, cap, rngs, *rest)

    monkeypatch.setattr(sim, "_evolve_group", spy)
    estimate_survival(CANON, "stopped", 1, 16 * sim.BLOCK, seed=3, threads=8)
    assert widths == [8, 8]
    assert pool_workers == [2]


def test_partial_blocks_and_tiny_reps():
    # reps that are not a multiple of the block size, and reps = 1
    bs = estimate_survival(CANON, "stopped", 3, 12_345, seed=1)
    assert bs.reps == 12_345
    assert bs.survival_counts[0] == 12_345          # kappa0 = 1: no zero start
    one = estimate_survival(CANON, "stopped", 3, 1, seed=1)
    assert set(one.survival_counts.tolist()) <= {0, 1}


def test_life_period_equals_survival_when_absorbing():
    for model in ("stopped", "gated"):
        bs = estimate_survival(MIXED, model, 12, 30_000, seed=3, cap=10_000)
        assert np.array_equal(bs.life_counts, bs.survival_counts)


def test_life_period_below_survival_when_unstopped():
    # same paths: {no zero through n} implies {Z_n > 0}
    bs = estimate_survival(MIXED, "z", 12, 30_000, seed=3, cap=10_000)
    assert np.all(bs.life_counts <= bs.survival_counts)
    assert bs.life_counts[12] < bs.survival_counts[12]


def convolution_power(base: np.ndarray, w: int, nmax: int,
                      fft: bool = False) -> np.ndarray:
    """Law of the sum of w iid draws from `base` on {0, ..., nmax}; exact
    there as long as `base` holds the law on {0, ..., nmax}.  With `fft`
    each product is an FFT one of arrays of at most nmax + 1 terms,
    zero-padded past twice that so none wraps; its roundoff, of order
    1e-15, lies far below a Monte Carlo radius."""
    size = 1 << (2 * nmax + 2).bit_length()

    def mul(a, b):
        if fft:
            return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size),
                                size)[:nmax + 1]
        return np.convolve(a, b)[:nmax + 1]
    out = np.zeros(nmax + 1)
    out[0] = 1.0
    while w:
        if w & 1:
            out = mul(out, base)
        base = mul(base, base)
        w >>= 1
    return out


def assert_cells_match(draws: np.ndarray, law: np.ndarray, label) -> None:
    """Every cell with at least 10 expected hits, and the lump of all
    other values, within 4 sigma of the exact law (exact on its whole
    range, which must reach past the checked cells)."""
    n = len(draws)
    cells = np.nonzero(law * n >= 10.0)[0]
    assert cells.size and cells[-1] < len(law) - 1, label
    freq = np.bincount(draws[draws <= cells[-1]], minlength=cells[-1] + 1)
    probs = np.append(law[cells], 1.0 - law[cells].sum())
    hits = np.append(freq[cells], n - freq[cells].sum())
    se = np.sqrt(probs * (1.0 - probs) / n)
    gap = np.abs(hits / n - probs)
    assert np.all(gap < 4.0 * se + 1e-12), (label, float(np.max(gap / se)))


def test_multinomial_split_matches_convolved_law():
    # nu = 1 path sums w = 3 offspring through the sum table; the law
    # must match the three-fold convolution of (k1, 1-2k1, k1)
    p = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.3,
                  kappa2=1.0)
    base = offspring_pmf(p, 2).probs
    law = np.convolve(np.convolve(base, base), base)
    draws = sim._offspring_sums(p, *one_block(stream(17, 0),
                                              np.full(200_000, 3)))
    for k in range(7):
        freq = np.mean(draws == k)
        se = math.sqrt(law[k] * (1.0 - law[k]) / 200_000)
        assert abs(freq - law[k]) < 4.0 * se
    # nu < 1: a binomial count of the tail cell X >= 8, sum table rows
    # for the others, then per-individual tail draws.  Mixed population
    # sizes in one call; the tail cell is filled in ~0.8% of the rows for
    # w = 1, ~1/3 for w = 50 and nearly all for w = 500, which sums two
    # rows.  The oracle is the w-fold convolution of the offspring law
    p = LawParams(nu=0.5, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    sizes, n = (1, 3, 50, 500), 50_000
    draws = sim._offspring_sums(p, *one_block(stream(19, 0),
                                              np.repeat(sizes, n)))
    nmax = 4000
    base = offspring_pmf(p, nmax).probs
    for i, w in enumerate(sizes):
        row = draws[i * n:(i + 1) * n]
        assert np.all(row >= 0)
        assert_cells_match(row, convolution_power(base, w, nmax), w)


def block_form(seed: int, pops: np.ndarray):
    """The streams stream(seed, i), the bounds and the populations of
    `pops` cut into blocks of BLOCK, as the engine steps them."""
    bounds = [*range(0, len(pops), sim.BLOCK), len(pops)]
    return ([stream(seed, i) for i in range(len(bounds) - 1)], bounds,
            pops)


# 2 * 43,580 comparisons at MC_ALPHA each: a correct sampler fails with
# probability below 1e-5 (union bound)
@pytest.mark.parametrize("nu", [0.5, 0.95])
def test_row_sums_match_convolved_law_across_both_edges(nu):
    # nu < 1 populations past W sum several table rows up to W2, and take
    # the multinomial split past W2; one call mixes both, against the
    # w-fold convolution of the offspring pmf: the empirical cdf at each
    # of 0..2w+8
    p = LawParams(nu=nu, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    big = sim._ROW_REACH
    sizes, n = (257, 512, 513, big, big + 1, 3 * big), 50_000
    draws = sim._offspring_sums(p, *block_form(47, np.repeat(sizes, n)))
    for i, w in enumerate(sizes):
        nmax = 2 * w + 8
        cdf = np.cumsum(convolution_power(offspring_pmf(p, nmax).probs, w,
                                          nmax, fft=True))
        row = draws[i * n:(i + 1) * n]
        freq = np.cumsum(np.bincount(np.minimum(row, nmax + 1),
                                     minlength=nmax + 2)[:nmax + 1]) / n
        assert np.all(np.abs(freq - cdf)
                      <= mc_radius(np.clip(cdf, 0.0, 1.0), n)), (nu, w)


# the Monte Carlo property below makes at most 27 * 609 comparisons a
# run at MC_ALPHA each, so a correct sampler fails it with probability
# below 2e-6 (union bound)
@settings(max_examples=25, deadline=None)
@given(nu=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       w=st.integers(min_value=1, max_value=300))
@example(nu=1.0, frac=0.6, w=256)
@example(nu=1.0, frac=0.6, w=257)
def test_offspring_sums_match_convolved_law_over_the_box(nu, frac, w):
    # the summed offspring of w individuals, by table rows (w <= 256 at
    # nu = 1, every w here at nu < 1) or the multinomial split, against
    # the w-fold convolution of the offspring pmf: the empirical cdf at
    # each of 0..2w+8
    kappa1 = frac / (1.0 + nu)
    assume(kappa1 * nu >= sys.float_info.min)
    p = LawParams(nu=nu, theta=1.0, delta=1.0, kappa0=1.0, kappa1=kappa1,
                  kappa2=1.0)
    n, nmax = 50_000, 2 * w + 8
    draws = sim._offspring_sums(p, *one_block(stream(53, 0), np.full(n, w)))
    cdf = np.cumsum(convolution_power(offspring_pmf(p, nmax).probs, w,
                                      nmax))
    freq = np.cumsum(np.bincount(np.minimum(draws, nmax + 1),
                                 minlength=nmax + 2)[:nmax + 1]) / n
    assert np.all(np.abs(freq - cdf) <= mc_radius(np.clip(cdf, 0.0, 1.0),
                                                  n))


@settings(max_examples=25, deadline=None)
@given(model=st.sampled_from(["z", "stopped", "gated"]),
       frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       kappa2=st.floats(min_value=0.0, max_value=200.0, exclude_min=True),
       w=st.integers(min_value=0, max_value=300))
@example(model="z", frac=1.0, kappa2=0.25, w=0)
@example(model="stopped", frac=1.0, kappa2=0.25, w=256)
@example(model="gated", frac=0.6, kappa2=0.25, w=257)
@example(model="gated", frac=1.0, kappa2=140.0, w=1)
@example(model="z", frac=0.6, kappa2=150.0, w=3)
def test_one_step_at_nu1_theta1_matches_convolved_law_over_the_box(
        model, frac, kappa2, w):
    # one generation from w individuals at nu = theta = 1: by the folded
    # table (w <= 256 and a Poisson head that fits), or the offspring sum
    # and the Poisson draw apart, against L_w + Y (gated: Y only where
    # L_w > 0), L_w the w-fold convolution of (k1, 1 - 2*k1, k1): the
    # empirical cdf at each of 0..nmax, as in the property above: at most
    # 30 * 1010 comparisons a run, so a false alarm below 4e-6
    assume(w > 0 or model == "z")
    assume(frac / 2.0 >= sys.float_info.min)
    p = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0,
                  kappa1=frac / 2.0, kappa2=kappa2)
    n = 50_000
    nmax = 2 * w + int(kappa2 + 12.0 * math.sqrt(kappa2)) + 40
    draws = sim._next_generation(p, Model(model),
                                 *one_block(stream(59, 0), np.full(n, w)))
    base = np.pad(offspring_pmf(p, 2).probs, (0, nmax - 2))
    lw = convolution_power(base, w, nmax)
    k = np.arange(nmax + 1)
    pois = np.exp(k * math.log(kappa2) - kappa2
                  - np.array([math.lgamma(i + 1.0) for i in k]))
    if model == "gated":
        law = np.convolve(np.r_[0.0, lw[1:]], pois)[:nmax + 1]
        law[0] += lw[0]
    else:
        law = np.convolve(lw, pois)[:nmax + 1]
    cdf = np.cumsum(law)
    freq = np.cumsum(np.bincount(np.minimum(draws, nmax + 1),
                                 minlength=nmax + 2)[:nmax + 1]) / n
    assert np.all(np.abs(freq - cdf) <= mc_radius(np.clip(cdf, 0.0, 1.0),
                                                  n))


def exact_sum_pmf(one, k1, w):
    """Law at 0, ..., 2w of a sum of w nu = 1 offspring, in the number
    type of `one`: the weights T_k of (a + b*s + a*s**2)**w, a = k1,
    b = 1 - 2*k1, follow (k+1)*a*T_{k+1} = b*(w-k)*T_k + a*(2w-k+1)*T_{k-1}
    (from P*Q' = w*P'*Q), a sum of nonnegative terms up to k = w, and
    T_{2w-k} = T_k."""
    a = one * k1
    b = one - 2 * a
    t, prev = [a ** w], one * 0
    for k in range(w):
        t_next = (b * (w - k) * t[-1] + a * (2 * w - k + 1) * prev) \
            / (a * (k + 1))
        prev = t[-1]
        t.append(t_next)
    return t + t[-2::-1]


def exact_sum_cdf(one, k1, w):
    """cdf at 0, ..., 2w-1 of a sum of w nu = 1 offspring."""
    cdf, acc = [], one * 0
    for tk in exact_sum_pmf(one, k1, w)[:-1]:
        acc += tk
        cdf.append(acc)
    return cdf


@pytest.mark.parametrize("k1", [0.3, 0.5, 0.1, 2.0 ** -40, 5e-324])
def test_sum_table_rows_are_the_exact_cdf(k1):
    # every implied cdf value c_k / 2**53 (2**53 past a trimmed row) lies
    # within 2**-52 of the exact cdf; a float64 k1 is a dyadic rational,
    # so Fraction is exact, and 60 digits leave ~1e-58 at w = W
    mpmath = pytest.importorskip("mpmath")
    keys, offs, _ = sim._sum_table(k1)
    for w in (1, 2, 3, 17, 64, sim._SUM_ROWS):
        row = (keys[offs[w]:offs[w + 1]] - (w << 53)).tolist()
        assert len(row) <= 2 * w and row == sorted(row), w
        row += [1 << 53] * (2 * w - len(row))
        if w <= 64:
            cdf = exact_sum_cdf(Fraction(1), Fraction(k1), w)
            gaps = [abs(Fraction(c, 1 << 53) - f) for c, f in zip(row, cdf)]
            assert max(gaps) <= Fraction(1, 1 << 52), (k1, w)
        else:
            with mpmath.workdps(60):
                cdf = exact_sum_cdf(mpmath.mpf(1), mpmath.mpf(k1), w)
                gaps = [abs(mpmath.mpf(c) / 2 ** 53 - f)
                        for c, f in zip(row, cdf)]
                assert max(gaps) <= mpmath.mpf(2) ** -52, (k1, w)


def fold_bound() -> float:
    """The largest kappa2 whose Poisson head `_folded` still folds, to a
    relative 2**-40 (the head grows with kappa2)."""
    lo, hi = 1.0, float(sim._SUM_ROWS)
    while hi - lo > lo * 2.0 ** -40:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if sim._head(mid) + 2 <= sim._SUM_ROWS else (lo, mid)
    return lo


def exact_folded(k1, k2, gated, w, kmax):
    """mpmath cdf at 0..kmax of L_w + Y (gated: Y only where L_w > 0),
    Y ~ Poisson(k2), and its tail m -> P(X > m): sums of nonnegative
    terms, the Poisson tail summed until its terms fall below 1e-80
    (beyond, its tail is taken as 0)."""
    mpmath = pytest.importorskip("mpmath")
    lw = exact_sum_pmf(mpmath.mpf(1), mpmath.mpf(k1), w)
    lam = mpmath.mpf(k2)
    pois, t = [mpmath.exp(-lam)], 0
    while t < kmax or t <= lam or pois[-1] > mpmath.mpf(10) ** -80:
        t += 1
        pois.append(pois[-1] * lam / t)
    below = list(itertools.accumulate(pois))
    above = list(itertools.accumulate(pois[::-1]))[::-1][1:]
    j0 = 1 if gated else 0
    cdf = [mpmath.fdot((lw[j], below[m - j])
                       for j in range(j0, min(m, 2 * w) + 1))
           + (lw[0] if gated else 0) for m in range(kmax + 1)]

    def tail(m):
        return mpmath.fdot((lw[j], above[m - j] if j <= m else 1)
                           for j in range(j0, 2 * w + 1)
                           if m - j < len(above))
    return cdf, tail


@pytest.mark.parametrize("k1, k2", [(0.5, 0.25), (0.3, 1.0),
                                    (2.0 ** -40, 3.0), (0.45, "bound")])
@pytest.mark.parametrize("gated", [False, True])
def test_folded_rows_are_the_exact_cdf(k1, k2, gated):
    # every implied cdf value c_k / 2**53 (2**53 past a trimmed row) lies
    # within 2**-52 of the exact cdf of L_w + Y; and the cell past the
    # last key resolves to the smallest m with P(X > m) < v exactly
    mpmath = pytest.importorskip("mpmath")
    if k2 == "bound":
        k2 = fold_bound()
        assert sim._head(k2) + 2 == sim._SUM_ROWS
        p = LawParams(1.0, 1.0, 1.0, 1.0, k1, k2)
        assert sim._folded(p) == k2
        assert sim._folded(LawParams(1.0, 1.0, 1.0, 1.0, k1,
                                     k2 + 0.01)) == 0.0
    h = sim._head(k2)
    keys, offs, _ = sim._sum_table(k1, k2, gated)
    with mpmath.workdps(60):
        for w in (0, 1, 2, 17, 64, sim._SUM_ROWS):
            row = (keys[offs[w]:offs[w + 1]] - (w << 53)).tolist()
            assert len(row) <= 2 * w + h and row == sorted(row), w
            n = len(row)
            row += [1 << 53] * (2 * w + h - n)
            cdf, tail = exact_folded(k1, k2, gated, w, 2 * w + h - 1)
            gaps = [abs(mpmath.mpf(c) / 2 ** 53 - f)
                    for c, f in zip(row, cdf)]
            assert max(gaps, default=0) <= mpmath.mpf(2) ** -52, (k2, w)
            for big_v in (0.0, 0.5, 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -53):
                rng = FixedUniforms(np.array([1.0 - 2.0 ** -53]),
                                    np.array([big_v]))
                m = int(sim._table_sums(k1, *one_block(rng, np.array([w])),
                                        k2, gated)[0])
                v = (1.0 - big_v) / 2.0 ** 53
                assert tail(m) < v <= (tail(m - 1) if m > n else 1), (w, v)


class FixedUniforms:
    """Stands in for a Generator and its bit generator: each `random`
    call returns the next of the given arrays of uniforms, and each
    `random_raw` call the words whose top 53 bits are its keys."""

    def __init__(self, *us):
        self.us = list(us)
        self.bit_generator = self

    def random(self, size):
        u = self.us.pop(0)
        assert size == len(u)
        return u

    def random_raw(self, size):
        keys = (self.random(size) * 2.0 ** 53).astype(np.uint64)
        return keys << np.uint64(11)


@pytest.mark.parametrize("k1", [0.3, 0.5])
def test_guide_matches_searchsorted_everywhere(k1):
    # U at every key and its neighbours, at both ends of every bucket,
    # and at 10**6 random points, in every row of the plain table and of
    # one that folds Poisson(1/4) in (row 0 too): the guide answers
    # exactly where it answers, and `_table_sums` gives the searchsorted
    # count.  At the top U, 2**53 - 1, it takes a second uniform; V = 0
    # stays in the cell past the last key, whose value is that count
    bits, top = laws._GUIDE_BITS, (1 << 53) - 1
    width = 1 << (53 - bits)
    ends = np.concatenate([np.arange(1 << bits) * width,
                           np.arange(1, (1 << bits) + 1) * width - 1])
    for kappa2, first in ((0.0, 1), (0.25, 0)):
        keys, offs, guide = sim._sum_table(k1, kappa2)
        ws, us = [], []
        for w in range(first, sim._SUM_ROWS + 1):
            c = keys[offs[w]:offs[w + 1]] - (w << 53)
            u = np.clip(np.concatenate([c - 1, c, c + 1, ends]), 0, top)
            ws.append(np.full(len(u), w))
            us.append(u)
        gen = np.random.default_rng(11)
        ws.append(gen.integers(first, sim._SUM_ROWS + 1, 10 ** 6))
        us.append(gen.integers(0, 1 << 53, 10 ** 6))
        w, u = np.concatenate(ws), np.concatenate(us)
        want = np.searchsorted(keys, (w << 53) + u, side="right") - offs[w]
        hint = guide[(w << bits) + (u >> (53 - bits))]
        assert np.all((hint < 0) | (hint == want))
        assert 0.5 < np.mean(hint >= 0) < 1.0
        rng = FixedUniforms(u / 2.0 ** 53, np.zeros(np.count_nonzero(u == top)))
        got = sim._table_sums(k1, *one_block(rng, w), kappa2)
        assert np.array_equal(got, want)


def test_guide_row_at_bucket_edges():
    # keys on the first and last U of buckets, twice on one U, and none
    # in most buckets: the guide answers exactly where it answers
    width = 1 << (53 - laws._GUIDE_BITS)
    c = np.array([0, 5, width - 1, width - 1, width, 3 * width - 1,
                  7 * width + 3, 9 * width, 10 * width - 1], dtype=np.int64)
    row = laws._guide_row(c)
    u = np.clip(np.concatenate([c - 1, c, c + 1,
                                np.arange(12) * width,
                                np.arange(1, 13) * width - 1]), 0, None)
    want = np.searchsorted(c, u, side="right")
    hint = row[u // width]
    assert np.all((hint < 0) | (hint == want))
    assert list(row[:12]) == [-1, 5, -1, 6, 6, 6, 6, -1, 7, -1, 9, 9]


@pytest.mark.parametrize("k1", [0.3, 0.5])
def test_nu1_sums_match_convolved_law_across_the_table_edge(k1):
    # one call mixes table rows (w <= W) and the multinomial split (w > W)
    p = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=k1,
                  kappa2=1.0)
    big = sim._SUM_ROWS
    sizes, n = (1, 3, big, big + 1, 5000), 50_000
    draws = sim._offspring_sums(p, *one_block(stream(43, 0),
                                              np.repeat(sizes, n)))
    base = offspring_pmf(p, 2).probs
    for i, w in enumerate(sizes):
        nmax = min(2 * w, w + 600) + 1
        law = convolution_power(np.pad(base, (0, nmax - 2)), w, nmax)
        assert_cells_match(draws[i * n:(i + 1) * n], law, (k1, w))


def test_thread_count_does_not_change_counts_across_the_table_edge():
    # nu = 1 under a heavy initial law: populations on both sides of W
    p = LawParams(nu=1.0, theta=1.0, delta=0.3, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    assert np.any(sample_initial(p, stream(5, 0), sim.BLOCK)
                  > sim._SUM_ROWS)
    kw = dict(seed=5, cap=10 ** 6)
    a = estimate_survival(p, "stopped", 10, 20_000, threads=1, **kw)
    b = estimate_survival(p, "stopped", 10, 20_000, threads=3, **kw)
    assert np.array_equal(a.survival_counts, b.survival_counts)
    assert np.array_equal(a.censored_counts, b.censored_counts)
    assert a.censored > 0


def test_thread_count_does_not_change_counts_across_the_fractional_edge():
    # nu < 1 under a heavy initial law: one group holds populations of at
    # most W (one table row), of W+1..W2 (several rows) and past W2 (the
    # split), so a generation draws binomials, table keys, the split and
    # tail draws per block
    p = LawParams(nu=0.5, theta=1.0, delta=0.3, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    first = sample_initial(p, stream(5, 0), sim.BLOCK)
    assert np.any(first > sim._ROW_REACH)
    assert np.any((first > sim._SUM_ROWS) & (first <= sim._ROW_REACH))
    assert np.any((first > 0) & (first <= sim._SUM_ROWS))
    kw = dict(seed=5, cap=10 ** 6)
    a, *rest = [estimate_survival(p, "stopped", 10, 20_000, threads=t, **kw)
                for t in (1, 2, 3)]
    for b in rest:
        assert np.array_equal(a.survival_counts, b.survival_counts)
        assert np.array_equal(a.censored_counts, b.censored_counts)
    assert a.censored > 0


# (nu, frac): kappa1 = frac / (1 + nu); at nu = 2.2e-16, frac = 1 the head
# is the one cell X = 0, so every row of the table is empty
FRACTIONAL_TABLES = [(0.01, 0.5), (0.2, 1e-6), (2.2e-16, 1.0)]


@pytest.mark.parametrize("nu, frac", [(0.5, 0.75), *FRACTIONAL_TABLES])
def test_fractional_rows_and_top_key_are_exact(nu, frac):
    # row w at nu < 1: every implied cdf value c_k / 2**53 (2**53 past a
    # trimmed row) at 0..d*w-1 lies within 2**-52 of the exact cdf of a
    # sum S of w draws of X | X < H (the float64 head cells taken as
    # exact); the top key resolves to the smallest m with P(S > m) < v
    mpmath = pytest.importorskip("mpmath")
    k1 = frac / (1.0 + nu)
    head = offspring_split(LawParams(nu, 1.0, 1.0, 1.0, k1, 1.0),
                           sim._HEAD_CELLS)[:-1]
    d = len(head) - 1
    keys, offs, _ = sim._sum_table(k1, nu=nu)
    with mpmath.workdps(60):
        q = [mpmath.mpf(float(x)) for x in head]
        q = [x / mpmath.fsum(q) for x in q]
        law = [mpmath.mpf(1)]
        for w in range(65):
            if w in (0, 1, 2, 17, 64):
                row = (keys[offs[w]:offs[w + 1]] - (w << 53)).tolist()
                n = len(row)
                assert n <= d * w and row == sorted(row), w
                row += [1 << 53] * (d * w - n)
                cdf = list(itertools.accumulate(law))
                gaps = [abs(mpmath.mpf(c) / 2 ** 53 - f)
                        for c, f in zip(row, cdf)]
                assert max(gaps, default=0) <= mpmath.mpf(2) ** -52, w

                def tail(m):
                    return mpmath.fsum(law[m + 1:])
                for big_v in (0.0, 0.5, 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -53):
                    rng = FixedUniforms(np.array([1.0 - 2.0 ** -53]),
                                        np.array([big_v]))
                    m = int(sim._table_sums(
                        k1, *one_block(rng, np.array([w])), nu=nu)[0])
                    v = (1.0 - big_v) / 2.0 ** 53
                    assert tail(m) < v <= (tail(m - 1) if m > n else 1), \
                        (w, v)
            law = [mpmath.fsum(q[j] * law[i - j] for j in range(d + 1)
                               if 0 <= i - j < len(law))
                   for i in range(len(law) + d)]


@pytest.mark.parametrize("nu, frac", FRACTIONAL_TABLES)
def test_fractional_table_build_is_bounded(nu, frac):
    # rows of at most 7*w keys, built in under 0.25 s with a peak under
    # 8 MiB: each long-double row is keyed as it is formed, and none is
    # kept.  The sampler table behind the head cells is built first
    k1 = frac / (1.0 + nu)
    offspring_split(LawParams(nu, 1.0, 1.0, 1.0, k1, 1.0), sim._HEAD_CELLS)
    build = sim._sum_table.__wrapped__
    t0 = time.perf_counter()
    build(k1, nu=nu)
    elapsed = time.perf_counter() - t0
    tracemalloc.start()
    try:
        keys, offs, guide = build(k1, nu=nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.25
    assert peak < 8 << 20
    assert np.all(np.diff(offs) <= 7 * np.arange(sim._SUM_ROWS + 1))


def test_one_sum_table_per_law():
    # at nu = 1 with no immigrants folded (theta < 1), the gate changes no
    # row, so the three models share the one plain table
    p = LawParams(1.0, 0.5, 1.0, 1.0, 0.5, 0.7)
    sim._sum_table.cache_clear()
    for model in ("stopped", "z", "gated"):
        estimate_survival(p, model, 5, 2000, seed=4)
    assert sim._sum_table.cache_info().currsize == 1


def test_tail_draws_follow_the_conditional_law():
    # X | X >= K: every draw at least K, frequencies p_k / P(X >= K)
    for nu in (0.5, 0.95):
        p = LawParams(nu=nu, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                      kappa2=1.0)
        pvals = offspring_split(p, sim._SPLIT_CELLS)
        k = len(pvals) - 1
        assert k == sim._SPLIT_CELLS
        draws = sample_offspring(p, stream(23, 0), 200_000, lowest=k)
        assert draws.min() >= k
        law = offspring_pmf(p, 5000).probs.copy()
        law[:k] = 0.0
        assert_cells_match(draws, law / pvals[-1], nu)


def test_split_cells_stop_at_the_table_length():
    # a tiny kappa1 puts the sampler table's 1 - 1e-12 quantile at 1, so
    # the split keeps two head cells; the tail cell is still exact
    p = LawParams(nu=0.5, theta=1.0, delta=1.0, kappa0=1.0, kappa1=1e-13,
                  kappa2=1.0)
    pvals = offspring_split(p, sim._SPLIT_CELLS)
    assert len(pvals) == 3
    assert pvals[-1] == pytest.approx(p.kappa1 * p.nu, rel=1e-15)
    draws = sample_offspring(p, stream(29, 0), 10_000, lowest=2)
    assert draws.min() >= 2
    with pytest.raises(ValueError):
        sample_offspring(p, stream(29, 0), 1, lowest=3)
    sums = sim._offspring_sums(p, *one_block(stream(29, 1),
                                             np.full(1000, 100)))
    assert np.all(sums >= 0)


@pytest.mark.parametrize("k1", [1e-12, 1e-17])
def test_nu1_split_at_tiny_kappa1_keeps_the_law(k1):
    # the sampler table stops at 1, so the split's tail cell {X >= 2} goes
    # to the tail path.  At 1e-17, 1 - cum[1] rounds to 0, and in numpy's
    # cell order nothing would follow the cell 1 - 2*kappa1, which rounds
    # to 1.  A sum minus w is
    # N2 - N0, two Poisson(w*kappa1) counts up to O(kappa1): Skellam
    p = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=k1,
                  kappa2=1.0)
    lam, n, shift = 0.05, 20_000, 4
    w = round(lam / k1)
    draws = sim._offspring_sums(p, *one_block(stream(31, 0), np.full(n, w)))
    draws = draws - w + shift
    law = [math.exp(-2.0 * lam)
           * sum(lam ** (2 * i + abs(d)) / math.factorial(i)
                 / math.factorial(i + abs(d)) for i in range(20))
           for d in range(-shift, shift + 1)]
    assert_cells_match(draws, np.array(law), k1)


def test_tail_cell_draws_where_the_table_cdf_rounds_to_one():
    # nu near 1 and a tiny kappa1: cum[2] rounds to 1, so only the exact
    # tail mass P(X >= 3) can condition the draws of the tail cell
    p = LawParams(nu=0.99999, theta=1.0, delta=1.0, kappa0=1.0,
                  kappa1=1e-11, kappa2=1.0)
    pvals = offspring_split(p, sim._SPLIT_CELLS)
    k = len(pvals) - 1
    assert k == 3
    draws = sample_offspring(p, stream(37, 0), 200_000, lowest=k)
    assert draws.min() >= k
    law = offspring_pmf(p, 5000).probs.copy()
    law[:k] = 0.0
    assert_cells_match(draws, law / pvals[-1], k)


def test_chunked_path_is_chunk_size_invariant(monkeypatch):
    p = LawParams(nu=0.5, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    pops = np.array([4, 1, 30, 2, 11, 7])
    ref = sim._offspring_sums(p, *one_block(stream(2, 0), pops))
    monkeypatch.setattr(sim, "_CHUNK", 7)
    small = sim._offspring_sums(p, *one_block(stream(2, 0), pops))
    assert np.array_equal(ref, small)


def test_tail_path_is_chunk_size_invariant(monkeypatch):
    # populations large enough that their tail cells hold many more
    # individuals than one chunk, so the tail spans several chunks
    p = LawParams(nu=0.5, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    pops = np.array([40_000, 1, 300_000, 2, 110_000, 7, 90_000])
    tails = stream(2, 0).multinomial(
        pops, offspring_split(p, sim._SPLIT_CELLS))[:, -1]
    assert tails.sum() > 20 * 7 and np.count_nonzero(tails) >= 4
    ref = sim._offspring_sums(p, *one_block(stream(2, 0), pops))
    monkeypatch.setattr(sim, "_CHUNK", 7)
    small = sim._offspring_sums(p, *one_block(stream(2, 0), pops))
    assert np.array_equal(ref, small)


def test_huge_population_keeps_memory_bounded(monkeypatch):
    # 10^9 individuals at nu = 1/2: the tail cell holds ~10^6 of them,
    # drawn in chunks of 2^16, so the peak allocation stays a few chunks
    p = LawParams(nu=0.5, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    monkeypatch.setattr(sim, "_CHUNK", 1 << 16)
    tracemalloc.start()
    try:
        total = sim._offspring_sums(p, *one_block(stream(37, 0),
                                                  np.array([10 ** 9])))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * (1 << 16)
    # mean 1 per individual; the fluctuations are of order 10^6
    assert abs(total - 10 ** 9) < 10 ** 8


def test_row_sums_keep_memory_bounded():
    # a group of four full blocks of populations at W2: each spreads into
    # W2/W = 16 table rows a population and draws ~33 tail individuals a
    # population (X >= 8 has mass 0.8% at nu = 1/2), one block at a time,
    # so the peak stays under 8 arrays of 16 int64 entries for each
    # population of one block (about 7.2 of them)
    p = LawParams(nu=0.5, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    pops = np.full(4 * sim.BLOCK, sim._ROW_REACH)
    sim._offspring_sums(p, *one_block(stream(41, 0), pops[:1]))
    tracemalloc.start()
    try:
        sums = sim._offspring_sums(p, *block_form(41, pops))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (16 * 8 * sim.BLOCK)
    assert abs(sums.mean() - sim._ROW_REACH) < 0.1 * sim._ROW_REACH


def test_model_ordering_in_positivity():
    # P(Z_n > 0) >= P(W_n > 0) >= P(gated X_n > 0); checked with
    # independent seeds and a 3-sigma-per-side margin
    n = 10
    a = estimate_survival(MIXED, "z", n, 100_000, seed=31, cap=10_000)
    b = estimate_survival(MIXED, "stopped", n, 100_000, seed=32, cap=10_000)
    c = estimate_survival(MIXED, "gated", n, 100_000, seed=33, cap=10_000)
    margin = 3.0 * (a.survival_se() + b.survival_se() + c.survival_se())
    assert np.all(a.survival() >= b.survival() - margin)
    assert np.all(b.survival() >= c.survival() - margin)


def test_conditional_laplace_mc_unstopped_vs_transform():
    # E[exp(-c Z_n) | Z_n > 0] = (H_n(e^-c) - H_n(0)) / (1 - H_n(0))
    n, c = 25, 0.05
    atom = h_n(CANON, 0.0, n)
    exact = (h_n(CANON, math.exp(-c), n) - atom) / (1.0 - atom)
    bs = estimate_survival(CANON, "z", n, reps=200_000, seed=3, threads=2,
                           scale=c)
    value, se = bs.conditional_laplace()
    assert abs(value - exact) < 4.0 * se
    assert bs.survival_counts[n] > 0


def test_conditional_laplace_degenerate():
    p = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=0.01, kappa1=0.5,
                  kappa2=1.0)
    with pytest.raises(DegenerateConditioningError):
        estimate_survival(p, "stopped", 2, reps=8, seed=0,
                          scale=1.0).conditional_laplace()


def test_trajectory_invariants():
    for seed in range(12):
        tr = simulate(MIXED, "stopped", 40, cap=100_000, rng=stream(seed, 0))
        assert isinstance(tr, Trajectory)
        assert tr.model is Model.STOPPED_Z
        if tr.life is not None:
            assert tr.values[tr.life] == 0
            assert np.all(tr.values[:tr.life] > 0)
            assert np.all(tr.values[tr.life:] == 0)
            assert tr.censoring is None
        else:
            assert tr.censoring in ("horizon", "cap")


def test_unstopped_runs_full_horizon():
    tr = simulate(CANON, "z", 15, rng=stream(4, 0))
    assert len(tr.values) == 16


def test_cap_censoring():
    tr = None
    for seed in range(40):
        cand = simulate(CANON, "z", 60, cap=5, rng=stream(seed, 0))
        if cand.censoring == "cap":
            tr = cand
            break
    assert tr is not None, "no replicate exceeded the cap"
    assert tr.values[-1] > 5
    assert len(tr.values) <= 61

    bs = estimate_survival(CANON, "z", 25, 20_000, seed=6, cap=50)
    assert bs.censored > 0
    assert np.all(np.diff(bs.censored_counts) >= 0)
    assert bs.censored == bs.censored_counts[-1]


@pytest.mark.parametrize("model", ["z", "stopped", "gated"])
def test_poisson_mean_past_the_generator_limit_is_cap_censored(model):
    p = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1e19)
    bs = estimate_survival(p, model, 3, 100, seed=1, cap=1000)
    assert bs.censored == bs.survival_counts[-1]
    assert bs.censored > 0


def test_input_validation():
    with pytest.raises(ValueError):
        estimate_survival(CANON, "stopped", 2, 0, seed=0)
    with pytest.raises(ValueError):
        simulate(CANON, "stopped", 0)
    with pytest.raises(ValueError):
        simulate(CANON, "not-a-model", 3)
    with pytest.raises(ValueError):
        estimate_survival(CANON, "z", 2, 10, seed=0).conditional_laplace()


@pytest.mark.parametrize("kw, error", [
    (dict(reps=0), ValueError),
    (dict(horizon=-1), ValueError),
    (dict(scale=-1.0), ValueError),
    (dict(scale=math.nan), ValueError),
    (dict(scale=math.inf), ValueError),
    (dict(cap=0), OutOfRangeError),
    (dict(threads=0), ValueError),
    (dict(threads=-5), ValueError),
])
def test_estimate_survival_checks_its_input_before_any_block(kw, error,
                                                            monkeypatch):
    def no_block(*args):
        raise AssertionError("a block ran before the input check")

    monkeypatch.setattr(sim, "_evolve_group", no_block)
    args = dict(horizon=2, reps=10, seed=0, scale=1.0) | kw
    with pytest.raises(error):
        estimate_survival(CANON, "z", **args)


@pytest.mark.parametrize("cap", [0, -5, sim.MAX_CAP + 1, 2 ** 63 - 1])
def test_cap_is_validated_by_every_entry_point(cap):
    # cap 0 would freeze every replicate; a cap near 2**63 lets the int64
    # offspring sums wrap
    calls = [
        lambda: simulate(CANON, "stopped", 3, cap=cap),
        lambda: estimate_survival(CANON, "z", 3, 10, seed=0, cap=cap,
                                  scale=1.0),
    ]
    for call in calls:
        with pytest.raises(OutOfRangeError, match="cap"):
            call()
    # the bounds themselves are admissible
    for ok in (1, sim.MAX_CAP):
        assert estimate_survival(CANON, "stopped", 3, 10, seed=0,
                                 cap=ok).reps == 10
