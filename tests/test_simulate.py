"""Monte Carlo engine: exact one-step pins, coupling, thread determinism."""

import importlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

# gwimm re-exports the simulate() function, so grab the module explicitly
sim = importlib.import_module("gwimm.simulate")
laws = importlib.import_module("gwimm.laws")
from gwimm.errors import DegenerateConditioningError, OutOfRangeError
from gwimm.laws import (LawParams, initial_pgf, offspring_pmf,
                        offspring_split, sample_initial, sample_offspring)
from gwimm.pgf import h_n
from gwimm.rng import stream
from gwimm.simulate import (BatchStats, Model, Trajectory,
                            conditional_laplace_mc, estimate_survival,
                            sample_life_period, simulate)

CANON = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
MIXED = LawParams(nu=0.5, theta=0.5, delta=0.5, kappa0=0.8, kappa1=0.5,
                  kappa2=0.7)

U1 = 0.5 * math.exp(-1.0) + 1.0 - math.exp(-1.0)
U2 = 0.375 * math.exp(-1.5) + (1.0 - math.exp(-1.0)) * U1 \
    + math.exp(-1.0) - math.exp(-1.5)


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
    kw = dict(reps=60_000, seed=9)
    a = conditional_laplace_mc(CANON, "z", 8, 0.3, threads=1, **kw)
    b = conditional_laplace_mc(CANON, "z", 8, 0.3, threads=4, **kw)
    assert a.value == b.value
    assert a.se == b.se
    assert a.survivors == b.survivors


def test_partial_blocks_and_tiny_reps():
    # reps that are not a multiple of the block size, and reps = 1
    bs = estimate_survival(CANON, "stopped", 3, 12_345, seed=1)
    assert bs.reps == 12_345
    assert bs.survival_counts[0] == 12_345          # kappa0 = 1: no zero start
    one = estimate_survival(CANON, "stopped", 3, 1, seed=1)
    assert set(one.survival_counts.tolist()) <= {0, 1}


def test_life_period_equals_survival_when_absorbing():
    for model in ("stopped", "gated"):
        a = estimate_survival(MIXED, model, 12, 30_000, seed=3, cap=10_000)
        b = sample_life_period(MIXED, model, reps=30_000, horizon=12, seed=3,
                               cap=10_000)
        assert np.array_equal(a.survival_counts, b.survival_counts)


def test_life_period_takes_estimate_survival_arguments_in_order():
    # horizon before reps, as in estimate_survival: the same positional
    # call gives the same counts on an absorbing model
    a = estimate_survival(MIXED, "stopped", 12, 3_000, 5, None, 10_000)
    b = sample_life_period(MIXED, "stopped", 12, 3_000, 5, None, 10_000)
    assert (b.reps, len(b.survival_counts)) == (3_000, 13)
    assert np.array_equal(a.survival_counts, b.survival_counts)
    assert np.array_equal(a.censored_counts, b.censored_counts)


def test_life_period_below_survival_when_unstopped():
    # same seed, same paths: {no zero through n} implies {Z_n > 0}
    a = estimate_survival(MIXED, "z", 12, 30_000, seed=3, cap=10_000)
    b = sample_life_period(MIXED, "z", reps=30_000, horizon=12, seed=3,
                           cap=10_000)
    assert np.all(b.survival_counts <= a.survival_counts)
    assert b.survival_counts[12] < a.survival_counts[12]


def convolution_power(base: np.ndarray, w: int, nmax: int) -> np.ndarray:
    """Law of the sum of w iid draws from `base` on {0, ..., nmax}; exact
    there as long as `base` holds the law on {0, ..., nmax}."""
    out = np.zeros(nmax + 1)
    out[0] = 1.0
    while w:
        if w & 1:
            out = np.convolve(out, base)[:nmax + 1]
        base = np.convolve(base, base)[:nmax + 1]
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
    draws = sim._offspring_sums(p, stream(17, 0), np.full(200_000, 3))
    for k in range(7):
        freq = np.mean(draws == k)
        se = math.sqrt(law[k] * (1.0 - law[k]) / 200_000)
        assert abs(freq - law[k]) < 4.0 * se
    # nu < 1: one multinomial over the head cells and the tail cell, then
    # per-individual tail draws.  Mixed population sizes in one call; the
    # tail cell is filled in ~0.1% of the rows for w = 1, ~4% for w = 50
    # and ~1/3 for w = 500.  The oracle is the w-fold convolution of the
    # offspring law
    p = LawParams(nu=0.5, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    sizes, n = (1, 3, 50, 500), 50_000
    draws = sim._offspring_sums(p, stream(19, 0), np.repeat(sizes, n))
    nmax = 4000
    base = offspring_pmf(p, nmax).probs
    for i, w in enumerate(sizes):
        row = draws[i * n:(i + 1) * n]
        assert np.all(row >= 0)
        assert_cells_match(row, convolution_power(base, w, nmax), w)


def exact_sum_cdf(one, k1, w):
    """cdf at 0, ..., 2w-1 of a sum of w nu = 1 offspring, in the number
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
    t += t[-2::-1]
    cdf, acc = [], one * 0
    for tk in t[:-1]:
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


class FixedUniforms:
    """Stands in for a Generator: `random` returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == len(self.u)
        return self.u


@pytest.mark.parametrize("k1", [0.3, 0.5])
def test_guide_matches_searchsorted_everywhere(k1):
    # U at every key and its neighbours, at both ends of every bucket,
    # and at 10**6 random points, in every row: the guide answers exactly
    # where it answers, and `_table_sums` gives the searchsorted count
    keys, offs, guide = sim._sum_table(k1)
    bits, top = laws._GUIDE_BITS, (1 << 53) - 1
    width = 1 << (53 - bits)
    ends = np.concatenate([np.arange(1 << bits) * width,
                           np.arange(1, (1 << bits) + 1) * width - 1])
    ws, us = [], []
    for w in range(1, sim._SUM_ROWS + 1):
        c = keys[offs[w]:offs[w + 1]] - (w << 53)
        u = np.clip(np.concatenate([c - 1, c, c + 1, ends]), 0, top)
        ws.append(np.full(len(u), w))
        us.append(u)
    gen = np.random.default_rng(11)
    ws.append(gen.integers(1, sim._SUM_ROWS + 1, 10 ** 6))
    us.append(gen.integers(0, 1 << 53, 10 ** 6))
    w, u = np.concatenate(ws), np.concatenate(us)
    want = np.searchsorted(keys, (w << 53) + u, side="right") - offs[w]
    hint = guide[(w << bits) + (u >> (53 - bits))]
    assert np.all((hint < 0) | (hint == want))
    assert 0.5 < np.mean(hint >= 0) < 1.0
    got = sim._table_sums(k1, FixedUniforms(u / 2.0 ** 53), w)
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
    draws = sim._offspring_sums(p, stream(43, 0), np.repeat(sizes, n))
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
    sums = sim._offspring_sums(p, stream(29, 1), np.full(1000, 100))
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
    draws = sim._offspring_sums(p, stream(31, 0), np.full(n, w)) - w + shift
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
    ref = sim._offspring_sums(p, stream(2, 0), pops)
    monkeypatch.setattr(sim, "_CHUNK", 7)
    small = sim._offspring_sums(p, stream(2, 0), pops)
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
    ref = sim._offspring_sums(p, stream(2, 0), pops)
    monkeypatch.setattr(sim, "_CHUNK", 7)
    small = sim._offspring_sums(p, stream(2, 0), pops)
    assert np.array_equal(ref, small)


def test_huge_population_keeps_memory_bounded(monkeypatch):
    # 10^9 individuals at nu = 1/2: the tail cell holds ~10^6 of them,
    # drawn in chunks of 2^16, so the peak allocation stays a few chunks
    p = LawParams(nu=0.5, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    monkeypatch.setattr(sim, "_CHUNK", 1 << 16)
    tracemalloc.start()
    try:
        total = sim._offspring_sums(p, stream(37, 0),
                                    np.array([10 ** 9]))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * (1 << 16)
    # mean 1 per individual; the fluctuations are of order 10^6
    assert abs(total - 10 ** 9) < 10 ** 8


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
    est = conditional_laplace_mc(CANON, "z", n, c, reps=200_000, seed=3,
                                 threads=2)
    assert abs(est.value - exact) < 4.0 * est.se
    assert est.survivors > 0


def test_conditional_laplace_degenerate():
    p = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=0.01, kappa1=0.5,
                  kappa2=1.0)
    with pytest.raises(DegenerateConditioningError):
        conditional_laplace_mc(p, "stopped", 2, 1.0, reps=8, seed=0)


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


def test_input_validation():
    with pytest.raises(ValueError):
        estimate_survival(CANON, "stopped", 2, 0, seed=0)
    with pytest.raises(ValueError):
        simulate(CANON, "stopped", 0)
    with pytest.raises(ValueError):
        simulate(CANON, "not-a-model", 3)
    with pytest.raises(ValueError):
        conditional_laplace_mc(CANON, "z", 2, -1.0, reps=10, seed=0)


@pytest.mark.parametrize("cap", [0, -5, sim.MAX_CAP + 1, 2 ** 63 - 1])
def test_cap_is_validated_by_every_entry_point(cap):
    # cap 0 would freeze every replicate; a cap near 2**63 lets the int64
    # offspring sums wrap
    calls = [
        lambda: simulate(CANON, "stopped", 3, cap=cap),
        lambda: estimate_survival(CANON, "stopped", 3, 10, seed=0, cap=cap),
        lambda: sample_life_period(CANON, "z", reps=10, horizon=3, seed=0,
                                   cap=cap),
        lambda: conditional_laplace_mc(CANON, "z", 2, 1.0, reps=10, seed=0,
                                       cap=cap),
    ]
    for call in calls:
        with pytest.raises(OutOfRangeError, match="cap"):
            call()
    # the bounds themselves are admissible
    for ok in (1, sim.MAX_CAP):
        assert estimate_survival(CANON, "stopped", 3, 10, seed=0,
                                 cap=ok).reps == 10
