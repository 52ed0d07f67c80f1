"""Law tables and samplers against independent series/transform oracles."""

import hashlib
import itertools
import math
import platform
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gwimm.errors import DegenerateThetaError, NonPmfError, OutOfRangeError
from gwimm.laws import (KAPPA2_TABLE_MAX, LawParams, immigration_pgf,
                        immigration_pmf, initial_pgf, initial_pmf,
                        offspring_mean_tail, offspring_pgf, offspring_pmf,
                        sample_immigration, sample_initial, sample_offspring,
                        sample_sibuya, stable_positive, _ONE, _SIBUYA_TABLE,
                        _TABLE_CAP, _inverse_cdf_table, _keys,
                        _log_ratio_gamma, _offspring_tail_value, _poisson_pmf,
                        _sibuya_tail_value)
from gwimm.rng import stream

from conftest import CANON, R0, mc_radius


def binom_coeff(a: float, k: int) -> float:
    """Generalized binomial C(a, k) as an explicit product (oracle route)."""
    out = 1.0
    for j in range(k):
        out *= (a - j) / (j + 1)
    return out


def dft_pmf(pgf, nmax: int, npts: int = 512, radius: float = 0.9):
    """Invert a pgf by sampling on a sub-unit circle (oracle route).

    Aliasing error is below radius**npts ~ 1e-23, so the only noise left
    is the radius**-k amplification of float roundoff in the DFT.
    """
    z = radius * np.exp(2j * np.pi * np.arange(npts) / npts)
    vals = pgf(z)
    coef = np.fft.fft(vals).real / npts
    return coef[:nmax + 1] / radius ** np.arange(nmax + 1)


# ---------------------------------------------------------------------------
# pmf tables vs independent expansions


@pytest.mark.parametrize("nu,kappa1", [(1.0, 0.5), (0.5, 0.5), (0.73, 0.4)])
def test_offspring_pmf_matches_binomial_series(nu, kappa1):
    # F(s) = s + kappa1*(1-s)**(1+nu): coefficient of s^k is
    # [k == 1] + kappa1 * (-1)^k * C(1+nu, k)
    p = LawParams(nu=nu, theta=1.0, delta=1.0, kappa0=1.0, kappa1=kappa1,
                  kappa2=1.0)
    table = offspring_pmf(p, 40)
    for k in range(41):
        expect = kappa1 * (-1.0) ** k * binom_coeff(1.0 + nu, k)
        if k == 1:
            expect += 1.0
        assert table.probs[k] == pytest.approx(expect, abs=1e-14)
        assert table.probs[k] >= 0.0


@pytest.mark.parametrize("delta,kappa0", [(1.0, 1.0), (0.5, 0.5), (0.31, 0.9)])
def test_initial_pmf_matches_binomial_series(delta, kappa0):
    p = LawParams(nu=1.0, theta=1.0, delta=delta, kappa0=kappa0, kappa1=0.5,
                  kappa2=1.0)
    table = initial_pmf(p, 40)
    assert table.probs[0] == pytest.approx(1.0 - kappa0, abs=1e-15)
    for k in range(1, 41):
        expect = -kappa0 * (-1.0) ** k * binom_coeff(delta, k)
        assert table.probs[k] == pytest.approx(expect, abs=1e-14)


@pytest.mark.parametrize("theta,kappa2", [(1.0, 1.0), (0.5, 1.0),
                                          (0.5, 0.25), (0.8, 2.0)])
def test_immigration_pmf_matches_circle_inversion(theta, kappa2):
    p = LawParams(nu=1.0, theta=theta, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=kappa2)
    table = immigration_pmf(p, 60)
    oracle = dft_pmf(lambda z: np.exp(-kappa2 * (1.0 - z) ** theta), 60)
    assert np.max(np.abs(table.probs - oracle)) < 1e-9


def test_immigration_theta_one_is_poisson():
    table = immigration_pmf(CANON, 30)
    for k in range(31):
        poisson = math.exp(-1.0) / math.factorial(k)
        assert table.probs[k] == pytest.approx(poisson, rel=1e-12)


X86_64_LINUX = (sys.platform.startswith("linux")
                and platform.machine() in ("x86_64", "AMD64"))


@pytest.mark.skipif(not X86_64_LINUX, reason="long double is not the x87 "
                    "format here; README's Platform section lists what moves")
def test_long_double_is_x87_on_x86_64_linux():
    # the pinned digests and the long-double accuracy figures assume the
    # 80-bit x87 format: a 64-bit mantissa, and exp(-kappa2) normal up to
    # kappa2 = 11355.1
    assert np.finfo(np.longdouble).nmant == 63
    assert 11355.1 < KAPPA2_TABLE_MAX < 11355.2


@pytest.mark.parametrize("theta, kappa2, want", [
    (1.0, 0.25, "17b3f7beff751c71"),
    (1.0, 7.3, "36e415c19f4607c0"),
    (0.5, 7.3, "91c2fdda6f9ebb34"),
])
def test_immigration_pmf_bytes_pin(theta, kappa2, want):
    # theta = 1 is the long-double Poisson table rounded once; theta < 1
    # is the long-double series recurrence rounded once, its bytes fixed
    # by the summation order of each step's dot product
    p = LawParams(nu=1.0, theta=theta, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=kappa2)
    probs = immigration_pmf(p, 4096).probs
    assert hashlib.sha256(probs.tobytes()).hexdigest()[:16] == want


@pytest.mark.parametrize("theta, kappa2", [(0.5, 7.3), (0.3, 0.7),
                                           (0.9, 40.0)])
def test_immigration_pmf_is_rounded_once(theta, kappa2):
    # the series recurrence in 40 digits from the same float64 theta and
    # kappa2: every normal entry of the table is that value rounded once,
    # up to the long-double recurrence's own drift, within 2**-52
    mpmath = pytest.importorskip("mpmath")
    nmax = 250
    p = LawParams(nu=1.0, theta=theta, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=kappa2)
    probs = immigration_pmf(p, nmax).probs
    with mpmath.workdps(40):
        th, k2 = mpmath.mpf(theta), mpmath.mpf(kappa2)
        kc, w = [], mpmath.mpf(1)
        for k in range(1, nmax + 1):
            w *= (k - 1 - th) / k
            kc.append(-k2 * w * k)
        b = [mpmath.exp(-k2)]
        for n in range(1, nmax + 1):
            b.append(mpmath.fsum(kc[k] * b[n - 1 - k] for k in range(n)) / n)
        normal = probs >= sys.float_info.min
        assert normal.sum() > 100
        for x, want in zip(probs[normal], np.array(b)[normal]):
            assert abs(mpmath.mpf(float(x)) / want - 1) <= mpmath.mpf(2) ** -52


@pytest.mark.parametrize("kappa2", [0.25, 7.3, 800.0])
def test_immigration_theta_one_is_the_rounded_poisson_table(kappa2):
    # one Poisson kernel: the long-double table, rounded once, cut or
    # zero-padded to nmax + 1
    p = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=kappa2)
    pois = _poisson_pmf(kappa2).astype(float)
    for nmax in (10, 4096):
        want = np.zeros(nmax + 1)
        want[:min(len(pois), nmax + 1)] = pois[:nmax + 1]
        assert np.array_equal(immigration_pmf(p, nmax).probs, want)


@pytest.mark.parametrize("theta, kappa2", [(1.0, 740.0), (0.95, 740.0),
                                           (1.0, 800.0)])
def test_immigration_pmf_is_infinitely_divisible(theta, kappa2):
    # B at kappa2 is B at kappa2/2 squared; here exp(-kappa2) is below
    # the float64 range, exp(-kappa2/2) is not
    p, half = (LawParams(nu=1.0, theta=theta, delta=1.0, kappa0=1.0,
                         kappa1=0.5, kappa2=k) for k in (kappa2, kappa2 / 2))
    nmax = 1500
    table, h = immigration_pmf(p, nmax), immigration_pmf(half, nmax).probs
    np.testing.assert_allclose(table.probs, np.convolve(h, h)[:nmax + 1],
                               rtol=1e-12, atol=1e-300)
    assert abs(math.fsum(table.probs.tolist()) + table.truncation_mass
               - 1.0) <= 1e-12
    if theta == 1.0:
        assert table.truncation_mass <= 1e-12


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_immigration_past_the_long_double_range_is_all_tail(theta):
    # exp(-kappa2) is 0 even in long double: zeros and truncation mass 1,
    # at once (the Poisson series from a zero first weight never ends)
    p = LawParams(nu=1.0, theta=theta, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1e300)
    t = immigration_pmf(p, 5)
    assert not t.probs.any() and t.truncation_mass == 1.0


def test_immigration_hand_values():
    # b_0 = exp(-kappa2) and b_1 = kappa2*theta*exp(-kappa2) directly
    t = immigration_pmf(R0, 3)
    assert t.probs[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert t.probs[1] == pytest.approx(0.5 * math.exp(-1.0), rel=1e-14)


# ---------------------------------------------------------------------------
# mass accounting and closed-form tails


@pytest.mark.parametrize("nmax", [0, 1, 2, 7, 200])
def test_offspring_mass_accounting(nmax):
    p = LawParams(nu=0.5, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    t = offspring_pmf(p, nmax)
    assert math.fsum(t.probs.tolist()) + t.truncation_mass == \
        pytest.approx(1.0, abs=1e-13)
    assert t.truncation_mass >= 0.0


@pytest.mark.parametrize("nmax", [0, 1, 5, 300])
def test_initial_mass_accounting(nmax):
    p = LawParams(nu=1.0, theta=1.0, delta=0.4, kappa0=0.7, kappa1=0.5,
                  kappa2=1.0)
    t = initial_pmf(p, nmax)
    assert math.fsum(t.probs.tolist()) + t.truncation_mass == \
        pytest.approx(1.0, abs=1e-13)


@settings(max_examples=60, deadline=None)
@example(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, frac=1.0, kappa2=740.0)
@example(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, frac=1.0, kappa2=1e300)
@given(nu=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       theta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       delta=st.floats(min_value=sys.float_info.min, max_value=1.0),
       kappa0=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       kappa2=st.floats(min_value=0.0, max_value=1e300, exclude_min=True))
def test_pmf_tables_account_for_all_mass_over_the_box(nu, theta, delta,
                                                      kappa0, frac, kappa2):
    # every admissible law, at several truncation points: no negative
    # weight, and the weights and the tail mass close to 1
    kappa1 = frac / (1.0 + nu)
    assume(kappa1 * nu >= sys.float_info.min)
    p = LawParams(nu, theta, delta, kappa0, kappa1, kappa2)
    for pmf in (offspring_pmf, initial_pmf, immigration_pmf):
        for nmax in (0, 1, 2, 9, 200):
            t = pmf(p, nmax)
            assert np.all(t.probs >= 0.0) and t.truncation_mass >= 0.0
            assert abs(math.fsum(t.probs.tolist()) + t.truncation_mass
                       - 1.0) <= 1e-12, (pmf.__name__, nmax)


@pytest.mark.parametrize("nmax", [4096, 10 ** 6])
def test_initial_tail_keeps_accuracy_at_smallest_normal_delta(nmax):
    # the weights g_n are subnormal here, but the mass above nmax is
    # kappa0 * prod_{j<=nmax} (1 - delta/j), which equals kappa0 in floats
    p = LawParams(nu=1.0, theta=1.0, delta=sys.float_info.min, kappa0=0.5,
                  kappa1=0.5, kappa2=1.0)
    assert initial_pmf(p, nmax).truncation_mass == \
        pytest.approx(0.5, rel=1e-13)


@pytest.mark.parametrize("nmax", [10 ** 5, 10 ** 6])
def test_initial_tail_against_mpmath(nmax):
    # mass above nmax is kappa0 * Gamma(nmax+1-delta) / (Gamma(1-delta) *
    # Gamma(nmax+1)); 10^6 ratio products keep it to ~1e-14 relative
    mpmath = pytest.importorskip("mpmath")
    p = LawParams(nu=1.0, theta=1.0, delta=0.4, kappa0=0.7, kappa1=0.5,
                  kappa2=1.0)
    d, k0 = mpmath.mpf(p.delta), mpmath.mpf(p.kappa0)
    with mpmath.workdps(30):
        ref = k0 * mpmath.gamma(nmax + 1 - d) / (mpmath.gamma(1 - d)
                                                  * mpmath.gamma(nmax + 1))
        tail = initial_pmf(p, nmax).truncation_mass
        assert float(abs(tail - ref) / ref) < 1e-13


def test_offspring_tail_closed_form():
    # mass beyond n has survival form kappa1*nu*Gamma(n-nu)/(Gamma(1-nu)*
    # Gamma(n+1)); the table reaches it through the ratio recurrence instead
    nu, k1 = 0.5, 0.5
    t = offspring_pmf(LawParams(nu, 1.0, 1.0, 1.0, k1, 1.0), 100)
    ref = k1 * nu * math.exp(math.lgamma(100 - nu) - math.lgamma(1.0 - nu)
                             - math.lgamma(101.0))
    assert t.truncation_mass == pytest.approx(ref, rel=1e-12)


def test_truncated_pgf_brackets_closed_form():
    # |pgf(s) - sum p_k s^k| <= truncation_mass for every s in [0, 1]
    p = LawParams(nu=0.5, theta=0.5, delta=0.5, kappa0=0.8, kappa1=0.5,
                  kappa2=1.3)
    s = np.linspace(0.0, 1.0, 21)
    pows = s[:, None] ** np.arange(81)[None, :]
    for pgf, table in [(offspring_pgf, offspring_pmf(p, 80)),
                       (immigration_pgf, immigration_pmf(p, 80)),
                       (initial_pgf, initial_pmf(p, 80))]:
        partial = pows @ table.probs
        gap = np.abs(np.asarray(pgf(p, s)) - partial)
        assert np.all(gap <= table.truncation_mass + 1e-12)


def test_critical_mean_via_exact_tail():
    # sum_{k<=n} k p_k + mean-tail(n) = 1 for the critical offspring law
    p = LawParams(nu=0.5, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    for n in (1, 10, 500):
        t = offspring_pmf(p, n)
        partial = math.fsum((np.arange(n + 1) * t.probs).tolist())
        assert partial + offspring_mean_tail(p, n) == \
            pytest.approx(1.0, abs=1e-12)
    assert offspring_mean_tail(CANON, 1) == pytest.approx(1.0, abs=1e-15)
    assert offspring_mean_tail(CANON, 2) == 0.0


# ---------------------------------------------------------------------------
# samplers


def test_keys_are_the_integer_uniforms_of_random():
    # 10**6 keys, then an odd count inside Philox's four-word output: bit
    # for bit the integers u * 2**53 of the same `random` draws, and the
    # stream is left where those draws leave it
    a, b = stream(3, 5), stream(3, 5)
    for n in (10 ** 6, 3):
        want = (a.random(n) * 2.0 ** 53).astype(np.int64)
        got = _keys(b, n)
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert a.random() == b.random()
    assert np.array_equal(a.random(5), b.random(5))


def test_sample_offspring_cell_frequencies():
    p = LawParams(nu=0.5, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    n = 200_000
    draws = sample_offspring(p, stream(11, 0), n)
    table = offspring_pmf(p, 6).probs
    for k in (0, 1, 2, 5):
        freq = np.mean(draws == k)
        se = math.sqrt(table[k] * (1.0 - table[k]) / n)
        assert abs(freq - table[k]) < 4.0 * se


def test_sample_initial_atom_and_sibuya_split():
    p = LawParams(nu=1.0, theta=1.0, delta=0.5, kappa0=0.6, kappa1=0.5,
                  kappa2=1.0)
    n = 200_000
    draws = sample_initial(p, stream(12, 0), n)
    z0 = np.mean(draws == 0)
    se = math.sqrt(0.4 * 0.6 / n)
    assert abs(z0 - 0.4) < 4.0 * se
    # positive part restricted to {1,2}: Sibuya pins delta and delta(1-delta)/2
    f1 = np.mean(draws == 1)
    assert abs(f1 - 0.6 * 0.5) < 4.0 * math.sqrt(0.3 * 0.7 / n)


def test_sample_immigration_poisson_route():
    draws = sample_immigration(CANON, stream(13, 0), 100_000)
    ref = np.random.default_rng(99).poisson(1.0, 100_000)
    assert abs(draws.mean() - 1.0) < 4.0 / math.sqrt(100_000)
    assert draws.dtype == ref.dtype


@pytest.mark.parametrize("kappa2", [1e19, 1e300])
def test_poisson_immigration_past_the_generator_limit_is_clamped(kappa2):
    # numpy's Poisson raises "lam value too large" from ~9.2e18 on; the
    # mean is clamped to 1e17 as at theta < 1, far past any cap (2**53)
    p = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=kappa2)
    draws = sample_immigration(p, stream(15, 0), 1000)
    assert np.all(draws > 2 ** 53)


def test_sample_immigration_heavy_cells():
    n = 200_000
    draws = sample_immigration(R0, stream(14, 0), n)
    table = immigration_pmf(R0, 4).probs
    for k in (0, 1, 3):
        freq = np.mean(draws == k)
        se = math.sqrt(table[k] * (1.0 - table[k]) / n)
        assert abs(freq - table[k]) < 4.0 * se


def test_sibuya_survival_function():
    # P(X > n) = prod_{j<=n} (1 - delta/j), checked at n = 1 and n = 4
    delta, n = 0.5, 200_000
    draws = sample_sibuya(delta, stream(15, 0), n)
    for m in (1, 4):
        surv = 1.0
        for j in range(1, m + 1):
            surv *= 1.0 - delta / j
        freq = np.mean(draws > m)
        assert abs(freq - surv) < 4.0 * math.sqrt(surv * (1 - surv) / n)


@pytest.mark.parametrize("delta", [0.01, 0.001, 1e-17, sys.float_info.min])
def test_sibuya_far_tail_stays_in_range(delta):
    # 1 - delta near 1 puts the tail walk's seed exponent -log(v)/delta
    # past exp's range: the draw is the 2**62 sentinel, not an
    # OverflowError (1e-17 and below: 1 - delta rounds to 1)
    draws = sample_sibuya(delta, stream(2, 0), 200_000)
    assert draws.min() >= 1 and draws.max() == 2 ** 62
    assert _sibuya_tail_value(delta, 1e-300, 1024) == 2 ** 62


def first_below(log_sf: np.ndarray, v: float, lo: int):
    """Smallest n >= lo with exp(log_sf[n]) < v, or None where that n is
    past the array or a log survival within 1e-9 of log v makes the
    float comparison a tie."""
    hits = lo + np.flatnonzero(log_sf[lo:] < math.log(v))
    if not hits.size:
        return None
    n = int(hits[0])
    near = log_sf[max(n - 1, lo):n + 1] - math.log(v)
    return None if np.min(np.abs(near)) < 1e-9 else n


def test_tail_inverse_against_brute_walk():
    # smallest n >= lo with S(n) < v, against long-double survival
    # products for both tails over a grid: the seed never lies past the
    # answer (Wendel's inequality), so the upward walk alone finds it
    j = np.arange(1, 200_001, dtype=np.longdouble)
    vs = [0.37 * 10.0 ** -k for k in range(1, 9)] + [0.9, 0.5, 0.02, 0.01,
                                                     1e-12]
    checked = 0
    for delta in (0.05, 0.3, 0.5, 0.77, 0.999):
        # log P(X > n) = sum_{j<=n} log(1 - delta/j), n = 0, 1, ...
        log_sf = np.concatenate(([0.0], np.cumsum(np.log1p(-delta / j))))
        for v in vs:
            for lo in (1, 2, 8, 300):
                want = first_below(log_sf, v, lo)
                if want is not None:
                    assert _sibuya_tail_value(delta, v, lo) == want, \
                        (delta, v, lo)
                    checked += 1
    for nu, k1 in itertools.product((0.05, 0.3, 0.5, 0.77, 0.999),
                                    (0.4, 0.5)):
        # P(X > 1) = kappa1*nu and P(X > n)/P(X > n-1) = (n-1-nu)/n
        steps = np.log((j - nu) / (j + 1))
        log_sf = np.concatenate(([np.nan, math.log(k1 * nu)],
                                 math.log(k1 * nu) + np.cumsum(steps)))
        for v in vs:
            for lo in (2, 3, 8, 300):
                want = first_below(log_sf, v, lo)
                if want is not None:
                    assert _offspring_tail_value(nu, k1, v, lo) == want, \
                        (nu, v, lo)
                    checked += 1
    assert checked >= 200, checked


def offspring_sf(nu: float, kappa1: float, n: int) -> float:
    """Closed-form P(X > n) of the offspring law; for n >= 1 by the Gamma
    route of the tail sampler."""
    if n == 0:
        return 1.0 - kappa1
    if nu == 1.0:                 # three-point law on {0, 1, 2}
        return kappa1 if n == 1 else 0.0
    log_amp = math.log(kappa1) + math.log(nu) - math.lgamma(1.0 - nu)
    return math.exp(_log_ratio_gamma(log_amp, -nu, n))


def sibuya_sf(delta: float, n: int) -> float:
    """Closed-form P(X > n) of the Sibuya law, n >= 1."""
    if delta == 1.0:              # unit mass at 1
        return 0.0
    return math.exp(_log_ratio_gamma(-math.lgamma(1.0 - delta),
                                     1.0 - delta, n))


UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@settings(max_examples=40, deadline=None)
@given(nu=UNIT, frac=UNIT,
       delta=st.floats(min_value=sys.float_info.min, max_value=1.0))
def test_sampler_tables_account_for_all_mass(nu, frac, delta):
    # both inverse-cdf tables, built as the samplers build them: the tail
    # mass closes the table's last key to 1 and equals the closed form at
    # its end
    kappa1 = frac / (1.0 + nu)
    assume(kappa1 * nu >= sys.float_info.min and kappa1 * (1.0 + nu) <= 1.0)
    tables = [
        (_inverse_cdf_table(offspring_pmf,
                            LawParams(nu, 1.0, 1.0, 1.0, kappa1, 1.0),
                            _TABLE_CAP),
         lambda n: offspring_sf(nu, kappa1, n)),
        (_inverse_cdf_table(initial_pmf,
                            LawParams(1.0, 1.0, delta, 1.0, 0.5, 1.0),
                            _SIBUYA_TABLE),
         lambda n: sibuya_sf(delta, n)),
    ]
    for (n, tail, (keys, _, _)), sf in tables:
        # a last cdf value that rounds to 1 has the key 2**53, not stored
        last = keys[n - 1] if len(keys) == n else _ONE
        assert abs(last / _ONE + tail - 1.0) <= 1e-13
        # a subnormal value carries no relative precision
        assert tail == pytest.approx(sf(n - 1), rel=1e-10,
                                     abs=sys.float_info.min)


def test_sampler_reproducibility():
    p = LawParams(nu=0.5, theta=0.5, delta=0.5, kappa0=0.5, kappa1=0.5,
                  kappa2=1.0)
    a = sample_offspring(p, stream(3, 7), 1000)
    b = sample_offspring(p, stream(3, 7), 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_offspring(p, stream(3, 8), 1000))


# ---------------------------------------------------------------------------
# one-sided stable variates


def test_stable_laplace_transform():
    # E exp(-lam * S) = exp(-lam**theta)
    n = 200_000
    for theta in (0.3, 0.7):
        s = stable_positive(theta, stream(21, 0), n)
        for lam in (0.5, 2.0):
            v = np.exp(-lam * s)
            z = (v.mean() - math.exp(-lam ** theta)) \
                / (v.std(ddof=1) / math.sqrt(n))
            assert abs(z) < 4.0


@pytest.mark.parametrize("theta, kappa2",
                         [(0.02, 0.5), (0.01, 1e-4), (1e-5, 2.0),
                          (1e-305, 0.7), (5e-324, 1.5)])
def test_immigration_at_small_theta(theta, kappa2):
    # kappa2**(1/theta) and S leave the float range; P(Y = 0) = exp(-kappa2)
    # still holds for the mixture formed from their logs, and for its
    # limit where the logs themselves overflow
    p = LawParams(nu=1.0, theta=theta, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=kappa2)
    n = 200_000
    y = sample_immigration(p, stream(31, 0), n)
    q = math.exp(-kappa2)
    assert abs(np.mean(y == 0) - q) < 4.0 * math.sqrt(q * (1 - q) / n)
    assert y.min() >= 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(theta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                       exclude_max=True),
       kappa2=st.floats(min_value=0.0, max_value=8.0, exclude_min=True))
@example(theta=5e-324, kappa2=1.5)
@example(theta=1e-305, kappa2=0.7)
@example(theta=1e-300, kappa2=8.0)
@example(theta=1e-3, kappa2=2.0)
@example(theta=0.5, kappa2=0.7)
@example(theta=1.0 - 2.0 ** -53, kappa2=3.0)
def test_immigration_frequencies_over_the_box(theta, kappa2):
    # the frequencies of 0, 1, 2 and >= 3 against the exact table and its
    # tail mass: 4 comparisons an example at MC_ALPHA each
    p = LawParams(nu=1.0, theta=theta, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=kappa2)
    n = 100_000
    y = sample_immigration(p, stream(7, 0), n)
    table = immigration_pmf(p, 2)
    law = np.append(table.probs, table.truncation_mass)
    freq = np.bincount(np.minimum(y, 3), minlength=4) / n
    assert np.all(np.abs(freq - law) <= mc_radius(np.clip(law, 0.0, 1.0), n))


def test_stable_draws_out_of_the_float_range_read_inf_or_0():
    # at theta = 1e-3 S leaves the float range on both sides, with no
    # overflow warning and no NaN
    s = stable_positive(1e-3, stream(1, 0), 1000)
    assert np.any(s == 0.0) and np.any(s == math.inf)
    assert not np.any(np.isnan(s))


def test_stable_rejects_degenerate_and_bad_theta():
    rng = stream(0, 0)
    with pytest.raises(DegenerateThetaError):
        stable_positive(1.0, rng, 10)
    with pytest.raises(OutOfRangeError):
        stable_positive(1.5, rng, 10)
    # below 1e-300 (nearly) every draw leaves the float range
    for theta in (0.0, 5e-324, 1e-301):
        with pytest.raises(OutOfRangeError):
            stable_positive(theta, rng, 10)


# ---------------------------------------------------------------------------
# parameter validation


def test_params_validation_taxonomy():
    with pytest.raises(OutOfRangeError):
        LawParams(nu=0.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    with pytest.raises(OutOfRangeError):
        LawParams(nu=1.0, theta=1.2, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    with pytest.raises(OutOfRangeError):
        LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=0.0, kappa1=0.5,
                  kappa2=1.0)
    with pytest.raises(OutOfRangeError):
        LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=0.0)
    with pytest.raises(OutOfRangeError):
        LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=math.inf)
    with pytest.raises(NonPmfError):
        LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.6,
                  kappa2=1.0)
    with pytest.raises(OutOfRangeError):     # subnormal: weights underflow
        LawParams(nu=1.0, theta=1.0, delta=5e-324, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    # kappa1*nu below the smallest normal float: zero or subnormal, so the
    # regime's sigma and the offspring tail would divide by or log it
    for nu, kappa1 in ((0.5, 5e-324), (1.0, 1e-308), (1e-300, 1e-9)):
        with pytest.raises(OutOfRangeError, match="kappa1"):
            LawParams(nu=nu, theta=1.0, delta=1.0, kappa0=1.0, kappa1=kappa1,
                      kappa2=1.0)
    LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0,
              kappa1=sys.float_info.min, kappa2=1.0)
    # boundary kappa1 = 1/(1+nu) is admissible (offspring atom p1 = 0)
    p = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    assert offspring_pmf(p, 2).probs[1] == 0.0
