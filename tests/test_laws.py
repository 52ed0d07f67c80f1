"""Law tables and samplers against independent series/transform oracles."""

import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gwimm.errors import DegenerateThetaError, NonPmfError, OutOfRangeError
from gwimm.laws import (LawParams, immigration_pgf, immigration_pmf,
                        initial_pgf, initial_pmf, offspring_mean_tail,
                        offspring_pgf, offspring_pmf, sample_immigration,
                        sample_initial, sample_offspring, sample_sibuya,
                        stable_positive, _ONE, _SIBUYA_TABLE, _TABLE_CAP,
                        _inverse_cdf_table, _keys, _log_ratio_gamma,
                        _offspring_tail_value, _sibuya_tail_value)
from gwimm.rng import stream

from conftest import mc_radius

CANON = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)


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


@pytest.mark.parametrize("theta, kappa2, want", [
    (1.0, 0.25, "d33e5fea8ec65203"),
    (1.0, 7.3, "ba9b55174933672f"),
    (0.5, 7.3, "2843ce44e346243e"),
])
def test_immigration_pmf_bytes_pin(theta, kappa2, want):
    # each step sums up to the last nonzero series coefficient only (c_1
    # at theta = 1); the terms left out are exact zeros, so the table
    # keeps the bytes of the sum over every coefficient
    p = LawParams(nu=1.0, theta=theta, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=kappa2)
    probs = immigration_pmf(p, 4096).probs
    assert hashlib.sha256(probs.tobytes()).hexdigest()[:16] == want


def test_immigration_hand_values():
    # b_0 = exp(-kappa2) and b_1 = kappa2*theta*exp(-kappa2) directly
    p = LawParams(nu=1.0, theta=0.5, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    t = immigration_pmf(p, 3)
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
    p = LawParams(nu=1.0, theta=0.5, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
    n = 200_000
    draws = sample_immigration(p, stream(14, 0), n)
    table = immigration_pmf(p, 4).probs
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


def test_tail_inverse_against_brute_walk():
    # smallest n with S(n) < v, against a direct product walk
    delta, v = 0.5, 0.01
    got = _sibuya_tail_value(delta, v, 2)
    surv, n = 1.0 - delta, 1
    while surv >= v:
        n += 1
        surv *= (n - delta) / n
    assert got == n

    nu, k1, v = 0.5, 0.5, 0.02
    got = _offspring_tail_value(nu, k1, v, 3)
    t = offspring_pmf(LawParams(nu, 1.0, 1.0, 1.0, k1, 1.0), 5000)
    surv = np.cumsum(t.probs[::-1])[::-1]  # surv[k] = P(X >= k)
    brute = int(np.argmax(t.truncation_mass + surv[1:] < v))  # P(X > n)
    assert got == brute


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
