"""Generating-function iteration, decay-rate gaps, and immigration products."""

import math
import warnings

import numpy as np
import pytest

from gwimm.laws import (LawParams, immigration_pgf, initial_pgf,
                        offspring_pgf)
from gwimm.pgf import (_log1m, _power, _q_steps, epsilon_term,
                       gamma_sequences, h_n, q_iterate, rate_gap)

from conftest import CANON, MIXED


def test_q_hand_iteration():
    # q_{j+1} = q_j * (1 - kappa1*q_j^nu) from q_0 = 1:
    # 1, 1/2, 3/8, 39/128 for nu = 1, kappa1 = 1/2, each held as its log
    # in float64, so read back to within one float64 ulp
    want = np.array([1.0, 0.5, 0.375, 0.3046875])
    q = _power(q_iterate(CANON, 0.0, 3), 1.0).astype(float)
    assert np.all(np.abs(q - want) <= np.spacing(want))
    lq = _q_steps(CANON, 0.0, 3)[3]
    assert abs(lq - math.log(0.3046875)) <= np.spacing(abs(lq))


def test_q_iterate_matches_direct_composition():
    # independent route: iterate the closed-form pgf itself
    t = 0.3
    s = t
    for _ in range(7):
        s = float(offspring_pgf(MIXED, s))
    assert _power(q_iterate(MIXED, t, 7), 1.0)[7] == pytest.approx(
        1.0 - s, rel=1e-13)


FRACTIONAL = LawParams(nu=0.7, theta=0.9, delta=0.4, kappa0=1.0,
                       kappa1=0.55, kappa2=0.3)


@pytest.mark.parametrize("params", [CANON, MIXED, FRACTIONAL])
@pytest.mark.parametrize("n", [10, 1000, 20000])
def test_q_last_is_bitwise_last_of_q_iterate(params, n):
    # the last q on its own: the sweeps read log q_n(0) off one longer
    # trajectory, which must hold the q_n of a trajectory cut at n bit for
    # bit
    for t in (0.0, 0.3, 0.97):
        lqn = q_iterate(params, t, n)[n]
        assert _q_steps(params, math.log1p(-t), 2 * n)[n] == lqn


def long_double_logs(nu: float, kappa1: float, n: int) -> np.ndarray:
    """log q_0..log q_n from q_0 = 1, iterated on q itself in long double
    (64-bit mantissa, range to 1e-4951), an independent route."""
    one, k1, v = np.longdouble(1.0), np.longdouble(kappa1), np.longdouble(nu)
    out = np.empty(n + 1, dtype=np.longdouble)
    q = out[0] = one
    for j in range(1, n + 1):
        q = out[j] = q * (one - k1 * q ** v)
    return np.log(out)


@pytest.mark.parametrize("nu, kappa1, n, bound", [
    (1.0, 0.5, 10 ** 6, 2e-15),
    (0.5, 0.5, 10 ** 6, 2.5e-15),
    (0.005, 0.5, 10 ** 6, 2e-14),
    (1e-138, 1e-3, 2 * 10 ** 4, 5e-15),
])
def test_q_kernel_against_long_double_iteration(nu, kappa1, n, bound):
    # exact log steps while kappa1*q^nu > 2^-8, then the Fatou pass; at
    # nu = 1e-138 and kappa1 = 1e-3 the pass starts at j = 0
    p = LawParams(nu, 1.0, 1.0, 1.0, kappa1, 1.0)
    ref = long_double_logs(nu, kappa1, n)
    path = _q_steps(p, 0.0, n)
    err = np.abs(path - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max() <= bound, (err.max(), int(err.argmax()))
    for a in (1.0, 0.9, 0.5, 1e-3):
        got = _power(path, a)
        want = np.exp(np.longdouble(a) * ref)
        assert got.dtype == np.longdouble
        rel = np.abs(got - want) / want
        assert np.all(rel <= a * bound * np.maximum(1.0, np.abs(ref))
                      + 1e-18)


def test_q_kernel_far_below_the_float_range():
    # from log q_0 = -10^5, kappa1*q^nu is 0 in any float format, and
    # so is every step of log q
    lq = np.longdouble(-1e5)
    ref = [lq]
    for _ in range(2 * 10 ** 4):
        lq = lq + np.log1p(-np.longdouble(0.5) * np.exp(lq))
        ref.append(lq)
    ref = np.array(ref)
    got = _q_steps(CANON, -1e5, 2 * 10 ** 4)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 5e-15


def test_q_kernel_where_kappa1_rounds_to_one():
    # kappa1 = 1/(1 + nu) rounds to 1: q_1 = q_0*(1 - 1) = 0, and q stays 0
    nu = 5.4621546740691746e-105
    p = LawParams(nu, 1.0, 1.0, 1.0, 1.0 / (1.0 + nu), 1.0)
    assert p.kappa1 == 1.0
    lq = q_iterate(p, 0.0, 2000)
    assert lq[0] == 0.0 and np.all(lq[1:] == -math.inf)


def test_power_at_q_zero_is_zero_without_a_warning():
    # t = 1 gives q_j = 0 for every j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path = q_iterate(MIXED, 1.0, 3000)
        for a in (1.0, 0.5, 1e-300):
            assert np.all(_power(path, a) == 0.0)


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
def test_paths_are_read_only_float64(t):
    # one path is shared by every reader, so none may write it
    for path in (q_iterate(MIXED, t, 300), _q_steps(MIXED, _log1m(t), 300)):
        assert path.dtype == np.float64 and not path.flags.writeable


def test_power_leaves_its_path_bit_for_bit():
    # a writeable copy, so a write in place would show
    path = _q_steps(FRACTIONAL, 0.0, 3000).copy()
    before = path.tobytes()
    for a in (1.0, FRACTIONAL.theta, FRACTIONAL.delta):
        _power(path, a)
    assert path.tobytes() == before


def test_log_q_at_tiny_nu_against_mpmath():
    # nu = 0.005: q_n(0) = exp(-1565) at n = 10^6, far below float64.
    # Reference: log q iterated from 0 with its sum held in mpmath.  Each
    # increment log(1 - kappa1*q^nu) is formed in floats at the float value
    # of the running sum (1e-16 relative each, 3e-13 over all of log q_n),
    # and each block of 1000 is summed exactly by math.fsum
    mpmath = pytest.importorskip("mpmath")
    p = LawParams(0.005, 0.0025, 0.0025, 1.0, 0.5, 0.5)
    n = 10 ** 6
    with mpmath.workprec(80):
        total, lq = mpmath.mpf(0), 0.0
        for _ in range(n // 1000):
            block = []
            for _ in range(1000):
                inc = math.log1p(-p.kappa1 * math.exp(p.nu * lq))
                block.append(inc)
                lq += inc
            total += math.fsum(block)
            lq = float(total)
    assert abs(_q_steps(p, 0.0, n)[n] - lq) < 1e-9


def test_q_monotone_and_positive():
    q = _power(q_iterate(MIXED, 0.2, 200), 1.0)
    assert np.all(np.diff(q) < 0.0)
    assert q[-1] > 0.0


def test_rate_gap_pin():
    # kappa1*nu - (q_3**-1 - 1)/3 with q_3 = 39/128
    assert rate_gap(CANON, 0.0, 3) == pytest.approx(0.5 - (128.0 / 39.0 - 1.0)
                                                    / 3.0, abs=1e-15)
    assert rate_gap(CANON, 0.0, 3) == pytest.approx(-0.26068376068376065,
                                                    abs=1e-15)


def test_epsilon_pins():
    assert epsilon_term(CANON, 0.0, 1) == pytest.approx(-0.25, abs=1e-15)
    assert epsilon_term(CANON, 0.0, 3) == pytest.approx(-0.23828125,
                                                        abs=1e-15)


@pytest.mark.parametrize("n, gap, eps", [
    (10 ** 5, -1.414209600343857e-05, -5.602733707357537e-03),
    (10 ** 6, -1.990695221098775e-06, -7.953266565870830e-04),
])
def test_rate_gap_and_epsilon_where_q_n_underflows(n, gap, eps):
    # q_n(0) ~ 10^-680 at n = 10^6 is 0 as a float64, so both are formed
    # from log q_n.  The references iterate q to 40 digits with mpmath
    p = LawParams(0.005, 0.0025, 0.0025, 1.0, 0.5, 0.5)
    assert rate_gap(p, 0.0, n) == pytest.approx(gap, rel=1e-8)
    assert epsilon_term(p, 0.0, n) == pytest.approx(eps, rel=1e-8)


def test_epsilon_is_scaled_rate_gap():
    # epsilon(n, t) = q_n^nu * n * rate_gap(n, t), an exact identity
    for t in (0.0, 0.37, 0.93):
        for n in (2, 17):
            qn = float(_power(q_iterate(MIXED, t, n), 1.0)[n])
            lhs = float(epsilon_term(MIXED, t, n))
            rhs = qn ** MIXED.nu * n * float(rate_gap(MIXED, t, n))
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_rate_gap_shrinks_with_n():
    for t in (0.0, 0.5):
        g = [abs(float(rate_gap(CANON, t, n))) for n in (10, 100, 1000)]
        assert g[0] > g[1] > g[2]


def test_gaps_per_step_telescope_to_rate_gap():
    # per-step gaps kappa1*nu - (q_{j+1}**-nu - q_j**-nu) sum to
    # n * rate_gap
    rng = np.random.default_rng(5)
    for t in rng.uniform(0.0, 0.95, 5):
        n = 40
        inv = np.exp(-MIXED.nu * q_iterate(MIXED, float(t), n))
        gaps = MIXED.kappa1 * MIXED.nu - np.diff(inv)
        total = math.fsum(gaps.tolist())
        assert total == pytest.approx(n * float(rate_gap(MIXED, float(t), n)),
                                      abs=1e-11)


def test_q_iterate_holds_log_q_where_q_underflows():
    # q_n(0) ~ 10^-480 at n = 10^5 and nu = 0.005, and its log stays
    # finite at every j; log q_n lies in the enclosure of `gwimm verify`
    p = LawParams(0.005, 0.0025, 0.0025, 1.0, 0.5, 0.5)
    n = 10 ** 5
    path = q_iterate(p, 0.0, n)
    assert np.all(np.isfinite(path))
    lo, hi = (-math.log1p(n * 0.0025 * c) / 0.005 for c in (2 ** 1.005, 1))
    assert lo <= path[n] <= hi


def test_h_n_hand_value():
    # H_1(1/2) = (1 - q_1(1/2)) * exp(-q_0(1/2)) = 0.625*exp(-0.5)
    assert h_n(CANON, 0.5, 1) == pytest.approx(0.625 * math.exp(-0.5),
                                               rel=1e-14)


def test_h_n_matches_pgf_product():
    # independent route: G0(F_n(s)) * prod_{j<n} B(F_j(s)) by composition
    s = 0.6
    prod, cur = 1.0, s
    for _ in range(9):
        prod *= float(immigration_pgf(MIXED, cur))
        cur = float(offspring_pgf(MIXED, cur))
    ref = float(initial_pgf(MIXED, cur)) * prod
    assert h_n(MIXED, s, 9) == pytest.approx(ref, rel=1e-12)


def test_gamma_sequences_structure():
    seq = gamma_sequences(CANON, 0.0, 4)
    assert seq.log_gamma0[0] == 0.0
    # gamma_2^(0)(0) = exp(-(q_0 + q_1)) = exp(-1.5)
    assert seq.log_gamma0[2] == pytest.approx(-1.5, abs=1e-14)
    assert np.all(np.diff(seq.log_gamma0) < 0.0)
    q = _power(q_iterate(CANON, 0.0, 4), 1.0).astype(float)
    expect = (1.0 - q) * np.exp(seq.log_gamma0)
    assert np.allclose(seq.gamma, expect, rtol=1e-14)


def test_gamma_at_s_one_is_unity():
    seq = gamma_sequences(MIXED, 1.0, 6)
    assert np.allclose(seq.gamma, 1.0, atol=1e-15)
    assert np.allclose(seq.log_gamma0, 0.0, atol=1e-15)


def test_h_n_edges():
    # E exp(-lam Z_n) is H_n(e^-lam): 1 at lam = 0, and at n = 0 the
    # initial-law transform G0(e^-lam)
    assert h_n(CANON, 1.0, 12) == 1.0
    lam = 0.8
    assert h_n(MIXED, math.exp(-lam), 0) == pytest.approx(
        float(initial_pgf(MIXED, math.exp(-lam))), rel=1e-14)
    with pytest.raises(ValueError):
        h_n(CANON, 1.1, 3)


def test_rate_gap_rejects_zero_horizon():
    with pytest.raises(ValueError):
        rate_gap(CANON, 0.0, 0)
    with pytest.raises(ValueError):
        epsilon_term(CANON, 0.0, 0)


@pytest.mark.parametrize("s", [-0.1, 1.5, 2.0, math.nan])
def test_points_outside_the_unit_interval_are_rejected(s):
    for fn in (q_iterate, gamma_sequences, h_n):
        with pytest.raises(ValueError):
            fn(CANON, s, 3)


@pytest.mark.parametrize("t", [1.0, np.array([0.5, 1.0])])
def test_rate_gap_and_epsilon_reject_t_one(t):
    with pytest.raises(ValueError):
        rate_gap(CANON, t, 3)
    with pytest.raises(ValueError):
        epsilon_term(CANON, t, 3)
