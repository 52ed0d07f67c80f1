"""Renewal system, truncated-state distributions, regime classification."""

import dataclasses
import hashlib
import importlib
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

ren = importlib.import_module("gwimm.renewal")

from gwimm.errors import (CapTooSmallError, InsufficientLengthError,
                          WrongRegimeError)
from gwimm.laws import (LawParams, immigration_pmf, initial_pmf,
                        offspring_pmf)
from gwimm.pgf import gamma_sequences
from gwimm.renewal import (RegimeReport, build_renewal, classify_regime,
                           dp_distribution, fit_tail, gamma_asymptotics,
                           u_dp_curve, u_exact_dp)

CANON = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
FRAC = LawParams(nu=0.95, theta=1.0, delta=0.9, kappa0=0.5, kappa1=0.5,
                 kappa2=0.3)
R0 = LawParams(nu=1.0, theta=0.5, delta=1.0, kappa0=1.0, kappa1=0.5,
               kappa2=1.0)
R3 = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
               kappa2=0.25)
MIXED = LawParams(nu=0.5, theta=0.5, delta=0.5, kappa0=0.8, kappa1=0.5,
                  kappa2=0.7)

U1 = 0.5 * math.exp(-1.0) + 1.0 - math.exp(-1.0)
U2 = 0.375 * math.exp(-1.5) + (1.0 - math.exp(-1.0)) * U1 \
    + math.exp(-1.0) - math.exp(-1.5)


# ---------------------------------------------------------------------------
# renewal recursion


def test_u_hand_values():
    rt = build_renewal(CANON, 5)
    assert rt.u[0] == 1.0
    assert rt.u[1] == pytest.approx(U1, abs=1e-15)
    assert rt.u[2] == pytest.approx(U2, abs=1e-15)


def test_u_monotone_and_positive():
    rt = build_renewal(CANON, 2000)
    assert np.all(np.diff(rt.u) <= 0.0)
    assert rt.u[-1] > 0.0
    assert np.all(rt.u <= 1.0)


def test_kernel_telescopes_to_defect():
    # a_k = gamma_k^(0) - gamma_{k+1}^(0) at s = 0, so partial sums of a
    # plus the remaining gamma give exactly 1
    rt = build_renewal(CANON, 120)
    for n in (1, 17, 120):
        total = math.fsum(rt.a[:n].tolist()) + float(rt.gamma0[n])
        assert total == pytest.approx(1.0, abs=1e-14)


def test_kernel_matches_gamma_differences():
    rt = build_renewal(FRAC, 80)
    seq = gamma_sequences(FRAC, 0.0, 81)
    g0 = np.exp(seq.log_gamma0)
    assert np.max(np.abs(rt.a - (g0[:-1] - g0[1:]))) < 1e-12
    assert np.max(np.abs(rt.gamma0 - g0[:-1])) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 1023, 1024, 1025])
def test_levels_match_the_long_double_block(monkeypatch, n):
    # doubling levels from a block of 4 terms, at and around the level
    # edges, against the block stretched over the whole table
    for p in (FRAC, R0, CANON):
        monkeypatch.setattr(ren, "_BLOCK", n)
        ref = build_renewal(p, n - 1).u
        monkeypatch.setattr(ren, "_BLOCK", 4)
        got = build_renewal(p, n - 1).u
        assert np.max(np.abs(got - ref) / ref) < 5e-14
        if p is not R0:          # R0's flat u shows float64 noise
            assert np.all(np.diff(got) <= 0.0)


def test_direct_and_series_inverse_routes_agree(monkeypatch):
    # 701 terms lie inside one direct block; from a block of 32 terms the
    # same table comes from the doubling levels and their series inverse R
    ref = build_renewal(FRAC, 700).u
    monkeypatch.setattr(ren, "_BLOCK", 32)
    fft = build_renewal(FRAC, 700).u
    assert np.max(np.abs(ref - fft)) < 1e-11


@pytest.mark.parametrize("n, bound", [(4095, 3e-13), (16383, 1.5e-12)])
def test_fft_route_on_ill_conditioned_r0(monkeypatch, n, bound):
    # R0: gamma0 -> 0, so 1 - x*A(x) vanishes at x = 1 and its inverse
    # does not decay; the error of the float64 levels grows along u
    fft = build_renewal(R0, n).u
    monkeypatch.setattr(ren, "_BLOCK", n + 1)
    ref = build_renewal(R0, n).u
    assert np.max(np.abs(fft - ref) / ref) < bound


def complete_levels(n_max: int) -> int:
    """End of the last complete doubling level within n_max + 1 terms."""
    end = ren._BLOCK
    while 2 * end <= n_max + 1:
        end *= 2
    return min(end, n_max + 1)


@pytest.mark.parametrize("p", [R0, R3, FRAC], ids=["R0", "R3", "FRAC"])
def test_u_prefix_does_not_depend_on_n_max(p):
    big = build_renewal(p, 10 ** 5).u
    for n in (0, 1023, 1024, 2046, 2047, 2048, 5000, 70_000):
        end = complete_levels(n)
        assert np.array_equal(build_renewal(p, n).u[:end], big[:end])


UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
KAPPA2 = st.floats(min_value=0.0, max_value=sys.float_info.max,
                   exclude_min=True)
DELTA = st.floats(min_value=sys.float_info.min, max_value=1.0)


def box_params(nu, theta, delta, kappa0, frac, kappa2) -> LawParams:
    # kappa1 = frac/(1+nu) spans (0, 1/(1+nu)]
    kappa1 = frac / (1.0 + nu)
    assume(kappa1 * nu >= sys.float_info.min)
    return LawParams(nu=nu, theta=theta, delta=delta, kappa0=kappa0,
                     kappa1=kappa1, kappa2=kappa2)


@settings(max_examples=20, deadline=None)
@given(nu=UNIT, theta=UNIT, delta=DELTA, kappa0=UNIT, frac=UNIT,
       kappa2=KAPPA2, n=st.integers(min_value=1024, max_value=20_000))
def test_u_prefix_is_stable_over_the_box(nu, theta, delta, kappa0, frac,
                                         kappa2, n):
    p = box_params(nu, theta, delta, kappa0, frac, kappa2)
    end = complete_levels(n)
    big = build_renewal(p, 10 ** 5).u
    assert np.array_equal(build_renewal(p, n).u[:end], big[:end])


@settings(max_examples=100, deadline=None)
@given(nu=UNIT, theta=UNIT, delta=DELTA, kappa0=UNIT, frac=UNIT,
       kappa2=KAPPA2, n=st.integers(min_value=0, max_value=1023))
# u flat to 1e-17 and to 1e-31 relative: the extended-precision values
# jittered, and rounded to an increase of one float64 ulp
@example(nu=0.10866548260930034, theta=1e-300, delta=0.10097585879825369,
         kappa0=1.0, frac=0.6875, kappa2=0.10097585879825369, n=343)
@example(nu=1.0793449437521681e-138, theta=1e-300, delta=0.23274137508794662,
         kappa0=1.0, frac=0.8489545930783207, kappa2=0.9501760697420627,
         n=74)
def test_u_on_the_block_is_a_survival_curve_over_the_box(
        nu, theta, delta, kappa0, frac, kappa2, n):
    u = build_renewal(box_params(nu, theta, delta, kappa0, frac, kappa2),
                      n).u
    assert u[0] == 1.0
    assert np.all((0.0 <= u) & (u <= 1.0))
    assert np.all(np.diff(u) <= 0.0)


def table_digest(rt) -> str:
    h = hashlib.sha256()
    for x in (rt.u, rt.a, rt.d, rt.gamma0):
        h.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


TINY_NU = LawParams(nu=0.00048339815714850705, theta=0.9655183441874771,
                    delta=5.575937018766064e-24, kappa0=7.2440839429254e-19,
                    kappa1=0.873179189172466, kappa2=4.716707213474325e-239)


@pytest.mark.parametrize("p, n, want", [
    (CANON, 50, "11a92ef4b79cdf0d"), (CANON, 1000, "a85923897f48135c"),
    (R3, 50, "ea937d3229aecd37"), (R3, 1000, "64399cde9363a3c3"),
    (FRAC, 50, "20ab7369e5ec9ac9"), (FRAC, 1000, "3b9593115f3f4114"),
    (MIXED, 50, "681dfe75e73ba562"), (MIXED, 1000, "f90159dcdeca5ca8"),
    (TINY_NU, 50, "5063793ca94e140a"), (TINY_NU, 1000, "09252bec45db40e7"),
])
def test_block_tables_digest(p, n, want):
    # u, a, d and gamma0 of tables within the long-double block, pinned
    # bit for bit: the SHA-256 of their float64 bytes
    assert table_digest(build_renewal(p, n)) == want


def test_series_inverse_route_with_subnormal_kappa0():
    # u does not depend on kappa0: beyond the block the d / kappa0
    # quotient must be formed before rounding, or a subnormal d loses
    # its digits
    p = LawParams(nu=0.5, theta=0.5, delta=0.5, kappa0=1.0, kappa1=0.5,
                  kappa2=0.7)
    ref = build_renewal(p, 20_000).u
    tiny = build_renewal(dataclasses.replace(p, kappa0=1e-310), 20_000).u
    assert np.max(np.abs(tiny - ref) / ref) < 1e-14


# ---------------------------------------------------------------------------
# truncated-state distributions


def test_dp_one_step_convolution_pin():
    # canonical start is a unit atom at 1; one step is offspring {0,1,2}
    # convolved with Poisson immigration, with the zero row absorbed
    dist = dp_distribution(CANON, "stopped", 1, M=256)
    off = offspring_pmf(CANON, 2).probs
    imm = immigration_pmf(CANON, 12).probs
    conv = np.convolve(off, imm)
    assert dist.pi[0, 1] == 1.0
    assert dist.pi[1, 0] == pytest.approx(conv[0], abs=1e-12)
    for j in range(1, 10):
        assert dist.pi[1, j] == pytest.approx(conv[j], rel=1e-10)
    assert dist.alias_bound == 0.0          # nu = 1: kernels are polynomials


def test_dp_rows_account_for_all_mass():
    for model in ("stopped", "z", "gated"):
        dist = dp_distribution(CANON, model, 12, M=256)
        for n in (0, 5, 12):
            row = math.fsum(dist.pi[n].tolist()) + float(dist.lost_mass[n])
            assert row == pytest.approx(1.0, abs=1e-9), (model, n)
        assert np.all(np.diff(dist.lost_mass) >= 0.0)
        assert np.all(dist.pi >= 0.0)


def test_dp_bracket_contains_renewal_solution():
    rt = build_renewal(CANON, 25)
    lo, hi = u_dp_curve(CANON, "stopped", 25, M=512)[:2]
    for n in range(26):
        assert lo[n] - 1e-12 <= rt.u[n] <= hi[n] + 1e-12


def test_dp_bracket_fractional_nu():
    # nu < 1 exercises the rigorous wrap-around bound
    rt = build_renewal(FRAC, 20)
    dist = dp_distribution(FRAC, "stopped", 20, M=1024)
    assert dist.alias_bound > 0.0
    lo, hi, _ = u_dp_curve(FRAC, "stopped", 20, M=1024)
    pad = 1e-9 + dist.alias_bound
    for n in range(21):
        assert lo[n] - pad <= rt.u[n] <= hi[n] + pad


def _per_state_dp(params, model, n, M, tol):
    """Reference DP: the same recursion with acc(z) = sum_w pi[w] Fz^w
    evaluated by a Horner pass over the states, one state at a time.
    Returns (pi, lost_mass, alias_bound)."""
    ring = 4 * M
    fo, bo = offspring_pmf(params, M), immigration_pmf(params, M)
    Fz = np.fft.rfft(fo.probs, n=ring)
    Bz = np.fft.rfft(bo.probs, n=ring)
    g = initial_pmf(params, M)
    pi = np.zeros((n + 1, M + 1))
    lost = np.zeros(n + 1)
    pi[0], lost[0] = g.probs, g.truncation_mass
    logx = math.log1p(ren._ALIAS_EXPONENT / ring)
    with np.errstate(divide="ignore"):
        logF = ren._log_poly_at(np.log(fo.probs), logx)
        logB = ren._log_poly_at(np.log(bo.probs), logx)
    alias = 0.0
    for gen in range(1, n + 1):
        cur = pi[gen - 1]
        acc = np.zeros(len(Fz), dtype=complex)
        for w in range(M, 0, -1):
            acc += cur[w]
            acc *= Fz
        P0 = float(np.dot(cur[1:], params.kappa1 ** np.arange(1.0, M + 1)))
        spec, atom = {"stopped": (Bz * acc, cur[0]),
                      "z": (Bz * (acc + cur[0]), 0.0),
                      "gated": (Bz * (acc - P0), cur[0] + P0)}[model]
        out = np.fft.irfft(spec, n=ring)[:M + 1]
        np.clip(out, 0.0, None, out=out)
        out[0] += atom
        pi[gen] = out
        lost[gen] = max(lost[gen - 1], 1.0 - math.fsum(out.tolist()))
        if params.nu < 1.0:
            with np.errstate(divide="ignore"):
                logS = ren._log_poly_at(np.log(cur), logF)
            alias += math.exp(logB + logS - ring * logx)
        if lost[gen] > tol:
            raise CapTooSmallError(gen, lost[gen], tol)
    return pi, lost, alias


@pytest.mark.parametrize("M", [64, 512])
@pytest.mark.parametrize("params", [CANON, FRAC], ids=["canon", "frac"])
@pytest.mark.parametrize("model", ["stopped", "z", "gated"])
def test_dp_step_matches_per_state_horner(model, params, M):
    # tol = 1 keeps FRAC's heavy tails from stopping the run at M = 64
    dist = dp_distribution(params, model, 12, M=M, tol=1.0)
    pi, lost, alias = _per_state_dp(params, model, 12, M, tol=1.0)
    assert np.max(np.abs(dist.pi - pi)) <= 1e-13
    assert np.max(np.abs(dist.lost_mass - lost)) <= 1e-13
    assert dist.alias_bound == pytest.approx(alias, rel=1e-12, abs=0.0)
    again = dp_distribution(params, model, 12, M=M, tol=1.0)
    assert again.pi.tobytes() == dist.pi.tobytes()


def test_dp_cap_too_small_at_reference_generation():
    heavy = LawParams(nu=1.0, theta=0.5, delta=1.0, kappa0=1.0, kappa1=0.5,
                      kappa2=1.0)
    with pytest.raises(CapTooSmallError) as ref:
        _per_state_dp(heavy, "stopped", 30, 64, tol=1e-3)
    with pytest.raises(CapTooSmallError) as info:
        dp_distribution(heavy, "stopped", 30, M=64)
    assert info.value.generation == ref.value.generation


@settings(max_examples=150, deadline=None)
@given(nu=UNIT, theta=UNIT, delta=DELTA, kappa0=UNIT, frac=UNIT,
       kappa2=st.floats(min_value=0.0, max_value=8.0, exclude_min=True))
# the initial tail mass rounded above kappa0 (a lost mass > tol = 1)
@example(nu=1.0, theta=1.0, delta=1.2065227197986961e-209, kappa0=1.0,
         frac=1.0, kappa2=1.0)
# kappa0 subnormal: the initial law divided by kappa0 was a unit atom
@example(nu=1.0, theta=1.0, delta=0.75, kappa0=5e-324, frac=1.0, kappa2=1.0)
def test_renewal_inside_dp_bracket_over_the_box(nu, theta, delta, kappa0,
                                                frac, kappa2):
    # tol = 1 lets heavy tails widen the bracket instead of raising
    # CapTooSmallError at this small M; the bracket stays rigorous
    p = box_params(nu, theta, delta, kappa0, frac, kappa2)
    u = build_renewal(p, 10).u
    lo, hi, dist = u_dp_curve(p, "stopped", 10, M=256, tol=1.0)
    pad = 1e-9 + dist.alias_bound
    assert np.all(lo - pad <= u) and np.all(u <= hi + pad)


def test_dp_unstopped_matches_transform_atom():
    # P(Z_n = 0) from the recursion vs the closed transform at s = 0
    from gwimm.pgf import h_n
    dist = dp_distribution(CANON, "z", 8, M=512)
    for n in (1, 4, 8):
        assert dist.pi[n, 0] == pytest.approx(h_n(CANON, 0.0, n), abs=1e-10)


def test_dp_cap_too_small():
    heavy = LawParams(nu=1.0, theta=0.5, delta=1.0, kappa0=1.0, kappa1=0.5,
                      kappa2=1.0)
    with pytest.raises(CapTooSmallError) as info:
        dp_distribution(heavy, "stopped", 30, M=64)
    assert info.value.lost_mass > info.value.tol


def test_dp_m_validation():
    with pytest.raises(ValueError):
        dp_distribution(CANON, "stopped", 2, M=100)
    with pytest.raises(ValueError):
        dp_distribution(CANON, "stopped", 2, M=32)


def test_u_exact_dp_scalar():
    lo, hi = u_exact_dp(CANON, "stopped", 10, M=512)
    rt = build_renewal(CANON, 10)
    assert lo - 1e-12 <= rt.u[10] <= hi + 1e-12
    assert hi - lo < 1e-6


# ---------------------------------------------------------------------------
# regime classification


def law(nu, th, dl, k0, k1, k2):
    return LawParams(nu=nu, theta=th, delta=dl, kappa0=k0, kappa1=k1,
                     kappa2=k2)


@pytest.mark.parametrize("params,rid,alpha,corr", [
    (law(1.0, 0.9, 1.0, 1.0, 0.5, 0.1), "R0", 0.0, "none"),
    (law(1.0, 1.0, 1.0, 1.0, 0.5, 1.0), "R1", 0.0, "none"),
    (law(1.0, 1.0, 1.0, 1.0, 0.5, 0.5), "R2", 0.0, "inverse-log"),
    (law(1.0, 1.0, 1.0, 1.0, 0.5, 0.25), "R3", 0.5, "none"),
    (law(1.0, 1.0, 0.875, 0.8, 0.5, 0.0625), "R4", 0.875, "log"),
    (law(1.0, 1.0, 0.8, 0.6, 0.5, 0.05), "R5", 0.8, "none"),
    (law(0.95, 1.0, 0.9, 0.5, 0.5, 0.3), "R6", 0.9 / 0.95, "none"),
    (law(0.5, 1.0, 0.5, 0.5, 0.5, 0.5), "UNCOVERED", None, "none"),
    # sigma = kappa2/(kappa1*nu) overflows to inf: far above 1, not near it
    (law(1.0, 1.0, 1.0, 1.0, 0.5, 1e308), "R1", 0.0, "none"),
    (law(0.5, 0.5, 1.0, 1.0, 1e-300, 1e10), "R1", 0.0, "none"),
])
def test_classifier_table(params, rid, alpha, corr):
    rep = classify_regime(params)
    assert rep.regime_id == rid
    assert rep.correction == corr
    if alpha is None:
        assert rep.alpha is None
    else:
        assert rep.alpha == pytest.approx(alpha, abs=1e-12)


def test_classifier_boundary_tolerance():
    # sigma within 1e-9 of 1 lands on R2 without needing `assume`
    p = law(1.0, 1.0, 1.0, 1.0, 0.5, 0.5 * (1.0 + 1e-12))
    assert classify_regime(p).regime_id == "R2"


def test_classifier_assume_branch():
    p = law(1.0, 1.0, 1.0, 1.0, 0.5, 0.5 + 1e-8)
    assert classify_regime(p).regime_id == "R1"   # strictly above 1
    assert classify_regime(p, assume="R2").regime_id == "R2"
    with pytest.raises(WrongRegimeError):
        classify_regime(law(1.0, 1.0, 1.0, 1.0, 0.5, 1.0), assume="R2")
    q = law(1.0, 1.0, 0.75, 0.8, 0.5, 0.125 + 1e-8)
    assert classify_regime(q, assume="R4").regime_id == "R4"
    with pytest.raises(WrongRegimeError):
        classify_regime(CANON, assume="R4")
    with pytest.raises(ValueError):
        classify_regime(CANON, assume="R9")


# ---------------------------------------------------------------------------
# tail fitting


def test_fit_tail_synthetic_power_law():
    n = np.arange(0, 10 ** 4 + 1, dtype=float)
    u = np.ones(len(n))
    u[1:] = 2.0 * n[1:] ** -0.5
    rep = RegimeReport("R5", 0.5, "none", sigma=0.2)
    out = fit_tail(u, rep)
    assert out.fitted_alpha == pytest.approx(0.5, abs=1e-3)
    assert out.constants["K"] == pytest.approx(2.0, rel=1e-2)
    assert out.constants["beta"] == pytest.approx(0.3, abs=1e-12)


def test_fit_tail_synthetic_log_decay():
    n = np.arange(0, 10 ** 4 + 1, dtype=float)
    u = np.ones(len(n))
    u[2:] = 1.0 / np.log(n[2:])
    rep = RegimeReport("R2", 0.0, "inverse-log", sigma=1.0)
    out = fit_tail(u, rep)
    assert out.constants["K"] == pytest.approx(1.0, rel=1e-3)
    assert out.constants["log_drift"] < 0.05
    # the effective log-log slope of 1/log(n) is 1/log(n) ~ 0.11 here
    assert abs(out.fitted_alpha) < 0.15


def test_fit_tail_requires_length():
    rep = RegimeReport("R5", 0.5, "none", sigma=0.2)
    with pytest.raises(InsufficientLengthError):
        fit_tail(np.ones(500), rep)
    # at tiny nu the q-trajectory underflows to 0 at n = 573, and u falls
    # from 1 to 5e-239 there and to 0 from n = 688 on: no log of 0
    p = law(0.00048339815714850705, 0.9655183441874771,
            5.575937018766064e-24, 7.2440839429254e-19, 0.873179189172466,
            4.716707213474325e-239)
    u = build_renewal(p, 1000).u
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InsufficientLengthError, match="u_688 = 0"):
            fit_tail(u, classify_regime(p))


def test_fit_tail_on_real_table():
    p = law(1.0, 1.0, 1.0, 1.0, 0.5, 0.25)      # sigma = 1/2, alpha = 1/2
    rep = classify_regime(p)
    out = fit_tail(build_renewal(p, 10 ** 4).u, rep)
    assert out.fitted_alpha == pytest.approx(0.5, abs=0.05)
    assert out.constants["K"] > 0.0


# ---------------------------------------------------------------------------
# gamma asymptotics


def test_gamma_exp_decay_branch():
    p = law(1.0, 0.5, 1.0, 1.0, 0.5, 1.0)
    rep = gamma_asymptotics(p, 10 ** 5)
    assert rep.branch == "exp-decay"
    assert rep.reference == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    assert rep.rel_error < 0.15


def test_gamma_power_branch():
    rep = gamma_asymptotics(CANON, 10 ** 5)
    assert rep.branch == "power"
    assert rep.drift < 0.02
    assert rep.estimate > 0.0


def test_gamma_convergent_branch():
    p = law(0.5, 1.0, 0.5, 0.5, 0.5, 0.5)
    rep = gamma_asymptotics(p, 10 ** 4)
    assert rep.branch == "convergent"
    lo, hi = rep.interval
    assert lo <= hi
    assert hi - lo < 1e-6
    # the least-squares extrapolation sits near, not inside, the rigorous
    # enclosure: its own error (~1e-5 at this horizon) dominates the width
    assert abs(rep.estimate - 0.5 * (lo + hi)) < 1e-4
    # enclosures at different horizons bracket the same limit, so the
    # tighter one must nest inside the looser one
    lo5, hi5 = gamma_asymptotics(p, 10 ** 5).interval
    assert lo - 1e-12 <= lo5 and hi5 <= hi + 1e-12
    assert hi5 - lo5 < hi - lo
