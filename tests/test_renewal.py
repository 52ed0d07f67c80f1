"""Renewal system, truncated-state distributions, regime classification."""

import dataclasses
import hashlib
import importlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

ren = importlib.import_module("gwimm.renewal")

from gwimm.errors import CapTooSmallError, InsufficientLengthError
from gwimm.laws import (LawParams, immigration_pmf, initial_pmf,
                        offspring_pmf)
from gwimm.pgf import _q_steps, gamma_sequences, q_iterate, theta_sums
from gwimm.renewal import (RegimeReport, build_renewal, classify_regime,
                           dp_distribution, fit_tail, gamma_asymptotics,
                           u_dp_curve)

from conftest import CANON, FRAC, LAWS, MIXED, R0, R3

# heavy immigration at small nu: the most mass near the cap of the box laws
NEAR_CAP = LawParams(nu=0.25, theta=0.55, delta=0.5, kappa0=1.0, kappa1=0.8,
                     kappa2=8.0)

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


@pytest.mark.parametrize("name", ["R0_STEEP", "R1_STEEP"])
def test_block_route_against_long_double(monkeypatch, name):
    # weights that vanish from k = 1,209 and from k = 13: past 2048 and
    # 1024 terms u comes from fixed blocks, not doubling levels.  The
    # bound, 1.5e-12, is the doubling route's on R0 at the same length;
    # the blocks read 1.0e-12 and 3.9e-13
    p, n = LAWS[name], 16383
    rt = build_renewal(p, n)
    assert not np.any(rt.a[2048:]) and not np.any(rt.d[2048:])
    monkeypatch.setattr(ren, "_BLOCK", n + 1)
    ref = build_renewal(p, n).u
    assert np.max(np.abs(rt.u - ref) / ref) < 1.5e-12


@pytest.mark.parametrize("rho", [0.99, 0.999])
@pytest.mark.parametrize("b", [32, 64])
def test_blocks_read_the_window_before_them(monkeypatch, b, rho):
    # weights of reach 40 with total mass rho: from a direct block of 32
    # terms one doubling level reaches 64, from 64 none does, and blocks
    # of 64 slide to 4096.  u falls from 1 to 1.2e-9 (rho = 0.99) or to
    # 0.129, so a block that read any window of u but u[s-m:s] would be
    # far off (4.3e8 and 6.3 relative for u[:m]); the blocks read 1.2e-14
    # to 2.0e-13
    monkeypatch.setattr(ren, "_BLOCK", b)
    n, c = 4096, 40
    k = np.arange(n)
    f = np.where(k < c, np.ldexp(1.0, -k), 0.0)
    a = np.where(k < c, rho * np.ldexp(1.0, -(k + 1)) / (1.0 - 2.0 ** -c),
                 0.0)
    f_ld, a_ld = f.astype(np.longdouble), a.astype(np.longdouble)
    ref = ren._solve_direct(f_ld, a_ld)
    assert np.all(np.diff(ref) <= 0.0)
    u = ren._solve(f_ld[:b].copy(), a_ld[:b].copy(), f, a)
    assert np.max(np.abs(u - ref) / ref) < 1e-12


def reach(rt) -> int:
    """An index from which the weights a and d/kappa0 of a table are
    exact zeros: the first zero of gamma0, which bounds both, or the
    table's length if there is none."""
    zero = rt.gamma0 == 0.0
    return int(np.argmax(zero)) if zero.any() else len(zero)


@pytest.mark.parametrize("p, n", [(R0, 10 ** 6), (LAWS["R0_STEEP"], 20_000),
                                  (LAWS["R1_STEEP"], 20_000)],
                         ids=["R0", "R0_STEEP", "R1_STEEP"])
def test_block_spectra_stay_at_twice_the_reach(monkeypatch, p, n):
    # past the reach the solve slides blocks of the level L it reached,
    # the first power of two >= max(reach, _BLOCK), so no spectrum has
    # more than 2L points: 2^18 on R0 at 10^6, where doubling would go
    # on to 2^20.  On these laws the first zero of gamma0 gives L
    sizes, spectrum = [], ren._spectrum

    def recording(x, size):
        sizes.append(size)
        return spectrum(x, size)

    monkeypatch.setattr(ren, "_spectrum", recording)
    rt = build_renewal(p, n)
    assert max(sizes) == 2 << (max(reach(rt), ren._BLOCK) - 1).bit_length()
    if p is R0:
        assert max(sizes) == 2 ** 18


def complete_levels(n_max: int, c: int) -> int:
    """End of the last complete doubling level or block within n_max + 1
    terms, for weights that vanish from index c on: the levels end at
    b, 2b, 4b, ..., up to the first level L >= c, and the blocks at 2L,
    3L, ..."""
    end = level = ren._BLOCK
    while level < c:
        level *= 2
    while end + min(end, level) <= n_max + 1:
        end += min(end, level)
    return min(end, n_max + 1)


@pytest.mark.parametrize("p", [R0, R3, FRAC, LAWS["R0_STEEP"]],
                         ids=["R0", "R3", "FRAC", "R0_STEEP"])
def test_u_prefix_does_not_depend_on_n_max(p):
    big = build_renewal(p, 10 ** 5)
    for n in (0, 1023, 1024, 2046, 2047, 2048, 5000, 7000, 70_000):
        end = complete_levels(n, reach(big))
        assert np.array_equal(build_renewal(p, n).u[:end], big.u[:end])


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
    big = build_renewal(p, 10 ** 5)
    end = complete_levels(n, reach(big))
    assert np.array_equal(build_renewal(p, n).u[:end], big.u[:end])


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
# kappa1 = 1/(1 + nu) rounds to 1, so the float q_1 is 0: its log is -inf
@example(nu=5.4621546740691746e-105, theta=1.0, delta=1.0, kappa0=1.0,
         frac=1.0, kappa2=1.0, n=0)
def test_u_on_the_block_is_a_survival_curve_over_the_box(
        nu, theta, delta, kappa0, frac, kappa2, n):
    u = build_renewal(box_params(nu, theta, delta, kappa0, frac, kappa2),
                      n).u
    assert u[0] == 1.0
    assert np.all((0.0 <= u) & (u <= 1.0))
    assert np.all(np.diff(u) <= 0.0)


@settings(max_examples=15, deadline=None)
@given(nu=UNIT, theta=UNIT, delta=DELTA, kappa0=UNIT, frac=UNIT,
       kappa2=KAPPA2, n=st.integers(min_value=1024, max_value=20_000))
def test_u_past_the_block_stays_at_most_one_over_the_box(
        nu, theta, delta, kappa0, frac, kappa2, n):
    # the upper bound only: where u falls far below the roundoff of the
    # FFT products it may read below 0 (ROADMAP item 4)
    u = build_renewal(box_params(nu, theta, delta, kappa0, frac, kappa2),
                      n).u
    assert u[0] == 1.0
    assert np.all(u <= 1.0)


def test_u_flat_at_one_stays_at_most_one():
    # R1_STEEP's u stays within 1e-12 of 1 to n = 20,000; uncapped, the
    # blocks put 16,645 entries above 1, by up to 3.9e-13
    u = build_renewal(LAWS["R1_STEEP"], 20_000).u
    assert u.max() == 1.0 and u.min() > 1.0 - 1e-12


def table_digest(rt) -> str:
    h = hashlib.sha256()
    for x in (rt.u, rt.a, rt.d, rt.gamma0):
        h.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


TINY_NU = LawParams(nu=0.00048339815714850705, theta=0.9655183441874771,
                    delta=5.575937018766064e-24, kappa0=7.2440839429254e-19,
                    kappa1=0.873179189172466, kappa2=4.716707213474325e-239)


@pytest.mark.parametrize("p, n, want", [
    (CANON, 50, "dd9c494fb01f59bf"), (CANON, 1000, "76983d1293a661e0"),
    (R3, 50, "e97997545375992f"), (R3, 1000, "1fc9f2e740eb71fc"),
    (FRAC, 50, "a00de5bfedebd4e3"), (FRAC, 1000, "a7524798b6da0c3c"),
    (MIXED, 50, "966a196ac852c1b9"), (MIXED, 1000, "067d0b8360c409f2"),
    (TINY_NU, 50, "8bc9e9190fa38249"), (TINY_NU, 1000, "e67272cbb8147f40"),
])
def test_block_tables_digest(p, n, want):
    # u, a, d and gamma0 of tables within the long-double block, pinned
    # bit for bit: the SHA-256 of their float64 bytes
    assert table_digest(build_renewal(p, n)) == want


@pytest.mark.parametrize("p, n, want, zero_from", [
    (R0, 10 ** 5, "636d8e25c03c350e", 70_470),
    (LAWS["R1_STEEP"], 20_000, "46dc90571bf792bc", 13),
])
def test_long_tables_digest(p, n, want, zero_from):
    # tables whose weights vanish: R0's past the block, so its extended
    # precision stops short of n; the other's inside it, so it stops at
    # the block's end.  Pinned at the code that built every weight.
    # R0's u comes from doubling levels alone (its weights reach past the
    # level of 65,536), the other's from blocks of 1024 terms, flat at 1
    # and capped there
    rt = build_renewal(p, n)
    assert table_digest(rt) == want
    assert np.nonzero(rt.gamma0 == 0.0)[0][0] == zero_from


@settings(max_examples=15, deadline=None)
@given(nu=UNIT, theta=UNIT, delta=DELTA, kappa0=UNIT, frac=UNIT,
       kappa2=KAPPA2, n=st.integers(min_value=0, max_value=2 * 10 ** 5))
# the largest kappa2: its cut threshold is tiny, and kappa2 times the
# estimate of S_k would overflow
@example(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, frac=1.0,
         kappa2=sys.float_info.max, n=2 * 10 ** 5)
@example(nu=1.0, theta=0.5, delta=1.0, kappa0=1.0, frac=1.0, kappa2=1.0,
         n=2 * 10 ** 5)
def test_cut_changes_no_bit_over_the_box(nu, theta, delta, kappa0, frac,
                                        kappa2, n):
    p = box_params(nu, theta, delta, kappa0, frac, kappa2)
    got = build_renewal(p, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ren, "_CUT_NATS", math.inf)
        want = build_renewal(p, n)
    for x, y in zip((got.u, got.a, got.d, got.gamma0),
                    (want.u, want.a, want.d, want.gamma0)):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("name, n", [("R0", 10 ** 5), ("FRAC", 3000)])
def test_table_leaves_its_path_bit_for_bit(name, n):
    # a sweep reads its q_n(0) scales off the path after the table is
    # built from it; R0's weights are cut inside the path, FRAC's q^delta
    # is formed apart from q^theta.  A writeable copy, so a write shows
    path = _q_steps(LAWS[name], 0.0, n).copy()
    assert (ren._weight_cut(LAWS[name], path) < n + 1) == (name == "R0")
    before = path.tobytes()
    ren._renewal_table(LAWS[name], path)
    assert path.tobytes() == before


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
    # at nu < 1 every offspring coefficient up to M is positive, and the
    # bracket needs no pad beyond roundoff
    rt = build_renewal(FRAC, 20)
    lo, hi, _ = u_dp_curve(FRAC, "stopped", 20, M=1024)
    for n in range(21):
        assert lo[n] - 1e-9 <= rt.u[n] <= hi[n] + 1e-9


def _per_state_dp(params, model, n, M, tol):
    """Reference DP: the same recursion with the offspring part
    sum_w pi[w] F^w mod x^(M+1) formed by a Horner pass over the states,
    one state at a time, by direct convolution with F (its trailing exact
    zeros stripped).  Returns (pi, lost_mass)."""
    fo, bo = offspring_pmf(params, M), immigration_pmf(params, M)
    F = np.trim_zeros(fo.probs, "b")
    g = initial_pmf(params, M)
    pi = np.zeros((n + 1, M + 1))
    lost = np.zeros(n + 1)
    pi[0], lost[0] = g.probs, g.truncation_mass
    for gen in range(1, n + 1):
        cur = pi[gen - 1]
        acc = np.zeros(1)
        for w in range(M, 0, -1):
            acc[0] += cur[w]
            acc = np.convolve(acc, F)[:M + 1]
        P0 = float(np.dot(cur[1:], params.kappa1 ** np.arange(1.0, M + 1)))
        x = {"stopped": 0.0, "z": cur[0], "gated": -P0}[model]
        acc[0] += x
        out = np.convolve(acc, bo.probs)[:M + 1]
        np.clip(out, 0.0, None, out=out)
        out[0] += cur[0] - x
        pi[gen] = out
        lost[gen] = max(lost[gen - 1], 1.0 - math.fsum(out.tolist()))
        if lost[gen] > tol:
            raise CapTooSmallError(gen, lost[gen], tol)
    return pi, lost


@pytest.mark.parametrize("M", [64, 512])
@pytest.mark.parametrize("params", [CANON, FRAC, NEAR_CAP],
                         ids=["canon", "frac", "near-cap"])
@pytest.mark.parametrize("model", ["stopped", "z", "gated"])
def test_dp_step_matches_per_state_horner(model, params, M):
    # tol = 1 keeps the heavy tails from stopping the run at M = 64
    dist = dp_distribution(params, model, 12, M=M, tol=1.0)
    pi, lost = _per_state_dp(params, model, 12, M, tol=1.0)
    assert np.max(np.abs(dist.pi - pi)) <= 1e-13
    assert np.max(np.abs(dist.lost_mass - lost)) <= 1e-13
    again = dp_distribution(params, model, 12, M=M, tol=1.0)
    assert again.pi.tobytes() == dist.pi.tobytes()
    # the plan does not depend on n, so neither does a prefix of pi
    shorter = dp_distribution(params, model, 3, M=M, tol=1.0)
    assert shorter.pi.tobytes() == dist.pi[:4].tobytes()


@pytest.mark.parametrize("model", ["stopped", "z", "gated"])
def test_dp_levels_match_per_state_horner(model):
    # at nu < 1 and M = 2048 every block is full from the baby step on,
    # and four levels of truncated products precede the top
    dist = dp_distribution(MIXED, model, 2, M=2048, tol=1.0)
    pi, lost = _per_state_dp(MIXED, model, 2, 2048, tol=1.0)
    assert np.max(np.abs(dist.pi - pi)) <= 1e-13
    assert np.max(np.abs(dist.lost_mass - lost)) <= 1e-13


@pytest.mark.parametrize("M", [256, 4096], ids=["full-rows", "short-rows"])
def test_dp_underflowed_offspring_tail_matches_per_state_horner(M):
    # nu < 1 with kappa1 near the least normal: the offspring weights
    # underflow to exact zeros past index 15, so the 256 baby rows have
    # 255 * 14 + 1 = 3571 columns.  At M = 256 they fill M + 1 = 257; at
    # M = 4096 they stay short of 4097, and the blocks reach the cut only
    # at the levels
    p = LawParams(1.0 - 1e-13, 1.0, 1.0, 1.0, 3e-308, 0.5)
    dist = dp_distribution(p, "stopped", 3, M=M, tol=1.0)
    pi, lost = _per_state_dp(p, "stopped", 3, M, tol=1.0)
    assert np.max(np.abs(dist.pi - pi)) <= 1e-13
    assert np.max(np.abs(dist.lost_mass - lost)) <= 1e-13


@pytest.mark.parametrize("params, width", [(MIXED, 1025), (R3, 511)],
                         ids=["full-rows", "unit-nu"])
def test_dp_batches_match_one_batch(params, width):
    # past `_BATCH` coefficients the blocks are split in halves and
    # reduced depth first; that changes no pairing, only which rows share
    # one FFT call.  At M = 1024 the baby rows have `width` columns: full
    # at nu < 1, 2 * 255 + 1 at nu = 1
    want = dp_distribution(params, "gated", 3, M=1024, tol=1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ren, "_BATCH", 2 * width)
        got = dp_distribution(params, "gated", 3, M=1024, tol=1.0)
    assert np.max(np.abs(got.pi - want.pi)) <= 1e-16


@pytest.mark.parametrize("params, n, M", [
    (R3, 3, 4096),
    (LawParams(1.0, 1.0, 0.5, 0.7, 0.5, 2.0), 12, 256),
    (LawParams(1.0, 1.0, 1.0, 1.0, 1e-12, 0.25), 12, 256)],
    ids=["r3-4096", "kappa1-half", "kappa1-1e-12"])
@pytest.mark.parametrize("model", ["stopped", "z", "gated"])
def test_dp_composition_matches_per_state_horner(model, params, n, M):
    # the nu = 1 law at the size `gwimm survival` uses, and at the ends
    # of kappa1: p1 = 1 - 2*kappa1 is 0 at 1/2, and F is nearly s at 1e-12
    dist = dp_distribution(params, model, n, M=M, tol=1.0)
    pi, lost = _per_state_dp(params, model, n, M, tol=1.0)
    assert np.max(np.abs(dist.pi - pi)) <= 1e-13
    assert np.max(np.abs(dist.lost_mass - lost)) <= 1e-13


@pytest.mark.parametrize("params, M, digests", [
    (CANON, 256, ("78f8a307be0c74d7", "c1e1a4be5c4e5251",
                  "3105695b4f46d9b2")),
    (R3, 4096, ("d5617543cf281573", "d53d98f39fb48e76",
                "e815b752867abb44"))], ids=["canon-256", "r3-4096"])
def test_dp_unit_nu_digest(params, M, digests):
    # pins pi and lost mass at nu = 1 bit for bit, for the three chains:
    # the baby rows, built by FFT doubling as at nu < 1, have 2b - 1
    # columns, and the blocks never reach the cut of M + 1 coefficients
    for model, want in zip(("stopped", "z", "gated"), digests):
        dist = dp_distribution(params, model, 10, M=M)
        got = hashlib.sha256(dist.pi.tobytes()
                             + dist.lost_mass.tobytes()).hexdigest()
        assert got[:16] == want, model


def test_dp_fractional_nu_pi_digest():
    # pins the nu < 1 composition (full baby rows, truncated levels) bit
    # for bit at M = 4096
    pi = dp_distribution(FRAC, "stopped", 10, M=4096).pi
    assert hashlib.sha256(pi.tobytes()).hexdigest() == (
        "0b89872134ebd8a909ac83e8b63fdc4feb6808c312126516960a77c6098f7a46")


# the pi digests of R3 and FRAC at M = 4096
_PI_DIGESTS = """
import hashlib
from gwimm.laws import LawParams
from gwimm.renewal import dp_distribution
for p in (LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 0.25),
          LawParams(0.95, 1.0, 0.9, 0.5, 0.5, 0.3)):
    pi = dp_distribution(p, "stopped", 10, M=4096).pi
    print(hashlib.sha256(pi.tobytes()).hexdigest())
"""


def test_dp_pi_does_not_depend_on_blas_threads():
    # the thread count is read when numpy loads BLAS, so each count
    # needs a fresh process
    src = str(Path(ren.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")]
                                if p]))
        run = subprocess.run([sys.executable, "-c", _PI_DIGESTS], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(run.stdout)
    assert len(digests) == 1, digests


@pytest.mark.parametrize("M, n, mib", [(4096, 2, 12), (16384, 1, 48)])
def test_dp_memory_peak(M, n, mib):
    # the nu < 1 law: the baby rows take b(M + 1) coefficients, b at most
    # 256, and the blocks of one baby product about 2 MiB
    tracemalloc.start()
    try:
        dp_distribution(FRAC, "stopped", n, M=M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2 ** 20, peak / 2 ** 20


def test_dp_composition_memory_peak():
    # at nu = 1 the baby rows and blocks are short: the peak is the law
    # arrays, the level operands and the spectra of one 2M product
    tracemalloc.start()
    try:
        dp_distribution(R3, "stopped", 1, M=16384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("params", [R3, MIXED], ids=["unit-nu", "nu-below-1"])
@pytest.mark.parametrize("model", ["stopped", "z", "gated"])
def test_dp_ffts_have_at_most_2m_points(model, params, monkeypatch):
    # states 0..M read only coefficients 0..M, so no product of the step
    # or of its plan needs more than 2M points
    sizes = []
    for name in ("rfft", "irfft"):
        def recorded(a, n=None, *args, _fft=getattr(np.fft, name), **kw):
            sizes.append(n)
            return _fft(a, n, *args, **kw)
        monkeypatch.setattr(np.fft, name, recorded)
    dp_distribution(params, model, 3, M=1024, tol=1.0)
    assert sizes and None not in sizes
    assert max(sizes) <= 2 * 1024, max(sizes)


def test_dp_cap_too_small_at_reference_generation():
    with pytest.raises(CapTooSmallError) as ref:
        _per_state_dp(R0, "stopped", 30, 64, tol=1e-3)
    with pytest.raises(CapTooSmallError) as info:
        dp_distribution(R0, "stopped", 30, M=64)
    assert info.value.generation == ref.value.generation


@settings(max_examples=150, deadline=None)
@given(nu=UNIT, theta=UNIT, delta=DELTA, kappa0=UNIT, frac=UNIT,
       kappa2=st.floats(min_value=0.0, max_value=8.0, exclude_min=True),
       model=st.sampled_from(["stopped", "z", "gated"]))
# the initial tail mass rounded above kappa0 (a lost mass > tol = 1)
@example(nu=1.0, theta=1.0, delta=1.2065227197986961e-209, kappa0=1.0,
         frac=1.0, kappa2=1.0, model="stopped")
# kappa0 subnormal: the initial law divided by kappa0 was a unit atom
@example(nu=1.0, theta=1.0, delta=0.75, kappa0=5e-324, frac=1.0, kappa2=1.0,
         model="stopped")
# the law with the most mass near the cap seen over the box, where a
# step evaluated on the ring wrapped by up to 1.4e-9: each chain
@example(nu=0.25, theta=0.55, delta=0.5, kappa0=1.0, frac=1.0, kappa2=8.0,
         model="stopped")
@example(nu=0.25, theta=0.55, delta=0.5, kappa0=1.0, frac=1.0, kappa2=8.0,
         model="z")
@example(nu=0.25, theta=0.55, delta=0.5, kappa0=1.0, frac=1.0, kappa2=8.0,
         model="gated")
def test_renewal_inside_dp_bracket_over_the_box(nu, theta, delta, kappa0,
                                                frac, kappa2, model):
    # tol = 1 lets heavy tails widen the bracket instead of raising
    # CapTooSmallError at this small M; the bracket stays rigorous
    p = box_params(nu, theta, delta, kappa0, frac, kappa2)
    u = ren.exact_survival(p, model, 10)
    lo, hi, _ = u_dp_curve(p, model, 10, M=256, tol=1.0)
    assert np.all(lo - 1e-9 <= u) and np.all(u <= hi + 1e-9)


@pytest.mark.parametrize("params", [FRAC, MIXED, NEAR_CAP],
                         ids=["frac", "mixed", "near-cap"])
def test_dp_unstopped_law_encloses_transform(params):
    # every DP mass is at most the true one, and their deficit sums to
    # at most the lost mass, so for s in [0, 1]
    # h_n(s) - lost_n <= sum_w pi_n[w] s^w <= h_n(s), to roundoff
    from gwimm.pgf import h_n
    dist = dp_distribution(params, "z", 10, M=256, tol=1.0)
    w = np.arange(257.0)
    for n in (1, 3, 10):
        for s in (0.0, 0.25, 0.5, 0.9, 1.0):
            h = h_n(params, s, n)
            got = math.fsum((dist.pi[n] * s ** w).tolist())
            assert h - dist.lost_mass[n] - 1e-12 <= got <= h + 1e-12, (n, s)


def test_dp_unstopped_matches_transform_atom():
    # P(Z_n = 0) from the recursion vs the closed transform at s = 0
    from gwimm.pgf import h_n
    dist = dp_distribution(CANON, "z", 8, M=512)
    for n in (1, 4, 8):
        assert dist.pi[n, 0] == pytest.approx(h_n(CANON, 0.0, n), abs=1e-10)


@pytest.mark.parametrize("params", [
    R3, LawParams(0.8, 0.6, 1.0, 0.5, 0.5, 0.4),
    LawParams(0.9, 1.0, 0.7, 0.9, 0.4, 0.5), MIXED])
def test_dp_z_and_gated_inside_exact_curves(params):
    # exact survival curves that share no code with the DP step: z from
    # the closed transform at s = 0, gated from the stopped chain's
    # renewal equation on the q(0) path started one generation later
    n = 10
    p1 = dataclasses.replace(params, kappa0=1.0)
    exact = {
        "z": 1.0 - gamma_sequences(p1, 0.0, n).gamma,
        "gated": np.r_[1.0, ren._renewal_table(
            p1, q_iterate(p1, p1.kappa1, n - 1)).u],
    }
    for model, u in exact.items():
        lo, hi, _ = u_dp_curve(params, model, n, M=2048, tol=1.0)
        assert np.all(lo - 1e-9 <= u) and np.all(u <= hi + 1e-9), model


@pytest.mark.parametrize("model", ["stopped", "z", "gated"])
def test_exact_survival_at_horizon_zero(model):
    # P(X_0 > 0 | X_0 > 0) = 1 alone, for each chain
    for p in (R3, FRAC):
        u = ren.exact_survival(p, model, 0)
        assert u.shape == (1,) and u[0] == 1.0


def test_dp_cap_too_small():
    with pytest.raises(CapTooSmallError) as info:
        dp_distribution(R0, "stopped", 30, M=64)
    assert info.value.lost_mass > info.value.tol


def test_dp_m_validation():
    with pytest.raises(ValueError):
        dp_distribution(CANON, "stopped", 2, M=100)
    with pytest.raises(ValueError):
        dp_distribution(CANON, "stopped", 2, M=32)


def test_u_dp_curve_bracket_at_generation_10():
    lo, hi, _ = u_dp_curve(CANON, "stopped", 10, M=512)
    rt = build_renewal(CANON, 10)
    assert lo[10] - 1e-12 <= rt.u[10] <= hi[10] + 1e-12
    assert hi[10] - lo[10] < 1e-6


# ---------------------------------------------------------------------------
# regime classification


def law(nu, th, dl, k0, k1, k2):
    return LawParams(nu=nu, theta=th, delta=dl, kappa0=k0, kappa1=k1,
                     kappa2=k2)


@pytest.mark.parametrize("params,rid,alpha,corr", [
    (LAWS["R0_EDGE"], "R0", 0.0, "none"),
    (CANON, "R1", 0.0, "none"),
    (LAWS["R2"], "R2", 0.0, "inverse-log"),
    (R3, "R3", 0.5, "none"),
    (LAWS["R4"], "R4", 0.875, "log"),
    (LAWS["R5"], "R5", 0.8, "none"),
    (FRAC, "R6", 0.9 / 0.95, "none"),
    (law(0.5, 1.0, 0.5, 0.5, 0.5, 0.5), "UNCOVERED", None, "none"),
    # sigma = kappa2/(kappa1*nu) overflows to inf: far above 1, not near it
    (law(1.0, 1.0, 1.0, 1.0, 0.5, 1e308), "R1", 0.0, "none"),
    (law(0.5, 0.5, 1.0, 1.0, 1e-300, 1e10), "R1", 0.0, "none"),
    # the boundaries are relative: theta/nu = 1/2 and delta/nu = 8e-51
    (law(1e-10, 5e-11, 1.0, 1.0, 0.5, 1.0), "R0", 0.0, "none"),
    (law(4.9e-87, 1.0, 4.1e-137, 1.0, 0.5, 5e-324), "R6", 4.1e-137 / 4.9e-87,
     "none"),
    # sigma = 1 + 2e-8 lies outside the boundary width: strictly above 1
    (law(1.0, 1.0, 1.0, 1.0, 0.5, 0.5 + 1e-8), "R1", 0.0, "none"),
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
    # sigma within 1e-9 of 1 lands on R2
    p = law(1.0, 1.0, 1.0, 1.0, 0.5, 0.5 * (1.0 + 1e-12))
    assert classify_regime(p).regime_id == "R2"


# ---------------------------------------------------------------------------
# tail fitting


def test_line_is_the_least_squares_line():
    # the tail fits' one kernel against numpy's solver, on the abscissas
    # the fits use: log n over a decade and n^-beta over two
    rng = np.random.default_rng(3)
    n = np.arange(10 ** 4, 10 ** 6 + 1, 7, dtype=float)
    for x in (np.log(n), n ** -0.1, n ** -1.0):
        y = 0.3 - 2.0 * x + 1e-6 * rng.standard_normal(x.size)
        slope, intercept = ren._line(x, y)
        want = np.polyfit(x, y, 1)
        assert slope == pytest.approx(want[0], rel=1e-9)
        assert intercept == pytest.approx(want[1], rel=1e-12)
    assert ren._line(n, 5.0 - 0.5 * n) == pytest.approx((-0.5, 5.0),
                                                          rel=1e-12)
    # the spread of x squares to 0: a flat line through the mean of y,
    # numpy's minimum-norm answer, with no division by zero
    for x in (n ** -60.0, np.zeros(n.size)):
        y = 0.6 + 1e-6 * rng.standard_normal(x.size)
        want = np.linalg.lstsq(np.vstack([np.ones(x.size), x]).T, y,
                               rcond=None)[0]
        assert ren._line(x, y) == (0.0, pytest.approx(want[0], rel=1e-14))


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
    # a u that reaches 0 inside the fitted decade: no log of 0
    u = np.ones(1001)
    u[688:] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InsufficientLengthError, match="u_688 = 0"):
            fit_tail(u, rep)


def test_fit_tail_on_r4_divides_out_the_log():
    # R4 (sigma + delta/nu = 1): u_n ~ K * n^(-1/2) * log n; the fit reads
    # the slope of log(u / log n), 0.5081 at n = 10^4 and 0.5032 at 10^5
    p = law(1.0, 1.0, 0.5, 1.0, 0.5, 0.25)
    rep = classify_regime(p)
    assert (rep.regime_id, rep.alpha, rep.correction) == ("R4", 0.5, "log")
    u = build_renewal(p, 10 ** 5).u
    errs = []
    for n in (10 ** 4, 10 ** 5):
        out = fit_tail(u[:n + 1], rep)
        assert out.constants["K"] > 0.0
        errs.append(abs(out.fitted_alpha - 0.5))
    assert errs[1] < errs[0] < 0.01
    assert errs[1] < 0.004


def test_fit_tail_on_real_table():
    rep = classify_regime(R3)                   # sigma = 1/2, alpha = 1/2
    out = fit_tail(build_renewal(R3, 10 ** 4).u, rep)
    assert out.fitted_alpha == pytest.approx(0.5, abs=0.05)
    assert out.constants["K"] > 0.0


# ---------------------------------------------------------------------------
# gamma asymptotics


def test_gamma_exp_decay_branch():
    rep = gamma_asymptotics(R0, 10 ** 5)
    assert rep.branch == "exp-decay"
    assert rep.reference == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    assert rep.rel_error < 0.15


@pytest.mark.parametrize("kappa2", [5e-324, 1e300])
def test_gamma_exp_decay_branch_at_extreme_kappa2(kappa2):
    # -log gamma0 = kappa2 * S with S_n close to n: the line is fitted to
    # S and scaled, so a subnormal or huge kappa2 neither underflows nor
    # overflows its sums
    p = LawParams(1.0, 1e-300, 1.0, 1.0, 0.5, kappa2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = gamma_asymptotics(p, 5000)
    assert rep.rel_error < 1e-12


def test_gamma_power_branch():
    rep = gamma_asymptotics(CANON, 10 ** 5)
    assert rep.branch == "power"
    assert rep.drift < 0.02
    assert rep.estimate > 0.0


@pytest.mark.parametrize("kappa2, n_max, estimate, drift", [
    (30.0, 10 ** 6, None, None),              # sigma = 60: n^sigma was inf
    (60.0, 10 ** 5, 2.5001e53, 0.119),
    (400.0, 10 ** 5, math.inf, None),         # c1 itself is past float64
])
def test_gamma_power_branch_past_float64(kappa2, n_max, estimate, drift):
    # gamma0_n * n^sigma is formed in the log domain; the float64 product
    # read nan where n^sigma overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = gamma_asymptotics(law(1.0, 1.0, 1.0, 1.0, 0.5, kappa2), n_max)
    assert rep.branch == "power" and math.isfinite(rep.drift)
    if estimate is None:
        assert 0.0 < rep.estimate < math.inf
    else:
        assert rep.estimate == pytest.approx(estimate, rel=1e-4)
    if drift is not None:
        assert rep.drift == pytest.approx(drift, rel=1e-2)


def test_gamma_power_branch_log_form_matches_the_product():
    # at sigma = 50 and n = 10^6 the float64 product gamma0_n * n^sigma
    # (1.8e22) still fits, and the log form agrees with it
    p, n = law(1.0, 1.0, 1.0, 1.0, 0.5, 25.0), 10 ** 6
    S = theta_sums(p, 0.0, n)[2]
    product = math.exp(-float(p.kappa2 * S[n])) * float(n) ** 50
    assert gamma_asymptotics(p, n).estimate == pytest.approx(product,
                                                             rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(nu=UNIT, theta=UNIT, delta=DELTA, kappa0=UNIT, frac=UNIT,
       kappa2=KAPPA2, balanced=st.booleans())
@example(nu=1e-10, theta=5e-11, delta=1.0, kappa0=1.0, frac=0.5,
         kappa2=5e-324, balanced=False)
@example(nu=0.5, theta=1.0, delta=1.0, kappa0=1.0, frac=0.75,
         kappa2=1e308, balanced=False)
def test_gamma_asymptotics_over_the_box(nu, theta, delta, kappa0, frac,
                                        kappa2, balanced):
    # no warning, and a finite drift on the two branches that report one;
    # half the draws take theta = nu, the power branch.  The examples:
    # c2 underflowed to 0 under a subnormal kappa2 (a ZeroDivisionError),
    # and kappa2 times the tail bound overflowed (a RuntimeWarning)
    p = box_params(nu, nu if balanced else theta, delta, kappa0, frac,
                   kappa2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = gamma_asymptotics(p, 2000)
    assert (rep.drift is None) == (rep.branch == "exp-decay")
    assert rep.drift is None or math.isfinite(rep.drift)


@pytest.mark.parametrize("n_max", [0, 3, 5, 9])
def test_gamma_asymptotics_needs_ten_generations(n_max):
    # one law per branch: exp-decay, power, convergent
    for p in (R0, CANON, law(0.5, 1.0, 0.5, 0.5, 0.5, 0.5)):
        with pytest.raises(InsufficientLengthError):
            gamma_asymptotics(p, n_max)
    assert gamma_asymptotics(CANON, 10).branch == "power"


@pytest.mark.parametrize("n_max", [9, 10])
def test_gamma_fitting_branches_need_two_grid_points(n_max):
    # exp-decay and convergent fit a line to the grid 10..n_max, which at
    # n_max = 10 is one point
    for p in (R0, law(0.5, 1.0, 0.5, 0.5, 0.5, 0.5)):
        with pytest.raises(InsufficientLengthError):
            gamma_asymptotics(p, n_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(gamma_asymptotics(p, 11).estimate)


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
