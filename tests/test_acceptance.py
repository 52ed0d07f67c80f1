"""Acceptance battery: one test per shipped guarantee, at desk scale.

Each test prints the measured quantities it gates on, so a failing run
shows the distance to the bar, not just the verdict.  Monte Carlo
comparisons run at fixed seeds; the recorded z-scores for those seeds sit
well inside the 3-sigma bars they are checked against.
"""

import math
import subprocess
import time

import numpy as np
import pytest

from gwimm.cli import main as cli_main
from gwimm.laws import (LawParams, immigration_pmf, initial_pmf,
                        offspring_pmf, sample_immigration, sample_initial,
                        sample_offspring, stable_positive)
from gwimm.limits import convergence_sweep, lambda_limit, stationary_pgf
from gwimm.pgf import epsilon_term, rate_gap
from gwimm.renewal import (build_renewal, classify_regime, fit_tail,
                           gamma_asymptotics, u_dp_curve)
from gwimm.rng import stream
from gwimm.simulate import estimate_survival

SEED = 2024
CANON = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, kappa1=0.5,
                  kappa2=1.0)
U1 = 0.5 * math.exp(-1.0) + 1.0 - math.exp(-1.0)
U2 = 0.375 * math.exp(-1.5) + (1.0 - math.exp(-1.0)) * U1 \
    + math.exp(-1.0) - math.exp(-1.5)

# one parameter set per decay regime, kept cheap enough for a 50-generation
# state-space recursion at cap 4096 next to a 10^6-replicate simulation
REGIME_GRID = {
    "R0": LawParams(1.0, 0.9, 1.0, 1.0, 0.5, 0.1),
    "R1": LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 1.0),
    "R2": LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 0.5),
    "R3": LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 0.25),
    "R4": LawParams(1.0, 1.0, 0.875, 0.8, 0.5, 0.0625),
    "R5": LawParams(1.0, 1.0, 0.8, 0.6, 0.5, 0.05),
    "R6": LawParams(0.95, 1.0, 0.9, 0.5, 0.5, 0.3),
}

# longer-horizon grid for the tail-exponent fits (one per fitting branch)
FIT_GRID = {
    "R0": LawParams(1.0, 0.5, 1.0, 1.0, 0.5, 1.0),
    "R1": LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 1.0),
    "R2": LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 0.5),
    "R3": LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 0.25),
    "R5": LawParams(1.0, 1.0, 0.25, 1.0, 0.5, 0.25),
    "R6": LawParams(0.5, 1.0, 0.25, 0.5, 0.5, 0.5),
}


def test_criterion_1_regime_grid_survival_routes():
    """Renewal, state recursion and simulation agree across all regimes."""
    t0 = time.time()
    for name, p in REGIME_GRID.items():
        rt = build_renewal(p, 50)
        lo, hi, _ = u_dp_curve(p, "stopped", 50, M=4096)
        assert np.all(rt.u >= lo - 1e-9), name
        assert np.all(rt.u <= hi + 1e-9), name

        bs = estimate_survival(p, "stopped", 50, 10 ** 6, seed=SEED,
                               threads=4)
        se = bs.survival_se()
        gap = np.abs(bs.survival() - rt.u * p.kappa0)
        z = gap / np.where(se > 0.0, se, 1.0)
        print(f"criterion 1 {name}: max|z| = {z.max():.3f}, "
              f"bracket width {float((hi - lo).max()):.2e}")
        assert np.all(gap <= 3.0 * se + 1e-12), (name, float(z.max()))
    elapsed = time.time() - t0
    print(f"criterion 1: {elapsed:.0f}s for 7 regimes")
    assert elapsed < 300.0


def test_criterion_2_survival_hand_values_four_routes():
    """u_1 and u_2 from renewal, recursion, enumeration and simulation."""
    # independent enumeration: from one individual, one step is offspring
    # {0,1,2} convolved with Poisson(1); dying at step 2 means every one of
    # w survivors leaves no child and no immigrant arrives
    K = 60
    poisson = np.exp(-1.0 - np.array(
        [math.lgamma(k + 1.0) for k in range(K + 1)]))
    pi1 = np.convolve(offspring_pmf(CANON, 2).probs, poisson)[:K + 1]
    u1_enum = 1.0 - pi1[0]
    die2 = pi1[0] + math.exp(-1.0) * math.fsum(
        (pi1[1:] * 0.5 ** np.arange(1.0, K + 1.0)).tolist())
    u2_enum = 1.0 - die2
    assert abs(u1_enum - U1) < 1e-12
    assert abs(u2_enum - U2) < 1e-12

    rt = build_renewal(CANON, 2)
    assert abs(rt.u[1] - U1) < 1e-9
    assert abs(rt.u[2] - U2) < 1e-9
    assert abs(rt.u[1] - 0.816060) < 5e-6
    assert abs(rt.u[2] - 0.744274) < 5e-6

    for n, ref in ((1, U1), (2, U2)):
        lo, hi, dist = u_dp_curve(CANON, "stopped", n, M=4096)
        assert lo[n] - 1e-12 <= ref <= hi[n] + 1e-12
        assert hi[n] - lo[n] < 1e-9

    bs = estimate_survival(CANON, "stopped", 2, 10 ** 6, seed=SEED,
                           threads=4)
    se = bs.survival_se()
    z1 = (bs.survival()[1] - U1) / se[1]
    z2 = (bs.survival()[2] - U2) / se[2]
    print(f"criterion 2: enum gap {abs(u2_enum - U2):.2e}, "
          f"MC z = ({z1:+.2f}, {z2:+.2f})")
    assert abs(z1) < 3.0 and abs(z2) < 3.0


def test_criterion_3_decay_rate_uniformity_and_epsilon_band():
    """Uniform-in-t decay of the rate gap; log(n)/n window for epsilon."""
    t0 = time.time()
    tgrid = np.array([0.0, 0.5, 0.9, 0.99, 0.999])
    for nu in (1.0, 0.5):
        p = LawParams(nu, 1.0, 1.0, 1.0, 0.5, 1.0)
        sups = [float(np.abs(rate_gap(p, tgrid, n)).max())
                for n in (10 ** 3, 10 ** 4, 10 ** 5)]
        print(f"criterion 3 nu={nu}: sup gaps {sups[0]:.2e} "
              f"{sups[1]:.2e} {sups[2]:.2e}")
        assert sups[0] >= sups[1] >= sups[2]
        assert sups[2] < 1e-2

        band = [abs(float(epsilon_term(p, 0.0, n))) * n / math.log(n)
                for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
        lo, hi = min(band), max(band)
        print(f"criterion 3 nu={nu}: epsilon band [{lo:.4f}, {hi:.4f}]")
        assert 0.05 <= lo and hi <= 20.0
        assert hi / lo < 3.0
    elapsed = time.time() - t0
    assert elapsed < 60.0


def test_criterion_4_stretched_exponential_constant():
    """Fitted decay constant of gamma against its closed form."""
    t0 = time.time()
    rep = gamma_asymptotics(LawParams(1.0, 0.5, 1.0, 1.0, 0.5, 1.0), 10 ** 6)
    assert rep.branch == "exp-decay"
    assert rep.reference == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    print(f"criterion 4: slope {rep.estimate:.6f} vs {rep.reference:.6f} "
          f"(rel {rep.rel_error:.2e})")
    assert rep.rel_error < 0.05
    assert time.time() - t0 < 60.0


def test_criterion_5_tail_exponent_fits():
    """Survival tails to n = 1e5 recover the predicted decay per regime."""
    t0 = time.time()
    for name, p in FIT_GRID.items():
        rep = classify_regime(p)
        assert rep.regime_id == name
        u = build_renewal(p, 10 ** 5).u
        out = fit_tail(u, rep)
        if name in ("R0", "R1"):
            ratio = float(u[10 ** 5] / u[10 ** 4])
            print(f"criterion 5 {name}: decade ratio {ratio:.5f}")
            assert ratio > 0.99
        elif name == "R2":
            drift = out.constants["log_drift"]
            print(f"criterion 5 R2: scaled drift {drift:.4f}")
            assert drift < 0.05
        else:
            err = abs(out.fitted_alpha - out.alpha)
            print(f"criterion 5 {name}: exponent error {err:.5f} "
                  f"(K = {out.constants['K']:.4f})")
            assert err < 0.05
    elapsed = time.time() - t0
    print(f"criterion 5: {elapsed:.0f}s")
    assert elapsed < 600.0


def test_criterion_6_generationwise_limit_checkers():
    """Unstopped-chain deviations shrink in n; stationary transform pins c0."""
    heavy = LawParams(1.0, 0.5, 1.0, 1.0, 0.5, 1.0)
    ns = (10 ** 3, 10 ** 4, 10 ** 5)
    for theorem_id, p in (("gamma_balanced", CANON),
                          ("unstopped_balanced", CANON),
                          ("gamma_heavy_immigration", heavy),
                          ("unstopped_heavy_immigration", heavy)):
        chk = convergence_sweep(p, theorem_id, (0.5, 1.0, 2.0), ns)
        assert chk.monotone(), (theorem_id, chk.deviations)
        worst_final = float(chk.deviations[-1].max())
        print(f"criterion 6 {theorem_id}: worst deviation {worst_final:.2e}")
        assert worst_final < 5e-2

    conv = LawParams(0.5, 1.0, 0.5, 0.5, 0.5, 0.5)
    sp = stationary_pgf(conv, 0.0)
    lo, hi = gamma_asymptotics(conv, 10 ** 5).interval
    gap = abs(sp - 0.5 * (lo + hi))
    print(f"criterion 6 stationary vs limit constant: {gap:.2e}")
    assert gap < 1e-6


def test_criterion_7_conditional_limit_sweeps():
    """Conditional transforms approach their limit laws on every branch."""
    s_grid = [0.5, 1.0, 2.0]
    n_grid = [10 ** 3, 10 ** 4]
    cases = [
        ("heavy_immigration", LawParams(1.0, 0.5, 1.0, 1.0, 0.5, 1.0)),
        ("balanced_strong", CANON),
        ("balanced_weak", LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 0.25)),
        ("balanced_weak", LawParams(1.0, 1.0, 0.25, 1.0, 0.5, 0.25)),
    ]
    for tid, p in cases:
        chk = convergence_sweep(p, tid, s_grid, n_grid)
        final = float(chk.deviations[-1].max())
        print(f"criterion 7 {tid} delta={p.delta}: monotone="
              f"{chk.monotone()} final {final:.2e}")
        assert chk.monotone()
        assert final < 5e-2

    # quadrature self-check of the weak-limit transform on its
    # closed-form branch
    r3 = LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 0.25)
    qerr = max(abs(lambda_limit(r3, float(s)) - 1.0 / (1.0 + float(s)))
               for s in np.linspace(0.05, 3.0, 20))
    print(f"criterion 7 quadrature: {qerr:.2e}")
    assert qerr < 1e-8


def test_criterion_8_sampler_distributions():
    """Total variation of each sampler on {0..50}; stable transform."""
    def tv50(draws, table):
        emp = np.bincount(np.minimum(draws, 51), minlength=52) / len(draws)
        exact = np.append(table.probs[:51], 1.0 - table.probs[:51].sum())
        return 0.5 * float(np.abs(emp - exact).sum())

    n = 10 ** 6
    cases = [
        ("offspring", LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 1.0),
         sample_offspring, offspring_pmf),
        ("offspring", LawParams(0.5, 1.0, 1.0, 1.0, 0.5, 1.0),
         sample_offspring, offspring_pmf),
        ("immigration", LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 1.0),
         sample_immigration, immigration_pmf),
        ("immigration", LawParams(1.0, 0.5, 1.0, 1.0, 0.5, 1.0),
         sample_immigration, immigration_pmf),
        ("initial", LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 1.0),
         sample_initial, initial_pmf),
        ("initial", LawParams(1.0, 1.0, 0.5, 0.5, 0.5, 1.0),
         sample_initial, initial_pmf),
    ]
    for i, (label, p, sampler, pmf) in enumerate(cases):
        tv = tv50(sampler(p, stream(88, i), n), pmf(p, 51))
        print(f"criterion 8 {label} ({p.nu}, {p.theta}, {p.delta}): "
              f"TV = {tv:.5f}")
        assert tv < 5e-3, label

    for theta in (0.3, 0.5, 0.8):
        s = stable_positive(theta, stream(99, 0), 400_000)
        for lam in (0.5, 1.0, 2.0):
            v = np.exp(-lam * s)
            z = (v.mean() - math.exp(-lam ** theta)) \
                / (v.std(ddof=1) / math.sqrt(len(v)))
            assert abs(z) < 3.0, (theta, lam, float(z))
    print("criterion 8: stable transform inside 3-sigma on 9 cells")


def test_criterion_9_verify_thread_determinism(tmp_path, capsys):
    """The verification battery is byte-identical for 1, 4 and 8 threads."""
    outs = []
    for threads in (1, 4, 8):
        path = tmp_path / f"verify_{threads}.txt"
        rc = cli_main(["verify", "--seed", "1", "--threads", str(threads),
                       "--out", str(path)])
        assert rc == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1] == outs[2]
    assert b"result: PASS" in outs[0]
    print("criterion 9: verify output byte-identical across {1,4,8} threads")
