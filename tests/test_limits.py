"""Limit-theorem checkers, stationary transform, conditional-law machinery."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gwimm.errors import (MissingConstantError, MissingRenewalError,
                          TolUnreachableError, WrongRegimeError)
from gwimm.laws import (LawParams, immigration_pgf, initial_pgf,
                        offspring_pgf)
from gwimm.limits import (THEOREMS, LimitCheck, conditional_laplace_exact,
                          convergence_sweep, lambda_limit,
                          limit_balanced_strong, limit_laplace_heavy_imm,
                          stationary_pgf)
from gwimm.pgf import _power, _q_steps, h_n, q_iterate
from gwimm.renewal import (RenewalTable, _renewal_table, build_renewal,
                           classify_regime, gamma_asymptotics)
from gwimm.simulate import estimate_survival

from conftest import CANON, LAWS, R0, R3

DELTA_HALF = LawParams(nu=1.0, theta=1.0, delta=0.5, kappa0=0.8,
                       kappa1=0.5, kappa2=1.0)


# ---------------------------------------------------------------------------
# exact conditional transform


def one_step_oracle(p: LawParams, t: float) -> float:
    # E(t^{W_1} | W_1 > 0) assembled from the closed-form transforms alone:
    # restrict to X_0 >= 1, subtract the mass moved to zero, normalize by
    # kappa0 * u_1
    ft = float(offspring_pgf(p, t))
    m1 = float(immigration_pgf(p, t)) * (float(initial_pgf(p, ft))
                                         - float(initial_pgf(p, 0.0)))
    f0 = float(offspring_pgf(p, 0.0))
    m0 = float(immigration_pgf(p, 0.0)) * (float(initial_pgf(p, f0))
                                           - float(initial_pgf(p, 0.0)))
    u1 = build_renewal(p, 1).u[1]
    return (m1 - m0) / (p.kappa0 * u1)


@pytest.mark.parametrize("params", [CANON, DELTA_HALF])
def test_conditional_transform_one_step(params):
    s = 0.7
    got = conditional_laplace_exact(params, 1, s)
    t = math.exp(-s * _power(q_iterate(params, 0.0, 1), 1.0)[1])
    assert got == pytest.approx(one_step_oracle(params, t), abs=1e-12)


def test_conditional_transform_at_zero_scale():
    assert conditional_laplace_exact(CANON, 7, 0.0) == \
        pytest.approx(1.0, abs=1e-12)


def test_decomposition_telescopes_to_plain_transform():
    # substituting u = 1 collapses the renewal split to the unconditional
    # transform of the positively-started process, which is the plain
    # transform with the kappa0 atom stripped
    n = 12
    rt = build_renewal(DELTA_HALF, n)
    flat = RenewalTable(params=DELTA_HALF, gamma0=rt.gamma0, a=rt.a, d=rt.d,
                        u=np.ones_like(rt.u))
    stripped = dataclasses.replace(DELTA_HALF, kappa0=1.0)
    for s in (0.3, 1.5):
        t = math.exp(-s * _power(q_iterate(DELTA_HALF, 0.0, n), 1.0)[n])
        got = conditional_laplace_exact(DELTA_HALF, n, s, table=flat)
        assert got == pytest.approx(h_n(stripped, t, n), abs=1e-12)


def test_conditional_transform_matches_monte_carlo():
    n, s = 30, 1.0
    exact = conditional_laplace_exact(CANON, n, s)
    scale = s * float(_power(q_iterate(CANON, 0.0, n), 1.0)[n])
    value, se = estimate_survival(CANON, "stopped", n, reps=100_000,
                                  seed=12, threads=2,
                                  scale=scale).conditional_laplace()
    assert abs(value - exact) < 4.0 * se


def test_conditional_transform_matches_monte_carlo_with_atom():
    # kappa0 < 1 exercises the conditioning normalization
    n, s = 10, 0.7
    exact = conditional_laplace_exact(DELTA_HALF, n, s)
    scale = s * float(_power(q_iterate(DELTA_HALF, 0.0, n), 1.0)[n])
    value, se = estimate_survival(DELTA_HALF, "stopped", n, reps=200_000,
                                  seed=5, threads=2, cap=100_000,
                                  scale=scale).conditional_laplace()
    assert abs(value - exact) < 4.0 * se


def test_conditional_transform_table_errors():
    short = build_renewal(CANON, 5)
    with pytest.raises(MissingRenewalError):
        conditional_laplace_exact(CANON, 10, 1.0, table=short)
    other = build_renewal(DELTA_HALF, 20)
    with pytest.raises(MissingRenewalError):
        conditional_laplace_exact(CANON, 10, 1.0, table=other)
    with pytest.raises(ValueError):
        conditional_laplace_exact(CANON, 10, 1.0, scaling="bogus")
    with pytest.raises(ValueError):
        conditional_laplace_exact(CANON, 0, 1.0)


def forbid_q_work(monkeypatch):
    """Make every q iteration `limits` can reach raise."""
    def no_q_work(*args):
        raise AssertionError("q work before the argument check")

    for name in ("_q_steps", "_renewal_table", "_gammas", "theta_sums"):
        monkeypatch.setattr("gwimm.limits." + name, no_q_work)


def test_conditional_transform_checks_the_scaling_before_any_q_work(
        monkeypatch):
    forbid_q_work(monkeypatch)
    with pytest.raises(ValueError, match="scaling"):
        conditional_laplace_exact(CANON, 10 ** 6, 1.0, "bogus")


@pytest.mark.parametrize("s", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("fn, params", [
    (lambda p, s: conditional_laplace_exact(p, 5, s), CANON),
    (lambda_limit, R3),
    (limit_balanced_strong, CANON),
    (limit_laplace_heavy_imm, R0),
])
def test_limit_statements_need_finite_nonnegative_s(fn, params, s):
    # the rule of convergence_sweep's s grid, in a law of the right regime
    with pytest.raises(ValueError, match="s must be finite and >= 0"):
        fn(params, s)


def test_limit_functions_against_closed_forms():
    # exp(-kappa2 s^theta) on R0, (1 + s^nu)^(-sigma) on R1, and the
    # lambda limit's s = 0 branch
    strong = LawParams(nu=0.5, theta=0.5, delta=1.0, kappa0=1.0,
                       kappa1=0.5, kappa2=0.6)        # sigma = 2.4
    for s in (0.0, 0.3, 1.0, 4.0):
        assert limit_laplace_heavy_imm(R0, s) == pytest.approx(
            math.exp(-R0.kappa2 * s ** R0.theta), rel=1e-15)
        assert limit_balanced_strong(strong, s) == pytest.approx(
            (1.0 + s ** 0.5) ** -2.4, rel=1e-15)
    assert lambda_limit(R3, 0.0) == 1.0


# ---------------------------------------------------------------------------
# unstopped-chain statements: H_n and the uniform gamma limits


def sweep(theorem_id):
    """convergence_sweep of `theorem_id` at one s and one n."""
    def run(params, s, n):
        return convergence_sweep(params, theorem_id, [s], [n])
    run.__name__ = theorem_id
    return run


def test_balanced_checkers_shrink():
    for theorem_id in ("gamma_balanced", "unstopped_balanced"):
        d1, d2 = convergence_sweep(CANON, theorem_id, [0.9],
                                   [100, 1000]).deviations[:, 0]
        assert d2 < d1
        assert d2 < 0.05


def test_heavy_imm_checkers_shrink():
    for theorem_id in ("gamma_heavy_immigration",
                       "unstopped_heavy_immigration"):
        d1, d2 = convergence_sweep(R0, theorem_id, [0.9],
                                   [100, 1000]).deviations[:, 0]
        assert d2 < d1
        assert d2 < 0.05


def test_checker_regime_guards():
    with pytest.raises(WrongRegimeError):
        sweep("gamma_balanced")(R0, 1.0, 10)
    with pytest.raises(WrongRegimeError):
        sweep("unstopped_balanced")(R0, 1.0, 10)
    with pytest.raises(WrongRegimeError):
        sweep("gamma_heavy_immigration")(CANON, 1.0, 10)
    with pytest.raises(WrongRegimeError):
        sweep("unstopped_heavy_immigration")(CANON, 1.0, 10)
    with pytest.raises(WrongRegimeError):
        limit_laplace_heavy_imm(CANON, 1.0)
    with pytest.raises(WrongRegimeError):
        limit_balanced_strong(R0, 1.0)
    # sigma < 1 is the weak-limit territory, not the strong one
    with pytest.raises(WrongRegimeError):
        limit_balanced_strong(R3, 1.0)


# each guarded function, an argument it rejects with a plain ValueError
# once its regime guard has passed, and the regimes that guard accepts
BALANCED = {"R1", "R2", "R3", "R4", "R5"}
GUARDS = [
    (sweep("gamma_balanced"), (-1.0, 10), BALANCED),
    (sweep("unstopped_balanced"), (-1.0, 10), BALANCED),
    (sweep("gamma_heavy_immigration"), (-1.0, 10), {"R0"}),
    (sweep("unstopped_heavy_immigration"), (-1.0, 10), {"R0"}),
    (sweep("heavy_immigration"), (-1.0, 10), {"R0"}),
    (sweep("balanced_strong"), (-1.0, 10), {"R1", "R2"}),
    (sweep("balanced_weak"), (-1.0, 10), {"R3", "R4", "R5"}),
    (limit_laplace_heavy_imm, (-1.0,), {"R0"}),
    (limit_balanced_strong, (-1.0,), {"R1", "R2"}),
    (lambda_limit, (-1.0,), {"R3", "R4", "R5"}),
    (stationary_pgf, (2.0,), {"R6", "UNCOVERED"}),
]


def away(lo, hi):
    # log-uniform on [lo, hi]
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=300, deadline=None)
@given(nu=away(1e-300, 1.0), theta=away(1e-300, 1.0),
       delta=away(sys.float_info.min, 1.0), balanced=st.booleans(),
       frac=st.floats(0.01, 1.0), sigma=away(1e-3, 1e3))
# theta/nu = 1/2 at nu = 1e-10: an absolute 1e-9 boundary read it R1
@example(nu=1e-10, theta=5e-11, delta=1.0, balanced=False, frac=0.75,
         sigma=2e10)
# delta/nu = 8e-51: an absolute 1e-9 boundary read it UNCOVERED
@example(nu=4.9e-87, theta=1.0, delta=4.1e-137, balanced=False, frac=0.5,
         sigma=1e-3)
def test_regime_is_placed_by_the_ratios(nu, theta, delta, balanced, frac,
                                        sigma):
    # the regimes depend on theta/nu, delta/nu and sigma alone, whatever
    # the scale of nu, and every limits guard accepts exactly its own
    theta = nu if balanced else theta
    ratio, rho = theta / nu, delta / nu
    assume(balanced or abs(ratio - 1.0) > 1e-2)
    assume(abs(rho - 1.0) > 1e-2)
    assume(abs(sigma - 1.0) > 1e-2 and abs(sigma + rho - 1.0) > 1e-2)
    kappa1 = frac / (1.0 + nu)
    p = LawParams(nu, theta, delta, 1.0, kappa1, sigma * kappa1 * nu)
    if balanced:
        want = "R1" if sigma > 1.0 else "R3" if sigma + rho > 1.0 else "R5"
    elif ratio < 1.0:
        want = "R0"
    else:
        want = "R6" if rho < 1.0 else "UNCOVERED"
    assert classify_regime(p).regime_id == want
    for fn, args, allowed in GUARDS:
        with pytest.raises(ValueError) as err:
            fn(p, *args)
        rejected = isinstance(err.value, WrongRegimeError)
        assert rejected == (want not in allowed), (fn.__name__, want)


# ---------------------------------------------------------------------------
# stationary law (theta > nu)


def test_stationary_pgf_edges_and_c0():
    p = LawParams(nu=0.5, theta=1.0, delta=0.5, kappa0=0.5, kappa1=0.5,
                  kappa2=0.5)
    assert stationary_pgf(p, 1.0) == 1.0
    # at s = 0 the product equals the limit of gamma_n^(0), enclosed
    # independently by the integral-bound route
    val = stationary_pgf(p, 0.0, tol=1e-10)
    lo, hi = gamma_asymptotics(p, 10 ** 5).interval
    assert lo - 1e-9 <= val <= hi + 1e-9
    mono = [stationary_pgf(p, s) for s in (0.0, 0.3, 0.6, 0.9)]
    assert np.all(np.diff(mono) > 0.0)


def test_stationary_pgf_where_kappa1_q_nu_rounds_to_1():
    # nu = 1e-17 and kappa1 = 1: the tail bound's C is inf, which left a
    # divide-by-zero warning; the lower bound 0 still holds
    p = LawParams(1e-17, 0.5, 0.5, 1.0, 1.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stationary_pgf(p, 0.5) == pytest.approx(0.70219, abs=1e-5)


def test_stationary_pgf_guards():
    with pytest.raises(WrongRegimeError):
        stationary_pgf(CANON, 0.5)
    p = LawParams(nu=0.5, theta=1.0, delta=0.5, kappa0=0.5, kappa1=0.5,
                  kappa2=0.5)
    with pytest.raises(ValueError):
        stationary_pgf(p, 1.2)
    with pytest.raises(TolUnreachableError):
        stationary_pgf(p, 0.0, tol=1e-14, max_iter=10)


# ---------------------------------------------------------------------------
# weak-limit transform Lambda


def test_lambda_limit_closed_form_branch():
    # sigma >= 1 - delta/nu: the integral collapses to (1 + s^nu)^(-1)
    for s in np.linspace(0.05, 3.0, 20):
        assert lambda_limit(R3, float(s)) == \
            pytest.approx(1.0 / (1.0 + float(s)), abs=1e-8)


def test_lambda_limit_needs_constant_below_breakpoint():
    p = LAWS["R5"]      # sigma = 0.1 < 1 - 0.8
    with pytest.raises(MissingConstantError):
        lambda_limit(p, 1.0)
    val = lambda_limit(p, 1.0, K5=2.0)
    assert 0.0 < val < 1.0


# ---------------------------------------------------------------------------
# sweep driver


def test_sweep_strong_branch_monotone():
    chk = convergence_sweep(CANON, "balanced_strong", [0.5, 1.0],
                            [200, 1000])
    assert chk.monotone()
    assert chk.deviations.shape == (2, 2)
    assert np.all(chk.deviations[1] < 0.02)
    assert np.allclose(chk.limit,
                       [(1.0 + 0.5) ** -2.0, 2.0 ** -2.0], rtol=1e-12)


def test_sweep_heavy_branch_monotone():
    chk = convergence_sweep(R0, "heavy_immigration", [0.5, 2.0],
                            [200, 1000])
    assert chk.monotone()
    assert np.allclose(chk.limit,
                       [math.exp(-math.sqrt(0.5)), math.exp(-math.sqrt(2.0))],
                       rtol=1e-12)


def test_sweep_weak_branch_no_constant_needed():
    # sigma = 0.5 >= 1 - delta/nu = 0: closed-form branch, no K5
    chk = convergence_sweep(R3, "balanced_weak", [0.5, 1.0], [200, 1000])
    assert chk.monotone()
    assert np.allclose(chk.limit, [1.0 / 1.5, 0.5], rtol=1e-12)


def count_tables_and_trajectories(monkeypatch):
    """Record the length of every renewal table and every q(0) trajectory
    that `gwimm.limits` builds."""
    built, iterated = [], []

    def counting_table(params, path):
        table = _renewal_table(params, path)
        built.append(len(table.u) - 1)
        return table

    def counting_steps(params, lq0, n):
        if lq0 == 0.0:
            iterated.append(n)
        return _q_steps(params, lq0, n)

    monkeypatch.setattr("gwimm.limits._renewal_table", counting_table)
    monkeypatch.setattr("gwimm.limits._q_steps", counting_steps)
    return built, iterated


def test_sweep_weak_branch_builds_one_renewal_table(monkeypatch):
    # K5 is fitted on a length-10^5 table; a grid ending at 10^5 reuses it,
    # and the q(0) trajectory of the table gives every q_n(0)
    built, iterated = count_tables_and_trajectories(monkeypatch)
    p = LAWS["R5_QUARTER"]
    chk = convergence_sweep(p, "balanced_weak", [1.0], [1000, 10 ** 5])
    assert built == [10 ** 5] and iterated == [10 ** 5]
    assert np.all(np.isfinite(chk.limit))


@pytest.mark.parametrize("scaling", ["by_qn", "by_n_inv_theta"])
def test_exact_transform_without_table_iterates_q0_once(monkeypatch,
                                                        scaling):
    # the table and q_n(0) come from one trajectory, and the value is the
    # one a table from build_renewal gives, bit for bit
    n, s = 3000, 0.7
    want = conditional_laplace_exact(R0, n, s, scaling,
                                     table=build_renewal(R0, n))
    built, iterated = count_tables_and_trajectories(monkeypatch)
    assert conditional_laplace_exact(R0, n, s, scaling) == want
    assert built == [n] and iterated == [n]


def test_sweep_weak_branch_fits_on_its_one_table(monkeypatch):
    # a grid ending below 10^5 still builds one table, of 10^5 terms,
    # and the sweep evaluates every n on it
    built, iterated = count_tables_and_trajectories(monkeypatch)
    p = LAWS["R5_QUARTER"]
    chk = convergence_sweep(p, "balanced_weak", [1.0], [1000, 10 ** 4])
    assert built == [10 ** 5] and iterated == [10 ** 5]
    assert chk.monotone() and np.all(chk.deviations < 0.05)


def test_sweep_grid_validation(monkeypatch):
    forbid_q_work(monkeypatch)
    with pytest.raises(ValueError):
        convergence_sweep(CANON, "balanced_strong", [1.0, 0.5], [10, 100])
    with pytest.raises(ValueError):
        convergence_sweep(CANON, "balanced_strong", [0.5, 1.0], [100, 10])
    with pytest.raises(ValueError):
        convergence_sweep(CANON, "no-such-theorem", [0.5], [10])
    for s_grid, n_grid in (([math.nan, 1.0], [10]), ([-1.0, 1.0], [10]),
                           ([1.0, math.inf], [10]), ([1.0], [0, 10]),
                           ([1.0], [-5]), ([1.0], [1, 10 ** 20]),
                           ([], [10]), ([1.0], [])):
        with pytest.raises(ValueError, match="finite s >= 0 and n >= 1"):
            convergence_sweep(CANON, "balanced_strong", s_grid, n_grid)


def test_sweep_checks_the_regime_before_any_q_work(monkeypatch):
    forbid_q_work(monkeypatch)
    wrong = {"balanced_weak": R0, "balanced_strong": R0,
             "unstopped_balanced": R0, "gamma_balanced": R0,
             "heavy_immigration": CANON, "unstopped_heavy_immigration": CANON,
             "gamma_heavy_immigration": CANON}
    assert set(wrong) == set(THEOREMS)
    for theorem_id, p in wrong.items():
        with pytest.raises(WrongRegimeError):
            convergence_sweep(p, theorem_id, [1.0], [10 ** 6])


@pytest.mark.parametrize("theorem_id, params, trajectories", [
    ("unstopped_balanced", CANON, [1000]),
    ("gamma_balanced", CANON, [1000]),
    ("unstopped_heavy_immigration", R0, []),
    ("gamma_heavy_immigration", R0, [])])
def test_unstopped_sweep_builds_no_renewal_table(monkeypatch, theorem_id,
                                                 params, trajectories):
    # q(0) is iterated once, to the last n, and only for the q_n(0) scale
    built, iterated = count_tables_and_trajectories(monkeypatch)
    chk = convergence_sweep(params, theorem_id, [0.5, 1.0], [100, 1000])
    assert built == [] and iterated == trajectories
    assert chk.monotone()


def test_gamma_weights_beyond_float64_read_inf():
    # sigma = 1024: (1 + 2)^sigma overflows while gamma_k^(0) underflows,
    # so their product used to read nan.  In the log domain the weight at
    # the worst k is e^113, as a 50-digit evaluation gives it, and at
    # kappa2 = 4994 it is beyond float64 and reads inf
    mpmath = pytest.importorskip("mpmath")
    p = LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 512.0)
    n, s = 40, 2.0
    chk = convergence_sweep(p, "gamma_balanced", [0.0, s], [n])
    assert chk.computed[0, 0] == 1.0 and chk.deviations[0, 0] == 0.0
    with mpmath.workdps(50):
        k1, k2 = mpmath.mpf(p.kappa1), mpmath.mpf(p.kappa2)
        qn = mpmath.mpf(1)
        for _ in range(n):
            qn *= 1 - k1 * qn
        q, log_g0, weights = 1 - mpmath.exp(-s * qn), 0, []
        for k in map(mpmath.mpf, range(n + 1)):
            weights.append(mpmath.exp(k2 / k1 * mpmath.log1p(k * s / n)
                                      + log_g0))
            log_g0, q = log_g0 - k2 * q, q * (1 - k1 * q)
        want = float(max(weights, key=lambda w: abs(w - 1)))
    assert chk.computed[0, 1] == pytest.approx(want, rel=1e-11)
    big = convergence_sweep(dataclasses.replace(p, kappa2=4994.0),
                            "gamma_balanced", [0.5, 1.0], [20, 40])
    assert np.isinf(big.deviations[0]).all()
    assert not big.monotone()


@pytest.mark.parametrize("theorem_id, theta", [("gamma_balanced", 1.0),
                                               ("gamma_heavy_immigration",
                                                0.5)])
def test_gamma_sweep_holds_no_nan_where_kappa2_s_k_passes_float_max(
        theorem_id, theta):
    # kappa2 * S_k beyond float64 casts to -inf, and sigma to inf: the log
    # weight kappa2 * (a_k - S_k) never meets inf - inf
    p = LawParams(1.0, theta, 1.0, 1.0, 0.5, 1.7e308)
    chk = convergence_sweep(p, theorem_id, [0.0, 0.5, 1.0], [20, 40])
    assert not np.isnan(chk.computed).any()
    assert not np.isnan(chk.deviations).any()
    assert (chk.computed[:, 0] == 1.0).all()


def test_limitcheck_monotone_flag():
    base = dict(theorem_id="x", s_grid=np.array([1.0]),
                n_grid=np.array([1, 2]), computed=np.zeros((2, 1)),
                limit=np.zeros(1))
    good = LimitCheck(deviations=np.array([[0.2], [0.1]]), **base)
    bad = LimitCheck(deviations=np.array([[0.1], [0.2]]), **base)
    assert good.monotone()
    assert not bad.monotone()
    for dev in ([math.inf], [math.inf]), ([0.2], [math.nan]):
        assert not LimitCheck(deviations=np.array(dev), **base).monotone()


# ---------------------------------------------------------------------------
# small nu and theta, large n: scales far below float64 resolution


def test_balanced_sweep_converges_where_q_n_is_below_resolution():
    # q_n(0) ~ 1e-17 at n = 10^6, where 1 - exp(-s*q_n(0)) rounds to 0
    p = LawParams(0.3, 0.3, 0.3, 1.0, 0.5, 0.3)          # sigma = 2
    chk = convergence_sweep(p, "balanced_strong", [0.5, 1.0, 2.0],
                            [10 ** 4, 10 ** 5, 10 ** 6])
    worst = chk.deviations.max(axis=1)
    assert chk.monotone() and worst[-1] < worst[-2]
    assert np.all(chk.computed < 1.0)


@pytest.mark.parametrize("theta", [0.3, 0.25])
def test_heavy_sweep_converges_where_the_scale_is_below_resolution(theta):
    # n^(-1/theta) = 1e-16 already at n = 10^4 for theta = 0.25
    p = LawParams(0.6, theta, 0.6, 1.0, 0.5, 0.5)
    chk = convergence_sweep(p, "heavy_immigration", [0.5, 1.0, 2.0],
                            [10 ** 3, 10 ** 4, 10 ** 5])
    worst = chk.deviations.max(axis=1)
    assert chk.monotone() and worst[-1] < worst[-2]
    assert np.all(chk.computed < 1.0)


@pytest.mark.parametrize("nu", [0.01, 0.005])
def test_gamma_asymptotics_where_q_underflows(nu):
    # q_n(0) = exp(-852) and exp(-1565) at n = 10^6, below every float64
    p = LawParams(nu, nu / 2, nu / 2, 1.0, 0.5, 0.5)
    assert gamma_asymptotics(p, 10 ** 6).rel_error < 1e-2


SMALL = st.floats(min_value=1e-3, max_value=1.0)
UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@settings(max_examples=100, deadline=None)
@given(a=SMALL, b=SMALL, delta=SMALL, kappa0=UNIT, frac=UNIT,
       k=st.floats(min_value=0.05, max_value=5.0),
       n=st.integers(min_value=50, max_value=3000),
       s=st.floats(min_value=0.01, max_value=4.0),
       r=st.floats(min_value=1.0, max_value=2.5), balanced=st.booleans())
# q_n(0) = exp(-916) and n^(-1/theta) = 1e-27: both read as 0 in float64
@example(a=1e-3, b=1.0, delta=1.0, kappa0=1.0, frac=1.0, k=1.0, n=3000,
         s=1.0, r=2.0, balanced=True)
@example(a=0.0625, b=1.0, delta=1.0, kappa0=1.0, frac=1.0, k=1.0, n=50,
         s=1.0, r=1.0, balanced=False)
def test_conditional_transform_is_a_transform_over_the_box(
        a, b, delta, kappa0, frac, k, n, s, r, balanced):
    # the laws of the two conditional limit theorems, each under its own
    # scaling: theta = nu = a with sigma = k, and theta = a < nu = b with
    # kappa2 = 0.4*k.  For s > 0 the transform lies in (0, 1) and does not
    # increase in s.  It is formed as 1 minus a sum, so n >= 50, s*r <= 10
    # and delta >= 1e-3 keep it clear of 0 and 1 by more than its roundoff
    nu, theta = (a, a) if balanced else (b, a)
    assume(balanced or a < b - 1e-9)
    kappa1 = frac / (1.0 + nu)
    assume(kappa1 * nu >= sys.float_info.min)
    kappa2 = k * kappa1 * nu if balanced else 0.4 * k
    p = LawParams(nu, theta, delta, kappa0, kappa1, kappa2)
    scaling = "by_qn" if balanced else "by_n_inv_theta"
    table = build_renewal(p, n)
    e1 = conditional_laplace_exact(p, n, s, scaling, table)
    e2 = conditional_laplace_exact(p, n, s * r, scaling, table)
    assert 0.0 < e2 <= e1 + 1e-12 and e1 < 1.0
