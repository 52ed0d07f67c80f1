"""The benchmark's three workloads.

Each one loads a different layer of gwimm heavily and leaves the others
almost idle, so a change to one layer shows a gain on one workload and a
predicted "no change" on another:

mc_mixed      Monte Carlo engine and samplers.  nu < 1 sends every
              individual through `laws.sample_offspring`, theta < 1 uses
              the stable-mixture immigration sampler, delta < 1 the heavy
              initial law with cap censoring; two threads.  No exact-route
              calls are timed.
survival_r3   the three calls `gwimm survival` makes on regime R3: renewal
              at n = 50, the truncated-state DP at M = 4096 and the nu = 1
              binomial-split Monte Carlo on one thread.  The offspring
              sampler is never called and no thread pool is used.
long_horizon  the calls `gwimm regime` and `gwimm limits` make at desk
              scale: the FFT renewal solver and q-iteration at n = 1e6,
              tail fits, two convergence sweeps whose points each iterate
              q again, and the gamma asymptotics.  No Monte Carlo, no DP.

A workload pass is one operation.  `run(seed)` returns the stage times
and the outputs; `check(out, ref)` returns the failed output checks and
the certificates and known-defect counts read from the outputs.  The
checks use the tolerances of the matching acceptance criteria (1, 5 and
7), except that Monte Carlo bounds are set by `mc_radius` at a fixed
false-alarm rate.  `mc_counts(out)` gives the survival counts that the
runner also pools over all passes of a run and checks once more, which
resolves a bias sqrt(passes) times smaller than one pass can.
"""

from __future__ import annotations

import importlib
import math
import time

import numpy as np

from gwimm.laws import LawParams

laws = importlib.import_module("gwimm.laws")
renewal = importlib.import_module("gwimm.renewal")
simulate = importlib.import_module("gwimm.simulate")
limits = importlib.import_module("gwimm.limits")
rng = importlib.import_module("gwimm.rng")

MIXED = LawParams(0.5, 0.5, 0.5, 0.8, 0.5, 0.7)
R0 = LawParams(1.0, 0.5, 1.0, 1.0, 0.5, 1.0)
R3 = LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 0.25)

# Per-comparison false-alarm rate of every Monte Carlo bound.  A run makes
# at most a few thousand comparisons, and a full benchmark campaign fewer
# than 1e5, so a correct program fails a check with probability below
# 1e-5 per campaign (union bound).
MC_ALPHA = 1e-10


def mc_radius(p, reps: int):
    """Half-width t with P(|p_hat - p| >= t) <= MC_ALPHA (Bernstein).

    p_hat is a mean of `reps` Bernoulli(p) indicators.  Solving
    2 exp(-reps t^2 / (2 (p(1-p) + t/3))) = MC_ALPHA for t gives a bound
    that is rigorous at every p, including p = 0 and p = 1.
    """
    L = math.log(2.0 / MC_ALPHA)
    var = np.asarray(p, dtype=float) * (1.0 - np.asarray(p, dtype=float))
    return (L / 3.0 + np.sqrt((L / 3.0) ** 2 + 2.0 * reps * L * var)) / reps


def mc_fails(counts: dict, reps: int, exact: dict, order=()) -> list:
    """Monte Carlo output checks on survival counts of `reps` replicates.

    Each estimate with a known value (`exact`, per generation) must lie
    within `mc_radius` of it.  For each (hi, lo) in `order` the true
    curves satisfy hi >= lo; their values are unknown, so the estimate of
    lo may exceed that of hi by at most twice the worst-case radius.
    """
    est = {name: np.asarray(c) / reps for name, c in counts.items()}
    fails = []
    for name, p in exact.items():
        margin = np.abs(est[name] - p) / mc_radius(p, reps)
        if np.any(margin > 1.0):
            fails.append(f"{name} vs exact survival: margin "
                         f"{margin.max():.3f} at {reps} replicates")
    slack = 2.0 * mc_radius(0.5, reps)
    for hi, lo in order:
        short = float(np.max(est[lo] - est[hi]))
        if short > slack:
            fails.append(f"ordering {hi} >= {lo}: shortfall {short:.4f} > "
                         f"{slack:.4f} at {reps} replicates")
    return fails


def z_max(counts, reps: int, p) -> float:
    """Largest |estimate - p| in standard deviations of the estimate."""
    sd = np.sqrt(p * (1.0 - p) / reps)
    return float(np.max(np.abs(counts / reps - p) / np.where(sd > 0, sd, 1)))


def pass_seed(seed: int, i: int) -> int:
    """Seed of pass i: every pass runs a fresh job, fixed by --seed."""
    return seed * 1_000_003 + i


def _timed(stages: dict, name: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    stages[name] = stages.get(name, 0.0) + time.perf_counter() - t0
    return out


class McMixed:
    name = "mc_mixed"
    params = MIXED
    models = ("z", "stopped", "gated")
    horizon = 10
    cap = 10 ** 4
    reps = 4 * simulate.BLOCK      # two blocks per thread, handed out
                                   # as threads free up
    threads = 2
    # z >= stopped >= gated: immigration can revive z, and the gated chain
    # admits immigrants only after a generation with offspring
    order = (("z", "stopped"), ("stopped", "gated"))
    mc_comparisons = 3 * (horizon + 1)     # per check

    def warm(self) -> None:
        g = rng.stream(0, 0)
        laws.sample_offspring(self.params, g, 1)
        laws.sample_sibuya(self.params.delta, g, 1)

    def reference(self) -> dict:
        # survival of the stopped chain is kappa0 * u_n; a cap-censored
        # replicate (population above 1e4) counts as alive, and the chance
        # that such a population dies out within 10 generations is below
        # 2^-10000, far under the Monte Carlo bound
        u = renewal.build_renewal(self.params, self.horizon).u
        return {"stopped": self.params.kappa0 * u}

    def job(self, seed: int, threads: int) -> dict:
        return {m: simulate.estimate_survival(
                    self.params, m, self.horizon, self.reps, seed,
                    threads=threads, cap=self.cap)
                for m in self.models}

    def run(self, seed: int):
        stages = {}
        out = _timed(stages, "mc", self.job, seed, self.threads)
        return stages, out

    def rates(self, stages: dict) -> dict:
        work = len(self.models) * self.reps * self.horizon
        return {"mc_rep_gens_per_s": work / stages["mc"]}

    def mc_counts(self, out: dict) -> dict:
        return {m: out[m].survival_counts for m in self.models}

    def check(self, out: dict, ref: dict):
        counts = self.mc_counts(out)
        fails = mc_fails(counts, self.reps, ref, self.order)
        censored = sum(out[m].censored for m in self.models)
        stats = {
            "simulate.censored_ratio":
                censored / (len(self.models) * self.reps),
            "simulate.z_max": z_max(counts["stopped"], self.reps,
                                    ref["stopped"]),
        }
        return fails, stats

    def thread_check(self, seed: int, out: dict):
        """Repeat a finished job on one thread, then on `threads` threads:
        the survival and censoring counts of both must be byte-identical
        to the finished job's.  Returns the failures and the one-thread
        time over the threaded time of the adjacent repeats."""
        fails, seconds = [], {}
        for threads in (1, self.threads):
            t0 = time.perf_counter()
            again = self.job(seed, threads)
            seconds[threads] = time.perf_counter() - t0
            fails += [f"{m}: counts differ on {threads} thread(s)"
                      for m in self.models
                      if again[m].survival_counts.tobytes()
                      != out[m].survival_counts.tobytes()
                      or again[m].censored_counts.tobytes()
                      != out[m].censored_counts.tobytes()]
        return fails, seconds[1] / seconds[self.threads]


class SurvivalR3:
    name = "survival_r3"
    params = R3
    horizon = 50
    M = 4096
    reps = 10 ** 6
    threads = 1
    order = ()
    mc_comparisons = horizon + 1

    def warm(self) -> None:
        laws.sample_sibuya(self.params.delta, rng.stream(0, 0), 1)
        for pmf in (laws.offspring_pmf, laws.immigration_pmf,
                    laws.initial_pmf):
            pmf(self.params, self.M)

    def reference(self) -> dict:
        u = renewal.build_renewal(self.params, self.horizon).u
        return {"stopped": self.params.kappa0 * u}

    def run(self, seed: int):
        p, n = self.params, self.horizon
        stages = {}
        rt = _timed(stages, "renewal", renewal.build_renewal, p, n)
        lo, hi, dist = _timed(stages, "dp", renewal.u_dp_curve,
                              p, "stopped", n, M=self.M)
        bs = _timed(stages, "mc", simulate.estimate_survival,
                    p, "stopped", n, self.reps, seed, threads=self.threads)
        return stages, {"u": rt.u, "lo": lo, "hi": hi, "dist": dist,
                        "mc": bs}

    def rates(self, stages: dict) -> dict:
        return {"dp_gens_per_s": self.horizon / stages["dp"],
                "mc_rep_gens_per_s":
                    self.reps * self.horizon / stages["mc"]}

    def mc_counts(self, out: dict) -> dict:
        return {"stopped": out["mc"].survival_counts}

    def check(self, out: dict, ref: dict):
        u, lo, hi, dist = out["u"], out["lo"], out["hi"], out["dist"]
        counts = self.mc_counts(out)
        fails = mc_fails(counts, self.reps, ref)
        pad = 1e-9 + dist.alias_bound
        if np.any(u < lo - pad) or np.any(u > hi + pad):
            fails.append("renewal u outside the padded DP bracket")
        # known defect: the brackets ignore FFT roundoff, so without the
        # 1e-9 pad the renewal value falls outside them at most generations
        excess = np.maximum(lo - u, u - hi)
        stats = {
            "renewal.dp.bracket_violations": int(np.count_nonzero(excess > 0)),
            "renewal.dp.bracket_excess_max": float(max(excess.max(), 0.0)),
            "renewal.dp.lost_mass": float(dist.lost_mass[-1]),
            "renewal.dp.alias_bound": float(dist.alias_bound),
            "simulate.censored_ratio": out["mc"].censored / self.reps,
            "simulate.z_max": z_max(counts["stopped"], self.reps,
                                    ref["stopped"]),
        }
        return fails, stats


class LongHorizon:
    name = "long_horizon"
    n_max = 10 ** 6
    regimes = (("R0", R0), ("R3", R3))
    s_grid = (0.5, 1.0, 2.0)
    n_grid = (10 ** 3, 10 ** 4, 10 ** 5)
    sweeps = (("heavy_immigration", LawParams(1.0, 0.5, 1.0, 1.0, 0.5, 1.0)),
              ("balanced_weak", LawParams(1.0, 1.0, 0.25, 1.0, 0.5, 0.25)))
    gamma_params = LawParams(1.0, 0.5, 1.0, 1.0, 0.5, 1.0)
    order = ()
    mc_comparisons = 0

    def warm(self) -> None:
        """No lazily cached tables on this workload's path."""

    def reference(self) -> dict:
        return {}

    def run(self, seed: int):
        # the exact routes take no random input, so the seed leaves the
        # job unchanged
        stages = {}
        curves = {}
        for rid, p in self.regimes:
            rep = _timed(stages, "classify", renewal.classify_regime, p)
            u = _timed(stages, "renewal", renewal.build_renewal,
                       p, self.n_max).u
            fit = _timed(stages, "fit", renewal.fit_tail, u, rep)
            curves[rid] = (rep, u, fit)
        sweeps = [_timed(stages, "limits", limits.convergence_sweep,
                         p, tid, self.s_grid, self.n_grid)
                  for tid, p in self.sweeps]
        gamma = _timed(stages, "gamma", renewal.gamma_asymptotics,
                       self.gamma_params, self.n_max)
        return stages, {"curves": curves, "sweeps": sweeps, "gamma": gamma}

    def rates(self, stages: dict) -> dict:
        terms = len(self.regimes) * (self.n_max + 1)
        return {"renewal_terms_per_s": terms / stages["renewal"]}

    def mc_counts(self, out: dict) -> dict:
        return {}

    def check(self, out: dict, ref: dict):
        fails = []
        increases = above_one = 0
        for rid, (rep, u, fit) in out["curves"].items():
            if rep.regime_id != rid:
                fails.append(f"{rid}: classified as {rep.regime_id}")
            if rid == "R0":
                ratio = float(u[-1] / u[(len(u) - 1) // 10])
                if not ratio > 0.99:
                    fails.append(f"R0 decade ratio {ratio:.5f} <= 0.99")
            elif abs(fit.fitted_alpha - fit.alpha) >= 0.05:
                fails.append(f"{rid}: exponent error "
                             f"{abs(fit.fitted_alpha - fit.alpha):.4f}")
            # known defect: the FFT route returns a non-monotone u for R0
            increases += int(np.count_nonzero(np.diff(u) > 0.0))
            above_one += int(np.count_nonzero(u > 1.0))
        for chk in out["sweeps"]:
            final = float(chk.deviations[-1].max())
            if not chk.monotone():
                fails.append(f"{chk.theorem_id}: monotone=no")
            if not final < 5e-2:
                fails.append(f"{chk.theorem_id}: final deviation {final:.3e}")
        gamma = out["gamma"]
        if not gamma.rel_error < 0.05:
            fails.append(f"gamma_asymptotics rel_error {gamma.rel_error:.3e}")
        stats = {
            "renewal.u_increases": increases,
            "renewal.u_above_one": above_one,
        }
        return fails, stats


WORKLOADS = {w.name: w for w in (McMixed(), SurvivalR3(), LongHorizon())}
