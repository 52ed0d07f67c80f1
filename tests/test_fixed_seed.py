"""Fixed-seed digests of the Monte Carlo engine and the samplers.

Each digest is the first 16 hex digits of the SHA-256 of the int64 bytes
of an output.  They pin the exact draws, so a change of the sampling
kernels that keeps every law but moves a draw shows up here.  Populations
at or below 256, the range of the sum table, draw their offspring sums
from one of its rows; at nu < 1 those up to 4096 sum one row per 256
individuals, and larger ones, or at nu = 1 those above 256, take the
multinomial split.  At nu = theta = 1 (R3) the table's rows fold the
Poisson immigrants in, so one uniform draws a whole generation of a
replicate; `test_nu1_table_sums_digest` pins the offspring sums alone,
from the table without immigrants.  At nu < 1 a
binomial first counts the individuals in the tail cell X >= 8, the table
sums the others given X < 8, and the tail ones are drawn one by one;
`test_fractional_table_sums_digest` pins that route alone.
`test_nu1_crossing_survival_digest` pins nu = 1 laws whose populations
cross 256: with theta < 1 nothing is folded, so the small populations
draw their offspring sums from the table and their immigrants apart; at
theta = 1 the small ones fold and the large ones draw both apart.
"""

import hashlib
import importlib

import numpy as np
import pytest

from gwimm.laws import LawParams, sample_offspring, sample_sibuya
from gwimm.rng import stream
from gwimm.simulate import estimate_survival, simulate

sim = importlib.import_module("gwimm.simulate")

MIXED = LawParams(0.5, 0.5, 0.5, 0.8, 0.5, 0.7)
HALF = LawParams(0.5, 1.0, 0.7, 0.9, 0.4, 0.5)     # nu < 1, theta = 1
R3 = LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 0.25)
NU1_HEAVY = LawParams(1.0, 0.5, 0.5, 0.8, 0.5, 0.7)     # nu = 1, theta < 1
NU1_WIDE = LawParams(1.0, 1.0, 0.5, 0.8, 0.5, 2.0)      # folded, delta < 1


def digest(a) -> str:
    a = np.ascontiguousarray(a, dtype=np.int64)
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


def survival_digest(params, model, horizon, **kw) -> str:
    bs = estimate_survival(params, model, horizon, 20_000, seed=7, **kw)
    return digest(np.concatenate([bs.survival_counts, bs.censored_counts]))


@pytest.mark.parametrize("params, model, want", [
    (MIXED, "z", "2f4fb54e38c27d7c"),
    (MIXED, "stopped", "b22a202e5b8c208a"),
    (MIXED, "gated", "e7390967892f04f0"),
    (HALF, "z", "1d7255f49b1d88af"),
    (HALF, "stopped", "56dbdecdf6ac36fd"),
    (HALF, "gated", "ab7d9a35819928bc"),
])
def test_survival_counts_digest(params, model, want):
    assert survival_digest(params, model, 10, cap=10 ** 4) == want


@pytest.mark.parametrize("params, model, want", [
    (NU1_HEAVY, "z", "fe5e9b4184fcd80c"),
    (NU1_HEAVY, "stopped", "6eefeff43b609415"),
    (NU1_HEAVY, "gated", "fc9fa9d434623d09"),
    (NU1_WIDE, "z", "9749628f680d5efd"),
    (NU1_WIDE, "stopped", "cae55144f83cf48f"),
    (NU1_WIDE, "gated", "cb41ca914f322220"),
])
def test_nu1_crossing_survival_digest(params, model, want):
    assert survival_digest(params, model, 10, cap=10 ** 4) == want


def test_r3_survival_counts_digest():
    assert survival_digest(R3, "stopped", 30) == "0deed9fdd80471a0"


def test_life_period_z_digest():
    # the "no zero so far" row: the only one where z differs from survival
    bs = estimate_survival(MIXED, "z", reps=20_000, horizon=10, seed=7,
                           cap=10 ** 4)
    assert digest(np.concatenate([bs.life_counts,
                                  bs.censored_counts])) == "1de91bbed66f89aa"


def laplace_digest(model):
    bs = estimate_survival(MIXED, model, 5, 20_000, seed=3, cap=10 ** 4,
                           scale=0.1)
    value, se = bs.conditional_laplace()
    return value.hex(), se.hex(), int(bs.survival_counts[-1]), bs.censored


def test_conditional_laplace_mc_digest():
    assert laplace_digest("stopped") == (
        "0x1.bbbf8ea216acap-3", "0x1.54c38b30ef2e8p-9", 11647, 345)


@pytest.mark.parametrize("model, want", [
    ("z", ("0x1.1657a91a0b0c3p-2", "0x1.2cb99b6ba4d59p-9", 18506, 488)),
    ("gated", ("0x1.7f499535817d2p-3", "0x1.6d19d4488f44cp-9", 8619, 269)),
])
def test_conditional_laplace_mc_censored_digest(model, want):
    # the Laplace sums run over cap-censored survivors too
    assert laplace_digest(model) == want


@pytest.mark.parametrize("params, model, want", [
    (MIXED, "z", "8ab22d5bde43dd54"),
    (MIXED, "stopped", "f91f22745a0de5ff"),
    (MIXED, "gated", "2f19b81de5cc3048"),
    (R3, "z", "f3cf369fb9c54160"),
    (R3, "stopped", "93679b221d1cb4c2"),
    (R3, "gated", "3f06ff43ea0b1439"),
])
def test_simulate_paths_digest(params, model, want):
    # cap 50 censors most MIXED paths; R3 paths are mostly absorbed
    paths = [simulate(params, model, 40, cap=50, rng=stream(s, 5)).values
             for s in range(20)]
    assert digest(np.concatenate(paths)) == want


@pytest.mark.parametrize("nu, kappa1, lowest, want", [
    (0.5, 0.5, 0, "a83756af9d8d6ae5"),
    (0.5, 0.5, 1, "e606f4142ae8171d"),
    (0.5, 0.5, 2, "f997b4838586bb44"),
    (0.5, 0.5, 32, "ff0c1bde302f1f14"),
    (0.95, 0.5, 0, "9080d5ca59039c62"),
    (0.95, 0.5, 1, "5c79a10e836d1740"),
    (0.95, 0.5, 2, "f7a7300535d7e6f3"),
    (0.95, 0.5, 32, "f8710b0aa4284f5d"),
    (0.3, 0.1, 0, "bf5a526a9b9ffddc"),
    (0.3, 0.1, 1, "e2f503ea325fd7a4"),
    (0.3, 0.1, 2, "d9ef6e838d6364fa"),
    (0.3, 0.1, 32, "0abf39516e6b9e71"),
    (0.999999, 1e-6, 0, "b7725ede84151c53"),
    (0.999999, 1e-6, 1, "b7725ede84151c53"),
    (0.999999, 1e-6, 2, "128c8574bb9b6ebe"),
    (1.0, 0.3, 0, "0ee0c8f9c20ce1cb"),
    (1.0, 0.3, 1, "52bddedd3e468d1f"),
    (1.0, 0.3, 2, "128c8574bb9b6ebe"),
])
def test_sample_offspring_digest(nu, kappa1, lowest, want):
    p = LawParams(nu, 1.0, 1.0, 1.0, kappa1, 1.0)
    draws = sample_offspring(p, stream(5, lowest), 50_000, lowest=lowest)
    assert digest(draws) == want


@pytest.mark.parametrize("delta, want", [
    (0.05, "05f762775e27caab"),
    (0.5, "bffee29cbd4b92e8"),
    (1.0, "b7725ede84151c53"),
])
def test_sample_sibuya_digest(delta, want):
    assert digest(sample_sibuya(delta, stream(9, 0), 50_000)) == want


def test_nu1_table_sums_digest():
    p = LawParams(1.0, 1.0, 1.0, 1.0, 0.3, 1.0)
    pops = np.arange(1, 257).repeat(50)
    sums = sim._offspring_sums(p, [stream(4, 0)], [0, len(pops)], pops)
    assert digest(sums) == "0b73ea1ee5dce33b"


def test_fractional_table_sums_digest():
    p = LawParams(0.5, 1.0, 1.0, 1.0, 0.5, 1.0)
    pops = np.arange(1, 257).repeat(50)
    sums = sim._offspring_sums(p, [stream(4, 0)], [0, len(pops)], pops)
    assert digest(sums) == "515a83e87231f8bd"
