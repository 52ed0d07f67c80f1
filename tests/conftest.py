"""Helpers shared by the test modules."""

import math

import numpy as np

from gwimm.laws import LawParams

# The reference laws, by name (nu, theta, delta, kappa0, kappa1, kappa2).
# A test module imports the ones it reads; `gwimm.cli` and
# `perfbench/workloads.py` keep their own few under these names, and no
# name binds two laws across them (tests/test_layering.py).
LAWS = {
    "CANON": LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 1.0),    # R1, sigma = 2
    "MIXED": LawParams(0.5, 0.5, 0.5, 0.8, 0.5, 0.7),    # nu, theta, delta < 1
    "R0": LawParams(1.0, 0.5, 1.0, 1.0, 0.5, 1.0),       # theta < nu
    "R3": LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 0.25),      # sigma = 1/2
    "FRAC": LawParams(0.95, 1.0, 0.9, 0.5, 0.5, 0.3),    # R6, nu < theta
    # the rest of the acceptance grids' regimes
    "R0_EDGE": LawParams(1.0, 0.9, 1.0, 1.0, 0.5, 0.1),  # theta = 0.9 nu
    "R2": LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 0.5),       # sigma = 1
    "R4": LawParams(1.0, 1.0, 0.875, 0.8, 0.5, 0.0625),  # sigma + delta = 1
    "R5": LawParams(1.0, 1.0, 0.8, 0.6, 0.5, 0.05),      # sigma + delta < 1
    "R5_QUARTER": LawParams(1.0, 1.0, 0.25, 1.0, 0.5, 0.25),  # delta = 1/4
    "R6_HALF": LawParams(0.5, 1.0, 0.25, 0.5, 0.5, 0.5),  # delta/nu = 1/2
    # laws whose renewal weights are exact zeros early: from k = 1,209
    # and from k = 13
    "R0_STEEP": LawParams(1.0, 0.5, 1.0, 1.0, 0.5, 8.0),
    "R1_STEEP": LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 200.0),
}
CANON, MIXED, R0, R3, FRAC = (LAWS[name] for name in
                              ("CANON", "MIXED", "R0", "R3", "FRAC"))

# per-comparison false-alarm rate of the Monte Carlo properties: each
# states how many comparisons a run makes, so a union bound gives the
# chance that a correct sampler fails it
MC_ALPHA = 1e-10


def mc_radius(p, n: int):
    """Half-width t with P(|p_hat - p| >= t) <= MC_ALPHA for a mean p_hat
    of n Bernoulli(p) indicators (Bernstein), rigorous at every p."""
    L = math.log(2.0 / MC_ALPHA)
    var = p * (1.0 - p)
    return (L / 3.0 + np.sqrt((L / 3.0) ** 2 + 2.0 * n * L * var)) / n
