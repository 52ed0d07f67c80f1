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
}
CANON, MIXED, R0, R3, FRAC = LAWS.values()

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
