"""Helpers shared by the test modules."""

import math

import numpy as np

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
