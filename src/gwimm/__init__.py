"""Critical Galton-Watson processes with heavy-tailed immigration,
stopped at their first zero.

Library layout:

    laws      exact offspring / immigration / initial laws and samplers
    pgf       generating-function iteration q_n and its convergence gauges
    simulate  exact stochastic simulation of the three model variants
    renewal   survival sequence u_n, truncated-state DP oracle, regimes
    limits    finite-n evaluation of the limit statements
    cli       command-line front end
"""

from .errors import (CapTooSmallError, DegenerateConditioningError,
                     DegenerateThetaError, GwimmError,
                     InsufficientLengthError, MissingConstantError,
                     MissingRenewalError, NonPmfError, OutOfRangeError,
                     TolUnreachableError, WrongRegimeError)
from .laws import (LawParams, PmfTable, immigration_pgf, immigration_pmf,
                   initial_pgf, initial_pmf, offspring_mean_tail,
                   offspring_pgf, offspring_pmf, sample_immigration,
                   sample_initial, sample_offspring, sample_sibuya,
                   stable_positive)
from .pgf import (GammaSequence, epsilon_term, gamma_sequences, h_n,
                  q_iterate, rate_gap)
from .simulate import (BatchStats, Model, Trajectory, estimate_survival,
                       simulate)
from .renewal import (DpDistribution, GammaReport, RegimeReport, RenewalTable,
                      build_renewal, classify_regime, dp_distribution,
                      fit_tail, gamma_asymptotics, u_dp_curve)
from .limits import (THEOREMS, LimitCheck, conditional_laplace_exact,
                     convergence_sweep, lambda_limit, limit_balanced_strong,
                     limit_laplace_heavy_imm, stationary_pgf)
from .rng import stream

__version__ = "0.1.0"
