"""Remote state estimation over a noisy additive channel.

A sensor watching an i.i.d. Laplace source pays a fixed cost per
transmission; transmitted values are affine-encoded under a power budget,
corrupted by additive gamma noise, and decoded with the help of a noiseless
sign side channel.  This package provides the threshold/affine policies,
their closed-form expected costs, characteristic-function matching checks,
and a reproducible Monte Carlo simulator that ties everything together.
"""

from .analytics import (
    CostBreakdown,
    cost_closed_form,
    cost_derivative,
    numeric_argmin,
    optimal_threshold,
)
from .distributions import (
    ExponentialDist,
    GammaDist,
    LaplaceDist,
    RngHandle,
    char_fn,
    empirical_char_fn,
    sample_exponential,
    sample_gamma,
    sample_laplace,
)
from .matching import (
    CfResidualReport,
    Pair,
    check_matching,
    check_matching_empirical,
    pair,
)
from .simulator import (
    ConditionalStats,
    EpisodeTrace,
    MonteCarloEstimate,
    StationarityReport,
    estimate_conditional_stats,
    estimate_cost,
    run_episode,
    stationarity_check,
)
from .strategies import SystemParams, ThresholdAffineStrategy

__version__ = "0.1.0"
