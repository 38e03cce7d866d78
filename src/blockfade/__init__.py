"""Seeded block-fading channel simulator for multiuser massive MIMO.

Per resource block the channel is a sum over scatterer clusters of a
deterministic spatial mean matrix and a spread-scaled, RB-correlated
complex Gaussian matrix.  The package generates the channel and the
statistics used to validate it: coefficient histograms, user
cross-correlation, Gram-matrix eigenvalue CDFs and power-along-array
profiles.  ``run_scenario`` is the entry point; with the ``raw-channel``
output it returns the channels themselves.
"""

__version__ = "0.1.0"

from .analytics import (coefficient_histogram, eigenvalues_hermitian, empirical_cdf, gram,
                        power_profile)
from .errors import ConfigError, NumericalError
from .model import RANDOM_DIRECTION, ArrayGeometry, ClusterSpec, ResourceGrid, UserSpec
from .scenario import (ReportBundle, ScenarioConfig, expand_preset, parse_config,
                       run_scenario)
from .stochastic import CorrelationSpec, build_covariance, cholesky_psd, substream

__all__ = [
    "ArrayGeometry", "ClusterSpec", "ConfigError", "CorrelationSpec", "NumericalError",
    "RANDOM_DIRECTION", "ReportBundle", "ResourceGrid", "ScenarioConfig", "UserSpec",
    "build_covariance", "cholesky_psd", "coefficient_histogram", "eigenvalues_hermitian",
    "empirical_cdf", "expand_preset", "gram", "parse_config", "power_profile",
    "run_scenario", "substream",
]
