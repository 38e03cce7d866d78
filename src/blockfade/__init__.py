"""Seeded block-fading channel simulator for multiuser massive MIMO.

Per resource block the channel is a sum over scatterer clusters of a
deterministic spatial mean matrix and a spread-scaled, RB-correlated
complex Gaussian matrix.  The package generates the channel and the
statistics used to validate it: coefficient histograms, user
cross-correlation, Gram-matrix eigenvalue CDFs and power-along-array
profiles.
"""

__version__ = "0.1.0"

from .analytics import (EmpiricalCDF, GramStats, Histogram2D, UserCorrelationMatrix,
                        coefficient_histogram, eigenvalues_hermitian, empirical_cdf,
                        gram, power_profile)
from .assembly import assemble_channel
from .errors import ConfigError, NumericalError
from .model import (RANDOM_DIRECTION, ArrayGeometry, ClusterSpec, ResourceGrid,
                    SpatialPair, UserSpec, build_spatial_pair, phase_ramp)
from .scenario import (ReportBundle, ScenarioConfig, expand_preset, parse_config,
                       run_scenario)
from .stochastic import (CorrelationSpec, build_covariance, cholesky_psd,
                         sample_q_block, substream)

__all__ = [
    "ArrayGeometry", "ClusterSpec", "ConfigError", "CorrelationSpec",
    "EmpiricalCDF", "GramStats", "Histogram2D", "NumericalError",
    "RANDOM_DIRECTION", "ReportBundle", "ResourceGrid", "ScenarioConfig",
    "SpatialPair", "UserCorrelationMatrix", "UserSpec",
    "assemble_channel", "build_covariance", "build_spatial_pair",
    "cholesky_psd", "coefficient_histogram", "eigenvalues_hermitian",
    "empirical_cdf", "expand_preset", "gram", "parse_config", "phase_ramp",
    "power_profile", "run_scenario", "sample_q_block", "substream",
]
