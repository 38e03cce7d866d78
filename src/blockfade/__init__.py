"""Seeded block-fading channel simulator for multiuser massive MIMO.

Per resource block the channel is a sum over scatterer clusters of a
deterministic spatial mean matrix and a spread-scaled, RB-correlated
complex Gaussian matrix.  The package generates the channel, the uplink
frames it carries, and the statistics used to validate it: coefficient
histograms, user cross-correlation, Gram-matrix eigenvalue CDFs and
power-along-array profiles.
"""

__version__ = "0.1.0"

from .analytics import (EmpiricalCDF, GramStats, Histogram2D, UserCorrelationMatrix,
                        coefficient_histogram, eigenvalues_hermitian, empirical_cdf,
                        gram, offdiag_exceedance, power_profile, user_correlation)
from .assembly import (ChannelBlock, UplinkFrame, assemble_channel, qpsk_symbols,
                       synthesize_uplink)
from .errors import ConfigError, NumericalError
from .model import (RANDOM_DIRECTION, ArrayGeometry, ClusterSpec, ResourceGrid,
                    SpatialPair, UserSpec, build_spatial_pair, draw_direction,
                    phase_ramp)
from .scenario import (ReportBundle, ScenarioConfig, expand_preset, parse_config,
                       run_scenario)
from .stochastic import (CorrelationSpec, build_covariance, cholesky_psd,
                         complex_normal, sample_q_block, substream)

__all__ = [
    "ArrayGeometry", "ChannelBlock", "ClusterSpec", "ConfigError", "CorrelationSpec",
    "EmpiricalCDF", "GramStats", "Histogram2D", "NumericalError",
    "RANDOM_DIRECTION", "ReportBundle", "ResourceGrid", "ScenarioConfig",
    "SpatialPair", "UplinkFrame", "UserCorrelationMatrix", "UserSpec",
    "assemble_channel", "build_covariance", "build_spatial_pair",
    "cholesky_psd", "coefficient_histogram", "complex_normal", "draw_direction",
    "eigenvalues_hermitian", "empirical_cdf", "expand_preset", "gram",
    "offdiag_exceedance", "parse_config", "phase_ramp", "power_profile",
    "qpsk_symbols", "run_scenario", "sample_q_block",
    "substream", "synthesize_uplink",
    "user_correlation",
]
