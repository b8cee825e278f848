"""Temporally stable coherent states for energy-degenerate systems,
specialized to the hydrogen atom.

Subpackages by concern:
  weights   log-domain weight functions, moments, normalization
  su2       spin coherent states and angular-momentum recoupling
  hydrogen  spectrum, degeneracies, revival-time analysis
  state     state assembly, level statistics, time evolution
  position  wavefunctions in space, planar fields, orbit expectations
  identity  numerical resolution-of-identity verification
  cli       command-line interface
"""

from cohere.weights import (
    WeightFamily,
    WeightSpec,
    log_moment,
    log_norm_factor,
    companion_density,
    truncation_level,
)
from cohere.su2 import (
    AngularParams,
    AngularAmplitudes,
    su2_amplitudes,
    stereographic,
    so4_amplitudes,
    so4_to_spherical,
)
from cohere.hydrogen import (
    energy,
    degeneracy,
    revival_time,
    revival_ratio,
    fractional_revival_times,
)
from cohere.state import (
    CoherentState,
    SpectralCoefficients,
    build_state,
    level_distribution,
    mean_level,
    level_spread,
    leading_order_stats,
    solve_scale,
    evolve,
    autocorrelation,
    overlap,
)

__version__ = "0.1.0"
