"""Temporally stable coherent states for energy-degenerate systems,
specialized to the hydrogen atom.

Modules by concern:
  weights   log-domain weight functions, moments, normalization
  su2       spin coherent states and angular-momentum recoupling
  hydrogen  spectrum, revival-time analysis
  state     state assembly, level statistics, time evolution
  position  wavefunctions in space, planar fields, orbit expectations
  identity  numerical resolution-of-identity verification
  cli       command-line interface
"""
from cohere.weights import (
    WeightSpec,
    log_moment,
)
from cohere.su2 import (
    AngularParams,
    su2_amplitudes,
    stereographic,
)
from cohere.hydrogen import (
    energy,
    revival_time,
    revival_ratio,
    fractional_revival_times,
)
from cohere.state import (
    CoherentState,
    SpectralCoefficients,
    build_state,
    mean_level,
    level_spread,
    evolve,
    autocorrelation,
    overlap,
)

__version__ = "0.1.0"
