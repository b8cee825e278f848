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

COHERE_THREADS, when set, is the default for OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS.  The BLAS libraries read those
once, when numpy loads, so they are set here, before any submodule
imports numpy.
"""
import os as _os

if _os.environ.get("COHERE_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["COHERE_THREADS"])

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
    su2_amplitudes,
    stereographic,
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
