"""Hydrogen bound spectrum, revival-time analysis and phase reduction.

Atomic units throughout (hbar = m_e = e = 1): energies in Hartree, times
in hbar/Hartree, lengths in Bohr radii.

reduced_phases takes products such as t * e_n mod 2 pi in long double:
at t ~ 1e9 a double-precision reduction would cost several digits of
phase coherence, visible in the revival structure.
"""
from __future__ import annotations

import math

import numpy as np

# 2*pi as a double-double sum, giving ~32 accurate digits in long double
_TWO_PI_LD = np.longdouble(6.283185307179586) + np.longdouble(2.4492935982947064e-16)


def reduced_phases(scale, values) -> np.ndarray:
    """(scale * values) mod 2 pi, accumulated in extended precision.

    scale and values broadcast against each other.  The product is formed
    and reduced in long double, then rounded to float64.
    """
    prod = np.asarray(scale, dtype=np.longdouble) * np.asarray(values, dtype=np.longdouble)
    return np.mod(prod, _TWO_PI_LD, out=prod).astype(np.float64)


def energy(n) -> float:
    """Bound-level energy -1/(2 n^2) for principal quantum number n >= 1."""
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 1):
        raise ValueError("principal quantum number must be >= 1")
    out = -0.5 / (n_arr * n_arr)
    return float(out) if np.isscalar(n) else out


def degeneracy(n: int) -> int:
    """Multiplicity n^2 of the level with principal quantum number n."""
    if n < 1:
        raise ValueError("principal quantum number must be >= 1")
    return n * n


def revival_time(mean_n: float) -> float:
    """Full-revival time (2 pi / 3) <n>^4 for a packet centered at <n>.

    The quadratic dephasing of level <n> + k is then pi k^2, a multiple of
    2 pi only for even k: the packet returns as one copy, half a Kepler
    period from where the linear term alone puts it.
    """
    if mean_n <= 0:
        raise ValueError("mean level must be positive")
    return (2.0 * math.pi / 3.0) * mean_n**4


def revival_ratio(mean_n: float, spread_n: float) -> float:
    """Cubic-dephasing figure of merit 4 pi (dn)^3 / (3 <n>).

    Values well below 1 indicate the cubic spectral term stays small across
    the packet, so the revival at the full revival time is clean.
    """
    if mean_n <= 0 or spread_n < 0:
        raise ValueError("mean must be positive and spread nonnegative")
    return 4.0 * math.pi * spread_n**3 / (3.0 * mean_n)


#: fractions of the revival time at which partial reassembly occurs
REVIVAL_FRACTIONS = (
    ("0", 0.0),
    ("Tr/5", 1.0 / 5.0),
    ("Tr/4", 1.0 / 4.0),
    ("Tr/3", 1.0 / 3.0),
    ("Tr/2", 1.0 / 2.0),
    ("Tr", 1.0),
)


def fractional_revival_times(t_revival: float) -> list[tuple[str, float]]:
    """The standard probe times: 0 and T_r times 1/5, 1/4, 1/3, 1/2, 1."""
    if t_revival <= 0:
        raise ValueError("revival time must be positive")
    return [(label, frac * t_revival) for label, frac in REVIVAL_FRACTIONS]
