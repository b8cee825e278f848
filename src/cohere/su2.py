"""SU(2) coherent states, their products, and angular-momentum recoupling.

A spin-j coherent state is the group orbit of the lowest-weight vector
|j,-j>, labeled by a complex stereographic parameter zeta:

    |j,zeta> = sum_m [ (2j)! / ((j+m)!(j-m)!) ]^(1/2)
               * zeta^(j+m) / (1+|zeta|^2)^j  |j,m>

The sphere coordinates map to the parameter via
zeta = -tan(theta/2) exp(-i phi).  Note the orientation, measured from the
amplitudes rather than assumed: the spin expectation of |j, zeta(theta,phi)>
is <J>/j = -(sin theta cos phi, sin theta sin phi, cos theta), i.e. the
state points at the antipode of (theta, phi).  The pole theta = pi has no
finite parameter and is rejected.

Pairs of such states form the degenerate-level factor for hydrogen, where
the level-n multiplet carries two commuting spins of j = (n-1)/2.  A
level's product state is a plain (n, n) array P[k1, k2] over
|j, -j+k1> |j, -j+k2>, and its recoupled table is a plain (n, 2n-1)
array c[l, n-1+m] in centred order, m = -(n-1)..n-1, with exact zeros
for |m| > l; this module is the only one that lays either out.  The
change of basis to |l, m> labels goes through Clebsch-Gordan coefficients
in the Condon-Shortley phase convention.  They are built, one (j, l) table
at a time, from the three-term recurrence that J^2 obeys on each fixed-M
block (Schulten & Gordon, J. Math. Phys. 16, 1961 (1975)), completed by
the exchange and mirror symmetries; no alternating Racah sum is formed,
so the tables stay within ~1e-15 of exact through level n = 176.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from cohere.weights import _lgamma


def _check_two_j(j: float, name: str = "j") -> int:
    two_j = round(2 * j)
    if abs(2 * j - two_j) > 1e-9 or two_j < 0:
        raise ValueError(f"{name} must be a nonnegative half-integer, got {j}")
    return two_j


@dataclass(frozen=True)
class AngularParams:
    """The pair of stereographic parameters fixing the two spin factors."""

    zeta1: complex
    zeta2: complex

    def __post_init__(self):
        for z in (self.zeta1, self.zeta2):
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError("angular parameters must be finite")


def _log1p_abs_sq(zeta: complex) -> float:
    """ln(1 + |zeta|^2), stable for very large |zeta|."""
    r = abs(zeta)
    if r < 1e8:
        return math.log1p(r * r)
    return 2.0 * math.log(r) + math.log1p(1.0 / (r * r))


def su2_amplitudes(j: float, zeta) -> np.ndarray:
    """Amplitude vector of |j,zeta> over m = -j .. j (index k = j + m).

    A 1-D array of parameters gives one column per entry, shape (2j+1, N).
    Binomial square roots go through log-gamma so the result stays finite
    for large j and extreme |zeta|; each column is unit-norm by
    construction, not renormalized.
    """
    two_j = _check_two_j(j)
    zetas = np.asarray(zeta, dtype=complex)
    if zetas.ndim > 1:
        raise ValueError("zeta must be a scalar or a 1-D array")
    if not np.all(np.isfinite(zetas)):
        raise ValueError("zeta must be finite")
    # a scalar zeta runs as a one-point array, so it gives the same bits;
    # for |zeta| > 1 the magnitude is taken as |zeta|^(k-2j) / (1+|zeta|^-2)^j,
    # so no two large logs cancel.  np.hypot rounds |zeta| as the builtin
    # abs() does (numpy's complex abs can differ by an ulp).  zeta = 0
    # reads as |zeta| = 1 here and its column is overwritten below.
    params = zetas.reshape(-1)
    zero = params == 0
    r = np.where(zero, 1.0, np.hypot(params.real, params.imag))
    log_r = np.log(r)
    shift = two_j * (r > 1.0)
    log_norm = np.log1p(np.minimum(r, 1.0 / np.maximum(r, 1.0)) ** 2)
    arg = np.angle(params)
    k = np.arange(two_j + 1)[:, None]
    # ln k! for k = 0..2j, read backwards for ln (2j - k)!
    log_fact = _lgamma(k + 1.0)
    log_binom_sqrt = 0.5 * (log_fact[-1] - log_fact - log_fact[::-1])
    log_mag = log_binom_sqrt + (k - shift) * log_r - (two_j / 2.0) * log_norm
    amps = np.exp(log_mag + 1j * (k * arg))
    amps[:, zero] = k == 0  # |j,0> is the lowest weight
    return amps[:, 0] if zetas.ndim == 0 else amps


def stereographic(theta: float, phi: float) -> complex:
    """Map the sphere point (theta, phi) to -tan(theta/2) exp(-i phi)."""
    if not 0.0 <= theta < math.pi:
        raise ValueError("theta must lie in [0, pi); the antipode has no finite parameter")
    return -math.tan(theta / 2.0) * cmath.exp(-1j * phi)


def su2_overlap(j: float, zeta_a: complex, zeta_b: complex) -> complex:
    """<j,zeta_a | j,zeta_b> in closed form.

    Equals [ (1 + conj(zeta_a) zeta_b)^2 /
             ((1+|zeta_a|^2)(1+|zeta_b|^2)) ]^j.
    """
    _check_two_j(j)
    cross = 1.0 + zeta_a.conjugate() * zeta_b
    if cross == 0:
        return 0.0 + 0.0j
    log_factor = (
        2.0 * cmath.log(cross) - _log1p_abs_sq(zeta_a) - _log1p_abs_sq(zeta_b)
    )
    return cmath.exp(j * log_factor)


def spin_expectation(j: float, amplitudes: np.ndarray) -> np.ndarray:
    """(<Jx>, <Jy>, <Jz>) for an amplitude vector over m = -j .. j."""
    two_j = _check_two_j(j)
    if amplitudes.shape != (two_j + 1,):
        raise ValueError("amplitude vector has wrong length")
    m = -j + np.arange(two_j + 1)
    jz = float(np.sum(m * np.abs(amplitudes) ** 2).real)
    # <J+> couples m to m+1 with weight sqrt((j-m)(j+m+1))
    ladder = np.sqrt((j - m[:-1]) * (j + m[:-1] + 1.0))
    jp = np.sum(np.conj(amplitudes[1:]) * amplitudes[:-1] * ladder)
    return np.array([jp.real, jp.imag, jz])


def so4_amplitudes(n: int, params: AngularParams) -> np.ndarray:
    """Product state of two spin-(n-1)/2 coherent states at level n.

    Returns the (n, n) array P with P[k1, k2] the coefficient of
    |j, -j+k1> |j, -j+k2>, j = (n-1)/2.
    """
    if n < 1:
        raise ValueError("principal quantum number must be >= 1")
    j = (n - 1) / 2.0
    return np.outer(su2_amplitudes(j, params.zeta1), su2_amplitudes(j, params.zeta2))


@lru_cache(maxsize=256)
def coupling_matrix(two_j: int, two_l: int) -> np.ndarray:
    """Dense table W[k1, k2] = <j m1 j m2 | l, m1+m2> for one (j, l).

    Indices k = j + m; entries with |m1 + m2| > l are 0.  For each M >= 0
    the column c(m1) = <j m1 j M-m1 | l M> is the null vector of the
    tridiagonal J^2 - l(l+1) on the states |j m1>|j M-m1>, whose diagonal
    is 2j(j+1) + 2 m1 m2 and whose off-diagonal couples m1 to m1+1 with
    sqrt((j-m1)(j+m1+1)(j+m2)(j-m2+1)).  The three-term recurrence runs
    from the m1 = j edge, where Condon-Shortley makes the coefficient
    positive, down to the centre m1 = M/2, all M at once and rescaled
    past 1e150; recurring inward from the edge follows the growing
    solution, so it is stable.  Exchange, <j m2 j m1|l M> =
    (-1)^(2j-l) <j m1 j m2|l M>, fills the other half of each column, the
    column is normalized, and the mirror W[2j-k1, 2j-k2] = (-1)^(2j-l)
    W[k1, k2] gives M < 0.  Against a 60-digit Racah sum the largest error
    over 300 sampled entries per level is 2.4e-16 at n = 2j + 1 = 21,
    9.8e-16 at n = 60, 5.8e-16 at n = 120 and 1.6e-15 at n = 176, and
    every fixed-M block at n = 176 is orthonormal within 2e-14.

    The cache seldom hits.  One recoupling of a state looks each table up
    once: a field_frames call on the alpha = 1/32, <n> = 20 state makes
    246 lookups and 0 hits, and the paper's window makes 5,280 lookups
    and 0 hits.  Only a second recoupling of the same state in the same
    process hits, as a second position_trace does; at alpha = 1/4,
    <n> = 20 the 720 tables overflow the 256 slots and even that misses.
    It stays only because bench/spans.py and tests/test_tooling.py read
    cache_info() and __wrapped__, until the benchmark is retargeted
    (ROADMAP item 1).
    """
    if two_j < 0 or two_l % 2 or not 0 <= two_l <= 2 * two_j:
        raise ValueError(f"no coupling of two spins 2j = {two_j} to 2l = {two_l}")
    d, l = two_j, two_l // 2
    # step s is the row m1 = j - s; c[s, M] is W[d - s, M + s] up to the
    # column's norm, for s <= (d - M)/2
    s = np.arange(d // 2 + 1.0)[:, None]
    m_tot = np.arange(l + 1.0)
    diag = 0.5 * (d * (d + 2) + (d - 2 * s) * (2 * (m_tot + s) - d)) - l * (l + 1.0)
    # off[s] couples step s - 1 to step s; off[0] = 0, so step 0 reads no predecessor
    off = np.sqrt(np.maximum(s * (d - s + 1) * (m_tot + s) * (d - m_tot - s + 1), 0.0))
    c = np.zeros((d // 2 + 1, l + 1))
    c[0] = 1.0
    for i in range(d // 2):
        cols = min(l + 1, d - 2 * i - 1)  # the columns that take step i + 1
        c[i + 1, :cols] = -(diag[i, :cols] * c[i, :cols]
                            + off[i, :cols] * c[i - 1, :cols]) / off[i + 1, :cols]
        if np.max(np.abs(c[i + 1])) > 1e150:
            c[: i + 2] /= np.maximum(np.abs(c[i + 1]), 1.0)
    sign = -1.0 if (d - l) % 2 else 1.0
    steps, m_idx = np.nonzero(2 * s <= d - m_tot)
    k1, k2 = d - steps, m_idx + steps
    vals = c[steps, m_idx]
    centre = k1 == k2
    if sign < 0:
        vals[centre] = 0.0
    norm_sq = np.bincount(m_idx, weights=vals**2 * np.where(centre, 1.0, 2.0))
    vals = vals / np.sqrt(norm_sq[m_idx])
    w = np.zeros((d + 1, d + 1))
    w[k1, k2] = vals
    w[k2, k1] = sign * vals
    mirrored = np.add.outer(np.arange(d + 1), np.arange(d + 1)) < d
    w[mirrored] = sign * w[::-1, ::-1][mirrored]
    return w


def so4_to_spherical(amps: np.ndarray) -> np.ndarray:
    """Recouple level-n product amplitudes to |l, m> labels.

    ``amps`` is the (n, n) array of so4_amplitudes.  Returns a complex
    array ``c`` of shape (n, 2n-1) in centred order: ``c[l, n-1+m]`` is
    the amplitude on angular momentum (l, m), m = -(n-1)..n-1, and every
    entry with |m| > l is exactly 0.  A unitary change of basis.
    """
    amps = np.asarray(amps)
    if amps.ndim != 2 or amps.shape[0] != amps.shape[1]:
        raise ValueError(f"product amplitudes must be a square 2-D array, got shape {amps.shape}")
    n = amps.shape[0]
    # anti-diagonal t = k1 + k2 of a table collects m = m1 + m2 = t - 2j,
    # so column t of the sums is column n-1+m of the result
    t = np.add.outer(np.arange(n), np.arange(n)).ravel()
    flat = amps.ravel()
    out = np.zeros((n, 2 * n - 1), dtype=complex)
    for l in range(n):
        weighted = coupling_matrix(n - 1, 2 * l).ravel() * flat
        sums = np.bincount(t, weighted.real, 2 * n - 1) + 1j * np.bincount(
            t, weighted.imag, 2 * n - 1)
        out[l, n - 1 - l : n + l] = sums[n - 1 - l : n + l]
    return out
