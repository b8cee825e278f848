"""SU(2) coherent states and the recoupling of their products.

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
level's recoupled table is a plain (n, 2n-1) array c[l, n-1+m] in centred
order, m = -(n-1)..n-1, with exact zeros for |m| > l; this module is the
only one that lays it out.

Recoupling is a transvectant (Cayley's Omega-process; Bargmann, Rev. Mod.
Phys. 34, 829 (1962); Olver, Classical Invariant Theory (1999)).  In the
polynomial picture |j, -j+k> <-> sqrt(C(2j, k)) x^k y^(2j-k), the state
|j, zeta> is (zeta x + y)^(2j) / (1+|zeta|^2)^j, and the spin-l part of a
product of two of them is, up to a constant fixed by (j, l) alone,

    (zeta1 - zeta2)^(2j-l) (zeta1 x + y)^l (zeta2 x + y)^l,

so no Clebsch-Gordan coefficient is needed (see so4_to_spherical).  The
Condon-Shortley Clebsch-Gordan tables built below are the reference that
the closed form is tested against; nothing else in the package reads
them.  They are built, one (j, l) table at a time, from the three-term
recurrence that J^2 obeys on each fixed-M block (Schulten & Gordon,
J. Math. Phys. 16, 1961 (1975)), completed by the exchange and mirror
symmetries, and stay within ~1e-15 of exact through level n = 176.
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

    No code in the package calls it: so4_to_spherical recouples in closed
    form.  It stays as the tests' independent reference for that closed
    form, and, with its lru_cache, because bench/spans.py wraps it, reads
    cache_info() and calls __wrapped__ until the benchmark is retargeted
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


def _rescale(a: np.ndarray) -> int:
    """Scale a in place by a power of two once its largest modulus leaves
    [1e-100, 1e100]; returns e such that the old a is the new a times 2**e."""
    top = np.abs(a).max()
    if top == 0 or 1e-100 <= top <= 1e100:
        return 0
    e = math.frexp(top)[1]
    a.view(float)[:] = np.ldexp(a.view(float), -e)
    return e


def _unit_form(zeta: complex) -> tuple[complex, complex, float, complex]:
    """(a, b, g, w) with (zeta x + y) / sqrt(1+|zeta|^2) = w (a x + b y) / sqrt(1+g).

    |a|, |b| <= 1 and |w| = 1: the form is zeta x + y itself for
    |zeta| <= 1 and zeta (x + y/zeta) beyond, so no tap grows with |zeta|
    and g = min(|zeta|, 1/|zeta|)^2 <= 1.
    """
    r = abs(zeta)
    if r <= 1.0:
        return zeta, 1.0, r * r, 1.0
    return 1.0, 1.0 / zeta, 1.0 / (r * r), zeta / r


def so4_to_spherical(n: int, params: AngularParams) -> np.ndarray:
    """Level n's two-spin angular factor in |l, m> labels, in closed form.

    Returns a complex array ``c`` of shape (n, 2n-1) in centred order:
    ``c[l, n-1+m]`` is the amplitude on angular momentum (l, m) of the
    product |j, zeta1>|j, zeta2>, j = (n-1)/2, recoupled with
    Condon-Shortley Clebsch-Gordan coefficients, m = -(n-1)..n-1, and every
    entry with |m| > l is exactly 0.

    With d = n - 1, u_i = a_i x + b_i y the forms of _unit_form, N their
    normalization and phase and Delta = a1 b2 - a2 b1, the transvectant
    (module docstring) gives c[l, n-1+m] = kappa_l h_l[l+m].  h_l holds the
    coefficients of (u1 u2)^l, the one at x^k y^(2l-k) divided by
    sqrt(C(2l, k)); h_0 = [1], and one 3-tap step in b1 b2, a1 b2 + a2 b1
    and a1 a2 multiplies in u1 u2.  kappa_0 = N Delta^d / sqrt(n) and

        kappa_(l+1) / kappa_l = sqrt((2l+3)(2l+2)(d-l)/(d+l+2)) / ((l+1) Delta),

    which makes the constant the stretched coefficient (d!/l!) sqrt((2l+1)!
    / ((d-l)! (d+l+1)!)) times Delta^(d-l).  When Delta = 0 only l = d
    survives, with kappa_d = N.  Only these ratios are formed, never a
    factorial.  One array carries kappa_l h_l with its power-of-two scale
    in an integer exponent, rescaled past 1e+-100, so neither Delta -> 0
    nor large n underflows.  O(n^2) work per level.
    """
    if n < 1:
        raise ValueError("principal quantum number must be >= 1")
    d = n - 1
    a1, b1, g1, w1 = _unit_form(complex(params.zeta1))
    a2, b2, g2, w2 = _unit_form(complex(params.zeta2))
    y2, xy, x2 = b1 * b2, a1 * b2 + a2 * b1, a1 * a2  # u1 u2 = y2 y^2 + xy xy + x2 x^2
    delta = a1 * b2 - a2 * b1
    # Delta is delta * 2**shift with |delta| in [0.5, 1), so that neither its
    # powers nor its reciprocal leave the float range, even for subnormal zeta
    shift = math.frexp(abs(delta))[1]
    delta = complex(math.ldexp(delta.real, -shift), math.ldexp(delta.imag, -shift))
    # row is kappa_l h_l / 2**scale; N = (w1 w2)^d ((1+g1)(1+g2))^(-d/2)
    log_norm = -0.5 * d * (math.log1p(g1) + math.log1p(g2))
    scale = math.floor(log_norm / math.log(2.0))
    row = np.array([math.exp(log_norm - scale * math.log(2.0))], dtype=complex)
    scale += d * shift
    if delta:
        row /= math.sqrt(n)
    factor = w1 * w2 * delta if delta else w1 * w2
    for _ in range(d):
        row *= factor
        scale += _rescale(row)
    out = np.zeros((n, 2 * n - 1), dtype=complex)
    for l in range(n):
        if delta or l == d:
            out[l, d - l : d + l + 1] = np.ldexp(row.view(float), scale).view(complex)
        if l == d:
            return out
        # h_(l+1)[k] from h_l[k], h_l[k-1], h_l[k-2], each against the root
        # of C(2l, k - i) / C(2l+2, k): outer[k-2] = sqrt(k(k-1)/denom),
        # reversed for the y^2 tap, and middle[k-1] = sqrt(k(2l+2-k)/denom)
        denom = (2 * l + 2) * (2 * l + 1)
        outer = np.sqrt(np.arange(2.0, 2 * l + 3) * np.arange(1.0, 2 * l + 2) / denom)
        k = np.arange(1.0, 2 * l + 2)
        middle = np.sqrt(k * (2 * l + 2 - k) / denom)
        step = np.zeros(2 * l + 3, dtype=complex)
        step[:-2] = y2 * outer[::-1] * row
        step[1:-1] += xy * middle * row
        step[2:] += x2 * outer * row
        if delta:
            step *= math.sqrt((2 * l + 3) * (2 * l + 2) * (d - l) / (d + l + 2)) / ((l + 1) * delta)
        row = step
        scale += _rescale(row) - shift
