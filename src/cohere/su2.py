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

Every amplitude, overlap and recoupled table below comes from ratios on
one rewriting of the spin-1/2 form zeta x + y, _unit_form, the only code
that asks whether |zeta| > 1; no factorial or log-gamma is formed.

Pairs of such states form the degenerate-level factor for hydrogen, where
the level-n multiplet carries two commuting spins of j = (n-1)/2.  In
|l, m> labels the pair's spin-l part is one row h_l(m), the same at every
level, times a scalar kappa_l(n): recoupled_window lays out both for a
window of levels, and so4_to_spherical one level's (n, 2n-1) table
c[l, n-1+m] = kappa_l(n) h_l(m); this module is the only one that does.

Recoupling is a transvectant (Cayley's Omega-process; Bargmann, Rev. Mod.
Phys. 34, 829 (1962); Olver, Classical Invariant Theory (1999)).  In the
polynomial picture |j, -j+k> <-> sqrt(C(2j, k)) x^k y^(2j-k), the state
|j, zeta> is u^(2j) for the unit form u = (zeta x + y) / sqrt(1+|zeta|^2),
and the spin-l part of a product of two of them is Delta^(2j-l) (u1 u2)^l,
Delta = (zeta1 - zeta2) / sqrt((1+|zeta1|^2)(1+|zeta2|^2)), times a
constant fixed by (j, l) alone.  So no Clebsch-Gordan coefficient is
needed, and the level enters only through that constant and Delta^(2j-l)
(see recoupled_window).  On the plane z = 0 a row sums over m in closed
form: u1 u2 is a complex vector v with v.v ~ Delta^2, and sum_m h_l(m)
Y_{l,m} is the harmonic projection of (v.r)^l, a Legendre polynomial
(Hobson, The Theory of Spherical and Ellipsoidal Harmonics (1931)).  At
theta = pi/2 it is c_l T_l(x2 e^{i phi} - y2 e^{-i phi}), x2 = a1 a2 and
y2 = b1 b2, with c_0 = 1/sqrt(4 pi), c_{l+1} = -c_l sqrt((2l+3)/(2l+2)),
and the monic T_l(s) = Delta^l P_l(s/Delta) l!/(2l-1)!!: T_0 = 1, T_1 = s,
T_{l+1} = s T_l - l^2/(4l^2-1) Delta^2 T_{l-1}, which divides by nothing.

The Condon-Shortley Clebsch-Gordan tables built below are the reference
that the closed form is tested against; nothing else in the package reads
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

from cohere.hydrogen import reduced_phases


def _check_two_j(j: float) -> int:
    two_j = round(2 * j)
    if abs(2 * j - two_j) > 1e-9 or two_j < 0:
        raise ValueError(f"j must be a nonnegative half-integer, got {j}")
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


def su2_amplitudes(j: float, zeta) -> np.ndarray:
    """Amplitude vector of |j,zeta> over m = -j .. j (index k = j + m).

    A 1-D array of parameters gives one column per entry, shape (2j+1, N).
    Entry k is w^(2j) (1+g)^(-j) sqrt(C(2j, k)) a^k b^(2j-k) for the unit
    form (a, b, g, w).  A column runs from its end whose tap is 1: from
    (1+g)^(-j), each step multiplies by sqrt((2j-k+1)/k) times zeta, or
    for |zeta| > 1 times 1/zeta, and that column is reversed and takes the
    phase w^(2j) from reduced_phases.  The form is taken in long double, so
    every entry stays within 5e-15 of a 40-digit sum through 2j = 600 at
    any |zeta|; each column is unit-norm by construction, not renormalized.
    """
    two_j = _check_two_j(j)
    zetas = np.asarray(zeta, dtype=complex)
    if zetas.ndim > 1:
        raise ValueError("zeta must be a scalar or a 1-D array")
    if not np.all(np.isfinite(zetas)):
        raise ValueError("zeta must be finite")
    # a scalar zeta runs as a one-point array, so it gives the same bits
    a, b, g, w = _unit_form(zetas.reshape(-1).astype(np.clongdouble))
    from_top = b != 1  # the form is zeta (x + y/zeta), whose x tap is 1
    k = np.arange(1.0, two_j + 1)[:, None]
    steps = np.empty((two_j + 1, zetas.size), dtype=complex)
    steps[0] = np.exp(-0.5 * two_j * np.log1p(g))
    steps[1:] = np.sqrt((two_j + 1 - k) / k) * np.where(from_top, b, a).astype(complex)
    amps = np.cumprod(steps, axis=0)
    amps[:, from_top] = amps[::-1, from_top]
    amps *= np.exp(1j * reduced_phases(two_j, np.angle(w)))
    return amps[:, 0] if zetas.ndim == 0 else amps


def stereographic(theta: float, phi: float) -> complex:
    """Map the sphere point (theta, phi) to -tan(theta/2) exp(-i phi)."""
    if not 0.0 <= theta < math.pi:
        raise ValueError("theta must lie in [0, pi); the antipode has no finite parameter")
    return -math.tan(theta / 2.0) * cmath.exp(-1j * phi)


def su2_overlap(j, zeta_a: complex, zeta_b: complex):
    """<j,zeta_a | j,zeta_b>, for one spin or an array of spins.

    The spin-1/2 overlap of the unit forms, s = conj(w_a) w_b (conj(a_a) a_b
    + conj(b_a) b_b) / sqrt((1+g_a)(1+g_b)), has |s| <= 1, and the spin-j
    overlap is s^(2j), both in long double.  At antipodal parameters s = 0:
    every j > 0 gives 0, and j = 0, whose single state is the same for
    every zeta, gives 1.
    """
    spins = np.asarray(j, dtype=float)
    two_j = np.array([_check_two_j(spin) for spin in spins.reshape(-1)]).reshape(spins.shape)
    a, b, g, w = _unit_form(np.array([zeta_a, zeta_b], dtype=np.clongdouble))
    s = np.conj(w[0]) * w[1] * (np.conj(a[0]) * a[1] + np.conj(b[0]) * b[1])
    out = (s / np.sqrt((1 + g[0]) * (1 + g[1]))) ** two_j
    return complex(out) if spins.ndim == 0 else out.astype(complex)


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

    No code in the package calls it: recoupled_window recouples in closed
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


def _unit_form(zeta) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, g, w) with (zeta x + y) / sqrt(1+|zeta|^2) = w (a x + b y) / sqrt(1+g).

    Elementwise, in the precision of the zeta array.  |a|, |b| <= 1 and
    |w| = 1: the form is zeta x + y itself for |zeta| <= 1 and
    zeta (x + y/zeta) beyond, so no tap grows with |zeta| and
    g = min(|zeta|, 1/|zeta|)^2 <= 1.  The one place that asks whether
    |zeta| > 1; its entries round as scalar 1/zeta and zeta/|zeta| do.
    """
    zeta = np.asarray(zeta)
    r = np.hypot(zeta.real, zeta.imag)
    outer = r > 1.0
    big, r_big = np.where(outer, zeta, 1.0), np.where(outer, r, 1.0)  # 1 where |zeta| <= 1
    a, b = np.where(outer, 1.0, zeta), np.where(outer, np.reciprocal(big), 1.0)
    g = np.where(outer, 1.0 / (r_big * r_big), r * r)
    return a, b, g, big.real / r_big + 1j * (big.imag / r_big)


def recoupled_window(levels, params: AngularParams) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One recoupling for a window of levels: (h, kappa, plane) with, for n = levels[i],

        so4_to_spherical(n)[l, n-1+m] = kappa[i, l] h[l, n_top-1+m],   n_top = max(levels).

    h is complex (n_top, 2 n_top - 1), centred like level n_top's table, and
    kappa complex (len(levels), n_top), 0 for l >= n.  With u_i = a_i x +
    b_i y the unit forms (zeta_i x + y) / sqrt(1+|zeta_i|^2), built on
    _unit_form, and Delta = a1 b2 - a2 b1, the transvectant (module
    docstring) makes row l of every level's table a multiple of one h_l, the
    coefficients of (u1 u2)^l, the one at x^k y^(2l-k) divided by
    sqrt(C(2l, k)): h_0 = [1], and one 3-tap step in b1 b2, a1 b2 + a2 b1
    and a1 a2 multiplies in u1 u2.  The multiple is the stretched
    coefficient (d!/l!) sqrt((2l+1)! / ((d-l)! (d+l+1)!)) times Delta^(d-l),
    d = n - 1, run down from kappa_d = 1 by

        kappa_l = kappa_(l+1) (l+1) Delta / sqrt((2l+3)(2l+2)(d-l)/(d+l+2)),

    so no factorial or power of Delta is formed, and Delta = 0 leaves zeros
    below l = d.  Both recurrences run in long double with power-of-two
    exponents carried by frexp: h rows are scaled to a largest modulus in
    [0.5, 1), h[l] = h_l 2**-e[l], and kappa takes the scale back, so
    neither Delta -> 0 nor n in the thousands underflows, and each entry is
    rounded to double once.  plane = (x2, y2, Delta^2, f) feeds the plane
    identity of the module docstring, row l of h summing on the plane to c_l
    T_l(s) 2**f[l]: x2, y2 come times 2**-rate and Delta^2 times 4**-rate,
    rate = e[-1] / n_top, so that T_l, which falls like h_l, stays near 1.
    """
    levels = np.asarray(levels)
    if levels.ndim != 1 or levels.size == 0 or levels.min() < 1:
        raise ValueError("principal quantum numbers must form a nonempty 1-D array of values >= 1")
    n_top = int(levels.max())
    a, b, g, w = _unit_form(np.array([params.zeta1, params.zeta2], dtype=np.clongdouble))
    (a1, a2), (b1, b2) = a * (w / np.sqrt(1 + g)), b * (w / np.sqrt(1 + g))
    y2, xy, x2 = b1 * b2, a1 * b2 + a2 * b1, a1 * a2  # u1 u2 = y2 y^2 + xy xy + x2 x^2
    delta = a1 * b2 - a2 * b1
    h = np.zeros((n_top, 2 * n_top - 1), dtype=complex)
    h_exp = np.zeros(n_top, dtype=int)  # the power of two taken out of each row
    row = np.ones(1, dtype=np.clongdouble)
    for l in range(n_top):
        h_exp[l] = np.frexp(np.abs(row).max())[1]
        row *= np.ldexp(np.longdouble(1), -h_exp[l])
        h[l, n_top - 1 - l : n_top + l] = row
        # h_(l+1)[k] from h_l[k], h_l[k-1], h_l[k-2], each against the root
        # of C(2l, k - i) / C(2l+2, k): outer[k-2] = sqrt(k(k-1)/denom),
        # reversed for the y^2 tap, and middle[k-1] = sqrt(k(2l+2-k)/denom)
        denom = (2 * l + 2) * (2 * l + 1)
        outer = np.sqrt(np.arange(2.0, 2 * l + 3) * np.arange(1.0, 2 * l + 2) / denom)
        k = np.arange(1.0, 2 * l + 2)
        middle = np.sqrt(k * (2 * l + 2 - k) / denom)
        step = np.zeros(2 * l + 3, dtype=np.clongdouble)
        step[:-2] = y2 * outer[::-1] * row
        step[1:-1] += xy * middle * row
        step[2:] += x2 * outer * row
        row = step
    h_exp = np.cumsum(h_exp)  # h_l is h[l] * 2**h_exp[l]
    rate = np.longdouble(h_exp[-1]) / n_top
    shrink = np.exp2(-rate)
    plane = (complex(x2 * shrink), complex(y2 * shrink), complex((delta * shrink) ** 2),
             (rate * np.arange(n_top) - h_exp).astype(float))
    # Delta is delta * 2**shift with |delta| in [0.5, 1), even for subnormal Delta
    shift = np.frexp(abs(delta))[1]
    delta *= np.ldexp(np.longdouble(1), -shift)
    d = levels - 1
    kappa = np.zeros((levels.size, n_top), dtype=complex)
    col, carry = np.zeros(levels.size, dtype=np.clongdouble), np.zeros(levels.size, dtype=int)
    for l in range(n_top - 1, -1, -1):  # kappa_l(n) is col * 2**carry
        # levels not yet joined hold 0, so their clipped ratio is never read
        col *= (l + 1) * delta / np.sqrt((2 * l + 3) * (2 * l + 2) * np.maximum(d - l, 1) / (d + l + 2))
        e = np.frexp(np.abs(col))[1]
        col *= np.ldexp(np.longdouble(1), -e)
        carry += e + shift
        col[d == l], carry[d == l] = 1.0, 0
        scale = carry + h_exp[l]
        kappa[:, l] = np.ldexp(col.real, scale) + 1j * np.ldexp(col.imag, scale)
    return h, kappa, plane


def so4_to_spherical(n: int, params: AngularParams) -> np.ndarray:
    """Level n's two-spin angular factor, kappa h of recoupled_window: c[l, n-1+m],
    shape (n, 2n-1), is the amplitude on (l, m), m = -(n-1)..n-1, of
    |j, zeta1>|j, zeta2>, j = (n-1)/2, recoupled with Condon-Shortley
    Clebsch-Gordan coefficients, and exactly 0 for |m| > l."""
    h, kappa, _ = recoupled_window(np.array([n]), params)
    return kappa[0][:, None] * h
