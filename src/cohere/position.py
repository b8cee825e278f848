"""Position-space evaluation: eigenfunctions, planar fields, orbit traces.

Radial functions use the associated-Laguerre upward recurrence with a
per-point log-magnitude carry so that principal quantum numbers of order
a few hundred stay finite; spherical harmonics use the fully normalized
Legendre recurrence, stable to degree ~200, with the Condon-Shortley
phase.

The eccentricity map fixes the orbit geometry of the two-spin angular
factor.  With the lowest-weight fiducial and the stereographic convention
used here, the finite-parameter representative of a Kepler ellipse of
eccentricity eps = sin(beta) is

    zeta1 = stereographic(beta, pi),  zeta2 = stereographic(beta, 0)

which puts the scaled Runge-Lenz expectation along +x (perihelion toward
+x) and the orbital angular momentum along the z axis pointing in the -z
direction.  (+z would require the parameter at the excluded pole; the -z
representative is the mirror image through the orbital plane and has
identical ellipse geometry.)

Orbit traces never form the wavefunction on the 3-D quadrature.  The
product rule (Gauss-Legendre in r and cos(theta), trapezoid in phi) is an
exact tensor product, and x = r sin(theta) cos(phi), y = r sin(theta)
sin(phi) factor the same way, so each level-pair moment

    M[n, n'] = sum over l, l' of  (radial Gram)[nl, n'l'] * (angular Gram)[nl, n'l']

splits into a radial Gram of R_{n,l} R_{n',l'} with weight r^2 (norm) or
r^3 (x, y) and an angular Gram of A_{n,l} = sum_m g_n(l, m) Y_{l,m} with
weight 1, sin(theta) cos(phi) or sin(theta) sin(phi).  The angular Gram
is accumulated over chunks of polar nodes, so memory grows with the
number of (n, l) rows squared, not with the number of 3-D nodes.  Each
time step of a trace is then the quadratic form c(t)^H M c(t) over the L
occupied levels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cohere import hydrogen
from cohere.state import CoherentState, evolve, reduced_phases
from cohere.su2 import (
    AngularParams,
    so4_amplitudes,
    so4_to_spherical,
    spin_expectation,
    stereographic,
    su2_amplitudes,
)

#: default ceiling on (max level)^2 * samples^2 for planar grid runs
DEFAULT_GRID_BUDGET = 10**9

# complex elements per working array when building level moments (4 MB)
_CHUNK_ELEMENTS = 2**18


class BudgetExceededError(RuntimeError):
    """A grid request exceeds the configured resource budget."""

    def __init__(self, cost: int, budget: int):
        super().__init__(
            f"grid evaluation cost {cost:.3g} exceeds budget {budget:.3g}; "
            f"raise the budget to at least {cost:d} to proceed"
        )
        self.cost = cost
        self.budget = budget


@dataclass(frozen=True)
class GridSpec:
    """A square sampling grid on the z = 0 plane, centered at the origin."""

    width: float
    samples: int

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("grid width must be positive")
        if self.samples < 2:
            raise ValueError("grid needs at least 2 samples per side")

    def axis(self) -> np.ndarray:
        return np.linspace(-self.width / 2.0, self.width / 2.0, self.samples)


@dataclass(frozen=True)
class GridField:
    """Complex field sampled on a planar grid; values[iy, ix]."""

    spec: GridSpec
    t: float
    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("field values must be finite")


def radial(n: int, l: int, r) -> np.ndarray | float:
    """Normalized bound radial function R_{n,l}(r) in atomic units.

    Satisfies integral of R^2 r^2 dr = 1.  Evaluated through the
    associated-Laguerre upward recurrence with log-scaled prefactors and a
    per-point magnitude carry.
    """
    if n < 1 or l < 0 or l > n - 1:
        raise ValueError(f"invalid quantum numbers (n={n}, l={l})")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("r must be nonnegative")
    x = 2.0 * r_arr / n
    k_top = n - l - 1
    log_lag, sign = _laguerre_log(k_top, 2 * l + 1, x)
    log_pref = (
        1.5 * math.log(2.0 / n)
        - 0.5 * math.log(2.0 * n)
        + 0.5 * (math.lgamma(n - l) - math.lgamma(n + l + 1))
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        log_x_pow = np.where(x > 0, l * np.log(np.where(x > 0, x, 1.0)), 0.0 if l == 0 else -np.inf)
    log_mag = log_pref + log_x_pow - x / 2.0 + log_lag
    out = sign * np.exp(log_mag)
    return float(out) if np.isscalar(r) else out


def _laguerre_log(k_top: int, a: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log|L|, sign) of the associated Laguerre polynomial L^(a)_{k_top}(x).

    Upward recurrence in the degree with a per-point carry: whenever the
    working pair leaves the comfortable magnitude range it is rescaled and
    the log of the factor accumulates separately.
    """
    x = np.asarray(x, dtype=float)
    carry = np.zeros_like(x)
    v_prev = np.ones_like(x)
    if k_top == 0:
        return _log_sign(v_prev, carry)
    v = 1.0 + a - x
    for k in range(1, k_top):
        v, v_prev = ((2 * k + 1 + a - x) * v - (k + a) * v_prev) / (k + 1), v
        pair = np.maximum(np.abs(v), np.abs(v_prev))
        big = pair > 1e150
        small = (pair < 1e-150) & (pair > 0)
        if np.any(big) or np.any(small):
            shift = np.where(big | small, np.log(np.where(pair > 0, pair, 1.0)), 0.0)
            scale = np.exp(-shift)
            v = v * scale
            v_prev = v_prev * scale
            carry += shift
    return _log_sign(v, carry)


def _log_sign(v: np.ndarray, carry: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(divide="ignore"):
        log_mag = np.where(v != 0, np.log(np.abs(np.where(v != 0, v, 1.0))), -np.inf)
    return log_mag + carry, np.sign(v)


def legendre_normalized(l_max: int, m: int, cos_theta, sin_theta) -> np.ndarray:
    """Fully normalized associated Legendre values for degrees m..l_max.

    Returns an array of shape (l_max - m + 1, ...) whose row i is the
    theta part of Y_{m+i, m}; multiply by exp(i m phi) for the full
    harmonic.  Stable to degree ~200.
    """
    if m < 0:
        raise ValueError("m must be nonnegative here")
    if l_max < m:
        raise ValueError("l_max must be >= m")
    ct = np.asarray(cos_theta, dtype=float)
    st = np.asarray(sin_theta, dtype=float)
    p_mm = np.full_like(ct, 1.0 / math.sqrt(4.0 * math.pi))
    for k in range(1, m + 1):
        p_mm = -math.sqrt((2 * k + 1) / (2.0 * k)) * st * p_mm
    rows = [p_mm]
    if l_max > m:
        rows.append(math.sqrt(2 * m + 3.0) * ct * p_mm)
    for l in range(m + 2, l_max + 1):
        a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        rows.append(a * (ct * rows[-1] - b * rows[-2]))
    return np.stack(rows)


def spherical_harmonic(l: int, m: int, theta, phi) -> np.ndarray | complex:
    """Orthonormal Y_{l,m}(theta, phi), Condon-Shortley phase."""
    if abs(m) > l:
        raise ValueError(f"|m| must not exceed l (l={l}, m={m})")
    theta_arr = np.asarray(theta, dtype=float)
    phi_arr = np.asarray(phi, dtype=float)
    mm = abs(m)
    p = legendre_normalized(l, mm, np.cos(theta_arr), np.sin(theta_arr))[-1]
    y = p * np.exp(1j * mm * phi_arr)
    if m < 0:
        y = (-1.0) ** mm * np.conj(y)
    out = y
    return complex(out) if np.isscalar(theta) and np.isscalar(phi) else out


def _spherical_amp_tables(state: CoherentState):
    """so4 -> (l, m) amplitude table per occupied level."""
    tables = {}
    for n in state.coeffs.levels:
        tables[int(n)] = so4_to_spherical(so4_amplitudes(int(n), state.angular))
    return tables


def field_on_grid(
    state: CoherentState,
    grid: GridSpec,
    t: float,
    budget: int = DEFAULT_GRID_BUDGET,
) -> GridField:
    """The wavefunction on the z = 0 plane at time t.

    psi(x, y, 0, t) = sum_n c_n(t) sum_{l,m} g_n(l,m) R_{n,l}(r)
    Y_{l,m}(pi/2, phi) with g_n the recoupled angular amplitudes.
    """
    levels = state.coeffs.levels
    n_top = int(levels.max())
    cost = n_top * n_top * grid.samples * grid.samples
    if cost > budget:
        raise BudgetExceededError(cost, budget)

    axis = grid.axis()
    xx, yy = np.meshgrid(axis, axis)  # values[iy, ix]
    r = np.hypot(xx, yy).ravel()
    phi = np.arctan2(yy, xx).ravel()
    r_unique, inverse = np.unique(r, return_inverse=True)

    coeffs = evolve(state, t).coeffs.values
    tables = _spherical_amp_tables(state)
    # theta part of Y_{l,m} on the plane, evaluated once per (l, m)
    plane_legendre = {
        m: legendre_normalized(n_top - 1, m, np.array(0.0), np.array(1.0))
        for m in range(n_top)
    }

    total = np.zeros(r.size, dtype=complex)
    for c_n, n in zip(coeffs, levels):
        n = int(n)
        g = tables[n]
        level_field = np.zeros(r.size, dtype=complex)
        for l in range(n):
            angular = np.zeros(r.size, dtype=complex)
            nonzero = False
            for m in range(-l, l + 1):
                amp = g[l, l + m]
                if amp == 0:
                    continue
                theta_part = plane_legendre[abs(m)][l - abs(m)]
                if m < 0:
                    theta_part = theta_part * (-1.0) ** (abs(m) % 2)
                factor = amp * theta_part
                if factor == 0:
                    continue
                angular += factor * np.exp(1j * m * phi)
                nonzero = True
            if not nonzero:
                continue
            level_field += radial(n, l, r_unique)[inverse] * angular
        total += c_n * level_field
    return GridField(spec=grid, t=t, values=total.reshape(grid.samples, grid.samples))


# --- full 3-D quadrature -------------------------------------------------


@dataclass(frozen=True)
class SpatialQuadrature:
    """Product rule: Gauss-Legendre in r and cos(theta), trapezoid in phi."""

    r_nodes: np.ndarray
    r_weights: np.ndarray
    cos_nodes: np.ndarray
    cos_weights: np.ndarray
    n_phi: int

    @classmethod
    def for_levels(
        cls,
        n_top: int,
        radial_order: int | None = None,
        polar_order: int | None = None,
        azimuthal_count: int | None = None,
        r_max: float | None = None,
    ) -> "SpatialQuadrature":
        if r_max is None:
            r_max = 2.5 * n_top * n_top + 10.0 * n_top
        if radial_order is None:
            radial_order = max(96, 6 * n_top)
        if polar_order is None:
            polar_order = 2 * n_top + 12
        if azimuthal_count is None:
            azimuthal_count = 4 * n_top + 8
        xr, wr = np.polynomial.legendre.leggauss(radial_order)
        r_nodes = 0.5 * (xr + 1.0) * r_max
        r_weights = 0.5 * r_max * wr
        cu, wu = np.polynomial.legendre.leggauss(polar_order)
        return cls(r_nodes, r_weights, cu, wu, azimuthal_count)

    @property
    def phi_nodes(self) -> np.ndarray:
        return np.arange(self.n_phi) * (2.0 * math.pi / self.n_phi)


def level_moments(state: CoherentState, quad: SpatialQuadrature) -> np.ndarray:
    """Level-pair moment matrices of the state's occupied levels.

    Returns an array of shape (3, L, L) holding the Hermitian matrices
    X, Y and N over the L occupied levels: entry [i, k] is the quadrature
    of conj(psi_i) psi_k times x, y and 1, where psi_i is the i-th
    level's eigenfunction with its recoupled angular amplitudes.  Each
    entry is a sum of radial-Gram times angular-Gram products over the
    levels' (n, l) rows; see the module docstring.
    """
    levels = [int(n) for n in state.coeffs.levels]
    tables = _spherical_amp_tables(state)
    n_top = max(levels)
    rows = [(n, l) for n in levels for l in range(n)]
    k = len(rows)

    # radial Grams with weights r^2 (norm) and r^3 (x, y)
    r = quad.r_nodes
    radial_rows = np.array([radial(n, l, r) for n, l in rows])
    w_r = quad.r_weights * r * r
    radial_norm = (radial_rows * w_r) @ radial_rows.T
    radial_first = (radial_rows * (w_r * r)) @ radial_rows.T

    # amp[a, n_top - 1 + m] = g_n(l, m) for row a = (n, l), zero for |m| > l,
    # with the (-1)^m of Y_{l,-m} = (-1)^m conj(Y_{l,m}) folded in
    m_values = np.arange(-(n_top - 1), n_top)
    amp = np.zeros((k, m_values.size), dtype=complex)
    for a, (n, l) in enumerate(rows):
        amp[a, n_top - 1 - l:n_top + l] = tables[n][l, :2 * l + 1]
    amp *= np.where((m_values < 0) & (m_values % 2 == 1), -1.0, 1.0)

    cos_t = quad.cos_nodes
    sin_t = np.sqrt(np.clip(1.0 - cos_t * cos_t, 0.0, None))
    # theta part of Y_{l,|m|} at [|m|, l]: one recurrence per |m|
    legendre = np.zeros((n_top, n_top, cos_t.size))
    for m in range(n_top):
        legendre[m, m:] = legendre_normalized(n_top - 1, m, cos_t, sin_t)
    row_legendre = (np.abs(m_values)[None, :], np.array([l for _, l in rows])[:, None])
    phi = quad.phi_nodes
    e_imphi = np.exp(1j * np.outer(m_values, phi))
    w_phi = 2.0 * math.pi / quad.n_phi

    # angular Grams with weights 1 and sin(theta) e^{i phi}, accumulated over
    # chunks of polar nodes so that no (rows, all angular nodes) array exists
    ang_norm = np.zeros((k, k), dtype=complex)
    ang_plus = np.zeros((k, k), dtype=complex)
    chunk = max(1, _CHUNK_ELEMENTS // (k * max(m_values.size, quad.n_phi)))
    for lo in range(0, cos_t.size, chunk):
        sl = slice(lo, lo + chunk)
        theta_coeffs = amp[:, :, None] * legendre[row_legendre + (sl,)]
        values = (theta_coeffs.transpose(0, 2, 1) @ e_imphi).reshape(k, -1)
        conj_values = values.conj()
        w = quad.cos_weights[sl] * w_phi
        ang_norm += (conj_values * np.repeat(w, quad.n_phi)) @ values.T
        ang_plus += (conj_values * np.outer(w * sin_t[sl], np.exp(1j * phi)).ravel()) @ values.T
    # cos(phi) and sin(phi) parts of the e^{i phi} Gram
    ang_x = 0.5 * (ang_plus + ang_plus.conj().T)
    ang_y = -0.5j * (ang_plus - ang_plus.conj().T)

    # sum the (n, l) x (n', l') products over the block of each level pair
    starts = np.cumsum([0] + levels[:-1])
    return np.stack([
        np.add.reduceat(np.add.reduceat(rad * ang, starts, axis=0), starts, axis=1)
        for rad, ang in ((radial_first, ang_x), (radial_first, ang_y), (radial_norm, ang_norm))
    ])


def position_trace(
    state: CoherentState,
    times,
    radial_order: int | None = None,
    polar_order: int | None = None,
    azimuthal_count: int | None = None,
    r_max: float | None = None,
) -> np.ndarray:
    """(<x>, <y>, norm) rows for each requested time.

    The level-pair moment matrices are built once on the product-rule
    quadrature; each time step is then the quadratic form c(t)^H M c(t)
    of the evolved level coefficients, so dense orbit traces cost little
    more than a single evaluation and memory stays independent of the
    number of 3-D nodes.
    """
    n_top = int(state.coeffs.levels.max())
    quad = SpatialQuadrature.for_levels(
        n_top, radial_order, polar_order, azimuthal_count, r_max
    )
    moments = level_moments(state, quad)
    energies = state.level_energies
    base = state.coeffs.values

    rows = []
    for t in np.atleast_1d(np.asarray(times, dtype=float)):
        c = base * np.exp(1j * reduced_phases(-t, energies))
        rows.append(np.einsum("i,kij,j->k", c.conj(), moments, c).real)
    return np.asarray(rows)


def position_expectation(
    state: CoherentState,
    t: float,
    radial_order: int | None = None,
    polar_order: int | None = None,
    azimuthal_count: int | None = None,
    r_max: float | None = None,
) -> tuple[float, float]:
    """(<x>, <y>) at time t by full 3-D quadrature of the density."""
    row = position_trace(state, [t], radial_order, polar_order, azimuthal_count, r_max)[0]
    if row[2] < 0.5:
        raise ArithmeticError(
            f"quadrature norm {row[2]:.3g} is far from 1; raise the orders"
        )
    return row[0] / row[2], row[1] / row[2]


def ellipse_to_angular(eccentricity: float, n: int) -> AngularParams:
    """Angular parameters for a Kepler ellipse of the given eccentricity.

    With beta = arcsin(eccentricity), the two spins are placed at the
    finite-parameter mirror representative described in the module
    docstring: Runge-Lenz expectation along +x with magnitude
    2 j sin(beta), angular momentum along z (pointing -z), for every
    level.  The reference level only validates the request.
    """
    if not 0.0 <= eccentricity < 1.0:
        raise ValueError("eccentricity must lie in [0, 1)")
    if n < 1:
        raise ValueError("reference level must be >= 1")
    beta = math.asin(eccentricity)
    return AngularParams(
        zeta1=stereographic(beta, math.pi),
        zeta2=stereographic(beta, 0.0),
    )


def spin_vector_gap(params: AngularParams, n: int) -> float:
    """|<M> - <N>| / (2j) for the level-n two-spin factor.

    Equals the eccentricity produced by ellipse_to_angular; the scaled
    Runge-Lenz expectation per unit spin length.
    """
    j = (n - 1) / 2.0
    if j == 0:
        raise ValueError("level 1 carries no angular structure")
    m_vec = spin_expectation(j, su2_amplitudes(j, params.zeta1))
    n_vec = spin_expectation(j, su2_amplitudes(j, params.zeta2))
    return float(np.linalg.norm(m_vec - n_vec) / (2.0 * j))


def _spin_expectations(state: CoherentState) -> tuple[np.ndarray, np.ndarray]:
    """(<M>, <N>): the two spin expectations averaged over the levels."""
    m_total = np.zeros(3)
    n_total = np.zeros(3)
    for n, p in zip(state.coeffs.levels, state.coeffs.probabilities):
        j = (int(n) - 1) / 2.0
        if j == 0:
            continue
        m_total += p * spin_expectation(j, su2_amplitudes(j, state.angular.zeta1))
        n_total += p * spin_expectation(j, su2_amplitudes(j, state.angular.zeta2))
    return m_total, n_total


def orbital_angular_momentum(state: CoherentState) -> np.ndarray:
    """<L> = <M> + <N> summed over the level distribution."""
    m_vec, n_vec = _spin_expectations(state)
    return m_vec + n_vec


def runge_lenz_expectation(state: CoherentState) -> np.ndarray:
    """<A> = <M> - <N> summed over the level distribution."""
    m_vec, n_vec = _spin_expectations(state)
    return m_vec - n_vec


# --- field export ---------------------------------------------------------

_FMT = "%.17g"


def write_field_csv(path, field: GridField) -> None:
    """CSV rows (x, y, abs_psi, re_psi, im_psi), x varying fastest."""
    axis = field.spec.axis()
    with open(path, "w") as fh:
        fh.write("x,y,abs_psi,re_psi,im_psi\n")
        for iy, y in enumerate(axis):
            for ix, x in enumerate(axis):
                v = field.values[iy, ix]
                fh.write(
                    ",".join(_FMT % q for q in (x, y, abs(v), v.real, v.imag)) + "\n"
                )


def write_field_binary(path, field: GridField) -> None:
    """Compact little-endian dump.

    Header: width (float64), samples (int64), t (float64); then the
    complex values row-major (y outer, x inner) as interleaved
    re, im float64 pairs.  All little-endian.
    """
    with open(path, "wb") as fh:
        np.array([field.spec.width], dtype="<f8").tofile(fh)
        np.array([field.spec.samples], dtype="<i8").tofile(fh)
        np.array([field.t], dtype="<f8").tofile(fh)
        interleaved = np.empty(field.values.size * 2, dtype="<f8")
        interleaved[0::2] = field.values.real.ravel()
        interleaved[1::2] = field.values.imag.ravel()
        interleaved.tofile(fh)


def read_field_binary(path) -> GridField:
    """Inverse of write_field_binary."""
    with open(path, "rb") as fh:
        width = float(np.fromfile(fh, dtype="<f8", count=1)[0])
        samples = int(np.fromfile(fh, dtype="<i8", count=1)[0])
        t = float(np.fromfile(fh, dtype="<f8", count=1)[0])
        raw = np.fromfile(fh, dtype="<f8", count=2 * samples * samples)
    values = (raw[0::2] + 1j * raw[1::2]).reshape(samples, samples)
    return GridField(spec=GridSpec(width=width, samples=samples), t=t, values=values)
