"""Position-space evaluation: eigenfunctions, planar fields, orbit traces.

Radial functions come from one recurrence in l, downward with a per-point
log-magnitude carry (_radial_by_degree), so that principal quantum numbers
of a few hundred stay finite.

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

Planar frames and orbit traces take time only through the coefficients
c(t) of evolve(state, t).  A grid frame is c(t) . Phi, where row n of Phi,
level n on the plane, is sum_l kappa_l(n) c_l R_{n,l}(r) T_l(s) by su2's
plane identity, summed by Clenshaw's recurrence (Math. Tables Aids Comput.
9, 118 (1955)) down in l beside the radial one on the unique radii (keyed
on the integer squared grid offsets, so equal radii merge exactly).  Phi is
built once for a whole schedule; beyond it the working set is O(points).

Orbit traces never form the wavefunction in 3-D.  Each level-pair moment
takes its angular factor from algebra: <l m|l' m'> = delta_ll' delta_mm',
and sin(theta) e^{i phi} takes (l, m) only to (l+1, m+1) and (l-1, m+1)
(the dipole selection rules, with the Condon-Shortley ladder coefficients
of _raising_ladder).  Only the radial integrals use a quadrature, one rule
fixed by the top level (_radial_rule).  A loop down over l then adds, into
the L x L level matrices (L occupied levels),

    N += (r^2 Gram of the degree-l rows R_{n,l}) * |h_l|^2 conj(kappa_l) kappa_l^T
    P += (r^3 Gram of degrees l and l+1)
         * <h_l | ladder-shifted h_{l+1}> conj(kappa_l) kappa_{l+1}^T
         and the same with l and l+1 exchanged

since level n's amplitudes g_n(l, -l..l) are kappa_l(n) h_l, and * is the
elementwise product.  Then X = (P + P^H)/2 and Y = (P - P^H)/(2i) are the
x and y moments.  Memory is O(n_top^2 + L^2 + L * radial nodes), with no
array over angular nodes.  Each time step of a trace is the quadratic form
c(t)^H M c(t).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cohere.state import _FMT, CoherentState, _write_csv, evolve, mean_level
from cohere.su2 import (  # so4_to_spherical is bound here for bench/spans.py, which wraps it
    AngularParams,
    recoupled_window,
    so4_to_spherical,
    spin_expectation,
    stereographic,
    su2_amplitudes,
)
from cohere.weights import _gauss_legendre, _lgamma

#: default ceiling on (max level)^2 * samples^2 for planar grid runs
DEFAULT_GRID_BUDGET = 10**9


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
        if not 0 < self.width < math.inf:  # false for nan as well
            raise ValueError(f"grid width must be positive and finite, got {self.width}")
        if self.samples < 2:
            raise ValueError("grid needs at least 2 samples per side")

    def _offsets(self) -> tuple[np.ndarray, float]:
        """(k, h): sample i sits at k[i] * h, with the integer k = 2i - (samples - 1)
        and h half the spacing, so the axis is exactly antisymmetric."""
        return 2 * np.arange(self.samples) - (self.samples - 1), self.width / (2.0 * (self.samples - 1))

    def axis(self) -> np.ndarray:
        k, h = self._offsets()
        return h * k


@dataclass(frozen=True)
class GridField:
    """Complex field sampled on a planar grid; values[iy, ix]."""

    spec: GridSpec
    t: float
    values: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.values).all():
            raise ValueError("field values must be finite")


def radial(n: int, l: int, r) -> np.ndarray | float:
    """Normalized bound radial function R_{n,l}(r) in atomic units.

    Satisfies integral of R^2 r^2 dr = 1; row l of _radial_by_degree([n], r).
    """
    if n < 1 or l < 0 or l > n - 1:
        raise ValueError(f"invalid quantum numbers (n={n}, l={l})")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("r must be nonnegative")
    for degree, rows in _radial_by_degree(np.array([n]), r_arr.ravel()):
        if degree == l:
            out = rows[0].reshape(r_arr.shape)
            return float(out) if np.isscalar(r) else out


def _radial_by_degree(levels: np.ndarray, r: np.ndarray):
    """Yield (l, rows) for l = max(levels) - 1 down to 0: rows[i] is
    R_{levels[i], l}(r), exactly 0 for levels[i] <= l (levels ascending).

    With x = 2r/n, u_l = R_{n,l} / x^l obeys the factorization recurrence
    (Schroedinger 1940; Infeld & Hull 1951), stable downward in l:

        k_l u_{l-1} = (2l+1)(2/n - x/(l(l+1))) u_l - k_{l+1} x^2 u_{l+1},
        k_l = sqrt(n^2 - l^2) / (n l).

    Level n joins at its nodeless row u_{n-1} = (2/n)^{3/2} e^{-x/2} /
    sqrt((2n)!), held in a per-point log carry that also takes each rescale.
    """
    n = levels.astype(float)[:, None]
    x = 2.0 * r / n
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
    carry = 1.5 * np.log(2.0 / n) - 0.5 * _lgamma(2.0 * n + 1.0) - 0.5 * x
    u = np.zeros_like(x)  # u_l
    above = np.zeros_like(x)  # u_{l+1}
    for l in range(int(levels.max()) - 1, -1, -1):
        live = slice(np.searchsorted(levels, l + 1), None)
        u[levels == l + 1] = 1.0  # level l + 1 joins at its nodeless row
        rows = np.zeros((levels.size, r.size))
        # x^l is 1 for l = 0, even at r = 0
        rows[live] = u[live] * np.exp(carry[live] + l * log_x[live] if l else carry[live])
        yield l, rows
        if l == 0:
            return
        nn = n[live]
        k_l = np.sqrt(nn * nn - l * l) / (nn * l)
        k_above = np.sqrt(nn * nn - (l + 1) ** 2) / (nn * (l + 1))
        below = ((2 * l + 1) * (2.0 / nn - x[live] / (l * (l + 1))) * u[live]
                 - k_above * x[live] ** 2 * above[live]) / k_l
        if np.abs(below).max() > 1e150:
            pair = np.maximum(np.abs(below), np.abs(u[live]))
            scale = np.where(pair > 1e150, pair, 1.0)
            below /= scale
            u[live] /= scale
            carry[live] += np.log(scale)
        above[live] = u[live]
        u[live] = below


def legendre_normalized(l_max: int, m: int, cos_theta, sin_theta) -> np.ndarray:
    """Fully normalized associated Legendre values for degrees m..l_max.

    Returns an array of shape (l_max - m + 1, ...) whose row i is the
    theta part of Y_{m+i, m}; multiply by exp(i m phi) for the full
    harmonic.  Stable to degree ~200.  Nothing in the package calls it: it
    is the tests' reference, and bench/spans.py wraps it (ROADMAP item 1).
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


def field_frames(state: CoherentState, grid: GridSpec, times, budget: int = DEFAULT_GRID_BUDGET):
    """The wavefunction on the z = 0 plane at each of the given times.

    Checks the budget and builds Phi (see the module docstring) at the
    call; the returned iterator yields one GridField per time."""
    levels = state.coeffs.levels
    n_top = int(levels.max())
    cost = n_top * n_top * grid.samples * grid.samples
    if cost > budget:
        raise BudgetExceededError(cost, budget)

    # point (ix, iy) sits at (kx, ky) * h; equal radii share one key kx^2 + ky^2
    k, h = grid._offsets()
    kx, ky = np.meshgrid(k, k)  # values[iy, ix]
    keys, inverse = np.unique((kx * kx + ky * ky).ravel(), return_inverse=True)
    r_unique = h * np.sqrt(keys)
    phi = np.arctan2(ky, kx).ravel()
    _, kappa, (x2, y2, delta_sq, row_exp) = recoupled_window(levels, state.angular)
    s = x2 * np.exp(1j * phi) - y2 * np.exp(-1j * phi)
    # Clenshaw for level n's row sum_l w_l R_{n,l} T_l(s), w_l = kappa_l(n) c_l 2**row_exp[l]:
    # b_l = w_l R_{n,l} + s b_{l+1} - (l+1)^2/((2l+1)(2l+3)) Delta^2 b_{l+2}, and the row is b_0
    c = np.cumprod(np.r_[0.5 / math.sqrt(math.pi), -np.sqrt(1.0 + 0.5 / np.arange(1.0, n_top))])
    fields = np.empty((levels.size, phi.size), dtype=complex)
    for field, n, w_n in zip(fields, levels.tolist(), kappa * (c * np.exp2(row_exp))):
        b, above = np.zeros((2, phi.size), dtype=complex)
        for l, rows in _radial_by_degree(np.array([n]), r_unique):
            above *= -(l + 1) ** 2 / ((2 * l + 1) * (2 * l + 3)) * delta_sq
            above += s * b + (w_n[l] * rows[0])[inverse]
            b, above = above, b
        field[:] = b
    shape = (grid.samples, grid.samples)
    return (GridField(spec=grid, t=t, values=(evolve(state, t).coeffs.values @ fields).reshape(shape))
            for t in times)


def field_on_grid(
    state: CoherentState,
    grid: GridSpec,
    t: float,
    budget: int = DEFAULT_GRID_BUDGET,
) -> GridField:
    """The wavefunction on the z = 0 plane at time t; see field_frames."""
    return next(field_frames(state, grid, [t], budget))


# --- full 3-D quadrature -------------------------------------------------


def _radial_rule(n_top: int) -> tuple[np.ndarray, np.ndarray]:
    """(r, w): the orbit moments' radial nodes and weights for levels up to n_top.

    The cutoff r_max = 4 n_top^2 + 16 n_top holds the l = 0 tail of level
    n_top.  The nodes r = r_max u^2, with u Gauss-Legendre on [0, 1] of order
    max(96, 4 n_top), are uniform in u like the WKB phase and still resolve
    level 1 near r = 0.
    """
    r_max = 4.0 * n_top * n_top + 16.0 * n_top
    x, w = _gauss_legendre(max(96, 4 * n_top))
    u = 0.5 * (x + 1.0)
    return r_max * u * u, r_max * u * w


@dataclass(frozen=True)
class SpatialQuadrature:
    """Product rule: _radial_rule in r, Gauss-Legendre in cos(theta),
    trapezoid in phi.

    Nothing in the package builds it: orbit moments call _radial_rule
    directly.  It stays for bench/spans.py's quadrature-node count and the
    dense test oracle."""

    r_nodes: np.ndarray
    r_weights: np.ndarray
    cos_nodes: np.ndarray
    cos_weights: np.ndarray
    n_phi: int

    @classmethod
    def for_levels(cls, n_top: int) -> "SpatialQuadrature":
        return cls(*_radial_rule(n_top), *_gauss_legendre(2 * n_top + 12), 4 * n_top + 8)


def _raising_ladder(l: int) -> tuple[np.ndarray, np.ndarray]:
    """(up, down) over m = -l..l with sin(theta) e^{i phi} Y_{l,m} =
    up[m] Y_{l+1,m+1} + down[m] Y_{l-1,m+1} (Condon-Shortley phase)."""
    m = np.arange(-l, l + 1)
    up = -np.sqrt((l + m + 1) * (l + m + 2) / ((2 * l + 1) * (2 * l + 3)))
    down = np.sqrt((l - m) * (l - m - 1) / ((2 * l - 1) * (2 * l + 1)))
    return up, down


def level_moments(state: CoherentState) -> np.ndarray:
    """Level-pair moment matrices of the state's occupied levels.

    Returns an array of shape (3, L, L) holding the Hermitian matrices
    X, Y and N over the L occupied levels: entry [i, k] is the integral
    of conj(psi_i) psi_k times x, y and 1, where psi_i is the i-th
    level's eigenfunction with its recoupled angular amplitudes.  The
    angular integrals are the dipole selection rules and only the radial
    integrals use a quadrature, _radial_rule of the top level; see the
    module docstring.
    """
    levels = state.coeffs.levels
    n_top = int(levels.max())
    # ahead of the recoupling: built after it, the rule's cold scratch raised peak memory 1.5 MB
    r, w = _radial_rule(n_top)
    h, kappa, _ = recoupled_window(levels, state.angular)
    w_norm = w * r * r
    w_first = w_norm * r
    norm = np.zeros((levels.size, levels.size), dtype=complex)
    plus = np.zeros_like(norm)  # sin(theta) e^{i phi} moment, x + i y
    for l, rad in _radial_by_degree(levels, r):
        # level n's amplitudes g_n(l, -l..l) are kappa_l(n) h_l, zero for levels n <= l
        h_l, k_l = h[l, n_top - 1 - l : n_top + l], kappa[:, l]
        up, down = _raising_ladder(l)
        norm += ((rad * w_norm) @ rad.T) * (np.vdot(h_l, h_l) * np.outer(k_l.conj(), k_l))
        if l < n_top - 1:
            cross = (rad * w_first) @ rad_above.T  # [i, k]: R_{n_i,l} R_{n_k,l+1} r^3
            # <l, m+1| from |l+1, m>, m = -l-1..l-1, and <l+1, m+1| from |l, m>
            plus += cross * (np.vdot(h_l, lowered_above[:-2]) * np.outer(k_l.conj(), k_above))
            plus += cross.T * (np.vdot(h_above[2:], h_l * up) * np.outer(k_above.conj(), k_l))
        rad_above, h_above, k_above, lowered_above = rad, h_l, k_l, h_l * down
    return np.stack([0.5 * (plus + plus.conj().T), -0.5j * (plus - plus.conj().T), norm])


def position_trace(state: CoherentState, times) -> np.ndarray:
    """(<x>, <y>, norm) rows for each requested time.

    The level-pair moment matrices are built once from the radial rule
    and the dipole selection rules; each time step is then the quadratic
    form c(t)^H M c(t) of the evolved level coefficients, so dense orbit
    traces cost little more than a single evaluation.
    """
    moments = level_moments(state)
    rows = []
    for t in np.atleast_1d(np.asarray(times, dtype=float)):
        c = evolve(state, t).coeffs.values
        rows.append(np.einsum("i,kij,j->k", c.conj(), moments, c).real)
    return np.asarray(rows).reshape(-1, 3)


def position_expectation(state: CoherentState, t: float) -> tuple[float, float]:
    """(<x>, <y>) at time t from the normalized orbit trace row."""
    row = position_trace(state, [t])[0]
    if not row[2] >= 0.5:  # a nan norm fails too
        raise ArithmeticError(f"quadrature norm {row[2]:.3g} is far from 1")
    return row[0] / row[2], row[1] / row[2]


def ellipse_to_angular(eccentricity: float) -> AngularParams:
    """Angular parameters for a Kepler ellipse of the given eccentricity.

    With beta = arcsin(eccentricity), the two spins are placed at the
    finite-parameter mirror representative described in the module
    docstring: Runge-Lenz expectation along +x with magnitude
    2 j sin(beta), angular momentum along z (pointing -z), for every
    level.
    """
    if not 0.0 <= eccentricity < 1.0:
        raise ValueError("eccentricity must lie in [0, 1)")
    beta = math.asin(eccentricity)
    return AngularParams(
        zeta1=stereographic(beta, math.pi),
        zeta2=stereographic(beta, 0.0),
    )


def _spin_direction(zeta: complex) -> np.ndarray:
    """<J>/j of |j, zeta>, the same unit vector for every j > 0."""
    return 2.0 * spin_expectation(0.5, su2_amplitudes(0.5, zeta))


def spin_vector_gap(params: AngularParams) -> float:
    """|<M> - <N>| / (2j) of the two-spin factor, the same at every level n >= 2.

    Half the distance between the two spin directions.  Equals the
    eccentricity produced by ellipse_to_angular; the scaled Runge-Lenz
    expectation per unit spin length.
    """
    return float(np.linalg.norm(_spin_direction(params.zeta1) - _spin_direction(params.zeta2)) / 2.0)


def _spin_expectations(state: CoherentState) -> tuple[np.ndarray, np.ndarray]:
    """(<M>, <N>): the two spin expectations averaged over the levels.

    Level n carries spins j = (n-1)/2 whose expectations are j times a
    direction that does not depend on j, so each average is the mean j,
    half the mean summation index, times that direction.
    """
    mean_j = mean_level(state) / 2.0
    return (mean_j * _spin_direction(state.angular.zeta1),
            mean_j * _spin_direction(state.angular.zeta2))


def orbital_angular_momentum(state: CoherentState) -> np.ndarray:
    """<L> = <M> + <N> summed over the level distribution."""
    m_vec, n_vec = _spin_expectations(state)
    return m_vec + n_vec


def runge_lenz_expectation(state: CoherentState) -> np.ndarray:
    """<A> = <M> - <N> summed over the level distribution."""
    m_vec, n_vec = _spin_expectations(state)
    return m_vec - n_vec


# --- field export ---------------------------------------------------------

def write_field_csv(path, field: GridField) -> None:
    """CSV rows (x, y, abs_psi, re_psi, im_psi), x varying fastest."""
    axis = field.spec.axis()
    values = field.values.ravel()
    with open(path, "w") as fh:
        _write_csv(fh, "x,y,abs_psi,re_psi,im_psi", ",".join([_FMT] * 5), (
            np.tile(axis, axis.size), np.repeat(axis, axis.size),
            np.hypot(values.real, values.imag), values.real, values.imag,
        ))


# The binary frame: this header, then the values row-major (y outer,
# x inner) as interleaved re, im float64 pairs, all little-endian.
_FRAME_HEADER = np.dtype([("width", "<f8"), ("samples", "<i8"), ("t", "<f8")])
_FRAME_VALUE = np.dtype("<c16")


def write_field_binary(path, field: GridField) -> None:
    """Compact little-endian dump: header width (float64), samples
    (int64), t (float64), then the complex values row-major."""
    with open(path, "wb") as fh:
        np.array((field.spec.width, field.spec.samples, field.t), dtype=_FRAME_HEADER).tofile(fh)
        field.values.astype(_FRAME_VALUE, copy=False).tofile(fh)


def read_field_binary(path) -> GridField:
    """Inverse of write_field_binary.  A file whose size is not that of
    the frame its header describes raises ValueError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    start = _FRAME_HEADER.itemsize
    if len(raw) < start:
        raise ValueError(f"field file {path} holds {len(raw)} bytes; expected a {start}-byte header")
    header = np.frombuffer(raw, dtype=_FRAME_HEADER, count=1)[0]
    samples = int(header["samples"])
    expected = start + samples * samples * _FRAME_VALUE.itemsize
    if len(raw) != expected:
        raise ValueError(
            f"field file {path} holds {len(raw)} bytes; expected {expected} for {samples}^2 samples")
    values = np.frombuffer(raw, dtype=_FRAME_VALUE, offset=start).astype(complex)
    return GridField(spec=GridSpec(width=float(header["width"]), samples=samples),
                     t=float(header["t"]), values=values.reshape(samples, samples))
