"""Wavefunctions in space: radial functions, harmonics, fields, orbits."""
import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import quad

from cohere import hydrogen
from cohere import position as P
from cohere.position import (
    BudgetExceededError,
    GridField,
    GridSpec,
    SpatialQuadrature,
    ellipse_to_angular,
    field_frames,
    field_on_grid,
    legendre_normalized,
    level_moments,
    orbital_angular_momentum,
    position_expectation,
    position_trace,
    radial,
    read_field_binary,
    runge_lenz_expectation,
    spin_vector_gap,
    write_field_binary,
    write_field_csv,
)
from cohere.state import (
    SpectralCoefficients, build_state, evolve, level_spread, mean_level, reduced_phases, solve_scale_ln,
)
from cohere.su2 import AngularParams, recoupled_window, spin_expectation, su2_amplitudes
from cohere.weights import WeightSpec, _gauss_legendre

from recoupling_oracle import reference_table


@pytest.fixture(scope="module")
def ellipse_state():
    """Narrow-spread packet at mean level 20 on a 0.385-eccentricity orbit."""
    ln_s = solve_scale_ln(1.0 / 32.0, 20.0)
    return build_state(
        WeightSpec.stretched(1.0 / 32.0), 0.0,
        ellipse_to_angular(0.385), ln_s=ln_s,
    )


@pytest.fixture(scope="module")
def paper_state():
    """The paper's worked example: alpha = 1/32, <n> = 160, eccentricity 0.385."""
    return build_state(
        WeightSpec.stretched(1.0 / 32.0), 0.0,
        ellipse_to_angular(0.385), ln_s=solve_scale_ln(1.0 / 32.0, 160.0),
    )


def small_orbit_state(orbit):
    """A packet over levels 1..10 with several occupied levels, on the
    ellipse of eccentricity orbit, or at the AngularParams orbit."""
    angular = orbit if isinstance(orbit, AngularParams) else ellipse_to_angular(orbit)
    return build_state(WeightSpec.stretched(0.25), 0.0, angular, ln_s=solve_scale_ln(0.25, 3.0))


def spherical_harmonic(l, m, theta, phi):
    """Orthonormal Y_{l,m}(theta, phi), Condon-Shortley phase."""
    if abs(m) > l:
        raise ValueError(f"|m| must not exceed l (l={l}, m={m})")
    theta_arr = np.asarray(theta, dtype=float)
    mm = abs(m)
    p = legendre_normalized(l, mm, np.cos(theta_arr), np.sin(theta_arr))[-1]
    y = p * np.exp(1j * mm * np.asarray(phi, dtype=float))
    if m < 0:
        y = (-1.0) ** mm * np.conj(y)
    return complex(y) if np.isscalar(theta) and np.isscalar(phi) else y


def dense_field_on_grid(state, grid, t):
    """Reference planar field: every (n, l, m) term applied to every grid
    point, with the coefficients of the evolved state."""
    axis = grid.axis()
    xx, yy = np.meshgrid(axis, axis)
    r, phi = np.hypot(xx, yy).ravel(), np.arctan2(yy, xx).ravel()
    r_unique, inverse = np.unique(r, return_inverse=True)
    total = np.zeros(r.size, dtype=complex)
    for c_n, n in zip(evolve(state, t).coeffs.values, state.coeffs.levels.tolist()):
        g = reference_table(n, state.angular)
        for l in range(n):
            angular = np.zeros(r.size, dtype=complex)
            for m in range(-l, l + 1):
                theta_part = legendre_normalized(l, abs(m), np.array(0.0), np.array(1.0))[-1]
                if m < 0:
                    theta_part = theta_part * (-1.0) ** (abs(m) % 2)
                angular += g[l, n - 1 + m] * theta_part * np.exp(1j * m * phi)
            total += c_n * radial(n, l, r_unique)[inverse] * angular
    return total.reshape(grid.samples, grid.samples)


@lru_cache(maxsize=None)
def plane_legendre(n_top):
    """P_l^|m|(0) at [|m|, l] for l < n_top, zero for |m| > l; read-only, as it is cached.

    legendre_normalized's recurrence at cos = 0, sin = 1, one step in l for
    every m at once: P_l^l from the running product over m, P_{l+1}^l = 0,
    and P_l^m = -a b P_{l-2}^m below, rounded as legendre_normalized rounds.
    """
    plane = np.zeros((n_top, n_top))
    k = np.arange(1, n_top)
    diagonal = np.cumprod(np.concatenate(([1.0 / math.sqrt(4.0 * math.pi)],
                                          -np.sqrt((2 * k + 1) / (2.0 * k)))))
    np.fill_diagonal(plane, diagonal)
    for l in range(2, n_top):
        m = np.arange(l - 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        plane[m, l] = -a * (b * plane[m, l - 2])
    plane.flags.writeable = False
    return plane


def signed_plane_table(h):
    """A recoupled_window table h times the plane-Legendre factors:
    shared[n_top-1+m, l] = h[l, n_top-1+m] P_l^|m|(0) (-1)^min(m, 0), so that
    sum_m shared[n_top-1+m, l] e^{i m phi} = sum_m h_l(m) Y_{l,m}(pi/2, phi)."""
    n_top = h.shape[0]
    # Y_{l,-m} = (-1)^m conj(Y_{l,m})
    m = np.arange(1 - n_top, n_top)
    return h.T * plane_legendre(n_top)[np.abs(m)] * (-1.0) ** np.minimum(m, 0)[:, None]


def horner_frame(state, grid, t):
    """Reference planar frame by the sum over m: per level, F_n[m] = g_n[m] @
    radials on the unique radii with g_n from signed_plane_table, summed by
    Horner's rule in e^{i phi}, then c(t) . Phi."""
    levels = state.coeffs.levels
    n_top = int(levels.max())
    k, h = grid._offsets()
    kx, ky = np.meshgrid(k, k)
    keys, inverse = np.unique((kx * kx + ky * ky).ravel(), return_inverse=True)
    r_unique = h * np.sqrt(keys)
    phi = np.arctan2(ky, kx).ravel()
    e_iphi = np.exp(1j * phi)
    h_rows, kappa, _ = recoupled_window(levels, state.angular)
    shared = signed_plane_table(h_rows)
    fields = np.empty((levels.size, phi.size), dtype=complex)
    for field, n, k_n in zip(fields, levels.tolist(), kappa):
        radials = np.empty((n, r_unique.size), dtype=complex)
        for l, rows in P._radial_by_degree(np.array([n]), r_unique):
            radials[l] = rows[0]
        g = shared[n_top - n : n_top + n - 1, :n] * k_n[:n]  # F_n[m] = g[n-1+m] @ radials
        field[:] = (g[-1] @ radials)[inverse]
        for row in g[-2::-1]:
            field *= e_iphi
            field += (row @ radials)[inverse]
        field *= np.exp(-1j * (n - 1) * phi)
    return (evolve(state, t).coeffs.values @ fields).reshape(grid.samples, grid.samples)


def dense_position_trace(state, times):
    """Reference trace: every level's wavefunction on every 3-D node at
    default orders, recombined and integrated at each time."""
    n_top = int(state.coeffs.levels.max())
    quad_rule = SpatialQuadrature.for_levels(n_top)
    cos_t = quad_rule.cos_nodes
    sin_t = np.sqrt(np.clip(1.0 - cos_t * cos_t, 0.0, None))
    phi = np.arange(quad_rule.n_phi) * (2.0 * math.pi / quad_rule.n_phi)
    fields = []
    for n in state.coeffs.levels:
        n = int(n)
        g = reference_table(n, state.angular)
        field = np.zeros((quad_rule.r_nodes.size, cos_t.size, phi.size), dtype=complex)
        for l in range(n):
            angular = np.zeros((cos_t.size, phi.size), dtype=complex)
            for m in range(-l, l + 1):
                p = legendre_normalized(l, abs(m), cos_t, sin_t)[-1]
                if m < 0:
                    p = p * (-1.0) ** (abs(m) % 2)
                angular += g[l, n - 1 + m] * np.outer(p, np.exp(1j * m * phi))
            field += radial(n, l, quad_rule.r_nodes)[:, None, None] * angular[None, :, :]
        fields.append(field)

    r = quad_rule.r_nodes
    w3 = (
        (quad_rule.r_weights * r * r)[:, None, None]
        * quad_rule.cos_weights[None, :, None]
        * np.full(quad_rule.n_phi, 2.0 * math.pi / quad_rule.n_phi)[None, None, :]
    )
    x3 = r[:, None, None] * sin_t[None, :, None] * np.cos(phi)[None, None, :]
    y3 = r[:, None, None] * sin_t[None, :, None] * np.sin(phi)[None, None, :]
    rows = []
    for t in times:
        c = state.coeffs.values * np.exp(1j * reduced_phases(-t, state.level_energies))
        psi = sum(amp * field for amp, field in zip(c, fields))
        dens = (psi.real**2 + psi.imag**2) * w3
        rows.append(((dens * x3).sum(), (dens * y3).sum(), dens.sum()))
    return np.asarray(rows)


def _log_sign(v, carry):
    with np.errstate(divide="ignore"):
        log_mag = np.where(v != 0, np.log(np.abs(np.where(v != 0, v, 1.0))), -np.inf)
    return log_mag + carry, np.sign(v)


def laguerre_log_reference(k_top, a, x):
    """(log|L|, sign) of the associated Laguerre polynomial L^(a)_{k_top}(x):
    the upward recurrence in the degree, with a per-point log carry and its
    rescale test written out on masks at every step."""
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


def reference_radial(n, l, r):
    """R_{n,l}(r) from the Laguerre closed form, one degree recurrence per (n, l)."""
    x = 2.0 * np.asarray(r, dtype=float) / n
    log_lag, sign = laguerre_log_reference(n - l - 1, 2 * l + 1, x)
    log_pref = (1.5 * math.log(2.0 / n) - 0.5 * math.log(2.0 * n)
                + 0.5 * (math.lgamma(n - l) - math.lgamma(n + l + 1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_x_pow = np.where(x > 0, l * np.log(np.where(x > 0, x, 1.0)), 0.0 if l == 0 else -np.inf)
    return sign * np.exp(log_pref + log_x_pow - x / 2.0 + log_lag)


def rows_by_degree(levels, r):
    """{l: rows} from every step of position._radial_by_degree."""
    return dict(P._radial_by_degree(np.asarray(levels), r))


class TestRadial:
    @pytest.mark.parametrize("n", [1, 2, 3, 20, 60, 120, 150, 176])
    def test_rows_match_degree_recurrence(self, n):
        # the default radial rule of level n reaches past its outer turning
        # point, where the degree recurrence passes 1e150 and rescales
        r = np.concatenate([[0.0], P._radial_rule(n)[0]])
        for l, rows in rows_by_degree([n], r).items():
            want = reference_radial(n, l, r)
            assert np.max(np.abs(rows[0] - want)) <= 5e-13 * np.max(np.abs(want)), (n, l)

    def test_lockstep_rows_match_single_level_bitwise(self):
        levels = [3, 7, 8, 20, 33, 40]
        r = np.concatenate([[0.0], P._radial_rule(40)[0]])
        together = rows_by_degree(levels, r)
        assert list(together) == list(range(39, -1, -1))
        for i, n in enumerate(levels):
            single = rows_by_degree([n], r)
            for l, rows in together.items():
                if n > l:
                    np.testing.assert_array_equal(rows[i], single[l][0])
                else:
                    assert not rows[i].any(), (n, l)

    @pytest.mark.parametrize("n", [1, 2, 20, 176, 400])
    def test_value_at_origin(self, n):
        # R_{n,0}(0) = 2 n^{-3/2}; every l > 0 row vanishes like r^l
        for l, rows in rows_by_degree([n], np.zeros(1)).items():
            if l:
                assert rows[0, 0] == 0.0
            else:
                assert rows[0, 0] == pytest.approx(2.0 * n**-1.5, rel=1e-12)

    def test_ground_state(self):
        for r in (0.0, 1.0, 2.0):
            assert radial(1, 0, r) == pytest.approx(2.0 * math.exp(-r), rel=1e-12)

    def test_first_excited_p(self):
        assert radial(2, 1, 2.0) == pytest.approx(
            2.0 * math.exp(-1.0) / math.sqrt(24.0), rel=1e-12
        )

    def test_quantum_number_validation(self):
        for n, l in [(0, 0), (3, 3), (2, -1)]:
            with pytest.raises(ValueError):
                radial(n, l, 1.0)
        with pytest.raises(ValueError):
            radial(1, 0, -1.0)

    def test_norm_by_adaptive_quadrature(self):
        val, _ = quad(lambda r: radial(30, 10, r) ** 2 * r * r, 0, 4000, limit=400)
        assert abs(val - 1.0) <= 1e-8

    def test_orthonormality_shared_nodes(self):
        nodes, w = np.polynomial.legendre.leggauss(500)
        r = 0.5 * (nodes + 1.0) * 900.0
        w = 0.5 * 900.0 * w
        for l in (0, 3, 7):
            rows = np.array([radial(n, l, r) for n in range(l + 1, 13)])
            gram = (rows * (w * r * r)) @ rows.T
            assert np.max(np.abs(gram - np.eye(rows.shape[0]))) <= 1e-8

    def test_default_rule_integrates_every_row(self):
        # the cutoff must hold the l = 0 tail of the top level ...
        for n in range(1, 41):
            r, w = P._radial_rule(n)
            norms = np.array([(w * r**2) @ radial(n, l, r) ** 2 for l in range(n)])
            assert np.max(np.abs(norms - 1.0)) <= 1e-13, n
            # bench/spans.py counts SpatialQuadrature's nodes as the orbit trace's
            rule = SpatialQuadrature.for_levels(n)
            assert rule.r_nodes.tobytes() == r.tobytes() and rule.r_weights.tobytes() == w.tobytes()
        # ... while the nodes near r = 0 still resolve the lowest levels
        for n_top in (10, 16, 26, 40):
            r, w = P._radial_rule(n_top)
            norms = np.array([(w * r**2) @ radial(n, l, r) ** 2
                              for n in range(1, n_top + 1) for l in range(n)])
            assert np.max(np.abs(norms - 1.0)) <= 2e-13, n_top

    @pytest.mark.parametrize("n", [60, 120, 160, 176, 400])
    def test_high_n_against_extended_precision(self, n):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for l in (0, n // 2, n - 1):
            # 2.5 n^2 and 3.5 n^2 lie past the outer turning point
            for r in (0.3 * n * n, 0.9 * n * n, 1.6 * n * n, 2.5 * n * n, 3.5 * n * n):
                k, a, x = n - l - 1, 2 * l + 1, mpmath.mpf(2.0 * r / n)
                log_pref = (
                    1.5 * mpmath.log(mpmath.mpf(2) / n)
                    - 0.5 * mpmath.log(2 * mpmath.mpf(n))
                    + 0.5 * (mpmath.loggamma(n - l) - mpmath.loggamma(n + l + 1))
                )
                exact = mpmath.exp(log_pref - x / 2 + l * mpmath.log(x)) * mpmath.laguerre(k, a, x)
                got = radial(n, l, float(r))
                if abs(exact) > mpmath.mpf(1e-250):
                    assert got == pytest.approx(float(exact), rel=1e-10)


class TestSphericalHarmonics:
    def test_constant_mode(self):
        assert spherical_harmonic(0, 0, 0.4, 1.7) == pytest.approx(
            1.0 / math.sqrt(4 * math.pi), rel=1e-14
        )

    def test_dipole_mode(self):
        theta = 0.8
        assert spherical_harmonic(1, 0, theta, 0.3) == pytest.approx(
            math.sqrt(3.0 / (4 * math.pi)) * math.cos(theta), rel=1e-14
        )

    def test_sectoral_high_degree_closed_form(self):
        l = 150
        got = spherical_harmonic(l, l, math.pi / 2, 0.0)
        log_mag = 0.5 * math.log((2 * l + 1) / (4 * math.pi))
        for k in range(1, l + 1):
            log_mag += 0.5 * (math.log(2 * k - 1) - math.log(2 * k))
        assert abs(got) == pytest.approx(math.exp(log_mag), rel=1e-8)
        assert got.real == pytest.approx((-1.0) ** l * abs(got), rel=1e-8)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            spherical_harmonic(2, 3, 0.1, 0.2)

    def test_negative_order_relation(self):
        l, m, theta, phi = 5, 3, 1.1, 0.7
        plus = spherical_harmonic(l, m, theta, phi)
        minus = spherical_harmonic(l, -m, theta, phi)
        assert minus == pytest.approx((-1) ** m * np.conj(plus), rel=1e-13)

    def test_orthonormal_blocks(self):
        nodes, w = np.polynomial.legendre.leggauss(64)
        for m in (0, 1, 5, 17):
            rows = legendre_normalized(25, m, nodes, np.sqrt(1 - nodes**2))
            gram = 2 * math.pi * (rows * w) @ rows.T
            assert np.max(np.abs(gram - np.eye(rows.shape[0]))) <= 1e-10

    @pytest.mark.parametrize("n_top", [1, 2, 7, 200])
    def test_plane_table_is_the_per_order_recurrence(self, n_top):
        # the test helper plane_legendre runs all orders at once
        plane = plane_legendre(n_top)
        for m in range(n_top):
            np.testing.assert_array_equal(plane[m, m:], legendre_normalized(n_top - 1, m, 0.0, 1.0))
            assert not plane[m, :m].any()

    def test_rows_do_not_depend_on_top_degree(self):
        # the orbit moments take row l - m of one top-degree table per m
        nodes, _ = np.polynomial.legendre.leggauss(16)
        sin_t = np.sqrt(1 - nodes**2)
        for m in (0, 3, 9):
            table = legendre_normalized(20, m, nodes, sin_t)
            for l in range(m, 21):
                np.testing.assert_array_equal(
                    table[l - m], legendre_normalized(l, m, nodes, sin_t)[-1])

    def test_cross_order_orthogonality_on_product_grid(self):
        nodes, w = np.polynomial.legendre.leggauss(64)
        theta = np.arccos(nodes)
        phi = np.arange(128) * (2 * math.pi / 128)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        ww = np.outer(w, np.full(128, 2 * math.pi / 128))
        for (l1, m1), (l2, m2) in [((4, 2), (4, -1)), ((9, 3), (7, 5)), ((12, -4), (12, 4))]:
            y1 = spherical_harmonic(l1, m1, tt, pp)
            y2 = spherical_harmonic(l2, m2, tt, pp)
            val = np.sum(ww * y1 * np.conj(y2))
            assert abs(val) <= 1e-10


class TestPlaneIdentity:
    """su2's plane identity, against the plane-Legendre sum over m: row l of
    a recoupled_window table, sum_m h_l(m) Y_{l,m}(pi/2, phi), is c_l Q_l(s)
    times 2**f[l], s = x2 e^{i phi} - y2 e^{-i phi}, with the returned plane
    (x2, y2, Delta^2, f) and Bonnet's (l+1) Q_{l+1} = (2l+1) s Q_l - l Delta^2 Q_{l-1}."""

    @pytest.mark.parametrize("params", [
        ellipse_to_angular(0.0), ellipse_to_angular(0.385), ellipse_to_angular(0.9),
        AngularParams(0.3 + 0.4j, -1.7 + 2.2j), AngularParams(2.5 - 1.1j, 0.2 - 0.6j),
        AngularParams(0.6 - 0.3j, 0.6 - 0.3j),  # Delta = 0
        AngularParams(1e-3, 1e3),  # x2 and y2 near 1e-3: their l-th powers underflow
    ], ids=["eps0", "eps0.385", "eps0.9", "small-big", "big-small", "equal", "1e-3,1e3"])
    def test_rows_are_legendre_polynomials(self, params):
        # the largest error relative to each row's peak over l <= 176 measured
        # 8.2e-14 (at eps = 0.9), 5.6e-15 at (1e-3, 1e3); the bound is 2e-13
        n_top = 177
        h, _, (x2, y2, delta_sq, f) = recoupled_window(np.array([n_top]), params)
        phi = np.linspace(-math.pi, math.pi, 96, endpoint=False) + 0.1
        m = np.arange(1 - n_top, n_top)
        rows = signed_plane_table(h).T @ np.exp(1j * np.outer(m, phi))
        s = x2 * np.exp(1j * phi) - y2 * np.exp(-1j * phi)
        q_below, q, c = np.zeros_like(s), np.ones_like(s), 1.0 / math.sqrt(4.0 * math.pi)
        for l in range(n_top):
            want = c * 2.0 ** f[l] * q
            assert np.max(np.abs(rows[l] - want)) <= 2e-13 * np.max(np.abs(rows[l])), l
            q_below, q = q, ((2 * l + 1) * s * q - l * delta_sq * q_below) / (l + 1)
            c *= -math.sqrt((2 * l + 3) * (2 * l + 2)) / (2 * (2 * l + 1))


class TestPlanarField:
    def test_ground_state_is_radial_exponential(self):
        st = build_state(WeightSpec.exponential(), 0.0, AngularParams(0.0, 0.0), ln_s=-math.inf)
        grid = GridSpec(width=8.0, samples=21)
        field = field_on_grid(st, grid, 0.0)
        axis = grid.axis()
        xx, yy = np.meshgrid(axis, axis)
        expected = 2.0 * np.exp(-np.hypot(xx, yy)) / math.sqrt(4 * math.pi)
        np.testing.assert_allclose(field.values, expected, rtol=1e-12, atol=1e-15)

    def test_initial_lump_sits_at_perihelion(self, ellipse_state):
        grid = GridSpec(width=1300.0, samples=61)
        field = field_on_grid(ellipse_state, grid, 0.0)
        dens = np.abs(field.values) ** 2
        iy, ix = np.unravel_index(np.argmax(dens), dens.shape)
        axis = grid.axis()
        # classical perihelion at +x: a(1 - eps) = 246
        assert 150.0 <= axis[ix] <= 330.0
        assert abs(axis[iy]) <= 2.1 * (grid.width / (grid.samples - 1))

    def test_budget_refusal(self, ellipse_state):
        with pytest.raises(BudgetExceededError) as err:
            field_on_grid(ellipse_state, GridSpec(width=100.0, samples=64), 0.0, budget=10)
        assert err.value.cost > 10
        assert "raise the budget" in str(err.value)
        # the budget is checked when the frames are requested, not at the first frame
        with pytest.raises(BudgetExceededError):
            field_frames(ellipse_state, GridSpec(width=100.0, samples=64), [0.0], budget=10)

    @pytest.mark.parametrize("orbit", [0.0, 0.385, 0.8, 1e-8, 0.99,
                                       pytest.param(AngularParams(1e-3, 1e3), id="1e-3,1e3")])
    def test_frames_match_dense_oracle(self, orbit):
        st = small_orbit_state(orbit)
        assert int(st.coeffs.levels.max()) <= 10
        t_revival = hydrogen.revival_time(mean_level(st, principal=True))
        times = [0.0, t_revival / 5, t_revival,
                 float(np.random.default_rng(3).uniform(0.0, t_revival))]
        grid = GridSpec(width=80.0, samples=41)
        frames = list(field_frames(st, grid, times))
        assert [f.t for f in frames] == times
        for t, frame in zip(times, frames):
            want = dense_field_on_grid(st, grid, t)
            peak = np.max(np.abs(want))
            assert np.max(np.abs(frame.values - want)) <= 1e-12 * peak
            single = field_on_grid(st, grid, t).values
            assert np.max(np.abs(single - want)) <= 1e-12 * peak
        # real angular parameters: |psi(x, -y)| = |psi(x, y)| at t = 0
        mag = np.abs(frames[0].values)
        assert np.max(np.abs(mag - mag[::-1, :])) <= 1e-12 * np.max(mag)

    @pytest.mark.parametrize("orbit", [pytest.param(AngularParams(1e-3, 1e3), id="1e-3,1e3"),
                                       pytest.param(ellipse_to_angular(0.999), id="eps0.999")])
    def test_frames_stay_finite_past_a_thousand_levels(self, orbit):
        # nearly orthogonal spins: T_l(s) falls like 2**-l, and unscaled Clenshaw
        # weights overflowed past l ~ 1024.  Levels 1098..1100 against the sum over
        # m (measured 2.8e-19 and 2.1e-15 of the peak)
        coeffs = SpectralCoefficients(n_min=1097, probabilities=np.array([0.25, 0.5, 0.25]),
                                      phase=np.array([0.0, 1.0, 2.0]))
        st = dataclasses.replace(small_orbit_state(0.385), angular=orbit, coeffs=coeffs)
        grid = GridSpec(width=3e6, samples=5)
        (frame,) = field_frames(st, grid, [0.0])
        want = horner_frame(st, grid, 0.0)
        assert np.max(np.abs(frame.values - want)) <= 1e-13 * np.max(np.abs(want))

    def test_level_work_is_done_once_per_schedule(self, monkeypatch):
        # one recoupling for the whole window, one radial pass per level
        st = small_orbit_state(0.385)
        windows, radial_levels = [], []
        recouple, by_degree = P.recoupled_window, P._radial_by_degree
        monkeypatch.setattr(P, "recoupled_window",
                            lambda levels, params: windows.append(levels.tolist()) or recouple(levels, params))
        monkeypatch.setattr(P, "_radial_by_degree",
                            lambda levels, r: radial_levels.append(levels.tolist()) or by_degree(levels, r))
        frames = list(field_frames(st, GridSpec(width=40.0, samples=9), [0.0, 1.0, 2.0]))
        assert len(frames) == 3
        levels = st.coeffs.levels.tolist()
        assert len(levels) > 1
        assert windows == [levels]
        assert radial_levels == [[n] for n in levels]

    @pytest.mark.parametrize("width", [40000.0, 400.0])
    def test_equal_radii_share_one_radial_row(self, monkeypatch, width):
        # 40000/300 is not a binary fraction, so hypot radii of mirrored
        # points differ by an ulp; the integer keys kx^2 + ky^2 of a 301^2
        # grid take 8,001 distinct values whatever the width
        st = small_orbit_state(0.385)
        grid = GridSpec(width=width, samples=301)
        sizes, by_degree = [], P._radial_by_degree
        monkeypatch.setattr(P, "_radial_by_degree",
                            lambda levels, r: sizes.append(r.size) or by_degree(levels, r))
        frame = field_on_grid(st, grid, 0.0)
        assert set(sizes) == {8001}
        want = dense_field_on_grid(st, grid, 0.0)  # on the np.unique(np.hypot(x, y)) radii
        assert np.max(np.abs(frame.values - want)) <= 1e-13 * np.max(np.abs(want))

    def test_axis_is_antisymmetric_and_on_the_evaluated_points(self, monkeypatch):
        # 40000/300 is not a binary fraction; the written axis must still be
        # the radii evaluated on the centre row, exactly, and mirror exactly
        st = small_orbit_state(0.385)
        grid = GridSpec(width=40000.0, samples=301)
        radii, by_degree = [], P._radial_by_degree
        monkeypatch.setattr(P, "_radial_by_degree",
                            lambda levels, r: radii.append(r) or by_degree(levels, r))
        field_on_grid(st, grid, 0.0)
        axis = grid.axis()
        np.testing.assert_array_equal(axis, -axis[::-1])
        assert axis[150] == 0.0
        assert np.all(np.isin(axis[150:], radii[0]))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(width=0.0, samples=16)
        with pytest.raises(ValueError):
            GridSpec(width=10.0, samples=1)

    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, -1.0])
    def test_width_must_be_finite_and_positive(self, width):
        with pytest.raises(ValueError, match="grid width"):
            GridSpec(width=width, samples=5)


class TestOneEvolution:
    """Frames and traces take c(t) from evolve, so evolving first and
    sampling at t = 0 gives the same bits."""

    @pytest.fixture(scope="class")
    def case(self):
        st = build_state(WeightSpec.stretched(1.0 / 32.0), 0.25, ellipse_to_angular(0.385),
                         ln_s=solve_scale_ln(1.0 / 32.0, 20.0))
        return st, 0.37 * hydrogen.revival_time(20.0)

    def test_frames(self, case):
        st, t = case
        grid = GridSpec(width=1300.0, samples=21)
        (now,), (later,) = field_frames(st, grid, [t]), field_frames(evolve(st, t), grid, [0.0])
        assert now.values.tobytes() == later.values.tobytes()

    def test_trace(self, case):
        st, t = case
        assert position_trace(st, [t]).tobytes() == position_trace(evolve(st, t), [0.0]).tobytes()


class TestFieldExport:
    @pytest.fixture()
    def small_field(self):
        st = build_state(WeightSpec.exponential(), 0.0, AngularParams(0.0, 0.0), ln_s=-math.inf)
        return field_on_grid(st, GridSpec(width=4.0, samples=5), 0.25)

    def test_csv_layout(self, tmp_path, small_field):
        path = tmp_path / "field.csv"
        write_field_csv(path, small_field)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,y,abs_psi,re_psi,im_psi"
        assert len(lines) == 1 + 25
        x0, y0, mag, re, im = (float(v) for v in lines[1].split(","))
        assert (x0, y0) == (-2.0, -2.0)
        assert mag == pytest.approx(math.hypot(re, im), rel=1e-15)

    def test_binary_round_trip(self, tmp_path, small_field):
        path = tmp_path / "field.bin"
        write_field_binary(path, small_field)
        back = read_field_binary(path)
        assert back.spec == small_field.spec
        assert back.t == small_field.t
        np.testing.assert_array_equal(back.values, small_field.values)

    def test_strided_values_are_checked_without_a_copy(self, small_field):
        # a transposed view has no contiguous last axis to view as floats
        values = small_field.values.T
        assert not values.flags.c_contiguous
        assert GridField(small_field.spec, 0.25, values).values is values
        values = values.copy().T
        values[1, 2] = complex(0.0, math.nan)
        with pytest.raises(ValueError, match="finite"):
            GridField(small_field.spec, 0.25, values)

    def test_binary_with_a_nan_width_is_refused(self, tmp_path, small_field):
        path = tmp_path / "field.bin"
        write_field_binary(path, small_field)
        raw = bytearray(path.read_bytes())
        raw[:8] = np.array([math.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="grid width"):
            read_field_binary(path)

    def test_binary_header_is_little_endian(self, tmp_path, small_field):
        path = tmp_path / "field.bin"
        write_field_binary(path, small_field)
        raw = path.read_bytes()
        assert np.frombuffer(raw[:8], dtype="<f8")[0] == 4.0
        assert np.frombuffer(raw[8:16], dtype="<i8")[0] == 5
        assert np.frombuffer(raw[16:24], dtype="<f8")[0] == 0.25


class TestExpectations:
    def test_ground_state_centered(self):
        st = build_state(WeightSpec.exponential(), 0.0, AngularParams(0.0, 0.0), ln_s=-math.inf)
        x, y = position_expectation(st, 0.0)
        assert abs(x) <= 1e-10 and abs(y) <= 1e-10

    def test_circular_orbit_radius(self):
        # moderate spread localizes the packet azimuthally; the expected
        # position then sits near the classical circular radius n^2
        ln_s = solve_scale_ln(0.25, 16.0)
        st = build_state(
            WeightSpec.stretched(0.25), 0.0, ellipse_to_angular(0.0),
            ln_s=ln_s,
        )
        x, y = position_expectation(st, 0.0)
        assert math.hypot(x, y) == pytest.approx(256.0, rel=0.10)

    def test_quadrature_norm_close_to_one(self, ellipse_state):
        row = position_trace(ellipse_state, [0.0])[0]
        assert abs(row[2] - 1.0) <= 1e-3

    def test_no_times_give_no_rows(self, ellipse_state):
        assert position_trace(ellipse_state, []).shape == (0, 3)

    def test_refuses_a_quadrature_that_loses_the_norm(self, monkeypatch):
        # a 64-node rule cut at r = 0.5 holds only ~8% of the ground state's probability
        def cut_rule(n_top):
            x, w = _gauss_legendre(64)
            u = 0.5 * (x + 1.0)
            return 0.5 * u * u, 0.5 * u * w

        monkeypatch.setattr(P, "_radial_rule", cut_rule)
        st = build_state(WeightSpec.exponential(), 0.0, AngularParams(0.0, 0.0), ln_s=-math.inf)
        norm = position_trace(st, [0.0])[0, 2]
        assert norm == pytest.approx(0.080, abs=5e-3)
        with pytest.raises(ArithmeticError):
            position_expectation(st, 0.0)

    def test_refuses_a_nan_norm(self, monkeypatch):
        st = build_state(WeightSpec.exponential(), 0.0, AngularParams(0.0, 0.0), ln_s=-math.inf)
        monkeypatch.setattr(P, "position_trace", lambda *args: np.array([[0.0, 0.0, math.nan]]))
        with pytest.raises(ArithmeticError):
            position_expectation(st, 0.0)

    def test_rotation_invariance_of_narrow_circular_state(self):
        # essentially single-level circular states have azimuth-independent
        # amplitude on the plane
        ln_s = solve_scale_ln(1.0 / 128.0, 6.0)
        st = build_state(
            WeightSpec.stretched(1.0 / 128.0), 0.0,
            ellipse_to_angular(0.0), ln_s=ln_s,
        )
        r0 = 36.0
        phis = np.linspace(0, 2 * math.pi, 40, endpoint=False)
        psi = np.zeros(phis.size, dtype=complex)
        for c, n in zip(st.coeffs.values, st.coeffs.levels):
            n = int(n)
            g = reference_table(n, st.angular)
            l = n - 1
            psi += c * g[l, 0] * radial(n, l, r0) * spherical_harmonic(
                l, -l, math.pi / 2, phis
            )
        mags = np.abs(psi)
        assert mags.std() / mags.mean() <= 0.02


class TestLevelMoments:
    @pytest.mark.parametrize("eccentricity", [0.0, 0.385, 0.8])
    def test_trace_matches_dense_fields(self, eccentricity):
        st = small_orbit_state(eccentricity)
        n_top = int(st.coeffs.levels.max())
        assert n_top <= 10
        period = 2.0 * math.pi * 3.0**3
        times = [0.0] + list(np.random.default_rng(7).uniform(0.0, 3.0 * period, 4))
        got = position_trace(st, times)
        want = dense_position_trace(st, times)
        assert np.max(np.abs(got[:, :2] - want[:, :2])) <= 1e-12 * n_top**2
        assert np.max(np.abs(got[:, 2] - want[:, 2])) <= 1e-12

    def test_moments_are_hermitian(self):
        st = small_orbit_state(0.385)
        moments = level_moments(st)
        assert moments.shape == (3, st.coeffs.levels.size, st.coeffs.levels.size)
        for m in moments:
            assert np.max(np.abs(m - m.conj().T)) <= 1e-14 * np.max(np.abs(m))

    def test_raising_ladder_matches_quadrature(self):
        # sin(theta) e^{i phi} Y_{l,m} projected on every Y_{l',m+1} with l' <= l + 2;
        # the integrands are polynomials in cos(theta) of degree <= 25
        nodes, w = np.polynomial.legendre.leggauss(24)
        tt, pp = np.meshgrid(np.arccos(nodes), np.arange(48) * (2 * math.pi / 48), indexing="ij")
        ww = np.outer(w, np.full(48, 2 * math.pi / 48))
        for l in range(12):
            up, down = P._raising_ladder(l)
            for m in range(-l, l + 1):
                raised = np.sin(tt) * np.exp(1j * pp) * spherical_harmonic(l, m, tt, pp)
                for l2 in range(abs(m + 1), l + 3):
                    got = np.sum(ww * np.conj(spherical_harmonic(l2, m + 1, tt, pp)) * raised)
                    want = {l + 1: up[l + m], l - 1: down[l + m]}.get(l2, 0.0)
                    assert abs(got - want) <= 1e-14, (l, m, l2)
                if abs(m + 1) > l - 1:
                    assert down[l + m] == 0.0

    @settings(max_examples=20, deadline=None)
    @given(eccentricity=hst.floats(min_value=0.0, max_value=0.9, exclude_max=True))
    def test_pauli_relation_on_each_level(self, eccentricity):
        # within level n, r = -(3/2) n A, and the state's <A> is eccentricity * (n - 1) along +x
        st = small_orbit_state(eccentricity)
        x, y, _ = level_moments(st)
        n = st.coeffs.levels.astype(float)
        assert np.max(np.abs(np.diag(x) + 1.5 * n * (n - 1) * eccentricity) / n**2) <= 1e-13
        assert np.max(np.abs(np.diag(y)) / n**2) <= 1e-13

    def test_recoupling_is_done_once_per_call(self, monkeypatch):
        st = small_orbit_state(0.385)
        windows, recouple = [], P.recoupled_window
        monkeypatch.setattr(P, "recoupled_window",
                            lambda levels, params: windows.append(levels.tolist()) or recouple(levels, params))
        level_moments(st)
        assert windows == [st.coeffs.levels.tolist()]

    def test_distinct_levels_are_orthonormal(self):
        st = small_orbit_state(0.385)
        norm = level_moments(st)[2]
        assert np.max(np.abs(norm - np.eye(norm.shape[0]))) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(
        t1=hst.floats(min_value=-1e4, max_value=1e4),
        t2=hst.floats(min_value=-1e4, max_value=1e4),
    )
    def test_evolution_group_law(self, t1, t2):
        st = small_orbit_state(0.385)
        direct = position_trace(st, [t1 + t2])
        stepped = position_trace(evolve(st, t1), [t2])
        np.testing.assert_allclose(stepped, direct, rtol=0.0, atol=1e-10)


class TestEllipseMapping:
    def test_circular_limit(self):
        params = ellipse_to_angular(0.0)
        assert params.zeta1 == 0.0 and params.zeta2 == 0.0

    def test_paper_eccentricity_at_several_levels(self):
        params = ellipse_to_angular(0.385)
        assert abs(spin_vector_gap(params) - 0.385) <= 1e-6
        # <J> of |j, zeta> is j times the spin-1/2 direction at every level
        for n in (10, 20, 40):
            j = (n - 1) / 2.0
            for zeta in (params.zeta1, params.zeta2):
                per_level = spin_expectation(j, su2_amplitudes(j, zeta))
                assert np.max(np.abs(per_level - j * P._spin_direction(zeta))) <= 1e-12

    def test_state_averages_match_the_level_sum(self, ellipse_state):
        m_sum = np.zeros(3)
        n_sum = np.zeros(3)
        for n, p in zip(ellipse_state.coeffs.levels, ellipse_state.coeffs.probabilities):
            j = (int(n) - 1) / 2.0
            m_sum += p * spin_expectation(j, su2_amplitudes(j, ellipse_state.angular.zeta1))
            n_sum += p * spin_expectation(j, su2_amplitudes(j, ellipse_state.angular.zeta2))
        for got, want in ((orbital_angular_momentum(ellipse_state), m_sum + n_sum),
                          (runge_lenz_expectation(ellipse_state), m_sum - n_sum)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_extreme_eccentricity_kills_angular_momentum(self):
        params = ellipse_to_angular(0.999999)
        st = build_state(
            WeightSpec.stretched(0.25), 0.0, params,
            ln_s=solve_scale_ln(0.25, 12.0),
        )
        vec = orbital_angular_momentum(st)
        assert np.linalg.norm(vec) <= 0.05 * 11.0

    def test_invalid_eccentricity(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                ellipse_to_angular(bad)

    def test_angular_momentum_along_z(self, ellipse_state):
        vec = orbital_angular_momentum(ellipse_state)
        assert abs(vec[0]) <= 1e-8 * abs(vec[2])
        assert abs(vec[1]) <= 1e-8 * abs(vec[2])
        # finite-parameter representative points along -z (mirror orbit)
        assert vec[2] < 0

    def test_runge_lenz_toward_positive_x(self, ellipse_state):
        vec = runge_lenz_expectation(ellipse_state)
        assert vec[0] > 0
        assert abs(vec[1]) <= 1e-10 and abs(vec[2]) <= 1e-10
        # |<A>| / (n-1) equals the configured eccentricity per level
        mean_two_j = float(
            np.sum(st_p := ellipse_state.coeffs.probabilities * (ellipse_state.coeffs.levels - 1))
        )
        assert vec[0] == pytest.approx(0.385 * mean_two_j, rel=1e-6)


class TestPaperScale:
    """The paper's state (levels 144-176) through the planar and orbit paths."""

    def test_initial_lump_and_mirror_symmetry(self, paper_state):
        # the lump sits at the grid point nearest a(1 - eps) = 15,744 on +x:
        # (15,600, 0) at spacing 400
        frame = field_on_grid(paper_state, GridSpec(width=40000.0, samples=101), 0.0)
        mag = np.abs(frame.values)
        iy, ix = np.unravel_index(np.argmax(mag), mag.shape)
        axis = frame.spec.axis()
        assert (axis[ix], axis[iy]) == (pytest.approx(15600.0), pytest.approx(0.0))
        assert np.max(np.abs(mag - mag[::-1, :])) <= 1e-12 * mag[iy, ix]

    def test_long_time_mean_of_x(self, paper_state):
        # over many Kepler periods only the diagonal of the x moment
        # survives: <x> averages to -(3/2) eps sum_n p_n n(n - 1)
        n = paper_state.coeffs.levels
        reference = -1.5 * 0.385 * np.sum(paper_state.coeffs.probabilities * n * (n - 1.0))
        period = 2.0 * math.pi * mean_level(paper_state, principal=True) ** 3
        times = np.random.default_rng(7).uniform(0.0, 50.0 * period, 256)
        x = position_trace(paper_state, times)[:, 0]
        standard_error = np.std(x, ddof=1) / math.sqrt(x.size)
        assert abs(reference - -14694.5) <= 0.05
        assert abs(np.mean(x) - reference) <= 4.0 * standard_error

    def test_trace_norm_and_initial_mirror(self, paper_state):
        mean = mean_level(paper_state, principal=True)
        period = 2.0 * math.pi * mean**3
        times = [0.0, *np.random.default_rng(7).uniform(0.0, period, 64)]
        rows = position_trace(paper_state, times)
        assert rows.shape == (65, 3)
        assert np.max(np.abs(rows[:, 2] - 1.0)) <= 1e-12
        assert abs(rows[0, 1]) <= 1e-9 * mean**2

    def test_level_moments_follow_the_pauli_relation(self, paper_state):
        # within level n, r = -(3/2) n A, and <A> is 0.385 (n - 1) along +x
        levels = paper_state.coeffs.levels
        x, y, norm = level_moments(paper_state)
        n = levels.astype(float)
        assert np.max(np.abs(np.diag(x) + 1.5 * n * (n - 1) * 0.385) / n**2) <= 5e-13
        assert np.max(np.abs(np.diag(y)) / n**2) <= 5e-13
        assert np.max(np.abs(norm - np.eye(n.size))) <= 1e-12

    def test_frame_matches_the_sum_over_m(self, paper_state):
        # the Clenshaw sum over l against the Horner sum over m, at T_r/3
        # (measured 2.6e-14 of the peak)
        grid = GridSpec(width=90000.0, samples=61)
        t = hydrogen.revival_time(160) / 3
        frame, want = field_on_grid(paper_state, grid, t), horner_frame(paper_state, grid, t)
        assert np.max(np.abs(frame.values - want)) <= 1e-13 * np.max(np.abs(want))

    def test_fractional_revivals_sit_on_the_kepler_ellipse(self, paper_state):
        # At t = T_r/q the quadratic phase e^{i pi k^2/q}, k = n - 160, has
        # period P = 2q in k, so the packet splits into copies s of weight
        # |b_s|^2, b_s = (1/P) sum_{k<P} e^{i pi k^2/q} e^{2 pi i k s/P}, at
        # mean anomaly omega t + 2 pi s/P on the clockwise Kepler ellipse
        # (a = 160^2, perihelion on +x).  omega = 1/n0^3 + 6 sigma^2/n0^5
        # takes the cubic term's mean shift; without it the copies drift.
        n0, eps = 160, 0.385
        a = float(n0 * n0)
        t_revival = hydrogen.revival_time(n0)
        omega = 1.0 / n0**3 + 6.0 * level_spread(paper_state) ** 2 / n0**5
        grid = GridSpec(width=90000.0, samples=101)  # holds the aphelion at -35,456
        axis = grid.axis()
        fractions = range(1, 6)
        frames = field_frames(paper_state, grid, [t_revival / q for q in fractions])
        for q, frame in zip(fractions, frames):
            # peaks: 5x5 local maxima of |psi|^2 above 10 % of the frame's maximum;
            # their count is not q (at T_r/3 one copy shows two)
            density = np.abs(frame.values) ** 2
            windows = sliding_window_view(np.pad(density, 2, constant_values=-1.0), (5, 5))
            iy, ix = np.nonzero((density == windows.max(axis=(2, 3))) & (density > 0.1 * density.max()))
            period = 2 * q
            k = np.arange(period)
            weights = [abs(np.mean(np.exp(1j * math.pi * k * k / q + 2j * math.pi * k * s / period))) ** 2
                       for s in range(period)]
            copies = [s for s, weight in enumerate(weights) if weight > 1e-9]
            assert len(copies) == q
            for s in copies:
                anomaly = omega * t_revival / q + 2.0 * math.pi * s / period
                ecc = anomaly  # eccentric anomaly from M = E - eps sin E by Newton steps
                for _ in range(20):
                    ecc -= (ecc - eps * math.sin(ecc) - anomaly) / (1.0 - eps * math.cos(ecc))
                x, y = a * (math.cos(ecc) - eps), -a * math.sqrt(1.0 - eps * eps) * math.sin(ecc)
                assert np.min(np.hypot(axis[ix] - x, axis[iy] - y)) <= 0.1 * a, (q, s)


def kepler_ensemble(alpha, ln_s, eps, times, clockwise=True):
    """The classical ensemble sum_n p_n r_K(n, t), without the package.

    p_n is proportional to s^{2(n-1)} n^2 / Gamma(n/alpha) at principal
    number n, and r_K(n, t) is the Kepler orbit of a = n^2 and
    eccentricity eps, focus at the origin and perihelion on +x, at mean
    anomaly M = -t/n^3 (clockwise) or +t/n^3.  Returns (x, y) arrays.
    """
    n = np.arange(1.0, 2000.0)
    log_p = 2.0 * (n - 1.0) * ln_s + 2.0 * np.log(n) - np.array([math.lgamma(k / alpha) for k in n])
    p = np.exp(log_p - log_p.max())
    n, p = n[p > 1e-18], p[p > 1e-18] / p.sum()
    anomaly = np.outer(times, (-1.0 if clockwise else 1.0) / n**3)
    ecc = anomaly.copy()  # eccentric anomaly from M = E - eps sin E by Newton steps
    for _ in range(30):
        ecc -= (ecc - eps * np.sin(ecc) - anomaly) / (1.0 - eps * np.cos(ecc))
    a = n * n
    return (a * (np.cos(ecc) - eps)) @ p, (a * math.sqrt(1.0 - eps * eps) * np.sin(ecc)) @ p


class TestSemiClassicalMotion:
    """<r>(t) over the first three Kepler periods against the classical
    ensemble, at 121 times (alpha = 1/32, eccentricity 0.385), in units of
    a = <n>^2.  The worst point is always t = 0, where the packet's <x>
    sits inside the ensemble's perihelion."""

    @staticmethod
    @lru_cache(maxsize=None)
    def misses(mean):
        """|<r> - ensemble| / a at each time, against the clockwise and
        the counter-clockwise ensemble."""
        alpha, eps = 1.0 / 32.0, 0.385
        ln_s = solve_scale_ln(alpha, float(mean))
        st = build_state(WeightSpec.stretched(alpha), 0.0, ellipse_to_angular(eps), ln_s=ln_s)
        times = np.linspace(0.0, 3.0 * 2.0 * math.pi * mean**3, 121)
        rows = position_trace(st, times)
        return tuple(np.hypot(rows[:, 0] - x, rows[:, 1] - y) / mean**2
                     for x, y in (kepler_ensemble(alpha, ln_s, eps, times, clockwise)
                                  for clockwise in (True, False)))

    def test_paper_state_follows_the_clockwise_ensemble(self):
        # measured at <n> = 160: largest miss 0.0632 (at t = 0), mean 0.0272;
        # counter-clockwise motion misses by up to 1.81
        miss, counter = self.misses(160)
        assert np.argmax(miss) == 0
        assert miss.max() <= 0.07
        assert miss.mean() <= 0.03
        assert counter.max() >= 1.5

    @pytest.mark.parametrize("mean", [40, 80, 160])
    def test_miss_shrinks_like_one_over_mean(self, mean):
        # <n> times the largest miss, measured: 8.19, 9.32 and 10.12
        assert mean * self.misses(mean)[0].max() <= 11.0
