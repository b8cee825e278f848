"""Wavefunctions in space: radial functions, harmonics, fields, orbits."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import quad

from cohere import position as P
from cohere.position import (
    BudgetExceededError,
    GridSpec,
    SpatialQuadrature,
    ellipse_to_angular,
    field_on_grid,
    legendre_normalized,
    level_moments,
    orbital_angular_momentum,
    position_expectation,
    position_trace,
    radial,
    read_field_binary,
    runge_lenz_expectation,
    spherical_harmonic,
    spin_vector_gap,
    write_field_binary,
    write_field_csv,
)
from cohere.state import build_state, evolve, reduced_phases, solve_scale_ln
from cohere.su2 import AngularParams, so4_amplitudes, so4_to_spherical
from cohere.weights import WeightSpec


@pytest.fixture(scope="module")
def ellipse_state():
    """Narrow-spread packet at mean level 20 on a 0.385-eccentricity orbit."""
    ln_s = solve_scale_ln(1.0 / 32.0, 20.0)
    return build_state(
        WeightSpec.stretched(1.0 / 32.0), None, 0.0,
        ellipse_to_angular(0.385, 20), ln_s=ln_s,
    )


def small_orbit_state(eccentricity):
    """A packet over levels 1..10 with several occupied levels."""
    return build_state(
        WeightSpec.stretched(0.25), None, 0.0,
        ellipse_to_angular(eccentricity, 3), ln_s=solve_scale_ln(0.25, 3.0),
    )


def dense_position_trace(state, times):
    """Reference trace: every level's wavefunction on every 3-D node at
    default orders, recombined and integrated at each time."""
    n_top = int(state.coeffs.levels.max())
    quad_rule = SpatialQuadrature.for_levels(n_top)
    cos_t = quad_rule.cos_nodes
    sin_t = np.sqrt(np.clip(1.0 - cos_t * cos_t, 0.0, None))
    phi = quad_rule.phi_nodes
    fields = []
    for n in state.coeffs.levels:
        n = int(n)
        g = so4_to_spherical(so4_amplitudes(n, state.angular))
        field = np.zeros((quad_rule.r_nodes.size, cos_t.size, phi.size), dtype=complex)
        for l in range(n):
            angular = np.zeros((cos_t.size, phi.size), dtype=complex)
            for m in range(-l, l + 1):
                p = legendre_normalized(l, abs(m), cos_t, sin_t)[-1]
                if m < 0:
                    p = p * (-1.0) ** (abs(m) % 2)
                angular += g[l, l + m] * np.outer(p, np.exp(1j * m * phi))
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


class TestRadial:
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

    @pytest.mark.parametrize("n", [60, 120, 160])
    def test_high_n_against_extended_precision(self, n):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for l in (0, n // 2, n - 1):
            for r in (0.3 * n * n, 0.9 * n * n, 1.6 * n * n):
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


class TestPlanarField:
    def test_ground_state_is_radial_exponential(self):
        st = build_state(WeightSpec.exponential(), 0.0, 0.0, AngularParams(0.0, 0.0))
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

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(width=0.0, samples=16)
        with pytest.raises(ValueError):
            GridSpec(width=10.0, samples=1)


class TestFieldExport:
    @pytest.fixture()
    def small_field(self):
        st = build_state(WeightSpec.exponential(), 0.0, 0.0, AngularParams(0.0, 0.0))
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

    def test_binary_header_is_little_endian(self, tmp_path, small_field):
        path = tmp_path / "field.bin"
        write_field_binary(path, small_field)
        raw = path.read_bytes()
        assert np.frombuffer(raw[:8], dtype="<f8")[0] == 4.0
        assert np.frombuffer(raw[8:16], dtype="<i8")[0] == 5
        assert np.frombuffer(raw[16:24], dtype="<f8")[0] == 0.25


class TestExpectations:
    def test_ground_state_centered(self):
        st = build_state(WeightSpec.exponential(), 0.0, 0.0, AngularParams(0.0, 0.0))
        x, y = position_expectation(st, 0.0, radial_order=64, polar_order=8,
                                    azimuthal_count=8, r_max=40.0)
        assert abs(x) <= 1e-10 and abs(y) <= 1e-10

    def test_circular_orbit_radius(self):
        # moderate spread localizes the packet azimuthally; the expected
        # position then sits near the classical circular radius n^2
        ln_s = solve_scale_ln(0.25, 16.0)
        st = build_state(
            WeightSpec.stretched(0.25), None, 0.0, ellipse_to_angular(0.0, 16),
            ln_s=ln_s,
        )
        x, y = position_expectation(
            st, 0.0, radial_order=140, polar_order=72, azimuthal_count=132,
            r_max=3.2 * float(st.coeffs.levels.max()) ** 2,
        )
        assert math.hypot(x, y) == pytest.approx(256.0, rel=0.10)

    def test_quadrature_norm_close_to_one(self, ellipse_state):
        row = position_trace(ellipse_state, [0.0])[0]
        assert abs(row[2] - 1.0) <= 1e-3

    def test_rotation_invariance_of_narrow_circular_state(self):
        # essentially single-level circular states have azimuth-independent
        # amplitude on the plane
        ln_s = solve_scale_ln(1.0 / 128.0, 6.0)
        st = build_state(
            WeightSpec.stretched(1.0 / 128.0), None, 0.0,
            ellipse_to_angular(0.0, 6), ln_s=ln_s,
        )
        from cohere.su2 import so4_amplitudes, so4_to_spherical

        r0 = 36.0
        phis = np.linspace(0, 2 * math.pi, 40, endpoint=False)
        psi = np.zeros(phis.size, dtype=complex)
        for c, n in zip(st.coeffs.values, st.coeffs.levels):
            n = int(n)
            g = so4_to_spherical(so4_amplitudes(n, st.angular))
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
        moments = level_moments(st, SpatialQuadrature.for_levels(int(st.coeffs.levels.max())))
        assert moments.shape == (3, st.coeffs.levels.size, st.coeffs.levels.size)
        for m in moments:
            assert np.max(np.abs(m - m.conj().T)) <= 1e-14 * np.max(np.abs(m))

    def test_distinct_levels_are_orthonormal(self):
        st = small_orbit_state(0.385)
        norm = level_moments(st, SpatialQuadrature.for_levels(int(st.coeffs.levels.max())))[2]
        assert np.max(np.abs(norm - np.eye(norm.shape[0]))) <= 1e-9

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
        params = ellipse_to_angular(0.0, 8)
        assert params.zeta1 == 0.0 and params.zeta2 == 0.0

    def test_paper_eccentricity_at_several_levels(self):
        params = ellipse_to_angular(0.385, 20)
        for n in (10, 20, 40):
            assert abs(spin_vector_gap(params, n) - 0.385) <= 1e-6

    def test_extreme_eccentricity_kills_angular_momentum(self):
        params = ellipse_to_angular(0.999999, 12)
        st = build_state(
            WeightSpec.stretched(0.25), None, 0.0, params,
            ln_s=solve_scale_ln(0.25, 12.0),
        )
        vec = orbital_angular_momentum(st)
        assert np.linalg.norm(vec) <= 0.05 * 11.0

    def test_invalid_eccentricity(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                ellipse_to_angular(bad, 10)

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
