"""Spin coherent states, recoupling coefficients, and their invariants."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from cohere import su2
from cohere.su2 import (
    MAX_RECOUPLING_LEVEL,
    AngularAmplitudes,
    AngularParams,
    clebsch_gordan,
    _cg_from_ints,
    coupling_matrix,
    so4_amplitudes,
    so4_to_spherical,
    spin_expectation,
    stereographic,
    su2_amplitudes,
    su2_overlap,
)


def cg_table_recursion(j1: float, j2: float) -> dict:
    """Independent Clebsch-Gordan oracle.

    Seeds each |L, L> by the null space of the higher-L overlap rows
    (Condon-Shortley sign: the coefficient at maximal m1 is positive) and
    fills lower M with the three-term lowering-operator recursion.  Keys
    are ((two_L, two_M), (two_m1, two_m2)) in doubled-integer units.
    """
    two_j1, two_j2 = round(2 * j1), round(2 * j2)
    table: dict = {}
    for two_L in range(two_j1 + two_j2, abs(two_j1 - two_j2) - 2, -2):
        # basis of the M = L subspace, ascending m1
        two_m1_lo = max(-two_j1, two_L - two_j2)
        two_m1_hi = min(two_j1, two_L + two_j2)
        basis = [(tm1, two_L - tm1) for tm1 in range(two_m1_lo, two_m1_hi + 1, 2)]
        if two_L == two_j1 + two_j2:
            vec = {basis[-1]: 1.0}
        else:
            rows = []
            for two_lp in range(two_j1 + two_j2, two_L, -2):
                higher = table[(two_lp, two_L)]
                rows.append([higher.get(b, 0.0) for b in basis])
            _, _, vt = np.linalg.svd(np.array(rows))
            null = vt[-1]
            if null[-1] < 0:
                null = -null
            vec = {b: float(c) for b, c in zip(basis, null) if abs(c) > 0}
        table[(two_L, two_L)] = vec
        two_M = two_L
        while two_M > -two_L:
            denom = math.sqrt(((two_L + two_M) / 2) * ((two_L - two_M) / 2 + 1))
            nxt: dict = {}
            for (tm1, tm2), c in table[(two_L, two_M)].items():
                if tm1 - 2 >= -two_j1:
                    w = math.sqrt(((two_j1 + tm1) / 2) * ((two_j1 - tm1) / 2 + 1))
                    nxt[(tm1 - 2, tm2)] = nxt.get((tm1 - 2, tm2), 0.0) + c * w
                if tm2 - 2 >= -two_j2:
                    w = math.sqrt(((two_j2 + tm2) / 2) * ((two_j2 - tm2) / 2 + 1))
                    nxt[(tm1, tm2 - 2)] = nxt.get((tm1, tm2 - 2), 0.0) + c * w
            table[(two_L, two_M - 2)] = {k: v / denom for k, v in nxt.items()}
            two_M -= 2
    return table


def racah_sum_mp(two_j, two_m1, two_m2, two_l):
    """<j m1 j m2 | l m1+m2> from the Racah single sum in 60-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    f = lambda two_x: mpmath.factorial(two_x // 2)  # noqa: E731
    two_M = two_m1 + two_m2
    with mpmath.workdps(60):
        pref = (two_l + 1) * f(2 * two_j - two_l) * f(two_l) ** 2 / f(2 * two_j + two_l + 2)
        pref *= f(two_l + two_M) * f(two_l - two_M)
        pref *= f(two_j - two_m1) * f(two_j + two_m1) * f(two_j - two_m2) * f(two_j + two_m2)
        total = mpmath.mpf(0)
        for k in range(two_j - two_l // 2 + 1):
            args = (2 * k, 2 * two_j - two_l - 2 * k, two_j - two_m1 - 2 * k,
                    two_j + two_m2 - 2 * k, two_l - two_j + two_m1 + 2 * k,
                    two_l - two_j - two_m2 + 2 * k)
            if min(args) >= 0:
                total += (-1) ** k / mpmath.fprod(f(a) for a in args)
        return float(mpmath.sqrt(pref) * total)


class TestAmplitudes:
    def test_fiducial_at_zero(self):
        amps = su2_amplitudes(7.5, 0.0)
        assert amps[0] == 1.0
        assert np.all(amps[1:] == 0.0)

    def test_half_spin_at_unit(self):
        amps = su2_amplitudes(0.5, 1.0)
        np.testing.assert_allclose(amps, [1 / math.sqrt(2)] * 2, rtol=1e-14)

    def test_spin_one_at_i(self):
        amps = su2_amplitudes(1.0, 1j)
        np.testing.assert_allclose(
            np.abs(amps), [0.5, 1 / math.sqrt(2), 0.5], rtol=1e-14
        )
        # phases follow zeta^(j+m) = i^(j+m)
        np.testing.assert_allclose(amps, [0.5, 1j / math.sqrt(2), -0.5], atol=1e-15)

    @pytest.mark.parametrize("j", [0.5, 3, 25.5, 100])
    def test_normalized_at_extreme_parameters(self, j):
        rng = np.random.default_rng(int(2 * j))
        for scale in (1e-3, 1.0, 1e3):
            zeta = scale * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            norm = np.sum(np.abs(su2_amplitudes(j, zeta)) ** 2)
            assert abs(norm - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        two_j=hst.integers(min_value=0, max_value=200),
        log10_r=hst.floats(min_value=-8.0, max_value=8.0),
        arg=hst.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_unit_norm_at_extreme_modulus(self, two_j, log10_r, arg):
        amps = su2_amplitudes(two_j / 2.0, cmath.rect(10.0**log10_r, arg))
        assert np.all(np.isfinite(amps))
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) <= 1e-12

    def test_bad_spin_rejected(self):
        with pytest.raises(ValueError):
            su2_amplitudes(0.3, 0.0)

    def test_parameter_array_matches_scalar_calls(self):
        rng = np.random.default_rng(80)
        moduli = np.concatenate([10.0 ** rng.uniform(-6.0, 6.0, 12), [1e-150, 1.0, 1e150]])
        zetas = np.concatenate([[0.0], moduli * np.exp(1j * rng.uniform(-math.pi, math.pi, 15)),
                                -np.tan(np.linspace(0.1, 3.0, 6) / 2.0), [0.0]])
        for two_j in range(81):
            stacked = np.stack([su2_amplitudes(two_j / 2.0, z) for z in zetas], axis=1)
            amps = su2_amplitudes(two_j / 2.0, zetas)
            assert amps.shape == (two_j + 1, zetas.size)
            assert np.max(np.abs(amps - stacked)) <= 1e-15, two_j
        assert su2_amplitudes(2.0, np.complex128(0.5j)).shape == (5,)
        assert su2_amplitudes(2.0, np.array([])).shape == (5, 0)
        with pytest.raises(ValueError):
            su2_amplitudes(2.0, np.zeros((2, 2)))


class TestStereographic:
    def test_north_pole(self):
        assert stereographic(0.0, 1.234) == 0.0

    def test_equator(self):
        assert stereographic(math.pi / 2, 0.0) == pytest.approx(-1.0, abs=1e-15)
        assert stereographic(math.pi / 2, math.pi / 2) == pytest.approx(1j, abs=1e-15)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            stereographic(math.pi, 0.0)

    def test_measured_orientation_is_antipodal(self):
        # the spin expectation of |j, zeta(theta, phi)> points along
        # -(sin th cos ph, sin th sin ph, cos th); pinned by measurement
        for theta, phi in [(0.4, 0.9), (1.3, -2.0), (2.6, 4.0)]:
            j = 6.0
            vec = spin_expectation(j, su2_amplitudes(j, stereographic(theta, phi))) / j
            target = -np.array(
                [
                    math.sin(theta) * math.cos(phi),
                    math.sin(theta) * math.sin(phi),
                    math.cos(theta),
                ]
            )
            np.testing.assert_allclose(vec, target, atol=1e-12)


class TestClebschGordan:
    def test_examples(self):
        inv_sqrt2 = 1 / math.sqrt(2)
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0) == pytest.approx(inv_sqrt2, rel=1e-14)
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(inv_sqrt2, rel=1e-14)
        for j in (0.5, 1, 2.5, 7):
            assert clebsch_gordan(j, j, j, j, 2 * j, 2 * j) == pytest.approx(1.0, abs=1e-12)

    def test_selection_rules_give_zero(self):
        assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0  # triangle violated
        assert clebsch_gordan(1, 1, 1, 1, 2, 0) == 0.0  # M mismatch
        assert clebsch_gordan(1, 2, 1, 0, 2, 2) == 0.0  # projection out of range

    def test_malformed_inputs_raise(self):
        with pytest.raises(ValueError):
            clebsch_gordan(0.3, 0.3, 1, 0, 1, 0.3)
        with pytest.raises(ValueError):
            clebsch_gordan(1, 0.5, 1, 0, 1, 0.5)

    @pytest.mark.parametrize("j1,j2", [(0.5, 0.5), (1, 0.5), (1.5, 1.5), (2, 1), (4, 3)])
    def test_against_recursion_oracle(self, j1, j2):
        oracle = cg_table_recursion(j1, j2)
        for (two_L, two_M), vec in oracle.items():
            for (tm1, tm2), expected in vec.items():
                got = clebsch_gordan(j1, tm1 / 2, j2, tm2 / 2, two_L / 2, two_M / 2)
                assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("j", [0.5, 1, 2.5, 5, 11, 20])
    def test_orthogonality(self, j):
        two_j = round(2 * j)
        dim = two_j + 1
        # rows indexed by (m1, m2), columns by (L, M)
        cols = []
        labels = []
        for two_L in range(0, 2 * two_j + 1, 2):
            for two_M in range(-two_L, two_L + 1, 2):
                col = np.zeros(dim * dim)
                for k1 in range(dim):
                    for k2 in range(dim):
                        tm1, tm2 = 2 * k1 - two_j, 2 * k2 - two_j
                        if tm1 + tm2 != two_M:
                            continue
                        col[k1 * dim + k2] = clebsch_gordan(
                            j, tm1 / 2, j, tm2 / 2, two_L / 2, two_M / 2
                        )
                cols.append(col)
                labels.append((two_L, two_M))
        u = np.column_stack(cols)
        gram = u.T @ u
        assert np.max(np.abs(gram - np.eye(gram.shape[1]))) <= 1e-10

    def test_large_spin_stability(self):
        # values stay finite and bounded by 1 up to j ~ 100
        val = clebsch_gordan(100, 3, 100, -3, 40, 0)
        assert math.isfinite(val) and abs(val) <= 1.0


class TestOverlap:
    @pytest.mark.parametrize("j", [0.5, 2, 10.5, 50])
    def test_closed_form_matches_direct_sum(self, j):
        rng = np.random.default_rng(round(2 * j) + 1)
        for _ in range(8):
            za = complex(rng.normal(), rng.normal()) * rng.uniform(0.05, 20)
            zb = complex(rng.normal(), rng.normal()) * rng.uniform(0.05, 20)
            direct = np.vdot(su2_amplitudes(j, za), su2_amplitudes(j, zb))
            assert abs(direct - su2_overlap(j, za, zb)) <= 1e-10

    def test_antipodal_overlap_vanishes(self):
        # zeta and -1/conj(zeta) are antipodal points
        assert su2_overlap(3, 1.0, -1.0) == 0.0
        z = 0.7 - 0.4j
        anti = -1.0 / z.conjugate()
        assert abs(su2_overlap(3, z, anti)) <= 1e-90


class TestProducts:
    def test_level_one_is_trivial(self):
        amps = so4_amplitudes(1, AngularParams(0.3 + 0.1j, -2.0))
        assert amps.amplitudes.shape == (1, 1)
        assert amps.amplitudes[0, 0] == 1.0

    def test_fiducial_product(self):
        amps = so4_amplitudes(2, AngularParams(0.0, 0.0))
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(amps.amplitudes, expected)

    def test_outer_product_structure(self):
        a = su2_amplitudes(1.0, 1.0)
        b = su2_amplitudes(1.0, -1.0)
        amps = so4_amplitudes(3, AngularParams(1.0, -1.0))
        np.testing.assert_allclose(amps.amplitudes, np.outer(a, b), rtol=1e-14)
        assert amps.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            so4_amplitudes(0, AngularParams(0.0, 0.0))
        with pytest.raises(ValueError):
            AngularParams(complex("inf"), 0.0)
        with pytest.raises(ValueError):
            su2_amplitudes(0.7, 0.0)
        with pytest.raises(ValueError):
            su2_amplitudes(1.0, np.array([0.5, complex("inf")]))


class TestRecoupling:
    def test_level_one(self):
        c = so4_to_spherical(so4_amplitudes(1, AngularParams(0.0, 0.0)))
        assert c.shape == (1, 1)
        assert c[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_stretched_coupling_at_level_two(self):
        c = so4_to_spherical(so4_amplitudes(2, AngularParams(0.0, 0.0)))
        # product of lowest-weight vectors couples purely to (l=1, m=-1)
        assert abs(c[1, 0]) == pytest.approx(1.0, rel=1e-12)
        assert abs(c[0, 0]) <= 1e-14

    def test_unitary_on_random_input(self):
        rng = np.random.default_rng(11)
        for n in (3, 7, 16, 40):
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            raw /= np.linalg.norm(raw)
            amps = AngularAmplitudes(n=n, amplitudes=raw)
            c = so4_to_spherical(amps)
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-10)

    def test_coupling_matrix_cached(self):
        assert coupling_matrix(4, 2) is coupling_matrix(4, 2)

    def test_recoupling_stops_at_the_accurate_levels(self, monkeypatch):
        tables = []

        def zero_table(two_j, two_l):
            tables.append(two_l)
            return np.zeros((two_j + 1, two_j + 1))

        monkeypatch.setattr(su2, "coupling_matrix", zero_table)
        params = AngularParams(0.3, -0.2j)
        n = MAX_RECOUPLING_LEVEL
        assert so4_to_spherical(so4_amplitudes(n, params)).shape == (n, 2 * n - 1)
        assert len(tables) == n
        with pytest.raises(ArithmeticError, match=str(MAX_RECOUPLING_LEVEL)):
            so4_to_spherical(so4_amplitudes(n + 1, params))
        assert len(tables) == n

    def test_racah_sum_within_1e9_up_to_the_limit(self):
        def error(two_j, two_m1, two_m2, two_l):
            got = _cg_from_ints(two_j, two_m1, two_j, two_m2, two_l, two_m1 + two_m2)
            return abs(got - racah_sum_mp(two_j, two_m1, two_m2, two_l))

        two_j = MAX_RECOUPLING_LEVEL - 1
        rng = np.random.default_rng(60)
        for _ in range(40):
            l = int(rng.integers(0, two_j + 1))
            t = int(rng.integers(-l, l + 1)) + two_j  # k1 + k2 for M = t - 2j
            k1 = int(rng.integers(max(0, t - two_j), min(two_j, t) + 1))
            assert error(two_j, 2 * k1 - two_j, 2 * (t - k1) - two_j, 2 * l) <= 1e-9
        # the worst coefficient of level 60 (9.6e-10) and one of level 61 (1.5e-9),
        # found by scanning every coefficient of both levels
        assert MAX_RECOUPLING_LEVEL == 60
        assert error(59, 1, -7, 68) <= 1e-9
        assert error(60, -4, -2, 74) > 1e-9
