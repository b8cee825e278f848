"""Spin coherent states, recoupling coefficients, and their invariants."""
import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from cohere.su2 import (
    AngularParams,
    coupling_matrix,
    recoupled_window,
    so4_to_spherical,
    spin_expectation,
    stereographic,
    su2_amplitudes,
    su2_overlap,
)
from recoupling_oracle import (
    anti_diagonal_sums,
    product_amplitudes,
    recouple_products,
    reference_table,
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


def amplitudes_mp(two_j: int, zeta: complex, dps: int = 40) -> np.ndarray:
    """sqrt(C(2j, k)) zeta^k / (1+|zeta|^2)^j for k = 0..2j in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        z = mpmath.mpc(zeta)
        norm = (1 + abs(z) ** 2) ** (mpmath.mpf(two_j) / 2)
        return np.array([complex(mpmath.sqrt(mpmath.binomial(two_j, k)) * z**k / norm)
                         for k in range(two_j + 1)])


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
            assert abs(norm - 1.0) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(
        two_j=hst.integers(min_value=0, max_value=200),
        log10_r=hst.floats(min_value=-8.0, max_value=8.0),
        arg=hst.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_unit_norm_at_extreme_modulus(self, two_j, log10_r, arg):
        amps = su2_amplitudes(two_j / 2.0, cmath.rect(10.0**log10_r, arg))
        assert np.all(np.isfinite(amps))
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) <= 1e-13

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
            assert amps.tobytes() == stacked.tobytes(), two_j
        assert su2_amplitudes(2.0, np.complex128(0.5j)).shape == (5,)
        assert su2_amplitudes(2.0, np.array([])).shape == (5, 0)
        with pytest.raises(ValueError):
            su2_amplitudes(2.0, np.zeros((2, 2)))

    @pytest.mark.parametrize("two_j", [80, 175, 238, 600])
    def test_matches_40_digit_sum(self, two_j):
        # both sides of |zeta| = 1, the axes, and moduli far from 1
        rng = np.random.default_rng(two_j)
        drawn = 10.0 ** rng.uniform(-0.5, 0.5, 8) * np.exp(1j * rng.uniform(-math.pi, math.pi, 8))
        zetas = np.concatenate([[0.4 - 0.2j, -1.0, 5.0 + 2.0j, -1.1, 1e7j, 1e-7], drawn])
        amps = su2_amplitudes(two_j / 2.0, zetas)
        for column, zeta in zip(amps.T, zetas):
            assert np.max(np.abs(column - amplitudes_mp(two_j, zeta))) <= 5e-15, zeta


class TestStereographic:
    def test_north_pole(self):
        assert stereographic(0.0, 1.234) == 0.0

    def test_equator(self):
        assert stereographic(math.pi / 2, 0.0) == pytest.approx(-1.0, abs=1e-15)
        assert stereographic(math.pi / 2, math.pi / 2) == pytest.approx(1j, abs=1e-15)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            stereographic(math.pi, 0.0)

    def test_spin_expectation_needs_one_amplitude_per_m(self):
        with pytest.raises(ValueError, match="wrong length"):
            spin_expectation(1.0, np.ones(2))

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


def cg(j: float, m1: float, m2: float, L: float) -> float:
    """<j m1 j m2 | L, m1+m2> read from the coupling table."""
    return coupling_matrix(round(2 * j), round(2 * L))[round(j + m1), round(j + m2)]


def sampled_entries(n: int, count: int, seed: int):
    """(k1, k2, 2l) of level n: a third each from the recurrence half
    (M >= 0, k1 >= k2), the exchange half (M >= 0, k1 < k2) and M < 0."""
    two_j = n - 1
    rng = np.random.default_rng(seed)
    picks = []
    for i in range(count):
        l = int(rng.integers(1, n))
        m = int(rng.integers(1, l + 1)) if i % 3 < 2 else -int(rng.integers(1, l + 1))
        t = m + two_j  # k1 + k2
        k1 = int(rng.integers(max(0, t - two_j), min(two_j, t) + 1))
        if (i % 3 == 0) != (2 * k1 >= t):
            k1 = t - k1
        picks.append((k1, t - k1, 2 * l))
    return picks


class TestClebschGordan:
    def test_examples(self):
        inv_sqrt2 = 1 / math.sqrt(2)
        assert cg(0.5, 0.5, -0.5, 1) == pytest.approx(inv_sqrt2, rel=1e-14)
        assert cg(0.5, 0.5, -0.5, 0) == pytest.approx(inv_sqrt2, rel=1e-14)
        assert cg(0.5, -0.5, 0.5, 0) == pytest.approx(-inv_sqrt2, rel=1e-14)
        for j in (0.5, 1, 2.5, 7):
            assert cg(j, j, j, 2 * j) == pytest.approx(1.0, abs=1e-12)

    def test_selection_rules_give_zero(self):
        assert cg(1, 1, 1, 1) == 0.0  # |m1 + m2| > L
        assert cg(1, -1, 0, 0) == 0.0
        assert cg(1, 0, 0, 1) == 0.0  # exchange-odd L at m1 = m2
        assert cg(2.5, 0.5, 0.5, 4) == 0.0

    def test_malformed_inputs_raise(self):
        for two_j, two_l in ((2, 1), (2, 6), (2, -2), (-1, 0)):
            with pytest.raises(ValueError):
                coupling_matrix(two_j, two_l)

    @pytest.mark.parametrize("j1,j2", [(0.5, 0.5), (1, 1), (1.5, 1.5), (3, 3)])
    def test_against_recursion_oracle(self, j1, j2):
        oracle = cg_table_recursion(j1, j2)
        two_j = round(2 * j1)
        for two_L in range(0, 2 * two_j + 1, 2):
            expected = np.zeros((two_j + 1, two_j + 1))
            for two_M in range(-two_L, two_L + 1, 2):
                for (tm1, tm2), value in oracle[(two_L, two_M)].items():
                    expected[(tm1 + two_j) // 2, (tm2 + two_j) // 2] = value
            assert np.max(np.abs(coupling_matrix(two_j, two_L) - expected)) <= 1e-12

    @pytest.mark.parametrize("j", [0.5, 1, 2.5, 5, 11, 20])
    def test_orthogonality(self, j):
        two_j = round(2 * j)
        dim = two_j + 1
        # rows indexed by (m1, m2), columns by (L, M)
        m_sum = np.add.outer(np.arange(dim), np.arange(dim)).ravel() - two_j
        cols = []
        for two_L in range(0, 2 * two_j + 1, 2):
            table = coupling_matrix(two_j, two_L).ravel()
            cols.extend(np.where(m_sum == two_M // 2, table, 0.0)
                        for two_M in range(-two_L, two_L + 1, 2))
        u = np.column_stack(cols)
        gram = u.T @ u
        assert np.max(np.abs(gram - np.eye(gram.shape[1]))) <= 1e-13

    def test_large_spin_stability(self):
        # j = 100 (level 201): finite, bounded by 1 and on the 60-digit sum
        table = coupling_matrix(200, 80)
        assert np.all(np.isfinite(table)) and np.max(np.abs(table)) <= 1.0
        assert abs(cg(100, 3, -3, 40) - racah_sum_mp(200, 6, -6, 80)) <= 1e-14


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

    def test_spin_zero_overlap_is_one_everywhere(self):
        # spin 0 has a single state, so even antipodal parameters overlap fully
        assert su2_overlap(0, 1.0, -1.0) == 1.0
        assert np.array_equal(su2_overlap(np.array([0.0, 0.5, 3.0]), 1.0, -1.0), [1.0, 0.0, 0.0])

    def test_matches_40_digit_closed_form(self):
        # <j,a|j,b> = ((1 + conj(a) b) / sqrt((1+|a|^2)(1+|b|^2)))^(2j), j <= 100,
        # nearby parameters (|overlap| near 1) at moduli from 1e-7 to 1e9
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(100)
        pairs = [(1e8, 1e8 * (1 + 1e-9)), (0.7 - 0.4j, -1.0 / (0.7 + 0.4j))]  # the second is antipodal
        for log10_r in np.linspace(-7.0, 9.0, 17):
            za = cmath.rect(10.0**log10_r, rng.uniform(-math.pi, math.pi))
            shift = 10.0 ** rng.uniform(-12.0, -1.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            pairs.append((za, za * (1 + shift)))
        spins = np.arange(201) / 2.0
        for za, zb in pairs:
            with mpmath.workdps(40):
                a, b = mpmath.mpc(za), mpmath.mpc(zb)
                s = (1 + mpmath.conj(a) * b) / mpmath.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))
                want = np.array([complex(s**two_j) for two_j in range(201)])
            assert np.max(np.abs(su2_overlap(spins, za, zb) - want)) <= 1e-15, (za, zb)

    def test_array_of_spins_matches_direct_sums(self):
        spins = np.arange(0, 41) / 2.0
        za, zb = 0.3 - 1.7j, -2.2 + 0.4j
        direct = [np.vdot(su2_amplitudes(j, za), su2_amplitudes(j, zb)) for j in spins]
        assert np.max(np.abs(su2_overlap(spins, za, zb) - direct)) <= 1e-13


class TestProducts:
    def test_level_one_is_trivial(self):
        amps = product_amplitudes(1, AngularParams(0.3 + 0.1j, -2.0))
        assert amps.shape == (1, 1)
        assert amps[0, 0] == 1.0

    def test_fiducial_product(self):
        amps = product_amplitudes(2, AngularParams(0.0, 0.0))
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(amps, expected)

    def test_outer_product_structure(self):
        a = su2_amplitudes(1.0, 1.0)
        b = su2_amplitudes(1.0, -1.0)
        amps = product_amplitudes(3, AngularParams(1.0, -1.0))
        np.testing.assert_allclose(amps, np.outer(a, b), rtol=1e-14)
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            product_amplitudes(0, AngularParams(0.0, 0.0))
        with pytest.raises(ValueError):
            AngularParams(complex("inf"), 0.0)
        with pytest.raises(ValueError):
            su2_amplitudes(0.7, 0.0)
        with pytest.raises(ValueError):
            su2_amplitudes(1.0, np.array([0.5, complex("inf")]))


class TestRecoupling:
    def test_level_one(self):
        c = so4_to_spherical(1, AngularParams(0.0, 0.0))
        assert c.shape == (1, 1)
        assert c[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_stretched_coupling_at_level_two(self):
        c = so4_to_spherical(2, AngularParams(0.0, 0.0))
        # product of lowest-weight vectors couples purely to (l=1, m=-1);
        # column n-1+m = 1 holds (l=0, m=0)
        assert abs(c[1, 0]) == pytest.approx(1.0, rel=1e-12)
        assert abs(c[0, 1]) <= 1e-14

    @settings(max_examples=20, deadline=None)
    @given(n=hst.integers(min_value=1, max_value=60), seed=hst.integers(0, 2**32 - 1))
    @example(n=120, seed=11)
    @example(n=176, seed=11)
    def test_unitary_on_random_input(self, n, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        raw /= np.linalg.norm(raw)
        c = recouple_products(raw)
        assert abs(np.linalg.norm(c) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 21, 60])
    def test_centred_layout_matches_explicit_sums(self, n):
        # c[l, n-1+m] is the m = k1 + k2 - (n-1) anti-diagonal of W_l * P;
        # columns with |m| > l are exact zeros
        rng = np.random.default_rng(n)
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        c = recouple_products(raw)
        assert c.shape == (n, 2 * n - 1)
        k_sum = np.add.outer(np.arange(n), np.arange(n))
        for l in range(n):
            weighted = coupling_matrix(n - 1, 2 * l) * raw
            for m in range(1 - n, n):
                if abs(m) > l:
                    assert c[l, n - 1 + m] == 0
                else:
                    want = np.sum(weighted[k_sum == n - 1 + m])
                    assert abs(c[l, n - 1 + m] - want) <= 1e-14 * max(1.0, abs(want))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
    def test_rejects_non_square_input(self, shape):
        with pytest.raises(ValueError, match="square"):
            recouple_products(np.ones(shape, dtype=complex))

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            so4_to_spherical(0, AngularParams(0.3, -0.3))

    def test_coupling_matrix_cached(self):
        assert coupling_matrix(4, 2) is coupling_matrix(4, 2)

    @pytest.mark.parametrize("n", [21, 60, 61, 120, 176])
    def test_matches_60_digit_racah_sum(self, n):
        for k1, k2, two_l in sampled_entries(n, 60, seed=n):
            expected = racah_sum_mp(n - 1, 2 * k1 - n + 1, 2 * k2 - n + 1, two_l)
            assert abs(coupling_matrix(n - 1, two_l)[k1, k2] - expected) <= 1e-14

    @pytest.mark.parametrize("n", [176, 601])
    def test_stretched_table_matches_closed_form(self, n):
        # <j m1 j m2 | 2j M>^2 = C(2j, j+m1) C(2j, j+m2) / C(4j, 2j+M); at n = 601
        # the recurrence grows by ~1e180 from the edge, so it must rescale
        mpmath = pytest.importorskip("mpmath")
        two_j = n - 1
        table = coupling_matrix(two_j, 2 * two_j)
        ks = range(0, n, 15)
        with mpmath.workdps(40):
            for k1 in ks:
                for k2 in ks:
                    exact = mpmath.sqrt(mpmath.binomial(two_j, k1) * mpmath.binomial(two_j, k2)
                                        / mpmath.binomial(2 * two_j, k1 + k2))
                    assert abs(table[k1, k2] - float(exact)) <= 1e-14

    def test_each_m_block_is_orthonormal_at_level_176(self):
        two_j = 175
        tables = np.array([coupling_matrix(two_j, 2 * l) for l in range(two_j + 1)])
        for m in range(-two_j, two_j + 1):
            k1 = np.arange(max(0, m), min(two_j, two_j + m) + 1)
            block = tables[abs(m):, k1, m + two_j - k1]  # rows l >= |m|, columns m1
            assert np.max(np.abs(block @ block.T - np.eye(block.shape[0]))) <= 1e-13


def paper_zeta() -> float:
    """tan(beta/2) with sin(beta) = 0.385: the paper's ellipse is (z, -z)."""
    return math.tan(math.asin(0.385) / 2.0)


def paper_ellipse_mp(n: int, z: float, dps: int = 40) -> np.ndarray:
    """so4_to_spherical(n, (z, -z)) from the closed form in mpmath: the
    spin-l part is N (2z)^(d-l) mu(d, l) sqrt((2l)!) (y^2 - z^2 x^2)^l."""
    mpmath = pytest.importorskip("mpmath")
    d = n - 1
    out = np.zeros((n, 2 * n - 1), dtype=complex)
    with mpmath.workdps(dps):
        z = mpmath.mpf(z)
        f = [mpmath.mpf(1)]
        for k in range(1, 2 * n + 1):
            f.append(f[-1] * k)
        power = [(-z * z) ** i for i in range(n)]
        norm = (1 + z * z) ** (-d)
        for l in range(n):
            kappa = (norm * (2 * z) ** (d - l) * f[d] / f[l]
                     * mpmath.sqrt(f[2 * l + 1] / (f[d - l] * f[d + l + 1])))
            for i in range(l + 1):  # C(l, i) (-z^2)^i / sqrt(C(2l, 2i)) at m = 2i - l
                coef = (f[l] / (f[i] * f[l - i]) * power[i]
                        * mpmath.sqrt(f[2 * i] * f[2 * l - 2 * i] / f[2 * l]))
                out[l, d - l + 2 * i] = float(kappa * coef)
    return out


class TestClosedForm:
    """so4_to_spherical against the tables, 40 digits and its own invariants."""

    @pytest.mark.parametrize("n", [1, 2, 5, 21, 60, 120, 176])
    def test_matches_table_contraction(self, n):
        rng = np.random.default_rng(n)
        pairs = [(paper_zeta(), -paper_zeta()), (0.0, 0.0), (0.7, 0.7), (3.0 - 1.0j, 0.2j)]
        pairs += [tuple(complex(*rng.normal(size=2) * 2.0) for _ in range(2)) for _ in range(2)]
        for z1, z2 in pairs:
            params = AngularParams(z1, z2)
            got = so4_to_spherical(n, params)
            assert got.shape == (n, 2 * n - 1)
            assert np.max(np.abs(got - reference_table(n, params))) <= 5e-14, (z1, z2)

    @pytest.mark.parametrize("n", [120, 176])
    def test_paper_ellipse_against_40_digits(self, n):
        z = paper_zeta()
        got = so4_to_spherical(n, AngularParams(z, -z))
        assert np.max(np.abs(got - paper_ellipse_mp(n, z))) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(
        n=hst.integers(min_value=1, max_value=176),
        log10_r=hst.tuples(hst.floats(-8.0, 8.0), hst.floats(-8.0, 8.0)),
        arg=hst.tuples(hst.floats(-math.pi, math.pi), hst.floats(-math.pi, math.pi)),
    )
    @example(n=176, log10_r=(0.0, 0.0), arg=(0.0, math.pi))  # antipodal points
    @example(n=12, log10_r=(-309.0, -309.0), arg=(0.0, math.pi))  # subnormal Delta
    def test_unit_norm_and_exact_zeros(self, n, log10_r, arg):
        zetas = [cmath.rect(10.0**r, a) for r, a in zip(log10_r, arg)]
        c = so4_to_spherical(n, AngularParams(*zetas))
        assert np.all(np.isfinite(c))
        assert abs(np.sum(np.abs(c) ** 2) - 1.0) <= 1e-12
        l, m = np.arange(n)[:, None], np.arange(1 - n, n)
        assert np.all(c[np.abs(m) > l] == 0)

    @pytest.mark.parametrize("zeta", [0.0, 0.4 - 0.2j, -1.0, 5.0 + 2.0j])
    def test_coincident_parameters_keep_only_the_stretched_row(self, zeta):
        # |j, z>|j, z> is the spin-2j coherent state |2j, z>, all in l = 2j;
        # its amplitudes sqrt(C(4j, k)) z^k / (1+|z|^2)^(2j) in 40 digits
        mpmath = pytest.importorskip("mpmath")
        for n in (2, 21, 120):
            d = n - 1
            c = so4_to_spherical(n, AngularParams(zeta, zeta))
            assert np.all(c[:d] == 0)
            with mpmath.workdps(40):
                z = mpmath.mpc(zeta)
                want = [complex(mpmath.sqrt(mpmath.binomial(2 * d, k)) * z**k / (1 + abs(z) ** 2) ** d)
                        for k in range(2 * d + 1)]
            assert np.max(np.abs(c[d] - want)) <= 1e-14

    @pytest.mark.parametrize("n", [21, 176])
    @pytest.mark.parametrize("modulus", [1e7, 1e-7])
    def test_extreme_moduli_match_the_tables(self, n, modulus):
        for z1, z2 in [(modulus * cmath.exp(0.3j), modulus * cmath.exp(-2.1j)),
                       (modulus, modulus * cmath.exp(1e-3j)), (modulus, 1.0 / modulus)]:
            params = AngularParams(z1, z2)
            assert np.max(np.abs(so4_to_spherical(n, params) - reference_table(n, params))) <= 1e-13

    @pytest.mark.parametrize("zetas", [(paper_zeta(), -paper_zeta()), (0.3 - 0.7j, 2.5 + 0.4j)])
    def test_window_rows_are_the_single_level_tables(self, zetas):
        params, levels, n_top = AngularParams(*zetas), np.arange(144, 177), 176
        h, kappa, _ = recoupled_window(levels, params)
        assert h.shape == (n_top, 2 * n_top - 1) and kappa.shape == (levels.size, n_top)
        for i, n in enumerate(levels.tolist()):
            table = kappa[i, :n, None] * h[:n, n_top - n : n_top + n - 1]
            assert np.max(np.abs(table - so4_to_spherical(n, params))) <= 1e-15
            assert np.all(kappa[i, n:] == 0)
        for bad in (np.array([0, 3]), np.array([], dtype=int), np.array([[3]])):
            with pytest.raises(ValueError):
                recoupled_window(bad, params)

    def test_rescale_at_level_1101(self):
        # the unit forms' Delta is 0.47, so Delta^(d-l) spans 1e-360..1:
        # only the power-of-two carries keep the large rows finite and nonzero
        n, params = 1101, AngularParams(0.25, -0.25)
        d = n - 1
        c = so4_to_spherical(n, params)
        assert np.all(np.isfinite(c))
        assert abs(np.sum(np.abs(c) ** 2) - 1.0) <= 1e-12
        stretched = anti_diagonal_sums(coupling_matrix(d, 2 * d), product_amplitudes(n, params))
        assert np.max(np.abs(c[d] - stretched)) <= 1e-13


def test_su2_imports_no_higher_layer():
    # su2 sits below the weights, the state and the spatial and identity
    # code; it takes no log-gamma or state helper from them
    source = Path(__file__).resolve().parents[1] / "src" / "cohere" / "su2.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            if node.module == "cohere":
                imported.update(f"cohere.{alias.name}" for alias in node.names)
    higher = {f"cohere.{name}" for name in ("weights", "state", "position", "identity")}
    assert imported & higher == set()
    assert "cohere.hydrogen" in imported  # the guard reads the module's real imports
