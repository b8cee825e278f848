"""Resolution-of-identity checks: sphere rule, radial rule, block assembly, report."""
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from cohere import cli, hydrogen, identity
from cohere.identity import (
    MAX_LEVELS,
    TOLERANCE,
    InsufficientOrderError,
    _azimuthal_sums,
    _moment_ratio_by_quadrature,
    _radial_factor,
    _sphere_overlap_matrix,
    full_identity_matrix,
    gamma_average,
    standard_verification,
    verify_radial_identity,
    verify_su2_identity,
)
from cohere.su2 import su2_amplitudes
from cohere.weights import WeightSpec, _gauss_legendre, log_moment

FAMILIES = [WeightSpec(1.0), WeightSpec(1.0 / 32.0)]
MODES = [None, 1e3]  # exact-limit phase average, finite window
ORDERS = (24, 48)  # standard_verification's polar order and azimuthal count
COMBINED = "combined identity (exact-limit phase average)"
FINITE = "finite-window off-diagonal bound"
SRC = Path(__file__).resolve().parents[1] / "src"

# the radial rule's gamma-density orders: small, half-integer (exponential
# combined identity), 32(n+1) (radial check at alpha = 1/32), 16(k+2)
# (combined identity at alpha = 1/32), and two far beyond
RADIAL_BETAS = sorted(
    {0.01, 0.05, 0.1, 0.25, 0.5, 0.75}
    | {k / 2.0 for k in range(2, 41)}
    | {32.0 * (n + 1) for n in range(11)}
    | {16.0 * (k + 2) for k in range(12)}
    | {1000.0, 5000.0}
)

VERIFY_FAMILIES = {
    "exponential": ["--family", "exponential"],
    "stretched": ["--family", "stretched", "--alpha", "0.03125"],
}
VERIFY_ORDERS = {
    "default": [],
    "benchmark": ["--n-max", "6", "--su2-max-two-j", "80",
                  "--polar-order", "96", "--azimuthal-count", "192"],
}
# combined-identity max_deviation of the same runs with every radial moment
# ratio set to its exact value 1 instead of the log-variable rule; both
# families give the same, the rounding of the sphere rule and the lgamma
# terms.  (Adaptive scipy.integrate.quad moments are no reference: at
# beta = 192 they carry its lgamma floor, 1.1e-13 in the stretched run.)
EXACT_COMBINED = {
    "default": 1.1102230246251565e-15,
    "benchmark": 1.5543122344752192e-15,
}


def sphere_nodes(polar_order, azimuthal_count):
    """The product rule's nodes: Gauss-Legendre in cos(theta), equally spaced phi."""
    u, wu = _gauss_legendre(polar_order)
    theta = np.arccos(u)
    phi = np.arange(azimuthal_count) * (2.0 * math.pi / azimuthal_count)
    return theta, wu, phi, 2.0 * math.pi / azimuthal_count


def amplitude_stack(j, theta, phi):
    """su2 amplitudes at every (theta, phi) node; shape (2j+1, Nu, Nphi)."""
    polar = su2_amplitudes(j, -np.tan(theta / 2.0))
    k = np.arange(polar.shape[0])
    return polar[:, :, None] * np.exp(-1j * np.outer(k, phi))[:, None, :]


def dense_sphere_overlap(j_a, j_b, polar_order, azimuthal_count):
    """Sphere overlap as one Gram over the flattened (theta, phi) grid."""
    theta, wu, phi, w_phi = sphere_nodes(polar_order, azimuthal_count)
    amps_a = amplitude_stack(j_a, theta, phi).reshape(round(2 * j_a) + 1, -1)
    amps_b = amplitude_stack(j_b, theta, phi).reshape(round(2 * j_b) + 1, -1)
    weights = (wu[:, None] * np.full(phi.size, w_phi)[None, :]).ravel()
    return ((amps_a * weights) @ amps_b.conj().T) / (4.0 * math.pi)


def loop_identity_matrix(spec, n_max, polar_order, azimuthal_count, gamma_halfwidth):
    """Entry-by-entry oracle: one double loop over the |n, k1, k2> labels.

    Each upper-triangle entry is radial * phase * S[k1a, k1b] * S[k2a, k2b]
    and each lower-triangle entry the conjugate of its mirror.
    """
    labels = [(n, k1, k2) for n in range(1, n_max + 1) for k1 in range(n) for k2 in range(n)]
    log_rho = {n: log_moment(spec, n - 1) for n in range(1, n_max + 1)}
    alpha = spec.alpha
    sphere_cache, radial_cache = {}, {}

    def sphere(n_a, n_b):
        if (n_a, n_b) not in sphere_cache:
            sphere_cache[n_a, n_b] = _sphere_overlap_matrix(
                (n_a - 1) / 2.0, (n_b - 1) / 2.0, polar_order, azimuthal_count
            )
        return sphere_cache[n_a, n_b]

    def radial_factor(n_a, n_b):
        if (n_a, n_b) not in radial_cache:
            exponent = (n_a + n_b) / 2.0 - 1.0
            ratio = _moment_ratio_by_quadrature(spec, exponent)
            log_integral = math.log(ratio) - math.log(alpha) + math.lgamma((exponent + 1.0) / alpha)
            radial_cache[n_a, n_b] = math.exp(
                log_integral - 0.5 * (log_rho[n_a] + log_rho[n_b]) + math.log(n_a) + math.log(n_b)
            )
        return radial_cache[n_a, n_b]

    gram = np.zeros((len(labels), len(labels)), dtype=complex)
    for a, (n_a, k1a, k2a) in enumerate(labels):
        for b, (n_b, k1b, k2b) in enumerate(labels):
            if b < a:
                gram[a, b] = np.conj(gram[b, a])
                continue
            if gamma_halfwidth is None:
                if n_a != n_b:
                    continue
                gamma_factor = 1.0
            else:
                gamma_factor = gamma_average(
                    gamma_halfwidth, hydrogen.energy(n_a), hydrogen.energy(n_b)
                )
                if gamma_factor == 0.0:
                    continue
            s = sphere(n_a, n_b)
            gram[a, b] = radial_factor(n_a, n_b) * gamma_factor * s[k1a, k1b] * s[k2a, k2b]
    return gram, labels


class TestSphereRule:
    @pytest.mark.parametrize("two_j", [0, 1, 4, 9])
    def test_amplitude_stack_matches_closed_form(self, two_j):
        theta, _, phi, _ = sphere_nodes(12, 24)
        stack = amplitude_stack(two_j / 2.0, theta, phi)
        assert stack.shape == (two_j + 1, theta.size, phi.size)
        factor = su2_amplitudes(two_j / 2.0, -np.tan(theta / 2.0))
        assert factor.shape == (two_j + 1, theta.size)
        t = np.tan(theta / 2.0)
        for k in range(two_j + 1):
            # binom(2j, k)^(1/2) zeta^k / (1 + |zeta|^2)^j at zeta = -t exp(-i phi)
            polar = math.sqrt(math.comb(two_j, k)) * (-t) ** k / (1.0 + t * t) ** (two_j / 2.0)
            np.testing.assert_allclose(factor[k], polar, rtol=0, atol=1e-14)
            expected = polar[:, None] * np.exp(-1j * k * phi)[None, :]
            np.testing.assert_allclose(stack[k], expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("orders", ["minimal", "default"])
    def test_factored_overlap_matches_dense_same_spin(self, orders):
        for two_j in range(21):
            polar, azimuthal = (two_j + 1, two_j + 1) if orders == "minimal" else (24, 48)
            got = _sphere_overlap_matrix(two_j / 2.0, two_j / 2.0, polar, azimuthal)
            oracle = dense_sphere_overlap(two_j / 2.0, two_j / 2.0, polar, azimuthal)
            assert np.max(np.abs(got - oracle)) <= 1e-14, two_j

    @pytest.mark.parametrize("orders", ["minimal", "default"])
    def test_factored_overlap_matches_dense_cross_spin(self, orders):
        for two_a in range(6):
            for two_b in range(6):
                if orders == "minimal":
                    polar, azimuthal = (two_a + two_b) // 2 + 1, max(two_a, two_b) + 1
                else:
                    polar, azimuthal = 24, 48
                got = _sphere_overlap_matrix(two_a / 2.0, two_b / 2.0, polar, azimuthal)
                oracle = dense_sphere_overlap(two_a / 2.0, two_b / 2.0, polar, azimuthal)
                assert got.shape == (two_a + 1, two_b + 1)
                assert np.max(np.abs(got - oracle)) <= 1e-14, (two_a, two_b)

    def test_verify_matches_dense_gram(self):
        for two_j in (0, 3, 10, 20):
            oracle = (two_j + 1.0) * dense_sphere_overlap(two_j / 2.0, two_j / 2.0, 24, 48)
            expected = np.max(np.abs(oracle - np.eye(two_j + 1)))
            assert abs(verify_su2_identity(two_j / 2.0, 24, 48) - expected) <= 1e-14

    def test_working_set_is_small(self):
        # the dense (2j+1, Nu, Nphi) stack alone is 24 MB at these orders
        tracemalloc.start()
        try:
            deviation = verify_su2_identity(40.0, 96, 192)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert deviation <= 1e-12
        assert peak <= 2 * 2**20

    @pytest.mark.parametrize("count", [4, 7, 24, 192])
    def test_azimuthal_sums_are_the_node_sums(self, count):
        # the shared table holds the same bits as one sum per overlap call
        _, _, phi, w_phi = sphere_nodes(1, count)
        d = np.arange(1 - count, count)
        expected = np.exp(-1j * np.outer(d, phi)).sum(axis=1) * w_phi
        assert np.array_equal(_azimuthal_sums(count), expected)
        assert abs(_azimuthal_sums(count)[count - 1] - 2.0 * math.pi) <= 1e-14

    def test_polar_rule_computed_once_per_order(self):
        _gauss_legendre.cache_clear()
        try:
            for polar_order in (12, 16, 12):
                results = standard_verification(n_max=2, su2_max_two_j=8, polar_order=polar_order,
                                                azimuthal_count=24)
                assert all(r.passed for r in results)
            misses = _gauss_legendre.cache_info().misses
        finally:
            _gauss_legendre.cache_clear()
        assert misses == 2  # orders 12 and 16, each built once

    @pytest.mark.parametrize("order", [24, 105, 176, 400, 704])
    def test_gauss_legendre_matches_mpmath(self, order):
        # at the end, second and middle nodes the rule is within 5e-17 on
        # the nodes and 2.8e-16 relative on the weights (measured); at other
        # orders the end weight can be further off (1.2e-15 at 401)
        nodes, weights = _gauss_legendre(order)
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        with mpmath.workdps(40):
            for i in (0, 1, order // 2):
                x = mpmath.mpf(float(nodes[i]))
                for _ in range(3):  # Newton steps to the 40-digit root
                    p, p_prev = mpmath.legendre(order, x), mpmath.legendre(order - 1, x)
                    x -= p / (order * (p_prev - x * p) / (1 - x * x))
                dp = order * (mpmath.legendre(order - 1, x) - x * mpmath.legendre(order, x)) / (1 - x * x)
                w = 2 / ((1 - x * x) * dp * dp)
                assert abs(float(nodes[i] - x)) <= 1e-16, i
                assert abs(float(weights[i] / w - 1)) <= 5e-16, i

    def test_large_spin_resolved_at_many_nodes(self):
        # 2j = 175 is the paper's top level n = 176; the m = +j edge needs
        # the end weights: a rule whose weights were 1e-11 off there (an
        # eigenvalue-based one) missed by 2.2e-12 at 400 nodes
        assert verify_su2_identity(175 / 2.0, 400, 400) <= TOLERANCE

    @pytest.mark.parametrize("two_j", [0, 1, 6, 10])
    def test_multiplet_resolved_at_exact_order(self, two_j):
        assert verify_su2_identity(two_j / 2.0, two_j + 1, 2 * two_j + 2) <= 1e-13

    def test_polar_order_below_degree(self):
        with pytest.raises(InsufficientOrderError):
            verify_su2_identity(2.0, polar_order=4, azimuthal_count=16)

    def test_aliasing_azimuthal_count(self):
        with pytest.raises(InsufficientOrderError):
            verify_su2_identity(2.0, polar_order=8, azimuthal_count=4)

    def test_cross_spin_orders_checked(self):
        with pytest.raises(InsufficientOrderError):
            _sphere_overlap_matrix(2.0, 3.0, polar_order=5, azimuthal_count=16)
        with pytest.raises(InsufficientOrderError):
            _sphere_overlap_matrix(2.0, 3.0, polar_order=8, azimuthal_count=6)


def quad_gamma_density(beta):
    """Integral of v^(beta-1) e^-v / Gamma(beta) over v > 0 by adaptive quad."""
    log_gamma = math.lgamma(beta)
    tol = dict(limit=300, epsabs=1e-14, epsrel=1e-14)

    def density(v):
        return math.exp((beta - 1.0) * math.log(v) - v - log_gamma) if v > 0 else 0.0

    if beta <= 1.0:  # v^(beta-1) goes into quad's algebraic weight on [0, 1]
        head, _ = quad(lambda v: math.exp(-v - log_gamma), 0.0, 1.0,
                       weight="alg", wvar=(beta - 1.0, 0.0), **tol)
        return head + quad(density, 1.0, np.inf, **tol)[0]
    peak = beta - 1.0
    return quad(density, 0.0, peak, **tol)[0] + quad(density, peak, np.inf, **tol)[0]


class TestRadialRule:
    @pytest.mark.parametrize("beta", RADIAL_BETAS)
    def test_log_trapezoid_matches_quad_and_one(self, beta):
        # exponent beta - 1 under the exponential weight (alpha = 1) gives order beta
        got = _moment_ratio_by_quadrature(WeightSpec(1.0), beta - 1.0)
        # Up to beta = 400 both rules sit within 1e-12 of 1 (measured on this
        # grid: rule 1.7e-14, quad 1.7e-13).  Beyond it the rounding of
        # lgamma(beta) in quad's exponent sets its floor: at beta = 5000
        # quad is off by 0.57 of |lgamma(beta)| * eps, the peak-centred
        # rule by 5e-5 of it.
        tol = 1e-12 if beta <= 400 else abs(math.lgamma(beta)) * np.finfo(float).eps
        assert abs(got - 1.0) <= tol
        assert abs(got - quad_gamma_density(beta)) <= tol


    @pytest.mark.parametrize("spec", [WeightSpec(1.0 / 32.0), WeightSpec(1.0),
                                      WeightSpec(1.0 / 3.0)], ids=["1/32", "exponential", "1/3"])
    def test_moments_hold_at_the_paper_levels(self, spec):
        # every moment of the paper's levels n <= 176; before the integrand
        # was centred on its peak, alpha = 1/32 missed by 1.14e-11 at n = 157
        assert verify_radial_identity(spec, 176) <= TOLERANCE

    def test_small_alpha_keeps_the_peak_exponent(self):
        # beta = (n+1)/alpha up to 1.1e11: expm1(y) - y cancels like y^2/2, and
        # in double its rounding grew like sqrt(beta) 1e-16, to 2.8e-12
        assert verify_radial_identity(WeightSpec(1e-10), 10) <= 1e-13

    @pytest.mark.parametrize("alpha", [1e-20, 1e-200])
    def test_tiny_alpha_sums_the_peak_by_its_series(self, alpha):
        # beta up to 1.1e201: expm1(y) - y, even in long double, was 2.2e-10
        # off at alpha = 1e-20, and at 1e-200 the ratio read 8.3
        assert verify_radial_identity(WeightSpec(alpha), 10) <= 1e-13

    @pytest.mark.parametrize("alpha, exponent", [(1e-310, 0.0), (1e-308, 1.0)])
    def test_order_past_the_float_range_names_alpha(self, alpha, exponent):
        # beta = (exponent + 1)/alpha is inf: the step h was 0, and the node
        # count divided by it ("float division by zero")
        with pytest.raises(ArithmeticError, match=f"alpha={alpha!r}"):
            _moment_ratio_by_quadrature(WeightSpec(alpha), exponent)

    def test_negative_top_moment_is_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            verify_radial_identity(WeightSpec(1.0), -1)

    def test_large_alpha_integrates_at_beta_plus_one(self):
        # beta = (n+1)/alpha < 1 decays like e^(beta y) to the left; integrated
        # there, the window took ~200/beta nodes (487 MB at alpha = 1e5)
        tracemalloc.start()
        try:
            deviation = verify_radial_identity(WeightSpec(1e5), 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert deviation <= 1e-13
        assert peak <= 2**20


class TestVerifyReport:
    @pytest.mark.parametrize("orders", VERIFY_ORDERS)
    @pytest.mark.parametrize("family", VERIFY_FAMILIES)
    def test_every_check_passes(self, tmp_path, family, orders):
        path = tmp_path / "verify.json"
        argv = ["verify", *VERIFY_FAMILIES[family], *VERIFY_ORDERS[orders], "-o", str(path)]
        assert cli.main(argv) == cli.EXIT_OK
        report = json.loads(path.read_text())
        assert report["passed"]
        checks = {c["name"]: c for c in report["checks"]}
        assert all(c["passed"] and c["max_deviation"] <= 1e-12 for c in checks.values())
        # one radial rule serves both families, and it takes no order
        assert checks["radial moment identity"]["orders"] == {"rule": "log-trapezoid"}
        combined_orders = checks["combined identity (exact-limit phase average)"]["orders"]
        assert combined_orders["radial_rule"] == "log-trapezoid"
        combined = checks["combined identity (exact-limit phase average)"]["max_deviation"]
        # the rule's moment ratios sit within 3e-14 of 1; here they move the
        # combined deviation by 1.3e-14 at most (measured)
        assert abs(combined - EXACT_COMBINED[orders]) <= 2e-14

    def test_scipy_integrate_is_never_imported(self):
        code = (
            "import sys\n"
            "from cohere.cli import main\n"
            "status = main(['verify', '--family', 'stretched', '--alpha', '0.25', '--n-max', '2',\n"
            "               '--su2-max-two-j', '2', '--polar-order', '4', '--azimuthal-count', '8'])\n"
            "assert status == 0, status\n"
            "assert 'scipy.integrate' not in sys.modules, 'verify imported scipy.integrate'\n"
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestFullIdentity:
    @pytest.mark.parametrize("spec", FAMILIES, ids=["exponential", "stretched"])
    @pytest.mark.parametrize("gamma_halfwidth", MODES, ids=["exact", "finite"])
    def test_blocks_match_entry_loop(self, spec, gamma_halfwidth):
        gram, labels = full_identity_matrix(spec, 4, *ORDERS, gamma_halfwidth)
        oracle, oracle_labels = loop_identity_matrix(spec, 4, *ORDERS, gamma_halfwidth)
        assert labels == oracle_labels
        assert np.max(np.abs(gram - oracle)) <= 1e-14
        assert np.array_equal(gram, gram.conj().T)

    def test_radial_factor_matches_mpmath(self):
        # block (n_a, n_b) is radial * phase * kron(S, S); the radial factor
        # n_a n_b rho((n_a+n_b)/2 - 1) / sqrt(rho_{n_a-1} rho_{n_b-1}) is
        # n_a n_b Gamma((n_a+n_b)/(2 alpha)) / sqrt(Gamma(n_a/alpha) Gamma(n_b/alpha)).
        # Measured worst: 5.8e-14 relative at (4, 6), under one ulp (1.1e-13)
        # of the ~800-sized ln Gamma summands; the bound allows two.
        alpha, n_max = 1.0 / 32.0, MAX_LEVELS
        gram, labels = full_identity_matrix(WeightSpec(alpha), n_max, *ORDERS, 1.0)
        levels = np.array([n for n, _, _ in labels])
        for n_a in range(1, n_max + 1):
            for n_b in range(n_a, n_max + 1):
                sphere = _sphere_overlap_matrix((n_a - 1) / 2.0, (n_b - 1) / 2.0, *ORDERS)
                shape = np.kron(sphere, sphere) * gamma_average(
                    1.0, hydrogen.energy(n_a), hydrogen.energy(n_b))
                entry = np.unravel_index(np.argmax(np.abs(shape)), shape.shape)
                block = gram[np.ix_(levels == n_a, levels == n_b)]
                radial = block[entry] / shape[entry]
                with mpmath.workdps(50):
                    exact = n_a * n_b * mpmath.exp(
                        mpmath.loggamma(mpmath.mpf(n_a + n_b) / (2 * alpha))
                        - (mpmath.loggamma(n_a / alpha) + mpmath.loggamma(n_b / alpha)) / 2)
                    assert abs(radial.imag) <= 1e-15 * abs(radial)
                    assert abs(float(radial.real / exact - 1)) <= 2.5e-13, (n_a, n_b)

    @pytest.mark.parametrize("alpha", [1.0, 1.0 / 8.0, 1.0 / 32.0, 1e-3])
    def test_off_diagonal_gamma_quotient_matches_mpmath(self, alpha):
        # x = n/alpha below _STIRLING_MIN (alpha = 1), above it (1/32, 1e-3),
        # and on both sides within one pair (1/8).  exp carries the log
        # quotient q's rounding into r, so the bound scales with |q|, and a
        # subnormal r (alpha = 1e-3, pair (1, 5)) adds its own rounding; the
        # measured worst is 7.4 eps max(1, |q|), at alpha = 1/8
        spec = WeightSpec(alpha)
        for n_a, n_b in itertools.combinations(range(1, 7), 2):
            ratio = _moment_ratio_by_quadrature(spec, (n_a + n_b) / 2.0 - 1.0) * n_a * n_b
            with mpmath.workdps(50):
                a = mpmath.mpf(alpha)
                q = (mpmath.loggamma(mpmath.mpf(n_a + n_b) / (2 * a))
                     - (mpmath.loggamma(n_a / a) + mpmath.loggamma(n_b / a)) / 2)
                exact = float(ratio * mpmath.exp(q))
            got = _radial_factor(spec, n_a, n_b)
            bound = 16 * np.finfo(float).eps * max(1.0, abs(float(q))) * exact + math.ulp(0.0)
            assert abs(got - exact) <= bound, (n_a, n_b)

    @pytest.mark.parametrize("alpha", [1e-305, 1e-307])
    def test_gamma_quotient_past_the_lgamma_range(self, alpha):
        # n/alpha is past math.lgamma's range (~2.5e305) but finite: the
        # diagonal needs no quotient, and pair (1, 2)'s is about -0.085/alpha
        spec = WeightSpec(alpha)
        for n in (1, 2, 3):
            assert _radial_factor(spec, n, n) == _moment_ratio_by_quadrature(spec, n - 1.0) * n * n
        assert _radial_factor(spec, 1, 2) == 0.0

    def test_exact_limit_is_block_diagonal(self):
        gram, labels = full_identity_matrix(WeightSpec(1.0), 3, *ORDERS)
        levels = np.array([n for n, _, _ in labels])
        assert np.all(gram[levels[:, None] != levels[None, :]] == 0)
        assert np.max(np.abs(gram - np.eye(len(labels)))) <= 1e-8

    @pytest.mark.parametrize("gamma_halfwidth", [1e3, 1e4, 1e5])
    def test_finite_window_sinc_bound(self, gamma_halfwidth):
        gram, labels = full_identity_matrix(WeightSpec(1.0), 2, *ORDERS, gamma_halfwidth)
        energies = hydrogen.energy(np.array([n for n, _, _ in labels]))
        gap = np.abs(energies[:, None] - energies[None, :])
        off = gap > 0
        assert np.any(off)
        bound = 1.0 / (gamma_halfwidth * gap[off])
        assert np.all(np.abs(gram[off]) <= bound + 1e-12)

    @pytest.mark.parametrize("n_max", [0, MAX_LEVELS + 1])
    def test_truncation_outside_cap_rejected(self, n_max):
        with pytest.raises(ValueError):
            full_identity_matrix(WeightSpec(1.0), n_max, *ORDERS)


class TestStandardVerification:
    def test_passes_at_defaults(self):
        results = standard_verification()
        assert len(results) == 4
        for result in results:
            assert result.passed, asdict(result)

    def test_low_polar_order_is_insufficient(self):
        with pytest.raises(InsufficientOrderError):
            standard_verification(polar_order=3)

    @pytest.mark.parametrize("spec", FAMILIES, ids=["exponential", "stretched"])
    def test_every_check_holds_the_one_tolerance(self, spec):
        results = standard_verification(spec, n_max=2, su2_max_two_j=2)
        assert TOLERANCE == 1e-12
        assert [r.tolerance for r in results] == [TOLERANCE] * 4

    def test_phase_window_must_be_positive(self):
        with pytest.raises(ValueError, match="half-width"):
            gamma_average(0.0, hydrogen.energy(1), hydrogen.energy(2))

    def test_one_level_labels_its_finite_window_check(self):
        # one level has no pair of levels for the off-diagonal bound to check
        results = {r.name: r for r in standard_verification(n_max=1, su2_max_two_j=2)}
        finite = results["finite-window off-diagonal bound"]
        assert finite.truncation == "levels <= 1"
        assert finite.max_deviation == 0.0 and finite.passed
        assert results["combined identity (exact-limit phase average)"].truncation == "levels <= 1"

    @pytest.mark.parametrize("n_max, su2_max_two_j", [(6, 10), (12, 3), (1, 0)])
    def test_one_sphere_overlap_per_spin(self, monkeypatch, n_max, su2_max_two_j):
        # one same-spin overlap for each 2j of either check, plus the (0, 1/2)
        # pair of the finite-window check; the spin check keeps
        # verify_su2_identity's bits
        expected = max(verify_su2_identity(two_j / 2.0, *ORDERS) for two_j in range(su2_max_two_j + 1))
        calls, overlap = [], identity._sphere_overlap_matrix
        monkeypatch.setattr(identity, "_sphere_overlap_matrix",
                            lambda j_a, j_b, *orders: calls.append((j_a, j_b)) or overlap(j_a, j_b, *orders))
        results = {r.name: r for r in standard_verification(n_max=n_max, su2_max_two_j=su2_max_two_j)}
        spins = [(two_j / 2.0, two_j / 2.0) for two_j in range(max(su2_max_two_j, n_max - 1) + 1)]
        assert sorted(calls) == sorted(spins + [(0.0, 0.5)] * (n_max >= 2))
        assert results["spin multiplet resolution"].max_deviation.hex() == expected.hex()
        assert all(r.passed for r in results.values())

    @pytest.mark.parametrize("alpha", [1.0, 1.0 / 32.0, 1e-6, 1e-12, 1e-20])
    def test_combined_deviation_sees_the_radial_ratio(self, monkeypatch, alpha):
        # a ratio 1e-9 off puts every diagonal block 1e-9 off; when r was
        # formed from logs of size ln Gamma(n/alpha), the check read 3.7e-9 at
        # alpha = 1e-6 and 1.1e-15 from 1e-12 down
        ratio = identity._moment_ratio_by_quadrature
        monkeypatch.setattr(identity, "_moment_ratio_by_quadrature",
                            lambda spec, exponent: ratio(spec, exponent) * (1 + 1e-9))
        results = {r.name: r for r in standard_verification(
            spec=WeightSpec(alpha), n_max=6, su2_max_two_j=5, polar_order=24, azimuthal_count=48)}
        combined = results["combined identity (exact-limit phase average)"].max_deviation
        assert abs(combined - 1e-9) <= 1e-11


class TestLevelBlocks:
    """standard_verification reads each level block's largest entries from
    the pair's r and S; the dense Gram is its oracle up to MAX_LEVELS."""

    @pytest.mark.parametrize("spec", FAMILIES, ids=["exponential", "stretched"])
    def test_exact_limit_deviation_matches_dense(self, spec):
        for n_max in range(1, MAX_LEVELS + 1):
            gram, _ = full_identity_matrix(spec, n_max, *ORDERS)
            expected = np.max(np.abs(gram - np.eye(gram.shape[0])))
            results = {r.name: r for r in standard_verification(spec, n_max, 0, *ORDERS)}
            assert abs(results[COMBINED].max_deviation - expected) <= 1e-15, n_max

    @pytest.mark.parametrize("kind", ["diagonal up", "diagonal down", "off-diagonal"])
    def test_each_extreme_of_a_block_is_read(self, monkeypatch, kind):
        # a perturbed same-spin overlap puts each block's largest deviation at
        # its largest diagonal entry, its smallest, or off the diagonal
        overlap = identity._sphere_overlap_matrix

        def perturbed(j_a, j_b, *orders):
            sphere = overlap(j_a, j_b, *orders)
            if j_a != j_b:
                return sphere
            size = sphere.shape[0]
            rng = np.random.default_rng(size)  # the same overlap on both paths
            if kind == "off-diagonal":
                upper = np.triu(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)), 1)
                return sphere + 0.1 / size * (upper + upper.conj().T)
            sign = 1.0 if kind == "diagonal up" else -1.0
            return sphere + np.diag(sign * 0.2 / size * rng.random(size))

        monkeypatch.setattr(identity, "_sphere_overlap_matrix", perturbed)
        spec = WeightSpec(1.0 / 32.0)
        for n_max in range(1, MAX_LEVELS + 1):
            gram, _ = full_identity_matrix(spec, n_max, *ORDERS)
            expected = np.max(np.abs(gram - np.eye(gram.shape[0])))
            results = {r.name: r for r in standard_verification(spec, n_max, 0, *ORDERS)}
            assert expected >= 1e-3 or n_max == 1
            assert abs(results[COMBINED].max_deviation - expected) <= 1e-15, n_max

    @pytest.mark.parametrize("spec", FAMILIES, ids=["exponential", "stretched"])
    def test_finite_window_block_maxima_match_dense(self, spec):
        gamma_halfwidth = 1e3
        oracle, labels = loop_identity_matrix(spec, MAX_LEVELS, *ORDERS, gamma_halfwidth)
        levels = np.array([n for n, _, _ in labels])
        for n_a, n_b in itertools.combinations(range(1, MAX_LEVELS + 1), 2):
            radial = _radial_factor(spec, n_a, n_b)
            sphere = _sphere_overlap_matrix((n_a - 1) / 2.0, (n_b - 1) / 2.0, *ORDERS)
            phase = gamma_average(gamma_halfwidth, hydrogen.energy(n_a), hydrogen.energy(n_b))
            largest = abs(radial * phase) * np.abs(sphere).max() ** 2
            block = oracle[np.ix_(levels == n_a, levels == n_b)]
            assert abs(largest - np.abs(block).max()) <= 1e-15, (n_a, n_b)

    @pytest.mark.parametrize("spec", FAMILIES, ids=["exponential", "stretched"])
    def test_finite_window_excess_matches_dense(self, monkeypatch, spec):
        gamma_halfwidths = (1e-3, 1.0, 1e3)
        monkeypatch.setattr(identity, "GAMMA_HALFWIDTHS", gamma_halfwidths)
        worst = 0.0
        for gamma_halfwidth in gamma_halfwidths:
            gram, labels = full_identity_matrix(spec, 2, *ORDERS, gamma_halfwidth)
            energies = hydrogen.energy(np.array([n for n, _, _ in labels]))
            gap = np.abs(energies[:, None] - energies[None, :])
            off = gap > 0
            worst = max(worst, np.max(np.abs(gram[off]) - 1.0 / (gamma_halfwidth * gap[off])))
        results = {r.name: r for r in standard_verification(spec, 2, 0, *ORDERS)}
        assert results[FINITE].orders == {"gamma_halfwidths": list(gamma_halfwidths)}
        assert abs(results[FINITE].max_deviation - worst) <= 1e-15

    def test_paper_levels(self):
        # every level up to the top of the paper's window 144-176, at the
        # fewest nodes that resolve n = 176; measured 1.42e-14
        results = {r.name: r for r in standard_verification(
            WeightSpec(1.0 / 32.0), 176, 0, 176, 176)}
        assert results[COMBINED].truncation == "levels <= 176"
        assert results[COMBINED].max_deviation <= 1e-12

    def test_no_levels_is_refused(self):
        with pytest.raises(ValueError):
            standard_verification(n_max=0)

    def test_never_forms_the_dense_gram(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify formed the dense Gram")

        monkeypatch.setattr(identity, "full_identity_matrix", refuse)
        for family in VERIFY_FAMILIES.values():
            assert cli.main(["verify", *family, *VERIFY_ORDERS["benchmark"]]) == cli.EXIT_OK
