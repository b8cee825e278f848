"""Resolution-of-identity checks: sphere rule, radial rule, block assembly, report."""
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from cohere import cli, hydrogen
from cohere.identity import (
    MAX_LEVELS,
    InsufficientOrderError,
    QuadratureSpec,
    _azimuthal_sums,
    _moment_ratio_by_quadrature,
    _polar_factor,
    _polar_rule,
    _sphere_overlap_matrix,
    full_identity_matrix,
    gamma_average,
    standard_verification,
    verify_su2_identity,
)
from cohere.weights import WeightSpec, log_moment

FAMILIES = [WeightSpec.exponential(), WeightSpec.stretched(1.0 / 32.0)]
MODES = [None, 1e3]  # exact-limit phase average, finite window
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
# combined-identity max_deviation of the same runs with the radial moments
# taken by adaptive scipy.integrate.quad instead of the log-variable rule
QUAD_COMBINED = {
    ("exponential", "default"): 1.9984014443252818e-15,
    ("exponential", "benchmark"): 1.3988810110276972e-14,
    ("stretched", "default"): 5.861977570020827e-14,
    ("stretched", "benchmark"): 1.2034817586936697e-13,
}


def sphere_nodes(polar_order, azimuthal_count):
    """The product rule's nodes: Gauss-Legendre in cos(theta), equally spaced phi."""
    theta, wu = _polar_rule(polar_order)
    phi = np.arange(azimuthal_count) * (2.0 * math.pi / azimuthal_count)
    return theta, wu, phi, 2.0 * math.pi / azimuthal_count


def amplitude_stack(j, theta, phi):
    """su2 amplitudes at every (theta, phi) node; shape (2j+1, Nu, Nphi)."""
    polar = _polar_factor(j, theta)
    k = np.arange(polar.shape[0])
    return polar[:, :, None] * np.exp(-1j * np.outer(k, phi))[:, None, :]


def dense_sphere_overlap(j_a, j_b, polar_order, azimuthal_count):
    """Sphere overlap as one Gram over the flattened (theta, phi) grid."""
    theta, wu, phi, w_phi = sphere_nodes(polar_order, azimuthal_count)
    amps_a = amplitude_stack(j_a, theta, phi).reshape(round(2 * j_a) + 1, -1)
    amps_b = amplitude_stack(j_b, theta, phi).reshape(round(2 * j_b) + 1, -1)
    weights = (wu[:, None] * np.full(phi.size, w_phi)[None, :]).ravel()
    return ((amps_a * weights) @ amps_b.conj().T) / (4.0 * math.pi)


def loop_identity_matrix(spec, n_max, quad_spec):
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
                (n_a - 1) / 2.0, (n_b - 1) / 2.0, quad_spec.polar_order, quad_spec.azimuthal_count
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
            if quad_spec.gamma_halfwidth is None:
                if n_a != n_b:
                    continue
                gamma_factor = 1.0
            else:
                gamma_factor = gamma_average(
                    quad_spec.gamma_halfwidth, hydrogen.energy(n_a), hydrogen.energy(n_b)
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
        factor = _polar_factor(two_j / 2.0, theta)
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

    def test_polar_rule_computed_once_per_order(self, monkeypatch):
        orders = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda order: orders.append(order) or leggauss(order))
        _polar_rule.cache_clear()
        try:
            for polar_order in (12, 16, 12):
                results = standard_verification(n_max=2, su2_max_two_j=8, polar_order=polar_order,
                                                azimuthal_count=24, gamma_halfwidths=(1e3,))
                assert all(r.passed for r in results)
        finally:
            _polar_rule.cache_clear()
        assert orders == [12, 16]

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
        got = _moment_ratio_by_quadrature(WeightSpec.exponential(), beta - 1.0)
        # Up to beta = 400 both rules sit within 1e-12 of 1 (measured on this
        # grid: rule 1.8e-13, quad 1.7e-13, apart 8.5e-14).  Beyond it the
        # rounding of lgamma(beta) in the exponent sets the floor for both:
        # at beta = 5000 the rule is off by 0.50 and quad by 0.57 of
        # |lgamma(beta)| * eps.
        tol = 1e-12 if beta <= 400 else abs(math.lgamma(beta)) * np.finfo(float).eps
        assert abs(got - 1.0) <= tol
        assert abs(got - quad_gamma_density(beta)) <= tol


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
        assert abs(combined - QUAD_COMBINED[family, orders]) <= 1e-14

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
        quad_spec = QuadratureSpec(gamma_halfwidth=gamma_halfwidth)
        gram, labels = full_identity_matrix(spec, 4, quad_spec)
        oracle, oracle_labels = loop_identity_matrix(spec, 4, quad_spec)
        assert labels == oracle_labels
        assert np.max(np.abs(gram - oracle)) <= 1e-14
        assert np.array_equal(gram, gram.conj().T)

    def test_exact_limit_is_block_diagonal(self):
        gram, labels = full_identity_matrix(WeightSpec.exponential(), 3)
        levels = np.array([n for n, _, _ in labels])
        assert np.all(gram[levels[:, None] != levels[None, :]] == 0)
        assert np.max(np.abs(gram - np.eye(len(labels)))) <= 1e-8

    @pytest.mark.parametrize("gamma_halfwidth", [1e3, 1e4, 1e5])
    def test_finite_window_sinc_bound(self, gamma_halfwidth):
        quad_spec = QuadratureSpec(gamma_halfwidth=gamma_halfwidth)
        gram, labels = full_identity_matrix(WeightSpec.exponential(), 2, quad_spec)
        energies = hydrogen.energy(np.array([n for n, _, _ in labels]))
        gap = np.abs(energies[:, None] - energies[None, :])
        off = gap > 0
        assert np.any(off)
        bound = 1.0 / (gamma_halfwidth * gap[off])
        assert np.all(np.abs(gram[off]) <= bound + 1e-12)

    @pytest.mark.parametrize("n_max", [0, MAX_LEVELS + 1])
    def test_truncation_outside_cap_rejected(self, n_max):
        with pytest.raises(ValueError):
            full_identity_matrix(WeightSpec.exponential(), n_max)


class TestStandardVerification:
    def test_passes_at_defaults(self):
        results = standard_verification()
        assert len(results) == 4
        for result in results:
            assert result.passed, result.as_dict()

    def test_low_polar_order_is_insufficient(self):
        with pytest.raises(InsufficientOrderError):
            standard_verification(polar_order=3)
