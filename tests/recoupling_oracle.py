"""Reference recoupling: the dense product state contracted with the
Clebsch-Gordan tables of su2.coupling_matrix.

This is the long way round that su2.so4_to_spherical replaces with a
closed form; the tests use it as an independent oracle for that form and
for everything built on it.
"""
import numpy as np

from cohere.su2 import AngularParams, coupling_matrix, su2_amplitudes


def product_amplitudes(n: int, params: AngularParams) -> np.ndarray:
    """(n, n) array P[k1, k2]: the coefficient of |j, -j+k1>|j, -j+k2>,
    j = (n-1)/2, in the product of the two spin coherent states."""
    if n < 1:
        raise ValueError("principal quantum number must be >= 1")
    j = (n - 1) / 2.0
    return np.outer(su2_amplitudes(j, params.zeta1), su2_amplitudes(j, params.zeta2))


def anti_diagonal_sums(table: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Sums of table * amps along k1 + k2 = t, t = 0..2n-2; with the
    level-n, degree-l coupling table, entry n-1+m is the amplitude on (l, m)."""
    n = amps.shape[0]
    t = np.add.outer(np.arange(n), np.arange(n)).ravel()
    weighted = table.ravel() * amps.ravel()
    return np.bincount(t, weighted.real, 2 * n - 1) + 1j * np.bincount(t, weighted.imag, 2 * n - 1)


def recouple_products(amps: np.ndarray) -> np.ndarray:
    """Recouple an (n, n) product array to the centred (n, 2n-1) table
    c[l, n-1+m] of so4_to_spherical, one coupling table per l."""
    if amps.ndim != 2 or amps.shape[0] != amps.shape[1]:
        raise ValueError(f"product amplitudes must be a square (n, n) array, got {amps.shape}")
    n = amps.shape[0]
    out = np.zeros((n, 2 * n - 1), dtype=complex)
    for l in range(n):
        sums = anti_diagonal_sums(coupling_matrix(n - 1, 2 * l), amps)
        out[l, n - 1 - l : n + l] = sums[n - 1 - l : n + l]
    return out


def reference_table(n: int, params: AngularParams) -> np.ndarray:
    """Level n's recoupled table, the long way."""
    return recouple_products(product_amplitudes(n, params))
