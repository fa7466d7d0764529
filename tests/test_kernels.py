import numpy as np
import pytest
from scipy.special import gamma

from fplab.kernels import (
    fourier_ratio_constant,
    gaussian_reference_kernel,
    khat,
    power_kernel_symbol_factor,
    rescale,
    symbol_constant,
    truncated_fractional_kernel,
)


K = gaussian_reference_kernel()


def _moments(k):
    """Trapezoid integrals of k, x k and x^2 k over the kernel's tail cut."""
    x = np.linspace(-k.tail_cut, k.tail_cut, 40001)
    kv = k(x)
    return tuple(float(np.trapezoid(x**j * kv, x)) for j in range(3))


def test_reference_moments():
    m0, m1, m2 = _moments(K)
    assert abs(m0 - 1.0) <= 1e-12
    assert abs(m1) <= 1e-12
    assert abs(m2 - 2.0) <= 1e-10


def test_rescale_preserves_mass_scales_second_moment():
    eps = 0.3
    m0, _, m2 = _moments(rescale(K, eps))
    assert abs(m0 - 1.0) <= 1e-12
    # second moment scales as eps^2 * 2
    assert abs(m2 - 2.0 * eps**2) <= 1e-10
    with pytest.raises(ValueError):
        rescale(K, 0.0)


def test_khat_closed_form_and_at_zero():
    xi = np.linspace(0.0, 5.0, 11)
    assert np.allclose(khat(K, xi), np.exp(-(xi**2)), atol=1e-12)
    assert abs(khat(K, 0.0) - K.l1_norm) <= 1e-12


def test_khat_refuses_a_kernel_without_closed_form():
    # no quadrature fallback: a cosine sum over the kernel's support is what
    # it replaced, O(size of xi x 20001) memory
    with pytest.raises(ValueError, match="closed-form"):
        khat(truncated_fractional_kernel(1.0, 0.2), np.linspace(0.0, 4.0, 9))


def test_fourier_ratio_constant_gaussian():
    rc = fourier_ratio_constant(K)
    # the ratio xi^2 khat^2 / (1 - khat) for khat = e^{-xi^2} has sup 1,
    # approached as xi -> 0
    assert rc.value <= 1.0 + 1e-6
    assert rc.value >= 0.99
    assert rc.arg_max < 0.5


def test_truncated_kernel_shape_and_mass():
    alpha, eps = 1.0, 0.2
    k = truncated_fractional_kernel(alpha, eps)
    # plateau, power-law branch, support cut
    assert k(0.1) == pytest.approx(eps ** (-1 - alpha))
    assert k(0.5) == pytest.approx(0.5 ** (-1 - alpha))
    assert k(6.0) == 0.0
    z = np.linspace(-6.0, 6.0, 2_000_001)
    quad = float(np.trapezoid(k(z), z))
    assert abs(quad - k.l1_norm) / k.l1_norm <= 1e-4
    with pytest.raises(ValueError):
        truncated_fractional_kernel(2.5, 0.2)
    with pytest.raises(ValueError):
        truncated_fractional_kernel(1.0, 1.5)


def test_power_law_normalization_constants():
    # symbol factor at alpha = 1 equals pi; symbol_constant is its inverse
    assert abs(power_kernel_symbol_factor(1.0) - np.pi) <= 1e-12
    assert abs(symbol_constant(1.0) - 1.0 / np.pi) <= 1e-12
    # the symbol of the raw kernel |z|^{-1-alpha}: quadrature check of
    # 2 int_0^inf (1 - cos(z)) z^{-1-alpha} dz = symbol factor
    for alpha in (0.6, 1.0, 1.4):
        z = np.linspace(1e-8, 2000.0, 4_000_001)
        val = 2.0 * np.trapezoid((1.0 - np.cos(z)) * z ** (-1.0 - alpha), z)
        assert abs(val - power_kernel_symbol_factor(alpha)) / val <= 2e-2


def test_symbol_factor_matches_scipy_gamma_formula():
    for alpha in np.linspace(0.05, 1.95, 191):
        if abs(alpha - 1.0) < 1e-12:
            continue
        ref = 2.0 * gamma(2.0 - alpha) * np.cos(np.pi * alpha / 2.0) / (alpha * (1.0 - alpha))
        assert abs(power_kernel_symbol_factor(alpha) - ref) <= 1e-15 * abs(ref)
