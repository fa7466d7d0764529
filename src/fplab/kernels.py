"""Jump/diffusion kernels: smooth symmetric profiles, rescalings, the
power-law kernel |z|^(-1-alpha), and its plateau-truncated variant."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Kernel:
    """A symmetric nonnegative jump kernel in d = 1.

    ``profile`` evaluates k(|x|).  TruncatedFractional kernels have the
    finite support radius 1/eps.
    """

    variant: str  # "SmoothSymmetric" | "TruncatedFractional"
    profile: Callable[[np.ndarray], np.ndarray]
    l1_norm: float
    support_radius: float  # inf for smooth kernels
    # closed-form Fourier transform (takes |xi|); ``khat`` needs it
    profile_hat: Callable[[np.ndarray], np.ndarray] | None = None
    # quadrature tail cut for smooth kernels (in x units)
    tail_cut: float = 60.0

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        return self.profile(np.abs(np.asarray(x, dtype=float)))


def gaussian_reference_kernel() -> Kernel:
    """The variance-2 Gaussian k(x) = (4 pi)^(-1/2) exp(-x^2/4).

    Moments: integral 1, mean 0, second moment 2; khat(xi) = exp(-xi^2).
    """

    def prof(ax: np.ndarray) -> np.ndarray:
        return np.exp(-(ax**2) / 4.0) / np.sqrt(4.0 * np.pi)

    def prof_hat(axi: np.ndarray) -> np.ndarray:
        return np.exp(-(axi**2))

    return Kernel(
        variant="SmoothSymmetric",
        profile=prof,
        l1_norm=1.0,
        support_radius=np.inf,
        profile_hat=prof_hat,
        # 40 standard deviations of the variance-2 profile
        tail_cut=40.0 * np.sqrt(2.0),
    )


def rescale(k: Kernel, eps: float) -> Kernel:
    """k_eps(x) = k(x/eps)/eps; preserves the L1 norm, scales moments."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if k.variant != "SmoothSymmetric":
        raise ValueError("rescale applies to SmoothSymmetric kernels")
    base_prof = k.profile
    base_hat = k.profile_hat

    def prof(ax: np.ndarray) -> np.ndarray:
        return base_prof(ax / eps) / eps

    prof_hat = None
    if base_hat is not None:

        def prof_hat(axi: np.ndarray) -> np.ndarray:  # noqa: F811
            return base_hat(axi * eps)

    return Kernel(
        variant="SmoothSymmetric",
        profile=prof,
        l1_norm=k.l1_norm,
        support_radius=k.support_radius if np.isinf(k.support_radius) else k.support_radius * eps,
        profile_hat=prof_hat,
        tail_cut=k.tail_cut * eps,
    )


def truncated_fractional_kernel(alpha: float, eps: float) -> Kernel:
    """Plateau-truncated power-law kernel:
    |x|^(-1-alpha) on eps <= |x| <= 1/eps, eps^(-1-alpha) on |x| < eps,
    zero beyond 1/eps.  L1 norm in closed form."""
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must be in (0,2)")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0,1)")

    def prof(ax: np.ndarray) -> np.ndarray:
        ax = np.asarray(ax, dtype=float)
        out = np.zeros_like(ax)
        plateau = ax < eps
        mid = (~plateau) & (ax <= 1.0 / eps)
        out[plateau] = eps ** (-1.0 - alpha)
        out[mid] = ax[mid] ** (-1.0 - alpha)
        return out

    l1 = 2.0 * (eps * eps ** (-1.0 - alpha) + (eps ** (-alpha) - eps**alpha) / alpha)
    return Kernel(
        variant="TruncatedFractional",
        profile=prof,
        l1_norm=l1,
        support_radius=1.0 / eps,
    )


def khat(k: Kernel, xi: np.ndarray | float) -> np.ndarray | float:
    """Real Fourier transform of the symmetric kernel, from its recorded
    closed form; errors for a kernel that records none."""
    if k.profile_hat is None:
        raise ValueError("khat requires a kernel with a closed-form transform")
    out = k.profile_hat(np.abs(np.asarray(xi, dtype=float)))
    return float(out) if np.isscalar(xi) else out


@dataclass(frozen=True)
class RatioConstant:
    value: float
    arg_max: float


def fourier_ratio_constant(k: Kernel) -> RatioConstant:
    """Smallest grid-admissible K with xi^2 khat^2 <= K (1 - khat).

    Scans 4096 equal steps of |xi| in (0, 8]; errors if 1 - khat is not
    strictly positive away from 0 (the kernel then fails the positivity
    hypothesis)."""
    if k.variant != "SmoothSymmetric":
        raise ValueError("ratio constant requires a SmoothSymmetric kernel")
    xi = np.linspace(0.0, 8.0, 4097)[1:]
    kh = np.asarray(khat(k, xi))
    denom = 1.0 - kh
    if np.any(denom <= 0.0):
        raise ValueError("1 - khat(xi) not strictly positive away from 0")
    ratio = xi**2 * kh**2 / denom
    i = int(np.argmax(ratio))
    return RatioConstant(value=float(ratio[i]), arg_max=float(xi[i]))


def symbol_constant(alpha: float) -> float:
    """Kernel constant c with symbol of c|z|^(-1-alpha) equal to |xi|^alpha.

    c = 1/sigma_alpha, sigma_alpha = 2 int_0^inf (1-cos u) u^(-1-alpha) du
    = 2 Gamma(2-alpha) cos(pi alpha/2) / (alpha (1-alpha)), = pi at alpha = 1.
    """
    return 1.0 / power_kernel_symbol_factor(alpha)


def power_kernel_symbol_factor(alpha: float) -> float:
    """sigma_alpha: the |xi|^alpha coefficient of the unit power-law kernel."""
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must be in (0,2)")
    if abs(alpha - 1.0) < 1e-12:
        return float(np.pi)
    return float(2.0 * math.gamma(2.0 - alpha) * np.cos(np.pi * alpha / 2.0) / (alpha * (1.0 - alpha)))
