"""Direct numerical verification of the functional inequalities behind the
spectral analysis: jump Dirichlet forms, the gradient-of-convolution bound,
the dissipativity weight profile, L^p dissipativity of the remainder part B,
the adjoint-side L2 estimate, iterated-convolution regularization norms, and
the fractional Sobolev identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fourier import PowerSpectra, power_spectra
from .grids import Grid1D, WeightSpec, derivative, probe_norm
from .kernels import Kernel, khat, power_kernel_symbol_factor, rescale
from .operators import OperatorMatrix, OperatorParts, _exponential, _power_cell_weights
from .probes import probe_block
from .splitting import chi_gradient_bound, chi_scaled


# ---------------------------------------------------------------------------
# Dirichlet form of the rescaled smooth-kernel jump operator


def dirichlet_form_block(F: np.ndarray, grid: Grid1D, k: Kernel,
                         eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The nonnegative quadratic form
    (1/(2 eps^2)) integral integral (f(x) - f(y))^2 k_eps(x - y) dx dy
    of every column f of the n x P block F, by two paths that agree to
    roundoff: the O(n^2) double sum over the sampled kernel matrix (the
    reference) and the same sum as a Toeplitz identity
    (``_toeplitz_difference_sums``).  Returns (double_sum, fast), one value
    per column each."""
    if k.variant != "SmoothSymmetric":
        raise ValueError("dirichlet_form_block requires a SmoothSymmetric kernel")
    if eps <= 0:
        raise ValueError("eps must be positive")
    n, h = grid.n, grid.h
    keps = rescale(k, eps)
    # k_eps(x_i - x_j) a slab of rows at a time, so that the profile's
    # temporaries stay a fraction of the n x n matrix
    x = grid.nodes
    kv = np.empty((n, n))
    rows = max(1, n // 8)
    for lo in range(0, n, rows):
        kv[lo:lo + rows] = keps(np.subtract.outer(x[lo:lo + rows], x))
    # sum_ij (v_i - v_j)^2 kv_ij one probe at a time in one n x n work array
    work = np.empty_like(kv)
    double = np.empty(F.shape[1])
    for j, v in enumerate(F.T):
        np.subtract.outer(v, v, out=work)
        work *= work
        work *= kv
        double[j] = np.sum(work)
    del kv, work
    fast = _toeplitz_difference_sums(F, np.asarray(keps(np.arange(n) * h)))
    scale = 0.5 / eps**2 * h * h
    return scale * double, scale * fast


def _toeplitz_difference_sums(F: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_ij (v_i - v_j)^2 c_|i-j| for every column v of the n x P block F,
    as 2 [sum_i v_i^2 R_i - v . T(c) v] with R = T(c) 1: one product of the
    symmetric Toeplitz T(c) with [F | 1] on its parts
    (``OperatorParts.matmat``), then each column's two sums as 1-D dot
    products, so that a column's value does not depend on its block."""
    n = len(c)
    zero, ones = np.zeros(n - 1), np.ones(n)
    T = OperatorParts(np.zeros(n), zero, zero, c[None, :], ones[None, :], ones[None, :])
    # rows of T [F | 1]: a strided dot product sums in another order
    TF = np.ascontiguousarray(T.matmat(np.column_stack([F, ones])).T)
    R = TF[-1]
    return 2.0 * np.array([R @ (v * v) - v @ Tv
                           for v, Tv in zip(np.ascontiguousarray(F.T), TF)])


def dirichlet_form_fourier_oracle_block(spectra: PowerSpectra, k: Kernel,
                                        eps: float) -> np.ndarray:
    """Independent continuum-side value of the Dirichlet form of every probe
    of a block, from its power spectra:
    (1/2pi) integral |fhat|^2 (1 - khat(eps xi)) / eps^2 dxi
    with the continuum kernel transform (quadrature in |xi| <= 60)."""
    kh = np.asarray(khat(k, eps * spectra.xi_nodes)) / k.l1_norm
    return spectra.integrate((1.0 - kh) / eps**2 * k.l1_norm, 60.0)


def gradient_convolution_block(spectra: PowerSpectra, k: Kernel, eps: float,
                               K: float) -> dict:
    """Checks ||d/dx (k_eps * f)||_L2^2 <= K * I_eps(f) for every probe of a
    block, from its power spectra (Fourier side both): lhs the xi^2-weighted
    power of the convolution, rhs from the continuum Dirichlet-form value.
    Each entry is an array with one value per probe, and each probe passes
    or fails on its own.  ``ratio`` is lhs / rhs (0 where rhs = 0)."""
    xi = spectra.xi_nodes
    lhs = spectra.integrate((xi * np.asarray(khat(k, eps * xi))) ** 2)
    form = dirichlet_form_fourier_oracle_block(spectra, k, eps)
    rhs = K * form
    return {"lhs": lhs, "rhs": rhs, "dirichlet": form,
            "ratio": np.divide(lhs, rhs, out=np.zeros_like(lhs), where=rhs > 0),
            "pass": lhs <= rhs * (1.0 + 1e-10) + 1e-14}


# ---------------------------------------------------------------------------
# the dissipativity weight profile


@dataclass(frozen=True)
class PsiProfile:
    x: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)  # psi(x) - M chi_R(x)
    sup: float = np.nan
    params: dict = field(default_factory=dict)


def psi_constant(k: Kernel, q: float, p: int) -> float:
    """Computable surrogate for the near-origin constant in the dissipativity
    profile: (1/p) * (1/2) * 2^{|pq-2|} * C_m * mu, where C_m bounds the
    second derivative of the weight <x>^q relative to <x>^{q-2} on the grid
    of the kernel's support and mu is the kernel second moment."""
    z = np.linspace(0.0, min(k.tail_cut, 60.0), 20001)
    mu = float(2.0 * np.trapezoid(z * z * k(z), z))
    # max over x of |d^2/dx^2 <x>^q| / <x>^(q-2)
    x = np.linspace(0.0, 50.0, 50001)
    bracket = (1.0 + x * x)
    d2 = np.abs(q * bracket ** (q / 2.0 - 1.0) + q * (q - 2.0) * x * x * bracket ** (q / 2.0 - 2.0))
    Cm = float(np.max(d2 / bracket ** (q / 2.0 - 1.0)))
    return (1.0 / p) * 0.5 * (2.0 ** abs(p * q - 2.0)) * Cm * mu


def psi_profile(grid: Grid1D, eps: float, M: float, R: float, p: int, q: float,
                C_bound: float) -> PsiProfile:
    """Samples psi(x) - M chi_R(x) with
    psi(x) = C <x>^-2 + 1/p' - q x^2/<x>^2 + M C_R eps,
    C_R the exact gradient bound of the cutoff.  The sup must fall below the
    dissipativity target a."""
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    x = grid.nodes
    bracket2 = 1.0 + x * x
    pprime = np.inf if p == 1 else p / (p - 1.0)
    d_over_pprime = 0.0 if p == 1 else 1.0 / pprime
    cR = chi_gradient_bound(R)
    psi = C_bound / bracket2 + d_over_pprime - q * x * x / bracket2 + M * cR * eps
    vals = psi - M * np.asarray(chi_scaled(x, R))
    return PsiProfile(
        x=x,
        values=vals,
        sup=float(vals.max()),
        params={"eps": eps, "M": M, "R": R, "p": p, "q": q,
                "C_bound": C_bound, "C_R": cR},
    )


# ---------------------------------------------------------------------------
# dissipativity of the remainder part


@dataclass(frozen=True)
class DissipativityReport:
    worst_ratio: float
    a: float
    passed: bool
    n_probes: int
    ratios: np.ndarray = field(repr=False, default=None)


def dissipativity_check(B: OperatorMatrix, w: WeightSpec, a: float,
                        probes: int = 64, seed: int = 0) -> DissipativityReport:
    """Checks the L^p(m) energy inequality <B f, Phi'(f)>_{L^p(m)} <= a ||f||^p_{L^p(m)}
    on seeded probes, with Phi(f) = |f|^p / p (p = 1: Phi' = sign).

    For weight specs with sobolev_order s >= 1 and p = 2, the same functional
    is summed over derivative orders 0..s (the H^s(m) energy), each
    derivative taken as in ``weighted_norm`` (``grids.derivative``); p = 1
    with s >= 1 is refused."""
    if w.p == 1 and w.s:
        raise ValueError("the L^1 dissipativity check reads no derivative order s")
    grid = B.grid
    F = probe_block(grid, count=probes, seed=seed)
    F = F[:, np.max(np.abs(F), axis=0) >= 1e-14]
    BF = B.matmat(F)
    h_w = grid.cell_sizes[:, None]
    m = w.weight_values(grid.nodes)[:, None]

    def energy_pair(U: np.ndarray, BU: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if w.p == 1:
            return (np.sum(h_w * BU * np.sign(U) * m, axis=0),
                    np.sum(h_w * np.abs(U) * m, axis=0))
        return (np.sum(h_w * BU * U * m * m, axis=0),
                np.sum(h_w * U * U * m * m, axis=0))

    nums, dens = energy_pair(F, BF)
    if w.p == 2:
        for _ in range(w.s):
            F = derivative(F, grid.h)
            BF = derivative(BF, grid.h)
            num, den = energy_pair(F, BF)
            nums, dens = nums + num, dens + den
    ratios = nums[dens > 0] / dens[dens > 0]
    worst = ratios.max(initial=-np.inf)
    return DissipativityReport(
        worst_ratio=float(worst),
        a=a,
        passed=bool(worst <= a + 1e-8),
        n_probes=len(ratios),
        ratios=ratios,
    )


def adjoint_dissipativity_check(B: OperatorMatrix, w: WeightSpec, b: float,
                                alpha: float, probes: int = 64, seed: int = 0) -> dict:
    """L2 energy estimate for the weighted adjoint (D_m B D_m^-1)^T:
    checks <B* phi, phi>_{L2} <= b ||phi||^2 on probes.  The weight power must
    satisfy q < alpha/2 so the similarity transform stays bounded; a weight
    with p != 2 or s != 0 is refused.  The product is D_m^-1 B^T (D_m F), on
    the parts of B."""
    if w.p != 2 or w.s:
        raise ValueError("the adjoint check is an L^2 estimate: it reads only q of p = 2, s = 0")
    if not (w.q < alpha / 2.0):
        raise ValueError("need q < alpha/2 for the adjoint weight transform")
    grid = B.grid
    m = w.weight_values(grid.nodes)[:, None]
    h_w = grid.cell_sizes[:, None]
    F = probe_block(grid, count=probes, seed=seed)
    nums = np.sum(h_w * (B.matmat(m * F, transpose=True) / m) * F, axis=0)
    dens = np.sum(h_w * F * F, axis=0)
    worst = float((nums[dens > 0] / dens[dens > 0]).max(initial=-np.inf))
    return {"worst_ratio": worst, "b": b, "pass": bool(worst <= b + 1e-8)}


# ---------------------------------------------------------------------------
# regularization norms of the iterated Duhamel convolution


def regularization_norm(
    A: OperatorMatrix,
    B: OperatorMatrix,
    n_conv: int,
    t_grid: list[float],
    source: WeightSpec,
    target: WeightSpec,
    n_quad: int = 64,
    probes: int = 32,
    seed: int = 0,
    include_sharp: bool = False,
) -> dict:
    """Probe norms over t_grid of the n_conv-fold Duhamel convolution
    T_1(t) = A e^{tB},  T_{j+1}(t) = integral_0^t T_1(t - s) T_j(s) ds
    (composite trapezoid with n_quad intervals), plus a fitted exponential
    rate over the recorded times.

    Only the image T F of the n x P probe block F is formed, never T itself.
    With E = e^{ds B}, ds = t/n_quad and trapezoid weights w_k, the two-fold
    sum T_2 F = ds sum_k w_k A E^(n_quad-k) A E^k F is evaluated in Horner
    form: Y <- E Y, Z <- E Z + w_k A Y, T_2 F = ds A Z.  A is applied on its
    parts (``matmat``) and E on the blocks of B
    (``operators._exponential``), so neither dense matrix is formed for a
    centrosymmetric B; apart from the exponentials of its two half-size
    mirror blocks, memory is O(nP)."""
    if A.grid != B.grid:
        raise ValueError("grid mismatch")
    if n_conv < 1 or n_conv > 2:
        raise ValueError("n_conv must be 1 or 2")
    grid = A.grid
    if grid.n > 2049:
        raise ValueError("regularization_norm requires n <= 2049 (dense expm)")
    F = probe_block(grid, count=probes, seed=seed, include_sharp=include_sharp)
    P = F.shape[1]
    rows = []
    for t in t_grid:
        if n_conv == 1:
            TF = A.matmat(_exponential(B, t)(F))
        else:
            ds = t / n_quad
            E = _exponential(B, ds)
            # [Y | Z] advance together: one product per quadrature node
            YZ = np.hstack([F, 0.5 * A.matmat(F)])
            for k in range(1, n_quad + 1):
                YZ = E(YZ)
                wk = 0.5 if k == n_quad else 1.0
                YZ[:, P:] += wk * A.matmat(YZ[:, :P])
            TF = ds * A.matmat(YZ[:, P:])
        rows.append({"t": t, "norm": probe_norm(TF, F, grid, source, target)})
    ts = np.array([r["t"] for r in rows])
    ns = np.array([r["norm"] for r in rows])
    rate = np.nan
    if np.sum(ns > 0) >= 2:
        keep = ns > 0
        rate = float(np.polyfit(ts[keep], np.log(ns[keep]), 1)[0])
    return {"rows": rows, "fitted_rate": rate, "n_conv": n_conv}


# ---------------------------------------------------------------------------
# fractional Sobolev identity


def fractional_sobolev_block(F: np.ndarray, grid: Grid1D, alpha: float) -> dict:
    """Compares, for every column u of the n x P block F, the regularized
    power-law double sum
    integral integral (u(x) - u(y))^2 |x-y|^{-1-alpha} (|x-y| >= delta),
    delta = 2h, plus the near-field Taylor correction
    2 delta^{2-alpha}/(2-alpha) ||u'||^2
    against c0 ||u||^2_{Hdot^{alpha/2}} with c0 = 2 sigma_{alpha/2-symbol}:
    the Fourier-side quadrature of |xi|^alpha |uhat|^2.  The double sum is a
    Toeplitz identity in the |i - j| cell weights
    (``_toeplitz_difference_sums``); each entry but ``c0`` is an array with
    one value per probe."""
    n, h = grid.n, grid.h
    delta = 2.0 * h
    # exact per-cell integrals of the kernel in the difference variable keep
    # the quadrature accurate next to the regularization radius
    w = np.zeros(n)
    w[1:] = _power_cell_weights(grid, alpha, 1.0, delta)
    near_factor = 2.0 * delta ** (2.0 - alpha) / (2.0 - alpha)
    # analytic far-tail correction: for y beyond the grid the probe vanishes,
    # leaving u(x)^2 times the kernel mass out of reach of the grid offsets
    x = grid.nodes
    missing = ((grid.L - x + 0.5 * h) ** (-alpha) + (grid.L + x + 0.5 * h) ** (-alpha)) / alpha
    probes = np.ascontiguousarray(F.T)
    double = h * _toeplitz_difference_sums(F, w)
    lhs = np.empty(len(probes))
    for j, v in enumerate(probes):
        du = np.gradient(v, h)
        near = near_factor * float(h * np.sum(du * du))
        tail = 2.0 * float(h * np.sum(v * v * missing))
        lhs[j] = double[j] + near + tail
    spectra = power_spectra(F, grid)
    sob = spectra.integrate(np.abs(spectra.xi_nodes) ** alpha)
    c0 = 2.0 * power_kernel_symbol_factor(alpha)
    rhs = c0 * sob
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "rel_error": rel, "c0": c0, "pass": rel <= 0.02}
