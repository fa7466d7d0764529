"""Direct numerical verification of the functional inequalities behind the
spectral analysis: jump Dirichlet forms, the gradient-of-convolution bound,
the dissipativity weight profile, L^p dissipativity of the remainder part B,
the adjoint-side L2 estimate, iterated-convolution regularization norms, and
the fractional Sobolev identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .fourier import _padded_size, fourier_transform
from .grids import Field, Grid1D, WeightSpec, probe_norm
from .kernels import Kernel, khat, power_kernel_symbol_factor, rescale
from .operators import OperatorMatrix, _power_cell_weights
from .probes import probe_family
from .splitting import chi_gradient_bound, chi_scaled


# ---------------------------------------------------------------------------
# Dirichlet form of the rescaled smooth-kernel jump operator


def dirichlet_form(f: Field, k: Kernel, eps: float, path: str = "both") -> float:
    """The nonnegative quadratic form
    (1/(2 eps^2)) integral integral (f(x) - f(y))^2 k_eps(x - y) dx dy.

    path = "double-sum" evaluates the O(n^2) quadrature directly;
    path = "fourier" uses the discrete convolution theorem with the *sampled*
    kernel transform, which agrees with the double sum to roundoff;
    path = "both" (default) computes both, checks 1e-8 relative agreement,
    and returns the double-sum value."""
    if k.variant != "SmoothSymmetric":
        raise ValueError("dirichlet_form requires a SmoothSymmetric kernel")
    if eps <= 0:
        raise ValueError("eps must be positive")
    grid = f.grid
    h = grid.h
    keps = rescale(k, eps)
    v = f.values

    def double_sum() -> float:
        diff = v[:, None] - v[None, :]
        Z = grid.nodes[:, None] - grid.nodes[None, :]
        kv = np.asarray(keps(Z))
        return float(0.5 / eps**2 * h * h * np.sum(diff * diff * kv))

    def fourier_path() -> float:
        # same sampled kernel via the FFT convolution theorem:
        # sum_{ij} (f_i - f_j)^2 K_ij = 2 [ sum_i f_i^2 R_i - f . (K f) ],
        # R_i = row sums of the Toeplitz kernel matrix.  The linear
        # convolutions of f and 1 with the 2n-1 kernel samples have length
        # 3n-2 <= npad; entries n-1 .. 2n-2 are the Toeplitz products.
        n = grid.n
        npad = _padded_size(n)
        kvals = np.asarray(keps(np.arange(-(n - 1), n) * h))
        Kf, R = np.fft.irfft(np.fft.rfft(np.stack([v, np.ones(n)]), npad)
                             * np.fft.rfft(kvals, npad), npad)[:, n - 1: 2 * n - 1]
        quad = 2.0 * (R @ (v * v) - v @ Kf)
        return float(0.5 / eps**2 * h * h * quad)

    if path == "double-sum":
        return double_sum()
    if path == "fourier":
        return fourier_path()
    if path == "both":
        a = double_sum()
        b = fourier_path()
        scale = max(abs(a), abs(b), 1e-300)
        if abs(a - b) / scale > 1e-8 and scale > 1e-12:
            raise ArithmeticError(
                f"Dirichlet-form paths disagree: {a:.12e} vs {b:.12e}"
            )
        return a
    raise ValueError(f"unknown path {path}")


def dirichlet_form_fourier_oracle(f: Field, k: Kernel, eps: float,
                                  xi_max: float = 60.0) -> float:
    """Independent continuum-side value
    (1/2pi) integral |fhat|^2 (1 - khat(eps xi)) / eps^2 dxi
    using the continuum kernel transform (quadrature in xi)."""
    sf = fourier_transform(f)
    xi = sf.xi_nodes
    keep = np.abs(xi) <= xi_max
    xi = xi[keep]
    vals = np.abs(sf.values[keep]) ** 2
    kh = np.asarray(khat(k, eps * xi)) / k.l1_norm
    integrand = vals * (1.0 - kh) / eps**2 * k.l1_norm
    return _xi_integral(integrand, xi)


def _xi_integral(integrand: np.ndarray, xi: np.ndarray) -> float:
    """(1/2pi) times the trapezoid integral over xi; the fftfreq-ordered nodes
    are sorted first, or the wrap-around from +xi_max to -xi_max would count
    as one more panel."""
    order = np.argsort(xi)
    return float(np.trapezoid(integrand[order], xi[order]) / (2.0 * np.pi))


def gradient_convolution_check(f: Field, k: Kernel, eps: float, K: float) -> dict:
    """Checks ||d/dx (k_eps * f)||_L2^2 <= K * I_eps(f) (Fourier side both):
    lhs via FFT of the convolution derivative, rhs via the continuum
    Dirichlet-form value."""
    sf = fourier_transform(f)
    xi = sf.xi_nodes
    kh = np.asarray(khat(k, eps * xi))
    lhs = _xi_integral(np.abs(1j * xi * kh * sf.values) ** 2, xi)
    rhs_form = dirichlet_form_fourier_oracle(f, k, eps)
    ok = lhs <= K * rhs_form * (1.0 + 1e-10) + 1e-14
    return {"lhs": lhs, "rhs": K * rhs_form, "dirichlet": rhs_form, "pass": bool(ok)}


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
    is summed over derivative orders 0..s (the H^s(m) energy)."""
    grid = B.grid
    F = np.column_stack([f.values for f in probe_family(grid, count=probes, seed=seed)])
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
            F = np.gradient(F, grid.h, axis=0)
            BF = np.gradient(BF, grid.h, axis=0)
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
    satisfy q < alpha/2 so the similarity transform stays bounded.  The
    product is D_m^-1 B^T (D_m F), on the parts of B."""
    if not (w.q < alpha / 2.0):
        raise ValueError("need q < alpha/2 for the adjoint weight transform")
    grid = B.grid
    m = w.weight_values(grid.nodes)[:, None]
    h_w = grid.cell_sizes[:, None]
    F = np.column_stack([f.values for f in probe_family(grid, count=probes, seed=seed)])
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
    form: Y <- E Y, Z <- E Z + w_k A Y, T_2 F = ds A Z.  Apart from the dense
    e^{ds B} and the operators themselves, memory is O(nP)."""
    if A.grid != B.grid:
        raise ValueError("grid mismatch")
    if n_conv < 1 or n_conv > 2:
        raise ValueError("n_conv must be 1 or 2")
    grid = A.grid
    if grid.n > 2049:
        raise ValueError("regularization_norm requires n <= 2049 (dense expm)")
    F = np.column_stack([f.values for f in probe_family(grid, count=probes, seed=seed,
                                                        include_sharp=include_sharp)])
    P = F.shape[1]
    rows = []
    for t in t_grid:
        if n_conv == 1:
            TF = A.entries @ (sla.expm(t * B.entries) @ F)
        else:
            ds = t / n_quad
            E = sla.expm(ds * B.entries)
            # [Y | Z] advance together: one GEMM per quadrature node
            YZ = np.hstack([F, 0.5 * (A.entries @ F)])
            for k in range(1, n_quad + 1):
                YZ = E @ YZ
                wk = 0.5 if k == n_quad else 1.0
                YZ[:, P:] += wk * (A.entries @ YZ[:, :P])
            TF = ds * (A.entries @ YZ[:, P:])
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


def fractional_sobolev_check(f: Field, alpha: float, delta: float | None = None) -> dict:
    """Compares the regularized power-law double sum
    integral integral (u(x) - u(y))^2 |x-y|^{-1-alpha} (|x-y| >= delta)
    plus the near-field Taylor correction 2 delta^{2-alpha}/(2-alpha) ||u'||^2
    against c0 ||u||^2_{Hdot^{alpha/2}} with c0 = 2 sigma_{alpha/2-symbol}:
    the Fourier-side quadrature of |xi|^alpha |uhat|^2."""
    grid = f.grid
    h = grid.h
    if delta is None:
        delta = 2.0 * h
    v = f.values
    # exact per-cell integrals of the kernel in the difference variable keep
    # the quadrature accurate next to the regularization radius
    w = np.zeros(grid.n)
    w[1:] = _power_cell_weights(grid, alpha, 1.0, delta)
    idx = np.abs(np.arange(grid.n)[:, None] - np.arange(grid.n)[None, :])
    kv = w[idx]
    diff = v[:, None] - v[None, :]
    double = float(h * np.sum(diff * diff * kv))
    du = np.gradient(v, h)
    near = 2.0 * delta ** (2.0 - alpha) / (2.0 - alpha) * float(h * np.sum(du * du))
    # analytic far-tail correction: for y beyond the grid the probe vanishes,
    # leaving u(x)^2 times the kernel mass out of reach of the grid offsets
    x = grid.nodes
    missing = ((grid.L - x + 0.5 * h) ** (-alpha) + (grid.L + x + 0.5 * h) ** (-alpha)) / alpha
    tail = 2.0 * float(h * np.sum(v * v * missing))
    lhs = double + near + tail
    sf = fourier_transform(f)
    xi = sf.xi_nodes
    sob = _xi_integral(np.abs(xi) ** alpha * np.abs(sf.values) ** 2, xi)
    c0 = 2.0 * power_kernel_symbol_factor(alpha)
    rhs = c0 * sob
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "rel_error": rel, "c0": c0, "pass": bool(rel <= 0.02)}
