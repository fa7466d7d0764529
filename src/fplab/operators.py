"""Dense matrix discretizations of the confined diffusion generators.

Four families, all of the form  diffusion + d/dx (x f):

* Classical          : Laplacian diffusion.
* DiscreteClassical  : eps^-2 (k_eps * f - f) with a smooth rescaled kernel.
* Fractional         : compensated power-law jump integral (order alpha).
* DiscreteFractional : k_eps * f - ||k_eps||_L1 f with the plateau-truncated
                       power-law kernel, no eps^-2 prefactor.

Assembly is finite-volume on the trapezoid cells (half cells at the two
boundary nodes), so the trapezoid mass is conserved exactly.  The drift uses
an exponential-fitting interface flux that degenerates to the monotone upwind
flux when no local diffusion is available; all jump off-diagonals are >= 0,
making every full generator an M-matrix generator (positivity preserving).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
import scipy.linalg as sla

from .grids import Field, Grid1D, WeightSpec, probe_norm
from .kernels import (
    Kernel,
    gaussian_reference_kernel,
    rescale,
    symbol_constant,
    truncated_fractional_kernel,
)
from .probes import probe_family


# ---------------------------------------------------------------------------
# model specifications


@dataclass(frozen=True)
class Classical:
    family: str = "classical"


@dataclass(frozen=True)
class DiscreteClassical:
    eps: float
    kernel: Kernel | None = None  # unrescaled smooth kernel; default Gaussian
    family: str = "discrete-classical"

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.kernel is None:
            object.__setattr__(self, "kernel", gaussian_reference_kernel())
        if self.kernel.variant != "SmoothSymmetric":
            raise ValueError("DiscreteClassical requires a SmoothSymmetric kernel")


@dataclass(frozen=True)
class Fractional:
    alpha: float
    # kernel constant; None selects the exact-symbol normalization so the
    # generator's Fourier symbol is -|xi|^alpha and the Fourier steady-state
    # oracle exp(-|xi|^alpha/alpha) applies.  Use 1.0 for the raw kernel
    # |z|^(-1-alpha) (the limit of the truncated family).
    constant: float | None = None
    family: str = "fractional"

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 2.0):
            raise ValueError("alpha must be in (0,2)")
        if self.constant is None:
            object.__setattr__(self, "constant", symbol_constant(self.alpha))


@dataclass(frozen=True)
class DiscreteFractional:
    eps: float
    alpha: float
    family: str = "discrete-fractional"

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 2.0):
            raise ValueError("alpha must be in (0,2)")
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must be in (0,1)")


ModelSpec = Union[Classical, DiscreteClassical, Fractional, DiscreteFractional]


# ---------------------------------------------------------------------------
# operator matrices


@dataclass(frozen=True)
class OperatorMatrix:
    grid: Grid1D
    entries: np.ndarray = field(repr=False)
    label: str = "full"
    conservation_defect: float = 0.0
    renorm_adjustment: float = 0.0
    jump_offdiag_min: float = 0.0

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.grid.n, self.grid.n):
            raise ValueError("entries shape must match grid")
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class _BirthDeath:
    """Bands of a reversible tridiagonal generator M and its symmetrizer.

    With D = diag(exp(log_d)), S = D M D^-1 is symmetric tridiagonal with
    diagonal ``diag`` and off-diagonal ``offdiag``.  D is never formed: its
    entries can span e^72 (the Classical generator at L = 12 has
    d ~ G^(-1/2))."""

    diag: np.ndarray
    lower: np.ndarray  # M[i+1, i]
    upper: np.ndarray  # M[i, i+1]
    log_d: np.ndarray  # log d_i, min 0

    @property
    def offdiag(self) -> np.ndarray:
        return np.copysign(np.sqrt(self.lower * self.upper), self.upper)


def _birth_death(M: np.ndarray) -> _BirthDeath | None:
    """The bands of M when M is exactly tridiagonal with every
    M[i,i+1] M[i+1,i] > 0 (a birth-death chain), else None.

    log d_{i+1} - log d_i = log(M[i,i+1]/M[i+1,i]) / 2 makes D M D^-1
    symmetric."""
    if sla.bandwidth(M) != (1, 1):
        return None
    lower, upper = np.diag(M, -1), np.diag(M, 1)
    if not np.all(lower * upper > 0.0):
        return None
    log_d = np.concatenate([[0.0], np.cumsum(0.5 * np.log(upper / lower))])
    return _BirthDeath(diag=np.diag(M).copy(), lower=lower.copy(), upper=upper.copy(),
                       log_d=log_d - log_d.min())


def _mirror_blocks(M: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The even and odd blocks of M when M commutes with the grid flip J,
    M[i, j] = M[n-1-i, n-1-j] up to 8 eps max|M|, and n is odd (as on every
    ``Grid1D``); else None.

    The generators of mirror-symmetric models on a symmetric grid are
    centrosymmetric (to 1.2 eps max|M| as assembled).  With m = n // 2, the
    fold v -> (even, odd) of ``_mirror_fold`` is a similarity taking M to
    diag(M_even, M_odd), of sizes m + 1 and m (Cantoni & Butler, Linear
    Algebra Appl. 13, 1976), so the spectrum, exponential and resolvent of M
    come from two half-size dense problems.  The anti-centrosymmetric part
    dropped is below the backward error of the dense solvers."""
    n = M.shape[0]
    if n % 2 == 0:
        return None
    m = n // 2
    skew = np.abs(M[: m + 1] - M[::-1, ::-1][: m + 1]).max()
    if skew > 8.0 * np.finfo(float).eps * np.abs(M).max():
        return None
    tt, tb = M[:m, :m], M[:m, ::-1][:, :m]
    even = np.block([[tt + tb, M[:m, m : m + 1]],
                     [2.0 * M[m : m + 1, :m], M[m : m + 1, m : m + 1]]])
    return even, tt - tb


def _mirror_fold(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-sum coordinates of v: ((v_top + v_bot)/2, v_center) and
    (v_top - v_bot)/2, with v_bot the bottom half read upward.  Halving
    before adding keeps every coordinate at most max|v|, so the fold of a
    finite state never overflows."""
    m = v.shape[0] // 2
    top, bot = 0.5 * v[:m], 0.5 * v[: m : -1]
    return np.concatenate([top + bot, v[m : m + 1]]), top - bot


def _mirror_unfold(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Inverse of ``_mirror_fold``."""
    m = odd.shape[0]
    a = even[:m]
    return np.concatenate([a + odd, even[m:], (a - odd)[::-1]])


def apply(m: OperatorMatrix, f: Field) -> Field:
    if f.grid != m.grid:
        raise ValueError("grid mismatch")
    return Field(f.grid, m.entries @ f.values)


# ---------------------------------------------------------------------------
# building blocks


def _bernoulli(w: np.ndarray) -> np.ndarray:
    """B(w) = w/(e^w - 1), the exponential-fitting flux weight."""
    out = np.empty_like(w)
    small = np.abs(w) < 1e-8
    out[small] = 1.0 - 0.5 * w[small]
    ws = w[~small]
    out[~small] = ws / np.expm1(ws)
    return out


def _add_drift_diffusion(M: np.ndarray, grid: Grid1D, diffusion: float) -> np.ndarray:
    """Add the conservative interface-flux discretization of
    diffusion * f'' + (x f)' on the trapezoid cells to M in place; returns M.

    diffusion > 0: exponential-fitting two-point flux (exact Gaussian-profile
    steady state for the Classical model); diffusion = 0: monotone upwind
    drift flux.  Zero flux through the outer interfaces.  The flux touches
    only the three central bands, which are built as O(n) vectors."""
    n, h = grid.n, grid.h
    x = grid.nodes
    wq = grid.cell_sizes
    xm = 0.5 * (x[:-1] + x[1:])
    if diffusion > 0.0:
        w = h * xm / diffusion
        coef_left = diffusion * _bernoulli(w)        # multiplies f_i
        coef_right = diffusion * _bernoulli(-w)      # multiplies f_{i+1}
    else:
        coef_left = h * np.maximum(-xm, 0.0)
        coef_right = h * np.maximum(xm, 0.0)
    # interface flux Phi_{i+1/2} = (coef_right f_{i+1} - coef_left f_i)/h
    # df_i/dt += Phi_{i+1/2}/wq_i ; df_{i+1}/dt -= Phi_{i+1/2}/wq_{i+1}
    diag = np.zeros(n)
    diag[:-1] += -coef_left / h / wq[:-1]
    diag[1:] += -coef_right / h / wq[1:]
    i = np.arange(n - 1)
    M[i, i + 1] += coef_right / h / wq[:-1]
    M[i + 1, i] += coef_left / h / wq[1:]
    d = np.arange(n)
    M[d, d] += diag
    return M


def _jump_block(grid: Grid1D, offset_weights: np.ndarray) -> np.ndarray:
    """Toeplitz gain matrix from per-offset weights plus the censored killing
    diagonal that conserves the trapezoid-weighted mass exactly.  The result
    is the only n x n array made.

    offset_weights[j] is the integrated kernel mass at grid offset j >= 1."""
    n, h = grid.n, grid.h
    wq = grid.cell_sizes
    col = np.zeros(n)
    col[1:] = offset_weights[: n - 1]
    K = sla.toeplitz(col)  # zero diagonal: no self-jump
    # boundary rows represent half cells: gains into them scale by wq_i/h,
    # which is exactly 1 on every interior row
    K[0] *= wq[0] / h
    K[-1] *= wq[-1] / h
    kill = (wq @ K) / wq
    d = np.arange(n)
    K[d, d] -= kill
    return K


def _finalize(grid: Grid1D, M: np.ndarray, label: str, jump_min: float) -> OperatorMatrix:
    """Column renormalization in place: zero the weighted column sums exactly
    and record the relative diagonal adjustment."""
    wq = grid.cell_sizes
    adj = (wq @ M) / wq
    d = np.arange(grid.n)
    scale = np.abs(M[d, d]).max()
    rel = float(np.abs(adj).max() / scale) if scale > 0 else 0.0
    M[d, d] -= adj
    final_defect = float(np.abs(wq @ M).max())
    return OperatorMatrix(
        grid=grid,
        entries=M,
        label=label,
        conservation_defect=final_defect,
        renorm_adjustment=rel,
        jump_offdiag_min=jump_min,
    )


def _power_cell_weights(grid: Grid1D, alpha: float, constant: float,
                        delta: float) -> np.ndarray:
    """Exact cell integrals of constant*|z|^(-1-alpha) for offsets j >= 1,
    zero inside the near-field radius delta."""
    n, h = grid.n, grid.h
    j = np.arange(1, n)
    lo = np.maximum(delta, (j - 0.5) * h)
    hi = np.maximum(delta, (j + 0.5) * h)
    return constant * (lo ** (-alpha) - hi ** (-alpha)) / alpha


def _truncated_cell_weights(grid: Grid1D, kern: Kernel) -> np.ndarray:
    """Exact cell integrals of the plateau-truncated power-law kernel."""
    alpha, eps = kern.alpha, kern.eps
    n, h = grid.n, grid.h
    j = np.arange(1, n)
    lo = (j - 0.5) * h
    hi = (j + 0.5) * h

    def antideriv(z: np.ndarray) -> np.ndarray:
        # integral of k_eps from 0 to z >= 0: plateau piece then power piece
        z = np.asarray(z, dtype=float)
        res = np.empty_like(z)
        small = z < eps
        res[small] = z[small] * eps ** (-1.0 - alpha)
        big = ~small
        zc = np.minimum(z[big], 1.0 / eps)
        res[big] = eps ** (-alpha) + (eps ** (-alpha) - zc ** (-alpha)) / alpha
        return res

    F = antideriv(np.concatenate(([0.0], hi)))
    Flo = antideriv(np.concatenate(([0.0], lo)))[1:]
    return F[1:] - Flo


def sampled_convolution_weights(model: DiscreteClassical, grid: Grid1D) -> tuple[float, np.ndarray]:
    """Per-offset quadrature weights of the rescaled smooth kernel, renormalized
    so the total offset sum equals the exact L1 norm.  Returns (w0, w[j>=1])."""
    h = grid.h
    if h > model.eps / 8.0 + 1e-12:
        raise ValueError(
            f"grid does not resolve the kernel: need h <= eps/8 = {model.eps / 8.0:.6g}, got h = {h:.6g}"
        )
    keps = rescale(model.kernel, model.eps)
    j = np.arange(1, grid.n)
    w = h * np.asarray(keps(j * h), dtype=float)
    w0 = h * float(keps(0.0))
    scale = keps.l1_norm / (w0 + 2.0 * w.sum())
    return w0 * scale, w * scale


def assemble(model: ModelSpec, grid: Grid1D) -> OperatorMatrix:
    """Assemble the dense generator matrix for a model on a grid."""
    h = grid.h
    if isinstance(model, Classical):
        M = _add_drift_diffusion(np.zeros((grid.n, grid.n)), grid, diffusion=1.0)
        return _finalize(grid, M, "full:classical", jump_min=0.0)

    if isinstance(model, DiscreteClassical):
        w0, w = sampled_convolution_weights(model, grid)
        M = _jump_block(grid, w)
        M /= model.eps**2
        _add_drift_diffusion(M, grid, diffusion=0.0)
        return _finalize(grid, M, "full:discrete-classical", jump_min=float(w.min()))

    if isinstance(model, Fractional):
        delta = 2.0 * h
        c = float(model.constant)
        # near field: |z| <= delta collapses to a local diffusion by the
        # second-order Taylor step; combined with the drift in one
        # exponential-fitting flux block
        near_diffusion = c * delta ** (2.0 - model.alpha) / (2.0 - model.alpha)
        w = _power_cell_weights(grid, model.alpha, c, delta)
        M = _add_drift_diffusion(_jump_block(grid, w), grid, diffusion=near_diffusion)
        return _finalize(grid, M, "full:fractional", jump_min=float(w.min()))

    if isinstance(model, DiscreteFractional):
        if h > model.eps / 2.0 + 1e-12:
            raise ValueError(
                f"grid does not resolve the plateau: need h <= eps/2 = {model.eps / 2.0:.6g}, got h = {h:.6g}"
            )
        kern = truncated_fractional_kernel(model.alpha, model.eps)
        w = _truncated_cell_weights(grid, kern)
        M = _add_drift_diffusion(_jump_block(grid, w), grid, diffusion=0.0)
        return _finalize(grid, M, "full:discrete-fractional", jump_min=float(w.min()))

    raise TypeError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# probe-based operator distance


def operator_distance(
    m1: OperatorMatrix,
    m2: OperatorMatrix,
    source: WeightSpec,
    target: WeightSpec,
    probes: int = 64,
    seed: int = 0,
    oscillatory: int = 0,
) -> float:
    """max over seeded smooth probes of ||(M1-M2) f||_target / ||f||_source.

    A lower-bound proxy for the induced operator norm, used for convergence
    slopes.  ``oscillatory`` adds modulated probes whose frequency content
    saturates norms between Sobolev spaces of different orders."""
    if m1.grid != m2.grid:
        raise ValueError("same grid required")
    fields = probe_family(m1.grid, count=probes, seed=seed, oscillatory=oscillatory)
    F = np.column_stack([f.values for f in fields])
    return probe_norm((m1.entries - m2.entries) @ F, F, m1.grid, source, target)
