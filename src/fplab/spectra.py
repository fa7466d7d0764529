"""Eigenvalue analysis of the discretized generators: spectral gaps,
parameter sweeps, the rank-1 Riesz projector onto the equilibrium in
closed form, and the resolvent-perturbation certificate for the truncated
jump family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .grids import Grid1D, WeightSpec, make_grid, probe_norm
from .operators import (
    ModelSpec,
    OperatorMatrix,
    OperatorParts,
    _shifted_solver,
    assemble,
)
from .probes import probe_block
from .semigroup import operator_scale, steady_state
from .splitting import SplittingSpec, assemble_splitting


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray = field(repr=False)  # sorted by descending real part
    gap: float = np.nan  # sup of real parts of the nonzero spectrum
    zero_residual: float = np.nan  # |eigenvalue closest to 0|
    separation_a: float = np.nan
    separation_count: int = 0  # eigenvalues with Re > separation_a


def _eigenvalues(op: OperatorMatrix) -> np.ndarray:
    """Eigenvalues of a generator, unordered, as a complex array.

    A birth-death generator (``OperatorMatrix.bands``: tridiagonal with
    every M[i,i+1] M[i+1,i] > 0, the reversible chains, such as the
    Classical generator) is similar by a real diagonal matrix to a symmetric
    tridiagonal one, so its spectrum is real and comes from the symmetric
    tridiagonal solver in O(n^2).  Every other spectrum is that of its
    ``OperatorMatrix.blocks``, by the dense non-symmetric solver: a
    centrosymmetric generator (every other generator of a mirror-symmetric
    model) is similar to diag(M_even, M_odd), a quarter of the dense
    work.

    A block whose order m is a multiple of 256 is solved bordered
    (``_bordered``): at leading dimension m the columns lie m * 8 bytes
    apart, a multiple of 4 KiB, and collide in cache, so LAPACK's QR sweeps
    run about twice as slow as at m + 1.  Every grid n = 2^k + 1 makes the
    odd mirror block such an order.  On 2 vCPUs with 2 OpenBLAS threads
    ``sla.eigvals`` of a random matrix took 0.196 s at m = 512 and 0.100 s
    at 513, 0.68 s at 1024 and 0.33 s at 1025; the odd block of a jump
    generator at n = 1025 took 0.14-0.16 s, and 0.067 s bordered.  The
    bordered eigenvalue c, the rightmost one, is dropped."""
    s = op.bands
    if s is not None:
        return sla.eigvalsh_tridiagonal(s.diag, s.offdiag).astype(complex)
    evs = []
    for B in op.blocks.mats:
        if B.shape[0] % 256:
            evs.append(sla.eigvals(B))
            continue
        A, c = _bordered(B)
        ev = sla.eigvals(A, overwrite_a=True)
        top = int(np.argmax(ev.real))
        if ev[top] != c:
            raise ArithmeticError("the bordered eigenvalue did not come back isolated")
        evs.append(np.delete(ev, top))
    return np.concatenate(evs)


def _bordered(B: np.ndarray) -> tuple[np.ndarray, float]:
    """B in a fresh Fortran (m+1) x (m+1) array with a zero border and the
    diagonal entry c = max_i (B_ii + sum_{j != i} |B_ij|) + 1, and c.

    c lies right of every Gershgorin disc of B, so it is the rightmost
    eigenvalue, and LAPACK's permutation step (dgebal) isolates its row:
    the QR sweeps run on exactly B's active block, at leading dimension
    m + 1."""
    m = B.shape[0]
    A = np.zeros((m + 1, m + 1), order="F")
    # |B| is summed in A's own storage, which B then overwrites
    radii = np.abs(B, out=A[:m, :m]).sum(axis=1)
    d = np.diagonal(B)
    c = float(np.max(d + radii - np.abs(d))) + 1.0
    A[:m, :m] = B
    A[m, m] = c
    return A, c


def eigen_spectrum(op: OperatorMatrix, k_leading: int = 8, separation_a: float = -0.5) -> SpectrumReport:
    """Full eigensolve; reports the k_leading rightmost eigenvalues, the gap
    (largest real part excluding the zero eigenvalue), and how many
    eigenvalues lie right of separation_a.

    Errors if the eigenvalue of minimal modulus is not simple (two
    eigenvalues within 1e-8 of each other near 0)."""
    ev = _eigenvalues(op)
    # real part descending, ties (a conjugate pair) by imaginary part
    # descending, whatever order the solver returned them in
    ev = ev[np.lexsort((-ev.imag, -ev.real))]
    mod = np.abs(ev)
    i0 = int(np.argmin(mod))
    others = np.delete(mod, i0)
    if others.size and others.min() <= mod[i0] + 1e-8:
        raise ArithmeticError("zero eigenvalue is not simple")
    gap = float(np.delete(ev, i0).real.max()) if ev.size > 1 else np.nan
    count = int(np.sum(ev.real > separation_a))
    return SpectrumReport(
        eigenvalues=ev[:k_leading],
        gap=gap,
        zero_residual=float(mod[i0]),
        separation_a=separation_a,
        separation_count=count,
    )


# ---------------------------------------------------------------------------
# Fourier-side assembly for the power-law family


def fourier_side_generator(alpha: float, xi_max: float = 30.0, n_xi: int = 2049) -> OperatorMatrix:
    """Collocation of the frequency-side generator g -> -|xi|^alpha g - xi g'
    on a symmetric xi-grid.

    The characteristics flow outward (xi e^t), so eigenfunctions
    xi^n exp(-|xi|^alpha/alpha) are thin-tailed here even when the physical
    equilibrium is heavy-tailed; centered differences with one-sided stencils
    at the two outer boundary rows."""
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must be in (0,2)")
    grid = make_grid(xi_max, n_xi)
    xi = grid.nodes
    h = grid.h
    n = grid.n
    # -diag(|xi|^alpha) - diag(xi) D as parts: row i of diag(xi) D is xi_i
    # times row i of the difference matrix D, whose centred stencil gives
    # the bands and whose one-sided rows 0 and n-1 add to the diagonal, the
    # bands and, through one Toeplitz term with column e_2 and a row factor
    # nonzero only on those two rows, M[0, 2] and M[n-1, n-3]
    diag = -np.abs(xi) ** alpha
    diag[0] -= xi[0] * (-1.5 / h)
    diag[-1] -= xi[-1] * (1.5 / h)
    upper = -(xi[:-1] * (1.0 / (2.0 * h)))
    upper[0] = -(xi[0] * (2.0 / h))
    lower = -(xi[1:] * (-1.0 / (2.0 * h)))
    lower[-1] = -(xi[-1] * (-2.0 / h))
    col, rows = np.zeros((1, n)), np.zeros((1, n))
    col[0, 2] = 1.0
    rows[0, 0], rows[0, -1] = -(xi[0] * (-0.5 / h)), -(xi[-1] * (0.5 / h))
    parts = OperatorParts(diag, lower, upper, col, rows, np.ones((1, n)))
    return OperatorMatrix(grid, parts, f"fourier-side:alpha={alpha}")


# ---------------------------------------------------------------------------
# sweeps


def gap_sweep(
    build: Callable[[float], OperatorMatrix],
    params: list[float],
    gap_target: float = -0.5,
) -> dict:
    """Spectral gap per parameter; PASS iff no parameter errored and every
    gap <= gap_target < 0, and vacuously, with a warning, for an empty
    parameter list.  An errored parameter is recorded and the sweep goes
    on."""
    rows = []
    for p in params:
        row = {"param": p, "gap": np.nan, "error": None}
        try:
            row["gap"] = eigen_spectrum(build(p)).gap
        except Exception as exc:
            row["error"] = {"type": type(exc).__name__, "message": str(exc)}
        rows.append(row)
    gaps = [r["gap"] for r in rows if r["error"] is None and np.isfinite(r["gap"])]
    return {
        "rows": rows,
        "max_gap": max(gaps) if gaps else np.nan,
        "gap_target": gap_target,
        "pass": not params or (bool(gaps) and max(gaps) <= gap_target
                               and not any(r["error"] for r in rows)),
        "warning": None if params else "empty parameter list",
    }


# ---------------------------------------------------------------------------
# spectral projectors


@dataclass(frozen=True)
class ProjectorReport:
    rank: int
    contour_radius: float
    contour_margin: float  # min over eigenvalues of ||lambda| - radius|
    norm: float  # ||P||_2
    projector: np.ndarray = field(repr=False)


def spectral_projector(op: OperatorMatrix, radius: float) -> ProjectorReport:
    """Riesz projector onto the eigenvalues inside |z| = radius, the contour
    integral P = (1 / 2 pi i) int_{|z|=radius} (zI - M)^(-1) dz, in closed
    form: for a mass-conserving M the cell sizes wq are the left null
    vector (wq^T M = 0), so the projector onto the simple zero eigenvalue is
    P = G wq^T / (wq . G), with G the steady state (``steady_state``), and
    ||P||_2 = ||G||_2 ||wq||_2 / |wq . G|.

    The eigenvalues come from ``_eigenvalues``.  Errors if one lies within
    1e-6 of the contour, suggesting a safe radius; refuses, as beyond the
    closed form, a contour that does not enclose exactly one eigenvalue
    (naming the radius interval that encloses only the smallest one) and a
    generator that does not conserve mass (largest weighted column sum
    above 1e-10 times ``operator_scale``)."""
    mod = np.abs(_eigenvalues(op))
    dist = np.abs(mod - radius)
    if dist.min() < 1e-6:
        inner = mod[mod < radius]
        outer = mod[mod > radius]
        lo = inner.max() if inner.size else 0.0
        hi = outer.min() if outer.size else 2.0 * radius
        raise ValueError(
            f"contour crosses an eigenvalue; choose radius in ({lo:.3g}, {hi:.3g})"
        )
    k = int(np.count_nonzero(mod < radius))
    if k != 1:
        lo, hi = np.partition(mod, 1)[:2]
        raise ValueError(f"contour encloses {k} eigenvalues; the closed form is of rank 1: "
                         f"choose radius in ({lo:.3g}, {hi:.3g})")
    scale = operator_scale(op)
    if op.conservation_defect > 1e-10 * scale:
        raise ValueError(f"generator does not conserve mass: conservation defect "
                         f"{op.conservation_defect:.3e} against scale {scale:.3e}")
    G = steady_state(op).values
    wq = op.grid.cell_sizes
    c = wq @ G
    return ProjectorReport(
        rank=1,
        contour_radius=radius,
        contour_margin=float(dist.min()),
        norm=float(np.linalg.norm(G) * np.linalg.norm(wq) / abs(c)),
        projector=np.outer(G, wq) / c,
    )


def projector_distance(p1: ProjectorReport, p2: ProjectorReport, grid: Grid1D) -> float:
    """Probe-based operator-norm proxy of the difference of two projectors,
    in L^1 over 32 probes of seed 0."""
    F = probe_block(grid, count=32)
    w = WeightSpec(p=1)
    return probe_norm((p1.projector - p2.projector) @ F, F, grid, w, w)


# ---------------------------------------------------------------------------
# resolvent perturbation certificate


def perturbation_certificate(
    model_eps: ModelSpec,
    model_0: ModelSpec,
    grid: Grid1D,
    split: SplittingSpec,
    z_samples: list[complex],
    probes: int = 32,
) -> dict:
    """Probe norms of K(z) = -(L_eps - L_0) R_{L_0}(z) (A R_{B_eps}(z)) at the
    sample points, in L^1 over ``probes`` probes of seed 0; PASS iff all
    norms are < 1 (so I + K(z) is invertible and the resolvent
    factorization holds on the sample).

    At each sample z I - L_0 and z I - B_eps are factored on their own
    bands or blocks (``operators._shifted_solver``), and the products with
    L_eps - L_0 and A run on the parts.  A sample whose worse-conditioned
    factor has rcond < 1e-13 is refused.  A sample within 8 eps |z| of the
    conjugate of a sample already solved reuses its norm: for real F,
    K(conj z) F = conj(K(z) F), whose real and imaginary parts have the
    same norms."""
    L_eps, L_0 = assemble(model_eps, grid), assemble(model_0, grid)
    D = L_eps.parts - L_0.parts
    A, B = assemble_splitting(model_eps, grid, split)
    F = probe_block(grid, count=probes)
    w = WeightSpec(p=1)
    rows = []
    tiny = 8.0 * np.finfo(float).eps
    for z in z_samples:
        twin = [r["norm"] for r in rows if abs(complex(*r["z"]).conjugate() - z) <= tiny * abs(z)]
        if twin:
            norm = twin[0]
        else:
            res_B, res_L = _shifted_solver(B, z, -1.0), _shifted_solver(L_0, z, -1.0)
            # the worse-conditioned of the two resolvents decides
            rcond = min(res_B.rcond, res_L.rcond)
            if not np.isfinite(rcond) or rcond < 1e-13:
                raise ArithmeticError(f"resolvent solve singular at z = {z}")
            # K(z) F = -(L_eps - L_0) R_{L_0}(z) A R_{B_eps}(z) F, applied right to left
            KF = -D.matmat(res_L.solve(A.matmat(res_B.solve(F))))
            norm = probe_norm(KF, F, grid, w, w)
        rows.append({"z": [float(np.real(z)), float(np.imag(z))], "norm": norm})
    worst = max(r["norm"] for r in rows) if rows else np.nan
    return {"rows": rows, "worst_norm": worst, "pass": bool(rows) and worst < 1.0}
