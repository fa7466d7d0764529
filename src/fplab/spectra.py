"""Eigenvalue analysis of the discretized generators: spectral gaps,
parameter sweeps, Riesz spectral projectors from an ordered Schur form,
and the resolvent-perturbation certificate for the truncated jump family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .grids import Grid1D, WeightSpec, make_grid, probe_norm
from .operators import ModelSpec, OperatorMatrix, _birth_death, _mirror_blocks, assemble
from .probes import probe_family
from .splitting import SplittingSpec, assemble_splitting


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray = field(repr=False)  # sorted by descending real part
    gap: float = np.nan  # sup of real parts of the nonzero spectrum
    zero_residual: float = np.nan  # |eigenvalue closest to 0|
    separation_a: float = np.nan
    separation_count: int = 0  # eigenvalues with Re > separation_a


def _eigenvalues(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real square matrix, unordered, as a complex array.

    A birth-death M (tridiagonal with every M[i,i+1] M[i+1,i] > 0: the
    reversible chains, such as the Classical generator) is similar by a real
    diagonal matrix to a symmetric tridiagonal one (``operators._birth_death``,
    shared with ``semigroup.evolve``), so its spectrum is real and comes from
    the symmetric tridiagonal solver in O(n^2).  A centrosymmetric M (every
    other generator of a mirror-symmetric model, ``operators._mirror_blocks``)
    is similar to diag(M_even, M_odd), so its spectrum is that of the two
    half-size blocks, at a quarter of the dense work.  Every other M takes
    the dense non-symmetric solver."""
    bd = _birth_death(M)
    if bd is not None:
        return sla.eigvalsh_tridiagonal(bd.diag, bd.offdiag).astype(complex)
    blocks = _mirror_blocks(M)
    if blocks is not None:
        return np.concatenate([sla.eigvals(B) for B in blocks])
    return sla.eigvals(M)


def eigen_spectrum(op: OperatorMatrix, k_leading: int = 8, separation_a: float = -0.5) -> SpectrumReport:
    """Full eigensolve; reports the k_leading rightmost eigenvalues, the gap
    (largest real part excluding the zero eigenvalue), and how many
    eigenvalues lie right of separation_a.

    Errors if the eigenvalue of minimal modulus is not simple (two
    eigenvalues within 1e-8 of each other near 0)."""
    ev = _eigenvalues(op.entries)
    order = np.argsort(-ev.real)
    ev = ev[order]
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
    D = np.zeros((n, n))
    idx = np.arange(1, n - 1)
    D[idx, idx + 1] = 1.0 / (2.0 * h)
    D[idx, idx - 1] = -1.0 / (2.0 * h)
    D[0, 0], D[0, 1], D[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    D[-1, -1], D[-1, -2], D[-1, -3] = 1.5 / h, -2.0 / h, 0.5 / h
    M = -np.diag(np.abs(xi) ** alpha) - np.diag(xi) @ D
    return OperatorMatrix(grid=grid, entries=M, label=f"fourier-side:alpha={alpha}")


# ---------------------------------------------------------------------------
# sweeps


def gap_sweep(
    build: Callable[[float], OperatorMatrix],
    params: list[float],
    gap_target: float = -0.5,
) -> dict:
    """Spectral gap per parameter; PASS iff every gap <= gap_target < 0."""
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
        "pass": bool(gaps) and max(gaps) <= gap_target,
    }


# ---------------------------------------------------------------------------
# spectral projectors


@dataclass(frozen=True)
class ProjectorReport:
    rank: int
    idempotency_defect: float  # ||P^2 - P||_2 / ||P||_2
    contour_radius: float
    contour_margin: float  # min over eigenvalues of ||lambda| - radius|
    norm: float  # ||P||_2
    sep: float  # LAPACK estimate of sep(T11, T22), the spectral separation
    projector: np.ndarray = field(repr=False)


def spectral_projector(op: OperatorMatrix, radius: float) -> ProjectorReport:
    """Riesz projector onto the eigenvalues inside |z| = radius, the contour
    integral P = (1 / 2 pi i) int_{|z|=radius} (zI - M)^(-1) dz, computed
    exactly from one real Schur form instead of by quadrature.

    M = Z T Z^T (LAPACK dgees); dtrsen reorders it so that the k eigenvalues
    with |lambda| < radius lead, T = [[T11, T12], [0, T22]], Z = [Z1 Z2], and
    estimates sep(T11, T22).  With Y solving T11 Y - Y T22 = -T12 (dtrsyl)
    and refined once from the residual W M Z, P = Z1 W and
    W = Z1^T - Y Z2^T.  Z1 has orthonormal columns, so ||P||_2 = ||W||_2 and
    ||P^2 - P||_2 = ||(W Z1 - I) W||_2: the rank (k), norm and idempotency
    defect cost O(n k^2) beyond the O(n^2 k) products.

    Errors if an eigenvalue lies within 1e-6 of the contour, suggesting a
    safe radius."""
    M = op.entries
    n = M.shape[0]
    no_sort = lambda wr, wi: 0  # dgees takes a selection callback even unsorted
    lwork = int(lapack.dgees(no_sort, M, lwork=-1)[-2][0])
    T, _, wr, wi, Z, _, info = lapack.dgees(no_sort, M, lwork=lwork)
    if info != 0:
        raise ArithmeticError(f"Schur decomposition failed (dgees info={info})")
    mod = np.hypot(wr, wi)
    dist = np.abs(mod - radius)
    if dist.min() < 1e-6:
        inner = mod[mod < radius]
        outer = mod[mod > radius]
        lo = inner.max() if inner.size else 0.0
        hi = outer.min() if outer.size else 2.0 * radius
        raise ValueError(
            f"contour crosses an eigenvalue; choose radius in ({lo:.3g}, {hi:.3g})"
        )
    inside = mod < radius
    k = int(inside.sum())
    T, Z, _, _, _, _, sep, info = lapack.dtrsen(
        inside.astype(np.int32), T, Z, job="B",
        lwork=max(1, 2 * k * (n - k)), liwork=max(1, k * (n - k)),
    )
    if info != 0:
        raise ArithmeticError(f"Schur reordering failed (dtrsen info={info})")
    Z1, Z2 = Z[:, :k], Z[:, k:]
    W = Z1.T
    if 0 < k < n:
        T11, T22 = T[:k, :k], T[k:, k:]
        Y = _sylvester(T11, T22, -T[:k, k:])
        W = Z1.T - Y @ Z2.T
        # one refinement step: T and Z are backward stable only to
        # eps ||M||, so W is a left invariant subspace of M only to that
        # order.  With L = W M Z1 (the inside eigenvalues as W sees them) the
        # residual of W M = L W on Z2 is R = W M Z2 - L W Z2, and
        # T11 dY - dY T22 = -R removes its first order
        WMZ = (W @ M) @ Z
        Y += _sylvester(T11, T22, WMZ[:, :k] @ (W @ Z2) - WMZ[:, k:])
        W = Z1.T - Y @ Z2.T
    norm = float(np.linalg.norm(W, 2))
    idem = float(np.linalg.norm((W @ Z1 - np.eye(k)) @ W, 2) / max(norm, 1e-300))
    return ProjectorReport(
        rank=k,
        idempotency_defect=idem,
        contour_radius=radius,
        contour_margin=float(dist.min()),
        norm=norm,
        sep=float(sep),
        projector=Z1 @ W,
    )


def _sylvester(T11: np.ndarray, T22: np.ndarray, C: np.ndarray) -> np.ndarray:
    """X with T11 X - X T22 = C for quasi-triangular T11, T22 (dtrsyl)."""
    X, scale, info = lapack.dtrsyl(T11, T22, C, isgn=-1)
    if info != 0:
        raise ArithmeticError("eigenvalues inside and outside the contour too close")
    return X / scale


def projector_distance(
    p1: ProjectorReport,
    p2: ProjectorReport,
    grid: Grid1D,
    w: WeightSpec = WeightSpec(p=1, q=0),
    probes: int = 32,
    seed: int = 0,
) -> float:
    """Probe-based operator-norm proxy of the difference of two projectors."""
    F = np.column_stack([f.values for f in probe_family(grid, count=probes, seed=seed)])
    return probe_norm((p1.projector - p2.projector) @ F, F, grid, w, w)


# ---------------------------------------------------------------------------
# resolvent perturbation certificate


def perturbation_certificate(
    model_eps: ModelSpec,
    model_0: ModelSpec,
    grid: Grid1D,
    split: SplittingSpec,
    z_samples: list[complex],
    w: WeightSpec = WeightSpec(p=1, q=0),
    probes: int = 32,
    seed: int = 0,
) -> dict:
    """Probe norms of K(z) = -(L_eps - L_0) R_{L_0}(z) (A R_{B_eps}(z)) at the
    sample points; PASS iff all norms are < 1 (so I + K(z) is invertible and
    the resolvent factorization holds on the sample)."""
    L_eps = assemble(model_eps, grid).entries
    L_0 = assemble(model_0, grid).entries
    A, B_eps = assemble_splitting(model_eps, grid, split)
    n = grid.n
    eye = np.eye(n)
    diff = L_eps - L_0
    F = np.column_stack([f.values for f in probe_family(grid, count=probes, seed=seed)])
    rows = []
    for z in z_samples:
        lu_B, rcond_B = _lu_rcond(z * eye - B_eps.entries)
        lu_L, rcond_L = _lu_rcond(z * eye - L_0)
        # the worse-conditioned of the two resolvents decides
        rcond = min(rcond_B, rcond_L)
        if not np.isfinite(rcond) or rcond < 1e-13:
            raise ArithmeticError(f"resolvent solve singular at z = {z}")
        # K(z) F = -(L_eps - L_0) R_{L_0}(z) A R_{B_eps}(z) F, applied right to left
        X = sla.lu_solve(lu_B, F)
        KF = -(diff @ sla.lu_solve(lu_L, A.entries @ X))
        rows.append({"z": [float(np.real(z)), float(np.imag(z))],
                     "norm": probe_norm(KF, F, grid, w, w)})
    worst = max(r["norm"] for r in rows) if rows else np.nan
    return {"rows": rows, "worst_norm": worst, "pass": bool(rows) and worst < 1.0}


def _lu_rcond(a: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """LU factors of a and LAPACK's gecon estimate of its reciprocal
    1-norm condition number."""
    lu = sla.lu_factor(a)
    gecon = sla.get_lapack_funcs("gecon", (lu[0],))
    rcond, _ = gecon(lu[0], np.linalg.norm(a, 1))
    return lu, float(rcond)
