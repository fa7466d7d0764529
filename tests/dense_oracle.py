"""Dense references for the structured solvers, the five-part splitting and
the Toeplitz difference sums, formed from an n x n matrix."""

import numpy as np
import scipy.linalg as sla

from fplab.operators import _power_cell_weights
from fplab.splitting import chi_scaled


def mirror_blocks(M: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The even and odd mirror blocks of a dense M, the oracle for
    ``operators._mirror_blocks_of_parts``: when M commutes with the grid flip
    J, M[i, j] = M[n-1-i, n-1-j] up to 8 eps max|M|, and n is odd, the fold
    of ``operators._mirror_fold`` takes M to diag(M_even, M_odd); else None.
    O(n^2)."""
    n = M.shape[0]
    if n % 2 == 0:
        return None
    m = n // 2
    skew = M[: m + 1] - M[::-1, ::-1][: m + 1]
    np.abs(skew, out=skew)
    if skew.max() > 8.0 * np.finfo(float).eps * max(M.max(), -M.min()):
        return None
    tt, tb = M[:m, :m], M[:m, ::-1][:, :m]
    even = np.block([[tt + tb, M[:m, m : m + 1]],
                     [2.0 * M[m : m + 1, :m], M[m : m + 1, m : m + 1]]])
    return even, tt - tb


def dense_report(M: np.ndarray, separation_a: float = -0.5) -> tuple[float, int]:
    """The gap (largest real part but the eigenvalue of least modulus) and
    the count right of separation_a that ``spectra.eigen_spectrum``
    reports, from every eigenvalue of the dense M by ``sla.eigvals``.
    O(n^3)."""
    w = sla.eigvals(M)
    gap = float(np.delete(w, np.argmin(np.abs(w))).real.max())
    return gap, int(np.sum(w.real > separation_a))


def dense_contour(M: np.ndarray, radius: float) -> tuple[int, float]:
    """The count of eigenvalues inside |z| = radius and the margin
    min ||lambda| - radius| that ``spectra.spectral_projector`` reads,
    from every eigenvalue of the dense M by ``sla.eigvals``.  O(n^3)."""
    mod = np.abs(sla.eigvals(M))
    return int(np.count_nonzero(mod < radius)), float(np.abs(mod - radius).min())


def dense_projector(rep, grid) -> np.ndarray:
    """The n x n projector P = G wq^T of a ``spectra.ProjectorReport``,
    formed from the two factors it keeps: the normalized equilibrium G and
    the cell sizes wq of grid.  O(n^2)."""
    return np.outer(rep.equilibrium, grid.cell_sizes)


def induced_l1_norm(M: np.ndarray, wq: np.ndarray) -> float:
    """The operator norm of M on L^1(wq), max_j sum_i wq_i |M_ij| / wq_j:
    the largest weighted column sum of |M|.  O(n^2)."""
    return float((wq @ np.abs(M) / wq).max())


def dense_evolve(M, f0, spec):
    """Reference trajectory of ``semigroup.evolve_block``, recorded states
    stacked, from one dense expm(dt M) or one dense LU."""
    eye, dt = np.eye(M.shape[0]), spec.dt
    if spec.scheme == "ExactExpm":
        E = sla.expm(dt * M)
        step = lambda v: E @ v
    elif spec.scheme == "BackwardEuler":
        lu = sla.lu_factor(eye - dt * M)
        step = lambda v: sla.lu_solve(lu, v, check_finite=False)
    else:
        lu = sla.lu_factor(eye - 0.5 * dt * M)
        right = eye + 0.5 * dt * M
        step = lambda v: sla.lu_solve(lu, right @ v, check_finite=False)
    nsteps = int(round(spec.t_end / dt))
    out, v = [f0], f0
    for k in range(1, nsteps + 1):
        v = step(v)
        if k % spec.record_every == 0 or k == nsteps:
            out.append(v)
    return np.array(out)


def sobolev_lhs(F: np.ndarray, grid, alpha: float) -> np.ndarray:
    """The lhs of ``inequalities.fractional_sobolev_block`` (delta = 2h) for
    every column of F, its double sum over the dense |i - j| weight matrix
    sla.toeplitz(w): sum_ij (v_i - v_j)^2 w_|i-j| one probe at a time.
    O(n^2) memory."""
    n, h = grid.n, grid.h
    delta = 2.0 * h
    w = np.zeros(n)
    w[1:] = _power_cell_weights(grid, alpha, 1.0, delta)
    kv = sla.toeplitz(w)
    near_factor = 2.0 * delta ** (2.0 - alpha) / (2.0 - alpha)
    x = grid.nodes
    missing = ((grid.L - x + 0.5 * h) ** (-alpha) + (grid.L + x + 0.5 * h) ** (-alpha)) / alpha
    lhs = []
    for v in F.T:
        double = h * np.sum(np.subtract.outer(v, v) ** 2 * kv)
        du = np.gradient(v, h)
        lhs.append(double + near_factor * h * np.sum(du * du) + 2.0 * h * np.sum(v * v * missing))
    return np.array(lhs)


def xi_pair(x: np.ndarray, y: np.ndarray, R: float) -> np.ndarray:
    """xi_R(x, y) = chi_R(x) + chi_R(y) - chi_R(x) chi_R(y), the pair cutoff
    of the five-part splitting's gain, which ``splitting`` applies as
    1 - (1 - chi_R(x))(1 - chi_R(y)); vanishes exactly when both |x| >= 2R
    and |y| >= 2R."""
    cx = np.asarray(chi_scaled(x, R))
    cy = np.asarray(chi_scaled(y, R))
    return cx + cy - cx * cy
