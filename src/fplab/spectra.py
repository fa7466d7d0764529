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
    _dot,
    _expm,
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
    # largest ||B Q - Q R||_F / ||B||_1 over the blocks (``_rightmost``);
    # NaN where every eigenvalue is solved (``_eigenvalues``)
    residual: float = np.nan


def _eigenvalues(op: OperatorMatrix) -> np.ndarray:
    """Every eigenvalue of op, unordered, as a complex array: the solver
    of ``_spectrum`` for a birth-death chain, for an operator that is not a
    generator (the Fourier-side collocation) and for a line left of
    -depth/tau; every other request of a generator takes ``_rightmost``.

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


# The constants of ``_rightmost``.  tau = 1 spreads the rightmost
# eigenvalues of these generators (about one per unit of real part) over the
# moduli e^-1, e^-2, ... of E = e^(tau B) and puts every eigenvalue left of
# about -36 below E's roundoff.  At tau = 0.25 the far-left continuum stays
# close to the wanted moduli: for Fractional(1) at L = 60, n = 513 Arnoldi
# certified 31 eigenvalues right of -12 at residual 2.1e-7, where the dense
# solvers find 38-41.  A larger tau costs one more squaring per doubling
# and pushes the wanted moduli towards E's roundoff: at tau = 2 the same
# operator's count right of -6 (9 eigenvalues) was refused.
_TAU = 1.0
# Krylov dimensions tried in turn, each on a fresh E.  The first holds
# every report of the acceptance criteria and the benchmark (at most 6
# Schur vectors per block); a selection is trusted only while it takes at
# most half the space, as Ritz values converge from the outside in.
_KRYLOV_DIMS = (32, 64, 128)
# pseudo-random start vectors of each Arnoldi run: two, so that a double
# eigenvalue (the zero of a generator with two closed classes) shows twice
_START_VECTORS = 2
# the cut lies this far (in real part) left of the line or of the count-th
# Ritz value, so that an eigenvalue whose Ritz value sits just left of it
# is still taken and certified
_SLACK = 1.0
# ||B Q - Q R||_F / ||B||_1 accepted: the criteria reach at most 5e-8
# (Fractional(1.5) at n = 2049, whose 8 leading eigenvalues have
# condition numbers up to 1e9), refine's at most 5e-14; where the residual
# reached 1.7e-3 to 2e-2 (counts right of -12 and -16 among eigenvalues of
# condition number 1e12-5e14) the count differed from the dense one, and
# the dense solvers differed among themselves.
_TOL = 1e-6
# the deepest line asked of ``_rightmost``, in units of 1/tau: a line left
# of -depth/tau (E's wanted moduli below e^-6 = 2.5e-3 of its dominant
# one) is solved whole by ``_eigenvalues`` instead, a choice made from the
# line before any solve.  At L = 60 or 12.8, n = 513 and Krylov dimensions
# up to 128, Arnoldi certified the count right of every line down to -6
# and matched the dense count there (Fractional(1): 9 eigenvalues,
# Fractional(1.5): 7, DiscreteFractional(0.2, 1): 6, DiscreteClassical(0.4):
# 7); at -8 it refused both Fractional operators (15 and 9 eigenvalues,
# condition numbers up to 1e13).  Deeper still, the count is roundoff's
# choice: right of -12, Fractional(1)'s eigenvalues of condition number
# 1e13-5e14 make it 36 by ``sla.eigvals`` of the mirror blocks and 41 of
# the whole matrix.
_DEPTH = 6.0


def _conserves_mass(op: OperatorMatrix) -> bool:
    """Whether the largest weighted column sum of op is at most 1e-10 of
    ``operator_scale``: the generators (mass-conserving) against, e.g.,
    the Fourier-side collocation (0.03-0.12 of its scale)."""
    return op.conservation_defect <= 1e-10 * operator_scale(op)


def _spectrum(op: OperatorMatrix, line: float, count: int) -> tuple[np.ndarray, float]:
    """Eigenvalues of op, unordered, that hold every one with real part
    right of ``line`` and at least the ``count`` rightmost, with the
    residual of ``SpectrumReport``: by ``_rightmost`` on the blocks of a
    mass-conserving generator without birth-death bands, for a line no
    deeper than -depth/tau; else every eigenvalue by ``_eigenvalues`` and
    NaN."""
    if op.bands is None and _TAU * line >= -_DEPTH and _conserves_mass(op):
        return _rightmost(op.blocks.mats, line, count)
    return _eigenvalues(op), np.nan


def _start_vector(m: int, k: int) -> np.ndarray:
    """m pseudo-random entries in [-1, 1), the k-th such vector: the
    splitmix64 hash (Steele, Lea & Flood, OOPSLA 2014) of the integers
    k m, ..., k m + m - 1.  Uniform and white like a random draw, so no
    eigenvector is missed by a smooth or oscillating start; numpy's
    ``Generator`` would page in its sampler code on first use, which raised
    the peak resident memory of a run by 0.3 MB."""
    z = np.arange(k * m, k * m + m, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-52 - 1.0


def _arnoldi(B: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal basis V of the block Krylov space of
    E = ``operators._expm(B, tau)`` from ``_START_VECTORS`` pseudo-random
    vectors (``_start_vector``), of dimension min(dim, m), and
    H = V^T E V; E is freed on return.  A larger dim extends the space of
    a smaller one.

    Each new vector is E times an earlier one, orthogonalized twice by
    classical Gram-Schmidt (CGS2).  A product that lies in the space
    already built, to 1e-12 of its norm (the Krylov space has reached an
    invariant subspace, or E has damped the rest below roundoff), is
    replaced by a pseudo-random vector, as the start vectors are, coupled
    to nothing in H."""
    E = _expm(B, _TAU)
    m = E.shape[0]
    dim = min(dim, m)
    b = min(_START_VECTORS, dim)
    V = np.empty((m, dim), order="F")
    H = np.zeros((dim, dim))

    def orthogonalize(w: np.ndarray, k: int, h: np.ndarray) -> float:
        """w minus its projection on V[:, :k] in place, the coefficients
        added to h; the norm of what is left."""
        for _ in range(2 if k else 0):
            c = _dot(V[:, :k].T, w)
            w -= _dot(V[:, :k], c)
            h += c
        return float(np.linalg.norm(w))

    def start_vector(k: int) -> np.ndarray:
        w = _start_vector(m, k)
        return w / orthogonalize(w, k, np.zeros(k))

    for k in range(b):
        V[:, k] = start_vector(k)
    for j in range(dim):
        k = min(j + b, dim)
        w = _dot(E, V[:, j])
        size = np.linalg.norm(w)
        norm = orthogonalize(w, k, H[:k, j])
        if k == dim:
            continue
        if norm <= 1e-12 * size:
            V[:, k] = start_vector(k)
        else:
            H[k, j] = norm
            V[:, k] = w / norm
    return V, H


def _schur(A: np.ndarray, cut: float = -1.0) -> tuple[np.ndarray, np.ndarray, int]:
    """The eigenvalues of a small real A, its real Schur vectors Z and the
    number p of eigenvalues of modulus above ``cut``, whose Schur vectors
    lead Z, by one LAPACK ?gees: the only dense eigensolver of
    ``_rightmost``, so no other routine's code is paged in."""
    gees, = sla.get_lapack_funcs(("gees",), (A,))
    _, p, wr, wi, Z, _, info = gees(lambda x, y: np.hypot(x, y) > cut, A, sort_t=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"real Schur form not found (?gees info {info})")
    return wr + 1j * wi, Z, p


def _rightmost(mats: tuple[np.ndarray, ...], line: float, count: int) -> tuple[np.ndarray, float]:
    """Eigenvalues of the blocks B of a generator right of ``line`` and at
    least the ``count`` rightmost, by Arnoldi on E = e^(tau B), and the
    largest residual ||B Q - Q R||_F / ||B||_1 of the blocks.

    |e^(tau lambda)| = e^(tau Re lambda), so E's dominant eigenvalues are
    exactly B's rightmost (Edwards, Tuckerman, Friesner & Sorensen,
    J. Comput. Phys. 110, 1994), where shift-invert would rank them by
    distance to the shift (Meerbergen, Spence & Roose, BIT 34, 1994); and
    the semigroup of a generator contracts in l1(wq), so E shows no
    transient growth.  Per block, E = ``operators._expm(B, tau)`` is formed
    once and freed after ``_arnoldi``.  The Ritz values of every block
    place one cut: the count-th largest modulus or e^(tau line), whichever
    is smaller, times e^(-tau slack).  The Schur vectors Q of H for the
    Ritz values above the cut then give R = Q^T B Q, whose eigenvalues are
    returned.  They are exact eigenvalues of B - (B Q - Q R) Q^T, and are
    accepted only if ||B Q - Q R||_F <= tol ||B||_1 and Q takes at most
    half the Krylov space; else the block runs again with the next Krylov
    dimension, and after the last the solve raises ``ArithmeticError``.
    Nothing falls back to a dense eigensolve.  tau, the Krylov dimensions,
    the start vectors, the slack and tol are the module constants above
    ``_conserves_mass``, whose comments say why each has its value."""
    runs = [_arnoldi(B, _KRYLOV_DIMS[0]) for B in mats]
    moduli = np.sort(np.concatenate([np.abs(_schur(H)[0]) for _, H in runs]))[::-1]
    cut = min(np.exp(_TAU * line), moduli[min(count, moduli.size) - 1]) * np.exp(-_TAU * _SLACK)
    evs, worst = [], 0.0
    for B, (V, H) in zip(mats, runs):
        lange, = sla.get_lapack_funcs(("lange",), (B,))
        # ||B||_1 = ||B^T||_inf, summed by LAPACK without forming |B|
        anorm = lange("I", B.T) if B.flags.c_contiguous else lange("1", B)
        for dim in _KRYLOV_DIMS:
            if dim > _KRYLOV_DIMS[0]:
                V, H = _arnoldi(B, dim)
            _, Z, p = _schur(H, cut)
            if 2 * p > H.shape[0] and H.shape[0] < B.shape[0]:
                failure = f"{p} Ritz values above the cut"
                continue
            Q = _dot(V, Z[:, :p])
            BQ = _dot(B, Q)
            R = _dot(Q.T, BQ)
            BQ -= _dot(Q, R)
            res = float(np.linalg.norm(BQ)) / anorm
            if res <= _TOL:
                break
            failure = f"||B Q - Q R||_F = {res:.1e} ||B||_1"
        else:
            raise ArithmeticError(f"no invariant subspace of the rightmost eigenvalues at "
                                  f"Krylov dimension {_KRYLOV_DIMS[-1]}: {failure}")
        evs.append(_schur(R)[0])
        worst = max(worst, res)
    return np.concatenate(evs), worst


def eigen_spectrum(op: OperatorMatrix, k_leading: int = 8, separation_a: float = -0.5) -> SpectrumReport:
    """The k_leading rightmost eigenvalues, the gap (largest real part
    excluding the zero eigenvalue), and how many eigenvalues lie right of
    separation_a.

    No full eigensolve of a mass-conserving generator without birth-death
    bands: ``_rightmost`` returns every eigenvalue right of separation_a
    and at least the max(k_leading, 2) rightmost, which is all this report
    reads, with the residual that certifies them.  A birth-death chain
    (every eigenvalue, tridiagonal), an operator that is not a generator
    and a separation_a left of -depth/tau (every eigenvalue, dense on the
    blocks) go to ``_eigenvalues``, with residual NaN.  A k_leading whose
    eigenvalues reach that deep may be refused (``ArithmeticError``).

    Errors if the eigenvalue of minimal modulus is not simple (two
    eigenvalues within 1e-8 of each other near 0)."""
    ev, residual = _spectrum(op, separation_a, max(k_leading, 2))
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
        residual=residual,
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

    The count inside the contour and ``contour_margin`` read only the
    eigenvalues right of -2 radius, which ``_spectrum`` returns (with no
    full eigensolve of a mass-conserving generator without birth-death
    bands while 2 radius <= depth/tau): any other one has modulus
    >= 2 radius, so it lies outside the contour and no closer to it than
    the zero eigenvalue.  Errors if an
    eigenvalue lies within 1e-6 of the contour, suggesting a safe radius;
    refuses, as beyond the closed form, a contour that does not enclose
    exactly one eigenvalue (naming the radius interval that encloses only
    the smallest one) and a generator that does not conserve mass (largest
    weighted column sum above 1e-10 times ``operator_scale``)."""
    mod = np.abs(_spectrum(op, -2.0 * radius, 2)[0])
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
    if not _conserves_mass(op):
        raise ValueError(f"generator does not conserve mass: conservation defect "
                         f"{op.conservation_defect:.3e} against scale {operator_scale(op):.3e}")
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
