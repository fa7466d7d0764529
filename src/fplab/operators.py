"""Matrix discretizations of the confined diffusion generators.

Four families, all of the form  diffusion + d/dx (x f):

* Classical          : Laplacian diffusion.
* DiscreteClassical  : eps^-2 (k_eps * f - f) with the rescaled Gaussian kernel.
* Fractional         : compensated power-law jump integral (order alpha).
* DiscreteFractional : k_eps * f - ||k_eps||_L1 f with the plateau-truncated
                       power-law kernel, no eps^-2 prefactor.

Assembly is finite-volume on the trapezoid cells (half cells at the two
boundary nodes), so the trapezoid mass is conserved exactly.  The drift uses
an exponential-fitting interface flux that degenerates to the monotone upwind
flux when no local diffusion is available; all jump off-diagonals are >= 0,
making every full generator an M-matrix generator (positivity preserving).

Each operator is kept as its O(n) parts (``OperatorParts``: Toeplitz terms,
a diagonal and two bands).  Probe products run on them, and the dense
solvers take two things formed from them: the ``bands`` of a birth-death
chain, and the ``blocks`` with their fold, the two half-size mirror blocks
of a centrosymmetric operator or else its dense matrix
(``dense_from_parts``) as one block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Union

import numpy as np
import scipy.linalg as sla
from numpy.lib.stride_tricks import sliding_window_view

from .grids import Grid1D, WeightSpec, probe_norm
from .kernels import gaussian_reference_kernel, rescale, symbol_constant
from .probes import probe_block


# ---------------------------------------------------------------------------
# model specifications


@dataclass(frozen=True)
class Classical:
    family: str = "classical"


@dataclass(frozen=True)
class DiscreteClassical:
    """The smooth-kernel model: the Gaussian reference kernel rescaled to eps."""

    eps: float
    family: str = "discrete-classical"

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValueError("eps must be positive")


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


# columns per padded FFT pair in ``OperatorParts.matmat``
_COLUMN_CHUNK = 8

# The largest order m of a dense block (``OperatorMatrix.blocks``): its
# exponential takes five m x m arrays (``_expm``), 671 MB at m = 4097.  For
# Fractional(1) at h = 60/1024 a steady state, eigensolve and ExactExpm decay
# peaked at 296 MB max RSS at n = 4097 and at 986 MB at n = 8193 (m = 4097).
_MAX_BLOCK = 4097


def _fft_size(m: int) -> int:
    """The smallest c 2^a >= m with c in (1, 3, 5): a length numpy's FFT runs
    fast on, at most 4/3 of m."""
    return min(c << ((m + c - 1) // c - 1).bit_length() for c in (1, 3, 5))


@dataclass(frozen=True)
class OperatorParts:
    """An n x n operator as its O(n) parts,

        M = sum_k diag(left[k]) T(cols[k]) diag(right[k]) + diag(diag)
            + the bands lower (M[i+1, i]) and upper (M[i, i+1]),

    with T(c) the symmetric Toeplitz matrix whose first column is c.  A
    product with an n x P block costs one zero-padded real FFT pair per
    Toeplitz term and ``_COLUMN_CHUNK`` columns, through the circulant that
    T(c) sits in (Chan & Ng, SIAM Rev. 38, 1996), plus O(nP) for the rest;
    no n x n array is made."""

    diag: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    cols: np.ndarray  # (k, n), one row per Toeplitz term
    left: np.ndarray  # (k, n)
    right: np.ndarray  # (k, n)

    def __sub__(self, other: OperatorParts) -> OperatorParts:
        return OperatorParts(self.diag - other.diag, self.lower - other.lower,
                             self.upper - other.upper, np.vstack([self.cols, other.cols]),
                             np.vstack([self.left, -other.left]),
                             np.vstack([self.right, other.right]))

    def matmat(self, F: np.ndarray, transpose: bool = False) -> np.ndarray:
        """M F, or M^T F with ``transpose``, for a vector or n x P block F; a
        complex F by its real and imaginary parts.  The product runs over
        ``_COLUMN_CHUNK`` columns at a time, so no padded transform or band
        temporary spans the whole block; the FFT transforms every column on
        its own, so the chunking does not change a bit of the product."""
        if np.iscomplexobj(F):
            return self.matmat(F.real, transpose) + 1j * self.matmat(F.imag, transpose)
        lower, upper, left, right = ((self.upper, self.lower, self.right, self.left)
                                     if transpose else
                                     (self.lower, self.upper, self.left, self.right))
        n = F.shape[0]
        size = _fft_size(2 * n - 1)
        symbols = []
        for col in self.cols:
            circ = np.zeros(size)
            circ[:n] = col
            circ[size - n + 1:] = col[:0:-1]
            # the circulant is symmetric, so its eigenvalues are real
            symbols.append(np.fft.rfft(circ).real[:, None].copy())
        # the layout of F, as the elementwise product of the bands would give
        out = np.empty_like(F, dtype=float)
        # a vector as a one-column block; both reshapes are views
        F2, out2 = F.reshape(n, -1), out.reshape(n, -1)
        for j in range(0, F2.shape[1], _COLUMN_CHUNK):
            chunk = slice(j, j + _COLUMN_CHUNK)
            out2[:, chunk] = _band_product(self.diag, lower, upper, F2[:, chunk])
            for symbol, a, b in zip(symbols, left, right):
                out2[:, chunk] += _toeplitz_product(symbol, a, b, F2[:, chunk], size)
        return out


def _toeplitz_product(symbol: np.ndarray, a: np.ndarray, b: np.ndarray,
                      F: np.ndarray, size: int) -> np.ndarray:
    """diag(a) T diag(b) F for an n x k block F, with T the leading n x n
    block of the size x size circulant whose real eigenvalues are
    ``symbol``: one zero-padded real FFT pair, the symbol applied in
    place."""
    n = F.shape[0]
    X = np.fft.rfft(b[:, None] * F, size, axis=0)
    X *= symbol
    prod = np.fft.irfft(X, size, axis=0)[:n]
    prod *= a[:, None]
    return prod


@dataclass(frozen=True)
class OperatorMatrix:
    """A generator matrix on a grid, kept as its O(n) ``parts``
    (``OperatorParts``).  Products with a vector or probe block run on them
    (``matmat``), and the dense solvers take its ``bands`` and ``blocks``,
    each formed from them once.  ``entries``, the dense matrix
    (``dense_from_parts``), is formed on first access and then kept."""

    grid: Grid1D
    parts: OperatorParts = field(repr=False)
    label: str = "full"

    @cached_property
    def entries(self) -> np.ndarray:
        return dense_from_parts(self.parts)

    @cached_property
    def bands(self) -> _BirthDeath | None:
        """The bands of a birth-death chain (no Toeplitz term, every
        lower * upper > 0), which the shifted solves, the eigensolve and the
        exponential of ``semigroup.evolve_block`` take first; else None."""
        p = self.parts
        return None if len(p.cols) else _birth_death(p.diag, p.lower, p.upper)

    @cached_property
    def blocks(self) -> _Blocks:
        """The dense blocks that the solvers run on where they take no
        ``bands``: the even and odd mirror blocks
        (``_mirror_blocks_of_parts``) under the half-sum fold, else
        ``entries`` under the identity.  A block of order above
        ``_MAX_BLOCK`` is refused (ValueError) before any is formed."""
        mirrored = _mirror_symmetric(self.parts)
        order = self.grid.n // 2 + 1 if mirrored else self.grid.n
        if order > _MAX_BLOCK:
            raise ValueError(f"dense block of order {order} above {_MAX_BLOCK}: its exponential "
                             f"would need 5 x 8 x {order}^2 bytes = {40e-6 * order**2:.0f} MB")
        return (_Blocks(_mirror_blocks_of_parts(self.parts), _mirror_fold, _mirror_unfold)
                if mirrored else _whole(self.entries))

    @property
    def conservation_defect(self) -> float:
        """The largest weighted column sum, max_j |sum_i wq_i M[i, j]|."""
        return float(np.abs(self.matmat(self.grid.cell_sizes, transpose=True)).max())

    def matmat(self, F: np.ndarray, transpose: bool = False) -> np.ndarray:
        """M F, or M^T F with ``transpose``, for a vector or n x P block F."""
        return self.parts.matmat(F, transpose)


def dense_from_parts(parts: OperatorParts) -> np.ndarray:
    """The dense matrix of ``parts``: each Toeplitz term by ``sla.toeplitz``,
    scaled in place, then the bands and the diagonal; at most one n x n array
    (the next term) is alive besides the result."""
    M = None
    for col, a, b in zip(parts.cols, parts.left, parts.right):
        T = sla.toeplitz(col)
        T *= a[:, None]
        T *= b
        M = T if M is None else np.add(M, T, out=M)
        del T
    n = parts.diag.size
    M = np.zeros((n, n)) if M is None else M
    d = np.arange(n)
    M[d[:-1], d[1:]] += parts.upper
    M[d[1:], d[:-1]] += parts.lower
    M[d, d] += parts.diag
    return M


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


def _birth_death(diag: np.ndarray, lower: np.ndarray,
                 upper: np.ndarray) -> _BirthDeath | None:
    """The birth-death chain with these bands if every lower * upper > 0,
    else None; log d_{i+1} - log d_i = log(upper_i / lower_i) / 2
    symmetrizes it."""
    if not np.all(lower * upper > 0.0):
        return None
    log_d = np.concatenate([[0.0], np.cumsum(0.5 * np.log(upper / lower))])
    return _BirthDeath(diag=diag, lower=lower, upper=upper, log_d=log_d - log_d.min())


def _mirror_symmetric(p: OperatorParts) -> bool:
    """Whether every term's row and column factors, the diagonal and the
    bands are mirror-symmetric (to 8 eps, with lower[::-1] = upper), so that
    M commutes with the grid flip."""
    tol = 8.0 * np.finfo(float).eps
    return not any(np.abs(u[::-1] - v).max() > tol * max(np.abs(u).max(), np.abs(v).max())
                   for u, v in [(v, v) for v in (p.diag, *p.left, *p.right)] + [(p.lower, p.upper)])


def _mirror_blocks_of_parts(p: OperatorParts) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd mirror blocks of an operator whose parts are
    ``_mirror_symmetric``, from its parts with no n x n matrix.

    With m = n // 2 (n is odd on every ``Grid1D``), the fold v -> (even, odd)
    of ``_mirror_fold`` is a similarity taking M to diag(M_even, M_odd), of
    sizes m + 1 and m (Cantoni & Butler, Linear Algebra Appl. 13, 1976), so
    the spectrum, exponential and resolvent of M come from two half-size
    dense problems.  A term diag(a) T(c) diag(b) adds its Toeplitz quarter
    T(c[:m]) plus its Hankel quarter H[i, j] = c[n-1-i-j], both scaled, to
    the even block and their difference to the odd block; its centre column
    and twice its centre row border the even block."""
    n = p.diag.size
    m = n // 2
    even, odd = np.zeros((m + 1, m + 1)), np.zeros((m, m))
    scratch = np.empty((m, m)) if len(p.cols) else None
    for k, (c, a, b) in enumerate(zip(p.cols, p.left, p.right)):
        # strided views, no copies: T[i, j] = c[|i-j|] as windows of the
        # palindrome c[m-1], ..., c[1], c[0], ..., c[m-1] read bottom-up,
        # and H[i, j] = c[n-1-i-j] as windows of c[n-1], ..., c[2]
        T = sliding_window_view(np.concatenate([c[m - 1 : 0 : -1], c[:m]]), m)[::-1]
        H = sliding_window_view(c[:1:-1], m)
        np.multiply(H, a[:m, None], out=scratch)
        scratch *= b[:m:-1]
        if k == 0:
            # the first term is scaled straight into odd
            np.multiply(T, a[:m, None], out=odd)
            odd *= b[:m]
            np.add(odd, scratch, out=even[:m, :m])
            odd -= scratch
        else:
            T = T * a[:m, None]
            T *= b[:m]
            odd += T
            odd -= scratch
            T += scratch
            even[:m, :m] += T
        centre = c[m:0:-1]
        even[:m, m] += centre * a[:m] * b[m]
        even[m, :m] += 2.0 * (centre * a[m] * b[:m])
        even[m, m] += c[0] * a[m] * b[m]
    d = np.arange(m)
    for X in (even, odd):
        X[d, d] += p.diag[:m]
        X[d[:-1], d[1:]] += p.upper[: m - 1]
        X[d[1:], d[:-1]] += p.lower[: m - 1]
    even[m, m] += p.diag[m]
    even[m - 1, m] += p.upper[m - 1]
    even[m, m - 1] += 2.0 * p.lower[m - 1]
    return even, odd


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


class _Blocks(NamedTuple):
    """Dense blocks B_i of an operator M and the fold that makes M block
    diagonal: M v = unfold(B_1 v_1, B_2 v_2, ...) with (v_1, v_2, ...) =
    fold(v), for a vector or an n x k block v.  ``OperatorMatrix.blocks``
    holds the two mirror blocks under the half-sum fold, or M under the
    identity (``_whole``).  The eigensolve reads only ``mats``; the shifted
    solves, the exponentials and the stepping of ``semigroup.evolve_block``
    fold a state, act per block and unfold."""

    mats: tuple[np.ndarray, ...]
    fold: Callable[[np.ndarray], tuple[np.ndarray, ...]]
    unfold: Callable[..., np.ndarray]


def _whole(M: np.ndarray | OperatorMatrix) -> _Blocks:
    """M as its own single block, under the identity fold; M is a dense
    matrix or, for the tridiagonal steps of ``semigroup.evolve_block``, a
    birth-death operator."""
    return _Blocks((M,), lambda v: (v,), lambda v: v)


class _Factored(NamedTuple):
    """A I + b M factored once (``_shifted_solver``)."""

    solve: Callable[[np.ndarray], np.ndarray]  # v -> (a I + b M)^-1 v
    matvec: Callable[[np.ndarray], np.ndarray]  # v -> M v
    rcond: float  # reciprocal 1-norm condition estimate; the worse block's


def _shifted_solver(op: OperatorMatrix, a: complex, b: float) -> _Factored:
    """Factor a I + b M once, for solves with a vector or an n x k block.

    A birth-death M (``OperatorMatrix.bands``) is factored on its three
    bands (LAPACK ?gttrf) and multiplied by a three-band product, both O(n)
    per column.  Every other M is factored block by block on
    ``OperatorMatrix.blocks``, with one fold and unfold per solve or
    product: the two shifted half-size mirror blocks of a centrosymmetric
    M, a quarter of the dense work, else M itself.  ``rcond`` is LAPACK's
    estimate (?gtcon, ?gecon) of the reciprocal 1-norm condition number of
    a I + b M or of its worst-conditioned block.  The shift a may be
    complex."""
    s = op.bands
    if s is not None:
        d = a + b * s.diag
        dl, du = (np.asarray(b * band, dtype=d.dtype) for band in (s.lower, s.upper))
        col = np.abs(d)
        col[:-1] += np.abs(dl)
        col[1:] += np.abs(du)
        gttrf, gttrs, gtcon = sla.get_lapack_funcs(("gttrf", "gttrs", "gtcon"), (d,))
        # an exactly singular factor gives a non-finite solve, as dense LU does
        factors = gttrf(dl, d, du)[:5]
        return _Factored(lambda v: gttrs(*factors, v)[0],
                         lambda v: _band_product(s.diag, s.lower, s.upper, v),
                         float(gtcon(*factors, col.max())[0]))
    blocks = op.blocks
    facs = [_dense_factor(B, a, b) for B in blocks.mats]

    def solve(v: np.ndarray) -> np.ndarray:
        return blocks.unfold(*(f.solve(x) for f, x in zip(facs, blocks.fold(v))))

    def matvec(v: np.ndarray) -> np.ndarray:
        return blocks.unfold(*(f.matvec(x) for f, x in zip(facs, blocks.fold(v))))

    return _Factored(solve, matvec, min(f.rcond for f in facs))


def _dense_factor(M: np.ndarray, a: complex, b: float) -> _Factored:
    """Dense LU factors of a I + b M, formed in Fortran order and factored in
    place (no further n x n copy); products with M run on ``_dot``."""
    n = M.shape[0]
    S = np.empty((n, n), dtype=np.result_type(a, b, M.dtype), order="F")
    np.multiply(M, b, out=S)
    d = np.arange(n)
    S[d, d] += a
    lange, gecon = sla.get_lapack_funcs(("lange", "gecon"), (S,))
    # LAPACK's 1-norm sums |S| column by column; np.linalg.norm forms |S|
    anorm = lange("1", S)
    lu = sla.lu_factor(S, overwrite_a=True)
    rcond = gecon(lu[0], anorm)[0]
    return _Factored(lambda v: sla.lu_solve(lu, v), lambda v: _dot(M, v), float(rcond))


def _exponential(op: OperatorMatrix, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """v -> e^(t M) v for a vector or an n x k block v: the exponential
    ``_expm(B, t)`` of each block B of ``OperatorMatrix.blocks`` (a
    birth-death chain's too; no copy t B is made) with one fold and unfold
    per product, and the products on ``_dot``.  Every block's exponential
    stays alive, for a caller (``inequalities.regularization_norm``) that
    needs the whole of e^(t M) v at every product;
    ``semigroup.evolve_block`` steps each block on its own."""
    blocks = op.blocks
    exps = [_expm(B, t) for B in blocks.mats]
    return lambda v: blocks.unfold(*(_dot(E, x) for E, x in zip(exps, blocks.fold(v))))


def _dot(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A X for a real dense A and a vector or n x k block X, by scipy's BLAS
    (?gemv, ?gemm): the runtime its LAPACK runs on.  A complex X is taken
    by its real and imaginary parts.  A C-ordered A is passed as A^T with
    trans = 1, so A is never copied.

    numpy and scipy wheels each bundle an OpenBLAS with its own thread
    pool, and a pool that has just finished keeps a worker spinning on a
    core the other pool then waits for: on two cores, 50 GEMMs of order
    129 alternating numpy ``@`` and scipy's dgemm took 308 ms, against
    5.6-8.9 ms for either library alone.  The dense solver paths
    alternate products with LAPACK calls, so their products run here."""
    if np.iscomplexobj(X):
        return _dot(A, X.real) + 1j * _dot(A, X.imag)
    trans = int(A.flags.c_contiguous)
    At = A.T if trans else A
    if X.ndim == 1:
        gemv, = sla.get_blas_funcs(("gemv",), (A, X))
        return gemv(1.0, At, X, trans=trans)
    gemm, = sla.get_blas_funcs(("gemm",), (A, X))
    return gemm(1.0, At, X, trans_a=trans)


# theta_13 of Higham (SIAM J. Matrix Anal. Appl. 26, 2005): the largest
# ||A||_1 at which the [13/13] Pade approximant of e^A needs no scaling
_THETA_13 = 5.371920351148152

# b_0, ..., b_13: the coefficients of the [13/13] Pade approximant of e^x
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
            960960.0, 16380.0, 182.0, 1.0)


def _expm(M: np.ndarray, t: float) -> np.ndarray:
    """e^(t M) for a real dense M by [13/13] Pade scaling and squaring
    (Higham, SIAM J. Matrix Anal. Appl. 26, 2005): with A = c M,
    c = t / 2^s and s = max(0, ceil(log2(||t M||_1 / theta_13))),

        U = A (A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6 + b5 A4 + b3 A2 + b1 I),
        V = A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I,

    then (V - U) r = V + U, squared s times.  Degree 13 is what scipy's own
    selection (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 2009) took
    on the scaled mirror blocks at n = 513 to 2049 and dt = 0.01 to 0.5;
    it matches ``scipy.linalg.expm`` there to a few 1e-13 relative in the
    1-norm.

    Every product is scipy's ?gemm written into one of five preallocated
    Fortran n x n arrays (A2, A4, A6 and two work arrays), the linear
    combinations are ?axpy on their raveled views, and V - U is solved in
    place by ?gesv: no other n x n array is made, and A = c M is never
    formed, the products with A taking M with alpha = c (a C-ordered M
    passed transposed, as ``_dot`` does).  The s squarings alternate
    between two of the arrays."""
    n = M.shape[0]
    trans = int(M.flags.c_contiguous)
    Mt = M.T if trans else M
    gemm, axpy = sla.get_blas_funcs(("gemm", "axpy"), (M,))
    lange, gesv = sla.get_lapack_funcs(("lange", "gesv"), (M,))
    # ||M||_1 = ||M^T||_inf, summed by LAPACK without forming |M|
    norm = abs(t) * lange("I" if trans else "1", Mt)
    s = int(np.ceil(np.log2(norm / _THETA_13))) if _THETA_13 < norm < np.inf else 0
    c = t * 0.5**s
    b = _PADE_13

    def work() -> np.ndarray:
        return np.empty((n, n), dtype=M.dtype, order="F")

    def combine(out: np.ndarray, terms: tuple[tuple[float, np.ndarray], ...],
                unit: float = 0.0) -> None:
        """out = sum_k a_k X_k + unit I in place; X_0 may be out itself."""
        (a0, X0), *rest = terms
        np.multiply(X0, a0, out=out)
        flat = out.ravel(order="F")
        for a, X in rest:
            axpy(X.ravel(order="F"), flat, a=a)
        flat[:: n + 1] += unit

    A2 = gemm(c * c, Mt, Mt, trans_a=trans, trans_b=trans, c=work(), overwrite_c=1)
    A4 = gemm(1.0, A2, A2, c=work(), overwrite_c=1)
    A6 = gemm(1.0, A4, A2, c=work(), overwrite_c=1)
    W1, W2 = work(), work()
    # V, in W2
    combine(W1, ((b[12], A6), (b[10], A4), (b[8], A2)))
    combine(W2, ((b[6], A6), (b[4], A4), (b[2], A2)), unit=b[0])
    gemm(1.0, A6, W1, beta=1.0, c=W2, overwrite_c=1)
    # U / A in A2, then U = c M (U / A) in A4
    combine(W1, ((b[13], A6), (b[11], A4), (b[9], A2)))
    combine(A2, ((b[3], A2), (b[5], A4), (b[7], A6)), unit=b[1])
    gemm(1.0, A6, W1, beta=1.0, c=A2, overwrite_c=1)
    gemm(c, Mt, A2, trans_a=trans, c=A4, overwrite_c=1)
    # V + U in A6 and V - U in W2; the solve overwrites A6 with r
    combine(A6, ((1.0, W2), (1.0, A4)))
    axpy(A4.ravel(order="F"), W2.ravel(order="F"), a=-1.0)
    _, _, E, info = gesv(W2, A6, overwrite_a=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular Pade denominator (?gesv info {info})")
    spare = A2
    del A2, A4, A6, W1, W2
    for _ in range(s):
        E, spare = gemm(1.0, E, E, c=spare, overwrite_c=1), E
    return E


def _band_product(diag: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                  v: np.ndarray) -> np.ndarray:
    """M v for the tridiagonal M with bands diag, lower (M[i+1, i]) and
    upper (M[i, i+1]), v a vector or an n x k block."""
    shape = (-1,) + (1,) * (v.ndim - 1)
    r = diag.reshape(shape) * v
    r[:-1] += upper.reshape(shape) * v[1:]
    r[1:] += lower.reshape(shape) * v[:-1]
    return r


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


def _drift_bands(grid: Grid1D, diffusion: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bands lower (M[i+1, i]), upper (M[i, i+1]) and diagonal of the
    conservative interface-flux discretization of diffusion * f'' + (x f)' on
    the trapezoid cells.

    diffusion > 0: exponential-fitting two-point flux (exact Gaussian-profile
    steady state for the Classical model); diffusion = 0: monotone upwind
    drift flux.  Zero flux through the outer interfaces."""
    h = grid.h
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
    diag = np.zeros(grid.n)
    diag[:-1] += -coef_left / h / wq[:-1]
    diag[1:] += -coef_right / h / wq[1:]
    return coef_left / h / wq[1:], coef_right / h / wq[:-1], diag


def _generator(grid: Grid1D, label: str, diffusion: float, w: np.ndarray | None = None,
               divisor: float = 1.0) -> OperatorMatrix:
    """The generator  (jump gain of the offset weights w) / divisor  plus the
    drift/diffusion flux of ``_drift_bands``, conserving the trapezoid mass.

    Its parts are the gain, one Toeplitz term whose rows 0 and n-1 (the half
    cells) scale by wq_i/h, the two flux bands, and a diagonal that is minus
    the exact weighted column sums of the rest, taken in O(n) from one
    cumulative sum, so the mass is conserved by construction."""
    n, h = grid.n, grid.h
    wq = grid.cell_sizes
    lower, upper, diag = _drift_bands(grid, diffusion)
    cols, rows = np.empty((0, n)), np.empty((0, n))
    if w is not None:
        col = np.zeros(n)
        col[1:] = w[: n - 1]
        # sum_i wq_i rows_i col_|i-j| by cumulative sums: wq_i rows_i is
        # h / divisor, but a quarter of that at the two half cells
        csum = np.cumsum(col)
        colsum = (csum + csum[::-1] - 0.75 * (col + col[::-1])) * (h / divisor)
        diag, cols, rows = diag - colsum / wq, col[None, :], (wq / h / divisor)[None, :]
    parts = OperatorParts(diag, lower, upper, cols, rows, np.ones_like(rows))
    return OperatorMatrix(grid, parts, label)


def _power_cell_weights(grid: Grid1D, alpha: float, constant: float,
                        delta: float, cut: float) -> np.ndarray:
    """Exact integrals of constant*|z|^(-1-alpha) over the cells
    [(j - 1/2) h, (j + 1/2) h] of the offsets j >= 1, each clipped to
    [delta, cut]: zero inside the near-field radius delta and beyond cut.
    Taken at the clipped ends, not as integrals from 0: for
    DiscreteFractional(0.05, 1) at L = 25.6, n = 2049 they lie within
    1.6e-13 relative of extended precision, integrals from 0 within 1.7e-10."""
    j = np.arange(1, grid.n)
    lo, hi = (np.clip(x * grid.h, delta, cut) for x in (j - 0.5, j + 0.5))
    return constant * (lo ** (-alpha) - hi ** (-alpha)) / alpha


# The sampled Gaussian column drops the offsets whose two tails sum to at
# most this fraction of its total, which cannot change a column sum: at
# h = eps/8, offsets 95 to 435, and with them every block entry in
# (0, 1e-150), whose products in ``_expm`` went subnormal and slow.
_TAIL_CUT = 2.0**-53


def sampled_convolution_weights(model: DiscreteClassical, grid: Grid1D) -> tuple[float, np.ndarray]:
    """Per-offset quadrature weights of the rescaled smooth kernel, renormalized
    so the total offset sum equals the exact L1 norm, and cut where the two
    tails sum to at most ``_TAIL_CUT`` of it.  Returns (w0, w[j>=1])."""
    h = grid.h
    if h > model.eps / 8.0 + 1e-12:
        raise ValueError(
            f"grid does not resolve the kernel: need h <= eps/8 = {model.eps / 8.0:.6g}, got h = {h:.6g}"
        )
    keps = rescale(gaussian_reference_kernel(), model.eps)
    j = np.arange(1, grid.n)
    w = h * np.asarray(keps(j * h), dtype=float)
    w0 = h * float(keps(0.0))
    scale = keps.l1_norm / (w0 + 2.0 * w.sum())
    w *= scale
    w[2.0 * np.cumsum(w[::-1])[::-1] <= _TAIL_CUT * keps.l1_norm] = 0.0
    return w0 * scale, w


def assemble(model: ModelSpec, grid: Grid1D) -> OperatorMatrix:
    """The generator of a model on a grid, as its parts."""
    h = grid.h
    if isinstance(model, Classical):
        return _generator(grid, "full:classical", diffusion=1.0)

    if isinstance(model, DiscreteClassical):
        _, w = sampled_convolution_weights(model, grid)
        return _generator(grid, "full:discrete-classical", diffusion=0.0, w=w,
                          divisor=model.eps**2)

    if isinstance(model, Fractional):
        delta = 2.0 * h
        c = float(model.constant)
        # near field: |z| <= delta collapses to a local diffusion by the
        # second-order Taylor step; combined with the drift in one
        # exponential-fitting flux block
        near_diffusion = c * delta ** (2.0 - model.alpha) / (2.0 - model.alpha)
        w = _power_cell_weights(grid, model.alpha, c, delta, np.inf)
        return _generator(grid, "full:fractional", diffusion=near_diffusion, w=w)

    if isinstance(model, DiscreteFractional):
        if h > model.eps / 2.0 + 1e-12:
            raise ValueError(
                f"grid does not resolve the plateau: need h <= eps/2 = {model.eps / 2.0:.6g}, got h = {h:.6g}"
            )
        # ``kernels.truncated_fractional_kernel``: plateau, then power law
        eps, alpha = model.eps, model.alpha
        j = np.arange(1, grid.n)
        plateau = np.minimum((j + 0.5) * h, eps) - np.minimum((j - 0.5) * h, eps)
        w = _power_cell_weights(grid, alpha, 1.0, eps, 1.0 / eps) + eps ** (-1.0 - alpha) * plateau
        return _generator(grid, "full:discrete-fractional", diffusion=0.0, w=w)

    raise TypeError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# probe-based operator distance


def operator_distance(
    m1: OperatorMatrix,
    m2: OperatorMatrix,
    source: WeightSpec,
    target: WeightSpec,
    probes: int = 64,
    oscillatory: int = 0,
) -> float:
    """max over smooth probes of seed 0 of ||(M1-M2) f||_target / ||f||_source.

    A lower-bound proxy for the induced operator norm, used for convergence
    slopes.  ``oscillatory`` adds modulated probes whose frequency content
    saturates norms between Sobolev spaces of different orders."""
    if m1.grid != m2.grid:
        raise ValueError("same grid required")
    F = probe_block(m1.grid, count=probes, oscillatory=oscillatory)
    return probe_norm(m1.matmat(F) - m2.matmat(F), F, m1.grid, source, target)
