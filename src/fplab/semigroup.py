"""Time evolution, steady states (matrix null vector and independent
Fourier-side oracles), and exponential decay-rate fitting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .grids import Field, Grid1D, WeightSpec, mass, weighted_norm
from .kernels import gaussian_reference_kernel, khat, power_kernel_symbol_factor
from .operators import (
    Classical,
    DiscreteClassical,
    DiscreteFractional,
    Fractional,
    ModelSpec,
    OperatorMatrix,
    OperatorParts,
    _MAX_BLOCK,
    _BirthDeath,
    _dense_factor,
    _dot,
    _expm,
    _shifted_solver,
    _whole,
)


@dataclass(frozen=True)
class EvolveSpec:
    t_end: float
    dt: float
    scheme: str = "BackwardEuler"  # BackwardEuler | CrankNicolson | ExactExpm
    record_every: int = 1

    def __post_init__(self) -> None:
        if not (self.dt > 0 and 0 <= self.t_end < np.inf):
            raise ValueError("dt > 0 and a finite t_end >= 0 required")
        if abs(round(self.t_end / self.dt) * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(f"t_end {self.t_end} is not a whole number of steps dt = {self.dt}")
        if self.scheme not in ("BackwardEuler", "CrankNicolson", "ExactExpm"):
            raise ValueError(f"unknown scheme {self.scheme}")
        if self.record_every < 1:
            raise ValueError("record_every >= 1")


def evolve(op: OperatorMatrix, f0: Field, spec: EvolveSpec) -> list[tuple[float, Field]]:
    """Integrate df/dt = M f and return [(t, f)] at recorded times: the
    one-column case of ``evolve_block``."""
    if f0.grid != op.grid:
        raise ValueError("grid mismatch")
    traj = evolve_block(op, f0.values[:, None], spec)
    return [(0.0, f0)] + [(t, Field(op.grid, F[:, 0])) for t, F in traj[1:]]


def evolve_block(op: OperatorMatrix, F0: np.ndarray, spec: EvolveSpec) -> list[tuple[float, np.ndarray]]:
    """Integrate dF/dt = M F for every column of the n x k block F0 and
    return [(t, F)] at recorded times; one factorization (or exponential)
    serves all k columns.

    On a birth-death M (``OperatorMatrix.bands``: tridiagonal, every
    M[i,i+1] M[i+1,i] > 0, such as the Classical generator) every path is
    O(n^2).  BackwardEuler and CrankNicolson factor their tridiagonal matrix
    once (LAPACK dgttrf) and step with dgttrs.  ExactExpm diagonalizes the
    symmetrized S = D M D^-1 = Q diag(lam) Q^T once for all k columns and
    forms every recorded state of a column f0 as
    D^-1 Q (e^(t lam) * Q^T D f0) in one block product.  That is exact in
    the D-weighted 2-norm, but a state's sup-norm error is about
    eps ||D f0||_2 / d_i, so ExactExpm steps on ``OperatorMatrix.blocks``,
    as below, whenever eps ||D f0||_2 / (min d ||f0||_inf) > 1e-9 for some
    column (for instance a flat f0 on the Classical generator at L = 12,
    where d spans e^72).

    Otherwise the block is folded once into one piece per block of
    ``OperatorMatrix.blocks``: the even and odd halves of a centrosymmetric
    M (the jump generators and the Fourier-side collocation), else F0
    itself.  Each piece runs its recurrence to t_end with the LU factors or
    the expm of its block, freed before the next piece starts, so one
    block's factorization or exponential is alive at a time; only the
    recorded states are unfolded.  The implicit steps of a birth-death M
    take the same loop, with the bands as the one block.

    A state that is not finite raises FloatingPointError naming its step:
    the first step at which any piece is not finite (or a recorded step
    whose unfolded state overflows).  A block above
    ``operators._MAX_BLOCK`` is refused (ValueError) before it is formed."""
    n = op.grid.n
    if F0.shape[0] != n:
        raise ValueError("grid mismatch")
    nsteps = int(round(spec.t_end / spec.dt))
    F = np.array(F0, dtype=float)  # every step returns a new array
    out = [(0.0, F)]
    if nsteps == 0:
        return out
    recorded = [k for k in range(1, nsteps + 1) if k % spec.record_every == 0 or k == nsteps]
    bd = op.bands
    if bd is not None and spec.scheme == "ExactExpm":
        states = _birth_death_expm(bd, op, F, spec.dt * np.array(recorded))
        if states is not None:
            for j, k in enumerate(recorded):
                if not np.all(np.isfinite(states[:, j])):
                    raise FloatingPointError(f"non-finite state at step {k}")
                out.append((k * spec.dt, states[:, j]))
            return out
    blocks = op.blocks if bd is None or spec.scheme == "ExactExpm" else _whole(op)
    keep = set(recorded)
    last = nsteps
    pieces = []
    for B, V in zip(blocks.mats, blocks.fold(F)):
        step = _stepper(B, spec)
        states = []
        for k in range(1, last + 1):
            V = step(V)
            if not np.all(np.isfinite(V)):
                last = k - 1  # the other pieces stop before this step
                break
            if k in keep:
                states.append(V)
        del step  # this piece's exponential or LU factors
        pieces.append(states)
    if last < nsteps:
        raise FloatingPointError(f"non-finite state at step {last + 1}")
    for k, *states in zip(recorded, *pieces):
        F = blocks.unfold(*states)
        if not np.all(np.isfinite(F)):
            raise FloatingPointError(f"non-finite state at step {k}")
        out.append((k * spec.dt, F))
    return out


def _birth_death_expm(bd: _BirthDeath, op: OperatorMatrix, F0: np.ndarray,
                      times: np.ndarray) -> np.ndarray | None:
    """States e^(t M) F0 for t in ``times``, shape (n, len(times), k), from
    the symmetrized eigendecomposition, or None when the sup-norm guard of
    ``evolve_block`` fails for some column (or D F0 overflows), or when
    n > 2 ``_MAX_BLOCK`` - 1 (Q is n x n): the fallback's blocks refuse it.

    The tridiagonal eigensolve, by MRRR (LAPACK ?stemr: O(n) workspace
    besides Q, where ?stevd asks for n^2 more), and the conservation check
    run once for all k columns; each column is then formed on its own, the
    same way for any k, with its two products with Q on ``operators._dot``
    and one n x len(times) work array.  For a mass-conserving M
    (``_conserves_mass``) the roundoff mass defect of each column is put
    back along the equilibrium wq / d^2, the null vector of M: without it
    the Classical decay datum at n = 1025 drifts by 7e-12."""
    if bd.diag.size > 2 * _MAX_BLOCK - 1:
        return None
    d = np.exp(bd.log_d)  # min d = 1
    cols = [(f, d * f) for f in np.asfortranarray(F0).T]  # contiguous columns
    tiny = np.finfo(float).eps
    if not all(tiny * np.linalg.norm(g) <= 1e-9 * np.max(np.abs(f)) and np.all(np.isfinite(g))
               for f, g in cols):
        return None
    lam, Q = sla.eigh_tridiagonal(bd.diag, bd.offdiag, lapack_driver="stemr")
    wq = op.grid.cell_sizes
    u = None
    if _conserves_mass(op):
        u = wq / d**2
        u /= wq @ u
    # one n x len(times) array per call: each column's growth e^(t lam)
    # times Q^T D f0, then its mass correction
    work = np.empty((lam.size, times.size))
    out = []
    for f, g in cols:
        np.exp(np.multiply.outer(lam, times, out=work), out=work)
        work *= _dot(Q.T, g)[:, None]
        states = _dot(Q, work)
        states /= d[:, None]
        if u is not None:
            states += np.multiply.outer(u, wq @ f - wq @ states, out=work)
        out.append(states)
    return np.stack(out, axis=-1)


def _stepper(M: OperatorMatrix | np.ndarray,
             spec: EvolveSpec) -> Callable[[np.ndarray], np.ndarray]:
    """One time step V -> V_next of ``spec.scheme`` for dF/dt = M F, V a
    vector or a block, with M a dense matrix (one of
    ``OperatorMatrix.blocks``) or, for the implicit schemes, a birth-death
    operator.

    ExactExpm forms e^(dt M) once, as ``operators._expm(M, dt)`` (five
    block-size work arrays, no copy dt M), and steps by ``operators._dot``.
    The implicit schemes factor I - theta dt M once: densely (LU), or on
    the three bands of the birth-death operator
    (``operators._shifted_solver``)."""
    dt = spec.dt
    if spec.scheme == "ExactExpm":
        E = _expm(M, dt)
        return lambda v: _dot(E, v)
    theta = 1.0 if spec.scheme == "BackwardEuler" else 0.5
    factor = _shifted_solver if isinstance(M, OperatorMatrix) else _dense_factor
    fac = factor(M, 1.0, -theta * dt)
    if theta == 1.0:
        return fac.solve
    return lambda v: fac.solve(v + fac.matvec(0.5 * dt * v))


def operator_scale(op: OperatorMatrix) -> float:
    """Induced-L1-style scale: max absolute column sum, taken as the column
    sums of |parts|: exact for a generator (no two terms of an entry differ
    in sign), else an upper bound."""
    magnitude = OperatorParts(*map(np.abs, vars(op.parts).values()))
    return float(magnitude.matmat(np.ones(op.grid.n), transpose=True).max())


def _conserves_mass(op: OperatorMatrix) -> bool:
    """Whether the largest weighted column sum of op is at most 1e-10 of
    ``operator_scale``: the generators (mass-conserving) against, e.g.,
    the Fourier-side collocation (0.03-0.12 of its scale)."""
    return op.conservation_defect <= 1e-10 * operator_scale(op)


def steady_state(op: OperatorMatrix) -> Field:
    """Unit-mass null vector by shifted inverse iteration (shift 1e-8).

    The shifted solve and the products with M run on its bands or blocks
    (``operators._shifted_solver``: three bands, two half-size mirror blocks
    or dense).  Errors when the numerical null space is not one-dimensional
    (a second, deflated iteration also converging to eigenvalue ~0)."""
    n = op.grid.n
    shift = 1e-8
    fac = _shifted_solver(op, -shift, 1.0)
    scale = operator_scale(op)

    def iterate(v0: np.ndarray, deflate: np.ndarray | None) -> tuple[np.ndarray, float]:
        v = v0.copy()
        for _ in range(200):
            v = fac.solve(v)
            if deflate is not None:
                v -= deflate * (deflate @ v)
            v /= np.linalg.norm(v)
            Mv = fac.matvec(v)
            res = np.linalg.norm(Mv - (v @ Mv) * v)
            if res <= 1e-12 * scale:
                break
        return v, float(v @ Mv)

    v, _ = iterate(np.ones(n), None)
    u = v / np.linalg.norm(v)
    _, lam2 = iterate(np.sin(np.arange(n) + 0.5), u)
    if abs(lam2) <= 1e-8 * max(1.0, scale * 1e-6):
        raise ArithmeticError("steady state not unique: null space of rank > 1")
    g = Field(op.grid, np.sign(v.sum()) * v)
    total = mass(g)
    if total == 0:
        raise ArithmeticError("null vector has zero mass")
    g = Field(op.grid, g.values / total)
    res = weighted_norm(Field(op.grid, op.matmat(g.values)), WeightSpec(p=1))
    if res > 1e-10 * scale:
        raise ArithmeticError(f"steady-state residual too large: {res:.3e}")
    return g


# ---------------------------------------------------------------------------
# Fourier-side steady-state oracles


def _inverse_fft_of_cf(grid: Grid1D, cf_on: Callable[[np.ndarray], np.ndarray]) -> Field:
    """Inverse transform of a real even characteristic function sampled on the
    rfft frequencies of a padded copy of the grid."""
    h = grid.h
    npad = 1 << max(14, int(np.ceil(np.log2(8 * grid.n))))
    xi = 2.0 * np.pi * np.fft.rfftfreq(npad, d=h)
    ghat = np.asarray(cf_on(xi), dtype=float)
    full = np.fft.irfft(ghat, npad) / h
    half = grid.n // 2
    vals = np.concatenate([full[-half:], full[: half + 1]])
    f = Field(grid, vals)
    total = mass(f)
    return Field(grid, f.values / total)


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """scipy.integrate.cumulative_trapezoid(y, x, initial=0.0), bit for bit."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def _cosine_sum(s: np.ndarray, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_j a_j (cos(s_k z_j) - 1) for every s_k, with s and z uniform grids.

    One Bluestein chirp-z transform instead of s.size * z.size cosines:
    s_k z_j = s0 z0 + k ds z0 + j dz s0 + k j ds dz and
    k j = (k^2 + j^2 - (k - j)^2) / 2 turn the sum into a convolution with
    the chirp exp(-i ds dz m^2 / 2).  Where s_k z_max < 1e-3 the cancellation
    in cos - 1 would dominate, so those (few) s_k are summed directly as
    -2 sin^2(s z / 2)."""
    ns, nz = s.size, z.size
    ds, dz = (s[-1] - s[0]) / (ns - 1), (z[-1] - z[0]) / (nz - 1)
    theta = ds * dz
    k, j = np.arange(ns), np.arange(nz)
    size = 1 << (ns + nz - 2).bit_length()  # >= ns + nz - 1: no wrap-around
    m = np.concatenate([np.arange(ns), np.arange(-(nz - 1), 0)])
    chirp = np.zeros(size, dtype=complex)
    chirp[np.r_[0:ns, size - nz + 1 : size]] = np.exp(-0.5j * theta * m.astype(float) ** 2)
    b = a * np.exp(1j * (s[0] * dz * j + 0.5 * theta * j.astype(float) ** 2))
    y = np.fft.ifft(np.fft.fft(b, size) * np.fft.fft(chirp))[:ns]
    phase = s[0] * z[0] + ds * z[0] * k + 0.5 * theta * k.astype(float) ** 2
    out = (np.exp(1j * phase) * y).real - a.sum()
    small = s * np.abs(z).max() < 1e-3
    out[small] = -2.0 * np.sin(0.5 * np.outer(s[small], z)) ** 2 @ a
    return out


def fourier_steady_oracle(model: ModelSpec, grid: Grid1D) -> Field:
    """Independent equilibrium oracle from the characteristics solution of the
    evolution equation for the characteristic function."""
    if isinstance(model, Classical):
        return _inverse_fft_of_cf(grid, lambda xi: np.exp(-(xi**2) / 2.0))

    if isinstance(model, Fractional):
        coef = float(model.constant) * power_kernel_symbol_factor(model.alpha)

        def cf(xi: np.ndarray) -> np.ndarray:
            return np.exp(-coef * np.abs(xi) ** model.alpha / model.alpha)

        return _inverse_fft_of_cf(grid, cf)

    if isinstance(model, DiscreteClassical):
        keps = model.eps
        k = gaussian_reference_kernel()

        def cf(xi: np.ndarray) -> np.ndarray:
            s = np.linspace(1e-12, float(xi.max()) + 1.0, 200001)
            kh = np.asarray(khat(k, keps * s), dtype=float)
            integrand = (kh - k.l1_norm) / (keps**2 * s)
            cum = _cumulative_trapezoid(integrand, s)
            return np.exp(np.interp(xi, s, cum))

        return _inverse_fft_of_cf(grid, cf)

    if isinstance(model, DiscreteFractional):
        eps, alpha = model.eps, model.alpha

        def cf(xi: np.ndarray) -> np.ndarray:
            s = np.linspace(1e-12, float(xi.max()) + 1.0, 20001)
            # khat_eps(s) - ||k_eps||_1 = 2 int (cos(sz)-1) k_eps(z) dz:
            # analytic on the plateau, chunked quadrature on the power-law part
            plateau = 2.0 * eps ** (-1.0 - alpha) * (np.sin(s * eps) / s - eps)
            z = np.linspace(eps, 1.0 / eps, 20001)
            w = np.full(z.size, (z[-1] - z[0]) / (z.size - 1))
            w[[0, -1]] *= 0.5  # trapezoid weights
            osc = 2.0 * _cosine_sum(s, z, w * z ** (-1.0 - alpha))
            integrand = (plateau + osc) / s
            cum = _cumulative_trapezoid(integrand, s)
            return np.exp(np.interp(xi, s, cum))

        return _inverse_fft_of_cf(grid, cf)

    raise TypeError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# decay fitting


@dataclass(frozen=True)
class DecayReport:
    times: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)
    fitted_rate: float = np.nan
    fitted_prefactor: float = np.nan
    fit_window: tuple[float, float] = (np.nan, np.nan)
    residual: float = np.nan
    clean: bool = False
    projected: bool = False
    skipped: bool = False


def fit_log_decay(times: np.ndarray, norms: np.ndarray) -> tuple[float, float, tuple[float, float], float]:
    """Least-squares line through log(norms) over the last half of the
    trajectory, stopping where norms reach 100x the numerical floor."""
    floor = max(norms.max() * 1e-13, 1e-300)
    keep = norms > 100.0 * floor
    t, v = times[keep], norms[keep]
    half = t >= 0.5 * (t[0] + t[-1])
    if half.sum() < 2:
        half = np.ones_like(t, dtype=bool)
    t, v = t[half], np.log(v[half])
    a, logc = np.polyfit(t, v, 1)
    resid = float(np.sqrt(np.mean((np.polyval([a, logc], t) - v) ** 2)))
    return float(a), float(np.exp(logc)), (float(t[0]), float(t[-1])), resid


def decay_rate(
    op: OperatorMatrix,
    f0: Field,
    w: WeightSpec,
    spec: EvolveSpec,
    equilibrium: Field | None = None,
) -> DecayReport:
    """Evolve the equilibrium-projected initial datum and fit the
    exponential decay of the weighted norm."""
    total = mass(f0)
    projected = False
    g0 = f0
    if abs(total) > 1e-14:
        G = steady_state(op) if equilibrium is None else equilibrium
        g0 = Field(op.grid, f0.values - total * G.values)
        projected = True
    traj = evolve(op, g0, spec)
    times = np.array([t for t, _ in traj])
    norms = np.array([weighted_norm(fld, w) for _, fld in traj])
    if norms.max() <= 1e-12 * max(1.0, weighted_norm(f0, w)):
        return DecayReport(times=times, norms=norms, skipped=True, projected=projected)
    a, c, window, resid = fit_log_decay(times, norms)
    return DecayReport(
        times=times,
        norms=norms,
        fitted_rate=a,
        fitted_prefactor=c,
        fit_window=window,
        residual=resid,
        clean=resid <= 0.1,
        projected=projected,
    )


def uniform_decay_sweep(
    build: Callable[[float], OperatorMatrix],
    params: list[float],
    f0_of_grid: Callable[[Grid1D], Field],
    w: WeightSpec,
    spec: EvolveSpec,
    a_target: float = -0.5,
) -> dict:
    """Fit (a, C) per parameter; PASS iff no parameter errored and the sup
    of fitted rates < a_target, and vacuously for an empty parameter list.
    An errored parameter is recorded and the sweep goes on."""
    rows = []
    for p in params:
        try:
            op = build(p)
            rep = decay_rate(op, f0_of_grid(op.grid), w, spec)
            rows.append({"param": p, "rate": rep.fitted_rate, "prefactor": rep.fitted_prefactor,
                         "residual": rep.residual, "error": None})
        except Exception as exc:  # keep sweeping per spec
            rows.append({"param": p, "rate": np.nan, "prefactor": np.nan,
                         "residual": np.nan,
                         "error": {"type": type(exc).__name__, "message": str(exc)}})
    rates = [r["rate"] for r in rows if r["error"] is None and np.isfinite(r["rate"])]
    sup = max(rates) if rates else np.nan
    passed = bool(rates) and sup < a_target and not any(r["error"] for r in rows)
    if not params:
        passed = True  # vacuous
    return {"rows": rows, "sup_rate": sup, "a_target": a_target,
            "pass": passed, "warning": "empty parameter list" if not params else None}
