"""Time evolution, steady states (matrix null vector and independent
Fourier-side oracles), and exponential decay-rate fitting."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla
from scipy.integrate import cumulative_trapezoid

from .grids import Field, Grid1D, WeightSpec, mass, weighted_norm
from .kernels import khat, truncated_fractional_kernel
from .operators import (
    Classical,
    DiscreteClassical,
    DiscreteFractional,
    Fractional,
    ModelSpec,
    OperatorMatrix,
)


@dataclass(frozen=True)
class EvolveSpec:
    t_end: float
    dt: float
    scheme: str = "BackwardEuler"  # BackwardEuler | CrankNicolson | ExactExpm
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.t_end < 0:
            raise ValueError("dt > 0 and t_end >= 0 required")
        if self.scheme not in ("BackwardEuler", "CrankNicolson", "ExactExpm"):
            raise ValueError(f"unknown scheme {self.scheme}")
        if self.record_every < 1:
            raise ValueError("record_every >= 1")


def default_dt(model: ModelSpec | None) -> float:
    """Stiffness-aware default step: min(0.01, eps^2/2) for the smooth-kernel
    jump model whose jump rate scales like eps^-2."""
    if isinstance(model, DiscreteClassical):
        return min(0.01, model.eps**2 / 2.0)
    return 0.01


def evolve(op: OperatorMatrix, f0: Field, spec: EvolveSpec) -> list[tuple[float, Field]]:
    """Integrate df/dt = M f and return [(t, f)] at recorded times."""
    if f0.grid != op.grid:
        raise ValueError("grid mismatch")
    n = op.grid.n
    if spec.scheme == "ExactExpm" and n > 2049:
        raise ValueError("ExactExpm limited to n <= 2049")
    M = op.entries
    nsteps = int(round(spec.t_end / spec.dt))
    out = [(0.0, f0)]
    f = f0.values.copy()
    if spec.t_end == 0 or nsteps == 0:
        return out
    eye = np.eye(n)
    if spec.scheme == "BackwardEuler":
        lu = sla.lu_factor(eye - spec.dt * M)
        step = lambda v: sla.lu_solve(lu, v)
    elif spec.scheme == "CrankNicolson":
        lu = sla.lu_factor(eye - 0.5 * spec.dt * M)
        right = eye + 0.5 * spec.dt * M
        step = lambda v: sla.lu_solve(lu, right @ v)
    else:
        E = sla.expm(spec.dt * M)
        step = lambda v: E @ v
    for k in range(1, nsteps + 1):
        f = step(f)
        if not np.all(np.isfinite(f)):
            raise FloatingPointError(f"non-finite state at step {k}")
        if k % spec.record_every == 0 or k == nsteps:
            out.append((k * spec.dt, Field(op.grid, f)))
    return out


def operator_scale(op: OperatorMatrix) -> float:
    """Induced-L1-style scale: max absolute column sum."""
    return float(np.abs(op.entries).sum(axis=0).max())


def steady_state(op: OperatorMatrix, check_rank: bool = True) -> Field:
    """Unit-mass null vector by shifted inverse iteration (shift 1e-8).

    Errors when the numerical null space is not one-dimensional (a second,
    deflated iteration also converging to eigenvalue ~0)."""
    n = op.grid.n
    M = op.entries
    shift = 1e-8
    lu = sla.lu_factor(M - shift * np.eye(n))
    scale = operator_scale(op)

    def iterate(v0: np.ndarray, deflate: np.ndarray | None) -> tuple[np.ndarray, float]:
        v = v0.copy()
        for _ in range(200):
            v = sla.lu_solve(lu, v)
            if deflate is not None:
                v -= deflate * (deflate @ v)
            v /= np.linalg.norm(v)
            res = np.linalg.norm(M @ v - (v @ (M @ v)) * v)
            if res <= 1e-12 * scale:
                break
        rayleigh = float(v @ (M @ v))
        return v, rayleigh

    v, _ = iterate(np.ones(n), None)
    if check_rank:
        u = v / np.linalg.norm(v)
        w, lam2 = iterate(np.sin(np.arange(n) + 0.5), u)
        if abs(lam2) <= 1e-8 * max(1.0, scale * 1e-6):
            raise ArithmeticError("spectral projector rank != 1")
    g = Field(op.grid, np.sign(v.sum()) * v)
    total = mass(g)
    if total == 0:
        raise ArithmeticError("null vector has zero mass")
    g = Field(op.grid, g.values / total)
    res = weighted_norm(Field(op.grid, M @ g.values), WeightSpec(p=1))
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


def fourier_steady_oracle(model: ModelSpec, grid: Grid1D) -> Field:
    """Independent equilibrium oracle from the characteristics solution of the
    evolution equation for the characteristic function."""
    if isinstance(model, Classical):
        return _inverse_fft_of_cf(grid, lambda xi: np.exp(-(xi**2) / 2.0))

    if isinstance(model, Fractional):
        from .kernels import power_kernel_symbol_factor

        coef = float(model.constant) * power_kernel_symbol_factor(model.alpha)

        def cf(xi: np.ndarray) -> np.ndarray:
            return np.exp(-coef * np.abs(xi) ** model.alpha / model.alpha)

        return _inverse_fft_of_cf(grid, cf)

    if isinstance(model, DiscreteClassical):
        keps = model.eps

        def cf(xi: np.ndarray) -> np.ndarray:
            s = np.linspace(1e-12, float(xi.max()) + 1.0, 200001)
            kh = np.asarray(khat(model.kernel, keps * s), dtype=float)
            integrand = (kh - model.kernel.l1_norm) / (keps**2 * s)
            cum = cumulative_trapezoid(integrand, s, initial=0.0)
            return np.exp(np.interp(xi, s, cum))

        return _inverse_fft_of_cf(grid, cf)

    if isinstance(model, DiscreteFractional):
        kern = truncated_fractional_kernel(model.alpha, model.eps)
        eps, alpha = model.eps, model.alpha

        def cf(xi: np.ndarray) -> np.ndarray:
            s = np.linspace(1e-12, float(xi.max()) + 1.0, 20001)
            # khat_eps(s) - ||k_eps||_1 = 2 int (cos(sz)-1) k_eps(z) dz:
            # analytic on the plateau, chunked quadrature on the power-law part
            plateau = 2.0 * eps ** (-1.0 - alpha) * (np.sin(s * eps) / s - eps)
            z = np.linspace(eps, 1.0 / eps, 20001)
            kz = z ** (-1.0 - alpha)
            osc = np.empty_like(s)
            for lo in range(0, s.size, 512):
                blk = s[lo : lo + 512]
                osc[lo : lo + 512] = 2.0 * np.trapezoid(
                    (np.cos(np.outer(blk, z)) - 1.0) * kz, z, axis=1
                )
            integrand = (plateau + osc) / s
            cum = cumulative_trapezoid(integrand, s, initial=0.0)
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "times": list(map(float, self.times)),
                "norms": list(map(float, self.norms)),
                "fitted_rate": self.fitted_rate,
                "fitted_prefactor": self.fitted_prefactor,
                "fit_window": list(self.fit_window),
                "residual": self.residual,
                "clean": self.clean,
                "projected": self.projected,
                "skipped": self.skipped,
            }
        )


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
    """Fit (a, C) per parameter; PASS iff the sup of fitted rates < a_target."""
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
    passed = bool(rates) and sup < a_target
    if not params:
        passed = True  # vacuous
    return {"rows": rows, "sup_rate": sup, "a_target": a_target,
            "pass": passed, "warning": "empty parameter list" if not params else None}
