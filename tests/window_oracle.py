"""Plain references for the Monte Carlo windows of ``fplab.sde``: each window
formed with fresh arrays from the textbook formulas, on the same draws in the
same order as the in-place windows."""

import numpy as np

from fplab.sde import AlphaStable, _kernel_jump_table, _rng


def stable_standard(rng, alpha, size):
    """Chambers-Mallows-Stuck, written out as one expression."""
    if abs(alpha - 2.0) < 1e-12:
        return rng.normal(scale=np.sqrt(2.0), size=size)
    U = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
    W = rng.exponential(1.0, size=size)
    if abs(alpha - 1.0) < 1e-12:
        return np.tan(U)
    return (
        np.sin(alpha * U)
        / np.cos(U) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * U) / W) ** ((1.0 - alpha) / alpha)
    )


def kernel_jumps(table, rng, size):
    """np.interp inversion of the CDF table, signs by np.where."""
    u = rng.uniform(0.0, 1.0, size=size)
    mag = np.interp(u, table.cdf, table.z)
    return np.where(rng.integers(0, 2, size=size), mag, -mag)


def states(spec, initial_sampler, stream=0):
    """``simulate(spec, initial_sampler, stream).states``, every window a new
    array."""
    rng = _rng(spec.seed, stream)
    n = spec.n_paths
    x = np.asarray(initial_sampler(rng, n), dtype=float)
    n_rec = int(round(spec.t_end / spec.dt_record))
    dt = spec.dt_record
    out = [x]
    if isinstance(spec.noise, AlphaStable):
        alpha = spec.noise.alpha
        decay = np.exp(-dt)
        sigma = ((1.0 - np.exp(-alpha * dt)) / alpha) ** (1.0 / alpha)
        for _ in range(n_rec):
            x = decay * x - sigma * stable_standard(rng, alpha, n)
            out.append(x)
    else:
        k = spec.noise.kernel
        lam = spec.noise.rate_scale * k.l1_norm
        table = _kernel_jump_table(k)
        for _ in range(n_rec):
            counts = rng.poisson(lam * dt, size=n)
            total = int(counts.sum())
            jumps = kernel_jumps(table, rng, total)
            offsets = np.repeat(np.arange(n), counts)
            times_in = rng.uniform(0.0, dt, size=total)
            x = x * np.exp(-dt)
            contrib = -jumps * np.exp(-(dt - times_in))
            x = x + np.bincount(offsets, weights=contrib, minlength=n)
            out.append(x)
    return np.stack(out)
