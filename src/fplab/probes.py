"""Seeded families of smooth decaying probe functions used for
probe-based operator norms and inequality checks."""

from __future__ import annotations

import numpy as np

from .grids import Field, Grid1D


def _hermite_function(order: int, x: np.ndarray) -> np.ndarray:
    """Hermite function h_order(x) = H_order(x) exp(-x^2/2), recurrence form."""
    h0 = np.exp(-(x**2) / 2.0)
    if order == 0:
        return h0
    h1 = 2.0 * x * h0
    if order == 1:
        return h1
    for k in range(2, order + 1):
        h0, h1 = h1, 2.0 * x * h1 - 2.0 * (k - 1) * h0
        # renormalize to keep magnitudes tame for higher orders
        scale = np.max(np.abs(h1))
        if scale > 0:
            h1 = h1 / scale
            h0 = h0 / scale
    return h1


def probe_family(grid: Grid1D, count: int = 64, seed: int = 0,
                 include_sharp: bool = False, oscillatory: int = 0) -> list[Field]:
    """Random Hermite-type probes: mixtures of shifted Hermite functions of
    order <= 6 with a <x>^-2 envelope; even, odd, and sign-changing variants
    arise naturally.

    ``include_sharp`` appends narrow bumps (width down to ~2h) for
    smoothing-norm experiments.  ``oscillatory`` appends that many
    cosine-modulated Gaussians with log-spaced frequencies up to pi/(8h);
    these carry the marginal-regularity content that saturates operator norms
    between Sobolev spaces."""
    rng = np.random.default_rng(np.random.Philox(key=seed))
    x = grid.nodes
    envelope = 1.0 / (1.0 + x * x)
    probes: list[Field] = []
    for _ in range(count):
        n_terms = int(rng.integers(1, 4))
        v = np.zeros_like(x)
        for _ in range(n_terms):
            order = int(rng.integers(0, 7))
            shift = float(rng.uniform(-2.0, 2.0))
            width = float(rng.uniform(0.7, 2.0))
            coef = float(rng.normal())
            v = v + coef * _hermite_function(order, (x - shift) / width)
        v = v * envelope
        scale = np.max(np.abs(v))
        if scale < 1e-14:
            v = np.exp(-(x**2) / 2.0)
            scale = 1.0
        probes.append(Field(grid, v / scale))
    if include_sharp:
        for width in (8.0 * grid.h, 4.0 * grid.h, 2.0 * grid.h):
            bump = np.exp(-(x**2) / (2.0 * width**2))
            probes.append(Field(grid, bump))
    if oscillatory > 0:
        omegas = np.geomspace(1.0, np.pi / (8.0 * grid.h), oscillatory)
        carrier = np.exp(-(x**2) / 8.0)
        for om in omegas:
            probes.append(Field(grid, np.cos(om * x) * carrier))
            probes.append(Field(grid, np.sin(om * x) * carrier))
    return probes


def probe_block(grid: Grid1D, count: int = 64, seed: int = 0, **options) -> np.ndarray:
    """The ``probe_family`` (same arguments) as the columns of an n x P
    block."""
    return np.column_stack([f.values for f in probe_family(grid, count, seed, **options)])
