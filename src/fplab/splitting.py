"""Bounded/dissipative operator splittings: the full generator is written as
A + B with A bounded and spatially localized and B the dissipative remainder.

Two schemes:

* multiplier scheme ("classical"): A = M chi_R (k_eps * f) for the
  smooth-kernel jump model, degenerating to the multiplier A = M chi_R f for
  the local and fractional limit models.
* five-part scheme ("fractional"): A is the integral operator with kernel
  k(x-y) restricted to the jump band eta <= |x-y| <= 2 Lcut and localized by
  xi_R(x, y) = chi_R(x) + chi_R(y) - chi_R(x) chi_R(y); it is built from the
  pure power-law cell integrals, so it is the same matrix for every
  truncation parameter eps (eta >= eps, Lcut <= 1/eps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.linalg as sla

from .grids import Grid1D
from .operators import (
    DiscreteClassical,
    DiscreteFractional,
    Fractional,
    ModelSpec,
    OperatorMatrix,
    _power_cell_weights,
    assemble,
    sampled_convolution_weights,
)


# ---------------------------------------------------------------------------
# the C^2 cutoff


def smoothstep(u: np.ndarray) -> np.ndarray:
    """Quintic smoothstep S(u) = u^3 (10 - 15u + 6u^2), clamped to [0, 1]."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    return u**3 * (10.0 - 15.0 * u + 6.0 * u * u)


def chi(x: np.ndarray | float) -> np.ndarray | float:
    """Radially symmetric C^2 cutoff: 1 on |x| <= 1, 0 on |x| >= 2,
    quintic-smoothstep transition in between."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = smoothstep(2.0 - ax)
    return float(out) if np.isscalar(x) else out


def chi_scaled(x: np.ndarray | float, beta: float) -> np.ndarray | float:
    """chi_beta(x) = chi(x/beta); 1 on |x| <= beta, 0 on |x| >= 2 beta."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return chi(np.asarray(x, dtype=float) / beta)


def chi_band(z: np.ndarray, eta: float, lcut: float) -> np.ndarray:
    """chi_Lcut(z) - chi_eta(z): supported on eta <= |z| <= 2 Lcut."""
    return np.asarray(chi_scaled(z, lcut)) - np.asarray(chi_scaled(z, eta))


def xi_pair(x: np.ndarray, y: np.ndarray, R: float) -> np.ndarray:
    """xi_R(x, y) = chi_R(x) + chi_R(y) - chi_R(x) chi_R(y); vanishes exactly
    when both |x| >= 2R and |y| >= 2R."""
    cx = np.asarray(chi_scaled(x, R))
    cy = np.asarray(chi_scaled(y, R))
    return cx + cy - cx * cy


def chi_gradient_bound(R: float) -> float:
    """Exact sup of |chi_R'| for the quintic cutoff: 1.875 / R."""
    if R <= 0:
        raise ValueError("R must be positive")
    return 1.875 / R


# ---------------------------------------------------------------------------
# splitting specifications


@dataclass(frozen=True)
class ClassicalSplitting:
    """Multiplier scheme: A = M chi_R (k_eps * f), or M chi_R f at eps = 0."""

    M: float
    R: float
    scheme: str = "classical"

    def __post_init__(self) -> None:
        if not np.isfinite(self.M) or self.M < 0:
            raise ValueError("M must be finite and >= 0")
        if not (np.isfinite(self.R) and self.R > 0):
            raise ValueError("R must be finite and > 0")


@dataclass(frozen=True)
class FractionalSplitting:
    """Five-part scheme: A has kernel k(z) chi_band(z) xi_R(x, y)."""

    eta: float
    Lcut: float
    R: float
    scheme: str = "fractional"

    def __post_init__(self) -> None:
        if not (0.0 < self.eta < self.Lcut):
            raise ValueError("need 0 < eta < Lcut")
        if not (np.isfinite(self.R) and self.R > 0):
            raise ValueError("R must be finite and > 0")


SplittingSpec = Union[ClassicalSplitting, FractionalSplitting]


# ---------------------------------------------------------------------------
# assembly


def _five_part_bounded(grid: Grid1D, alpha: float, constant: float,
                       split: FractionalSplitting) -> np.ndarray:
    """Gain matrix of the localized band-restricted power-law jump operator.

    Uses the pure power-law cell integrals (no plateau, no support cut), so
    the matrix does not depend on the truncation parameter of the model.
    The band factor depends only on the offset, so it scales the offset
    weights before the Toeplitz copy; xi_R = 1 - (1 - chi_R(x))(1 - chi_R(y))
    is the one further n x n array."""
    n, h = grid.n, grid.h
    # exact cell integrals of the power-law kernel for every offset; the
    # near-field radius is irrelevant because the band factor vanishes there
    w = np.zeros(n)
    w[1:] = _power_cell_weights(grid, alpha, constant, delta=0.5 * h)
    w *= chi_band(np.arange(n) * h, split.eta, split.Lcut)
    K = sla.toeplitz(w)
    u = 1.0 - np.asarray(chi_scaled(grid.nodes, split.R))
    xi = np.outer(u, u)
    np.subtract(1.0, xi, out=xi)
    K *= xi
    return K


def assemble_splitting(
    model: ModelSpec, grid: Grid1D, split: SplittingSpec
) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Split the assembled generator as A + B (entrywise exact).

    A is the bounded localized part of the chosen scheme; B is the full
    generator minus A, subtracted in place from a freshly assembled
    generator, so the two parts are the only n x n arrays left."""
    x = grid.nodes
    h = grid.h

    if isinstance(split, ClassicalSplitting):
        if isinstance(model, DiscreteFractional):
            raise ValueError("splitting scheme does not match model family")
        mult = split.M * np.asarray(chi_scaled(x, split.R))
        if isinstance(model, DiscreteClassical):
            # the dense matrix of f -> k_eps * f, rows scaled by the multiplier
            w0, w = sampled_convolution_weights(model, grid)
            A = sla.toeplitz(np.concatenate([[w0], w]))
            A *= mult[:, None]
        else:  # Classical or Fractional limit model: pure multiplier
            A = np.diag(mult)
    elif isinstance(split, FractionalSplitting):
        if isinstance(model, Fractional):
            alpha, constant = model.alpha, float(model.constant)
        elif isinstance(model, DiscreteFractional):
            alpha, constant = model.alpha, 1.0
            if split.eta < model.eps:
                raise ValueError("need eta >= eps for an eps-independent A")
            if split.Lcut > 1.0 / model.eps:
                raise ValueError("need Lcut <= 1/eps for an eps-independent A")
        else:
            raise ValueError("splitting scheme does not match model family")
        if split.eta < 2.0 * h:
            raise ValueError(
                f"grid does not resolve the band: need eta >= 2h = {2.0 * h:.6g}"
            )
        A = _five_part_bounded(grid, alpha, constant, split)
    else:
        raise TypeError(f"unknown splitting spec {split!r}")

    B = assemble(model, grid).entries
    B -= A
    wq = grid.cell_sizes
    a_op = OperatorMatrix(
        grid=grid,
        entries=A,
        label=f"part:A:{split.scheme}",
        conservation_defect=float(np.abs(wq @ A).max()),
    )
    b_op = OperatorMatrix(
        grid=grid,
        entries=B,
        label=f"part:B:{split.scheme}",
        conservation_defect=float(np.abs(wq @ B).max()),
    )
    return a_op, b_op
