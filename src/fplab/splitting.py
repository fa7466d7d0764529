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

from .grids import Grid1D
from .operators import (
    DiscreteClassical,
    DiscreteFractional,
    Fractional,
    ModelSpec,
    OperatorMatrix,
    OperatorParts,
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


def _five_part_weights(grid: Grid1D, alpha: float, constant: float,
                       split: FractionalSplitting) -> tuple[np.ndarray, np.ndarray]:
    """The band-restricted offset weights w and u = 1 - chi_R(x) of the
    five-part gain T(w) * (1 - u u^T), with T(w) the symmetric Toeplitz matrix.

    Uses the pure power-law cell integrals (no plateau, no support cut), so
    the gain does not depend on the truncation parameter of the model; the
    band factor depends only on the offset, so it scales the weights."""
    n, h = grid.n, grid.h
    # exact cell integrals of the power-law kernel for every offset; the
    # near-field radius is irrelevant because the band factor vanishes there
    w = np.zeros(n)
    w[1:] = _power_cell_weights(grid, alpha, constant, 0.5 * h, np.inf)
    w *= chi_band(np.arange(n) * h, split.eta, split.Lcut)
    return w, 1.0 - np.asarray(chi_scaled(grid.nodes, split.R))


def assemble_splitting(
    model: ModelSpec, grid: Grid1D, split: SplittingSpec
) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Split the assembled generator as A + B (entrywise exact), both kept as
    their parts (``operators.OperatorParts``).

    A is the bounded localized part of the chosen scheme: the multiplier
    row scaling diag(M chi_R) T(k_eps) or diag(M chi_R), or the five-part
    gain T(w) - diag(u) T(w) diag(u).  B is the generator's parts minus A's."""
    x = grid.nodes
    n, h = grid.n, grid.h
    zero = np.zeros(n - 1)

    if isinstance(split, ClassicalSplitting):
        if isinstance(model, DiscreteFractional):
            raise ValueError("splitting scheme does not match model family")
        mult = split.M * np.asarray(chi_scaled(x, split.R))
        if isinstance(model, DiscreteClassical):
            # f -> k_eps * f, rows scaled by the multiplier
            w0, w = sampled_convolution_weights(model, grid)
            a_parts = OperatorParts(np.zeros(n), zero, zero, np.concatenate([[w0], w])[None, :],
                                    mult[None, :], np.ones((1, n)))
        else:  # Classical or Fractional limit model: pure multiplier
            a_parts = OperatorParts(mult, zero, zero, *(np.empty((0, n)),) * 3)
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
        w, u = _five_part_weights(grid, alpha, constant, split)
        ones = np.ones(n)
        a_parts = OperatorParts(np.zeros(n), zero, zero, np.stack([w, w]), np.stack([ones, -u]),
                                np.stack([ones, u]))
    else:
        raise TypeError(f"unknown splitting spec {split!r}")

    full = assemble(model, grid)
    return (OperatorMatrix(grid, label=f"part:A:{split.scheme}", parts=a_parts),
            OperatorMatrix(grid, label=f"part:B:{split.scheme}", parts=full.parts - a_parts))
