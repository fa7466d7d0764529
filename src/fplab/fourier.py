"""FFT with continuum normalization: fhat(xi) = int f(x) e^{-i x xi} dx."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import Field


@dataclass(frozen=True)
class SpectralField:
    """Continuum-normalized Fourier data on an fftfreq-ordered xi grid."""

    xi_nodes: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        xi = np.asarray(self.xi_nodes, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if xi.shape != v.shape:
            raise ValueError("xi_nodes and values must have equal length")
        object.__setattr__(self, "xi_nodes", xi)
        object.__setattr__(self, "values", v)


def _padded_size(n: int) -> int:
    # generous zero padding: at least 4x for clean linear convolutions downstream
    target = 4 * n
    size = 1
    while size < target:
        size *= 2
    return size


def fourier_transform(f: Field) -> SpectralField:
    """Forward transform with x_min phase shift.  Every sample, the two end
    samples included, carries the weight h (a rectangle rule, not the
    trapezoid rule's h/2 at the ends)."""
    grid = f.grid
    h = grid.h
    npad = _padded_size(grid.n)
    buf = np.zeros(npad)
    buf[: grid.n] = f.values
    xi = 2.0 * np.pi * np.fft.fftfreq(npad, d=h)
    # samples buf[j] live at x = x_min + j h
    fhat = h * np.fft.fft(buf) * np.exp(-1j * xi * (-grid.L))
    return SpectralField(xi_nodes=xi, values=fhat)

