"""FFT of probe blocks with continuum normalization:
fhat(xi) = int f(x) e^{-i x xi} dx."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import Grid1D


def fourier_transform_block(F: np.ndarray, grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """Forward transform of every column of a real n x P block F, with the
    x_min phase shift: the fftfreq-ordered xi nodes and the npad x P
    transforms, from one FFT along axis 0 and one phase vector.  Every
    sample, the two end samples included, carries the weight h (a rectangle
    rule, not the trapezoid rule's h/2 at the ends)."""
    h = grid.h
    # generous zero padding: the smallest power of 2 >= 4n
    npad = 1 << (4 * grid.n - 1).bit_length()
    xi = 2.0 * np.pi * np.fft.fftfreq(npad, d=h)
    # samples F[j] live at x = x_min + j h
    fhat = np.fft.fft(F, npad, axis=0)
    fhat *= h
    fhat *= np.exp(-1j * xi * (-grid.L))[:, None]
    return xi, fhat


@dataclass(frozen=True)
class PowerSpectra:
    """|fhat|^2 of each probe of a block, as the rows of a P x npad array,
    on the xi nodes in ascending order."""

    xi_nodes: np.ndarray = field(repr=False)
    power: np.ndarray = field(repr=False)

    def integrate(self, weight: np.ndarray, xi_max: float = np.inf) -> np.ndarray:
        """(1/2pi) int_{|xi| <= xi_max} weight(xi) |fhat(xi)|^2 dxi for every
        probe, ``weight`` given on ``xi_nodes``: the trapezoid rule over the
        ascending nodes, so the fftfreq wrap-around from the largest to the
        smallest xi is no panel.  Each probe's panels are summed on their own
        (pairwise, as for a 1-D array), so a probe's value does not depend on
        the other probes of its block."""
        xi = self.xi_nodes
        lo, hi = np.searchsorted(xi, -xi_max, "left"), np.searchsorted(xi, xi_max, "right")
        xi = xi[lo:hi]
        y = weight[lo:hi] * self.power[:, lo:hi]
        panels = np.diff(xi) * (y[:, 1:] + y[:, :-1]) / 2.0
        return np.array([row.sum() for row in panels]) / (2.0 * np.pi)


def power_spectra(F: np.ndarray, grid: Grid1D) -> PowerSpectra:
    """|fhat|^2 of every column of a real n x P block F from one
    ``fourier_transform_block``; the complex transforms are freed here."""
    xi, fhat = fourier_transform_block(F, grid)
    power = np.abs(fhat)
    del fhat
    power *= power
    order = np.argsort(xi)
    return PowerSpectra(xi_nodes=xi[order], power=np.ascontiguousarray(power[order].T))
