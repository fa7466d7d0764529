"""FFT of probe blocks with continuum normalization:
fhat(xi) = int f(x) e^{-i x xi} dx."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import Grid1D


def fourier_transform_block(F: np.ndarray, grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """Forward transform of every column of a real n x P block F, with the
    x_min phase shift, on the half line: the ascending xi >= 0 nodes and the
    (npad/2 + 1) x P transforms, from one real FFT along axis 0 and one
    phase vector.  fhat(-xi) is the conjugate of fhat(xi) for real f.  Every
    sample, the two end samples included, carries the weight h (a rectangle
    rule, not the trapezoid rule's h/2 at the ends)."""
    h = grid.h
    # generous zero padding: the smallest power of 2 >= 4n
    npad = 1 << (4 * grid.n - 1).bit_length()
    xi = 2.0 * np.pi * np.fft.rfftfreq(npad, d=h)
    # samples F[j] live at x = x_min + j h
    fhat = np.fft.rfft(F, npad, axis=0)
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
        ascending nodes.  Each probe's panels are formed and summed on their
        own (pairwise, as for a 1-D array), one row at a time, so a probe's
        value does not depend on the other probes of its block and no
        P x npad temporary is made."""
        xi = self.xi_nodes
        lo, hi = np.searchsorted(xi, -xi_max, "left"), np.searchsorted(xi, xi_max, "right")
        dxi, weight = np.diff(xi[lo:hi]), weight[lo:hi]
        out = np.empty(len(self.power))
        for j, row in enumerate(self.power):
            y = weight * row[lo:hi]
            out[j] = (dxi * (y[1:] + y[:-1]) / 2.0).sum()
        return out / (2.0 * np.pi)


def power_spectra(F: np.ndarray, grid: Grid1D) -> PowerSpectra:
    """|fhat|^2 of every column of a real n x P block F from one
    ``fourier_transform_block`` on the half line, mirrored to the ascending
    full line -npad/2, ..., npad/2 - 1 (|fhat(-xi)| = |fhat(xi)| for real
    f; the -Nyquist node takes the Nyquist value).  The complex half is
    freed before the full array is made."""
    xi, fhat = fourier_transform_block(F, grid)
    half = np.abs(fhat)
    del fhat
    half *= half
    mid = len(xi) - 1  # npad / 2
    power = np.empty((half.shape[1], 2 * mid))
    power[:, :mid] = half[mid:0:-1].T
    power[:, mid:] = half[:mid].T
    return PowerSpectra(xi_nodes=np.concatenate([-xi[mid:0:-1], xi[:mid]]), power=power)
