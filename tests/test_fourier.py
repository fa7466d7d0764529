import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplab.fourier import fourier_transform_block, power_spectra
from fplab.grids import Field, WeightSpec, gaussian_density, make_grid, weighted_norm
from fplab.probes import probe_block


GRID = make_grid(12.0, 513)


def _transform(v):
    """The xi nodes and transform of one probe, as a one-column block."""
    xi, fhat = fourier_transform_block(v[:, None], GRID)
    return xi, fhat[:, 0]


def test_transform_of_zero():
    _, fhat = _transform(np.zeros(GRID.n))
    assert np.max(np.abs(fhat)) == 0.0


def test_transform_is_on_the_half_line():
    # the nodes 0, dxi, ..., npad/2 dxi of a real FFT of length npad >= 4n
    xi, fhat = _transform(np.ones(GRID.n))
    npad = 2 * (len(xi) - 1)
    assert npad >= 4 * GRID.n and npad & (npad - 1) == 0
    assert xi[0] == 0.0 and np.all(np.diff(xi) > 0)
    assert np.allclose(np.diff(xi), 2.0 * np.pi / (npad * GRID.h), rtol=1e-12)
    assert fhat.shape == xi.shape


def test_gaussian_closed_form():
    xi, fhat = _transform(gaussian_density(GRID).values)
    keep = xi <= 10.0
    target = np.exp(-xi[keep] ** 2 / 2.0)
    assert np.max(np.abs(fhat[keep] - target)) <= 1e-10


def test_shift_theorem():
    xi, fhat = _transform(gaussian_density(GRID, 1.0, 1.0).values)
    keep = xi <= 10.0
    target = np.exp(-(xi[keep] ** 2) / 2.0) * np.exp(-1j * xi[keep])
    assert np.max(np.abs(fhat[keep] - target)) <= 1e-10


def test_roundtrip():
    v = np.exp(-GRID.nodes**2 / 3.0) * np.cos(2.0 * GRID.nodes)
    xi, fhat = _transform(v)
    # undo the x_min phase shift and the h scaling, then drop the zero padding
    back = np.fft.irfft(fhat * np.exp(-1j * xi * GRID.L), 2 * (len(xi) - 1)) / GRID.h
    assert np.max(np.abs(back[: GRID.n] - v)) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5), st.floats(0.5, 2.0))
def test_plancherel_matches_weighted_norm(order, width):
    v = (GRID.nodes / width) ** order * np.exp(-(GRID.nodes**2) / (2.0 * width**2))
    direct = weighted_norm(Field(GRID, v), WeightSpec(p=2))
    # ||f||_{L^2} on the spectral side: (1/2pi) int |fhat|^2 dxi
    # on the half line: every node but 0 and Nyquist stands for +-xi
    xi, fhat = _transform(v)
    dxi = xi[1] - xi[0]
    power = np.abs(fhat) ** 2
    total = power[0] + 2.0 * np.sum(power[1:-1]) + power[-1]
    spectral = np.sqrt(total * dxi / (2.0 * np.pi))
    assert abs(direct - spectral) <= 1e-8 * max(1.0, direct)


@pytest.mark.parametrize("P", [1, 6])
def test_block_transform_is_per_column_transform(P):
    # column j of a P-column block is the one-column block of probe j
    F = probe_block(GRID, count=6, seed=3)
    F[:, 2] = 0.0  # a zero column
    F = F[:, :P]
    xi, fhat = fourier_transform_block(F, GRID)
    spectra = power_spectra(F, GRID)
    # the ascending full line is the half line mirrored: -Nyquist, ..., -dxi,
    # then 0, ..., Nyquist - dxi
    mid = len(xi) - 1
    assert np.array_equal(spectra.xi_nodes, np.concatenate([-xi[mid:0:-1], xi[:mid]]))
    for j in range(P):
        xi_j, fhat_j = _transform(F[:, j])
        assert np.array_equal(xi_j, xi)
        assert np.max(np.abs(fhat[:, j] - fhat_j)) <= 1e-13 * max(np.max(np.abs(fhat_j)), 1e-300)
        power = power_spectra(F[:, j:j + 1], GRID).power[0]
        assert np.max(np.abs(spectra.power[j] - power)) <= 1e-13 * max(power.max(), 1e-300)


def test_power_spectra_rows_are_full_fft_power():
    # each row is |fft|^2 of its column on the full fftfreq line, sorted:
    # the mirrored half spectrum loses nothing of the negative nodes
    F = probe_block(GRID, count=6, seed=5)
    spectra = power_spectra(F, GRID)
    npad = spectra.power.shape[1]
    xi = 2.0 * np.pi * np.fft.fftfreq(npad, d=GRID.h)
    order = np.argsort(xi)
    assert np.array_equal(spectra.xi_nodes, xi[order])
    for v, row in zip(F.T, spectra.power):
        full = (np.abs(np.fft.fft(v, npad)) * GRID.h) ** 2
        assert np.max(np.abs(row - full[order])) <= 1e-13 * full.max()


def test_power_spectra_integrate_over_sorted_nodes():
    f = gaussian_density(GRID)
    spectra = power_spectra(f.values[:, None], GRID)
    xi = spectra.xi_nodes
    # (1/2pi) int |fhat|^2 dxi = ||f||^2 for the unit-variance Gaussian
    expected = 1.0 / (2.0 * np.sqrt(np.pi))
    assert abs(spectra.integrate(np.ones_like(xi))[0] - expected) <= 1e-8
    # a window keeps the nodes |xi| <= xi_max and no panel across it
    keep = np.abs(xi) <= 3.0
    window = np.trapezoid(spectra.power[0, keep], xi[keep]) / (2.0 * np.pi)
    assert spectra.integrate(np.ones_like(xi), 3.0)[0] == pytest.approx(window, rel=1e-14)


def test_power_spectra_peak_stays_below_two_power_arrays():
    # criterion 6's block: the half spectrum and its modulus, then the
    # modulus and the full power array, are the largest pairs alive (the
    # full complex transform with its modulus took three power arrays)
    F = probe_block(GRID, count=100, seed=6)
    tracemalloc.start()
    try:
        spectra = power_spectra(F, GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectra.power.shape == (100, 4096)
    assert peak <= 2 * spectra.power.nbytes
