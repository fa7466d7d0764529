import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fplab.fourier import fourier_transform
from fplab.grids import Field, WeightSpec, gaussian_density, make_grid, weighted_norm


GRID = make_grid(12.0, 513)


def test_transform_of_zero():
    g = fourier_transform(Field(GRID, np.zeros(GRID.n)))
    assert np.max(np.abs(g.values)) == 0.0


def test_gaussian_closed_form():
    f = gaussian_density(GRID)
    g = fourier_transform(f)
    keep = np.abs(g.xi_nodes) <= 10.0
    target = np.exp(-g.xi_nodes[keep] ** 2 / 2.0)
    assert np.max(np.abs(g.values[keep] - target)) <= 1e-10


def test_shift_theorem():
    f = gaussian_density(GRID, 1.0, 1.0)
    g = fourier_transform(f)
    keep = np.abs(g.xi_nodes) <= 10.0
    xi = g.xi_nodes[keep]
    target = np.exp(-(xi**2) / 2.0) * np.exp(-1j * xi)
    assert np.max(np.abs(g.values[keep] - target)) <= 1e-10


def test_roundtrip():
    v = np.exp(-GRID.nodes**2 / 3.0) * np.cos(2.0 * GRID.nodes)
    g = fourier_transform(Field(GRID, v))
    # undo the x_min phase shift and the h scaling, then drop the zero padding
    back = np.fft.ifft(g.values * np.exp(-1j * g.xi_nodes * GRID.L)) / GRID.h
    assert np.max(np.abs(back[: GRID.n].real - v)) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5), st.floats(0.5, 2.0))
def test_plancherel_matches_weighted_norm(order, width):
    v = (GRID.nodes / width) ** order * np.exp(-(GRID.nodes**2) / (2.0 * width**2))
    f = Field(GRID, v)
    direct = weighted_norm(f, WeightSpec(p=2))
    # ||f||_{L^2} on the spectral side: (1/2pi) int |fhat|^2 dxi
    g = fourier_transform(f)
    dxi = abs(g.xi_nodes[1] - g.xi_nodes[0])
    spectral = np.sqrt(np.sum(np.abs(g.values) ** 2) * dxi / (2.0 * np.pi))
    assert abs(direct - spectral) <= 1e-8 * max(1.0, direct)
