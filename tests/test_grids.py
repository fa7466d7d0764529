import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplab.cli import main
from fplab.grids import (
    Field,
    Grid1D,
    WeightSpec,
    gaussian_density,
    make_grid,
    mass,
    probe_norm,
    weighted_norm,
)
from fplab.probes import probe_family


GRID = make_grid(12.0, 513)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(-1.0, 513)
    with pytest.raises(ValueError):
        make_grid(12.0, 512)  # even node count
    with pytest.raises(ValueError):
        make_grid(12.0, 1)


def test_grid_geometry():
    g = make_grid(2.0, 5)
    assert g.h == 1.0
    assert np.allclose(g.nodes, [-2, -1, 0, 1, 2])
    assert np.allclose(g.cell_sizes, [0.5, 1, 1, 1, 0.5])
    assert 0.0 in g.nodes


def test_nodes_exactly_antisymmetric():
    for L, n in ((2.0, 5), (12.8, 1025), (12.0, 961), (60.0, 2049)):
        x = make_grid(L, n).nodes
        assert np.array_equal(x[::-1], -x)
        assert x[0] == -L and x[-1] == L and x[n // 2] == 0.0
        assert np.max(np.abs(x - np.linspace(-L, L, n))) <= 4.0 * np.finfo(float).eps * L


def test_mass_zero_field():
    assert mass(Field(GRID, np.zeros(GRID.n))) == 0.0


def test_mass_box():
    # indicator of [-1, 1] aligned with the grid: integral 2 up to one cell
    v = (np.abs(GRID.nodes) <= 1.0).astype(float)
    assert abs(mass(Field(GRID, v)) - 2.0) <= GRID.h


def test_mass_exact_for_piecewise_linear():
    # trapezoid quadrature integrates hat functions with kinks on nodes exactly
    v = np.maximum(0.0, 1.0 - np.abs(GRID.nodes) / 6.0)  # kinks at 0, +-6 (nodes)
    assert abs(mass(Field(GRID, v)) - 6.0) <= 1e-12


def test_weighted_norm_gaussian_l1():
    f = gaussian_density(GRID)
    assert abs(weighted_norm(f, WeightSpec(p=1)) - 1.0) <= 1e-10


def test_weighted_norm_gaussian_l2():
    # closed form: the squared L2 norm of the standard normal density
    # is 1/(2 sqrt(pi))
    f = gaussian_density(GRID)
    target = (1.0 / (2.0 * np.sqrt(np.pi))) ** 0.5
    assert abs(weighted_norm(f, WeightSpec(p=2)) - target) <= 1e-8
    assert abs(target - 0.531126) <= 1e-6


def test_weighted_norm_gaussian_weighted_l1_quadrature_oracle():
    from scipy.integrate import quad

    f = gaussian_density(GRID)
    oracle, _ = quad(
        lambda x: np.sqrt(1 + x * x) * np.exp(-x * x / 2) / np.sqrt(2 * np.pi),
        -12.0, 12.0,
    )
    assert abs(weighted_norm(f, WeightSpec(p=1, q=1)) - oracle) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(st.floats(-50, 50), st.integers(0, 6))
def test_norm_absolute_homogeneity(c, order):
    v = np.exp(-GRID.nodes**2 / 2.0) * GRID.nodes**order
    f = Field(GRID, v)
    g = Field(GRID, c * v)
    for w in (WeightSpec(p=1), WeightSpec(p=2, q=1), WeightSpec(p=2, q=0, s=2)):
        assert abs(weighted_norm(g, w) - abs(c) * weighted_norm(f, w)) <= 1e-12 * (
            1.0 + abs(c) * weighted_norm(f, w)
        )


def _probe_norm_loop(image, F, source, target):
    best = 0.0
    for j in range(F.shape[1]):
        num = max(weighted_norm(Field(GRID, image[:, j].real), target),
                  weighted_norm(Field(GRID, image[:, j].imag), target))
        den = weighted_norm(Field(GRID, F[:, j]), source)
        if den > 0:
            best = max(best, num / den)
    return best


def test_probe_norm_matches_column_loop():
    F = np.column_stack([f.values for f in probe_family(GRID, count=12, seed=3)]
                        + [np.zeros(GRID.n)])
    rng = np.random.default_rng(0)
    T = rng.normal(size=(GRID.n, GRID.n)) / GRID.n
    source, target = WeightSpec(p=2, q=1, s=3), WeightSpec(p=1, q=0.5)
    real = T @ F
    cplx = real + 1j * ((T @ T) @ F)
    for image in (real, cplx):
        ref = _probe_norm_loop(image, F, source, target)
        assert ref > 0.0
        assert abs(probe_norm(image, F, GRID, source, target) - ref) <= 1e-14 * ref
    # every probe with zero source norm is skipped
    Z = np.zeros((GRID.n, 2))
    assert probe_norm(Z, Z, GRID, source, target) == 0.0


def test_field_validation():
    with pytest.raises(ValueError):
        Field(GRID, np.zeros(GRID.n - 1))
    with pytest.raises(ValueError):
        Field(GRID, np.full(GRID.n, np.nan))


def test_field_arithmetic_grid_mismatch():
    f = Field(GRID, np.zeros(GRID.n))
    g2 = make_grid(12.0, 515)
    with pytest.raises(ValueError):
        f + Field(g2, np.zeros(g2.n))


def test_weightspec_validation():
    with pytest.raises(ValueError):
        WeightSpec(p=3)
    with pytest.raises(ValueError):
        WeightSpec(p=2, q=-1.0)
    with pytest.raises(ValueError):
        WeightSpec(p=2, q=0, s=4)


def test_csv_roundtrip(tmp_path):
    from fplab.operators import Classical, assemble
    from fplab.semigroup import steady_state

    out = tmp_path / "run"
    assert main(["steady", "--model", "classical", "--L", "12", "--n", "513",
                 "--outdir", str(out)]) == 0
    x, value = np.loadtxt(out / "steady_state.csv", delimiter=",", unpack=True)
    assert make_grid(x[-1], x.size) == GRID
    assert np.array_equal(x, GRID.nodes)
    assert np.array_equal(value, steady_state(assemble(Classical(), GRID)).values)
