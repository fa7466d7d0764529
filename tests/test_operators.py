import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from fplab.grids import Field, WeightSpec, gaussian_density, make_grid, weighted_norm
from fplab.kernels import truncated_fractional_kernel
from fplab.operators import (
    Classical,
    DiscreteClassical,
    DiscreteFractional,
    Fractional,
    _bernoulli,
    _power_cell_weights,
    _truncated_cell_weights,
    apply,
    assemble,
    operator_distance,
    sampled_convolution_weights,
)
from fplab.probes import probe_family
from fplab.semigroup import fourier_steady_oracle
from fplab.splitting import (
    ClassicalSplitting,
    FractionalSplitting,
    _five_part_bounded,
    assemble_splitting,
    chi_band,
    xi_pair,
)


GRID = make_grid(12.0, 513)

MODELS = [
    (Classical(), GRID),
    (DiscreteClassical(eps=0.4), GRID),
    (Fractional(alpha=1.5), GRID),
    (Fractional(alpha=1.0, constant=1.0), GRID),
    (DiscreteFractional(eps=0.2, alpha=1.0), GRID),
]


@pytest.mark.parametrize("model,grid", MODELS, ids=lambda m: getattr(m, "family", ""))
def test_mass_conservation_columns(model, grid):
    op = assemble(model, grid)
    colsum = grid.cell_sizes @ op.entries
    assert np.max(np.abs(colsum)) <= 1e-12 * np.max(np.abs(op.entries))
    assert op.conservation_defect <= 1e-12 * np.max(np.abs(op.entries))


@pytest.mark.parametrize("model,grid", MODELS, ids=lambda m: getattr(m, "family", ""))
def test_apply_zero_and_linearity(model, grid):
    op = assemble(model, grid)
    zero = apply(op, Field(grid, np.zeros(grid.n)))
    assert np.max(np.abs(zero.values)) == 0.0
    f = gaussian_density(grid)
    g = Field(grid, np.sin(grid.nodes) * np.exp(-(grid.nodes**2) / 4))
    lhs = apply(op, Field(grid, 2.0 * f.values + g.values)).values
    rhs = 2.0 * apply(op, f).values + apply(op, g).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("model,grid", MODELS, ids=lambda m: getattr(m, "family", ""))
def test_even_symmetry(model, grid):
    op = assemble(model, grid)
    f = Field(grid, np.exp(-(grid.nodes**2) / 3.0))
    out = apply(op, f).values
    assert np.max(np.abs(out - out[::-1])) <= 1e-11 * max(1.0, np.max(np.abs(out)))


@pytest.mark.parametrize("model,grid", MODELS, ids=lambda m: getattr(m, "family", ""))
def test_jump_offdiagonals_nonnegative(model, grid):
    op = assemble(model, grid)
    assert op.jump_offdiag_min >= -1e-14


def test_classical_annihilates_gaussian():
    op = assemble(Classical(), GRID)
    out = apply(op, gaussian_density(GRID))
    assert weighted_norm(out, WeightSpec(p=1)) <= 1e-6


def test_classical_spectrum_integer_ladder():
    op = assemble(Classical(), GRID)
    ev = np.sort(sla.eigvals(op.entries).real)[::-1][:4]
    assert np.max(np.abs(ev - np.array([0.0, -1.0, -2.0, -3.0]))) <= 3e-3


def test_fractional_annihilates_fourier_equilibrium():
    grid = make_grid(60.0, 2049)
    model = Fractional(alpha=1.5)
    op = assemble(model, grid)
    G = fourier_steady_oracle(model, grid)
    out = apply(op, G)
    assert weighted_norm(out, WeightSpec(p=1)) <= 5e-3


def test_sampled_convolution_weights_total_mass():
    model = DiscreteClassical(eps=0.4)
    w0, w = sampled_convolution_weights(model, GRID)
    total = w0 + 2.0 * np.sum(w)
    assert abs(total - model.kernel.l1_norm) <= 1e-12


def test_resolution_guards():
    coarse = make_grid(12.0, 65)
    with pytest.raises(ValueError):
        assemble(DiscreteClassical(eps=0.4), coarse)  # needs h <= eps/8
    with pytest.raises(ValueError):
        assemble(DiscreteFractional(eps=0.2, alpha=1.0), coarse)  # h <= eps/2
    with pytest.raises(ValueError):
        DiscreteFractional(eps=0.2, alpha=2.5)
    with pytest.raises(ValueError):
        DiscreteClassical(eps=-0.1)


def test_operator_distance_identical_is_zero():
    op = assemble(Classical(), GRID)
    d = operator_distance(op, op, WeightSpec(p=2, q=1, s=3), WeightSpec(p=2, q=1),
                          probes=8)
    assert d == 0.0


def test_operator_distance_smooth_family_shrinks():
    m0 = assemble(Classical(), make_grid(12.0, 961))
    g = m0.grid
    src, tgt = WeightSpec(p=2, q=1, s=3), WeightSpec(p=2, q=1)
    d_coarse = operator_distance(assemble(DiscreteClassical(eps=0.4), g), m0,
                                 src, tgt, probes=16)
    d_fine = operator_distance(assemble(DiscreteClassical(eps=0.2), g), m0,
                               src, tgt, probes=16)
    assert d_fine < d_coarse


def test_apply_grid_mismatch():
    op = assemble(Classical(), GRID)
    other = make_grid(12.0, 515)
    with pytest.raises(ValueError):
        apply(op, Field(other, np.zeros(other.n)))


def test_mass_conserved_on_probes():
    # weighted column sums vanishing means d/dt mass = 0 for any density
    op = assemble(DiscreteFractional(eps=0.2, alpha=1.2), GRID)
    for f in probe_family(GRID, count=8, seed=3):
        rate = float(GRID.cell_sizes @ (op.entries @ f.values))
        assert abs(rate) <= 1e-10


# ---------------------------------------------------------------------------
# banded, in-place assembly against the dense n x n construction it replaced


def _dense_drift_diffusion_block(grid, diffusion):
    n, h = grid.n, grid.h
    x = grid.nodes
    wq = grid.cell_sizes
    xm = 0.5 * (x[:-1] + x[1:])
    if diffusion > 0.0:
        w = h * xm / diffusion
        coef_left = diffusion * _bernoulli(w)
        coef_right = diffusion * _bernoulli(-w)
    else:
        coef_left = h * np.maximum(-xm, 0.0)
        coef_right = h * np.maximum(xm, 0.0)
    M = np.zeros((n, n))
    idx = np.arange(n - 1)
    np.add.at(M, (idx, idx + 1), coef_right / h / wq[idx])
    np.add.at(M, (idx, idx), -coef_left / h / wq[idx])
    np.add.at(M, (idx + 1, idx + 1), -coef_right / h / wq[idx + 1])
    np.add.at(M, (idx + 1, idx), coef_left / h / wq[idx + 1])
    return M


def _dense_jump_block(grid, offset_weights):
    n = grid.n
    wq = grid.cell_sizes
    col = np.zeros(n)
    col[1:] = offset_weights[: n - 1]
    K = sla.toeplitz(col)
    np.fill_diagonal(K, 0.0)
    K *= (wq / grid.h)[:, None]
    kill = (wq @ K) / wq
    return K - np.diag(kill)


def _dense_assemble(model, grid):
    """The generator, its conservation defect and diagonal renormalization,
    built with full n x n temporaries for every term."""
    h = grid.h
    if isinstance(model, Classical):
        M = _dense_drift_diffusion_block(grid, 1.0)
    elif isinstance(model, DiscreteClassical):
        _, w = sampled_convolution_weights(model, grid)
        M = _dense_jump_block(grid, w) / model.eps**2 + _dense_drift_diffusion_block(grid, 0.0)
    elif isinstance(model, Fractional):
        c = float(model.constant)
        near = c * (2.0 * h) ** (2.0 - model.alpha) / (2.0 - model.alpha)
        w = _power_cell_weights(grid, model.alpha, c, 2.0 * h)
        M = _dense_jump_block(grid, w) + _dense_drift_diffusion_block(grid, near)
    else:
        w = _truncated_cell_weights(grid, truncated_fractional_kernel(model.alpha, model.eps))
        M = _dense_jump_block(grid, w) + _dense_drift_diffusion_block(grid, 0.0)
    wq = grid.cell_sizes
    adj = (wq @ M) / wq
    rel = float(np.abs(adj).max() / np.abs(np.diag(M)).max())
    M = M - np.diag(adj)
    return M, float(np.abs(wq @ M).max()), rel


FAMILIES = [Classical(), DiscreteClassical(eps=0.4), Fractional(alpha=1.5),
            DiscreteFractional(eps=0.2, alpha=1.0)]


@pytest.mark.parametrize("L,n", [(6.0, 257), (12.0, 1025)])
@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.family)
def test_banded_assembly_matches_dense_construction(model, L, n):
    grid = make_grid(L, n)
    assert grid.h <= 0.4 / 8.0  # resolves DiscreteClassical(eps=0.4)
    op = assemble(model, grid)
    M, defect, rel = _dense_assemble(model, grid)
    assert np.array_equal(op.entries, M)
    assert op.conservation_defect == defect
    assert op.renorm_adjustment == rel


@pytest.mark.parametrize("model,L", [(Fractional(alpha=1.0, constant=1.0), 25.6),
                                     (DiscreteFractional(eps=0.05, alpha=1.0), 12.8)],
                         ids=["fractional", "discrete-fractional"])
def test_five_part_gain_matches_dense_construction(model, L):
    grid = make_grid(L, 1025)
    split = FractionalSplitting(eta=0.1, Lcut=1.0, R=2.0)
    x, h = grid.nodes, grid.h
    w = np.zeros(grid.n)
    w[1:] = _power_cell_weights(grid, model.alpha, 1.0, 0.5 * h)
    dense = sla.toeplitz(w)
    dense *= chi_band(x[:, None] - x[None, :], split.eta, split.Lcut)
    dense *= xi_pair(x[:, None], x[None, :], split.R)
    K = _five_part_bounded(grid, model.alpha, 1.0, split)
    assert np.max(np.abs(K - dense)) <= 1e-13 * np.max(np.abs(dense))
    A, B = assemble_splitting(model, grid, split)
    assert np.array_equal(A.entries, K)
    full = assemble(model, grid).entries
    assert np.max(np.abs(A.entries + B.entries - full)) <= 1e-15 * np.max(np.abs(full))


def _peak_in_doubles(build, n):
    """Peak traced allocation of build(), in units of n^2 doubles."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / (8.0 * n * n)
    finally:
        tracemalloc.stop()


def test_assembly_memory_budget():
    # the result is the only n x n array assemble keeps; the splitting holds
    # A, B and at most one n x n factor while forming A
    n = 1025
    grid = make_grid(12.0, n)
    for model in FAMILIES:
        assert _peak_in_doubles(lambda: assemble(model, grid), n) <= 1.5, model.family
    split = FractionalSplitting(eta=0.1, Lcut=1.0, R=2.0)
    peak = _peak_in_doubles(
        lambda: assemble_splitting(DiscreteFractional(eps=0.05, alpha=1.0), grid, split), n)
    assert peak <= 3.5
    peak = _peak_in_doubles(
        lambda: assemble_splitting(DiscreteClassical(eps=0.4), grid,
                                   ClassicalSplitting(M=10.0, R=6.0)), n)
    assert peak <= 3.5
