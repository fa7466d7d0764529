import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from dense_oracle import dense_evolve, dense_projector, mirror_blocks, xi_pair
from fplab.acceptance import _shared_op
from fplab.grids import Field, WeightSpec, gaussian_density, make_grid, weighted_norm
from fplab.inequalities import (
    adjoint_dissipativity_check,
    dissipativity_check,
    regularization_norm,
)
from fplab.kernels import gaussian_reference_kernel, truncated_fractional_kernel
from fplab.operators import (
    Classical,
    DiscreteClassical,
    DiscreteFractional,
    Fractional,
    OperatorMatrix,
    OperatorParts,
    _THETA_13,
    _BirthDeath,
    _bernoulli,
    _dot,
    _expm,
    _mirror_blocks_of_parts,
    _mirror_symmetric,
    _shifted_solver,
    _power_cell_weights,
    assemble,
    operator_distance,
    sampled_convolution_weights,
)
from fplab.probes import probe_block, probe_family
from fplab.semigroup import (
    EvolveSpec,
    _birth_death_expm,
    decay_rate,
    evolve,
    evolve_block,
    fourier_steady_oracle,
    steady_state,
)
from fplab.spectra import eigen_spectrum, spectral_projector
from fplab.splitting import (
    ClassicalSplitting,
    FractionalSplitting,
    assemble_splitting,
    chi_band,
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
    zero = op.matmat(np.zeros(grid.n))
    assert np.max(np.abs(zero)) == 0.0
    f = gaussian_density(grid).values
    g = np.sin(grid.nodes) * np.exp(-(grid.nodes**2) / 4)
    lhs = op.matmat(2.0 * f + g)
    rhs = 2.0 * op.matmat(f) + op.matmat(g)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("model,grid", MODELS, ids=lambda m: getattr(m, "family", ""))
def test_even_symmetry(model, grid):
    op = assemble(model, grid)
    out = op.matmat(np.exp(-(grid.nodes**2) / 3.0))
    assert np.max(np.abs(out - out[::-1])) <= 1e-11 * max(1.0, np.max(np.abs(out)))


@pytest.mark.parametrize("model,grid", MODELS, ids=lambda m: getattr(m, "family", ""))
def test_jump_offdiagonals_nonnegative(model, grid):
    # the jump gain's Toeplitz column and its row and column factors
    p = assemble(model, grid).parts
    assert np.all(p.cols >= 0.0) and np.all(p.left >= 0.0) and np.all(p.right >= 0.0)


def test_classical_annihilates_gaussian():
    op = assemble(Classical(), GRID)
    out = Field(GRID, op.matmat(gaussian_density(GRID).values))
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
    out = Field(grid, op.matmat(G.values))
    assert weighted_norm(out, WeightSpec(p=1)) <= 5e-3


def test_sampled_convolution_weights_total_mass():
    model = DiscreteClassical(eps=0.4)
    w0, w = sampled_convolution_weights(model, GRID)
    total = w0 + 2.0 * np.sum(w)
    assert abs(total - gaussian_reference_kernel().l1_norm) <= 1e-12


@pytest.mark.parametrize("eps", [0.4, 0.2, 0.1])
def test_gaussian_blocks_hold_no_entry_below_1e150(eps):
    # criterion 4's operators: the sampled column ends where its two tails
    # can no longer change a column sum, so no mirror block holds an entry
    # in (0, 1e-150), whose products in the Pade sums of operators._expm
    # would go subnormal
    op = _shared_op("discrete-classical", eps)
    for B in op.blocks.mats:
        assert not np.any((B > 0.0) & (B < 1e-150))


@pytest.mark.parametrize("eps,alpha,L,n", [(0.05, 1.0, 25.6, 2049), (0.02, 1.0, 10.24, 2049),
                                           (0.2, 1.5, 12.8, 257), (0.1, 0.5, 6.4, 513)])
def test_discrete_fractional_weights_are_the_cell_integrals(eps, alpha, L, n):
    # the weight of offset j is the integral of the kernel's profile over
    # the cell [(j - 1/2) h, (j + 1/2) h]: 16-point Gauss-Legendre on each
    # piece that the plateau edge eps and the support edge 1/eps cut it into
    grid = make_grid(L, n)
    w = assemble(DiscreteFractional(eps=eps, alpha=alpha), grid).parts.cols[0][1:]
    profile = truncated_fractional_kernel(alpha, eps).profile
    lo, hi = ((np.arange(1, n) + s) * grid.h for s in (-0.5, 0.5))
    ends = [lo, np.clip(eps, lo, hi), np.clip(1.0 / eps, lo, hi), hi]
    x, gw = np.polynomial.legendre.leggauss(16)
    quad = sum(0.5 * (b - a) * (profile(0.5 * (b - a)[:, None] * x + 0.5 * (a + b)[:, None]) @ gw)
               for a, b in zip(ends[:-1], ends[1:]))
    inside = lo < 1.0 / eps
    assert np.all(w[~inside] == 0.0)
    assert np.all(np.abs(w[inside] - quad[inside]) <= 1e-12 * quad[inside])


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
    """The generator built with full n x n temporaries for every term and its
    diagonal renormalized so that the weighted column sums vanish."""
    h = grid.h
    if isinstance(model, Classical):
        M = _dense_drift_diffusion_block(grid, 1.0)
    elif isinstance(model, DiscreteClassical):
        _, w = sampled_convolution_weights(model, grid)
        M = _dense_jump_block(grid, w) / model.eps**2 + _dense_drift_diffusion_block(grid, 0.0)
    elif isinstance(model, Fractional):
        c = float(model.constant)
        near = c * (2.0 * h) ** (2.0 - model.alpha) / (2.0 - model.alpha)
        w = _power_cell_weights(grid, model.alpha, c, 2.0 * h, np.inf)
        M = _dense_jump_block(grid, w) + _dense_drift_diffusion_block(grid, near)
    else:
        # the weights themselves are checked against quadrature of the
        # kernel (test_discrete_fractional_weights_are_the_cell_integrals)
        w = assemble(model, grid).parts.cols[0][1:]
        M = _dense_jump_block(grid, w) + _dense_drift_diffusion_block(grid, 0.0)
    wq = grid.cell_sizes
    return M - np.diag((wq @ M) / wq)


FAMILIES = [Classical(), DiscreteClassical(eps=0.4), Fractional(alpha=1.5),
            DiscreteFractional(eps=0.2, alpha=1.0)]


@pytest.mark.parametrize("L,n", [(6.0, 257), (12.0, 1025)])
@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.family)
def test_banded_assembly_matches_dense_construction(model, L, n):
    grid = make_grid(L, n)
    assert grid.h <= 0.4 / 8.0  # resolves DiscreteClassical(eps=0.4)
    op = assemble(model, grid)
    M = _dense_assemble(model, grid)
    scale = np.abs(M).max()
    # one rounding of the largest entry (the diagonal) at most
    assert np.abs(op.entries - M).max() <= np.finfo(float).eps * scale
    # the diagonal of the parts is minus the exact weighted column sums
    assert op.conservation_defect <= 1e-13 * scale
    assert np.abs(grid.cell_sizes @ op.entries).max() <= 1e-13 * scale


@pytest.mark.parametrize("model,L", [(Fractional(alpha=1.0, constant=1.0), 25.6),
                                     (DiscreteFractional(eps=0.05, alpha=1.0), 12.8)],
                         ids=["fractional", "discrete-fractional"])
def test_five_part_gain_matches_dense_construction(model, L):
    grid = make_grid(L, 1025)
    split = FractionalSplitting(eta=0.1, Lcut=1.0, R=2.0)
    x, h = grid.nodes, grid.h
    w = np.zeros(grid.n)
    w[1:] = _power_cell_weights(grid, model.alpha, 1.0, 0.5 * h, np.inf)
    dense = sla.toeplitz(w)
    dense *= chi_band(x[:, None] - x[None, :], split.eta, split.Lcut)
    dense *= xi_pair(x[:, None], x[None, :], split.R)
    A, B = assemble_splitting(model, grid, split)
    assert np.max(np.abs(A.entries - dense)) <= 1e-13 * np.max(np.abs(dense))
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
        assert _peak_in_doubles(lambda: assemble(model, grid).entries, n) <= 1.5, model.family
    split = FractionalSplitting(eta=0.1, Lcut=1.0, R=2.0)
    peak = _peak_in_doubles(
        lambda: [op.entries for op in assemble_splitting(
            DiscreteFractional(eps=0.05, alpha=1.0), grid, split)], n)
    assert peak <= 3.5
    peak = _peak_in_doubles(
        lambda: [op.entries for op in assemble_splitting(
            DiscreteClassical(eps=0.4), grid, ClassicalSplitting(M=10.0, R=6.0))], n)
    assert peak <= 3.5


# ---------------------------------------------------------------------------
# products on the parts against the dense matrix


def _operator_cases():
    """Every family and both parts of every splitting scheme, each resolved
    on all three oracle grids (h <= 0.047)."""
    dc, df = DiscreteClassical(eps=0.4), DiscreteFractional(eps=0.1, alpha=1.0)
    five = FractionalSplitting(eta=0.1, Lcut=1.0, R=2.0)
    mult = ClassicalSplitting(M=10.0, R=2.0)
    cases = [(m.family, lambda g, m=m: assemble(m, g)) for m in
             (Classical(), dc, Fractional(alpha=1.5), df)]
    for label, model, split in (("multiplier-dc", dc, mult),
                                ("multiplier-fractional", Fractional(alpha=1.0), mult),
                                ("five-part", df, five)):
        for part in (0, 1):
            cases.append((f"{label}:{'AB'[part]}",
                          lambda g, m=model, s=split, k=part: assemble_splitting(m, g, s)[k]))
    return cases


@pytest.mark.parametrize("L,n", [(6.0, 257), (12.0, 1025), (25.6, 2049)])
@pytest.mark.parametrize("build", [c[1] for c in _operator_cases()],
                         ids=[c[0] for c in _operator_cases()])
def test_structured_products_match_dense(build, L, n):
    grid = make_grid(L, n)
    op = build(grid)
    F = np.column_stack([f.values for f in probe_family(grid, count=24, seed=5,
                                                        oscillatory=4)])
    for got, M in ((op.matmat(F), op.entries), (op.matmat(F, transpose=True), op.entries.T)):
        scale = (np.abs(M) @ np.abs(F)).max(axis=0)
        assert np.all(np.abs(got - M @ F).max(axis=0) <= 1e-13 * scale)
    v = F[:, 0]
    assert np.abs(op.matmat(v) - op.entries @ v).max() \
        <= 1e-13 * (np.abs(op.entries) @ np.abs(v)).max()


def test_structured_diagonal_conserves_mass():
    grid = make_grid(12.0, 1025)
    for model in FAMILIES:
        op = assemble(model, grid)
        F = np.column_stack([f.values for f in probe_family(grid, count=8, seed=2)])
        rates = grid.cell_sizes @ op.matmat(F)
        assert np.abs(rates).max() <= 1e-12 * np.abs(op.parts.diag).max(), model.family
        dense = np.diag(op.entries)
        assert np.abs(op.parts.diag - dense).max() <= 1e-15 * np.abs(dense).max()


def test_entries_are_formed_once():
    op = assemble(DiscreteFractional(eps=0.2, alpha=1.0), GRID)
    assert "entries" not in vars(op)
    assert op.entries is op.entries
    A, B = assemble_splitting(Classical(), GRID, ClassicalSplitting(M=10.0, R=6.0))
    assert A.entries is A.entries and B.entries is B.entries


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_fingerprint_tells_operators_apart():
    # the benchmark tracer counts repeated calls by the dataclass fields of
    # their arguments, so the parts must tell operators apart; reading them
    # must not form the dense matrix
    fingerprint = _load_tracer()._fingerprint
    g = make_grid(6.0, 257)

    def key(op):
        return fingerprint(((op,), {}))

    a, b = (assemble(DiscreteClassical(eps=0.4), g) for _ in range(2))
    assert key(a) == key(b) != key(assemble(DiscreteClassical(eps=0.5), g))
    assert "entries" not in vars(a)
    a.entries
    assert key(a) == key(b)
    df = DiscreteFractional(eps=0.1, alpha=1.0)
    parts = [assemble_splitting(df, g, FractionalSplitting(eta=0.1, Lcut=1.0, R=r))[0]
             for r in (2.0, 2.5)]
    assert key(parts[0]) != key(parts[1])


# ---------------------------------------------------------------------------
# the probe-side paths allocate no n x n array and never form the dense matrix


@pytest.fixture
def no_dense(monkeypatch):
    def refuse(self):
        raise AssertionError(f"dense entries formed for {self.label}")

    monkeypatch.setattr(OperatorMatrix, "entries", property(refuse))


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_operator_distance_stays_below_one_dense_array(no_dense):
    # criterion 5's call
    g = make_grid(12.0, 1921)

    def run():
        operator_distance(assemble(DiscreteClassical(eps=0.1), g), assemble(Classical(), g),
                          WeightSpec(p=2, q=1, s=3), WeightSpec(p=2, q=1), probes=32,
                          oscillatory=12)

    assert _peak_bytes(run) < 8 * g.n * g.n


def test_dissipativity_check_stays_below_one_dense_array(no_dense):
    # criterion 7's five-part remainder
    g = make_grid(25.6, 2049)

    def run():
        _, B = assemble_splitting(DiscreteFractional(eps=0.05, alpha=1.0), g,
                                  FractionalSplitting(eta=0.5, Lcut=2.0, R=4.0))
        assert dissipativity_check(B, WeightSpec(p=1, q=0.4), a=-0.2).passed

    assert _peak_bytes(run) < 8 * g.n * g.n


def test_adjoint_check_stays_below_one_dense_array(no_dense):
    g = make_grid(25.6, 1025)

    def run():
        _, B = assemble_splitting(DiscreteFractional(eps=0.1, alpha=1.0), g,
                                  FractionalSplitting(eta=0.5, Lcut=2.0, R=4.0))
        assert adjoint_dissipativity_check(B, WeightSpec(p=2, q=0.4), b=-0.1, alpha=1.0)["pass"]

    assert _peak_bytes(run) < 8 * g.n * g.n


def _five_part_B(g):
    """B of criterion 7's five-part splitting: three Toeplitz terms."""
    return assemble_splitting(DiscreteFractional(eps=0.05, alpha=1.0), g,
                              FractionalSplitting(eta=0.5, Lcut=2.0, R=4.0))[1]


def test_toeplitz_products_stay_within_a_column_chunk():
    # the padded transforms span _COLUMN_CHUNK columns, not the block: the
    # 2049 x 64 product adds little beyond its 1 MB result (the transforms
    # of the whole block took 9 MB)
    g = make_grid(25.6, 2049)
    B = _five_part_B(g)
    assert len(B.parts.cols) == 3
    F = probe_block(g, count=64, seed=1)
    for transpose in (False, True):
        assert _peak_bytes(lambda: B.matmat(F, transpose)) <= 2e6


@pytest.mark.parametrize("transpose", [False, True])
def test_chunked_product_is_the_column_by_column_product(transpose):
    # pocketfft transforms every column on its own, so the chunks (20
    # columns: two full chunks and a part) change no bit of any column
    g = make_grid(25.6, 2049)
    B = _five_part_B(g)
    F = probe_block(g, count=40, seed=3)
    for X in (F[:, :20], np.asfortranarray(F[:, :20]), F[:, :20] + 1j * F[:, 20:]):
        block = B.matmat(X, transpose)
        columns = np.column_stack([B.matmat(v, transpose) for v in X.T])
        assert block.dtype == columns.dtype and np.array_equal(block, columns)
        # the product keeps the block's layout, so sums over it do not move
        assert block.flags.f_contiguous == X.flags.f_contiguous


# ---------------------------------------------------------------------------
# the solvers' bands and blocks, formed from the parts


def _structure_cases():
    """``_operator_cases`` plus L_eps - L_0 of criterion 10."""
    eps_0 = (DiscreteFractional(eps=0.1, alpha=1.0), Fractional(alpha=1.0, constant=1.0))
    return _operator_cases() + [
        ("difference", lambda g: OperatorMatrix(
            g, parts=assemble(eps_0[0], g).parts - assemble(eps_0[1], g).parts))]


@pytest.mark.parametrize("L,n", [(6.0, 257), (12.8, 1025)])
@pytest.mark.parametrize("build", [c[1] for c in _structure_cases()],
                         ids=[c[0] for c in _structure_cases()])
def test_mirror_blocks_from_parts_match_folded_dense(build, L, n):
    op = build(make_grid(L, n))
    M = op.entries
    blocks = _mirror_blocks_of_parts(op.parts)
    folded = mirror_blocks(M)
    assert blocks is not None and folded is not None
    for got, want in zip(blocks, folded):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 4.0 * np.finfo(float).eps * np.abs(M).max()
    # the birth-death bands: Classical, and B of its pure multiplier
    # splitting; its blocks are still the folded parts
    if op.bands is not None:
        assert isinstance(op.bands, _BirthDeath) and not len(op.parts.cols)
        assert np.array_equal(op.bands.diag, np.diag(M))
    assert all(np.array_equal(a, b) for a, b in zip(op.blocks.mats, blocks, strict=True))
    # unfold inverts the fold
    blk = op.blocks
    V = np.random.default_rng(0).standard_normal((n, 3))
    assert np.abs(blk.unfold(*blk.fold(V)) - V).max() <= 4.0 * np.finfo(float).eps


def test_mirror_blocks_read_the_toeplitz_and_hankel_quarters_in_place():
    # strided views of the kernel column, one m x m scratch: the two blocks
    # plus about one quarter-size array (sla.toeplitz and sla.hankel
    # copies made it about two)
    op = assemble(DiscreteClassical(eps=0.2), make_grid(12.0, 961))
    m = op.grid.n // 2
    blocks = 8 * ((m + 1) ** 2 + m * m)
    assert _peak_bytes(lambda: _mirror_blocks_of_parts(op.parts)) - blocks <= 1.3 * 8 * m * m


@pytest.mark.parametrize("case", ["exact-expm", "regularization", "steady-state", "whole"])
def test_dense_paths_refuse_a_block_above_the_limit(case):
    # at n = 8195 the even mirror block has order 4098, one above
    # operators._MAX_BLOCK: every dense path is refused before a block
    # (134 MB each) or an exponential (five times that) is formed, and so
    # is an operator without mirror symmetry, whose one block is of order n
    n = 8195
    op = assemble(Fractional(alpha=1.0), make_grid(240.0, n))
    order = n // 2 + 1
    if case == "exact-expm":
        F0 = gaussian_density(op.grid).values[:, None]
        run = lambda: evolve_block(op, F0, EvolveSpec(t_end=1.0, dt=0.5, scheme="ExactExpm"))
    elif case == "regularization":
        A, B = assemble_splitting(Classical(), make_grid(12.0, n), ClassicalSplitting(M=10.0, R=6.0))
        run = lambda: regularization_norm(A, B, n_conv=2, t_grid=[1.0], source=WeightSpec(p=2, q=1),
                                          target=WeightSpec(p=2, q=1, s=1))
    else:
        if case == "whole":
            p = op.parts
            tilted = np.linspace(0.5, 1.5, n) * p.diag
            op = OperatorMatrix(op.grid, OperatorParts(tilted, p.lower, p.upper, p.cols,
                                                       p.left, p.right))
            order = n
        run = lambda: steady_state(op)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"order {order} above 4097: .* = \d+ MB"):
            run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 8 * n


def test_parts_that_are_not_mirror_symmetric_fall_back():
    grid = make_grid(6.0, 257)
    op = assemble(DiscreteFractional(eps=0.2, alpha=1.0), grid)
    p = op.parts
    assert op.bands is None and len(op.blocks.mats) == 2
    skew = p.left.copy()
    skew[0, 0] *= 1.0 + 1e-12
    tilted = np.linspace(0.5, 1.5, grid.n)
    bumped = p.lower.copy()
    bumped[0] *= 1.0 + 1e-12
    for parts in (OperatorParts(p.diag, p.lower, p.upper, p.cols, skew, p.right),
                  OperatorParts(p.diag, p.lower, p.upper, p.cols, p.left, tilted[None, :]),
                  OperatorParts(tilted * p.diag, p.lower, p.upper, p.cols, p.left, p.right),
                  OperatorParts(p.diag, bumped, p.upper, p.cols, p.left, p.right)):
        other = OperatorMatrix(grid, parts=parts)
        assert not _mirror_symmetric(parts)
        assert other.bands is None
        # the dense matrix is the one block, under the identity fold
        assert len(other.blocks.mats) == 1 and other.blocks.mats[0] is other.entries
        assert mirror_blocks(other.entries) is None
        # the dense path answers for it
        assert eigen_spectrum(other).eigenvalues.size == 8
    # no Toeplitz term and a zero band product: neither bands nor a chain
    classical = assemble(Classical(), grid).parts
    empty = np.empty((0, grid.n))
    upwind = OperatorParts(classical.diag, np.zeros(grid.n - 1), classical.upper,
                           empty, empty, empty)
    upwind_op = OperatorMatrix(grid, parts=upwind)
    assert upwind_op.bands is None and len(upwind_op.blocks.mats) == 1

    # every solver on the identity fold matches numpy/scipy on the dense
    # matrix of the skewed parts
    op = OperatorMatrix(grid, parts=OperatorParts(p.diag, p.lower, p.upper, p.cols, skew,
                                                  p.right))
    M = op.entries
    n = grid.n
    wq = grid.cell_sizes
    # the steady state: M g = 0 with row 0 replaced by the mass wq g = 1
    bordered = M.copy()
    bordered[0] = wq
    g = np.linalg.solve(bordered, np.eye(n)[0])
    G = steady_state(op).values
    assert np.abs(G - g).max() <= 1e-12 * np.abs(g).max()
    F0 = np.column_stack([f.values for f in probe_family(grid, count=3, seed=5)])
    for scheme in ("BackwardEuler", "CrankNicolson", "ExactExpm"):
        spec = EvolveSpec(t_end=0.5, dt=0.05, scheme=scheme, record_every=5)
        got = np.array([F for _, F in evolve_block(op, F0, spec)])
        ref = dense_evolve(M, F0, spec)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), scheme
    # the rank-1 Riesz projector onto the zero eigenvalue, r l^T / (l^T r)
    w, vl, vr = sla.eig(M, left=True, right=True)
    i0 = int(np.argmin(np.abs(w)))
    r, l = vr[:, i0].real, vl[:, i0].real
    P = np.outer(r, l) / (l @ r)
    proj = spectral_projector(op, radius=0.5)
    assert proj.rank == 1
    assert np.abs(dense_projector(proj, grid) - P).max() <= 1e-11 * np.abs(P).max()
    # a complex shifted solve and the product with M
    fac = _shifted_solver(op, 0.5j, -1.0)
    S = 0.5j * np.eye(n) - M
    assert np.abs(fac.solve(F0) - np.linalg.solve(S, F0)).max() \
        <= 1e-12 * np.abs(np.linalg.solve(S, F0)).max()
    assert np.abs(fac.matvec(F0) - M @ F0).max() <= 1e-13 * np.abs(M @ F0).max()
    assert 0.1 <= fac.rcond * np.linalg.cond(S, 1) <= 10.0


@pytest.mark.parametrize("model,L", [(Classical(), 12.0), (DiscreteClassical(eps=0.4), 12.0),
                                     (Fractional(alpha=1.5), 60.0),
                                     (DiscreteFractional(eps=0.1, alpha=1.0), 12.8)],
                         ids=lambda v: getattr(v, "family", ""))
def test_refine_pipeline_forms_no_dense_generator(model, L, no_dense):
    # the benchmark's refine point at n = 1025: steady state, spectrum,
    # ExactExpm decay and BackwardEuler steps, all on the structure
    grid = make_grid(L, 1025)
    op = assemble(model, grid)
    tracemalloc.start()
    try:
        G = steady_state(op)
        peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rep = eigen_spectrum(op, k_leading=4)
        eig_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # the mirror blocks are half of one n x n array and their LU factors
    # the other half; a dense generator would add a whole one
    assert peak < 1.5 * 8 * grid.n * grid.n
    # on top of what the steady state left, the eigensolve of a jump
    # generator forms the exponential of one mirror block at a time (operators._expm: five arrays of the even
    # block's order, as in test_eigen_spectrum_memory_is_one_block_exponential);
    # a birth-death chain's is tridiagonal
    if op.bands is None:
        assert eig_peak <= 5.2 * op.blocks.mats[0].nbytes
    else:
        assert eig_peak < 0.1 * 8 * grid.n * grid.n
    assert np.all(G.values[1:-1] > 0.0) and rep.gap < 0.0
    w = WeightSpec(p=1, q=1 if model.family.endswith("classical") else 0)
    dec = decay_rate(op, gaussian_density(grid, 1.0, 1.0), w,
                     EvolveSpec(t_end=4.0, dt=0.05, scheme="ExactExpm"), equilibrium=G)
    assert abs(rep.gap - dec.fitted_rate) <= 0.1
    f0 = gaussian_density(grid, 0.5, 1.0)
    traj = evolve(op, f0, EvolveSpec(t_end=0.5, dt=0.01, scheme="BackwardEuler",
                                     record_every=10))
    wq = grid.cell_sizes
    assert max(abs(wq @ (f.values - f0.values)) for _, f in traj) <= 1e-12
    assert min(float(f.values.min()) for _, f in traj) >= -1e-12
    assert op.conservation_defect <= 1e-13 * np.abs(op.parts.diag).max()


def test_dot_matches_numpy_product():
    # C- and F-ordered A, a vector and an n x k block (C- and F-ordered), and
    # complex X, which _dot takes by its real and imaginary parts
    rng = np.random.default_rng(3)
    n = 257
    A = rng.standard_normal((n, n))
    real = [rng.standard_normal(n), rng.standard_normal((n, 5)),
            np.asfortranarray(rng.standard_normal((n, 5)))]
    blocks = real + [x + 1j * rng.standard_normal(x.shape) for x in real[:2]]
    for M in (A, np.asfortranarray(A)):
        for X in blocks:
            ref = M @ X
            out = _dot(M, X)
            assert out.shape == ref.shape and out.dtype == ref.dtype
            assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)
    # a C-ordered A goes to BLAS transposed, not copied
    X = real[1]
    tracemalloc.start()
    try:
        _dot(A, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * A.nbytes


@pytest.mark.parametrize("model,L", [(DiscreteClassical(eps=0.45), 12.0),
                                     (Fractional(alpha=1.2), 60.0),
                                     (DiscreteFractional(eps=0.15, alpha=1.0), 12.8)],
                         ids=lambda m: getattr(m, "family", ""))
def test_expm_matches_scipy_on_mirror_blocks(model, L):
    # the five-array Pade against scipy's expm on both mirror blocks, as
    # assembled (C order, taken transposed) and as a Fortran copy: unscaled
    # at dt = 0.001 (||dt B||_1 <= theta_13, s = 0), squared s >= 1 times
    # from dt = 0.01 on
    op = assemble(model, make_grid(L, 1025))
    for B in op.blocks.mats:
        assert B.flags.c_contiguous
        for dt, tol in ((0.001, 1e-13), (0.01, 1e-13), (0.05, 1e-13), (0.5, 5e-13)):
            assert (np.linalg.norm(dt * B, 1) > _THETA_13) == (dt >= 0.01)
            ref = sla.expm(dt * B)
            for X in (B, np.asfortranarray(B)) if dt in (0.001, 0.05) else (B,):
                out = _expm(X, dt)
                assert np.linalg.norm(out - ref, 1) <= tol * np.linalg.norm(ref, 1), dt


def test_expm_holds_five_work_arrays():
    # A2, A4, A6 and two work arrays, the result one of them, on an m = 513
    # mirror block whose exponential is squared (s >= 1); the Pade of scipy's
    # expm on the 2^-s-scaled copy peaked at 9.0 B.nbytes
    B = assemble(DiscreteClassical(eps=0.45), make_grid(12.0, 1025)).blocks.mats[0]
    assert B.shape == (513, 513) and np.linalg.norm(0.05 * B, 1) > 2.0 * _THETA_13
    tracemalloc.start()
    try:
        _expm(B, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * B.nbytes


def test_no_exponential_path_calls_scipy_expm(monkeypatch):
    # every exponential is _expm's own Pade, so none is squared on numpy's
    # BLAS: the Duhamel sums of regularization_norm on the classical
    # splitting, ExactExpm on a jump generator and a birth-death chain sent
    # down the block path by the sup-norm guard of evolve_block
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm called")

    monkeypatch.setattr(sla, "expm", refuse)
    grid = make_grid(12.0, 257)
    A, B = assemble_splitting(Classical(), grid, ClassicalSplitting(M=10.0, R=6.0))
    for n_conv in (1, 2):
        rep = regularization_norm(A, B, n_conv=n_conv, t_grid=[1.0, 2.0, 4.0],
                                  source=WeightSpec(p=2, q=1),
                                  target=WeightSpec(p=2, q=1, s=1), probes=8)
        assert all(np.isfinite(row["norm"]) and row["norm"] > 0.0 for row in rep["rows"])
    spec = EvolveSpec(t_end=0.2, dt=0.05, scheme="ExactExpm")
    jump = assemble(DiscreteFractional(eps=0.2, alpha=1.0), make_grid(12.8, 257))
    assert jump.bands is None
    assert all(np.all(np.isfinite(f.values))
               for _, f in evolve(jump, gaussian_density(jump.grid, 1.0), spec))
    classical = assemble(Classical(), grid)
    flat = np.ones((grid.n, 1))
    assert _birth_death_expm(classical.bands, classical, flat, np.array([0.05])) is None
    assert all(np.all(np.isfinite(F)) for _, F in evolve_block(classical, flat, spec))
