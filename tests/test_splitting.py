import numpy as np
import pytest

from dense_oracle import mirror_blocks, xi_pair
from fplab.grids import Field, WeightSpec, make_grid, weighted_norm
from fplab.operators import (
    Classical,
    DiscreteClassical,
    DiscreteFractional,
    Fractional,
    assemble,
)
from fplab.probes import probe_family
from fplab.splitting import (
    ClassicalSplitting,
    FractionalSplitting,
    assemble_splitting,
    chi,
    chi_band,
    chi_gradient_bound,
    chi_scaled,
    smoothstep,
)


GRID = make_grid(12.0, 513)


def test_cutoff_plateaus_and_smoothness():
    x = np.linspace(-5, 5, 10001)
    c = chi(x)
    assert np.all(c[np.abs(x) <= 1.0] == 1.0)
    assert np.all(c[np.abs(x) >= 2.0] == 0.0)
    assert np.all((c >= 0) & (c <= 1))
    # C^1: the numerical derivative of the quintic transition is continuous
    d = np.gradient(c, x)
    assert np.max(np.abs(np.diff(d))) <= 1e-2


def test_chi_gradient_bound_is_sharp():
    x = np.linspace(0.0, 10.0, 2_000_001)
    for R in (1.0, 4.0):
        d = np.gradient(chi_scaled(x, R), x)
        assert np.max(np.abs(d)) <= chi_gradient_bound(R) + 1e-6
        assert np.max(np.abs(d)) >= chi_gradient_bound(R) - 1e-3


def test_smoothstep_endpoints():
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(0.5) == 0.5


def test_band_support():
    z = np.linspace(-6, 6, 1001)
    b = chi_band(z, 0.5, 2.0)
    assert np.all(b[np.abs(z) <= 0.5] == 0.0)
    assert np.all(b[np.abs(z) >= 4.0] == 0.0)
    assert np.all(b[(np.abs(z) >= 1.0) & (np.abs(z) <= 2.0)] == 1.0)


def test_xi_pair_vanishing_region():
    x = np.array([[5.0]])
    y = np.array([[6.0]])
    assert xi_pair(x, y, 2.0) == 0.0  # both beyond 2R
    assert xi_pair(np.array([[0.0]]), y, 2.0) == 1.0  # one inside R


@pytest.mark.parametrize(
    "model,split",
    [
        (Classical(), ClassicalSplitting(M=10.0, R=4.0)),
        (DiscreteClassical(eps=0.4), ClassicalSplitting(M=10.0, R=4.0)),
        (Fractional(alpha=1.0, constant=1.0),
         FractionalSplitting(eta=0.5, Lcut=2.0, R=2.0)),
        (DiscreteFractional(eps=0.2, alpha=1.0),
         FractionalSplitting(eta=0.5, Lcut=2.0, R=2.0)),
    ],
)
def test_splitting_identity(model, split):
    A, B = assemble_splitting(model, GRID, split)
    full = assemble(model, GRID)
    gap = np.max(np.abs(A.entries + B.entries - full.entries))
    assert gap <= 1e-12 * max(1.0, np.max(np.abs(full.entries)))


def test_degenerate_splitting_m_zero():
    A, B = assemble_splitting(Classical(), GRID, ClassicalSplitting(M=0.0, R=1.0))
    assert np.max(np.abs(A.entries)) == 0.0


def test_multiplier_splitting_local_model_is_diagonal():
    A, _ = assemble_splitting(Classical(), GRID, ClassicalSplitting(M=5.0, R=4.0))
    assert np.max(np.abs(A.entries - np.diag(np.diag(A.entries)))) == 0.0
    target = 5.0 * np.asarray(chi_scaled(GRID.nodes, 4.0))
    assert np.allclose(np.diag(A.entries), target, atol=1e-14)


def test_multiplier_splitting_rows_vanish_beyond_2r():
    A, _ = assemble_splitting(DiscreteClassical(eps=0.4), GRID,
                              ClassicalSplitting(M=10.0, R=4.0))
    far = np.abs(GRID.nodes) > 8.0
    assert np.max(np.abs(A.entries[far])) == 0.0


def test_band_splitting_support_pattern():
    split = FractionalSplitting(eta=0.1, Lcut=1.0, R=2.0)
    A, _ = assemble_splitting(Fractional(alpha=1.0, constant=1.0),
                              make_grid(12.8, 1025), split)
    g = A.grid
    X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    Z = np.abs(X - Y)
    assert np.max(np.abs(A.entries[Z < 0.1])) == 0.0
    assert np.max(np.abs(A.entries[Z > 2.0])) == 0.0
    both_far = (np.abs(X) >= 4.0) & (np.abs(Y) >= 4.0)
    assert np.max(np.abs(A.entries[both_far])) == 0.0


def test_five_part_splitting_is_centrosymmetric_at_criterion_10_size():
    # on exactly antisymmetric nodes the localized bounded part is exactly
    # centrosymmetric, so the certificate runs on mirror blocks
    grid = make_grid(12.8, 1025)
    A, B = assemble_splitting(DiscreteFractional(eps=0.05, alpha=1.0), grid,
                              FractionalSplitting(eta=0.1, Lcut=1.0, R=2.0))
    assert np.array_equal(A.entries, A.entries[::-1, ::-1])
    assert mirror_blocks(A.entries) is not None
    assert mirror_blocks(B.entries) is not None


def test_band_splitting_eps_independent():
    split = FractionalSplitting(eta=0.5, Lcut=2.0, R=2.0)
    A1, _ = assemble_splitting(DiscreteFractional(eps=0.2, alpha=1.0), GRID, split)
    A2, _ = assemble_splitting(DiscreteFractional(eps=0.1, alpha=1.0), GRID, split)
    assert np.array_equal(A1.entries, A2.entries)


def test_bounded_part_norm_uniform_in_eps():
    split = ClassicalSplitting(M=10.0, R=4.0)
    w = WeightSpec(p=2, q=1)
    grid = make_grid(12.0, 1921)  # h = 0.0125 resolves eps down to 0.1
    norms = []
    for eps in (0.4, 0.2, 0.1):
        A, _ = assemble_splitting(DiscreteClassical(eps=eps), grid, split)
        best = 0.0
        # measure A as an operator on the single weighted space L^2(<x>):
        # source and target norms must match for the multiplier bound M to apply
        for f in probe_family(grid, count=16, seed=1):
            num = weighted_norm(Field(grid, A.entries @ f.values), w)
            den = weighted_norm(f, w)
            best = max(best, num / den)
        norms.append(best)
    assert max(norms) <= split.M
    assert max(norms) - min(norms) <= 0.1 * max(norms)


def test_scheme_family_mismatch():
    with pytest.raises(ValueError):
        assemble_splitting(DiscreteFractional(eps=0.2, alpha=1.0), GRID,
                           ClassicalSplitting(M=1.0, R=1.0))
    with pytest.raises(ValueError):
        assemble_splitting(Classical(), GRID,
                           FractionalSplitting(eta=0.5, Lcut=2.0, R=2.0))


def test_band_splitting_validation():
    with pytest.raises(ValueError):
        FractionalSplitting(eta=2.0, Lcut=1.0, R=1.0)
    # eta below the model truncation breaks eps-independence
    with pytest.raises(ValueError):
        assemble_splitting(DiscreteFractional(eps=0.6, alpha=1.0),
                           make_grid(12.0, 513),
                           FractionalSplitting(eta=0.5, Lcut=1.0, R=1.0))
    # band too thin for the grid
    with pytest.raises(ValueError):
        assemble_splitting(Fractional(alpha=1.0, constant=1.0),
                           make_grid(12.0, 65),
                           FractionalSplitting(eta=0.2, Lcut=2.0, R=1.0))
