import numpy as np
import pytest

from fplab.grids import Field, WeightSpec, gaussian_density, make_grid, mass, weighted_norm
from fplab.operators import Classical, DiscreteClassical, Fractional, assemble
from fplab.semigroup import (
    EvolveSpec,
    decay_rate,
    default_dt,
    evolve,
    fourier_steady_oracle,
    steady_state,
    uniform_decay_sweep,
)


GRID = make_grid(12.0, 513)
OP_CLASSICAL = assemble(Classical(), GRID)


def test_evolve_zero_time_returns_input():
    f0 = gaussian_density(GRID, 2.0)
    out = evolve(OP_CLASSICAL, f0, EvolveSpec(t_end=0.0, dt=0.1))
    assert len(out) == 1
    assert out[0][1] is f0


def test_evolve_spec_validation():
    with pytest.raises(ValueError):
        EvolveSpec(t_end=1.0, dt=0.0)
    with pytest.raises(ValueError):
        EvolveSpec(t_end=1.0, dt=0.1, scheme="ForwardEuler")


def test_default_dt_stiffness():
    assert default_dt(DiscreteClassical(eps=0.05)) == pytest.approx(0.00125)
    assert default_dt(Classical()) == 0.01


def test_gaussian_variance_relaxation_oracle():
    # a centered Gaussian start relaxes with variance 1 + (v0 - 1) e^{-2t}
    f0 = gaussian_density(GRID, 0.25)
    traj = evolve(OP_CLASSICAL, f0, EvolveSpec(t_end=5.0, dt=0.05, scheme="ExactExpm",
                                               record_every=100))
    t, f5 = traj[-1]
    target = gaussian_density(GRID, 1.0 + (0.25 - 1.0) * np.exp(-2.0 * t))
    err = weighted_norm(f5 - target, WeightSpec(p=1))
    assert err <= 2e-2 * np.exp(-5.0) + 1e-6


def test_schemes_agree():
    f0 = gaussian_density(GRID, 2.0)
    outs = {}
    for scheme in ("BackwardEuler", "CrankNicolson", "ExactExpm"):
        outs[scheme] = evolve(OP_CLASSICAL, f0,
                              EvolveSpec(t_end=1.0, dt=0.002, scheme=scheme,
                                         record_every=500))[-1][1].values
    assert np.max(np.abs(outs["BackwardEuler"] - outs["ExactExpm"])) <= 5e-3
    assert np.max(np.abs(outs["CrankNicolson"] - outs["ExactExpm"])) <= 1e-4


def test_semigroup_property():
    f0 = gaussian_density(GRID, 2.0)
    spec = EvolveSpec(t_end=1.0, dt=0.05, scheme="ExactExpm")
    one = evolve(OP_CLASSICAL, f0, spec)[-1][1]
    two = evolve(OP_CLASSICAL, one, spec)[-1][1]
    direct = evolve(OP_CLASSICAL, f0, EvolveSpec(t_end=2.0, dt=0.05,
                                                 scheme="ExactExpm"))[-1][1]
    assert np.max(np.abs(two.values - direct.values)) <= 1e-10


def test_mass_invariance_along_trajectory():
    f0 = gaussian_density(GRID, 2.0)
    for t, f in evolve(OP_CLASSICAL, f0, EvolveSpec(t_end=2.0, dt=0.05,
                                                    scheme="ExactExpm")):
        assert abs(mass(f) - mass(f0)) <= 1e-12


def test_steady_state_classical_matches_gaussian():
    G = steady_state(OP_CLASSICAL)
    err = weighted_norm(G - gaussian_density(GRID), WeightSpec(p=1))
    assert err <= 1e-6
    assert np.all(G.values[1:-1] > 0.0)


def test_steady_state_heavy_tail_power():
    grid = make_grid(60.0, 2049)
    model = Fractional(alpha=1.0)
    x = grid.nodes
    # the matrix steady state shows the <x>^{-1-alpha} tail away from the
    # truncation boundary (the censored jump assembly steepens the last decade)
    G = steady_state(assemble(model, grid))
    sel = (x >= 10.0) & (x <= 30.0)
    ratio = G.values[sel] * (1.0 + x[sel] ** 2)  # <x>^{1+alpha} at alpha = 1
    assert ratio.max() / ratio.min() <= 2.0
    # the boundary-free spectral oracle is flat to a tenth of a percent
    O = fourier_steady_oracle(model, grid)
    sel = (x >= 10.0) & (x <= 40.0)
    oratio = O.values[sel] * (1.0 + x[sel] ** 2)
    assert oratio.max() / oratio.min() <= 1.01


def test_steady_state_matches_fourier_oracle_smooth_jumps():
    grid = make_grid(12.0, 961)
    model = DiscreteClassical(eps=0.2)
    op = assemble(model, grid)
    G = steady_state(op)
    O = fourier_steady_oracle(model, grid)
    # honest measured agreement at this kernel scale and resolution: the
    # monotone drift flux contributes an O(h) floor (~8e-3 here)
    assert weighted_norm(G - O, WeightSpec(p=1)) <= 2e-2


def test_decay_from_equilibrium_is_skipped():
    G = steady_state(OP_CLASSICAL)
    rep = decay_rate(OP_CLASSICAL, G, WeightSpec(p=1, q=1),
                     EvolveSpec(t_end=2.0, dt=0.05, scheme="ExactExpm"),
                     equilibrium=G)
    assert rep.skipped


def test_decay_rate_odd_initial_fractional():
    grid = make_grid(25.0, 1025)
    op = assemble(Fractional(alpha=1.5), grid)
    v = grid.nodes * np.exp(-(grid.nodes**2) / 2.0)
    rep = decay_rate(op, Field(grid, v), WeightSpec(p=1, q=0),
                     EvolveSpec(t_end=4.0, dt=0.05, scheme="ExactExpm"))
    assert abs(rep.fitted_rate + 1.0) <= 0.1


def test_decay_rate_classical():
    rep = decay_rate(OP_CLASSICAL, gaussian_density(GRID, 1.0, 1.0),
                     WeightSpec(p=1, q=1),
                     EvolveSpec(t_end=4.0, dt=0.05, scheme="ExactExpm"))
    assert abs(rep.fitted_rate + 1.0) <= 0.05
    assert rep.clean
    # eventually decreasing norms
    tail = rep.norms[len(rep.norms) // 2:]
    assert np.all(np.diff(tail) <= 1e-14)


def test_uniform_decay_sweep_fractional_orders():
    grid = make_grid(25.0, 1025)
    rep = uniform_decay_sweep(
        lambda a: assemble(Fractional(alpha=a), grid),
        [0.6, 1.0, 1.4, 1.8],
        lambda g: Field(g, g.nodes * np.exp(-(g.nodes**2) / 2.0)),
        WeightSpec(p=1, q=0),
        EvolveSpec(t_end=4.0, dt=0.05, scheme="ExactExpm"),
        a_target=-0.8,
    )
    assert rep["pass"], rep


def test_uniform_decay_sweep_empty_params():
    rep = uniform_decay_sweep(lambda p: OP_CLASSICAL, [],
                              lambda g: gaussian_density(g),
                              WeightSpec(p=1), EvolveSpec(t_end=1.0, dt=0.1))
    assert rep["pass"]
    assert rep["warning"]


def test_uniform_decay_sweep_continues_after_error():
    def build(p):
        if p < 0:
            raise ValueError("bad parameter")
        return OP_CLASSICAL

    rep = uniform_decay_sweep(build, [-1.0, 0.0],
                              lambda g: gaussian_density(g, 1.0, 1.0),
                              WeightSpec(p=1, q=1),
                              EvolveSpec(t_end=2.0, dt=0.05, scheme="ExactExpm"),
                              a_target=-0.8)
    assert rep["rows"][0]["error"] == {"type": "ValueError", "message": "bad parameter"}
    assert rep["rows"][1]["error"] is None
