import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import cumulative_trapezoid

from dense_oracle import dense_evolve, mirror_blocks
from fplab import semigroup
from fplab.grids import Field, WeightSpec, gaussian_density, make_grid, mass, weighted_norm
from fplab.kernels import gaussian_reference_kernel, khat
from fplab.probes import probe_family
from fplab.operators import (
    Classical,
    DiscreteClassical,
    DiscreteFractional,
    Fractional,
    OperatorMatrix,
    OperatorParts,
    _BirthDeath,
    _mirror_fold,
    assemble,
)
from fplab.semigroup import (
    EvolveSpec,
    _birth_death_expm,
    _cosine_sum,
    _cumulative_trapezoid,
    decay_rate,
    evolve,
    evolve_block,
    fit_log_decay,
    fourier_steady_oracle,
    steady_state,
    uniform_decay_sweep,
)
from fplab.spectra import spectral_projector


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
    # t_end must be a whole number of steps: these would stop at 0.9, step
    # past the end to 0.05, and take no step at all
    for t_end, dt in [(1.0, 0.3), (0.04, 0.05), (0.01, 0.05)]:
        with pytest.raises(ValueError, match="whole number of steps"):
            EvolveSpec(t_end=t_end, dt=dt)
    for t_end, dt in [(0.0, 0.1), (150.0, 0.1), (0.5, 0.01)]:
        assert EvolveSpec(t_end=t_end, dt=dt).t_end == t_end


@pytest.mark.parametrize("n", [513, 1025])
def test_birth_death_paths_match_dense(n):
    grid = make_grid(12.0, n)
    op = assemble(Classical(), grid)
    # the decay datum of decay_rate: Gaussian(1, 1) minus its mass times G
    f0 = gaussian_density(grid, 1.0, 1.0)
    g0 = Field(grid, f0.values - mass(f0) * steady_state(op).values)
    spec = EvolveSpec(t_end=4.0, dt=0.05, scheme="ExactExpm")
    traj = evolve(op, g0, spec)
    times = np.array([t for t, _ in traj])
    ref = dense_evolve(op.entries, g0.values, spec)
    w = WeightSpec(p=1, q=1)
    norms = np.array([weighted_norm(f, w) for _, f in traj])
    ref_norms = np.array([weighted_norm(Field(grid, v), w) for v in ref])
    assert np.max(np.abs(norms - ref_norms) / ref_norms) <= 1e-10
    rate, ref_rate = fit_log_decay(times, norms)[0], fit_log_decay(times, ref_norms)[0]
    assert abs(rate - ref_rate) <= 1e-12 * abs(ref_rate)
    assert max(abs(mass(f) - mass(g0)) for _, f in traj) <= 1e-12
    f1 = gaussian_density(grid, 0.5, 1.0)
    for scheme in ("BackwardEuler", "CrankNicolson"):
        spec = EvolveSpec(t_end=0.5, dt=0.01, scheme=scheme, record_every=10)
        new = np.array([f.values for _, f in evolve(op, f1, spec)])
        ref = dense_evolve(op.entries, f1.values, spec)
        assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_exact_expm_guard_keeps_dense_path_for_flat_datum():
    # d ~ G^(-1/2) spans e^72 at L = 12: for a flat datum the symmetrized
    # exponential would lose ~1e-2 in the sup norm, so the guard refuses it
    # and the chain is stepped with the expm of its folded parts
    spec = EvolveSpec(t_end=0.5, dt=0.05, scheme="ExactExpm", record_every=2)
    for n in (257, 1025):
        grid = make_grid(12.0, n)
        op = assemble(Classical(), grid)
        f0 = Field(grid, np.ones(grid.n))
        assert _birth_death_expm(op.bands, op, f0.values[:, None], np.array([0.05])) is None
        out = np.array([f.values for _, f in evolve(op, f0, spec)])
        ref = dense_evolve(op.entries, f0.values, spec)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref)), n


def test_exact_expm_block_decomposes_the_chain_once(monkeypatch):
    # an n x k ExactExpm block on a birth-death chain makes one tridiagonal
    # eigendecomposition and one conservation check, and each of its
    # columns comes out bit for bit as that column evolved alone
    grid = make_grid(12.0, 257)
    op = assemble(Classical(), grid)
    F0 = np.stack([gaussian_density(grid, v, c).values
                   for v, c in ((1.0, 0.0), (0.5, 1.0), (1.5, -1.0), (0.3, 2.0), (1.0, 0.5))],
                  axis=1)
    spec = EvolveSpec(t_end=1.0, dt=0.05, scheme="ExactExpm", record_every=4)
    alone = [evolve(op, Field(grid, f), spec) for f in F0.T]
    calls = []
    eigh = sla.eigh_tridiagonal
    defect = OperatorMatrix.conservation_defect

    def counted(*args, **kwargs):
        calls.append("eigh_tridiagonal")
        return eigh(*args, **kwargs)

    def counted_defect(self):
        calls.append("conservation_defect")
        return defect.fget(self)

    monkeypatch.setattr(sla, "eigh_tridiagonal", counted)
    monkeypatch.setattr(OperatorMatrix, "conservation_defect", property(counted_defect))
    block = evolve_block(op, F0, spec)
    assert sorted(calls) == ["conservation_defect", "eigh_tridiagonal"]
    assert [t for t, _ in block] == [t for t, _ in alone[0]]
    for j, (_, F) in enumerate(block):
        for col, traj in zip(F.T, alone):
            np.testing.assert_array_equal(col, traj[j][1].values)


def test_birth_death_expm_matches_dense_exponential():
    # the MRRR eigenvectors (?stemr) of the symmetrized Classical chain give
    # the states of the dense exponential of M
    grid = make_grid(12.0, 257)
    op = assemble(Classical(), grid)
    f0 = gaussian_density(grid, 0.5, 1.0).values
    times = np.array([0.05, 0.5, 1.0, 2.0])
    states = _birth_death_expm(op.bands, op, f0[:, None], times)[:, :, 0]
    for j, t in enumerate(times):
        ref = sla.expm(t * op.entries) @ f0
        assert np.max(np.abs(states[:, j] - ref)) <= 1e-12 * np.max(np.abs(ref)), t


def test_birth_death_expm_holds_q_and_o_nk():
    # ?stemr needs O(n) workspace, so one column at n = 1025 peaks at Q plus
    # O(n k) for its 80 recorded times; ?stevd's n^2 workspace made it 2.0 n^2
    grid = make_grid(12.0, 1025)
    op = assemble(Classical(), grid)
    bd, n = op.bands, grid.n
    f0 = gaussian_density(grid, 1.0).values[:, None]
    times = 0.05 * np.arange(1, 81)
    tracemalloc.start()
    try:
        assert _birth_death_expm(bd, op, f0, times) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 8.0 * n * n


def test_non_finite_state_reports_its_step(force_dense):
    # Classical + 5 I is still a birth-death chain and DiscreteClassical + 5 I
    # is centrosymmetric (stepped on its two half-size blocks); their states
    # grow like e^(5 t) until they overflow
    ops = []
    for model, grid in ((Classical(), make_grid(12.0, 129)),
                        (DiscreteClassical(eps=0.4), make_grid(3.2, 129))):
        parts = assemble(model, grid).parts
        ops.append(OperatorMatrix(grid, replace(parts, diag=parts.diag + 5.0)))
    assert isinstance(ops[0].bands, _BirthDeath)
    assert ops[1].bands is None and len(ops[1].blocks.mats) == 2

    def failing_step(op, scheme):
        f0 = gaussian_density(op.grid, 0.5)
        with pytest.raises(FloatingPointError, match=r"^non-finite state at step \d+$") as err:
            evolve(op, f0, EvolveSpec(t_end=150.0, dt=0.1, scheme=scheme))
        return int(str(err.value).rsplit(" ", 1)[1])

    schemes = ("ExactExpm", "BackwardEuler", "CrankNicolson")
    with np.errstate(over="ignore", invalid="ignore"):
        steps = [{s: failing_step(op, s) for s in schemes} for op in ops]
        force_dense()
        dense = [{s: failing_step(op, s) for s in schemes} for op in ops]
    for fast, ref in zip(steps, dense):
        # growth factors 2 (BE) and 5/3 (CN) per step: the tridiagonal and
        # the half-size LU overflow at the same step as the dense LU (1024
        # and 1390 for Classical, 1025 and 1391 for DiscreteClassical)
        assert fast["BackwardEuler"] == ref["BackwardEuler"]
        assert fast["CrankNicolson"] == ref["CrankNicolson"]
        # e^(0.5 k) passes 1.8e308 near k = 1420 on either path
        assert abs(fast["ExactExpm"] - ref["ExactExpm"]) <= 5


def test_evolve_block_matches_column_by_column():
    # one factorization (or exponential) for the whole block: the bands of
    # Classical and the mirror blocks of a jump generator
    for op in (OP_CLASSICAL, assemble(DiscreteClassical(eps=0.4), make_grid(3.2, 129))):
        F0 = np.abs(np.column_stack([f.values for f in probe_family(op.grid, count=5, seed=9)]))
        for scheme in ("BackwardEuler", "CrankNicolson", "ExactExpm"):
            spec = EvolveSpec(t_end=0.5, dt=0.05, scheme=scheme, record_every=5)
            block = evolve_block(op, F0, spec)
            for j in range(F0.shape[1]):
                cols = evolve(op, Field(op.grid, F0[:, j]), spec)
                assert [t for t, _ in cols] == [t for t, _ in block]
                err = max(np.max(np.abs(f.values - F[:, j])) for (_, f), (_, F) in zip(cols, block))
                # the sup-norm guard refuses some of these probes on the
                # Classical generator, which sends the whole block down the
                # expm of the folded parts; the symmetrized exponential
                # agrees with it to ~3e-12
                same_path = not (scheme == "ExactExpm" and op is OP_CLASSICAL)
                assert err <= (1e-14 if same_path else 1e-11) * np.max(F0), scheme


MIRROR_OPS = {
    "discrete-fractional": assemble(DiscreteFractional(eps=0.2, alpha=1.0), make_grid(12.8, 257)),
    "fractional": assemble(Fractional(alpha=1.5), make_grid(25.0, 257)),
}


@pytest.mark.parametrize("scheme", ["BackwardEuler", "CrankNicolson", "ExactExpm"])
@pytest.mark.parametrize("case", sorted(MIRROR_OPS))
def test_mirror_halves_match_dense_trajectory(case, scheme):
    # the block is folded once, each half runs to t_end and the recorded
    # halves are unfolded: the trajectory of the dense expm or LU of M
    op = MIRROR_OPS[case]
    assert op.bands is None and len(op.blocks.mats) == 2
    F0 = np.column_stack([f.values for f in probe_family(op.grid, count=4, seed=3)])
    spec = EvolveSpec(t_end=1.0, dt=0.05, scheme=scheme, record_every=4)
    traj = evolve_block(op, F0, spec)
    ref = dense_evolve(op.entries, F0, spec)
    assert [t for t, _ in traj] == [0.0] + [k * spec.dt for k in (4, 8, 12, 16, 20)]
    new = np.array([F for _, F in traj])
    assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("scheme, module, routine", [("ExactExpm", semigroup, "_expm"),
                                                     ("BackwardEuler", sla, "lu_factor"),
                                                     ("CrankNicolson", sla, "lu_factor")],
                         ids=["ExactExpm-expm", "BackwardEuler-lu_factor",
                              "CrankNicolson-lu_factor"])
def test_mirror_halves_hold_one_block_operator_at_a_time(monkeypatch, scheme, module, routine):
    # the odd block's expm (or LU) starts after the even block's is freed:
    # besides the matrix it is handed, traced memory at the odd call exceeds
    # that at the even call by less than half an (n/2)^2 array, where
    # holding the even exponential or factors would add a whole one
    op = MIRROR_OPS["discrete-fractional"]
    n = op.grid.n
    op.blocks  # the blocks exist before tracing starts
    held = []
    original = getattr(module, routine)

    def traced(A, *args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0] - A.nbytes)
        return original(A, *args, **kwargs)

    monkeypatch.setattr(module, routine, traced)
    F0 = gaussian_density(op.grid, 1.0, 1.0).values[:, None]
    tracemalloc.start()
    try:
        evolve_block(op, F0, EvolveSpec(t_end=0.2, dt=0.05, scheme=scheme))
    finally:
        tracemalloc.stop()
    assert len(held) == 2
    assert held[1] - held[0] < 0.5 * 8.0 * (n / 2) ** 2


def test_odd_half_overflowing_first_reports_its_step():
    # DiscreteClassical + 5 I: its even block grows like e^(5 t) and its odd
    # block like e^(4 t).  With an even part of 1e-150 the odd half
    # overflows first, although the even half is stepped (and overflows)
    # first; the step reported is the odd half's, that of the dense odd
    # block stepped alone.  The dense path on the whole M is no reference
    # here: its roundoff seeds the faster even mode (backward Euler
    # overflowed at step 1075 there, against 1404 for the odd half)
    grid = make_grid(3.2, 129)
    parts = assemble(DiscreteClassical(eps=0.4), grid).parts
    op = OperatorMatrix(grid, replace(parts, diag=parts.diag + 5.0))
    assert op.bands is None and len(op.blocks.mats) == 2
    g = np.exp(-grid.nodes**2)
    odd, even = grid.nodes * g, 1e-150 * g
    odd_block = mirror_blocks(op.entries)[1]

    def failing_step(v, spec):
        with pytest.raises(FloatingPointError, match=r"^non-finite state at step \d+$") as err:
            evolve(op, Field(grid, v), spec)
        return int(str(err.value).rsplit(" ", 1)[1])

    with np.errstate(over="ignore", invalid="ignore"):
        for scheme in ("ExactExpm", "BackwardEuler", "CrankNicolson"):
            spec = EvolveSpec(t_end=250.0, dt=0.1, scheme=scheme)
            step = failing_step(odd + even, spec)
            assert step == failing_step(odd, spec) < failing_step(even, spec), scheme
            ref = dense_evolve(odd_block, _mirror_fold(odd)[1], spec)
            ref_step = int(np.flatnonzero(~np.all(np.isfinite(ref), axis=1))[0])
            # e^(0.4 k) passes 1.8e308 near k = 1775 on either path
            assert abs(step - ref_step) <= (5 if scheme == "ExactExpm" else 0), scheme


STEADY_CASES = {
    "classical": (Classical(), make_grid(12.0, 513)),
    "discrete-classical": (DiscreteClassical(eps=0.4), make_grid(12.0, 481)),
    "fractional": (Fractional(alpha=1.5), make_grid(25.0, 513)),
    "discrete-fractional": (DiscreteFractional(eps=0.2, alpha=1.0), make_grid(12.8, 513)),
}


@pytest.mark.parametrize("case", sorted(STEADY_CASES))
def test_steady_state_on_structure_matches_dense(case, force_dense):
    model, grid = STEADY_CASES[case]
    op = assemble(model, grid)
    # Classical is solved on its three bands, the jump families on their
    # two half-size mirror blocks
    assert isinstance(op.bands, _BirthDeath) == (case == "classical")
    assert mirror_blocks(op.entries) is not None
    G = steady_state(op).values
    force_dense()
    ref = steady_state(op).values
    assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(ref)


def test_steady_state_reducible_mirror_pair_raises(force_dense):
    # two closed classes, mirror images of each other, fed by a transient
    # centre node: one even and one odd null vector
    n = 9
    M = np.zeros((n, n))
    for i in range(3):
        M[i + 1, i], M[i, i + 1] = 1.0, 2.0
    M[3, 4] = 1.0
    M = M + M[::-1, ::-1]
    M -= np.diag(M.sum(axis=0))
    empty = np.empty((0, n))
    op = OperatorMatrix(make_grid(4.0, n), OperatorParts(np.diag(M).copy(), np.diag(M, -1).copy(),
                                                         np.diag(M, 1).copy(), empty, empty, empty))
    assert np.array_equal(op.entries, M)
    assert op.bands is None and len(op.blocks.mats) == 2
    assert mirror_blocks(M) is not None
    with pytest.raises(ArithmeticError, match="rank"):
        steady_state(op)
    # the two null vectors lie inside any small contour, beyond the rank-1
    # closed form of the projector
    with pytest.raises(ValueError, match="encloses 2 eigenvalues"):
        spectral_projector(op, radius=0.5)
    force_dense()
    with pytest.raises(ArithmeticError, match="rank"):
        steady_state(op)
    with pytest.raises(ValueError, match="encloses 2 eigenvalues"):
        spectral_projector(op, radius=0.5)


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


def test_cosine_sum_matches_direct_sum():
    z = np.linspace(0.2, 5.0, 1501)
    a = z ** -2.0 * (z[1] - z[0])
    for s in (np.linspace(1e-12, 40.0, 2001), np.linspace(0.5, 63.0, 1200)):
        direct = np.concatenate([(np.cos(np.outer(blk, z)) - 1.0) @ a
                                 for blk in np.array_split(s, 8)])
        fast = _cosine_sum(s, z, a)
        assert np.max(np.abs(fast - direct)) <= 1e-10 * np.max(np.abs(direct))


def test_cumulative_trapezoid_is_scipys_bit_for_bit():
    # the DiscreteClassical oracle's integrand at the largest frequency of a
    # 257-node grid, as fourier_steady_oracle forms it
    model, grid = DiscreteClassical(eps=0.2), make_grid(12.0, 257)
    s = np.linspace(1e-12, np.pi / grid.h + 1.0, 200001)
    k = gaussian_reference_kernel()
    kh = np.asarray(khat(k, model.eps * s), dtype=float)
    integrand = (kh - k.l1_norm) / (model.eps**2 * s)
    assert np.array_equal(_cumulative_trapezoid(integrand, s),
                          cumulative_trapezoid(integrand, s, initial=0.0))


def test_discrete_fractional_oracle_matches_steady_state():
    grid = make_grid(12.8, 513)
    model = DiscreteFractional(eps=0.2, alpha=1.0)
    G = steady_state(assemble(model, grid))
    O = fourier_steady_oracle(model, grid)
    # measured 8.0e-3: the matrix discretization's error at this resolution
    assert weighted_norm(G - O, WeightSpec(p=1)) <= 2e-2


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
    # the good row alone would pass; the errored one fails the sweep
    assert rep["sup_rate"] < -0.8 and rep["pass"] is False
