import numpy as np
import pytest
import scipy.linalg as sla

from fplab import semigroup, spectra
from fplab.cli import main
from fplab.grids import WeightSpec, gaussian_density, make_grid, mass
from fplab.operators import (
    Classical,
    DiscreteClassical,
    DiscreteFractional,
    Fractional,
    OperatorMatrix,
    _add_drift_diffusion,
    _mirror_blocks,
    assemble,
)
from fplab.semigroup import EvolveSpec, evolve, steady_state
from fplab.spectra import (
    _eigenvalues,
    eigen_spectrum,
    fourier_side_generator,
    gap_sweep,
    perturbation_certificate,
    projector_distance,
    spectral_projector,
)
from fplab.splitting import ClassicalSplitting


GRID = make_grid(12.0, 513)
OP = assemble(Classical(), GRID)


def test_eigen_spectrum_classical():
    rep = eigen_spectrum(OP, k_leading=4)
    assert rep.zero_residual <= 1e-8
    assert abs(rep.gap + 1.0) <= 3e-3
    assert rep.separation_count == 1  # only 0 lies right of -0.5


def test_eigen_spectrum_csv(tmp_path):
    out = tmp_path / "run"
    assert main(["spectrum", "--model", "classical", "--L", "12", "--n", "513",
                 "--outdir", str(out)]) == 0
    arr = np.loadtxt(out / "eigenvalues.csv", delimiter=",")
    assert arr.shape == (8, 2)
    ev = eigen_spectrum(OP).eigenvalues
    assert np.array_equal(arr, np.column_stack([ev.real, ev.imag]))


def test_eigen_spectrum_reversible_tridiagonal_matches_dense():
    rep = eigen_spectrum(OP)
    dense = sla.eigvals(OP.entries)
    dense = dense[np.argsort(-dense.real)]
    np.testing.assert_allclose(rep.eigenvalues[:4], dense[:4].real, rtol=1e-8, atol=1e-10)
    assert rep.separation_count == int(np.sum(dense.real > rep.separation_a))
    # the dense solver reports spurious imaginary parts up to ~8 here
    assert np.all(_eigenvalues(OP.entries).imag == 0.0)


def test_eigensolve_selection_follows_matrix_structure(monkeypatch):
    dense_calls = []

    def spy(name):
        dense = getattr(sla, name)

        def wrapped(M, *args, **kwargs):
            dense_calls.append((name, M.shape[0]))
            return dense(M, *args, **kwargs)

        monkeypatch.setattr(sla, name, wrapped)

    for name in ("eigvals", "expm", "lu_factor"):
        spy(name)
    g = make_grid(12.0, 65)
    schemes = [EvolveSpec(t_end=0.2, dt=0.05, scheme=s)
               for s in ("ExactExpm", "BackwardEuler", "CrankNicolson")]

    def evolve_all(op):
        f0 = gaussian_density(op.grid, 0.5)
        for spec in schemes:
            evolve(op, f0, spec)

    # reversible chain: symmetric tridiagonal eigensolve, tridiagonal LU and
    # the symmetrized exponential, no dense call
    _eigenvalues(OP.entries)
    evolve_all(assemble(Classical(), g))
    assert dense_calls == []
    # upwind drift (zero off-diagonal products), a full jump generator and
    # the Fourier-side collocation (negative products, one-sided boundary
    # stencils) are centrosymmetric: each dense call is made on the even
    # (33) and the odd (32) block
    mirrored = (OperatorMatrix(grid=g, entries=_add_drift_diffusion(np.zeros((65, 65)), g, 0.0)),
                assemble(DiscreteClassical(eps=0.4), make_grid(1.6, 65)),
                fourier_side_generator(1.0, 30.0, 65))
    for op in mirrored:
        _eigenvalues(op.entries)
        evolve_all(op)
    assert dense_calls == [(name, size) for name in ("eigvals", "expm", "lu_factor", "lu_factor")
                           for size in (33, 32)] * 3
    # a jump generator pushed off centrosymmetry beyond the 8 eps guard
    # stays dense
    dense_calls.clear()
    skewed = mirrored[1].entries.copy()
    skewed[0, 1] += 1e-12 * np.abs(skewed).max()
    _eigenvalues(skewed)
    evolve_all(OperatorMatrix(grid=mirrored[1].grid, entries=skewed))
    assert dense_calls == [("eigvals", 65), ("expm", 65), ("lu_factor", 65), ("lu_factor", 65)]


MIRROR_CASES = {
    "discrete-classical": lambda: assemble(DiscreteClassical(eps=0.5), make_grid(8.0, 257)),
    "fractional": lambda: assemble(Fractional(alpha=1.5), make_grid(25.0, 257)),
    "discrete-fractional": lambda: assemble(DiscreteFractional(eps=0.2, alpha=1.0),
                                            make_grid(12.8, 257)),
    "fourier-side": lambda: fourier_side_generator(1.0, 30.0, 257),
}


@pytest.mark.parametrize("case", sorted(MIRROR_CASES))
def test_mirror_blocks_match_dense(case, monkeypatch):
    op = MIRROR_CASES[case]()
    M = op.entries
    assert _mirror_blocks(M) is not None
    w, vl, vr = sla.eig(M, left=True, right=True)
    lead = np.argsort(-w.real)[:8]
    # each of the leading dense eigenvalues has a mirrored one within 1e-10
    # relative, or within its first-order perturbation bound
    # eps ||M||_2 kappa(lambda) when that is wider: the higher Fractional
    # eigenvalues and the Fourier side's even/odd double eigenvalues have
    # condition numbers kappa up to 1e8, which no backward-stable solver
    # resolves to 1e-10 (measured: within 0.8 of that bound)
    kappa = 1.0 / np.abs(np.sum(vl[:, lead].conj() * vr[:, lead], axis=0))
    tol = (1e-10 * np.maximum(np.abs(w[lead]), 1.0)
           + 8.0 * np.finfo(float).eps * np.linalg.norm(M, 2) * kappa)
    ev = _eigenvalues(M)
    assert ev.size == M.shape[0]
    assert np.all(np.abs(ev[None, :] - w[lead, None]).min(axis=1) <= tol)
    rep = eigen_spectrum(op)
    # off-centre, so that both the even and the odd block carry the state
    f0 = gaussian_density(op.grid, 1.0, 1.0)
    specs = [EvolveSpec(t_end=2.0, dt=0.05, scheme=s, record_every=5)
             for s in ("ExactExpm", "BackwardEuler", "CrankNicolson")]
    mirrored = [np.array([f.values for _, f in evolve(op, f0, spec)]) for spec in specs]
    monkeypatch.setattr(spectra, "_mirror_blocks", lambda M: None)
    monkeypatch.setattr(semigroup, "_mirror_blocks", lambda M: None)
    dense = eigen_spectrum(op)
    assert abs(rep.gap - dense.gap) <= 1e-12 * abs(dense.gap)
    assert rep.separation_count == dense.separation_count
    for spec, new in zip(specs, mirrored):
        ref = np.array([f.values for _, f in evolve(op, f0, spec)])
        assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref)), spec.scheme
        # the frequency-side generator conserves g(0), not the mass
        if case != "fourier-side":
            wq = op.grid.cell_sizes
            assert np.max(np.abs(new @ wq - f0.values @ wq)) <= 1e-13, spec.scheme


def test_fourier_side_gaps_uniform_in_order():
    for alpha in (0.6, 1.0, 1.8):
        rep = eigen_spectrum(fourier_side_generator(alpha, 30.0, 513))
        assert -1.2 <= rep.gap <= -0.8, (alpha, rep.gap)


def test_fourier_side_validation():
    with pytest.raises(ValueError):
        fourier_side_generator(2.0)


def test_gap_sweep_pass_logic():
    rep = gap_sweep(lambda e: assemble(DiscreteClassical(eps=e), make_grid(12.0, 961)),
                    [0.4, 0.2], gap_target=-0.5)
    assert rep["pass"]
    assert all(abs(r["gap"] + 1.0) <= 0.05 for r in rep["rows"])
    bad = gap_sweep(lambda e: OP, [0.1], gap_target=-1.5)
    assert not bad["pass"]


def test_gap_sweep_records_exception_type():
    def build(e):
        if e < 0.3:
            raise ArithmeticError("too fine")
        return OP

    rep = gap_sweep(build, [0.4, 0.1], gap_target=-0.5)
    assert rep["rows"][0]["error"] is None
    assert rep["rows"][1]["error"] == {"type": "ArithmeticError", "message": "too fine"}


def test_projector_rank_one_and_mean_projection():
    rep = spectral_projector(OP, radius=0.5)
    assert rep.rank == 1
    assert rep.idempotency_defect <= 1e-8
    assert abs(np.trace(rep.projector) - 1.0) <= 1e-10
    assert abs(rep.norm - np.linalg.norm(rep.projector, 2)) <= 1e-10 * rep.norm
    # the rank-1 projector maps f to mass(f) * equilibrium
    G = gaussian_density(GRID)
    for width in (0.8, 1.5, 2.5, 1.0, 3.0):
        f = gaussian_density(GRID, width, 0.5)
        out = rep.projector @ f.values
        target = mass(f) * G.values
        assert np.max(np.abs(out - target)) <= 1e-6


def test_projector_matches_rank_one_closed_form():
    # the cell sizes are the exact left null vector, so the zero eigenprojector
    # is G wq^T / (wq . G) with G the steady state
    g = make_grid(12.8, 257)
    for model in (Classical(), Fractional(alpha=1.0, constant=1.0),
                  DiscreteFractional(eps=0.2, alpha=1.0)):
        op = assemble(model, g)
        G = steady_state(op).values
        wq = g.cell_sizes
        closed = np.outer(G, wq) / (wq @ G)
        P = spectral_projector(op, radius=0.5).projector
        assert np.max(np.abs(P - closed)) <= 1e-13, model


@pytest.mark.parametrize("model", [Fractional(alpha=1.0, constant=1.0),
                                   DiscreteFractional(eps=0.05, alpha=1.0)],
                         ids=lambda m: m.family)
def test_projector_refined_to_closed_form_at_criterion_10_size(model):
    # criterion 10's operators: the Schur form alone leaves the left block
    # off by eps ||M|| (~1.7e-14 in P); the residual refinement reaches ~4e-15
    g = make_grid(12.8, 1025)
    op = assemble(model, g)
    G = steady_state(op).values
    wq = g.cell_sizes
    P = spectral_projector(op, radius=0.5).projector
    assert np.max(np.abs(P - np.outer(G, wq) / (wq @ G))) <= 5e-15


def test_projector_matches_fine_contour_quadrature():
    # the trapezoid rule on |z| = r converges like (r / |lambda_out|)^N; with
    # 0, -1 inside and -2 outside, 64 nodes leave ~(3/4)^64 ~ 1e-8 and 256
    # nodes are exact up to the roundoff of 256 solves
    op = assemble(Classical(), make_grid(12.8, 257))
    M = op.entries
    eye = np.eye(M.shape[0])
    radius, n_nodes = 1.5, 256
    zs = radius * np.exp(2j * np.pi * (np.arange(n_nodes) + 0.5) / n_nodes)
    contour = sum(z * np.linalg.solve(z * eye - M, eye) for z in zs) / n_nodes
    rep = spectral_projector(op, radius=radius)
    P = rep.projector
    assert rep.rank == 2
    assert np.max(np.abs(P - contour.real)) <= 1e-11
    assert abs(np.trace(P) - rep.rank) <= 1e-10
    assert abs(rep.norm - np.linalg.norm(P, 2)) <= 1e-10 * rep.norm
    assert rep.idempotency_defect <= 1e-12
    margin = np.min(np.abs(np.abs(_eigenvalues(M)) - radius))
    assert abs(rep.contour_margin - margin) <= 1e-8
    assert rep.sep > 0.0


def test_projector_rank_two_with_larger_contour():
    rep = spectral_projector(OP, radius=1.5)
    assert rep.rank == 2


def test_projector_contour_crossing_error():
    # place the contour exactly on the first nonzero eigenvalue
    gap = eigen_spectrum(OP).gap
    with pytest.raises(ValueError, match="radius"):
        spectral_projector(OP, radius=abs(gap))


def test_projector_distance_self_is_zero():
    rep = spectral_projector(OP, radius=0.5)
    assert projector_distance(rep, rep, GRID) == 0.0


def test_perturbation_certificate_smooth_family():
    g = make_grid(12.0, 961)
    zs = [0.5 * np.exp(1j * 2 * np.pi * (k + 0.5) / 4) for k in range(4)]
    rep = perturbation_certificate(
        DiscreteClassical(eps=0.2), Classical(), g,
        ClassicalSplitting(M=10.0, R=4.0), zs, probes=8,
    )
    assert rep["pass"]
    assert rep["worst_norm"] < 1.0


def test_perturbation_certificate_rejects_one_singular_resolvent():
    # at z = 0 the conservative L_0 is singular while z I - B_eps is not;
    # one ill-conditioned factor is enough to refuse the certificate
    g = make_grid(12.0, 961)
    with pytest.raises(ArithmeticError, match="singular"):
        perturbation_certificate(
            DiscreteClassical(eps=0.2), Classical(), g,
            ClassicalSplitting(M=10.0, R=4.0), [0j], probes=8,
        )


def test_degenerate_zero_eigenvalue_detection():
    from fplab.operators import OperatorMatrix

    g = make_grid(2.0, 5)
    # two eigenvalues of equal minimal modulus near zero
    bad = OperatorMatrix(grid=g, entries=np.diag([0.0, -1e-12, -1.0, -2.0, -3.0]))
    with pytest.raises(ArithmeticError):
        eigen_spectrum(bad)
