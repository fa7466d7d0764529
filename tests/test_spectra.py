import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from dense_oracle import dense_contour, dense_report, mirror_blocks
from fplab.cli import main
from fplab.grids import WeightSpec, gaussian_density, make_grid, mass
from fplab.operators import (
    Classical,
    DiscreteClassical,
    DiscreteFractional,
    Fractional,
    OperatorMatrix,
    OperatorParts,
    _drift_bands,
    assemble,
)
from fplab.semigroup import EvolveSpec, evolve, steady_state
from fplab import semigroup, spectra
from fplab.spectra import (
    _bordered,
    _eigenvalues,
    eigen_spectrum,
    fourier_side_generator,
    gap_sweep,
    perturbation_certificate,
    projector_distance,
    spectral_projector,
)
from fplab.splitting import ClassicalSplitting, FractionalSplitting


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


@pytest.mark.parametrize("reverse", [False, True])
def test_leading_cut_reports_the_upper_member_of_a_conjugate_pair(monkeypatch, reverse):
    # k_leading = 6 cuts the pair -4.18 +- 0.46i of Fractional(1) at L = 60,
    # n = 257: the member with positive imaginary part is reported, in
    # whichever order the solver returns the two
    op = assemble(Fractional(1.0), make_grid(60.0, 257))
    ev = _eigenvalues(op)
    monkeypatch.setattr(spectra, "_spectrum",
                        lambda *_: (ev[::-1] if reverse else ev, np.nan))
    leading = eigen_spectrum(op, k_leading=7).eigenvalues
    assert leading[5] == np.conj(leading[6]) and leading[5].imag > 0.4
    assert eigen_spectrum(op, k_leading=6).eigenvalues[-1] == leading[5]


def test_eigen_spectrum_reversible_tridiagonal_matches_dense():
    rep = eigen_spectrum(OP)
    dense = sla.eigvals(OP.entries)
    dense = dense[np.argsort(-dense.real)]
    np.testing.assert_allclose(rep.eigenvalues[:4], dense[:4].real, rtol=1e-8, atol=1e-10)
    assert rep.separation_count == int(np.sum(dense.real > rep.separation_a))
    # the dense solver reports spurious imaginary parts up to ~8 here
    assert np.all(_eigenvalues(OP).imag == 0.0)


def test_eigensolve_selection_follows_matrix_structure(monkeypatch):
    dense_calls = []

    def spy(module, routine, name):
        dense = getattr(module, routine)

        def wrapped(M, *args, **kwargs):
            dense_calls.append((name, M.shape[0]))
            return dense(M, *args, **kwargs)

        monkeypatch.setattr(module, routine, wrapped)

    # the exponential is semigroup's _expm, and spectra's for the
    # eigensolve of a generator; its Pade solve is ?gesv: it adds no
    # lu_factor call to the lists below
    spy(sla, "eigvals", "eigvals")
    spy(semigroup, "_expm", "expm")
    spy(spectra, "_expm", "expm")
    spy(sla, "lu_factor", "lu_factor")
    g = make_grid(12.0, 65)
    schemes = [EvolveSpec(t_end=0.2, dt=0.05, scheme=s)
               for s in ("ExactExpm", "BackwardEuler", "CrankNicolson")]

    def evolve_all(op):
        f0 = gaussian_density(op.grid, 0.5)
        for spec in schemes:
            evolve(op, f0, spec)

    # reversible chain: symmetric tridiagonal eigensolve, tridiagonal LU and
    # the symmetrized exponential, no dense call
    _eigenvalues(OP)
    evolve_all(assemble(Classical(), g))
    assert dense_calls == []
    # upwind drift (zero off-diagonal products), a full jump generator and
    # the Fourier-side collocation (negative products, one-sided boundary
    # stencils) are centrosymmetric: each dense call is made on the even
    # (33) and the odd (32) block
    lower, upper, diag = _drift_bands(g, 0.0)
    empty = np.empty((0, 65))
    upwind = OperatorParts(diag, lower, upper, empty, empty, empty)
    mirrored = (OperatorMatrix(g, upwind),
                assemble(DiscreteClassical(eps=0.4), make_grid(1.6, 65)),
                fourier_side_generator(1.0, 30.0, 65))
    for op in mirrored:
        _eigenvalues(op)
        evolve_all(op)
    assert dense_calls == [(name, size) for name in ("eigvals", "expm", "lu_factor", "lu_factor")
                           for size in (33, 32)] * 3
    # a jump generator pushed off centrosymmetry beyond the 8 eps guard
    # stays dense
    dense_calls.clear()
    parts = mirrored[1].parts
    upper = parts.upper.copy()
    upper[0] += 1e-12 * np.abs(mirrored[1].entries).max()
    skewed = OperatorMatrix(mirrored[1].grid, replace(parts, upper=upper))
    _eigenvalues(skewed)
    evolve_all(skewed)
    assert dense_calls == [("eigvals", 65), ("expm", 65), ("lu_factor", 65), ("lu_factor", 65)]
    # the steady state, the projector and the certificate of jump generators
    # factor nothing at full size: LU and exponentials are of mirror blocks,
    # and the projector's eigenvalues come from the exponential, with no
    # dense eigensolve
    dense_calls.clear()
    grid = make_grid(1.6, 65)
    steady_state(mirrored[1])
    spectral_projector(mirrored[1], radius=0.5)
    perturbation_certificate(DiscreteFractional(eps=0.2, alpha=1.0),
                             Fractional(alpha=1.0, constant=1.0), grid,
                             FractionalSplitting(eta=0.2, Lcut=1.0, R=0.5),
                             [0.5j, -0.5j], probes=4)
    assert {name for name, _ in dense_calls} == {"lu_factor", "expm"}
    assert max(size for _, size in dense_calls) == 33


MIRROR_CASES = {
    "discrete-classical": lambda: assemble(DiscreteClassical(eps=0.5), make_grid(8.0, 257)),
    "fractional": lambda: assemble(Fractional(alpha=1.5), make_grid(25.0, 257)),
    "discrete-fractional": lambda: assemble(DiscreteFractional(eps=0.2, alpha=1.0),
                                            make_grid(12.8, 257)),
    "fourier-side": lambda: fourier_side_generator(1.0, 30.0, 257),
}


@pytest.mark.parametrize("case", sorted(MIRROR_CASES))
def test_mirror_blocks_match_dense(case, force_dense):
    op = MIRROR_CASES[case]()
    M = op.entries
    assert mirror_blocks(M) is not None
    w, vl, vr = sla.eig(M, left=True, right=True)
    lead = np.lexsort((-w.imag, -w.real))[:8]
    # each of the leading dense eigenvalues has a mirrored one within 1e-10
    # relative, or within its first-order perturbation bound
    # eps ||M||_2 kappa(lambda) when that is wider: the higher Fractional
    # eigenvalues and the Fourier side's even/odd double eigenvalues have
    # condition numbers kappa up to 1e8, which no backward-stable solver
    # resolves to 1e-10 (measured: within 0.8 of that bound)
    bound = (8.0 * np.finfo(float).eps * np.linalg.norm(M, 2)
             / np.abs(np.sum(vl.conj() * vr, axis=0)))
    tol = 1e-10 * np.maximum(np.abs(w[lead]), 1.0) + bound[lead]
    ev = _eigenvalues(op)
    assert ev.size == M.shape[0]
    assert np.all(np.abs(ev[None, :] - w[lead, None]).min(axis=1) <= tol)
    # the report (the rightmost eigenvalues of a generator, every one of the
    # Fourier side) against every eigenvalue of the dense matrix: the same
    # bound for the 8 reported, the gap within 1e-12 relative or its own
    # bound, and the same count right of -0.5
    rep = eigen_spectrum(op)
    assert np.all(np.abs(rep.eigenvalues[None, :] - w[lead, None]).min(axis=1) <= tol)
    gap, count = dense_report(M)
    others = np.delete(np.arange(w.size), np.argmin(np.abs(w)))
    at_gap = others[np.argmax(w[others].real)]
    assert abs(rep.gap - gap) <= max(1e-12 * abs(gap), bound[at_gap])
    assert rep.separation_count == count
    # off-centre, so that both the even and the odd block carry the state
    f0 = gaussian_density(op.grid, 1.0, 1.0)
    specs = [EvolveSpec(t_end=2.0, dt=0.05, scheme=s, record_every=5)
             for s in ("ExactExpm", "BackwardEuler", "CrankNicolson")]
    mirrored = [np.array([f.values for _, f in evolve(op, f0, spec)]) for spec in specs]
    force_dense()
    for spec, new in zip(specs, mirrored):
        ref = np.array([f.values for _, f in evolve(op, f0, spec)])
        assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref)), spec.scheme
        # the frequency-side generator conserves g(0), not the mass
        if case != "fourier-side":
            wq = op.grid.cell_sizes
            assert np.max(np.abs(new @ wq - f0.values @ wq)) <= 1e-13, spec.scheme


BORDER_CASES = {
    # refine's parameters at n = 1025, whose odd mirror block has order 512
    "discrete-classical": lambda: assemble(DiscreteClassical(eps=0.45), make_grid(12.0, 1025)),
    "fractional": lambda: assemble(Fractional(alpha=1.2), make_grid(60.0, 1025)),
    "discrete-fractional": lambda: assemble(DiscreteFractional(eps=0.15, alpha=1.0),
                                            make_grid(12.8, 1025)),
    "fourier-side": lambda: fourier_side_generator(1.0, 30.0, 1025),
}


@pytest.mark.parametrize("case", sorted(BORDER_CASES))
def test_bordered_block_matches_unbordered_solves(case):
    op = BORDER_CASES[case]()
    blocks = op.blocks.mats
    assert [B.shape[0] for B in blocks] == [513, 512]
    ev = _eigenvalues(op)
    assert ev.size == 1025
    assert not np.any(ev == _bordered(blocks[1])[1])
    # the gap as the unbordered blocks give it
    plain = np.concatenate([sla.eigvals(B) for B in blocks])
    plain_gap = np.delete(plain, np.argmin(np.abs(plain))).real.max()
    assert abs(eigen_spectrum(op).gap - plain_gap) <= 1e-12 * abs(plain_gap)
    # the 8 leading eigenvalues within the bound of
    # test_mirror_blocks_match_dense, from each block's own norm and
    # condition numbers
    eps = np.finfo(float).eps
    w, bound = [], []
    for B in blocks:
        wb, vl, vr = sla.eig(B, left=True, right=True)
        kappa = 1.0 / np.abs(np.sum(vl.conj() * vr, axis=0))
        w.append(wb)
        bound.append(8.0 * eps * np.linalg.norm(B, 2) * kappa)
    w, bound = np.concatenate(w), np.concatenate(bound)
    lead = np.argsort(-w.real)[:8]
    tol = 1e-10 * np.maximum(np.abs(w[lead]), 1.0) + bound[lead]
    assert np.all(np.abs(ev[None, :] - w[lead, None]).min(axis=1) <= tol)


def test_projector_from_bordered_blocks_matches_dense(force_dense):
    # criterion 10's operator, whose odd mirror block has order 512; the
    # count and the contour margin against every eigenvalue of the dense
    # matrix, the projector against the steady state's dense solve
    op = assemble(DiscreteFractional(eps=0.05, alpha=1.0), make_grid(12.8, 1025))
    count, margin = dense_contour(op.entries, 0.5)
    rep = spectral_projector(op, radius=0.5)
    force_dense()
    ref = spectral_projector(op, radius=0.5)
    assert rep.rank == ref.rank == count == 1
    assert np.max(np.abs(rep.projector - ref.projector)) <= 1e-12 * ref.norm
    assert abs(rep.norm - ref.norm) <= 1e-12 * ref.norm
    assert abs(rep.contour_margin - margin) <= 1e-9


def test_no_qr_sweep_at_an_order_that_is_a_multiple_of_256(monkeypatch):
    orders = []
    eigvals = sla.eigvals

    def eigvals_spy(M, *args, **kwargs):
        orders.append(M.shape[0])
        return eigvals(M, *args, **kwargs)

    monkeypatch.setattr(sla, "eigvals", eigvals_spy)
    for n in (513, 1025):
        orders.clear()
        op = assemble(DiscreteFractional(eps=0.15, alpha=1.0), make_grid(12.8, n))
        _eigenvalues(op)
        spectral_projector(op, radius=0.5)
        assert set(orders) == {(n + 1) // 2}, n


def test_border_that_does_not_come_back_isolated_is_refused(monkeypatch):
    def coupled(B):
        A, c = _bordered(B)
        A[0, -1] = A[-1, 0] = 1.0
        return A, c

    monkeypatch.setattr(spectra, "_bordered", coupled)
    op = assemble(DiscreteFractional(eps=0.15, alpha=1.0), make_grid(12.8, 513))
    with pytest.raises(ArithmeticError, match="isolated"):
        _eigenvalues(op)
    # the projector of a generator solves no block dense; the Fourier side,
    # which conserves no mass, is solved bordered before it is refused
    with pytest.raises(ArithmeticError, match="isolated"):
        spectral_projector(fourier_side_generator(1.0, 30.0, 513), radius=0.5)


def test_fourier_side_generator_bands_match_dense_product():
    for alpha, n in ((0.6, 65), (1.8, 257)):
        grid = make_grid(30.0, n)
        xi, h = grid.nodes, grid.h
        D = np.zeros((n, n))
        idx = np.arange(1, n - 1)
        D[idx, idx + 1] = 1.0 / (2.0 * h)
        D[idx, idx - 1] = -1.0 / (2.0 * h)
        D[0, 0], D[0, 1], D[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
        D[-1, -1], D[-1, -2], D[-1, -3] = 1.5 / h, -2.0 / h, 0.5 / h
        dense = -np.diag(np.abs(xi) ** alpha) - np.diag(xi) @ D
        assert np.array_equal(fourier_side_generator(alpha, 30.0, n).entries, dense)


def test_fourier_side_spectrum_forms_no_dense_matrix():
    # the collocation is its parts, so the eigensolve holds only the two
    # half-size mirror blocks and LAPACK's copies of them
    n = 1025
    tracemalloc.start()
    try:
        eigen_spectrum(fourier_side_generator(1.0, 30.0, n))
        peak = tracemalloc.get_traced_memory()[1] / (8.0 * n * n)
    finally:
        tracemalloc.stop()
    assert peak < 1.5


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
    assert not bad["pass"] and bad["warning"] is None
    # an empty sweep passes vacuously, as in semigroup.uniform_decay_sweep
    empty = gap_sweep(lambda e: OP, [])
    assert empty["pass"] is True and empty["warning"] == "empty parameter list"
    assert empty["rows"] == [] and np.isnan(empty["max_gap"])


def test_gap_sweep_records_exception_type():
    def build(e):
        if e < 0.3:
            raise ArithmeticError("too fine")
        return OP

    rep = gap_sweep(build, [0.4, 0.1], gap_target=-0.5)
    assert rep["rows"][0]["error"] is None
    assert rep["rows"][1]["error"] == {"type": "ArithmeticError", "message": "too fine"}
    # the good row alone would pass; the errored one fails the sweep
    assert rep["max_gap"] <= -0.5 and rep["pass"] is False


def test_projector_rank_one_and_mean_projection():
    rep = spectral_projector(OP, radius=0.5)
    assert rep.rank == 1
    P = rep.projector
    assert np.linalg.norm(P @ P - P, 2) <= 1e-8 * rep.norm
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
    # the zero eigenprojector r l^T / (l^T r) from the dense left and right
    # eigenvectors, an oracle independent of the steady state
    g = make_grid(12.8, 257)
    for model in (Classical(), Fractional(alpha=1.0, constant=1.0),
                  DiscreteFractional(eps=0.2, alpha=1.0)):
        op = assemble(model, g)
        w, vl, vr = sla.eig(op.entries, left=True, right=True)
        i0 = int(np.argmin(np.abs(w)))
        r, l = vr[:, i0].real, vl[:, i0].real
        P = spectral_projector(op, radius=0.5).projector
        assert np.max(np.abs(P - np.outer(r, l) / (l @ r))) <= 1e-13, model


@pytest.mark.parametrize("model", [Fractional(alpha=1.0, constant=1.0),
                                   DiscreteFractional(eps=0.05, alpha=1.0)],
                         ids=lambda m: m.family)
def test_projector_invariants_at_criterion_10_size(model):
    # criterion 10's operators: P is a projector of trace 1 whose range is
    # the null vector of M (M P = 0) and whose row space is the left one
    # (P M = 0), each product taken on the parts, in units of
    # ||M||_1 ||P||_2 (measured: <= 2.8e-17; Classical, whose steady state
    # is less accurate, reads 1.2e-12)
    g = make_grid(12.8, 1025)
    op = assemble(model, g)
    rep = spectral_projector(op, radius=0.5)
    P = rep.projector
    scale = np.abs(op.entries).sum(axis=0).max() * rep.norm
    assert np.linalg.norm(op.matmat(P), 2) <= 1e-14 * scale
    assert np.linalg.norm(op.matmat(P.T, transpose=True), 2) <= 1e-14 * scale
    assert abs(np.trace(P) - 1.0) <= 1e-13
    assert np.linalg.norm(P @ P - P, 2) <= 1e-13 * rep.norm
    assert abs(rep.norm - np.linalg.norm(P, 2)) <= 1e-12 * rep.norm


def test_projector_matches_fine_contour_quadrature():
    # the trapezoid rule on |z| = r converges like (r / |lambda_out|)^N; with
    # 0 inside and -1 outside, 256 nodes leave ~(1/2)^256, so the rule is
    # exact up to the roundoff of 256 solves (measured: 1.8e-16)
    op = assemble(Classical(), make_grid(12.8, 257))
    M = op.entries
    eye = np.eye(M.shape[0])
    radius, n_nodes = 0.5, 256
    zs = radius * np.exp(2j * np.pi * (np.arange(n_nodes) + 0.5) / n_nodes)
    contour = sum(z * np.linalg.solve(z * eye - M, eye) for z in zs) / n_nodes
    rep = spectral_projector(op, radius=radius)
    P = rep.projector
    assert rep.rank == 1
    assert np.max(np.abs(P - contour.real)) <= 1e-12
    assert abs(np.trace(P) - 1.0) <= 1e-10
    assert abs(rep.norm - np.linalg.norm(P, 2)) <= 1e-10 * rep.norm
    margin = np.min(np.abs(np.abs(_eigenvalues(op)) - radius))
    assert abs(rep.contour_margin - margin) <= 1e-8


@pytest.mark.parametrize("radius", [0.5, 1.5])
@pytest.mark.parametrize("case", sorted(MIRROR_CASES))
def test_projector_mirror_blocks_match_dense(case, radius, force_dense):
    # radius 1.5 encloses 0 (even block) and -1 (odd block), on the Fourier
    # side 0 and the double -1.03, and the Fourier side does not conserve
    # mass: the mirror blocks refuse them for the reason and the count that
    # every eigenvalue of the dense matrix gives
    op = MIRROR_CASES[case]()
    count, margin = dense_contour(op.entries, radius)
    if radius > 1.0 or case == "fourier-side":
        with pytest.raises(ValueError) as mirrored:
            spectral_projector(op, radius=radius)
        reason = (f"contour encloses {count} eigenvalues" if count != 1
                  else "generator does not conserve mass")
        # the reason and the count, not the suggested radii
        assert str(mirrored.value).split(";")[0].startswith(reason)
        return
    rep = spectral_projector(op, radius=radius)
    force_dense()
    ref = spectral_projector(op, radius=radius)
    assert rep.rank == ref.rank == count == 1
    assert np.max(np.abs(rep.projector - ref.projector)) <= 1e-12 * ref.norm
    assert abs(rep.norm - ref.norm) <= 1e-12 * ref.norm
    assert abs(rep.contour_margin - margin) <= 1e-9


def test_projector_refuses_a_contour_that_does_not_enclose_one_eigenvalue():
    # 0 and -1 inside |z| = 1.5: the closed form has rank 1, and the message
    # names the count and the radii that enclose only the zero eigenvalue
    with pytest.raises(ValueError, match=r"encloses 2 eigenvalues.*radius in \(.*e-\d+, 1\)"):
        spectral_projector(OP, radius=1.5)


def test_projector_refuses_a_generator_that_does_not_conserve_mass():
    # the frequency-side collocation conserves g(0), not the mass: its
    # weighted column sums reach 0.03-0.12 of its scale, and its null
    # vector has no unit-mass normalization that makes G wq^T a projector
    with pytest.raises(ValueError, match="does not conserve mass"):
        spectral_projector(MIRROR_CASES["fourier-side"](), radius=0.5)


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


CERTIFICATE_CASES = {
    # truncated power law against its limit, as in criterion 10
    "fractional": (DiscreteFractional(eps=0.2, alpha=1.0), Fractional(alpha=1.0, constant=1.0),
                   make_grid(12.8, 257), FractionalSplitting(eta=0.2, Lcut=1.0, R=2.0)),
    # smooth kernel against Classical, whose blocks are solved on their bands
    "classical": (DiscreteClassical(eps=0.4), Classical(), make_grid(12.0, 481),
                  ClassicalSplitting(M=10.0, R=4.0)),
}


@pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
def test_perturbation_certificate_mirror_blocks_match_dense(case, force_dense):
    zs = [0.5 * np.exp(1j * 2.0 * np.pi * (k + 0.5) / 8) for k in range(8)]
    args = CERTIFICATE_CASES[case]
    rows = [r["norm"] for r in perturbation_certificate(*args, zs, probes=8)["rows"]]
    # zs[7 - k] is the conjugate of zs[k] to ~3e-16 and reuses its norm,
    # which a solve at that sample reproduces
    assert rows == rows[::-1]
    alone = perturbation_certificate(*args, [zs[7]], probes=8)["rows"][0]["norm"]
    assert abs(alone - rows[7]) <= 1e-12 * rows[7]
    force_dense()
    ref = np.array([r["norm"] for r in perturbation_certificate(*args, zs, probes=8)["rows"]])
    assert np.max(np.abs(np.array(rows) - ref) / ref) <= 1e-12


def test_perturbation_certificate_memory_at_criterion_10_size():
    # four n x n operators while they are folded, then half-size blocks and
    # their complex LU factors; the dense path peaked at 15.2 n^2 doubles
    n = 1025
    zs = [0.5 * np.exp(1j * 2.0 * np.pi * (k + 0.5) / 8) for k in range(8)]
    tracemalloc.start()
    try:
        perturbation_certificate(DiscreteFractional(eps=0.05, alpha=1.0),
                                 Fractional(alpha=1.0, constant=1.0), make_grid(12.8, n),
                                 FractionalSplitting(eta=0.1, Lcut=1.0, R=2.0), zs)
        peak = tracemalloc.get_traced_memory()[1] / (8.0 * n * n)
    finally:
        tracemalloc.stop()
    assert peak <= 8.0


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
    g = make_grid(2.0, 5)
    # two eigenvalues of equal minimal modulus near zero
    empty = np.empty((0, 5))
    bad = OperatorMatrix(g, OperatorParts(np.array([0.0, -1e-12, -1.0, -2.0, -3.0]), np.zeros(4),
                                          np.zeros(4), empty, empty, empty))
    with pytest.raises(ArithmeticError):
        eigen_spectrum(bad)


# ---------------------------------------------------------------------------
# the rightmost eigenvalues of a generator (spectra._rightmost)

REFINE_FAMILIES = ([(DiscreteClassical(eps=e), 12.0) for e in (0.40, 0.45, 0.50, 0.55, 0.60)]
                   + [(Fractional(alpha=a), 60.0) for a in (1.0, 1.2, 1.4, 1.6, 1.8)]
                   + [(DiscreteFractional(eps=e, alpha=1.0), 12.8)
                      for e in (0.10, 0.15, 0.20, 0.25, 0.30)])


@pytest.mark.parametrize("model,L", REFINE_FAMILIES,
                         ids=lambda v: f"{v.family}:{getattr(v, 'eps', getattr(v, 'alpha', ''))}"
                         if hasattr(v, "family") else "")
def test_rightmost_eigenvalues_match_dense_at_refine_inputs(model, L):
    # the benchmark's refine report (k_leading = 4) at n = 513 against every
    # eigenvalue of the dense matrix, with the bounds of
    # test_mirror_blocks_match_dense (measured: the gap within 2.4e-12
    # relative, the residual at most 5e-14)
    op = assemble(model, make_grid(L, 513))
    M = op.entries
    rep = eigen_spectrum(op, k_leading=4)
    assert rep.residual <= spectra._TOL
    w, vl, vr = sla.eig(M, left=True, right=True)
    bound = (8.0 * np.finfo(float).eps * np.linalg.norm(M, 2)
             / np.abs(np.sum(vl.conj() * vr, axis=0)))
    lead = np.lexsort((-w.imag, -w.real))[:4]
    tol = 1e-10 * np.maximum(np.abs(w[lead]), 1.0) + bound[lead]
    assert np.all(np.abs(rep.eigenvalues[None, :] - w[lead, None]).min(axis=1) <= tol)
    gap, count = dense_report(M)
    assert abs(rep.gap - gap) <= max(1e-12 * abs(gap), bound[lead[1]])
    assert rep.separation_count == count


def _two_closed_classes(n: int) -> OperatorMatrix:
    """A mass-conserving, mirror-symmetric generator with two closed
    classes: the centre nodes, joined by unit rates, and the outer ones,
    joined by unit rates and by one jump between the two end nodes (a
    Toeplitz term).  Both stationary states are even, so the even mirror
    block holds a double zero eigenvalue."""
    grid = make_grid(4.0, n)
    m, r = n // 2, n // 8
    rates = np.ones(n - 1)
    rates[[m - r - 1, m + r]] = 0.0  # no rate between the classes
    ends = np.zeros((1, n))
    ends[0, [0, -1]] = 1.0
    col = np.zeros((1, n))
    col[0, -1] = 1.0
    off = OperatorMatrix(grid, OperatorParts(np.zeros(n), rates, rates.copy(), col, ends, ends))
    wq = grid.cell_sizes
    diag = -off.matmat(wq, transpose=True) / wq
    return OperatorMatrix(grid, replace(off.parts, diag=diag))


def test_double_zero_of_two_closed_classes_is_not_simple():
    # a Krylov space grown from one vector holds one direction of the double
    # zero's eigenspace; Arnoldi starts from two (and restarts from a
    # pseudo-random vector where the space closes), so both zeros show, as
    # in the dense solver, and the report refuses them
    op = _two_closed_classes(129)
    assert op.bands is None and len(op.blocks.mats) == 2
    assert op.conservation_defect <= 1e-14 * np.abs(op.parts.diag).max()
    even = np.abs(sla.eigvals(op.blocks.mats[0]))
    assert np.sum(even < 1e-10) == 2
    with pytest.raises(ArithmeticError, match="not simple"):
        eigen_spectrum(op)
    # a contour inside every nonzero eigenvalue encloses both zeros
    mod = np.sort(np.abs(sla.eigvals(op.entries)))
    with pytest.raises(ValueError, match="encloses 2 eigenvalues"):
        spectral_projector(op, radius=0.5 * mod[2])


def test_dense_eigensolve_only_off_the_generators(monkeypatch):
    # refine's three jump families at both sizes and criterion 10's four
    # operators take no dense eigensolve of a block; the Fourier side, which
    # is no generator, still does, on both mirror blocks (the odd bordered)
    orders = []
    eigvals = sla.eigvals

    def eigvals_spy(M, *args, **kwargs):
        orders.append(M.shape[0])
        return eigvals(M, *args, **kwargs)

    monkeypatch.setattr(sla, "eigvals", eigvals_spy)
    for n in (513, 1025):
        for model, L in REFINE_FAMILIES:
            eigen_spectrum(assemble(model, make_grid(L, n)), k_leading=4)
    g = make_grid(12.8, 1025)
    for model in (Fractional(alpha=1.0, constant=1.0),
                  *(DiscreteFractional(eps=e, alpha=1.0) for e in (0.2, 0.1, 0.05))):
        spectral_projector(assemble(model, g), radius=0.5)
    assert not any(m > 64 for m in orders)
    eigen_spectrum(fourier_side_generator(1.0, 30.0, 1025))
    assert [m for m in orders if m > 64] == [513, 513]


def test_separation_count_past_k_leading_matches_dense():
    # Fractional(1) at L = 60, n = 513: 9 eigenvalues right of -6, the
    # deepest line the exponential is asked for, against 4 leading ones;
    # condition numbers up to 2.6e9, every one of the 9 further than its
    # perturbation bound from the line
    op = assemble(Fractional(alpha=1.0), make_grid(60.0, 513))
    rep = eigen_spectrum(op, k_leading=4, separation_a=-6.0)
    _, count = dense_report(op.entries, -6.0)
    assert rep.separation_count == count == 9
    assert rep.residual <= spectra._TOL


def test_deep_separation_count_is_solved_whole():
    # the same operator right of -12 (left of -depth/tau): more than 15
    # eigenvalues, solved whole on the mirror blocks (residual NaN), as many
    # as sla.eigvals of the dense mirror blocks find.  Those near -12 have
    # condition numbers 1e13-5e14, so the count is fixed only between the
    # eigenvalues of the whole matrix that lie right of the line by more
    # than their perturbation bound and those that may (sla.eigvals of the
    # whole matrix finds 41, with vectors 38)
    op = assemble(Fractional(alpha=1.0), make_grid(60.0, 513))
    rep = eigen_spectrum(op, k_leading=4, separation_a=-12.0)
    assert np.isnan(rep.residual)
    M = op.entries
    blocks = np.concatenate([sla.eigvals(B) for B in mirror_blocks(M)])
    assert rep.separation_count == int(np.sum(blocks.real > -12.0)) > 15
    w, vl, vr = sla.eig(M, left=True, right=True)
    bound = (8.0 * np.finfo(float).eps * np.linalg.norm(M, 2)
             / np.abs(np.sum(vl.conj() * vr, axis=0)))
    assert np.sum(w.real - bound > -12.0) <= rep.separation_count \
        <= np.sum(w.real + bound > -12.0)
    # a contour wider than depth/(2 tau) is counted whole too
    count, _ = dense_contour(M, 4.0)
    with pytest.raises(ValueError, match=f"contour encloses {count} eigenvalues"):
        spectral_projector(op, radius=4.0)


def test_eigen_spectrum_memory_is_one_block_exponential():
    # refine's Fractional(1.2) at n = 1025: with the mirror blocks formed,
    # the eigensolve peaks at operators._expm's five work arrays of the even
    # block, one exponential alive at a time
    op = assemble(Fractional(alpha=1.2), make_grid(60.0, 1025))
    even = op.blocks.mats[0]
    tracemalloc.start()
    try:
        rep = eigen_spectrum(op, k_leading=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.residual <= spectra._TOL
    assert peak <= 5.2 * even.nbytes

