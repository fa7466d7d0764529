import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from dense_oracle import sobolev_lhs
from fplab.fourier import fourier_transform_block, power_spectra
from fplab.grids import Field, WeightSpec, derivative, gaussian_density, make_grid, weighted_norm
from fplab.inequalities import (
    adjoint_dissipativity_check,
    dirichlet_form_block,
    dirichlet_form_fourier_oracle_block,
    dissipativity_check,
    fractional_sobolev_block,
    gradient_convolution_block,
    psi_constant,
    psi_profile,
    regularization_norm,
)
from fplab.kernels import fourier_ratio_constant, gaussian_reference_kernel, khat
from fplab.operators import (
    Classical,
    DiscreteFractional,
    Fractional,
    OperatorMatrix,
    OperatorParts,
)
from fplab.probes import probe_block, probe_family
from fplab.splitting import ClassicalSplitting, FractionalSplitting, assemble_splitting


GRID = make_grid(12.0, 513)
K = gaussian_reference_kernel()


def _column(f):
    """A field as a one-column probe block."""
    return f.values[:, None]


def test_dirichlet_form_paths_agree():
    a, b = dirichlet_form_block(probe_block(GRID, count=8, seed=0), GRID, K, 0.25)
    assert np.all(np.abs(a - b) <= 1e-8 * np.maximum(np.abs(a), 1e-12))


@pytest.mark.parametrize("n", [65, 301, 1001])
def test_dirichlet_form_numpy_fft_path_matches_double_sum(n):
    grid = make_grid(12.0, n)
    a, b = dirichlet_form_block(probe_block(grid, count=4, seed=1), grid, K, 0.25)
    assert np.all(np.abs(a - b) <= 1e-10 * np.abs(a))


def test_dirichlet_form_constant_field_vanishes():
    a, b = dirichlet_form_block(np.ones((GRID.n, 1)), GRID, K, 0.5)
    assert a[0] <= 1e-6 and b[0] <= 1e-6


def test_dirichlet_form_quadratic_scaling():
    f = _column(gaussian_density(GRID))
    for a, b in zip(dirichlet_form_block(f, GRID, K, 0.5),
                    dirichlet_form_block(2.0 * f, GRID, K, 0.5)):
        assert abs(b[0] - 4.0 * a[0]) <= 1e-12 * max(1.0, b[0])


def test_dirichlet_form_gaussian_vs_continuum_oracle():
    f = _column(gaussian_density(GRID))
    val = dirichlet_form_block(f, GRID, K, 0.5)[0][0]
    oracle = dirichlet_form_fourier_oracle_block(power_spectra(f, GRID), K, 0.5)[0]
    # discrete sampled-kernel form vs continuum quadrature: close but not equal
    assert abs(val - oracle) / oracle <= 2e-2


def test_gradient_convolution_bound_probes():
    Kc = fourier_ratio_constant(K).value
    spectra = power_spectra(probe_block(GRID, count=16, seed=2), GRID)
    for eps in (0.5, 0.1):
        assert gradient_convolution_block(spectra, K, eps, Kc)["pass"].all()


def test_gradient_convolution_block_integrates_row_by_row():
    # criterion 6's three eps on its 513 x 100 block: each integral works
    # on one probe row at a time, so no 100 x npad temporary is made
    Kc = fourier_ratio_constant(K).value
    spectra = power_spectra(probe_block(GRID, count=100, seed=6), GRID)
    tracemalloc.start()
    try:
        for eps in (0.5, 0.25, 0.1):
            gradient_convolution_block(spectra, K, eps, Kc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5e6


def test_gradient_convolution_lhs_is_sorted_xi_integral():
    eps = 0.5
    for v in probe_block(GRID, count=4, seed=2).T:
        xi, fhat = fourier_transform_block(v[:, None], GRID)
        assert xi[0] == 0.0 and np.all(np.diff(xi) > 0)
        integrand = np.abs(xi * np.asarray(khat(K, eps * xi)) * fhat[:, 0]) ** 2
        # the integrand is even; the ascending full line -Nyquist, ...,
        # Nyquist - dxi is the half line [0, Nyquist] read backwards plus
        # [0, Nyquist - dxi]
        expected = (np.trapezoid(integrand, xi)
                    + np.trapezoid(integrand[:-1], xi[:-1])) / (2.0 * np.pi)
        lhs = gradient_convolution_block(power_spectra(v[:, None], GRID), K, eps, 1.0)["lhs"]
        assert abs(lhs[0] - expected) <= 1e-12 * expected


def test_gradient_convolution_single_mode_ratio():
    # for a near-pure grid cosine the two sides reduce to the symbol ratio
    Kc = fourier_ratio_constant(K).value
    xi0, eps = 1.0, 0.5
    kh = float(khat(K, eps * xi0))
    # the two sides reduce to (u^2 khat(u)^2 / (1 - khat(u))) / Kc at u = eps xi0
    u = eps * xi0
    predicted = u**2 * kh**2 / (Kc * (1.0 - kh))
    assert predicted <= 1.0
    v = np.cos(xi0 * GRID.nodes) * np.exp(-(GRID.nodes / 10.0) ** 8)
    rep = gradient_convolution_block(power_spectra(v[:, None], GRID), K, eps, Kc)
    assert rep["pass"][0]
    assert abs(rep["lhs"][0] / rep["rhs"][0] - predicted) <= 0.05


# ---------------------------------------------------------------------------
# column j of a P-probe block is judged as the one-column block of probe j


def _probes(P, grid=GRID):
    """The first P probes of a block whose third column is zero."""
    F = probe_block(grid, count=6, seed=4)
    F[:, 2] = 0.0
    return F[:, :P]


def _agree(block_values, single_values):
    block_values, single_values = np.asarray(block_values), np.asarray(single_values)
    assert np.all(np.abs(block_values - single_values) <= 1e-13 * np.abs(single_values))


@pytest.mark.parametrize("P", [1, 6])
def test_fourier_side_blocks_match_per_probe_checks(P):
    F = _probes(P)
    Kc = fourier_ratio_constant(K).value
    spectra = power_spectra(F, GRID)
    columns = [power_spectra(v[:, None], GRID) for v in F.T]
    for eps in (0.5, 0.1):
        rep = gradient_convolution_block(spectra, K, eps, Kc)
        singles = [gradient_convolution_block(one, K, eps, Kc) for one in columns]
        for key in ("lhs", "rhs", "dirichlet", "ratio"):
            _agree(rep[key], [one[key][0] for one in singles])
        assert rep["pass"].tolist() == [one["pass"][0] for one in singles]
        _agree(dirichlet_form_fourier_oracle_block(spectra, K, eps),
               [dirichlet_form_fourier_oracle_block(one, K, eps)[0] for one in columns])


@pytest.mark.parametrize("P", [1, 6])
@pytest.mark.parametrize("path", ["double-sum", "fourier"])
def test_dirichlet_form_block_matches_per_probe(P, path):
    # the two outputs: the double sum and the Toeplitz identity on FFTs
    out = {"double-sum": 0, "fourier": 1}[path]
    F = _probes(P)
    _agree(dirichlet_form_block(F, GRID, K, 0.25)[out],
           [dirichlet_form_block(v[:, None], GRID, K, 0.25)[out][0] for v in F.T])


@pytest.mark.parametrize("P", [1, 6])
def test_fractional_sobolev_block_matches_per_probe(P):
    grid = make_grid(25.0, 513)
    F = _probes(P, grid)
    rep = fractional_sobolev_block(F, grid, 1.5)
    singles = [fractional_sobolev_block(v[:, None], grid, 1.5) for v in F.T]
    for key in ("lhs", "rhs", "rel_error"):
        _agree(rep[key], [one[key][0] for one in singles])
    assert rep["pass"].tolist() == [one["pass"][0] for one in singles]


def test_dirichlet_form_block_stays_below_three_dense_arrays():
    g = make_grid(12.0, 1025)
    F = probe_block(g, count=16, seed=0)
    tracemalloc.start()
    try:
        dirichlet_form_block(F, g, K, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * g.n * g.n


@pytest.mark.parametrize("L, n, alpha", [(12.0, 513, 1.5), (25.0, 513, 1.5),
                                         (12.0, 1025, 0.6), (25.6, 2049, 1.0)])
def test_fractional_sobolev_lhs_matches_dense_double_sum(L, n, alpha):
    grid = make_grid(L, n)
    F = probe_block(grid, count=8, seed=0)
    F[:, 2] = 0.0
    lhs = fractional_sobolev_block(F, grid, alpha)["lhs"]
    dense = sobolev_lhs(F, grid, alpha)
    assert np.all(np.abs(lhs - dense) <= 1e-12 * np.abs(dense))


def test_fractional_sobolev_block_forms_no_dense_matrix():
    g = make_grid(25.0, 1025)
    F = probe_block(g, count=8, seed=0)
    tracemalloc.start()
    try:
        fractional_sobolev_block(F, g, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 8 * g.n * g.n


def test_psi_constant_gaussian_reference():
    assert psi_constant(K, q=1.0, p=1) == pytest.approx(2.0, abs=1e-6)


def test_psi_profile_limit_negative():
    # without the multiplier the profile is positive at the origin but tends
    # to 1/p' - q = -1 at infinity; it is already negative beyond |x| = 3
    prof = psi_profile(GRID, eps=0.0, M=0.0, R=1.0, p=1, q=1.0, C_bound=1.0)
    far = np.abs(prof.x) >= 3.0
    assert np.all(prof.values[far] < 0.0)
    assert abs(prof.values[-1] + 1.0) <= 0.02
    assert prof.sup == pytest.approx(1.0)  # the origin bump needs M chi_R


def test_psi_profile_multiplier_strictly_helps():
    base = psi_profile(GRID, eps=0.0, M=0.0, R=6.0, p=1, q=1.0, C_bound=1.0)
    better = psi_profile(GRID, eps=0.0, M=10.0, R=6.0, p=1, q=1.0, C_bound=1.0)
    assert better.sup < base.sup


def test_psi_profile_threshold_in_eps():
    C = psi_constant(K, q=1.0, p=1)
    ok = psi_profile(GRID, eps=0.05, M=10.0, R=6.0, p=1, q=1.0, C_bound=C)
    bad = psi_profile(GRID, eps=2.0, M=10.0, R=6.0, p=1, q=1.0, C_bound=C)
    assert ok.sup <= -0.5
    assert bad.sup > 0.0


@pytest.mark.parametrize("p", [1, 2])
def test_dissipativity_classical_splitting(p):
    _, B = assemble_splitting(Classical(), GRID, ClassicalSplitting(M=10.0, R=6.0))
    rep = dissipativity_check(B, WeightSpec(p=p, q=1.0), a=-0.5, probes=32)
    assert rep.passed
    # PASS is monotone in the target level
    assert dissipativity_check(B, WeightSpec(p=p, q=1.0), a=-0.25, probes=32).passed


def test_dissipativity_sobolev_energy_uses_the_norm_derivative():
    # B f = x f on [-2, 2], where the probes are O(1) at the two ends: the
    # H^s(m) energy differentiates as weighted_norm does, second order one
    # sided at the end nodes
    grid = make_grid(2.0, 257)
    x = grid.nodes
    empty = np.empty((0, grid.n))
    B = OperatorMatrix(grid, parts=OperatorParts(x.copy(), np.zeros(grid.n - 1),
                                                 np.zeros(grid.n - 1), empty, empty, empty))
    w = WeightSpec(p=2, q=1.0, s=2)
    rep = dissipativity_check(B, w, a=2.0, probes=16)
    F = probe_block(grid, count=16, seed=0)
    F = F[:, np.max(np.abs(F), axis=0) >= 1e-14]
    BF = x[:, None] * F
    m2 = (grid.cell_sizes * w.weight_values(x) ** 2)[:, None]
    nums, dens = np.zeros(F.shape[1]), np.zeros(F.shape[1])
    for _ in range(w.s + 1):
        nums += np.sum(m2 * BF * F, axis=0)
        dens += np.sum(m2 * F * F, axis=0)
        F, BF = derivative(F, grid.h), derivative(BF, grid.h)
    ref = nums / dens
    assert rep.n_probes == ref.size
    assert np.abs(rep.ratios - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dissipativity_worst_ratio_below_psi_sup():
    C = psi_constant(K, q=1.0, p=1)
    prof = psi_profile(GRID, eps=0.0, M=10.0, R=6.0, p=1, q=1.0, C_bound=C)
    _, B = assemble_splitting(Classical(), GRID, ClassicalSplitting(M=10.0, R=6.0))
    rep = dissipativity_check(B, WeightSpec(p=1, q=1.0), a=-0.5, probes=32)
    assert rep.worst_ratio <= prof.sup


def test_dissipativity_band_splitting():
    grid = make_grid(25.6, 2049)
    _, B = assemble_splitting(DiscreteFractional(eps=0.05, alpha=1.0), grid,
                              FractionalSplitting(eta=0.5, Lcut=2.0, R=4.0))
    rep = dissipativity_check(B, WeightSpec(p=1, q=0.4), a=-0.2, probes=16)
    assert rep.passed


def test_adjoint_dissipativity():
    grid = make_grid(25.6, 2049)
    _, B = assemble_splitting(DiscreteFractional(eps=0.05, alpha=1.0), grid,
                              FractionalSplitting(eta=0.5, Lcut=2.0, R=4.0))
    rep = adjoint_dissipativity_check(B, WeightSpec(p=2, q=0.4), b=-0.1,
                                      alpha=1.0, probes=16)
    assert rep["pass"]
    with pytest.raises(ValueError):
        adjoint_dissipativity_check(B, WeightSpec(p=2, q=0.6), b=0.0, alpha=1.0)


def test_regularization_two_fold_decays_one_fold_blows_up():
    A, B = assemble_splitting(Classical(), GRID, ClassicalSplitting(M=10.0, R=6.0))
    rep2 = regularization_norm(A, B, n_conv=2, t_grid=[1.0, 3.0, 6.0],
                               source=WeightSpec(p=2, q=1),
                               target=WeightSpec(p=2, q=1, s=1), probes=8)
    assert rep2["fitted_rate"] <= -0.3
    gf = make_grid(30.0, 513)
    Af, Bf = assemble_splitting(Fractional(alpha=1.0), gf,
                                ClassicalSplitting(M=10.0, R=6.0))
    rep1 = regularization_norm(Af, Bf, n_conv=1, t_grid=[0.01, 1.0],
                               source=WeightSpec(p=1), target=WeightSpec(p=2),
                               probes=8, include_sharp=True)
    assert rep1["rows"][0]["norm"] >= 10.0 * rep1["rows"][1]["norm"]


def test_regularization_time_zero_is_bounded_part_norm():
    A, B = assemble_splitting(Classical(), GRID, ClassicalSplitting(M=10.0, R=6.0))
    rep = regularization_norm(A, B, n_conv=1, t_grid=[0.0],
                              source=WeightSpec(p=2), target=WeightSpec(p=2),
                              probes=8)
    assert np.isfinite(rep["rows"][0]["norm"])
    assert rep["rows"][0]["norm"] <= 10.0 + 1e-9  # multiplier bound M


def test_regularization_multiplier_part_is_never_dense(monkeypatch):
    # A runs on its parts and e^{ds B} on the folded parts of the chain B
    def refuse(self):
        raise AssertionError(f"dense entries formed for {self.label}")

    monkeypatch.setattr(OperatorMatrix, "entries", property(refuse))
    grid = make_grid(12.0, 257)
    A, B = assemble_splitting(Classical(), grid, ClassicalSplitting(M=10.0, R=6.0))
    for n_conv in (1, 2):
        rep = regularization_norm(A, B, n_conv=n_conv, t_grid=[1.0, 2.0],
                                  source=WeightSpec(p=2, q=1),
                                  target=WeightSpec(p=2, q=1, s=1), probes=8)
        assert all(np.isfinite(row["norm"]) and row["norm"] > 0.0 for row in rep["rows"])


@pytest.mark.parametrize("n_conv", [1, 2])
def test_regularization_horner_matches_explicit_operator(n_conv):
    grid = make_grid(12.0, 65)
    A, B = assemble_splitting(Classical(), grid, ClassicalSplitting(M=10.0, R=6.0))
    source, target = WeightSpec(p=2, q=1), WeightSpec(p=2, q=1, s=1)
    n_quad = 64
    ts = [0.0, 1.0, 3.0]
    rep = regularization_norm(A, B, n_conv=n_conv, t_grid=ts, source=source,
                              target=target, n_quad=n_quad)
    fields = probe_family(grid, count=32, seed=0)
    for t, row in zip(ts, rep["rows"]):
        # the n x n operator the trapezoid sum defines, formed explicitly
        if n_conv == 1:
            T = A.entries @ sla.expm(t * B.entries)
        else:
            ds = t / n_quad
            E = sla.expm(ds * B.entries)
            T1 = [A.entries @ np.linalg.matrix_power(E, k) for k in range(n_quad + 1)]
            T = np.zeros_like(A.entries)
            for k in range(n_quad + 1):
                wk = 0.5 if k in (0, n_quad) else 1.0
                T += wk * (T1[n_quad - k] @ T1[k])
            T *= ds
        ref = max(weighted_norm(Field(grid, T @ f.values), target) / weighted_norm(f, source)
                  for f in fields)
        assert abs(row["norm"] - ref) <= 1e-12 * ref
        assert (ref > 0.0) == (t > 0.0 or n_conv == 1)


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
def test_fractional_sobolev_identity(alpha):
    grid = make_grid(25.0, 1025)
    f = gaussian_density(grid)
    rep = fractional_sobolev_block(_column(f), grid, alpha)
    assert rep["pass"][0], rep
