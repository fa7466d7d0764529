"""The acceptance suite: twelve quantitative checks tying every module to its
oracle (sampled Gaussian equilibrium, Fourier-side eigenfunctions with
eigenvalues 0, -1, -2, ..., closed-form kernel transforms, and exact pathwise
coupling).  Each criterion returns a dict with a ``pass`` flag and the
numbers behind it; ``run_all`` aggregates them.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np

from .fourier import power_spectra
from .grids import Field, WeightSpec, gaussian_density, make_grid, weighted_norm
from .inequalities import (
    dirichlet_form_block,
    dissipativity_check,
    gradient_convolution_block,
    psi_constant,
    psi_profile,
    regularization_norm,
)
from .kernels import fourier_ratio_constant, gaussian_reference_kernel, rescale
from .operators import (
    Classical,
    DiscreteClassical,
    DiscreteFractional,
    Fractional,
    OperatorMatrix,
    assemble,
    operator_distance,
)
from .probes import probe_block
from .sde import (
    AlphaStable,
    CompoundPoisson,
    JumpOuSpec,
    coupled_decay,
    wasserstein_contraction_check,
)
from .semigroup import EvolveSpec, decay_rate, evolve_block, steady_state
from .spectra import (
    SpectrumReport,
    eigen_spectrum,
    fourier_side_generator,
    perturbation_certificate,
    projector_distance,
    spectral_projector,
)
from .splitting import ClassicalSplitting, FractionalSplitting, assemble_splitting


# ---------------------------------------------------------------------------
# shared expensive objects


@lru_cache(maxsize=None)
def _shared_op(which: str, param: float) -> OperatorMatrix:
    """An operator shared by criteria 1, 2, 4 and 12: Classical at n = 1025,
    DiscreteClassical(eps = param) at h = eps/8, Fractional(alpha = param)
    at n = 2049."""
    if which == "classical":
        return assemble(Classical(), make_grid(12.0, 1025))
    if which == "discrete-classical":
        n = int(round(192.0 / param)) + 1  # h = eps/8 exactly at L = 12
        return assemble(DiscreteClassical(eps=param), make_grid(12.0, n))
    return assemble(Fractional(alpha=param), make_grid(60.0, 2049))


@lru_cache(maxsize=None)
def _spectrum(which: str, param: float) -> SpectrumReport:
    """Spectrum report of a shared operator, solved once for criteria 2-4 and 12."""
    return eigen_spectrum(_shared_op(which, param))


@lru_cache(maxsize=None)
def _fitted_rate(which: str, param: float) -> float:
    """Decay-rate fit on the same operator used for the gap computations."""
    op = _shared_op(which, param)
    local = which in ("classical", "discrete-classical")
    w = WeightSpec(p=1, q=1) if local else WeightSpec(p=1, q=0)
    g = op.grid
    f0 = gaussian_density(g, 1.0, 1.0)
    spec = EvolveSpec(t_end=4.0, dt=0.05, scheme="ExactExpm")
    rep = decay_rate(op, f0, w, spec, equilibrium=steady_state(op))
    return rep.fitted_rate


# ---------------------------------------------------------------------------
# criteria


def criterion_1() -> dict:
    """Local-diffusion equilibrium matches the sampled standard Gaussian."""
    op = _shared_op("classical", 0.0)
    G = steady_state(op)
    err = weighted_norm(
        Field(op.grid, G.values - gaussian_density(op.grid, 1.0, 0.0).values),
        WeightSpec(p=1),
    )
    return {"name": "classical-equilibrium", "l1_error": err, "pass": bool(err <= 1e-6)}


def criterion_2() -> dict:
    """Local-diffusion spectrum matches the integer ladder 0, -1, -2, -3."""
    rep = _spectrum("classical", 0.0)
    target = np.array([0.0, -1.0, -2.0, -3.0])
    offs = np.abs(rep.eigenvalues.real[:4] - target)
    return {
        "name": "classical-spectrum",
        "eigenvalues": [float(v) for v in rep.eigenvalues.real[:4]],
        "max_offset": float(offs.max()),
        "pass": bool(offs.max() <= 1e-3),
    }


def criterion_3() -> dict:
    """Uniform spectral gap of the power-law family across orders."""
    fgaps = {}
    ok = True
    for al in (0.6, 1.0, 1.4, 1.8):
        gap = eigen_spectrum(fourier_side_generator(al, 30.0, 2049)).gap
        fgaps[al] = gap
        ok = ok and (-1.1 <= gap <= -0.85)
    pgaps = {}
    for al in (1.0, 1.5):
        gap = _spectrum("fractional", al).gap
        pgaps[al] = gap
        ok = ok and (abs(gap + 1.0) <= 0.15)
    return {
        "name": "uniform-fractional-gap",
        "fourier_side_gaps": fgaps,
        "physical_gaps": pgaps,
        "pass": bool(ok),
    }


def criterion_4() -> dict:
    """Smooth-kernel jump family: gap and equilibrium converge to the local
    limit as the kernel scale shrinks, with uniform decay rates."""
    eps_list = (0.4, 0.2, 0.1)
    gap_offsets, steady_errs, rates = [], [], []
    for eps in eps_list:
        op = _shared_op("discrete-classical", eps)
        gap_offsets.append(abs(_spectrum("discrete-classical", eps).gap + 1.0))
        G = steady_state(op)
        diff = G.values - gaussian_density(op.grid, 1.0, 0.0).values
        steady_errs.append(weighted_norm(Field(op.grid, diff), WeightSpec(p=1)))
        rates.append(_fitted_rate("discrete-classical", eps))
    slope = float(np.polyfit(np.log(eps_list), np.log(steady_errs), 1)[0])
    ok = (
        gap_offsets[0] > gap_offsets[1] > gap_offsets[2]
        and gap_offsets[2] <= 0.05
        and slope >= 0.8
        and max(rates) <= -0.8
    )
    return {
        "name": "discrete-to-classical",
        "gap_offsets": gap_offsets,
        "steady_errors": steady_errs,
        "steady_slope": slope,
        "decay_rates": rates,
        "pass": bool(ok),
    }


def criterion_5() -> dict:
    """Operator convergence: O(eps) distance slope for the smooth-kernel
    family, monotone decrease for the truncated power-law family."""
    g = make_grid(12.0, 1921)
    src = WeightSpec(p=2, q=1, s=3)
    tgt = WeightSpec(p=2, q=1)
    m0 = assemble(Classical(), g)
    eps_list = (0.4, 0.2, 0.1)
    dists = [
        operator_distance(assemble(DiscreteClassical(eps=e), g), m0, src, tgt,
                          probes=32, oscillatory=12)
        for e in eps_list
    ]
    slope = float(np.polyfit(np.log(eps_list), np.log(dists), 1)[0])
    g2 = make_grid(25.6, 2049)
    f0 = assemble(Fractional(alpha=1.0, constant=1.0), g2)
    src2 = WeightSpec(p=2, q=1, s=2)
    df = [
        operator_distance(assemble(DiscreteFractional(eps=e, alpha=1.0), g2),
                          f0, src2, tgt, probes=32)
        for e in (0.2, 0.1, 0.05)
    ]
    ok = 0.7 <= slope <= 1.3 and df[0] > df[1] > df[2]
    return {
        "name": "operator-convergence",
        "distances": dists,
        "slope": slope,
        "fractional_distances": df,
        "pass": bool(ok),
    }


def criterion_6() -> dict:
    """Fourier kernel inequality with the computed ratio constant; the two
    Dirichlet-form paths agree to 1e-8 relative (their worst gap is
    reported)."""
    k = gaussian_reference_kernel()
    K = fourier_ratio_constant(k).value
    g = make_grid(12.0, 513)
    # one probe family and one transform of its block for the three eps
    spectra = power_spectra(probe_block(g, count=100, seed=6), g)
    failures = 0
    total = 0
    worst = 0.0
    for eps in (0.5, 0.25, 0.1):
        rep = gradient_convolution_block(spectra, k, eps, K)
        failures += int(np.count_nonzero(~rep["pass"]))
        total += rep["pass"].size
        worst = max(worst, float(rep["ratio"].max()))
    del spectra
    a, b = dirichlet_form_block(probe_block(g, count=10, seed=7), g, k, 0.5)
    gap = float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300)))
    dirichlet_ok = gap <= 1e-8
    ok = K <= 1.2 and failures == 0 and dirichlet_ok
    return {
        "name": "fourier-kernel-inequality",
        "K_star": K,
        "gradient_failures": failures,
        "gradient_total": total,
        "worst_ratio": worst,
        "dirichlet_paths_agree": dirichlet_ok,
        "dirichlet_worst_gap": gap,
        "pass": bool(ok),
    }


def criterion_7() -> dict:
    """Dissipativity of the remainder parts: profile bound, probe energy
    inequality for both splitting schemes, monotone PASS in the target."""
    k = gaussian_reference_kernel()
    g = make_grid(12.0, 1025)
    C = psi_constant(k, q=1.0, p=1)
    prof = psi_profile(g, eps=0.05, M=10.0, R=6.0, p=1, q=1.0, C_bound=C)
    # report the threshold where the profile bound stops holding
    eps0 = 0.0
    for e in np.linspace(0.0, 1.0, 101):
        if psi_profile(g, eps=float(e), M=10.0, R=6.0, p=1, q=1.0, C_bound=C).sup <= -0.5:
            eps0 = float(e)
    classical_reports = {}
    ok = prof.sup <= -0.5
    for p in (1, 2):
        _, B = assemble_splitting(Classical(), g, ClassicalSplitting(M=10.0, R=6.0))
        rep = dissipativity_check(B, WeightSpec(p=p, q=1.0), a=-0.5)
        classical_reports[p] = rep.worst_ratio
        ok = ok and rep.passed
        # monotonicity of PASS in the target
        ok = ok and dissipativity_check(B, WeightSpec(p=p, q=1.0), a=-0.25).passed
    five = {}
    for eps, grid in ((0.05, make_grid(25.6, 2049)), (0.02, make_grid(10.24, 2049))):
        _, B = assemble_splitting(
            DiscreteFractional(eps=eps, alpha=1.0), grid,
            FractionalSplitting(eta=0.5, Lcut=2.0, R=4.0),
        )
        rep = dissipativity_check(B, WeightSpec(p=1, q=0.4), a=-0.2)
        five[eps] = rep.worst_ratio
        ok = ok and rep.passed
    return {
        "name": "dissipativity",
        "psi_sup": prof.sup,
        "psi_C": C,
        "eps0_threshold": eps0,
        "classical_worst": classical_reports,
        "five_part_worst": five,
        "pass": bool(ok),
    }


def criterion_8() -> dict:
    """Regularization of the iterated bounded-part/semigroup convolution and
    the short-time smoothing blowup of the one-fold map."""
    g = make_grid(12.0, 513)
    A, B = assemble_splitting(Classical(), g, ClassicalSplitting(M=10.0, R=6.0))
    rep2 = regularization_norm(A, B, n_conv=2, t_grid=[1.0, 2.0, 4.0, 6.0],
                               source=WeightSpec(p=2, q=1), target=WeightSpec(p=2, q=1, s=1))
    gf = make_grid(30.0, 1025)
    Af, Bf = assemble_splitting(Fractional(alpha=1.0), gf, ClassicalSplitting(M=10.0, R=6.0))
    rep1 = regularization_norm(Af, Bf, n_conv=1, t_grid=[0.01, 1.0],
                               source=WeightSpec(p=1), target=WeightSpec(p=2),
                               include_sharp=True)
    blowup = rep1["rows"][0]["norm"] / max(rep1["rows"][1]["norm"], 1e-300)
    ok = rep2["fitted_rate"] <= -0.3 and blowup >= 10.0
    return {
        "name": "regularization",
        "two_fold_rate": rep2["fitted_rate"],
        "blowup_ratio": blowup,
        "pass": bool(ok),
    }


def criterion_9() -> dict:
    """Trajectory positivity and exact mass conservation for all four
    families; strict positivity of every steady state."""
    cases = [
        (Classical(), make_grid(12.0, 513), 0.01),
        (DiscreteClassical(eps=0.2), make_grid(12.0, 961), 0.02),
        (Fractional(alpha=1.5), make_grid(12.0, 513), 0.01),
        (DiscreteFractional(eps=0.2, alpha=1.0), make_grid(12.0, 513), 0.01),
    ]
    worst_mass, worst_min = 0.0, 0.0
    steady_pos = True
    count = 0
    for model, g, dt in cases:
        op = assemble(model, g)
        G = steady_state(op)
        steady_pos = steady_pos and bool(np.all(G.values[1:-1] > 0.0))
        # the five probes evolve as one block through one factorization
        F0 = np.abs(probe_block(g, count=5, seed=9))
        m0 = g.cell_sizes @ F0
        traj = evolve_block(op, F0, EvolveSpec(t_end=0.5, dt=dt, scheme="BackwardEuler",
                                               record_every=10))
        count += F0.shape[1]
        for _, F in traj:
            worst_mass = max(worst_mass, float(np.abs(g.cell_sizes @ F - m0).max()))
            worst_min = min(worst_min, float(F.min()))
    ok = worst_mass <= 1e-12 and worst_min >= -1e-12 and steady_pos
    return {
        "name": "positivity-and-mass",
        "trajectories": count,
        "worst_mass_drift": worst_mass,
        "worst_min": worst_min,
        "steady_states_positive": steady_pos,
        "pass": bool(ok),
    }


def criterion_10() -> dict:
    """Rank-1 spectral projectors, their convergence as the kernel truncation
    is removed, and smallness of the resolvent-perturbation operator."""
    g = make_grid(12.8, 1025)
    m0 = Fractional(alpha=1.0, constant=1.0)
    p0 = spectral_projector(assemble(m0, g), radius=0.5)
    pes = [spectral_projector(assemble(DiscreteFractional(eps=eps, alpha=1.0), g),
                              radius=0.5)
           for eps in (0.2, 0.1, 0.05)]
    dists = [projector_distance(pe, p0, g) for pe in pes]
    zs = [0.5 * np.exp(1j * 2.0 * np.pi * (k + 0.5) / 8) for k in range(8)]
    cert = perturbation_certificate(
        DiscreteFractional(eps=0.05, alpha=1.0), m0, g,
        FractionalSplitting(eta=0.1, Lcut=1.0, R=2.0), zs,
    )
    ok = dists[0] > dists[1] > dists[2] and cert["pass"]
    return {
        "name": "projector-perturbation",
        "distances": dists,
        "certificate_worst": cert["worst_norm"],
        "contour_margin_min": min(p.contour_margin for p in [p0, *pes]),
        "projector_norm_max": max(p.norm for p in [p0, *pes]),
        "pass": bool(ok),
    }


def criterion_11() -> dict:
    """Pathwise coupling exactness and empirical Wasserstein contraction."""
    keps = rescale(gaussian_reference_kernel(), 0.2)
    noises = {"stable:1.2": AlphaStable(alpha=1.2), "stable:1.5": AlphaStable(alpha=1.5),
              "compound:0.2": CompoundPoisson(kernel=keps, rate_scale=1.0 / 0.04)}
    ok = True
    coupled_errs, w1 = {}, {}
    for name, noise in noises.items():
        # seeds 11 / 13 for the stable noises, 12 / 14 for the compound one
        seed = 11 if isinstance(noise, AlphaStable) else 12
        spec = JumpOuSpec(noise=noise, t_end=2.0, n_paths=100, seed=seed, dt_record=0.5)
        r = coupled_decay(spec, 1.0, 0.0)
        coupled_errs[name] = r["max_error"]
        spec = JumpOuSpec(noise=noise, t_end=2.0, n_paths=100000, seed=seed + 2,
                          dt_record=0.5)
        rep = wasserstein_contraction_check(spec, lambda r_, n_: np.full(n_, 3.0),
                                            [0.5, 1.0, 2.0])
        w1[name] = rep["pass"]
        ok = ok and r["pass"] and rep["pass"]
    return {
        "name": "wasserstein-contraction",
        "coupled_errors": coupled_errs,
        "w1_pass": w1,
        "pass": bool(ok),
    }


def criterion_12() -> dict:
    """Spectral gaps and fitted decay rates agree on the same operators."""
    rows = []
    ok = True
    checks = [("classical", 0.0)]
    checks += [("discrete-classical", e) for e in (0.4, 0.2, 0.1)]
    checks += [("fractional", a) for a in (1.0, 1.5)]
    for which, param in checks:
        gap = _spectrum(which, param).gap
        rate = _fitted_rate(which, param)
        rows.append({"model": which, "param": param, "gap": gap, "rate": rate})
        ok = ok and abs(gap - rate) <= 0.1
    return {"name": "gap-vs-decay-consistency", "rows": rows, "pass": bool(ok)}


CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12,
]


def run_all(progress: bool = False) -> dict:
    """Every criterion, each with its wall time ``elapsed_s``, and the
    ``slowest`` one as (name, seconds)."""
    results = []
    for fn in CRITERIA:
        start = time.perf_counter()
        try:
            res = fn()
        except Exception as exc:
            res = {"name": fn.__name__, "pass": False,
                   "error": {"type": type(exc).__name__, "message": str(exc)}}
        res["elapsed_s"] = time.perf_counter() - start
        if progress:
            print(f"{res['name']}: {'PASS' if res['pass'] else 'FAIL'}"
                  f" ({res['elapsed_s']:.1f} s)", flush=True)
        results.append(res)
    slowest = max(results, key=lambda r: r["elapsed_s"])
    return {"results": results, "pass": bool(all(r["pass"] for r in results)),
            "slowest": [slowest["name"], slowest["elapsed_s"]]}
