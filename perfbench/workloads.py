"""The benchmark's three workloads, one pass each.

A pass is a list of named stages.  Each stage returns ``(passed, observables)``
where ``observables`` maps names to the numbers the stage produced; the
runner compares them with ``reference.json``.  fplab functions are always
reached through their module attribute at call time (``operators.assemble``),
so that a tracer installed after import sees every call.
"""

from __future__ import annotations

import csv
import json
import os
import time

import numpy as np

from fplab import acceptance, cli, grids, operators, semigroup, spectra, splitting
from fplab.grids import Field, WeightSpec
from fplab.semigroup import EvolveSpec

# Inputs a seed chooses from (index seed % 5; the CLI checks take --seed
# seed % 8).  The sets are finite so that every input has reference values
# recorded from a known-good commit.
DC_EPS = (0.40, 0.45, 0.50, 0.55, 0.60)      # DiscreteClassical eps, L = 12
FRAC_ALPHA = (1.0, 1.2, 1.4, 1.6, 1.8)       # Fractional alpha, L = 60
DF_EPS = (0.10, 0.15, 0.20, 0.25, 0.30)      # DiscreteFractional eps, alpha = 1, L = 12.8
CLI_SEEDS = 8                                # --seed values 0..7 for the CLI checks

PROFILES = {
    # sizes measured by the benchmark
    "full": {
        "criteria": ("classical-equilibrium", "classical-spectrum", "operator-convergence",
                     "fourier-kernel-inequality", "dissipativity", "positivity-and-mass"),
        "projector": (257, (0.8, 0.4, 0.2)),
        "refine_n": (513, 1025),
        "verify_n": 513,
        "regularization_n": 257,
        "converge": (1921, ("0.4", "0.2", "0.1")),
        "df_split": ("0.1", 1025),
        "paths": (100000, 20000),
        "oracle_n": 513,
    },
    # tiny sizes for the harness self-check
    "tiny": {
        "criteria": ("classical-equilibrium", "classical-spectrum"),
        "projector": (257, (0.8, 0.4, 0.2)),
        "refine_n": (513,),
        "verify_n": 513,
        "regularization_n": 65,
        "converge": (257, ("1.6", "0.8")),
        "df_split": ("0.4", 257),
        "paths": (1000, 1000),
        "oracle_n": 513,
    },
}


# ---------------------------------------------------------------------------
# helpers


def flatten(obj, prefix: str = "") -> dict:
    """Numeric leaves of nested dicts/lists as {"a.b[0]": value}; booleans,
    strings and None are skipped."""
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(flatten(v, f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.update(flatten(v, f"{prefix}[{i}]"))
    elif isinstance(obj, (int, float, np.integer, np.floating)) and not isinstance(obj, bool):
        out[prefix] = float(obj)
    return out


def _pick(seed: int) -> dict:
    i = seed % len(DC_EPS)
    return {"dc_eps": DC_EPS[i], "frac_alpha": FRAC_ALPHA[i], "df_eps": DF_EPS[i],
            "cli_seed": seed % CLI_SEEDS}


# ---------------------------------------------------------------------------
# acceptance: package criteria, as ``fplab accept`` runs them


def _criterion(name: str):
    by_name = {
        "classical-equilibrium": "criterion_1", "classical-spectrum": "criterion_2",
        "uniform-fractional-gap": "criterion_3", "discrete-to-classical": "criterion_4",
        "operator-convergence": "criterion_5", "fourier-kernel-inequality": "criterion_6",
        "dissipativity": "criterion_7", "regularization": "criterion_8",
        "positivity-and-mass": "criterion_9", "projector-perturbation": "criterion_10",
        "wasserstein-contraction": "criterion_11", "gap-vs-decay-consistency": "criterion_12",
    }
    attr = by_name[name]

    def run():
        res = getattr(acceptance, attr)()
        if res["name"] != name:
            raise LookupError(f"{attr} is {res['name']!r}, expected {name!r}")
        return res["pass"], flatten({k: v for k, v in res.items() if k != "name"})

    return run


def _projector_perturbation(n: int, eps_list: tuple):
    """Criterion 10 (projector-perturbation) on a coarser grid: the package
    criterion takes ~70 s at n = 1025, beyond one benchmark run."""
    def run():
        g = grids.make_grid(12.8, n)
        m0 = operators.Fractional(alpha=1.0, constant=1.0)
        p0 = spectra.spectral_projector(operators.assemble(m0, g), radius=0.5)
        ranks, dists = [], []
        for eps in eps_list:
            model = operators.DiscreteFractional(eps=eps, alpha=1.0)
            pe = spectra.spectral_projector(operators.assemble(model, g), radius=0.5)
            ranks.append(pe.rank)
            dists.append(spectra.projector_distance(pe, p0, g))
        zs = [0.5 * np.exp(1j * 2.0 * np.pi * (k + 0.5) / 8) for k in range(8)]
        cert = spectra.perturbation_certificate(
            operators.DiscreteFractional(eps=eps_list[-1], alpha=1.0), m0, g,
            splitting.FractionalSplitting(eta=eps_list[-1], Lcut=1.0, R=2.0), zs)
        ok = (all(r == 1 for r in ranks) and dists[0] > dists[1] > dists[2]
              and cert["pass"])
        return ok, flatten({"distances": dists,
                            "certificate_norms": [r["norm"] for r in cert["rows"]]})

    return run


def acceptance_stages(seed: int, size: dict, workdir: str) -> list:
    n, eps_list = size["projector"]
    return ([(name, _criterion(name)) for name in size["criteria"]]
            + [(f"projector-perturbation-n{n}", _projector_perturbation(n, eps_list))])


# ---------------------------------------------------------------------------
# refine: dense operator pipeline at growing n


def _refine_point(model, L: float, n: int, w: WeightSpec):
    def run():
        grid = grids.make_grid(L, n)
        op = operators.assemble(model, grid)
        G = semigroup.steady_state(op)
        rep = spectra.eigen_spectrum(op, k_leading=4)
        dec = semigroup.decay_rate(op, grids.gaussian_density(grid, 1.0, 1.0), w,
                                   EvolveSpec(t_end=4.0, dt=0.05, scheme="ExactExpm"),
                                   equilibrium=G)
        f0 = grids.gaussian_density(grid, 0.5, 1.0)
        m0 = grids.mass(f0)
        traj = semigroup.evolve(op, f0, EvolveSpec(t_end=0.5, dt=0.01, scheme="BackwardEuler",
                                                   record_every=10))
        mass_defect = max(abs(grids.mass(f) - m0) for _, f in traj)
        worst_min = min(float(f.values.min()) for _, f in traj)
        obs = {
            "gap": rep.gap,
            "rate": dec.fitted_rate,
            "gap_rate_margin_used": abs(rep.gap - dec.fitted_rate) / 0.1,
            "steady_max": float(G.values.max()),
            "steady_second_moment": float(np.sum(op.grid.cell_sizes * op.grid.nodes**2 * G.values)),
            "mass_defect": mass_defect,
            "final_l2": float(np.linalg.norm(traj[-1][1].values)),
        }
        obs.update({f"eig{i}": float(v) for i, v in enumerate(rep.eigenvalues.real[1:4], 1)})
        ok = (bool(np.all(G.values[1:-1] > 0.0)) and rep.gap < 0.0
              and obs["gap_rate_margin_used"] <= 1.0
              and mass_defect <= 1e-12 and worst_min >= -1e-12)
        return ok, obs

    return run


def refine_stages(seed: int, size: dict, workdir: str) -> list:
    p = _pick(seed)
    families = [
        ("classical", operators.Classical(), 12.0, WeightSpec(p=1, q=1)),
        (f"discrete-classical:{p['dc_eps']}", operators.DiscreteClassical(eps=p["dc_eps"]), 12.0,
         WeightSpec(p=1, q=1)),
        (f"fractional:{p['frac_alpha']}", operators.Fractional(alpha=p["frac_alpha"]), 60.0,
         WeightSpec(p=1, q=0)),
        (f"discrete-fractional:{p['df_eps']},1.0",
         operators.DiscreteFractional(eps=p["df_eps"], alpha=1.0), 12.8, WeightSpec(p=1, q=0)),
    ]
    return [(f"{label}/n={n}", _refine_point(model, L, n, w))
            for n in size["refine_n"] for label, model, L, w in families]


# ---------------------------------------------------------------------------
# checks: the CLI's verify, converge and sde subcommands plus the oracle


class CliExit(RuntimeError):
    """The CLI returned a usage (2) or numerical-failure (3) exit code."""


def _cli(argv: list, outdir: str, outputs: tuple):
    def run():
        rc = cli.main(argv + ["--outdir", outdir])
        if rc not in (0, 1):
            raise CliExit(f"fplab {argv[0]} exited with code {rc}")
        obs = {}
        for name in outputs:
            path = os.path.join(outdir, name)
            if name.endswith(".json"):
                with open(path) as fh:
                    obs.update(flatten(json.load(fh)))
            else:
                with open(path, newline="") as fh:
                    rows = [[float(v) for v in row] for row in csv.reader(fh)
                            if row and _is_number(row[0])]
                arr = np.array(rows)
                obs.update({"csv_rows": float(arr.shape[0]), "csv_sum": float(arr.sum()),
                            "csv_abs_sum": float(np.abs(arr).sum())})
        return rc == 0, obs

    return run


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _oracle(model, L: float, n: int, tol: float):
    def run():
        grid = grids.make_grid(L, n)
        G = semigroup.steady_state(operators.assemble(model, grid))
        O = semigroup.fourier_steady_oracle(model, grid)
        dist = grids.weighted_norm(Field(grid, G.values - O.values), WeightSpec(p=1))
        return dist <= tol, {"l1_distance": dist, "oracle_max": float(O.values.max())}

    return run


def checks_stages(seed: int, size: dict, workdir: str) -> list:
    s = str(_pick(seed)["cli_seed"])
    n, nr, on = str(size["verify_n"]), str(size["regularization_n"]), size["oracle_n"]
    nc, eps_c = size["converge"]
    df_eps, nd = size["df_split"]
    paths_stable, paths_compound = (str(p) for p in size["paths"])

    def d(name):
        return os.path.join(workdir, name)

    verify = ["verify", "--seed", s, "--L", "12", "--n", n, "--check"]
    sde = ["sde", "--seed", s, "--t-end", "2", "--dt", "0.5", "--noise"]
    checks = [
        ("verify-dirichlet", _cli(verify + ["dirichlet"], d("dirichlet"), ("dirichlet.json",))),
        ("verify-gradient-bound", _cli(verify + ["gradient-bound"], d("gradient"),
                                       ("gradient_bound.json",))),
        ("verify-sobolev-id", _cli(verify + ["sobolev-id", "--model", "fractional:1.5"],
                                   d("sobolev"), ("sobolev_id.json",))),
        ("verify-psi", _cli(verify + ["psi"], d("psi"), ("psi.json", "psi_profile.csv"))),
        ("verify-dissipativity-classical",
         _cli(verify + ["dissipativity", "--weight", "1,1", "--splitting", "classical:10,6"],
              d("diss-classical"), ("dissipativity.json",))),
        ("verify-dissipativity-five-part",
         _cli(["verify", "--seed", s, "--check", "dissipativity", "--model",
               f"discrete-fractional:{df_eps},1", "--splitting", "fractional:0.5,2,4",
               "--weight", "1,0.4", "--a-target", "-0.2", "--L", "25.6", "--n", str(nd)],
              d("diss-five"), ("dissipativity.json",))),
        ("verify-adjoint",
         _cli(["verify", "--seed", s, "--check", "adjoint", "--model",
               f"discrete-fractional:{df_eps},1", "--splitting", "fractional:0.5,2,4",
               "--weight", "2,0.4", "--a-target", "-0.1", "--L", "25.6", "--n", str(nd)],
              d("adjoint"), ("adjoint.json",))),
        ("verify-regularization",
         _cli(["verify", "--seed", s, "--check", "regularization", "--L", "12", "--n", nr],
              d("regularization"), ("regularization.json",))),
        ("converge",
         _cli(["converge", "--model", f"discrete-classical:{eps_c[0]}", "--limit", "classical",
               "--weight", "2,1,3", "--params", *eps_c, "--L", "12", "--n", str(nc),
               "--oscillatory", "12"], d("converge"), ("convergence.json",))),
        ("sde-wasserstein-stable", _cli(sde + ["stable:1.5", "--check", "wasserstein",
                                               "--n-paths", paths_stable], d("w-stable"),
                                        ("wasserstein.json",))),
        ("sde-wasserstein-compound", _cli(sde + ["compound:0.2", "--check", "wasserstein",
                                                 "--n-paths", paths_compound], d("w-compound"),
                                          ("wasserstein.json",))),
        ("sde-coupling", _cli(sde + ["stable:1.2", "--check", "coupling", "--n-paths", "100"],
                              d("coupling"), ("coupling.json",))),
        ("sde-ensemble", _cli(sde + ["stable:1.5", "--check", "ensemble",
                                "--n-paths", paths_stable],
                              d("ensemble"), ("ensemble.csv",))),
        ("oracle-classical", _oracle(operators.Classical(), 12.0, on, 1e-12)),
        ("oracle-discrete-classical", _oracle(operators.DiscreteClassical(eps=0.4), 12.0, on,
                                              5e-2)),
        ("oracle-fractional", _oracle(operators.Fractional(alpha=1.5), 60.0, on, 2e-2)),
    ]
    return [(f"seed={s}/{name}", fn) for name, fn in checks]


STAGES = {"acceptance": acceptance_stages, "refine": refine_stages, "checks": checks_stages}


def stages(workload: str, seed: int, profile: str, workdir: str) -> list:
    """[(stage name, callable)] for one pass of ``workload``."""
    return STAGES[workload](seed, PROFILES[profile], workdir)


def run_pass(workload: str, seed: int, profile: str, workdir: str) -> list:
    """Run every stage, keeping going after a failure; each record carries the
    stage's pass flag, observables, seconds and, if it raised, the exception
    type and the stage it was raised in."""
    records = []
    for name, fn in stages(workload, seed, profile, workdir):
        t0 = time.perf_counter()
        rec = {"stage": name, "pass": False, "observables": {}, "error": None}
        try:
            ok, obs = fn()
            rec["pass"], rec["observables"] = bool(ok), obs
        except Exception as exc:  # recorded and counted as a failed check
            rec["error"] = {"type": type(exc).__name__, "stage": name, "message": str(exc)}
        rec["seconds"] = time.perf_counter() - t0
        records.append(rec)
    return records
