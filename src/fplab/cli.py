"""Command-line front end.

Subcommands: steady, spectrum, gap-sweep, decay, converge, verify, sde,
accept.  Exit codes: 0 check PASS / nothing to check, 1 check FAIL,
2 usage or configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import acceptance
from .config import RunConfig
from .grids import WeightSpec, field_to_csv, gaussian_density, make_grid
from .inequalities import (
    adjoint_dissipativity_check,
    dirichlet_form,
    dissipativity_check,
    fractional_sobolev_check,
    gradient_convolution_check,
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
    assemble,
    operator_distance,
)
from .probes import probe_family
from .sde import (
    AlphaStable,
    CompoundPoisson,
    JumpOuSpec,
    coupled_decay,
    ensemble_to_csv,
    simulate,
    wasserstein_contraction_check,
)
from .semigroup import EvolveSpec, decay_rate, steady_state, uniform_decay_sweep
from .splitting import ClassicalSplitting, FractionalSplitting, assemble_splitting
from .spectra import (
    eigen_spectrum,
    eigenvalues_to_csv,
    fourier_side_generator,
    gap_sweep,
)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing helpers


def parse_model(text: str):
    """classical | discrete-classical:EPS | fractional:ALPHA |
    fractional-raw:ALPHA | discrete-fractional:EPS,ALPHA"""
    name, _, args = text.partition(":")
    try:
        if name == "classical":
            return Classical()
        if name == "discrete-classical":
            return DiscreteClassical(eps=float(args))
        if name == "fractional":
            return Fractional(alpha=float(args))
        if name == "fractional-raw":
            return Fractional(alpha=float(args), constant=1.0)
        if name == "discrete-fractional":
            eps, alpha = (float(v) for v in args.split(","))
            return DiscreteFractional(eps=eps, alpha=alpha)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad model string {text!r}: {exc}") from exc
    raise UsageError(f"unknown model {name!r}")


def parse_weight(text: str) -> WeightSpec:
    try:
        parts = [float(v) for v in text.split(",")]
        if len(parts) == 2:
            return WeightSpec(p=int(parts[0]), q=parts[1])
        if len(parts) == 3:
            return WeightSpec(p=int(parts[0]), q=parts[1], s=int(parts[2]))
    except ValueError as exc:
        raise UsageError(f"bad weight string {text!r}: {exc}") from exc
    raise UsageError("weight must be 'p,q' or 'p,q,s'")


def parse_splitting(text: str):
    name, _, args = text.partition(":")
    try:
        vals = [float(v) for v in args.split(",")]
        if name == "classical" and len(vals) == 2:
            return ClassicalSplitting(M=vals[0], R=vals[1])
        if name == "fractional" and len(vals) == 3:
            return FractionalSplitting(eta=vals[0], Lcut=vals[1], R=vals[2])
    except ValueError as exc:
        raise UsageError(f"bad splitting string {text!r}: {exc}") from exc
    raise UsageError("splitting must be classical:M,R or fractional:ETA,LCUT,R")


def parse_noise(text: str):
    name, _, args = text.partition(":")
    try:
        if name == "stable":
            return AlphaStable(alpha=float(args))
        if name == "compound":
            eps = float(args)
            return CompoundPoisson(kernel=rescale(gaussian_reference_kernel(), eps),
                                   rate_scale=1.0 / eps**2)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad noise string {text!r}: {exc}") from exc
    raise UsageError("noise must be stable:ALPHA or compound:EPS")


def _resolve(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {
        k: getattr(args, k)
        for k in ("model", "L", "n", "weight", "splitting", "gap_target",
                  "a_target", "seed", "n_paths", "t_end", "dt", "scheme", "outdir")
        if hasattr(args, k)
    }
    if hasattr(args, "params") and args.params:
        overrides["params"] = [float(v) for v in args.params]
    return cfg.override(**overrides)


def _emit(cfg: RunConfig, name: str, payload: dict) -> str:
    os.makedirs(cfg.outdir, exist_ok=True)
    cfg.persist()
    path = os.path.join(cfg.outdir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=float)
    return path


def _build(cfg: RunConfig):
    model = parse_model(cfg.model)
    grid = make_grid(cfg.L, cfg.n)
    return model, grid, assemble(model, grid)


# ---------------------------------------------------------------------------
# subcommands


def cmd_steady(args) -> int:
    cfg = _resolve(args)
    _, grid, op = _build(cfg)
    G = steady_state(op)
    os.makedirs(cfg.outdir, exist_ok=True)
    field_to_csv(G, os.path.join(cfg.outdir, "steady_state.csv"))
    _emit(cfg, "steady_state.json",
          {"model": cfg.model, "min": float(G.values.min()),
           "max": float(G.values.max())})
    print(f"steady state written to {cfg.outdir}/steady_state.csv")
    return 0


def cmd_spectrum(args) -> int:
    cfg = _resolve(args)
    if args.fourier_side:
        model = parse_model(cfg.model)
        if not isinstance(model, Fractional):
            raise UsageError("--fourier-side requires a fractional model")
        op = fourier_side_generator(model.alpha, cfg.L, cfg.n)
    else:
        _, _, op = _build(cfg)
    rep = eigen_spectrum(op, separation_a=cfg.a_target)
    os.makedirs(cfg.outdir, exist_ok=True)
    eigenvalues_to_csv(rep, os.path.join(cfg.outdir, "eigenvalues.csv"))
    _emit(cfg, "spectrum.json", json.loads(rep.to_json()))
    print(f"gap = {rep.gap:.6f} (zero residual {rep.zero_residual:.2e})")
    return 0


def _error_suffix(row: dict) -> str:
    err = row["error"]
    return f" [error: {err['type']}: {err['message']}]" if err else ""


def cmd_gap_sweep(args) -> int:
    cfg = _resolve(args)
    if not cfg.params:
        print("warning: empty parameter list, nothing swept")
        _emit(cfg, "gap_sweep.json", {"rows": [], "pass": True, "warning": "empty"})
        return 0
    base = parse_model(cfg.model)
    grid = make_grid(cfg.L, cfg.n)

    def build(p):
        return assemble(dataclasses.replace(base, **{args.sweep: p}), grid)

    rep = gap_sweep(build, list(cfg.params), gap_target=cfg.gap_target)
    _emit(cfg, "gap_sweep.json", rep)
    for row in rep["rows"]:
        print(f"{args.sweep}={row['param']}: gap={row['gap']}"
              + _error_suffix(row))
    print(f"max gap {rep['max_gap']} vs target {rep['gap_target']}: "
          + ("PASS" if rep["pass"] else "FAIL"))
    return 0 if rep["pass"] else 1


def cmd_decay(args) -> int:
    cfg = _resolve(args)
    w = parse_weight(cfg.weight)
    spec = EvolveSpec(t_end=cfg.t_end, dt=cfg.dt, scheme=cfg.scheme)
    if cfg.params:
        base = parse_model(cfg.model)
        grid = make_grid(cfg.L, cfg.n)
        rep = uniform_decay_sweep(
            lambda p: assemble(dataclasses.replace(base, **{args.sweep: p}), grid),
            list(cfg.params),
            lambda g: gaussian_density(g, 1.0, 1.0),
            w, spec, a_target=cfg.a_target,
        )
        _emit(cfg, "decay_sweep.json", rep)
        for row in rep["rows"]:
            print(f"{args.sweep}={row['param']}: rate={row['rate']}"
                  + _error_suffix(row))
        print(f"sup rate {rep['sup_rate']} vs target {rep['a_target']}: "
              + ("PASS" if rep["pass"] else "FAIL"))
        return 0 if rep["pass"] else 1
    _, grid, op = _build(cfg)
    rep = decay_rate(op, gaussian_density(grid, 1.0, 1.0), w, spec)
    _emit(cfg, "decay.json", json.loads(rep.to_json()))
    print(f"fitted rate {rep.fitted_rate:.4f} (residual {rep.residual:.3g})")
    return 0


def cmd_converge(args) -> int:
    cfg = _resolve(args)
    base = parse_model(cfg.model)
    grid = make_grid(cfg.L, cfg.n)
    limit = parse_model(args.limit)
    m0 = assemble(limit, grid)
    src = parse_weight(cfg.weight)
    tgt = WeightSpec(p=src.p, q=src.q)
    rows = []
    for p in cfg.params or []:
        m = assemble(dataclasses.replace(base, eps=float(p)), grid)
        d = operator_distance(m, m0, src, tgt, probes=32,
                              oscillatory=args.oscillatory)
        rows.append({"eps": float(p), "distance": d})
        print(f"eps={p}: distance={d:.6g}")
    out = {"rows": rows}
    if len(rows) >= 2:
        e = np.array([r["eps"] for r in rows])
        d = np.array([r["distance"] for r in rows])
        out["slope"] = float(np.polyfit(np.log(e), np.log(d), 1)[0])
        print(f"log-log slope {out['slope']:.3f}")
    _emit(cfg, "convergence.json", out)
    return 0


def cmd_verify(args) -> int:
    cfg = _resolve(args)
    check = args.check
    k = gaussian_reference_kernel()
    grid = make_grid(cfg.L, cfg.n)
    if check == "dissipativity":
        model, _, _ = _build(cfg)
        split = parse_splitting(cfg.splitting or "classical:10,6")
        _, B = assemble_splitting(model, grid, split)
        rep = dissipativity_check(B, parse_weight(cfg.weight), a=cfg.a_target,
                                  seed=cfg.seed)
        _emit(cfg, "dissipativity.json", json.loads(rep.to_json()))
        print(f"worst ratio {rep.worst_ratio:.4f} vs a = {rep.a}: "
              + ("PASS" if rep.passed else "FAIL"))
        return 0 if rep.passed else 1
    if check == "adjoint":
        model, _, _ = _build(cfg)
        if not isinstance(model, (Fractional, DiscreteFractional)):
            raise UsageError("adjoint check requires a fractional-family model")
        split = parse_splitting(cfg.splitting or "fractional:0.5,2,4")
        _, B = assemble_splitting(model, grid, split)
        rep = adjoint_dissipativity_check(B, parse_weight(cfg.weight),
                                          b=cfg.a_target, alpha=model.alpha,
                                          seed=cfg.seed)
        _emit(cfg, "adjoint.json", rep)
        print(f"worst ratio {rep['worst_ratio']:.4f} vs b = {rep['b']}: "
              + ("PASS" if rep["pass"] else "FAIL"))
        return 0 if rep["pass"] else 1
    if check == "psi":
        eps = args.eps if args.eps is not None else 0.05
        C = psi_constant(k, q=1.0, p=1)
        prof = psi_profile(grid, eps=eps, M=10.0, R=6.0, p=1, q=1.0,
                           C_bound=C, k=k)
        os.makedirs(cfg.outdir, exist_ok=True)
        prof.to_csv(os.path.join(cfg.outdir, "psi_profile.csv"))
        ok = prof.sup <= cfg.a_target
        _emit(cfg, "psi.json", {"sup": prof.sup, "C": C, "params": prof.params,
                                "pass": ok})
        print(f"sup(psi - M chi_R) = {prof.sup:.4f} vs {cfg.a_target}: "
              + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    if check == "dirichlet":
        eps = args.eps if args.eps is not None else 0.25
        worst = 0.0
        for f in probe_family(grid, count=16, seed=cfg.seed):
            a = dirichlet_form(f, k, eps, path="double-sum")
            b = dirichlet_form(f, k, eps, path="fourier")
            worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
        ok = worst <= 1e-8
        _emit(cfg, "dirichlet.json", {"worst_relative_gap": worst, "pass": ok})
        print(f"worst path disagreement {worst:.3e}: " + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    if check == "gradient-bound":
        K = fourier_ratio_constant(k).value
        eps = args.eps if args.eps is not None else 0.25
        fails = 0
        probes = probe_family(grid, count=64, seed=cfg.seed)
        for f in probes:
            if not gradient_convolution_check(f, k, eps, K)["pass"]:
                fails += 1
        ok = fails == 0
        _emit(cfg, "gradient_bound.json",
              {"K": K, "failures": fails, "total": len(probes), "pass": ok})
        print(f"K = {K:.6f}, {fails}/{len(probes)} probe failures: "
              + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    if check == "regularization":
        model, _, _ = _build(cfg)
        split = parse_splitting(cfg.splitting or "classical:10,6")
        A, B = assemble_splitting(model, grid, split)
        rep = regularization_norm(A, B, n_conv=args.n_conv,
                                  t_grid=[1.0, 2.0, 4.0, 6.0],
                                  source=WeightSpec(p=2, q=1),
                                  target=WeightSpec(p=2, q=1, s=1),
                                  seed=cfg.seed)
        _emit(cfg, "regularization.json", rep)
        print(f"fitted rate {rep['fitted_rate']:.4f}")
        return 0
    if check == "sobolev-id":
        model = parse_model(cfg.model)
        if not isinstance(model, (Fractional, DiscreteFractional)):
            raise UsageError("sobolev-id requires a fractional-family model")
        worst = 0.0
        ok = True
        for f in probe_family(grid, count=8, seed=cfg.seed):
            rep = fractional_sobolev_check(f, model.alpha)
            worst = max(worst, rep["rel_error"])
            ok = ok and rep["pass"]
        _emit(cfg, "sobolev_id.json", {"worst_rel_error": worst, "pass": ok})
        print(f"worst relative error {worst:.3e}: " + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    raise UsageError(f"unknown check {check!r}")


def cmd_sde(args) -> int:
    cfg = _resolve(args)
    noise = parse_noise(args.noise)
    spec = JumpOuSpec(noise=noise, t_end=cfg.t_end, n_paths=cfg.n_paths,
                      seed=cfg.seed, dt_record=max(cfg.dt, 0.01))
    if args.check == "coupling":
        rep = coupled_decay(spec, 1.0, 0.0)
        _emit(cfg, "coupling.json",
              {"max_error": rep["max_error"], "pass": rep["pass"]})
        print(f"coupled-gap max error {rep['max_error']:.3e}: "
              + ("PASS" if rep["pass"] else "FAIL"))
        return 0 if rep["pass"] else 1
    if args.check == "wasserstein":
        t_grid = [t for t in (0.5, 1.0, 2.0) if t <= cfg.t_end] or [cfg.t_end]
        rep = wasserstein_contraction_check(
            spec, lambda r, n: np.full(n, 3.0), t_grid)
        _emit(cfg, "wasserstein.json", rep)
        for row in rep["rows"]:
            print(f"t={row['t']}: W1={row['w1']:.5f} bound={row['bound']:.5f} "
                  + ("PASS" if row["pass"] else "FAIL"))
        return 0 if rep["pass"] else 1
    if args.check == "ensemble":
        ens = simulate(spec, lambda r, n: np.full(n, 3.0))
        os.makedirs(cfg.outdir, exist_ok=True)
        cfg.persist()
        ensemble_to_csv(ens, os.path.join(cfg.outdir, "ensemble.csv"))
        print(f"ensemble percentiles written to {cfg.outdir}/ensemble.csv")
        return 0
    raise UsageError(f"unknown sde check {args.check!r}")


def cmd_accept(args) -> int:
    cfg = _resolve(args)
    rep = acceptance.run_all(progress=True)
    _emit(cfg, "acceptance.json", rep)
    n_pass = sum(1 for r in rep["results"] if r["pass"])
    print(f"{n_pass}/{len(rep['results'])} criteria passed: "
          + ("PASS" if rep["pass"] else "FAIL"))
    return 0 if rep["pass"] else 1


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--model", default=None)
    sp.add_argument("--L", type=float, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--weight", default=None, help="p,q[,s]")
    sp.add_argument("--splitting", default=None,
                    help="classical:M,R or fractional:ETA,LCUT,R")
    sp.add_argument("--gap-target", dest="gap_target", type=float, default=None)
    sp.add_argument("--a-target", dest="a_target", type=float, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--n-paths", dest="n_paths", type=int, default=None)
    sp.add_argument("--t-end", dest="t_end", type=float, default=None)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--scheme", default=None,
                    choices=[None, "BackwardEuler", "CrankNicolson", "ExactExpm"])
    sp.add_argument("--outdir", default=None)
    sp.add_argument("--params", nargs="*", default=None,
                    help="parameter list for sweeps")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fplab",
        description="Numerical laboratory for local, fractional, and "
                    "finite-jump drift-diffusion generators in one dimension.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("steady", help="steady state of the generator")
    _add_common(sp)
    sp.set_defaults(fn=cmd_steady)

    sp = sub.add_parser("spectrum", help="dense eigenvalue report")
    _add_common(sp)
    sp.add_argument("--fourier-side", action="store_true",
                    help="frequency-side collocation for the power-law family")
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("gap-sweep", help="spectral gap over a parameter sweep")
    _add_common(sp)
    sp.add_argument("--sweep", default="eps", choices=["eps", "alpha"])
    sp.set_defaults(fn=cmd_gap_sweep)

    sp = sub.add_parser("decay", help="semigroup decay-rate fit (or sweep)")
    _add_common(sp)
    sp.add_argument("--sweep", default="eps", choices=["eps", "alpha"])
    sp.set_defaults(fn=cmd_decay)

    sp = sub.add_parser("converge", help="operator-distance convergence study")
    _add_common(sp)
    sp.add_argument("--limit", required=True,
                    help="limit model string, e.g. classical")
    sp.add_argument("--oscillatory", type=int, default=0)
    sp.set_defaults(fn=cmd_converge)

    sp = sub.add_parser("verify", help="functional-inequality checks")
    _add_common(sp)
    sp.add_argument("--check", required=True,
                    choices=["dissipativity", "psi", "dirichlet",
                             "gradient-bound", "adjoint", "regularization",
                             "sobolev-id"])
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--n-conv", dest="n_conv", type=int, default=2)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sde", help="jump-driven Monte Carlo checks")
    _add_common(sp)
    sp.add_argument("--noise", required=True,
                    help="stable:ALPHA or compound:EPS")
    sp.add_argument("--check", required=True,
                    choices=["coupling", "wasserstein", "ensemble"])
    sp.set_defaults(fn=cmd_sde)

    sp = sub.add_parser("accept", help="run the full acceptance suite")
    _add_common(sp)
    sp.set_defaults(fn=cmd_accept)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so this branch must come first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, FileNotFoundError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
