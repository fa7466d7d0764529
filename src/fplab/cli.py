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
from .fourier import power_spectra
from .grids import WeightSpec, gaussian_density, make_grid
from .inequalities import (
    adjoint_dissipativity_check,
    dirichlet_form_block,
    dissipativity_check,
    fractional_sobolev_block,
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
    assemble,
    operator_distance,
)
from .probes import probe_block
from .sde import (
    AlphaStable,
    CompoundPoisson,
    JumpOuSpec,
    coupled_decay,
    simulate,
    wasserstein_contraction_check,
)
from .semigroup import EvolveSpec, decay_rate, steady_state, uniform_decay_sweep
from .splitting import ClassicalSplitting, FractionalSplitting, assemble_splitting
from .spectra import eigen_spectrum, fourier_side_generator, gap_sweep


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


def _write_config(args) -> None:
    """resolved_config.json: the subcommand and every parameter it read."""
    os.makedirs(args.outdir, exist_ok=True)
    read = {k: v for k, v in vars(args).items() if k not in ("fn", "config")}
    with open(os.path.join(args.outdir, "resolved_config.json"), "w") as fh:
        json.dump(read, fh, indent=2, sort_keys=True)


def _emit(args, name: str, payload: dict) -> None:
    """Write payload as outdir/name in JSON, numpy values as Python ones."""
    _write_config(args)
    with open(os.path.join(args.outdir, name), "w") as fh:
        json.dump(payload, fh, indent=2, default=lambda o: o.tolist())


def _emit_csv(args, name: str, header: str, *columns: np.ndarray) -> None:
    """Write the columns side by side as outdir/name, comma separated."""
    _write_config(args)
    np.savetxt(os.path.join(args.outdir, name), np.column_stack(columns),
               delimiter=",", header=header)


def _verdict(ok: bool, text: str) -> int:
    print(text + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _build(args):
    model = parse_model(args.model)
    grid = make_grid(args.L, args.n)
    return model, grid, assemble(model, grid)


# ---------------------------------------------------------------------------
# subcommands


def cmd_steady(args) -> int:
    _, grid, op = _build(args)
    G = steady_state(op)
    _emit_csv(args, "steady_state.csv", "x,value", grid.nodes, G.values)
    _emit(args, "steady_state.json",
          {"model": args.model, "min": G.values.min(), "max": G.values.max()})
    print(f"steady state written to {args.outdir}/steady_state.csv")
    return 0


def cmd_spectrum(args) -> int:
    if args.fourier_side:
        model = parse_model(args.model)
        if not isinstance(model, Fractional):
            raise UsageError("--fourier-side requires a fractional model")
        op = fourier_side_generator(model.alpha, args.L, args.n)
    else:
        _, _, op = _build(args)
    rep = eigen_spectrum(op, separation_a=args.a_target)
    ev = rep.eigenvalues
    _emit_csv(args, "eigenvalues.csv", "re,im", ev.real, ev.imag)
    _emit(args, "spectrum.json",
          {"eigenvalues_re": ev.real, "eigenvalues_im": ev.imag, "gap": rep.gap,
           "zero_residual": rep.zero_residual, "separation_a": rep.separation_a,
           "separation_count": rep.separation_count, "residual": rep.residual})
    print(f"gap = {rep.gap:.6f} (zero residual {rep.zero_residual:.2e})")
    return 0


def _error_suffix(row: dict) -> str:
    err = row["error"]
    return f" [error: {err['type']}: {err['message']}]" if err else ""


def _sweep_builder(args):
    base = parse_model(args.model)
    grid = make_grid(args.L, args.n)
    return lambda p: assemble(dataclasses.replace(base, **{args.sweep: p}), grid)


def cmd_gap_sweep(args) -> int:
    rep = gap_sweep(_sweep_builder(args), list(args.params), gap_target=args.gap_target)
    _emit(args, "gap_sweep.json", rep)
    for row in rep["rows"]:
        print(f"{args.sweep}={row['param']}: gap={row['gap']}"
              + _error_suffix(row))
    if rep["warning"]:
        print(f"warning: {rep['warning']}")
    return _verdict(rep["pass"],
                    f"max gap {rep['max_gap']} vs target {rep['gap_target']}: ")


def cmd_decay(args) -> int:
    w = parse_weight(args.weight)
    spec = EvolveSpec(t_end=args.t_end, dt=args.dt, scheme=args.scheme)
    if args.params:
        rep = uniform_decay_sweep(
            _sweep_builder(args),
            list(args.params),
            lambda g: gaussian_density(g, 1.0, 1.0),
            w, spec, a_target=args.a_target,
        )
        _emit(args, "decay_sweep.json", rep)
        for row in rep["rows"]:
            print(f"{args.sweep}={row['param']}: rate={row['rate']}"
                  + _error_suffix(row))
        return _verdict(rep["pass"],
                        f"sup rate {rep['sup_rate']} vs target {rep['a_target']}: ")
    _, grid, op = _build(args)
    rep = decay_rate(op, gaussian_density(grid, 1.0, 1.0), w, spec)
    _emit(args, "decay.json", dataclasses.asdict(rep))
    print(f"fitted rate {rep.fitted_rate:.4f} (residual {rep.residual:.3g})")
    return 0


def cmd_converge(args) -> int:
    base = parse_model(args.model)
    grid = make_grid(args.L, args.n)
    limit = parse_model(args.limit)
    m0 = assemble(limit, grid)
    src = parse_weight(args.weight)
    tgt = WeightSpec(p=src.p, q=src.q)
    rows = []
    for p in args.params:
        # the operator is freed before the next one is assembled
        d = operator_distance(assemble(dataclasses.replace(base, eps=float(p)), grid), m0,
                              src, tgt, probes=32, oscillatory=args.oscillatory)
        rows.append({"eps": float(p), "distance": d})
        print(f"eps={p}: distance={d:.6g}")
    out = {"rows": rows}
    if len(rows) >= 2:
        e = np.array([r["eps"] for r in rows])
        d = np.array([r["distance"] for r in rows])
        out["slope"] = float(np.polyfit(np.log(e), np.log(d), 1)[0])
        print(f"log-log slope {out['slope']:.3f}")
    _emit(args, "convergence.json", out)
    return 0


# the verify flags that not every check reads: the checks that read each one,
# with the value a check runs when the flag is not given (None: the flag's
# default); every other check refuses the flag
_VERIFY_READERS = {
    "model": dict.fromkeys(("dissipativity", "adjoint", "regularization", "sobolev-id")),
    "weight": {"dissipativity": None, "adjoint": "2,0"},
    "a_target": dict.fromkeys(("dissipativity", "adjoint", "psi")),
    "eps": {"psi": 0.05, "dirichlet": 0.25, "gradient-bound": 0.25},
    "n_conv": dict.fromkeys(("regularization",)),
    "splitting": {"dissipativity": "classical:10,6", "adjoint": "fractional:0.5,2,4",
                  "regularization": "classical:10,6"},
}


def cmd_verify(args) -> int:
    check = args.check
    for key, readers in _VERIFY_READERS.items():
        if check not in readers:
            if getattr(args, key) is not None:
                raise UsageError(f"verify --check {check} does not read --{key}")
            delattr(args, key)  # so resolved_config.json does not record it
        elif getattr(args, key) is None:  # so resolved_config.json records it
            value = readers[check]
            setattr(args, key, _PARAMS[key]["default"] if value is None else value)
    k = gaussian_reference_kernel()
    grid = make_grid(args.L, args.n)
    if check == "dissipativity":
        model = parse_model(args.model)
        _, B = assemble_splitting(model, grid, parse_splitting(args.splitting))
        rep = dissipativity_check(B, parse_weight(args.weight), a=args.a_target,
                                  seed=args.seed)
        _emit(args, "dissipativity.json", {"worst_ratio": rep.worst_ratio, "a": rep.a,
                                           "pass": rep.passed, "n_probes": rep.n_probes})
        return _verdict(rep.passed, f"worst ratio {rep.worst_ratio:.4f} vs a = {rep.a}: ")
    if check == "adjoint":
        model = parse_model(args.model)
        if not isinstance(model, (Fractional, DiscreteFractional)):
            raise UsageError("adjoint check requires a fractional-family model")
        _, B = assemble_splitting(model, grid, parse_splitting(args.splitting))
        rep = adjoint_dissipativity_check(B, parse_weight(args.weight),
                                          b=args.a_target, alpha=model.alpha,
                                          seed=args.seed)
        _emit(args, "adjoint.json", rep)
        return _verdict(rep["pass"],
                        f"worst ratio {rep['worst_ratio']:.4f} vs b = {rep['b']}: ")
    if check == "psi":
        C = psi_constant(k, q=1.0, p=1)
        prof = psi_profile(grid, eps=args.eps, M=10.0, R=6.0, p=1, q=1.0, C_bound=C)
        _emit_csv(args, "psi_profile.csv", "x,psi_minus_Mchi", prof.x, prof.values)
        ok = prof.sup <= args.a_target
        _emit(args, "psi.json", {"sup": prof.sup, "C": C, "params": prof.params,
                                 "pass": ok})
        return _verdict(ok, f"sup(psi - M chi_R) = {prof.sup:.4f} vs {args.a_target}: ")
    if check == "dirichlet":
        F = probe_block(grid, count=16, seed=args.seed)
        a, b = dirichlet_form_block(F, grid, k, args.eps)
        worst = float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300)))
        ok = worst <= 1e-8
        _emit(args, "dirichlet.json", {"worst_relative_gap": worst, "pass": ok})
        return _verdict(ok, f"worst path disagreement {worst:.3e}: ")
    if check == "gradient-bound":
        K = fourier_ratio_constant(k).value
        F = probe_block(grid, count=64, seed=args.seed)
        rep = gradient_convolution_block(power_spectra(F, grid), k, args.eps, K)
        fails = int(np.count_nonzero(~rep["pass"]))
        total = rep["pass"].size
        ok = fails == 0
        _emit(args, "gradient_bound.json",
              {"K": K, "failures": fails, "total": total,
               "worst_ratio": float(rep["ratio"].max()), "pass": ok})
        return _verdict(ok, f"K = {K:.6f}, {fails}/{total} probe failures: ")
    if check == "regularization":
        model = parse_model(args.model)
        A, B = assemble_splitting(model, grid, parse_splitting(args.splitting))
        rep = regularization_norm(A, B, n_conv=args.n_conv,
                                  t_grid=[1.0, 2.0, 4.0, 6.0],
                                  source=WeightSpec(p=2, q=1),
                                  target=WeightSpec(p=2, q=1, s=1),
                                  seed=args.seed)
        _emit(args, "regularization.json", rep)
        print(f"fitted rate {rep['fitted_rate']:.4f}")
        return 0
    if check == "sobolev-id":
        model = parse_model(args.model)
        if not isinstance(model, (Fractional, DiscreteFractional)):
            raise UsageError("sobolev-id requires a fractional-family model")
        rep = fractional_sobolev_block(probe_block(grid, count=8, seed=args.seed), grid,
                                       model.alpha)
        worst = float(rep["rel_error"].max())
        ok = bool(rep["pass"].all())
        _emit(args, "sobolev_id.json", {"worst_rel_error": worst, "pass": ok})
        return _verdict(ok, f"worst relative error {worst:.3e}: ")
    raise UsageError(f"unknown check {check!r}")


def cmd_sde(args) -> int:
    noise = parse_noise(args.noise)
    if args.dt < 0.01:
        raise UsageError(f"sde needs --dt >= 0.01, got {args.dt}")
    spec = JumpOuSpec(noise=noise, t_end=args.t_end, n_paths=args.n_paths,
                      seed=args.seed, dt_record=args.dt)
    if args.check == "coupling":
        rep = coupled_decay(spec, 1.0, 0.0)
        _emit(args, "coupling.json",
              {"max_error": rep["max_error"], "pass": rep["pass"]})
        return _verdict(rep["pass"], f"coupled-gap max error {rep['max_error']:.3e}: ")
    if args.check == "wasserstein":
        t_grid = [t for t in (0.5, 1.0, 2.0) if t <= args.t_end] or [args.t_end]
        rep = wasserstein_contraction_check(
            spec, lambda r, n: np.full(n, 3.0), t_grid)
        _emit(args, "wasserstein.json", rep)
        # rep["pass"] is the conjunction of the row verdicts
        return max([_verdict(row["pass"], f"t={row['t']}: W1={row['w1']:.5f} "
                             f"bound={row['bound']:.5f} ") for row in rep["rows"]])
    if args.check == "ensemble":
        ens = simulate(spec, lambda r, n: np.full(n, 3.0))
        percentiles = (5, 25, 50, 75, 95)
        _emit_csv(args, "ensemble.csv", "t," + ",".join(f"p{p}" for p in percentiles),
                  ens.times, np.percentile(ens.states, percentiles, axis=1).T)
        print(f"ensemble percentiles written to {args.outdir}/ensemble.csv")
        return 0
    raise UsageError(f"unknown sde check {args.check!r}")


def cmd_accept(args) -> int:
    rep = acceptance.run_all(progress=True)
    _emit(args, "acceptance.json", rep)
    n_pass = sum(1 for r in rep["results"] if r["pass"])
    return _verdict(rep["pass"], f"{n_pass}/{len(rep['results'])} criteria passed: ")


# ---------------------------------------------------------------------------
# argument wiring

# Every run parameter, keyed by its namespace name; the flag is
# "--" + name with "_" written as "-".  A subcommand declares the names its
# cmd_* reads, so resolved_config.json records exactly those.
_PARAMS = {
    "outdir": dict(default="out", help="output directory"),
    "model": dict(default="classical",
                  help="classical | discrete-classical:EPS | fractional:ALPHA | "
                       "fractional-raw:ALPHA | discrete-fractional:EPS,ALPHA"),
    "L": dict(type=float, default=12.0, help="grid half-width: nodes span [-L, L]"),
    "n": dict(type=int, default=1025, help="number of grid nodes"),
    "weight": dict(default="1,0", help="p,q[,s]"),
    "params": dict(type=float, nargs="*", default=[],
                   help="parameter list for sweeps"),
    "sweep": dict(default="eps", choices=["eps", "alpha"],
                  help="model field that --params sweeps"),
    "splitting": dict(default=None, help="classical:M,R or fractional:ETA,LCUT,R"),
    "gap_target": dict(type=float, default=-0.5, help="largest gap that passes"),
    "a_target": dict(type=float, default=-0.5,
                     help="rate or bound a the run compares against"),
    "seed": dict(type=int, default=0, help="probe and sampling seed"),
    "n_paths": dict(type=int, default=100000, help="Monte Carlo paths"),
    "t_end": dict(type=float, default=4.0, help="final time"),
    "dt": dict(type=float, default=0.05, help="time step (sde: recording step, >= 0.01)"),
    "scheme": dict(default="ExactExpm",
                   choices=["BackwardEuler", "CrankNicolson", "ExactExpm"],
                   help="time stepper"),
    "fourier_side": dict(action="store_true",
                         help="frequency-side collocation for the power-law family"),
    "limit": dict(required=True, help="limit model string, e.g. classical"),
    "oscillatory": dict(type=int, default=0, help="modulated probes added to the block"),
    "eps": dict(type=float, default=None,
                help="kernel scale of psi (0.05), dirichlet and gradient-bound (0.25)"),
    "n_conv": dict(type=int, default=2, help="convolution order of the regularization check"),
    "noise": dict(required=True, help="stable:ALPHA or compound:EPS"),
}


class _ConfigDefaults(argparse.Action):
    """--config FILE: the file's keys become defaults of this subcommand.

    A key that is not one of the subcommand's parameters is a usage error.
    Defaults only take effect on a fresh parse, so main() parses again; a
    flag given on the command line then still wins over the file."""

    def __call__(self, parser, namespace, path, option_string=None):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config {path!r}: {exc}")
        if not isinstance(data, dict):
            parser.error(f"config {path!r} is not a JSON object")
        unknown = set(data) - (set(vars(namespace)) - {"fn", "config"})
        if unknown:
            parser.error(f"config keys not read by {parser.prog}: {sorted(unknown)}")
        parser.set_defaults(**data)
        setattr(namespace, self.dest, path)


def _subcommand(sub, name: str, fn, help: str, *params: str) -> argparse.ArgumentParser:
    sp = sub.add_parser(name, help=help)
    sp.add_argument("--config", action=_ConfigDefaults,
                    help="JSON defaults; keys must be parameters of this subcommand")
    for p in ("outdir", *params):
        sp.add_argument("--" + p.replace("_", "-"), dest=p, **_PARAMS[p])
    sp.set_defaults(fn=fn)
    return sp


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fplab",
        description="Numerical laboratory for local, fractional, and "
                    "finite-jump drift-diffusion generators in one dimension.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    grid = ("model", "L", "n")
    _subcommand(sub, "steady", cmd_steady, "steady state of the generator", *grid)
    _subcommand(sub, "spectrum", cmd_spectrum, "rightmost eigenvalues, gap and count",
                *grid, "a_target", "fourier_side")
    _subcommand(sub, "gap-sweep", cmd_gap_sweep, "spectral gap over a parameter sweep",
                *grid, "params", "sweep", "gap_target")
    _subcommand(sub, "decay", cmd_decay, "semigroup decay-rate fit (or sweep)",
                *grid, "weight", "t_end", "dt", "scheme", "params", "sweep", "a_target")
    _subcommand(sub, "converge", cmd_converge, "operator-distance convergence study",
                *grid, "limit", "weight", "params", "oscillatory")
    sp = _subcommand(sub, "verify", cmd_verify, "functional-inequality checks",
                     *grid, "weight", "splitting", "a_target", "seed", "eps", "n_conv")
    sp.set_defaults(**dict.fromkeys(_VERIFY_READERS))  # None: not given (see cmd_verify)
    sp.add_argument("--check", required=True,
                    choices=["dissipativity", "psi", "dirichlet",
                             "gradient-bound", "adjoint", "regularization",
                             "sobolev-id"])
    sp = _subcommand(sub, "sde", cmd_sde, "jump-driven Monte Carlo checks",
                     "noise", "t_end", "dt", "n_paths", "seed")
    sp.add_argument("--check", required=True,
                    choices=["coupling", "wasserstein", "ensemble"])
    _subcommand(sub, "accept", cmd_accept, "run the full acceptance suite")
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.config:
            args = ap.parse_args(argv)  # again, now under the file's defaults
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
