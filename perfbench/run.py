"""fplab benchmark: the acceptance, refine and checks workloads, timed end to
end (``--trace 0``) or traced per layer (``--trace 1``), with every output
checked against reference values.

    python3 perfbench/run.py --workload refine --seed 3 --seconds 40 --trace 0

Closed loop, one client: each pass runs in a fresh worker process
(``worker.py``) and the next pass starts only after the previous one
returned, until ``--seconds`` is used up (at least three timed passes).
Earlier stdout lines carry the environment manifest and one summary per
pass; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted``/``failed`` are the checks run and failed over all passes: a
stage whose check fails, a stage that raises (recorded with its exception
type and stage), and every output that moved off ``reference.json``.

``--record`` re-records ``reference.json`` for one profile from the current
source tree; do it only on a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("acceptance", "refine", "checks")

# Outputs must match the recorded reference to |v - r| <= RTOL |r| + ATOL.
# Re-recording with 1 instead of 2 BLAS threads (another summation order)
# moved outputs by at most 1.1e-7 relative (on |eigenvalue + 1| ~ 5e-4) and
# 3.7e-13 absolute (the zero eigenvalue); RTOL and ATOL sit a decade and more
# above that.  ATOL is the floor for outputs that are roundoff themselves:
# zero eigenvalues, mass defects, Dirichlet-path disagreements.
RTOL = 1e-6
ATOL = 1e-10

MIN_PASSES = 3            # timed passes per --trace 0 run, whatever --seconds says
HARD_LIMIT_S = 150.0      # no pass starts past this; keeps a run under 180 s
# the default OpenBLAS thread count on a 2-vCPU box; one thread made the
# n=2049 refine slice 1.5x slower
BLAS_THREADS_MAX = 2

# per-layer metrics: traced function -> fields reported for it
LAYER_FIELDS = {
    "spectra.spectral_projector": ("self_s",),
    "spectra.perturbation_certificate": ("self_s",),
    "spectra.projector_distance": ("self_s",),
    "spectra.eigen_spectrum": ("calls", "repeats", "self_s"),
    "semigroup.evolve": ("self_s",),
    "semigroup.steady_state": ("self_s",),
    "semigroup.decay_rate": ("self_s",),
    "semigroup.fourier_steady_oracle": ("self_s",),
    "operators.assemble": ("calls", "repeats", "self_s"),
    "operators.operator_distance": ("self_s",),
    "splitting.assemble_splitting": ("self_s",),
    "inequalities.regularization_norm": ("self_s",),
    "inequalities.dissipativity_check": ("self_s",),
    "inequalities.dirichlet_form": ("self_s",),
    "inequalities.gradient_convolution_check": ("self_s",),
    "inequalities.psi_profile": ("self_s",),
    "grids.weighted_norm": ("calls", "self_s"),
    "probes.probe_family": ("self_s",),
    "fourier.fourier_transform": ("calls", "self_s"),
    "kernels.khat": ("self_s",),
    "kernels.fourier_ratio_constant": ("self_s",),
    "sde.simulate": ("calls", "self_s"),
    "sde.wasserstein_contraction_check": ("self_s",),
    "cli.main": ("self_s",),
    "lapack.eigvals": ("calls", "self_s", "n3"),
    "lapack.expm": ("calls", "self_s", "n3"),
    "lapack.lu_factor": ("calls", "self_s", "n3"),
    "lapack.lu_solve": ("calls", "self_s"),
    "lapack.solve": ("calls", "self_s", "n3"),
    "lapack.cond": ("calls", "self_s", "n3"),
}
FIELD_UNITS = {"calls": "count", "repeats": "count", "self_s": "s", "n3": "n3-computed"}
# acceptance stages reported with their inclusive seconds
ACCEPTANCE_STAGES = ("classical-equilibrium", "classical-spectrum", "operator-convergence",
                     "fourier-kernel-inequality", "dissipativity", "positivity-and-mass",
                     "projector-perturbation-n257")


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {f"{fn}.{f}": FIELD_UNITS[f] for fn, fields in LAYER_FIELDS.items() for f in fields}
    units.update({f"acceptance.{s}.s": "s" for s in ACCEPTANCE_STAGES})
    units["refine.gap-vs-decay.margin_used"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# workers


class WorkerFailed(RuntimeError):
    pass


def blas_threads() -> int:
    return max(1, min(BLAS_THREADS_MAX, len(os.sched_getaffinity(0))))


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_worker(task: dict, env: dict, timeout: float) -> dict:
    """Start a worker, time it to ready, wait for its pass; kill it on timeout."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, json.dumps(task)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        ready = _read_event(proc, "ready")
        setup_s = time.perf_counter() - t0
        done = _read_event(proc, "done")
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return {"setup_s": setup_s, "elapsed_s": time.perf_counter() - t0, **ready, **done}


def _read_event(proc, event: str) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise WorkerFailed(f"worker ended before '{event}' (code {proc.wait()})")
    msg = json.loads(line)
    if msg.get("event") != event:
        raise WorkerFailed(f"expected '{event}', got {msg.get('event')!r}")
    return msg


# ---------------------------------------------------------------------------
# correctness


def close(value: float, ref: float) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= RTOL * abs(ref) + ATOL


def evaluate(result: dict, reference: dict) -> tuple[int, int, list]:
    """(checks, failed, failures) for one pass.  Per stage: one check that it
    ran and passed, plus one per reference output."""
    checks = failed = 0
    failures = []
    records = {r["stage"]: r for r in result.get("records", [])}
    for stage in result.get("stages") or ["worker"]:
        rec = records.get(stage)
        ref = reference.get(stage)
        checks += 1
        if rec is None:
            failed += 1
            failures.append({"stage": stage, "type": result.get("error", "Missing")})
        elif rec["error"]:
            failed += 1
            failures.append({"stage": rec["error"]["stage"], "type": rec["error"]["type"]})
        elif not rec["pass"]:
            failed += 1
            failures.append({"stage": stage, "type": "CheckFailed"})
        if ref is None:
            checks += 1
            failed += 1
            failures.append({"stage": stage, "type": "NoReference"})
            continue
        obs = rec["observables"] if rec else {}
        for key, r in ref.items():
            checks += 1
            v = obs.get(key)
            if v is None or not close(v, r):
                failed += 1
                failures.append({"stage": stage, "type": "Drift", "key": key,
                                 "value": v, "reference": r})
    return checks, failed, failures


# ---------------------------------------------------------------------------
# recording the reference

# seeds that together select every input of a workload: one per entry of the
# parameter tables in workloads.py (5) and one per CLI seed (8)
RECORD_SEEDS = {"acceptance": (0,), "refine": range(5), "checks": range(8)}


def record(profile: str, env: dict, workdir: str) -> int:
    """Re-record ``reference.json`` for ``profile``: the outputs of every
    input a seed can select.  A stage that fails or raises aborts it."""
    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    table = {}
    for workload, seeds in RECORD_SEEDS.items():
        stages = table.setdefault(workload, {})
        for seed in seeds:
            task = {"workload": workload, "seed": seed, "profile": profile, "trace": False,
                    "pass": 0, "workdir": os.path.join(workdir, f"{workload}-{seed}")}
            os.makedirs(task["workdir"])
            res = run_worker(task, env, timeout=600.0)
            for rec in res["records"]:
                if rec["error"] or not rec["pass"]:
                    print(f"error: {workload} seed {seed}: stage {rec['stage']} "
                          f"did not pass: {rec['error']}", file=sys.stderr)
                    return 1
                stages[rec["stage"]] = rec["observables"]
    reference[profile] = table
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# one run


def manifest(args, threads: int) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "profile": args.profile, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "blas_threads": threads,
            "loadavg_start": os.getloadavg(), "python": platform.python_version(),
            "git_sha": sha or "unknown (not a git checkout)",
            "loop": "closed, 1 client, fresh worker per pass"}


def run_passes(args, env: dict, workdir: str) -> list:
    """Passes until --seconds is used; with --trace 1 they alternate
    untraced/traced so that the tracing overhead is measured in the same run."""
    start = time.monotonic()
    passes = []
    min_passes = 2 if args.trace else MIN_PASSES
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        task = {"workload": args.workload, "seed": args.seed, "profile": args.profile,
                "trace": traced, "pass": len(passes),
                "workdir": os.path.join(workdir, str(len(passes)))}
        os.makedirs(task["workdir"])
        timeout = max(10.0, HARD_LIMIT_S + 20.0 - (time.monotonic() - start))
        try:
            res = run_worker(task, env, timeout)
        except (WorkerFailed, json.JSONDecodeError) as exc:
            res = {"error": type(exc).__name__, "message": str(exc), "elapsed_s": 0.0}
        res["traced"] = traced
        passes.append(res)
        elapsed = time.monotonic() - start
        longest = max(p["elapsed_s"] for p in passes)
        if "error" in res or elapsed + longest > HARD_LIMIT_S:
            break
        if len(passes) >= min_passes and elapsed + longest > args.seconds:
            break
    return passes


def end_to_end(passes: list) -> dict:
    timed = [p for p in passes if not p["traced"] and "wall_s" in p]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in timed),
        "setup_s": statistics.median(p["setup_s"] for p in passes if "setup_s" in p),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
    }


def per_layer(passes: list) -> tuple[dict, list]:
    """Per-layer metrics (medians over traced passes) and the failures of
    the coverage check: top-level spans must cover the untraced wall time
    to within the tracing overhead."""
    traced = [p for p in passes if p["traced"] and "trace" in p]
    plain = [p for p in passes if not p["traced"] and "wall_s" in p]
    values = {}
    for fn, fields in LAYER_FIELDS.items():
        for f in fields:
            values[f"{fn}.{f}"] = statistics.median(
                p["trace"]["functions"].get(fn, {}).get(f, 0) for p in traced)
    for stage in ACCEPTANCE_STAGES:
        values[f"acceptance.{stage}.s"] = statistics.median(
            next((r["seconds"] for r in p["records"] if r["stage"] == stage), 0.0)
            for p in traced)
    values["refine.gap-vs-decay.margin_used"] = max(
        (r["observables"].get("gap_rate_margin_used", 0.0)
         for p in traced for r in p["records"]), default=0.0)
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    overhead = statistics.median(p["wall_s"] for p in traced) - untraced_wall
    values["trace.overhead_s"] = overhead
    failures = []
    top = statistics.median(p["trace"]["top_level_s"] for p in traced)
    if abs(untraced_wall - top) > abs(overhead) + 0.1 * untraced_wall:
        failures.append({"stage": "trace", "type": "CoverageGap", "top_level_s": top,
                         "untraced_wall_s": untraced_wall})
    return values, failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full",
                    help="tiny: small sizes for the harness self-check")
    ap.add_argument("--record", action="store_true",
                    help="re-record reference.json for --profile and exit")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fplab", "__init__.py")):
        print(f"error: fplab sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    threads = blas_threads()
    env = worker_env(threads)
    workdir = tempfile.mkdtemp(prefix="_work-", dir=HERE)
    try:
        if args.record:
            return record(args.profile, env, workdir)
        if args.workload is None:
            ap.error("--workload is required")
        try:
            with open(REFERENCE) as fh:
                reference = json.load(fh)[args.profile][args.workload]
        except (OSError, KeyError, ValueError) as exc:
            print(f"error: no usable reference values: {exc!r}", file=sys.stderr)
            return 2
        info = manifest(args, threads)
        passes = run_passes(args, env, workdir)
        info["loadavg_end"] = os.getloadavg()
        info["versions"] = next((p["versions"] for p in passes if "versions" in p), None)
        print(json.dumps({"manifest": info}))
        attempted = failed = 0
        for i, p in enumerate(passes):
            c, f, failures = evaluate(p, reference)
            attempted, failed = attempted + c, failed + f
            print(json.dumps({"pass": i, "traced": p["traced"],
                              **{k: p[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "error")
                                 if k in p},
                              "checks_total": c, "checks_failed": f, "failures": failures[:20]}))
        timed = [p for p in passes if "wall_s" in p and not p["traced"]]
        if not timed or (args.trace and not any("trace" in p for p in passes)):
            print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                              "failed": max(failed, 1), "metrics": {}}))
            return 0
        if args.trace:
            values, trace_failures = per_layer(passes)
            units = per_layer_units()
            attempted += 1
            failed += len(trace_failures)
            if trace_failures:
                print(json.dumps({"trace_failures": trace_failures}))
        else:
            values, units = end_to_end(passes), END_TO_END_UNITS
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
