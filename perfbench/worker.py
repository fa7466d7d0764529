"""One benchmark worker: set up, report ready, run one pass, report.

``run.py`` starts a fresh worker for every pass, with the BLAS thread count
already pinned in its environment, and times set-up from process start to
the ready line.  The worker prints exactly two JSON lines on stdout:

    {"event": "ready", "stages": [...], "versions": {...}}
    {"event": "done", "wall_s": ..., "peak_rss_mb": ..., "records": [...], "trace": ...}

Usage: python3 perfbench/worker.py '<task json>'
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(argv: list[str]) -> int:
    task = json.loads(argv[1])
    import workloads
    from fplab import grids, operators, spectra

    # first small assemble + eigensolve: pays the one-off LAPACK start-up
    # cost that every CLI invocation pays
    spectra.eigen_spectrum(operators.assemble(operators.Classical(), grids.make_grid(12.0, 65)))
    names = [name for name, _ in workloads.stages(task["workload"], task["seed"],
                                                   task["profile"], task["workdir"])]
    proto = sys.stdout
    print(json.dumps({"event": "ready", "stages": names, "versions": _versions()}),
          file=proto, flush=True)

    tracer = None
    if task["trace"]:
        from tracer import Tracer

        tracer = Tracer(run_id=task["pass"])
        tracer.install()
    # the CLI's own progress lines would interleave with the protocol
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        t0 = time.perf_counter()
        records = workloads.run_pass(task["workload"], task["seed"], task["profile"],
                                     task["workdir"])
        wall = time.perf_counter() - t0
    out = {"event": "done", "wall_s": wall,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "records": records}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
    print(json.dumps(out), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
