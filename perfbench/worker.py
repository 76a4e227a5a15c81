"""One workload pass in a fresh interpreter, driven by run.py.

Usage: worker.py '<json job>' where the job names the workload, seed, scale,
whether to trace, and whether to report build metadata.  The worker sets the
workload up, prints ``READY``, and waits for one line on stdin: ``GO`` runs
one pass and prints its result as a JSON line, anything else exits.  run.py
times set-up from process start to ``READY``.

run.py pins the thread counts in the environment; the worker checks them
before numpy is imported, because OpenBLAS reads them once at load time.
"""

import contextlib
import json
import os
import sys

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "HYW_THREADS": "1"}


def _blas_info(np):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return "unknown"
    blas = deps.get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def main():
    job = json.loads(sys.argv[1])
    wrong = {k: os.environ.get(k) for k, v in PINNED.items() if os.environ.get(k) != v}
    if wrong:
        sys.exit(f"worker: thread counts not pinned: {wrong}")

    import resource
    import time

    import numpy as np

    import hywbench
    import workloads

    src = os.path.realpath(job["src"])
    if not os.path.realpath(hywbench.__file__).startswith(src + os.sep):
        sys.exit(f"worker: imported hywbench from {hywbench.__file__}, not {src}")

    wl = workloads.prepare(job["workload"], job["seed"], job["scale"])
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        records, body, extra = workloads.run_pass(wl, tracer)
    run_s = time.perf_counter() - start
    if tracer is not None:
        extra["trace"] = tracer.metrics()
        extra["spans"] = tracer.spans

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "gaussian_rhs": wl.gaussian_rhs(),
        "records": records,
        "body": body,
        "extra": extra,
    }
    if job["meta"]:
        out["meta"] = {
            "cores": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas_info(np),
            "hywbench": hywbench.__version__,
            "threads": {k: os.environ[k] for k in PINNED},
        }
    print(json.dumps(out, allow_nan=False), flush=True)


if __name__ == "__main__":
    main()
