"""Digest the deterministic body of a fixed list of ``hyw run`` reports.

The body of a report is every line that is not a ``#`` comment; the report
format promises it is byte-identical across runs with the same configuration,
seed, numpy/BLAS build and BLAS thread count.  Each config below runs in a
fresh interpreter on the package source next to this file, with one BLAS
thread, and prints one ``sha256  args`` line.  To check that a change leaves
every body alone, run it in both checkouts and diff the output:

    python3 tools/report_bodies.py > after.txt
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = (
    "--group heisenberg --seed 0",
    "--group axb --p 1.2,1.5,1.8",
    "--group heisenberg --p 1.2,1.5,2 --seed 7",
    "--group axb --checks plancherel,proof-chain,gaussian-extremality --grid-n 4 --grid-h 4",
    "--group heisenberg --checks gaussian-extremality,proof-chain --p 1.5,1.8",
    "--group heisenberg --grid-n 4 --grid-h 4",
)
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def digest(args: str) -> str:
    """sha256 of the non-comment lines of the report of ``hyw run args``."""
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.jsonl")
        cmd = [sys.executable, "-m", "hywbench.cli", "run", *args.split(), "--quiet", "--out", out]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if done.returncode not in (0, 1):  # 1: a check failed, and the body still counts
            raise RuntimeError(f"hyw run {args}: exit {done.returncode}: {done.stderr.strip()}")
        with open(out, encoding="utf-8") as fh:
            body = "".join(line for line in fh if not line.startswith("#"))
    return hashlib.sha256(body.encode()).hexdigest()


def main() -> int:
    for args in CONFIGS:
        print(f"{digest(args)}  {args}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
