"""Digest the deterministic body of a fixed list of ``hyw run`` reports, the
stdout of every demo, the fixture manifest of every group and the body of
the perfbench workloads that no ``hyw run`` config covers.

The body of a report is every line that is not a ``#`` comment; the report
format promises it is byte-identical across runs with the same configuration,
seed, numpy/BLAS build and BLAS thread count.  Each config below runs in a
fresh interpreter on the package source next to this file, with one BLAS
thread, and prints one ``sha256  args`` line; each demo then prints one
``sha256  demos/NN_name.py`` line for its stdout, and each group one
``sha256  fixtures --group G`` line for the sha256 manifest that
``hyw fixtures --group G --seed 0`` writes (which pins the bytes of every
HYW1 file; the Heisenberg files, about 80 MB, go to a temporary directory
that is removed afterwards).  Last, each workload in PERFBENCH prints one
``sha256  perfbench NAME`` line for the body of one seed-0 full-scale pass,
``workloads.run_pass(workloads.prepare(NAME, 0))``, run with perfbench/ on
the path and no bytecode written there.  heis-run and axb-run are left out:
their bodies are those of the ``--group heisenberg --seed 0`` and
``--group axb --p 1.2,1.5,1.8`` reports above.  To check that a change
leaves every body, demo output and fixture file alone, run it in both
checkouts and diff the output:

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
    "--group heisenberg --checks gaussian-extremality --p 1.2,1.5,2",
    "--group heisenberg --grid-n 4 --grid-h 4",
    "--group axb --constants classical --checks hausdorff-young,proof-chain --p 1.2,1.8",
    "--group heisenberg --checks nilpotent-bound,gaussian-extremality --p 1.5,2",
    "--group axb --p 1.5,2",
    "--group axb --checks schatten-suite,russo-fournier,minkowski --seed 11",
)
DEMOS = (
    "demos/01_group_models.py",
    "demos/02_plancherel.py",
    "demos/03_hausdorff_young.py",
    "demos/04_proof_chain.py",
    "demos/05_kernel_inequalities.py",
)
FIXTURE_GROUPS = ("axb", "heisenberg")
PERFBENCH = ("heis-hy-sweep", "refine")
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _env(*dirs) -> dict:
    """This environment with one BLAS thread and dirs, then the package
    source, first on the path."""
    env = dict(os.environ, **ONE_THREAD)
    path = (*(os.path.join(ROOT, d) for d in dirs), os.path.join(ROOT, "src"), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    return env


def digest(args: str) -> str:
    """sha256 of the non-comment lines of the report of ``hyw run args``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.jsonl")
        cmd = [sys.executable, "-m", "hywbench.cli", "run", *args.split(), "--quiet", "--out", out]
        done = subprocess.run(cmd, env=_env(), capture_output=True, text=True)
        if done.returncode not in (0, 1):  # 1: a check failed, and the body still counts
            raise RuntimeError(f"hyw run {args}: exit {done.returncode}: {done.stderr.strip()}")
        with open(out, encoding="utf-8") as fh:
            body = "".join(line for line in fh if not line.startswith("#"))
    return hashlib.sha256(body.encode()).hexdigest()


def demo_digest(path: str) -> str:
    """sha256 of the stdout of the demo at path, relative to the repo root."""
    cmd = [sys.executable, os.path.join(ROOT, path)]
    done = subprocess.run(cmd, env=_env(), capture_output=True)
    if done.returncode:
        raise RuntimeError(f"{path}: exit {done.returncode}: {done.stderr.decode().strip()}")
    return hashlib.sha256(done.stdout).hexdigest()


def fixtures_digest(group: str) -> str:
    """sha256 of the manifest that ``hyw fixtures --group group --seed 0`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [sys.executable, "-m", "hywbench.cli", "fixtures", "--group", group, "--out", tmp, "--seed", "0"]
        done = subprocess.run(cmd, env=_env(), capture_output=True, text=True)
        if done.returncode:
            raise RuntimeError(f"hyw fixtures --group {group}: exit {done.returncode}: {done.stderr.strip()}")
        with open(os.path.join(tmp, f"{group}-MANIFEST.sha256"), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def perfbench_digest(name: str) -> str:
    """sha256 of the body of one seed-0 full-scale pass of the perfbench workload name."""
    code = (
        "import hashlib, workloads\n"
        f"_, body, _ = workloads.run_pass(workloads.prepare({name!r}, 0))\n"
        "print(hashlib.sha256(body.encode()).hexdigest())"
    )
    cmd = [sys.executable, "-B", "-c", code]
    done = subprocess.run(cmd, env=_env("perfbench"), capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"perfbench {name}: exit {done.returncode}: {done.stderr.strip()}")
    return done.stdout.strip()


def main() -> int:
    for args in CONFIGS:
        print(f"{digest(args)}  {args}", flush=True)
    for path in DEMOS:
        print(f"{demo_digest(path)}  {path}", flush=True)
    for group in FIXTURE_GROUPS:
        print(f"{fixtures_digest(group)}  fixtures --group {group}", flush=True)
    for name in PERFBENCH:
        print(f"{perfbench_digest(name)}  perfbench {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
