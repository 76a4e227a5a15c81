"""Snapshot the benchmark at HEAD against a fixed anchor: BENCH_<n>.json.

Both commits are extracted with ``git archive`` into temporary directories,
so nothing is written under .git or into the checkout, and each side runs
the ``perfbench/run.py`` it ships, untraced, at seed 0.  For every workload
the two sides alternate for ``--pairs`` pairs, the side that runs first
switching from pair to pair, and every run lasts 25 s.  The file holds
every run's result line, each side's median and quartiles per metric, the
Tier-1 wall time and pass count of HEAD, the code lines of both sides
(tools/code_lines.py), both commits, the core count, the BLAS threads the
harness pins and the numpy/BLAS build (``np.show_config(mode="dicts")``).  A timing compares only with one taken
in the same session, so the anchor is measured again every time.

Run from the repository root, with nothing else running:

    python3 tools/bench_snapshot.py --out BENCH_38.json
    python3 tools/bench_snapshot.py --anchor 860b21e --pairs 10 \\
        --workloads axb-run,heis-hy-sweep --no-tier1 --out /tmp/ab.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

from code_lines import totals

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("heis-run", "heis-hy-sweep", "axb-run", "refine")
ANCHOR = "e0a78bc"
SEED = 0
SECONDS = 25
MIN_PAIRS = 3
SIDES = ("head", "anchor")
SCHEMA = {
    "schema": int,
    "harness": {"command": str, "seed": int, "seconds": int, "pairs": int},
    "host": {"cores": int, "affinity": int, "threads": dict, "python": str, "numpy": str, "build": dict},
    "sides": {"head": dict, "anchor": dict},
    "workloads": dict,
}
# one side: its tier1 is a TIER1 or null (the anchor's always is), and meta
# is the build metadata its run.py wrote
SIDE = {"rev": str, "commit": str, "code_lines": {"wc_l": int, "code": int}, "tier1": dict, "meta": dict}
TIER1 = {"passed": int, "failed": int, "wall_s": float, "summary": str}
RUN = {"correct": bool, "attempted": int, "failed": int, "metrics": dict, "wall_s": float}


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, check=True).stdout


def extract(rev: str, dest: str) -> str:
    """The tree of rev under dest; returns its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def parse_run(stdout: str) -> dict:
    """One run.py result: its last stdout line, the metrics flattened to values."""
    result = json.loads(stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_workload(tree: str, workload: str) -> tuple:
    """(result, meta) of one untraced run.py run in tree; meta is read from
    the trace file the run writes under the tree's perfbench/out/."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {tree}: exit {proc.returncode}: {proc.stderr.strip()}")
    result = dict(parse_run(proc.stdout), wall_s=time.perf_counter() - start)
    (written,) = re.findall(r"^# trace written to (.+)$", proc.stdout, re.M)
    with open(os.path.join(tree, written)) as fh:
        return result, json.load(fh)["meta"]


def summarize(runs) -> dict:
    """Median and quartiles of each metric over runs, and how many were correct."""
    summary = {"runs": len(runs), "correct": sum(r["correct"] for r in runs)}
    for name in runs[0]["metrics"]:
        values = sorted(r["metrics"][name] for r in runs)
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        summary[name] = {"median": median, "q1": q1, "q3": q3}
    return summary


def tier1(tree: str) -> dict:
    """Wall time and counts of the Tier-1 command of ROADMAP.md in tree."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True, env=env)
    wall_s = time.perf_counter() - start
    last = proc.stdout.strip().splitlines()[-1]
    found = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", last)}
    return {"passed": found.get("passed", 0), "failed": found.get("failed", 0) + found.get("error", 0),
            "wall_s": wall_s, "summary": last}


def host() -> dict:
    """Cores, the BLAS thread variables Tier-1 ran under (run.py pins its
    own, which each side's meta records), Python, numpy, and the name,
    version and configuration of each numpy build dependency (BLAS,
    LAPACK); the build's file paths are left out."""
    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    build = {lib: {k: info[k] for k in ("name", "version", "openblas configuration") if k in info}
             for lib, info in deps.items()}
    threads = {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {"cores": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "threads": threads,
            "python": platform.python_version(), "numpy": np.__version__, "build": build}


def check_schema(doc: dict) -> list:
    """Every way doc departs from the snapshot schema; empty when it fits."""
    problems = []

    def expect(value, shape, where):
        if isinstance(shape, dict):
            if not isinstance(value, dict) or set(value) != set(shape):
                problems.append(f"{where}: keys {sorted(value) if isinstance(value, dict) else value!r}")
                return
            for key, sub in shape.items():
                expect(value[key], sub, f"{where}.{key}")
        elif not isinstance(value, shape) or isinstance(value, bool) and shape is int:
            problems.append(f"{where}: {type(value).__name__}, not {shape.__name__}")

    expect(doc, SCHEMA, "doc")
    if problems:
        return problems
    for side in SIDES:
        tier1_shape = type(None) if doc["sides"][side].get("tier1") is None else TIER1
        expect(doc["sides"][side], dict(SIDE, tier1=tier1_shape), f"sides.{side}")
    for name, entry in doc["workloads"].items():
        if name not in WORKLOADS or not isinstance(entry, dict) or set(entry) != {"order", "runs", "summary"}:
            problems.append(f"workloads.{name}")
            continue
        runs = entry["runs"]
        if sorted(entry["order"]) != sorted(SIDES * doc["harness"]["pairs"]) or set(runs) != set(SIDES):
            problems.append(f"workloads.{name}.order")
            continue
        for side in SIDES:
            if len(runs[side]) != doc["harness"]["pairs"]:
                problems.append(f"workloads.{name}.runs.{side}")
            for i, run in enumerate(runs[side]):
                expect(run, RUN, f"workloads.{name}.runs.{side}[{i}]")
        if not problems and entry != workload_entry(entry["order"], runs):
            problems.append(f"workloads.{name}.summary")
    return problems


def workload_entry(order, runs) -> dict:
    return {"order": order, "runs": runs, "summary": {side: summarize(runs[side]) for side in SIDES}}


def harness(pairs: int) -> dict:
    command = "python3 perfbench/run.py --workload W --seed 0 --seconds S --trace 0"
    return {"command": command, "seed": SEED, "seconds": SECONDS, "pairs": pairs}


def snapshot(anchor, workloads, pairs, with_tier1, log) -> dict:
    sides = {}
    with tempfile.TemporaryDirectory() as head_tree, tempfile.TemporaryDirectory() as anchor_tree:
        trees = {"head": head_tree, "anchor": anchor_tree}
        for side, r in (("head", "HEAD"), ("anchor", anchor)):
            tree = trees[side]
            commit = extract(r, tree)
            wc_l, code = totals(tree)
            sides[side] = {"rev": r, "commit": commit, "code_lines": {"wc_l": wc_l, "code": code},
                           "tier1": None, "meta": {}}
        if with_tier1:
            log("tier-1 at HEAD")
            sides["head"]["tier1"] = tier1(head_tree)
        results = {}
        for name in workloads:
            order, runs = [], {side: [] for side in SIDES}
            for i in range(pairs):
                for side in SIDES[::-1] if i % 2 else SIDES:  # head first on even pairs
                    result, sides[side]["meta"] = run_workload(trees[side], name)
                    log(f"{name} pair {i + 1}/{pairs} {side}: run_s {result['metrics']['run_s']:.4f}")
                    order.append(side)
                    runs[side].append(result)
            results[name] = workload_entry(order, runs)
    return {"schema": 1, "harness": harness(pairs), "host": host(), "sides": sides, "workloads": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--anchor", default=ANCHOR, help=f"the commit to compare with (default {ANCHOR})")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--no-tier1", action="store_true", help="skip the Tier-1 run")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if not set(workloads) <= set(WORKLOADS):
        parser.error(f"workloads must be among {WORKLOADS}")
    if args.pairs < MIN_PAIRS:
        parser.error(f"need --pairs >= {MIN_PAIRS}")
    doc = snapshot(args.anchor, workloads, args.pairs, not args.no_tier1,
                   lambda line: print(line, file=sys.stderr, flush=True))
    problems = check_schema(doc)
    if problems:
        print("bench_snapshot: " + "; ".join(problems), file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
