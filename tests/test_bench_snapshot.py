"""tools/bench_snapshot.py: the schema of a BENCH_<n>.json, pinned on a
canned perfbench/run.py result line without running a workload."""

import copy
import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the last stdout lines of `perfbench/run.py --workload axb-run --seed 0
# --seconds 1 --trace 0` on a 2-core host
CANNED = """\
# pass_s 0.275 0.275
# trace written to perfbench/out/axb-run-seed0-trace0.json
{"correct": true, "attempted": 452, "failed": 0, "metrics": {"run_s": {"value": 0.2749885125012952, \
"unit": "s"}, "setup_s": {"value": 0.171001876500668, "unit": "s"}, "peak_rss_mb": {"value": 41.28125, \
"unit": "MB"}, "check_pass_share": {"value": 1.0, "unit": "share"}, "plancherel_rel_err": {"value": \
0.00913799196875219, "unit": "ratio"}, "hy_margin_min": {"value": 0.02563945728804151, "unit": "ratio"}}}
"""


@pytest.fixture
def snap(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    import bench_snapshot

    return bench_snapshot


def canned_snapshot(snap, pairs=3):
    """A snapshot whose every run is the canned line, run_s scaled per run."""
    runs = {side: [] for side in snap.SIDES}
    order = []
    for i in range(pairs):
        for side in snap.SIDES[::-1] if i % 2 else snap.SIDES:
            run = dict(snap.parse_run(CANNED), wall_s=25.5)
            run["metrics"]["run_s"] *= 1.0 + 0.1 * len(order)
            runs[side].append(run)
            order.append(side)
    side = {"rev": "HEAD", "commit": "0" * 40, "code_lines": {"wc_l": 2297, "code": 1295}, "meta": {"cores": 2}}
    tier1 = {"passed": 362, "failed": 0, "wall_s": 40.5, "summary": "362 passed in 40.10s"}
    threads = {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None}
    host = {"cores": 2, "affinity": 2, "threads": threads, "python": "3.11.7", "numpy": "2.4.6", "build": {"blas": {}}}
    return {
        "schema": 1,
        "harness": snap.harness(pairs),
        "host": host,
        "sides": {"head": dict(side, tier1=tier1), "anchor": dict(side, rev="e0a78bc", tier1=None)},
        "workloads": {"axb-run": snap.workload_entry(order, runs)},
    }


def test_a_result_line_is_one_run(snap):
    run = snap.parse_run(CANNED)
    assert run == {
        "correct": True,
        "attempted": 452,
        "failed": 0,
        "metrics": {
            "run_s": 0.2749885125012952,
            "setup_s": 0.171001876500668,
            "peak_rss_mb": 41.28125,
            "check_pass_share": 1.0,
            "plancherel_rel_err": 0.00913799196875219,
            "hy_margin_min": 0.02563945728804151,
        },
    }


def test_a_summary_is_each_metrics_median_and_quartiles(snap):
    runs = [{"correct": c, "metrics": {"run_s": v}} for c, v in ((True, 4.0), (True, 1.0), (False, 2.0), (True, 3.0))]
    assert snap.summarize(runs) == {"runs": 4, "correct": 3, "run_s": {"median": 2.5, "q1": 1.75, "q3": 3.25}}
    assert snap.summarize(runs[:1])["run_s"] == {"median": 4.0, "q1": 4.0, "q3": 4.0}


def test_the_schema_takes_a_snapshot_and_refuses_a_departure(snap):
    doc = canned_snapshot(snap)
    assert snap.check_schema(doc) == []
    assert snap.check_schema(json.loads(json.dumps(doc))) == []  # as written and read back
    assert doc["workloads"]["axb-run"]["order"] == ["head", "anchor", "anchor", "head", "head", "anchor"]

    def broken(edit):
        bad = copy.deepcopy(doc)
        edit(bad)
        return snap.check_schema(bad)

    runs = lambda d: d["workloads"]["axb-run"]["runs"]
    assert broken(lambda d: d["host"].pop("numpy"))  # a missing field
    assert broken(lambda d: d["harness"].update(seconds="25"))  # a field of the wrong type
    assert broken(lambda d: d["sides"]["anchor"].update(tier1={"passed": 1}))  # a partial Tier-1
    assert broken(lambda d: runs(d)["head"].pop())  # fewer runs than pairs
    assert broken(lambda d: runs(d)["head"][0]["metrics"].update(run_s=9.0))  # a summary that is not of its runs
    assert broken(lambda d: d["workloads"].update(other=d["workloads"]["axb-run"]))  # an unknown workload


def test_every_committed_snapshot_fits_the_schema(snap):
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        with open(path) as fh:
            assert snap.check_schema(json.load(fh)) == [], path
