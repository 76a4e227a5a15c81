"""Tests for the benchmark itself, at reduced size.

    python3 -m pytest perfbench -q

They run the small variant of each workload, so they check plumbing, the
correctness gate and the tracer, not timings.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_spec_matches_runner():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
    assert PER_LAYER == {**run.PER_LAYER, "trace.overhead_s": "s"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted(workload):
    for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
        report = run.measure(workload, seed=0, seconds=0, trace=trace, scale="small")
        assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
        metrics = report["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        for name, entry in metrics.items():
            assert isinstance(entry["value"], (int, float)), name
            if name not in ("plancherel_rel_err", "hy_margin_min"):
                assert math.isfinite(entry["value"]), name
    assert metrics["transform.pair.calls"]["value"] > 0
    assert metrics["schatten.norm.flop_computed"]["value"] > 0


def _small_pass():
    _, result = run.worker_pass(run._job("axb-run", 0, "small"), time.perf_counter() + 120)
    return result


def test_failing_or_deviating_records_raise_fail_share():
    base = _small_pass()
    reference = run.reference_rows(base["records"])
    n = len(base["records"])
    assert run.grade([base], reference) == (n, 0)

    failing = json.loads(json.dumps(base))
    failing["records"][3]["passed"] = False
    assert run.grade([base, failing], reference) == (2 * n, 1)

    deviating = json.loads(json.dumps(base))
    deviating["records"][5]["lhs"] *= 1 + 1e-8
    assert run.grade([base, deviating], reference) == (2 * n, 1)
    assert run.grade([base, deviating]) == (2 * n, 0)  # no reference off seed 0

    drifting = dict(base, body=base["body"].replace("1", "2", 1))
    assert run.grade([base, drifting]) == (2 * n, n)

    short = dict(base, records=base["records"][:-2])
    assert run.grade([short], reference) == (n, 2)

    share = run.end_to_end([base], [0.1], *run.grade([base, failing], reference))
    assert share["check_pass_share"][0] == pytest.approx(1 - 1 / (2 * n))


def test_traced_body_equals_untraced_and_counts_repeat():
    from hywbench import cli, grids, groups, schatten, transform, verify
    from tracer import Tracer

    def bindings():
        return (
            cli.run_suite,
            cli.sample,
            verify.schatten_norm,
            transform.kernel_from_pair_table,
            groups.GroupExtensionModel.dual_action,
            dict(cli.CHECK_FAMILIES),
        )

    originals = bindings()
    wl = workloads.prepare("heis-run", 0, "small")
    _, body, _ = workloads.run_pass(wl)
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            _, traced_body, _ = workloads.run_pass(wl, tracer)
        assert traced_body == body
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if k.endswith(("calls", "share"))})
        assert metrics["verify.proof-chain.s"] > 0 and metrics["schatten.cross_norm.calls"] > 0
        assert metrics["verify.self_s"] < metrics["cli.run_suite.s"]
        families = [s for s in tracer.spans if s[2] == "proof-chain"]
        assert families and tracer.spans[families[0][1]][2] == "cli.run_suite"
    assert counts[0] == counts[1]
    assert counts[0]["grids.sample.calls"] == 9  # 6 hausdorff-young + 3 proof-chain fixtures
    assert counts[0]["grids.sample.distinct_share"] == pytest.approx(6 / 9)
    assert bindings() == originals
    assert grids.sample is cli.sample and schatten.schatten_norm is verify.schatten_norm


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "axb-run", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
