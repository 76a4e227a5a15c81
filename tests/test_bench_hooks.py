"""What the benchmark in perfbench/ uses of the package.

perfbench/tracer.py counts layer calls by rebinding hywbench functions and
methods by name.  If a refactor deletes, renames or aliases one of them, or
routes around one, the tracer either fails to install or counts zero calls;
the first test catches both on small grids, without running the benchmark.
perfbench/workloads.py calls verify directly, with the dual sampling passed
positionally; the second test runs those workloads at small scale, so a
changed signature fails here.  The last test grades full-scale seed-0 passes
of all four workloads against perfbench/reference/, as the benchmark does;
refine is the only one on refined grids, where the pairing GEMMs are
largest.  All only read perfbench/.
"""

import os

import pytest

from hywbench import verify
from hywbench.cli import RunConfig, run_suite
from hywbench.grids import Grid1D, TestFunctionSpec, sample
from hywbench.groups import make_group

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_counts_every_patched_layer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    model, dual = make_group("axb")
    spec = TestFunctionSpec(kind="random-bandlimited", seed=1, width_n=(0.5,), width_h=0.3)
    g = sample(spec, (Grid1D(-2.0, 2.0, 32),), Grid1D(-1.0, 1.0, 8), model)
    with tracer.Tracer() as t:
        verify.check_plancherel(g, dual)
        verify.hausdorff_young_margins(g, dual, (1.5,))
    for layer in ("groups.dual_action", "transform.pair", "transform.kernel", "schatten.norm"):
        assert t.calls[layer] > 0, layer
    # a small hyw run sees every traced layer and counts SVD work: a route
    # around a traced function would zero its per-layer metric
    for group in ("axb", "heisenberg"):
        cfg = RunConfig(group=group, checks=("proof-chain", "hausdorff-young"), grid_n=16, grid_h=16)
        with tracer.Tracer() as t:
            run_suite(cfg.validate())
        for layer in tracer.LEAF_LAYERS:
            assert t.calls[layer] > 0, (group, layer)
        assert t.flop_computed > 0, group


def test_direct_workloads_pass_and_repeat(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    sweep = workloads.prepare("heis-hy-sweep", 0, scale="small")
    records, body, _ = workloads.run_pass(sweep)
    assert records and all(r["passed"] for r in records)
    # an SVD family on Heisenberg: the body repeats byte for byte
    assert workloads.run_pass(sweep)[1] == body
    records, _, _ = workloads.run_pass(workloads.prepare("refine", 0, scale="small"))
    assert records and all(r["passed"] for r in records)


@pytest.mark.parametrize("name", ["axb-run", "heis-hy-sweep", "heis-run", "refine"])
def test_seed_zero_passes_match_the_references(monkeypatch, name):
    # the benchmark's reference gate (rel 1e-9 on every lhs and rhs) on a
    # full-scale pass, so a last-bit drift in a roundoff-sized record fails here
    monkeypatch.syspath_prepend(PERFBENCH)
    import run
    import workloads

    records, body, _ = workloads.run_pass(workloads.prepare(name, 0))
    passes = [{"records": records, "body": body}]
    assert run.grade(passes, run.load_reference(name)) == (len(records), 0)
