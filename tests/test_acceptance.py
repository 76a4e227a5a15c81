"""Acceptance gate: the ten headline criteria, each one test, each at its
stated tolerance and runtime budget.  Run with -v for one line per criterion.

Nothing here derives a tolerance from observed behavior; every number is the
published contract for the desk-scale grids.
"""

import time

import numpy as np
import pytest

from hywbench.grids import lp_norm_G, sample
from hywbench.groups import make_group
from hywbench.verify import (
    babenko_constant,
    check_gaussian_extremality,
    check_nilpotent_bound,
    check_plancherel,
    check_proof_chain,
    default_grids,
    default_sampling_config,
    dual_measure_suite,
    gaussian_fixtures,
    hausdorff_young_margins,
    minkowski_random_suite,
    random_fixtures,
    russo_fournier_random_suite,
    schatten_property_suite,
    semi_invariance_suite,
)


def plancherel_error(group, spec, n_grids, h_grid):
    model, dual = make_group(group)
    g = sample(spec, n_grids, h_grid, model)
    r = check_plancherel(g, dual, default_sampling_config(group))
    return abs(r.lhs - r.rhs) / r.rhs


def ten_fixtures(group, seed):
    return gaussian_fixtures(group, 5) + random_fixtures(group, 5, base_seed=seed)


def test_criterion_01_plancherel_axb_with_refinement():
    t0 = time.perf_counter()
    n_grids, h_grid = default_grids("axb")
    assert n_grids[0].n == 128 and h_grid.n == 128
    fine_n = [g.balanced_refine() for g in n_grids]
    fine_h = h_grid.balanced_refine()
    worst, worst_drop = 0.0, np.inf
    for spec in ten_fixtures("axb", seed=1000):
        err = plancherel_error("axb", spec, n_grids, h_grid)
        err_fine = plancherel_error("axb", spec, fine_n, fine_h)
        assert err <= 1e-2, f"{spec.kind} seed={spec.seed}: {err:.3e}"
        assert err_fine < err, f"{spec.kind} seed={spec.seed}: refinement did not help"
        worst = max(worst, err)
        worst_drop = min(worst_drop, err / err_fine)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    print(f"criterion 1: worst rel err {worst:.3e}, min refinement gain "
          f"{worst_drop:.1f}x, {elapsed:.1f}s")


def test_criterion_02_plancherel_heisenberg():
    t0 = time.perf_counter()
    n_grids, h_grid = default_grids("heisenberg")
    assert [g.n for g in n_grids] == [64, 64] and h_grid.n == 128
    assert default_sampling_config("heisenberg").lambda_points == 64
    worst = 0.0
    for spec in ten_fixtures("heisenberg", seed=2000):
        err = plancherel_error("heisenberg", spec, n_grids, h_grid)
        assert err <= 2e-2, f"{spec.kind} seed={spec.seed}: {err:.3e}"
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    print(f"criterion 2: worst rel err {worst:.3e}, {elapsed:.1f}s")


@pytest.mark.parametrize("group", ["axb", "heisenberg"])
def test_criterion_03_hausdorff_young_sharp(group):
    model, dual = make_group(group)
    n_grids, h_grid = default_grids(group)
    sampling = default_sampling_config(group)
    ps = (1.2, 1.5, 1.8)
    violations = 0
    worst_ratio = 0.0
    for spec in random_fixtures(group, 50, base_seed=3000):
        g = sample(spec, n_grids, h_grid, model)
        for r in hausdorff_young_margins(g, dual, ps, "sharp", sampling):
            assert r.tolerance == 1e-6
            worst_ratio = max(worst_ratio, r.lhs / r.rhs)
            if not r.passed:
                violations += 1
    assert violations == 0
    print(f"criterion 3 [{group}]: 150 checks, worst lhs/rhs {worst_ratio:.6f}")


@pytest.mark.parametrize("group", ["axb", "heisenberg"])
def test_criterion_04_proof_chain_monotone_and_equalities(group):
    model, dual = make_group(group)
    n_grids, h_grid = default_grids(group)
    sampling = default_sampling_config(group)
    if group == "axb":
        specs = gaussian_fixtures(group, 3) + random_fixtures(group, 5, base_seed=4000)
        ps = (1.2, 1.5, 1.8)
    else:
        specs = gaussian_fixtures(group, 2) + random_fixtures(group, 3, base_seed=4000)
        ps = (1.5,)
    checked = 0
    for spec in specs:
        g = sample(spec, n_grids, h_grid, model)
        for p in ps:
            for r in check_proof_chain(g, dual, p, config=sampling):
                assert r.passed, f"{spec.kind} seed={spec.seed} p={p}: {r}"
                checked += 1
    # exponent 2: every link an equality within 1e-2 relative
    for spec in (gaussian_fixtures(group, 1) + random_fixtures(group, 1, base_seed=4100)):
        g = sample(spec, n_grids, h_grid, model)
        results = check_proof_chain(g, dual, 2.0, config=sampling)
        equalities = [r for r in results if r.name.startswith("proof-chain:equal-at-two")]
        assert len(equalities) == 4
        for r in results:
            assert r.tolerance <= 1e-2 or r.kind != "equality"
            assert r.passed, f"{spec.kind} seed={spec.seed} p=2: {r}"
            checked += 1
    print(f"criterion 4 [{group}]: {checked} ordered links, equal at p=2")


@pytest.mark.parametrize("group", ["axb", "heisenberg"])
def test_criterion_05_semi_invariance(group):
    _, dual = make_group(group)
    sampling, h_grid = default_sampling_config(group), default_grids(group)[1]
    results = semi_invariance_suite(dual, sampling, h_grid, count=20, seed=500)
    assert len(results) == 20
    worst = max(r.lhs for r in results)
    assert all(r.passed and r.tolerance == 1e-10 for r in results)
    assert worst <= 1e-10
    print(f"criterion 5 [{group}]: worst deviation {worst:.2e}")


def test_criterion_06_kernel_inequality_suites():
    rf = russo_fournier_random_suite(count=1000, seed=60)
    mk = minkowski_random_suite(count=1000, seed=61)
    for r in (rf, mk):
        assert r.passed and r.tolerance == 1e-10
        assert "1000 kernels, 0 violations" in r.detail
    print(f"criterion 6: russo-fournier worst {rf.lhs/rf.rhs:.6f}, "
          f"minkowski worst {mk.lhs/mk.rhs:.6f}")


@pytest.mark.parametrize("group", ["axb", "heisenberg"])
def test_criterion_07_dual_measure_scaling(group):
    results = dual_measure_suite(make_group(group)[0], count=100, seed=70)
    assert len(results) == 100
    assert all(r.passed and r.tolerance == 1e-12 for r in results)
    worst = max(abs(r.lhs - r.rhs) / max(abs(r.rhs), 1e-300) for r in results)
    print(f"criterion 7 [{group}]: worst rel deviation {worst:.2e}")


def test_criterion_08_nilpotent_bound():
    model, dual = make_group("heisenberg")
    n_grids, h_grid = default_grids("heisenberg")
    sampling = default_sampling_config("heisenberg")
    p = 1.5
    # the instance is three-dimensional with two-dimensional generic dual
    # orbits, so the line constant enters at the power 3 - 2/2 = 2
    exponent = 3 - 2 / 2
    expected = babenko_constant(p, 1) ** exponent
    specs = gaussian_fixtures("heisenberg", 5) + random_fixtures("heisenberg", 15, base_seed=8000)
    violations = 0
    for spec in specs:
        g = sample(spec, n_grids, h_grid, model)
        r = check_nilpotent_bound(g, dual, p, sampling)
        assert r.rhs == pytest.approx(expected * lp_norm_G(g, p), rel=1e-12)
        if not r.passed:
            violations += 1
    assert violations == 0
    print(f"criterion 8: 20 fixtures at p={p}, 0 violations, constant {expected:.6f}")


@pytest.mark.parametrize("group", ["axb", "heisenberg"])
def test_criterion_09_gaussian_extremality(group):
    model, _ = make_group(group)
    g = sample(gaussian_fixtures(group, 1)[0], *default_grids(group), model)
    for p in (4 / 3, 1.5, 1.8):
        r = check_gaussian_extremality(g, p)
        assert r.passed, f"p={p}: {r}"
        assert r.lhs == pytest.approx(0.99 * babenko_constant(p, 2 if group == "heisenberg" else 1))
    print(f"criterion 9 [{group}]: slice ratios within 1% of the sharp constant")


def test_criterion_10_schatten_property_floor():
    t0 = time.perf_counter()
    r = schatten_property_suite(count=40, size=64, seed=100)
    elapsed = time.perf_counter() - t0
    assert r.passed and r.tolerance == 1e-10
    assert "0 violations" in r.detail
    assert elapsed <= 10.0
    print(f"criterion 10: worst deviation {r.lhs:.2e}, {elapsed:.1f}s")
