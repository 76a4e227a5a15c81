"""Checks for the verification layer itself.

Strategy: every numeric claim is either recomputed here by a naive
independent route (loops, closed forms) or frozen from a slow reference run
and asserted as a regression value.
"""

import dataclasses
import math

import numpy as np
import pytest

from hywbench.grids import lp_norm_G, modular_on_grid, sample
from hywbench.groups import make_group
from hywbench.schatten import (
    WeightedKernel,
    conjugate_exponent,
    schatten_norm,
    schatten_norms,
    weighted_operator_matrix,
)
from hywbench.transform import CharacterSlice, kernel_from_pair_table, pair_rows
from hywbench.verify import (
    TOLERANCES,
    babenko_constant,
    check_dual_measure_scaling,
    check_gaussian_extremality,
    check_minkowski,
    check_nilpotent_bound,
    check_plancherel,
    check_proof_chain,
    check_russo_fournier,
    check_semi_invariance,
    default_grids,
    default_sampling_config,
    dual_measure_suite,
    equality_result,
    gaussian_fixtures,
    hausdorff_young_margins,
    inequality_result,
    minkowski_random_suite,
    proof_chain_quantities,
    random_fixtures,
    russo_fournier_random_suite,
    schatten_property_suite,
    semi_invariance_suite,
    slice_ratios,
    spectral_record,
)
from hywbench.groups import DualOrbitModel, GroupElement


def sample_fixture(group_name, spec):
    """spec sampled on the default grids of group_name."""
    model, _ = make_group(group_name)
    n_grids, h_grid = default_grids(group_name)
    return sample(spec, n_grids, h_grid, model)


def axb_base():
    model, dual = make_group("axb")
    g = sample_fixture("axb", gaussian_fixtures("axb", 1)[0])
    return model, dual, g


# -- result plumbing ---------------------------------------------------------------


def test_inequality_result_semantics():
    assert inequality_result("x", 1.0, 1.0, 1e-10).passed
    assert inequality_result("x", 1.0 + 1e-12, 1.0, 1e-10).passed
    assert not inequality_result("x", 1.001, 1.0, 1e-10).passed
    # vanishing right side switches to absolute slack
    assert inequality_result("x", 1e-12, 0.0, 1e-10).passed
    assert not inequality_result("x", 1e-8, 0.0, 1e-10).passed
    # a side that is not a finite number fails closed
    assert not inequality_result("x", 0.0, math.nan, 1e-6).passed
    assert not inequality_result("x", math.inf, math.inf, 1e-6).passed


def test_equality_result_semantics():
    assert equality_result("x", 2.0, 2.0 * (1 + 5e-3), 1e-2).passed
    assert not equality_result("x", 2.0, 2.1, 1e-2).passed
    assert equality_result("x", 0.0, 0.0, 1e-12).passed
    assert not equality_result("x", math.nan, 1.0, 1e-2).passed


def test_tolerance_classes_exist():
    assert set(TOLERANCES) == {"linalg", "measure", "bound", "equality", "quadrature"}
    assert TOLERANCES["measure"] < TOLERANCES["linalg"] < TOLERANCES["bound"]


# -- sharp constants ---------------------------------------------------------------


def test_babenko_constant_against_closed_form():
    for p in (1.2, 4 / 3, 1.5, 1.8):
        q = p / (p - 1)
        direct = math.sqrt(p ** (1 / p) / q ** (1 / q))
        assert babenko_constant(p, 1) == pytest.approx(direct, rel=1e-15)
        assert babenko_constant(p, 2) == pytest.approx(direct**2, rel=1e-15)


def test_babenko_constant_frozen_value():
    # reference value for p = 4/3 on the line
    assert babenko_constant(4 / 3, 1) == pytest.approx(0.9366870743752481, abs=1e-15)


def test_babenko_constant_edges():
    assert babenko_constant(2.0, 5) == 1.0
    assert babenko_constant(1.7, 3, regime="classical") == 1.0
    with pytest.raises(ValueError):
        babenko_constant(1.0)
    with pytest.raises(ValueError):
        babenko_constant(2.5)
    with pytest.raises(ValueError):
        babenko_constant(1.5, regime="optimistic")


# -- generalized Minkowski ----------------------------------------------------------


def test_minkowski_hand_example():
    f = np.array([[1.0, 2.0], [3.0, 1.0]])
    wx = np.array([0.5, 1.5])
    wg = np.array([2.0, 0.25])
    p, q = 1.5, 3.0
    inner_p = [sum(wx[i] * f[i, j] ** p for i in range(2)) for j in range(2)]
    lhs = sum(wg[j] * inner_p[j] ** (q / p) for j in range(2)) ** (1 / q)
    inner_q = [sum(wg[j] * f[i, j] ** q for j in range(2)) for i in range(2)]
    rhs = sum(wx[i] * inner_q[i] ** (p / q) for i in range(2)) ** (1 / p)
    r = check_minkowski(f, wx, wg, p, q)
    assert r.lhs == pytest.approx(lhs, rel=1e-14)
    assert r.rhs == pytest.approx(rhs, rel=1e-14)
    assert lhs <= rhs and r.passed


def test_minkowski_separable_is_equality():
    a = np.array([0.3, 1.7, 0.9])
    b = np.array([2.0, 0.1, 0.5, 1.1])
    r = check_minkowski(np.outer(a, b), np.full(3, 0.7), np.full(4, 1.3), 1.25, 5.0)
    assert r.lhs == pytest.approx(r.rhs, rel=1e-13)


def test_minkowski_degenerate_single_row():
    # one xi point: both iterated norms coincide
    f = np.abs(np.random.default_rng(3).standard_normal((1, 6)))
    r = check_minkowski(f, np.array([2.0]), np.full(6, 0.5), 1.4, conjugate_exponent(1.4))
    assert r.lhs == pytest.approx(r.rhs, rel=1e-13)


def test_minkowski_validation():
    with pytest.raises(ValueError):
        check_minkowski(np.ones((2, 2)), np.ones(2), np.ones(2), 2.0, 2.0)
    with pytest.raises(ValueError):
        check_minkowski(-np.ones((2, 2)), np.ones(2), np.ones(2), 1.5, 3.0)


def test_minkowski_random_suite_clean():
    r = minkowski_random_suite(count=200, seed=11)
    assert r.passed and "0 violations" in r.detail


def test_russo_fournier_random_suite_clean():
    r = russo_fournier_random_suite(count=200, seed=7)
    assert r.passed and "0 violations" in r.detail


def test_russo_fournier_diagonal_equality():
    vals = np.diag([1.0, 2.0, 0.5]).astype(complex)
    k = WeightedKernel(vals, np.ones(3), np.ones(3))
    r = check_russo_fournier(k, 1.5)
    assert r.passed
    assert r.lhs == pytest.approx(r.rhs, rel=1e-12)


# -- measure scaling ----------------------------------------------------------------


def test_dual_measure_axb_closed_form():
    model, _ = make_group("axb")
    # dilation by a = 2 halves interval length, and the modular factor is 1/2
    r = check_dual_measure_scaling(model, 2.0, [-1.0], [3.0])
    assert r.passed
    assert r.lhs == pytest.approx(2.0, rel=1e-14)
    assert r.rhs == pytest.approx(0.5 * 4.0, rel=1e-14)


def test_dual_measure_heisenberg_shear_preserves_area():
    model, _ = make_group("heisenberg")
    r = check_dual_measure_scaling(model, 1.7, [0.0, -1.0], [2.0, 1.0])
    assert r.passed
    assert r.lhs == pytest.approx(4.0, rel=1e-13)
    assert r.rhs == pytest.approx(4.0, rel=1e-13)


def test_dual_measure_suites():
    for name in ("axb", "heisenberg"):
        results = dual_measure_suite(make_group(name)[0], count=100, seed=5)
        assert len(results) == 100
        assert all(r.passed for r in results)


def test_dual_measure_box_validation():
    model, _ = make_group("axb")
    with pytest.raises(ValueError):
        check_dual_measure_scaling(model, 1.0, [0.0], [0.0])
    with pytest.raises(ValueError):
        check_dual_measure_scaling(model, 1.0, [0.0, 0.0], [1.0, 1.0])


# -- semi-invariance ----------------------------------------------------------------


def test_semi_invariance_identity_is_exact():
    for name in ("axb", "heisenberg"):
        model, dual = make_group(name)
        _, h_grid = default_grids(name)
        params, _ = dual.transversal(default_sampling_config(name))
        x = GroupElement(np.zeros(model.dim_N), model.h_identity)
        r = check_semi_invariance(model, params[0], x, h_grid)
        assert r.passed and r.lhs == 0.0


def test_semi_invariance_suites():
    for name in ("axb", "heisenberg"):
        _, dual = make_group(name)
        sampling, h_grid = default_sampling_config(name), default_grids(name)[1]
        results = semi_invariance_suite(dual, sampling, h_grid, count=8, seed=2)
        assert all(r.passed for r in results)
        assert all(r.lhs <= 1e-10 for r in results)


def test_semi_invariance_rejects_off_grid_shift():
    model, dual = make_group("axb")
    _, h_grid = default_grids("axb")
    params, _ = dual.transversal(None)
    x = GroupElement(np.zeros(1), model.h_parametrization(0.3 * h_grid.spacing))
    with pytest.raises(ValueError):
        check_semi_invariance(model, params[0], x, h_grid)


# -- headline identities ------------------------------------------------------------


def test_plancherel_axb_frozen():
    _, dual, g = axb_base()
    r = check_plancherel(g, dual)
    assert r.passed and r.kind == "equality"
    # frozen regression: quadrature value of the squared direct-integral norm
    assert r.lhs == pytest.approx(4.01153730417, rel=1e-9)
    assert r.rhs == pytest.approx(math.pi * math.exp(0.25), rel=1e-10)


def test_plancherel_heisenberg_desk_scale():
    _, dual = make_group("heisenberg")
    g = sample_fixture("heisenberg", gaussian_fixtures("heisenberg", 1)[0])
    r = check_plancherel(g, dual, default_sampling_config("heisenberg"))
    assert r.passed
    assert abs(r.lhs - r.rhs) <= 5e-3 * r.rhs


def test_hausdorff_young_consistent_with_chain():
    _, dual, g = axb_base()
    p = 1.5
    (r,) = hausdorff_young_margins(g, dual, (p,))
    vals = proof_chain_quantities(g, dual, p)
    assert r.passed
    assert r.lhs == pytest.approx(vals["v0"] ** (1 / vals["q"]), rel=1e-12)
    assert r.rhs == pytest.approx(vals["v4"] ** (1 / vals["q"]), rel=1e-12)


def test_every_check_reads_one_orbit_sum():
    # hausdorff-young's lhs, nilpotent-bound's lhs and the chain's V0 come
    # from one sum over the orbits, so they agree bit for bit
    _, dual = make_group("heisenberg")
    g = sample_fixture("heisenberg", random_fixtures("heisenberg", 1)[0])
    cfg = default_sampling_config("heisenberg")
    record = spectral_record(g, dual, (1.5,), cfg, chain=(1.5,))
    (hy,) = hausdorff_young_margins(g, dual, (1.5,), config=cfg, record=record)
    vals = proof_chain_quantities(g, dual, 1.5, config=cfg, record=record)
    assert hy.lhs == vals["v0"] ** (1 / vals["q"])
    nil = check_nilpotent_bound(g, dual, 1.5, cfg, record)
    assert (nil.lhs, nil.tolerance) == (hy.lhs, hy.tolerance)


def test_hausdorff_young_margins_match_single_checks():
    _, dual, g = axb_base()
    batch = hausdorff_young_margins(g, dual, (1.2, 1.8))
    for p, r in zip((1.2, 1.8), batch):
        (single,) = hausdorff_young_margins(g, dual, (p,))
        assert r.lhs == pytest.approx(single.lhs, rel=1e-12)
        assert r.rhs == pytest.approx(single.rhs, rel=1e-12)
        assert r.passed
    with pytest.raises(ValueError):
        hausdorff_young_margins(g, dual, (2.5,))


def test_hausdorff_young_rejects_bad_exponent():
    _, dual, g = axb_base()
    with pytest.raises(ValueError):
        hausdorff_young_margins(g, dual, (1.0,))
    with pytest.raises(ValueError):
        hausdorff_young_margins(g, dual, (2.2,))


def test_shared_kernel_reads_delta_not_the_unimodular_flag():
    # ax+b declared unimodular: Delta is still not 1 on the grid, so every
    # exponent keeps its own kernel and SVD and the record is the true one
    model, dual = make_group("axb")
    misdeclared = DualOrbitModel(dataclasses.replace(model, unimodular=True), dual.transversal)
    g = sample_fixture("axb", random_fixtures("axb", 1)[0])
    ps = (1.2, 1.5, 1.8)
    true, mis = (spectral_record(g, d, ps, chain=(1.5,)) for d in (dual, misdeclared))
    for p in ps:
        assert np.array_equal(mis.sq[p], true.sq[p])
    for a, b in zip(mis.chain[1.5], true.chain[1.5]):
        assert np.array_equal(a, b)


def test_one_svd_serves_every_exponent_on_heisenberg():
    model, dual = make_group("heisenberg")
    g = sample_fixture("heisenberg", random_fixtures("heisenberg", 1)[0])
    delta = modular_on_grid(model, g.h_grid)
    # unimodular: the kernel's column factor Delta^(1/q) is exactly 1 at every q
    assert model.unimodular and np.array_equal(delta, np.ones(g.h_grid.n))
    params, _ = dual.transversal(default_sampling_config("heisenberg"))
    qs = (2.25, 3.0, 6.0)
    for sigma0 in params[::21]:
        _, table = pair_rows(CharacterSlice(g), dual, sigma0)
        a = weighted_operator_matrix(kernel_from_pair_table(table, g.h_grid, delta, 1 / 3))
        for q, norm in zip(qs, schatten_norms(a, qs)):
            assert norm**q == schatten_norm(a, q) ** q


@pytest.mark.parametrize("group, ps", [("axb", (1.2, 1.8)), ("heisenberg", (1.5, 1.8))])
def test_record_backed_checks_equal_standalone_calls(group, ps):
    _, dual = make_group(group)
    g = sample_fixture(group, random_fixtures(group, 1, base_seed=5)[0])
    cfg = default_sampling_config(group)
    record = spectral_record(g, dual, (2.0,), cfg, chain=ps)
    assert check_plancherel(g, dual, cfg, record=record) == check_plancherel(g, dual, cfg)
    assert hausdorff_young_margins(g, dual, ps, config=cfg, record=record) == (
        hausdorff_young_margins(g, dual, ps, config=cfg)
    )
    for p in ps:
        assert check_proof_chain(g, dual, p, config=cfg, record=record) == check_proof_chain(
            g, dual, p, config=cfg
        )


# -- the chain ----------------------------------------------------------------------


def test_chain_values_axb_frozen():
    _, dual, g = axb_base()
    vals = proof_chain_quantities(g, dual, 1.5)
    frozen = {
        "v0": 23.1873467558,
        "v1": 26.4241724734,
        "v2": 26.4241724734,
        "v3": 29.5045946456,
        "v4": 29.5963057277,
    }
    for key, ref in frozen.items():
        assert vals[key] == pytest.approx(ref, rel=1e-9), key


def test_chain_is_monotone_axb():
    _, dual, g = axb_base()
    for p in (1.2, 1.5, 2.0):
        vals = proof_chain_quantities(g, dual, p)
        seq = [vals[k] for k in ("v0", "v1", "v2", "v3")]
        assert all(a <= b * (1 + 1e-10) for a, b in zip(seq, seq[1:]))
        assert vals["v3"] <= vals["v4"] * 1.01


def test_chain_checks_pass_both_groups():
    _, dual, g = axb_base()
    assert all(r.passed for r in check_proof_chain(g, dual, 1.5))
    _, dual_h = make_group("heisenberg")
    gh = sample_fixture("heisenberg", gaussian_fixtures("heisenberg", 1)[0])
    cfg = default_sampling_config("heisenberg")
    assert all(r.passed for r in check_proof_chain(gh, dual_h, 1.5, config=cfg))


def test_chain_collapses_at_two():
    _, dual, g = axb_base()
    results = check_proof_chain(g, dual, 2.0)
    names = [r.name for r in results]
    assert sum(n.startswith("proof-chain:equal-at-two") for n in names) == 4
    assert all(r.passed for r in results)
    vals = proof_chain_quantities(g, dual, 2.0)
    assert vals["v0"] == pytest.approx(vals["v2"], rel=1e-12)


def test_chain_random_fixture_ordered():
    model, dual = make_group("axb")
    g = sample_fixture("axb", random_fixtures("axb", 1, base_seed=42)[0])
    assert all(r.passed for r in check_proof_chain(g, dual, 1.2))


def test_chain_rejects_bad_exponent():
    _, dual, g = axb_base()
    with pytest.raises(ValueError):
        proof_chain_quantities(g, dual, 2.5)


# -- slice diagnostics and instance bounds -------------------------------------------


def test_slice_ratios_constant_for_gaussian():
    _, _, g = axb_base()
    ratios, kept = slice_ratios(g, 4 / 3)
    assert kept.size > 0
    # a separable Gaussian has identically shaped slices, one common ratio
    assert ratios.max() - ratios.min() <= 1e-10 * ratios.max()
    assert ratios.max() == pytest.approx(babenko_constant(4 / 3, 1), rel=1e-6)


def test_gaussian_extremality_both_groups():
    for name in ("axb", "heisenberg"):
        g = sample_fixture(name, gaussian_fixtures(name, 1)[0])
        r = check_gaussian_extremality(g, 4 / 3)
        assert r.passed
        assert r.rhs >= 0.999 * babenko_constant(4 / 3, 2 if name == "heisenberg" else 1)


def test_nilpotent_bound_holds_and_guards():
    _, dual_h = make_group("heisenberg")
    g = sample_fixture("heisenberg", gaussian_fixtures("heisenberg", 1)[0])
    r = check_nilpotent_bound(g, dual_h, 1.5, default_sampling_config("heisenberg"))
    assert r.passed
    assert r.rhs == pytest.approx(babenko_constant(1.5, 2) * lp_norm_G(g, 1.5), rel=1e-12)
    _, dual_a, ga = axb_base()
    with pytest.raises(ValueError):
        check_nilpotent_bound(ga, dual_a, 1.5)


def test_schatten_suite_catches_a_mis_scaled_svd(monkeypatch):
    # ||A||_S4^2 = ||AA*||_S2 sets singular values against the Frobenius
    # formula, so singular values 0.1% too large must fail the suite
    assert schatten_property_suite(count=20, size=32, seed=0).passed
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: 1.001 * svd(*args, **kw))
    r = schatten_property_suite(count=20, size=32, seed=0)
    assert not r.passed and "20 violations" in r.detail


# -- fixture catalogs ---------------------------------------------------------------


def test_default_grids_shapes():
    n_grids, h_grid = default_grids("axb")
    assert len(n_grids) == 1 and n_grids[0].n == 128 and h_grid.n == 128
    n_grids, h_grid = default_grids("heisenberg")
    assert [g.n for g in n_grids] == [64, 64] and h_grid.n == 128


def test_gaussian_fixture_widths_stay_in_regime():
    for spec in gaussian_fixtures("axb", 10):
        assert max(spec.width_n) <= 1.5
    for spec in gaussian_fixtures("heisenberg", 10):
        assert spec.width_n[0] <= 2.5 and spec.width_n[1] <= 0.7


def test_random_fixture_seeds_distinct():
    specs = random_fixtures("axb", 5, base_seed=100)
    assert sorted({s.seed for s in specs}) == [100, 101, 102, 103, 104]
    assert all(s.kind == "random-bandlimited" for s in specs)
