"""Checks for the verification layer itself.

Strategy: every numeric claim is either recomputed here by a naive
independent route (loops, closed forms) or frozen from a slow reference run
and asserted as a regression value.
"""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from hywbench import verify
from hywbench.grids import lp_norm_G, make_grids, modular_on_grid, sample, slice_lp_mass
from hywbench.groups import make_group
from hywbench.schatten import (
    WeightedKernel,
    conjugate_exponent,
    cross_norm_qpq,
    schatten_norm,
    schatten_norms,
    weighted_operator_matrix,
)
from hywbench.transform import CharacterSlice, kernel_from_pair_table, pair_orbits
from hywbench.verify import (
    _PAIR_CHUNK,
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
    deviation_result,
    equality_result,
    gaussian_fixtures,
    hausdorff_young_margins,
    inequality_result,
    minkowski_random_suite,
    random_fixtures,
    russo_fournier_random_suite,
    schatten_property_suite,
    semi_invariance_suite,
    spectral_record,
)
from hywbench.groups import DualSamplingConfig, GroupElement


def sample_fixture(group_name, spec):
    """spec sampled on the default grids of group_name."""
    model, _ = make_group(group_name)
    n_grids, h_grid = default_grids(group_name)
    return sample(spec, n_grids, h_grid, model)


def axb_base():
    model, dual = make_group("axb")
    g = sample_fixture("axb", gaussian_fixtures("axb", 1)[0])
    return model, dual, g


def reference_slice_ratios(g, p):
    """||F_N g(., t)||_q / ||g(., t)||_p on every slice t whose L^p mass is
    at least 1e-9 of the largest, from one FFT of g and no spectral record."""
    q = conjugate_exponent(p)
    rgrids, transformed = CharacterSlice(g).transform_reciprocal()
    num = slice_lp_mass(transformed, rgrids, q) ** (1 / q)
    den = slice_lp_mass(g.values, g.n_grids, p) ** (1 / p)
    keep = den > 1e-9 * den.max()
    return num[keep] / den[keep]


def chain_values(results):
    """[V0, ..., V4] read off the proof-chain links: averaging is V0 <= V1,
    cauchy-schwarz V1 <= V2, minkowski-swap V2 <= V3 and
    slice-hausdorff-young V3 <= V4; each link starts where the last ended."""
    links = {r.name: r for r in results}
    names = ("averaging", "cauchy-schwarz", "minkowski-swap", "slice-hausdorff-young")
    steps = [links[f"proof-chain:{name}"] for name in names]
    assert all(a.rhs == b.lhs for a, b in zip(steps, steps[1:]))
    return [steps[0].lhs] + [r.rhs for r in steps]


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


def test_deviation_result_semantics():
    assert deviation_result("x", 1e-10, 1e-10).passed  # at the tolerance
    assert deviation_result("x", 0.0, 0.0).passed
    assert not deviation_result("x", 2e-10, 1e-10).passed
    # a deviation that is not a finite number fails closed
    assert not deviation_result("x", math.nan, 1e-10).passed
    assert not deviation_result("x", math.inf, math.inf).passed
    r = deviation_result("x", 3e-11, 1e-10, "detail")
    assert (r.kind, r.lhs, r.rhs, r.detail) == ("deviation", 3e-11, 0.0, "detail")


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


def test_minkowski_sides_keep_the_bits_of_each_kernel_alone():
    # the suite's batch of one-row, one-column and wider kernels gives each
    # kernel both iterated norms as the plain formulas do, bit for bit
    rng = np.random.default_rng(12)
    shapes = [(nx, ng) for nx in (1, 2, 3, 8, 9, 13, 24) for ng in (1, 2, 7, 24)] * 3
    kernels = [
        (np.abs(rng.standard_normal(shape)), rng.uniform(0.05, 2.0, shape[0]), rng.uniform(0.05, 2.0, shape[1]))
        for shape in (shapes[i] for i in rng.permutation(len(shapes)))
    ]
    ps = list(rng.uniform(1.05, 1.95, len(kernels)))
    qs = [conjugate_exponent(p) for p in ps]
    for (f, wx, wg), p, q, sides in zip(kernels, ps, qs, verify._minkowski_sides(kernels, ps, qs)):
        swapped = float(((f**p * wx[:, None]).sum(axis=0) ** (q / p) @ wg) ** (1.0 / q))
        dominant = float(((f**q * wg[None, :]).sum(axis=1) ** (p / q) @ wx) ** (1.0 / p))
        r = check_minkowski(f, wx, wg, p, q)
        assert sides == (swapped, dominant) == (r.lhs, r.rhs)


def test_minkowski_validation():
    with pytest.raises(ValueError):
        check_minkowski(np.ones((2, 2)), np.ones(2), np.ones(2), 2.0, 2.0)
    with pytest.raises(ValueError):
        check_minkowski(-np.ones((2, 2)), np.ones(2), np.ones(2), 1.5, 3.0)
    # a gamma weight short, a xi weight short, and a negative xi weight
    with pytest.raises(ValueError, match="weight lengths"):
        check_minkowski(np.ones((2, 3)), np.ones(2), np.ones(1), 1.5, 3.0)
    with pytest.raises(ValueError, match="weight lengths"):
        check_minkowski(np.ones((2, 3)), np.ones(1), np.ones(3), 1.5, 3.0)
    with pytest.raises(ValueError, match="nonnegative"):
        check_minkowski(np.ones((2, 3)), [1.0, -0.5], np.ones(3), 1.5, 3.0)


def test_minkowski_random_suite_clean():
    r = minkowski_random_suite(count=200, seed=11)
    assert r.passed and "0 violations" in r.detail


def test_russo_fournier_random_suite_clean():
    r = russo_fournier_random_suite(count=200, seed=7)
    assert r.passed and "0 violations" in r.detail


def _per_trial_record(results):
    """(worst lhs, worst rhs, violations) over per-trial CheckResults, by
    the suite's rule: the largest lhs/rhs ratio, and the first NaN trial
    once there is one."""
    worst, violations = (0.0, 1.0), 0
    for r in results:
        violations += not r.passed
        if not math.isnan(sum(worst)) and (math.isnan(r.lhs + r.rhs) or r.lhs * worst[1] > worst[0] * r.rhs):
            worst = (r.lhs, r.rhs)
    return (*worst, violations)


def _russo_trials(seed, count):
    """count kernels judged one at a time, drawn as the suite draws them,
    one rng call per array: two integers, two standard_normal, three uniform."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        nx, ng = int(rng.integers(2, 25)), int(rng.integers(2, 25))
        vals = rng.standard_normal((nx, ng)) + 1j * rng.standard_normal((nx, ng))
        k = WeightedKernel(vals, rng.uniform(0.05, 2.0, nx), rng.uniform(0.05, 2.0, ng))
        out.append(check_russo_fournier(k, float(rng.uniform(1.05, 2.0))))
    return out


def _minkowski_trials(seed, count):
    rng = np.random.default_rng(seed)
    out, shapes = [], set()
    for _ in range(count):
        nx, ng = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        f = np.abs(rng.standard_normal((nx, ng)))
        wx, wg = rng.uniform(0.05, 2.0, nx), rng.uniform(0.05, 2.0, ng)
        p = float(rng.uniform(1.05, 1.95))
        out.append(check_minkowski(f, wx, wg, p, conjugate_exponent(p)))
        shapes.add((nx, ng))
    return out, shapes


@pytest.mark.parametrize("seed", [0, 7, 60, 61])
def test_the_suites_judge_each_kernel_as_one_trial_would(seed):
    # the suites judge their draws block by block; every record must be the
    # one that judging each kernel through its public check gives, bit for
    # bit, at 200 and 1000 trials (200 ends inside a block)
    russo = _russo_trials(seed, 1000)
    minkowski, shapes = _minkowski_trials(seed, 1000)
    # one-column kernels sum their rows pairwise, one-row kernels their columns
    assert any(ng == 1 for _, ng in shapes) and any(nx == 1 for nx, _ in shapes)
    for count in (200, 1000):
        for suite, trials in ((russo_fournier_random_suite, russo), (minkowski_random_suite, minkowski)):
            r = suite(count=count, seed=seed)
            lhs, rhs, violations = _per_trial_record(trials[:count])
            assert (r.lhs, r.rhs, r.passed) == (lhs, rhs, violations == 0)
            assert r.detail == f"{count} kernels, {violations} violations"
            assert (r.kind, r.tolerance) == ("inequality", TOLERANCES["linalg"])


def _plant_nan_trial(monkeypatch, judge):
    """The judge of a kernel suite, with the 500th trial's lhs NaN; returns
    the list of every (lhs, rhs) it judged."""
    original = getattr(verify, judge)
    judged = []

    def planted(*args):
        gaps = original(*args)
        i = 499 - len(judged)
        if 0 <= i < len(gaps):
            gaps[i] = (math.nan, gaps[i][1])
        judged.extend(gaps)
        return gaps

    monkeypatch.setattr(verify, judge, planted)
    return judged


def test_a_nan_trial_is_the_suite_worst(monkeypatch):
    # the 500th of 1000 trials has a NaN lhs: it fails the suite, and it is
    # the trial the suite reports, not a later finite one
    judged = _plant_nan_trial(monkeypatch, "russo_gaps")
    r = russo_fournier_random_suite(count=1000, seed=0)
    assert len(judged) == 1000 and not r.passed and "1 violations" in r.detail
    assert math.isnan(r.lhs)


def test_a_nan_minkowski_trial_is_the_suite_worst(monkeypatch):
    judged = _plant_nan_trial(monkeypatch, "_minkowski_sides")
    r = minkowski_random_suite(count=1000, seed=0)
    assert len(judged) == 1000 and not r.passed and "1 violations" in r.detail
    assert math.isnan(r.lhs)


@pytest.mark.parametrize("suite", [russo_fournier_random_suite, minkowski_random_suite])
def test_the_kernel_suites_judge_in_blocks(suite):
    # 1,000 russo-fournier trials drawn in blocks of 128 and judged one by
    # one peak at about 0.5 MB traced
    suite(count=1, seed=0)  # numpy's lazy imports are not the suite's
    tracemalloc.start()
    try:
        suite(count=1000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_russo_fournier_diagonal_equality():
    vals = np.diag([1.0, 2.0, 0.5]).astype(complex)
    k = WeightedKernel(vals, np.ones(3), np.ones(3))
    r = check_russo_fournier(k, 1.5)
    assert r.passed
    assert r.lhs == pytest.approx(r.rhs, rel=1e-12)


# -- measure scaling ----------------------------------------------------------------


def test_dual_measure_axb_closed_form():
    model, _ = make_group("axb")
    # dilation by a = 2 (t = log 2) halves interval length, and the modular factor is 1/2
    r = check_dual_measure_scaling(model, math.log(2.0), [-1.0], [3.0])
    assert r.passed
    assert r.lhs == pytest.approx(2.0, rel=1e-14)
    assert r.rhs == pytest.approx(0.5 * 4.0, rel=1e-14)


def test_dual_measure_heisenberg_shear_preserves_area():
    model, _ = make_group("heisenberg")
    r = check_dual_measure_scaling(model, 1.7, [0.0, -1.0], [2.0, 1.0])
    assert r.passed
    assert r.lhs == pytest.approx(4.0, rel=1e-13)
    assert r.rhs == pytest.approx(4.0, rel=1e-13)


def test_dual_measure_in_three_dimensions():
    # R^3 x| R_+ with a = e^t acting by diag(a, a^2, 1/a) plus a shear, of det a^2:
    # the dual action at a = 2 scales measure by 1/4, and the box is 1.5 * 2 * 0.5
    axb, _ = make_group("axb")
    shear = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def action(t, n):
        a = math.exp(t)
        return (np.diag([a, a * a, 1.0 / a]) + t * shear) @ np.asarray(n, dtype=float)

    model = dataclasses.replace(axb, name="dilations-3d", dim_N=3, conjugation_action=action,
                                modular_on_H=lambda t: math.exp(t)**-2.0)
    r = check_dual_measure_scaling(model, math.log(2.0), [0.0, -1.0, 1.0], [1.5, 1.0, 1.5])
    assert r.passed
    assert r.rhs == pytest.approx(0.25 * 1.5, rel=1e-14)
    wrong = dataclasses.replace(model, modular_on_H=lambda t: math.exp(t)**-3.0)
    r_wrong = check_dual_measure_scaling(wrong, math.log(2.0), [0.0, -1.0, 1.0], [1.5, 1.0, 1.5])
    assert not r_wrong.passed


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
        x = GroupElement(np.zeros(model.dim_N), 0.0)
        r = check_semi_invariance(model, params[0], x, h_grid)
        assert r.passed and r.lhs == 0.0


def test_semi_invariance_suites():
    for name in ("axb", "heisenberg"):
        _, dual = make_group(name)
        h_grid = default_grids(name)[1]
        results = semi_invariance_suite(dual, h_grid, count=8, seed=2)
        assert all(r.passed for r in results)
        assert all(r.lhs <= 1e-10 for r in results)


def test_semi_invariance_rejects_off_grid_shift():
    model, dual = make_group("axb")
    _, h_grid = default_grids("axb")
    params, _ = dual.transversal(None)
    x = GroupElement(np.zeros(1), 0.3 * h_grid.spacing)
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
    model, dual, g = axb_base()
    p = 1.5
    (r,) = hausdorff_young_margins(g, dual, (p,))
    v = chain_values(check_proof_chain(spectral_record(g, dual, (p,), chain=(p,)), model, p))
    q = conjugate_exponent(p)
    assert r.passed
    assert r.lhs == pytest.approx(v[0] ** (1 / q), rel=1e-12)
    assert r.rhs == pytest.approx(v[4] ** (1 / q), rel=1e-12)


def test_every_check_reads_one_orbit_sum():
    # hausdorff-young's lhs, nilpotent-bound's lhs and the chain's V0 come
    # from one sum over the orbits, so they agree bit for bit
    model, dual = make_group("heisenberg")
    g = sample_fixture("heisenberg", random_fixtures("heisenberg", 1)[0])
    cfg = default_sampling_config("heisenberg")
    record = spectral_record(g, dual, (1.5,), cfg, chain=(1.5,))
    (hy,) = hausdorff_young_margins(g, dual, (1.5,), config=cfg, record=record)
    v = chain_values(check_proof_chain(record, model, 1.5))
    assert hy.lhs == v[0] ** (1 / conjugate_exponent(1.5))
    nil = check_nilpotent_bound(record, model, 1.5)
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


def test_one_svd_serves_every_exponent_on_heisenberg():
    model, dual = make_group("heisenberg")
    g = sample_fixture("heisenberg", random_fixtures("heisenberg", 1)[0])
    delta = modular_on_grid(model, g.h_grid)
    # unimodular: the kernel's column factor Delta^(1/q) is exactly 1 at every q
    assert np.array_equal(delta, np.ones(g.h_grid.n))
    params, _ = dual.transversal(default_sampling_config("heisenberg"))
    qs = (2.25, 3.0, 6.0)
    for table in pair_orbits(CharacterSlice(g), dual, params[::21]):
        a = weighted_operator_matrix(kernel_from_pair_table(table, g.h_grid, delta, 1 / 3))
        for q, norm in zip(qs, schatten_norms(a, qs)):
            assert norm**q == schatten_norm(a, q) ** q


@pytest.mark.parametrize("group", ["axb", "heisenberg"])
def test_a_real_fixture_mirrors_each_orbit_bit_for_bit(group):
    # a real g is paired on the first half of the symmetric transversal and
    # the second half repeats it in reverse order; every per-orbit entry, on
    # both halves, equals that orbit's own table reduced as the record
    # reduces it, at a chain exponent and at p = 2.  Each orbit is paired in
    # the chunk the full transversal puts it in: paired alone, a Heisenberg
    # table moves by up to 2e-16, as the GEMM's blocking follows its row count
    model, dual = make_group(group)
    cfg = default_sampling_config(group)
    params, _ = dual.transversal(cfg)
    assert np.array_equal(params[::-1], -params)
    for spec in gaussian_fixtures(group, 5):
        g = sample_fixture(group, spec)
        assert not g.values.imag.any()
        cs, h = CharacterSlice(g), g.h_grid
        delta = modular_on_grid(model, h)
        record = spectral_record(g, dual, (2.0,), cfg, chain=(1.5,))
        direct, adjoint, *_ = record.chain[1.5]
        chunks = range(0, len(params), _PAIR_CHUNK)
        tables = np.concatenate([pair_orbits(cs, dual, params[s : s + _PAIR_CHUNK]) for s in chunks])
        for i, table in enumerate(tables):
            for p in (1.5, 2.0):
                q = conjugate_exponent(p)
                k = kernel_from_pair_table(table, h, delta, 1.0 / q)
                sq = np.float64(schatten_norm(weighted_operator_matrix(k), q)) ** q
                assert np.array_equal(record.sq[p][i], sq), (spec, i, p)
            k = kernel_from_pair_table(table, h, delta, 1.0 / 3.0)
            k_adjoint = WeightedKernel(k.values.conj().T, k.gamma_weights, k.xi_weights)
            assert np.array_equal(direct[i], np.float64(cross_norm_qpq(k, 1.5)[0]) ** 3.0)
            assert np.array_equal(adjoint[i], np.float64(cross_norm_qpq(k_adjoint, 1.5)[0]) ** 3.0)


def test_realness_is_read_from_the_values():
    # the real catalog Gaussian is paired at one lambda sign; the same
    # Gaussian with one sample given an imaginary part at all 64 orbits
    _, dual = make_group("heisenberg")
    cfg = default_sampling_config("heisenberg")
    g = sample_fixture("heisenberg", gaussian_fixtures("heisenberg", 1)[0])
    values = g.values.copy()
    values[32, 32, 64] += 1e-3j
    for f, orbits in ((g, 32), (dataclasses.replace(g, values=values), 64)):
        with mock.patch("hywbench.verify.pair_orbits", side_effect=pair_orbits) as paired:
            spectral_record(f, dual, (1.5,), cfg)
        assert sum(len(call.args[2]) for call in paired.call_args_list) == orbits


def test_an_empty_exponent_list_is_a_value_error():
    _, dual, g = axb_base()
    with pytest.raises(ValueError, match="empty exponent list"):
        spectral_record(g, dual, ())
    with pytest.raises(ValueError, match="empty exponent list"):
        hausdorff_young_margins(g, dual, ())


@pytest.mark.parametrize("group, ps", [("axb", (1.2, 1.8)), ("heisenberg", (1.5, 1.8))])
def test_record_backed_checks_equal_standalone_calls(group, ps):
    # given its record, a check reads only the record and the dual: on g with
    # its values zeroed, and on another fixture sampled on 8-point grids, it
    # still equals the standalone call on g; and a check of one record built
    # at every exponent equals the check of a record built at p alone
    model, dual = make_group(group)
    g = sample_fixture(group, random_fixtures(group, 1, base_seed=5)[0])
    blank = dataclasses.replace(g, values=np.zeros_like(g.values))
    n_grids, h_grid = make_grids([8] * model.dim_N, [(-1.0, 1.0)] * model.dim_N, 8, (-1.0, 1.0))
    foreign = sample(gaussian_fixtures(group, 2)[1], n_grids, h_grid, model)
    cfg = default_sampling_config(group)
    record = spectral_record(g, dual, (2.0,), cfg, chain=ps)
    planch = check_plancherel(g, dual, cfg)
    hy = hausdorff_young_margins(g, dual, ps, config=cfg)
    for f in (g, blank, foreign):
        assert check_plancherel(f, dual, cfg, record=record) == planch
        assert hausdorff_young_margins(f, dual, ps, config=cfg, record=record) == hy
    for p in ps:
        alone = spectral_record(g, dual, (p,), chain=(p,))
        assert check_proof_chain(record, model, p) == check_proof_chain(alone, model, p)
        extremality = check_gaussian_extremality(alone, model, p)
        assert check_gaussian_extremality(record, model, p) == extremality
        if group == "heisenberg":
            nil = check_nilpotent_bound(spectral_record(g, dual, (p,)), model, p)
            assert check_nilpotent_bound(record, model, p) == nil


def test_record_carries_each_exponents_norm_and_slice_ratios():
    # ||g||_p and the slice ratios are what lp_norm_G and one FFT of g give at
    # that exponent, bit for bit and slice by slice: no exponent's value is read
    # for another, and the slice bound and gaussian-extremality read their max
    # and min
    model, dual = make_group("axb")
    g = sample_fixture("axb", random_fixtures("axb", 1)[0])
    ps = (1.2, 1.5, 1.8)
    record = spectral_record(g, dual, (2.0,), chain=ps)
    assert record.lp == {p: lp_norm_G(g, p) for p in (*ps, 2.0)}
    for p in ps:
        reference = reference_slice_ratios(g, p)
        *_, ratios = record.chain[p]
        assert np.array_equal(ratios, reference)
        results = check_proof_chain(record, model, p)
        (bound,) = [r for r in results if r.name == "proof-chain:slice-bound"]
        assert bound.lhs == reference.max()
        assert check_gaussian_extremality(record, model, p).rhs == reference.min()


@pytest.mark.parametrize("group", ["axb", "heisenberg"])
def test_plancherel_error_falls_under_refinement(group):
    # one balanced refinement of the N and H grids; on Heisenberg the
    # lambda_min window is not refined with them, so it is taken a quarter of
    # its default too (measured: Gaussian 0 2.9e-3 -> 5.5e-5, random 3.6e-4 -> 7.5e-5)
    model, dual = make_group(group)
    n_grids, h_grid = default_grids(group)
    fine = tuple(gr.balanced_refine() for gr in n_grids), h_grid.balanced_refine()
    cfg = default_sampling_config(group)
    fine_cfg = cfg and DualSamplingConfig(lambda_min=cfg.lambda_min / 4)
    for spec in gaussian_fixtures(group, 1) + random_fixtures(group, 1):
        errors = []
        for grids, sampling in (((n_grids, h_grid), cfg), (fine, fine_cfg)):
            r = check_plancherel(sample(spec, *grids, model), dual, sampling)
            errors.append(abs(r.lhs - r.rhs) / r.rhs)
        assert errors[1] < errors[0] / 4, f"{spec.kind}: {errors}"


def test_heisenberg_window_term_is_linear_in_lambda_min():
    # halving lambda_min halves the step of the relative Plancherel error it
    # causes (measured: Gaussian 0 steps 4.439e-4 = 3.55 x 1.25e-4, then half
    # and a quarter of that; ratios 0.5000 on both fixtures)
    model, dual = make_group("heisenberg")
    n_grids, h_grid = default_grids("heisenberg")
    for spec in gaussian_fixtures("heisenberg", 1) + random_fixtures("heisenberg", 1):
        g = sample(spec, n_grids, h_grid, model)
        errors = []
        for k in range(4):
            r = check_plancherel(g, dual, DualSamplingConfig(lambda_min=2.5e-4 / 2**k))
            errors.append((r.lhs - r.rhs) / r.rhs)
        steps = np.diff(errors)
        assert steps[1:] / steps[:-1] == pytest.approx([0.5, 0.5], abs=0.01), f"{spec.kind}: {errors}"


# -- the chain ----------------------------------------------------------------------


def test_chain_values_axb_frozen():
    model, dual, g = axb_base()
    v = chain_values(check_proof_chain(spectral_record(g, dual, (1.5,), chain=(1.5,)), model, 1.5))
    frozen = [23.1873467558, 26.4241724734, 26.4241724734, 29.5045946456, 29.5963057277]
    for i, ref in enumerate(frozen):
        assert v[i] == pytest.approx(ref, rel=1e-9), f"V{i}"


def test_chain_is_monotone_axb():
    model, dual, g = axb_base()
    for p in (1.2, 1.5, 2.0):
        v = chain_values(check_proof_chain(spectral_record(g, dual, (p,), chain=(p,)), model, p))
        assert all(a <= b * (1 + 1e-10) for a, b in zip(v[:3], v[1:4]))
        assert v[3] <= v[4] * 1.01


def test_chain_checks_pass_both_groups():
    model, dual, g = axb_base()
    record = spectral_record(g, dual, (1.5,), chain=(1.5,))
    assert all(r.passed for r in check_proof_chain(record, model, 1.5))
    model_h, dual_h = make_group("heisenberg")
    gh = sample_fixture("heisenberg", gaussian_fixtures("heisenberg", 1)[0])
    record_h = spectral_record(gh, dual_h, (1.5,), chain=(1.5,))
    assert all(r.passed for r in check_proof_chain(record_h, model_h, 1.5))


def test_chain_collapses_at_two():
    model, dual, g = axb_base()
    results = check_proof_chain(spectral_record(g, dual, (2.0,), chain=(2.0,)), model, 2.0)
    names = [r.name for r in results]
    assert sum(n.startswith("proof-chain:equal-at-two") for n in names) == 4
    assert all(r.passed for r in results)
    v = chain_values(results)
    assert v[0] == pytest.approx(v[2], rel=1e-12)


def test_chain_random_fixture_ordered():
    model, dual = make_group("axb")
    g = sample_fixture("axb", random_fixtures("axb", 1, base_seed=42)[0])
    record = spectral_record(g, dual, (1.2,), chain=(1.2,))
    assert all(r.passed for r in check_proof_chain(record, model, 1.2))


def test_chain_rejects_bad_exponent():
    # spectral_record is the one place that validates p
    model, dual, g = axb_base()
    with pytest.raises(ValueError):
        check_proof_chain(spectral_record(g, dual, (2.5,), chain=(2.5,)), model, 2.5)


# -- slice diagnostics and instance bounds -------------------------------------------


def test_slice_ratios_constant_for_gaussian():
    # the ratios of one FFT of g and those the spectral record carries
    _, dual, g = axb_base()
    *_, carried = spectral_record(g, dual, (4 / 3,), chain=(4 / 3,)).chain[4 / 3]
    for ratios in (reference_slice_ratios(g, 4 / 3), carried):
        assert ratios.size > 0
        # a separable Gaussian has identically shaped slices, one common ratio
        assert ratios.max() - ratios.min() <= 1e-10 * ratios.max()
        assert ratios.max() == pytest.approx(babenko_constant(4 / 3, 1), rel=1e-6)


def test_gaussian_extremality_both_groups():
    for name in ("axb", "heisenberg"):
        model, dual = make_group(name)
        g = sample_fixture(name, gaussian_fixtures(name, 1)[0])
        record = spectral_record(g, dual, (4 / 3,), chain=(4 / 3,))
        r = check_gaussian_extremality(record, model, 4 / 3)
        assert r.passed
        assert r.rhs >= 0.999 * babenko_constant(4 / 3, 2 if name == "heisenberg" else 1)


def test_nilpotent_bound_holds_and_guards():
    model_h, dual_h = make_group("heisenberg")
    g = sample_fixture("heisenberg", gaussian_fixtures("heisenberg", 1)[0])
    r = check_nilpotent_bound(spectral_record(g, dual_h, (1.5,)), model_h, 1.5)
    assert r.passed
    assert r.rhs == pytest.approx(babenko_constant(1.5, 2) * lp_norm_G(g, 1.5), rel=1e-12)
    model_a, dual_a, ga = axb_base()
    with pytest.raises(ValueError):
        check_nilpotent_bound(spectral_record(ga, dual_a, (1.5,)), model_a, 1.5)


def test_schatten_suite_catches_a_mis_scaled_svd(monkeypatch):
    # ||A||_S4^2 = ||AA*||_S2 sets singular values against the Frobenius
    # formula, so singular values 0.1% too large must fail the suite
    assert schatten_property_suite(count=20, size=32, seed=0).passed
    svd = np.linalg.svd
    for scale in (1.001, np.nan, np.inf):  # a NaN or inf singular value fails too
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: scale * svd(*args, **kw))
        r = schatten_property_suite(count=20, size=32, seed=0)
        assert not r.passed and "20 violations" in r.detail, scale


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
