"""Character pairings, kernel assembly, and the direct-integral norm.

The load-bearing oracle here is test_kernel_matches_direct_representation_sum:
the assembled kernel must agree with the brute-force quadrature
sum_x g(x) Delta(x) w(x) rep(x) over the whole group grid.
"""

import numpy as np
import pytest

from hywbench import transform
from hywbench.cli import RunConfig, run_suite
from hywbench.grids import (
    Grid1D,
    SampledFunction,
    TestFunctionSpec,
    lp_norm_G,
    make_grids,
    modular_on_grid,
    sample,
)
from hywbench.groups import DualSamplingConfig, GroupElement, character_value, make_group
from hywbench.schatten import (
    WeightedKernel,
    conjugate_exponent,
    cross_norm_qpq,
    schatten_norms,
    weighted_operator_matrix,
)
from hywbench.transform import (
    CharacterSlice,
    _orbit_map,
    induced_rep_matrix,
    kernel_from_pair_table,
    pair_orbits,
)
from hywbench.verify import (
    DESK_GRIDS,
    check_plancherel,
    default_grids,
    default_sampling_config,
    gaussian_fixtures,
    hausdorff_young_margins,
    random_fixtures,
    spectral_record,
)

AXB, AXB_DUAL = make_group("axb")
HEIS, HEIS_DUAL = make_group("heisenberg")


def axb_function(n=32, h=8, kind="random-bandlimited", seed=1):
    # dense N grid so every dual parameter reachable from the small h grid
    # stays inside the band
    gn = Grid1D(-2.0, 2.0, n)
    gh = Grid1D(-1.0, 1.0, h)
    return sample(TestFunctionSpec(kind=kind, seed=seed, width_n=(0.5,), width_h=0.3), (gn,), gh, AXB)


def dense(pair, n):
    """The n-row pairing table that pair, (rows, table), stands for: its
    in-band rows scattered among zero rows."""
    rows, table = pair
    out = np.zeros((n, table.shape[1]), dtype=np.complex128)
    out[rows] = table
    return out


def test_pair_matches_naive_sum():
    f = axb_function()
    cs = CharacterSlice(f)
    omegas = np.array([[0.0], [0.7], [-1.3], [2.5]])
    rows, table = cs.pair(omegas)
    assert np.array_equal(rows, np.arange(4))
    got = dense((rows, table), 4)
    pts = f.n_grids[0].points()
    for r, om in enumerate(omegas[:, 0]):
        naive = (f.values * np.exp(2j * np.pi * om * pts)[:, None]).sum(axis=0) * f.n_grids[0].spacing
        np.testing.assert_allclose(got[r], naive, atol=1e-13)


def test_pair_zeroes_out_of_band_rows():
    f = axb_function()
    cs = CharacterSlice(f)
    ny = f.n_grids[0].nyquist
    rows, table = cs.pair(np.array([[ny * 1.5], [0.3]]))
    assert list(rows) == [1] and table.shape == (1, f.h_grid.n)
    out = dense((rows, table), 2)
    assert np.all(out[0] == 0)
    assert np.abs(out[1]).max() > 0
    assert list(cs.in_band(np.array([[ny * 1.5], [0.3]]))) == [False, True]


def test_pair_returns_exactly_the_in_band_rows_of_an_orbit_chunk():
    """On the default Heisenberg grids the first 16 orbits keep 156 of 2048
    rows: pair returns those rows, in order, and each matches the naive sum
    over the N grid."""
    f, dual = default_fixture("heisenberg")
    cs = CharacterSlice(f)
    params, _ = dual.transversal(default_sampling_config("heisenberg"))
    omegas = _orbit_map(dual.group, f.h_grid, params[:16]).reshape(-1, 2)
    rows, table = cs.pair(omegas)
    np.testing.assert_array_equal(rows, np.flatnonzero(cs.in_band(omegas)))
    assert table.shape == (156, f.h_grid.n) and len(omegas) == 2048
    py, pz = (gr.points() for gr in f.n_grids)
    w = f.n_grids[0].spacing * f.n_grids[1].spacing
    for r in range(0, len(rows), 13):
        mu, lam = omegas[rows[r]]
        naive = np.einsum("yz,yzh->h", np.exp(2j * np.pi * (mu * py[:, None] + lam * pz[None, :])), f.values) * w
        assert np.abs(table[r] - naive).max() <= 1e-13 * np.abs(table).max()


def test_the_h_blocks_of_a_refined_chunk_give_the_bits_of_one_block(monkeypatch):
    """Once refined, a chunk of 16 Heisenberg orbits contracts its trailing
    axis in four blocks of 64 H columns: the table equals the one-block
    table bit for bit."""
    n_grids, h_grid = default_grids("heisenberg")
    n_grids, h_grid = tuple(gr.balanced_refine() for gr in n_grids), h_grid.balanced_refine()
    assert 16 * n_grids[0].n * 16 * h_grid.n == 4 * transform._PAIR_BLOCK_BYTES
    cs = CharacterSlice(sample(random_fixtures("heisenberg", 1)[0], n_grids, h_grid, HEIS))
    params, _ = HEIS_DUAL.transversal(default_sampling_config("heisenberg"))
    blocked = pair_orbits(cs, HEIS_DUAL, params[16:32])
    monkeypatch.setattr(transform, "_PAIR_BLOCK_BYTES", 1 << 40)
    one_block = pair_orbits(cs, HEIS_DUAL, params[16:32])
    for (rows, table), (rows_one, one) in zip(blocked, one_block, strict=True):
        assert table.size and np.array_equal(rows, rows_one) and np.array_equal(table, one)


def test_pair_rejects_wrong_dimension():
    f = axb_function()
    with pytest.raises(ValueError):
        CharacterSlice(f).pair(np.zeros((3, 2)))


def test_transform_is_reflected_pair():
    """The standard-sign slice transform, exp(-2 pi i omega n), is pair at -omega."""
    f = axb_function(seed=3)
    cs = CharacterSlice(f)
    om = np.array([[0.4], [-1.1]])
    got = dense(cs.pair(-om), 2)
    pts = f.n_grids[0].points()
    for r, w in enumerate(om[:, 0]):
        naive = (f.values * np.exp(-2j * np.pi * w * pts)[:, None]).sum(axis=0) * f.n_grids[0].spacing
        np.testing.assert_allclose(got[r], naive, atol=1e-13)


def test_staged_contraction_matches_naive_2d():
    gy = Grid1D(-2.0, 2.0, 8)
    gz = Grid1D(-1.0, 1.0, 8)
    gx = Grid1D(-1.0, 1.0, 4)
    f = sample(
        TestFunctionSpec(kind="random-bandlimited", seed=9, center_n=(0.0, 0.0), width_n=(0.6, 0.3), width_h=0.3),
        (gy, gz),
        gx,
        HEIS,
    )
    cs = CharacterSlice(f)
    # rows deliberately share trailing frequencies to exercise the grouping
    omegas = np.array([[0.3, 0.8], [-0.5, 0.8], [0.1, -1.2], [0.3, 0.8]])
    got = dense(cs.pair(omegas), 4)
    py, pz = gy.points(), gz.points()
    w = gy.spacing * gz.spacing
    for r, (mu, lam) in enumerate(omegas):
        phase = np.exp(2j * np.pi * (mu * py[:, None] + lam * pz[None, :]))
        naive = np.einsum("yz,yzh->h", phase, f.values) * w
        np.testing.assert_allclose(got[r], naive, atol=1e-13)
    np.testing.assert_array_equal(got[0], got[3])


def test_reciprocal_transform_matches_direct():
    f = axb_function(seed=5)
    cs = CharacterSlice(f)
    rgrids, vals = cs.transform_reciprocal()
    direct = dense(cs.pair(-rgrids[0].points()[:, None]), rgrids[0].n)
    np.testing.assert_allclose(vals, direct, atol=1e-12)


def test_reciprocal_transform_matches_direct_2d():
    gy = Grid1D(-2.0, 2.0, 8)
    gz = Grid1D(-1.0, 1.0, 4)
    gx = Grid1D(-1.0, 1.0, 4)
    f = sample(
        TestFunctionSpec(kind="random-bandlimited", seed=11, center_n=(0.0, 0.0), width_n=(0.6, 0.3), width_h=0.3),
        (gy, gz),
        gx,
        HEIS,
    )
    cs = CharacterSlice(f)
    rgrids, vals = cs.transform_reciprocal()
    oy, oz = rgrids[0].points(), rgrids[1].points()
    omegas = np.stack(np.meshgrid(oy, oz, indexing="ij"), axis=-1).reshape(-1, 2)
    direct = dense(cs.pair(-omegas), len(omegas)).reshape(len(oy), len(oz), gx.n)
    np.testing.assert_allclose(vals, direct, atol=1e-12)


def out_of_place_reciprocal(g):
    """The FFT of every slice as products of whole arrays, one new array per
    step: the formula transform_reciprocal applies in place."""
    vals = np.array(g.values, dtype=np.complex128, copy=True)
    for ax, gr in enumerate(g.n_grids):
        shape = [1] * vals.ndim
        shape[ax] = gr.n
        pre = (-1.0) ** np.arange(gr.n)
        post = gr.spacing * np.exp(-2j * np.pi * gr.reciprocal().points() * gr.lo)
        vals = np.fft.fft(vals * pre.reshape(shape), axis=ax) * post.reshape(shape)
    return vals


@pytest.mark.parametrize("group", ["axb", "heisenberg"])
def test_reciprocal_transform_is_bit_identical_to_the_out_of_place_formula(group):
    model, _ = make_group(group)
    (spec,) = random_fixtures(group, 1, base_seed=3)
    g = sample(spec, *default_grids(group), model)
    values = g.values.copy()
    _, vals = CharacterSlice(g).transform_reciprocal()
    assert np.array_equal(vals, out_of_place_reciprocal(g))
    assert np.array_equal(g.values, values)  # g itself is left alone


def test_formal_dimension_values():
    gh = Grid1D(-2.0, 2.0, 8)
    np.testing.assert_allclose(modular_on_grid(AXB, gh), np.exp(-gh.points()))
    np.testing.assert_allclose(modular_on_grid(HEIS, gh), 1.0)


def test_induced_rep_is_multiplicative():
    gh = Grid1D(-4.0, 4.0, 32)
    sigma0 = np.array([1.0])
    rng = np.random.default_rng(0)
    # shifts by whole grid steps compose exactly on the overlap window
    x = GroupElement(np.array([0.7]), 4 * gh.spacing)
    y = GroupElement(np.array([-0.2]), -2 * gh.spacing)
    ax = induced_rep_matrix(AXB, sigma0, x, gh)
    ay = induced_rep_matrix(AXB, sigma0, y, gh)
    axy = induced_rep_matrix(AXB, sigma0, AXB.multiply(x, y), gh)
    f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    # composition drops at most the rows either factor shifted off the grid
    got = ax @ (ay @ f)
    want = axy @ f
    interior = slice(6, 26)
    np.testing.assert_allclose(got[interior], want[interior], atol=1e-12)


def test_induced_rep_unitary_for_unimodular():
    gh = Grid1D(-2.0, 2.0, 16)
    sigma0 = np.array([0.3, 0.9])
    x = GroupElement(np.array([0.5, -0.3]), 0.0)  # no shift, pure phases
    a = induced_rep_matrix(HEIS, sigma0, x, gh)
    np.testing.assert_allclose(a @ a.conj().T, np.eye(16), atol=1e-12)


@pytest.mark.parametrize("model", [AXB, HEIS], ids=["axb", "heisenberg"])
def test_induced_rep_phases_equal_the_per_point_construction(model):
    """One array dual_action call gives the phases of one call per quotient
    point bit for bit, so the semi-invariance records do not move."""
    gh = Grid1D(-4.0, 4.0, 32)
    rng = np.random.default_rng(17)
    for _ in range(50):
        sigma0 = rng.uniform(-2.0, 2.0, model.dim_N)
        si = int(rng.integers(-5, 6))
        x = GroupElement(rng.uniform(-3.0, 3.0, model.dim_N), si * gh.spacing)
        want = np.array([character_value(model.dual_action(t, sigma0), x.n) for t in gh.points()])
        a = induced_rep_matrix(model, sigma0, x, gh)
        assert np.count_nonzero(a) == gh.n - abs(si)
        np.testing.assert_array_equal(np.diagonal(a, -si), want[max(0, si) : gh.n + min(0, si)])


def test_induced_rep_rejects_off_grid_shift():
    gh = Grid1D(-2.0, 2.0, 16)
    x = GroupElement(np.array([0.0]), 0.3 * gh.spacing)
    with pytest.raises(ValueError):
        induced_rep_matrix(AXB, np.array([1.0]), x, gh)


def shifted_along_n(g, steps):
    """g(n - n_x, h) on g's grids, n_x being steps lattice steps of the N
    grids: the samples move by steps along each N axis, vacated ones are 0."""
    values = g.values
    for axis, s in enumerate(steps):
        values = np.roll(values, s, axis=axis)
        vacated = [slice(None)] * values.ndim
        vacated[axis] = slice(0, s) if s >= 0 else slice(s, None)
        values[tuple(vacated)] = 0
    return SampledFunction(g.model, g.n_grids, g.h_grid, values, g.spec)


# largest relative error seen: 1.2e-13 on ax+b; 1.9e-7 on Heisenberg, the
# mass that the shift pushes across the axis-0 grid edge
@pytest.mark.parametrize(
    "group, shifts, stride, rel",
    [("axb", [(3,), (-5,)], 1, 2e-12), ("heisenberg", [(3, 0), (2, 2), (-5, 1)], 8, 1e-6)],
    ids=["axb", "heisenberg"],
)
def test_translation_along_n_is_the_induced_representation(group, shifts, stride, rel):
    """Left translation by x = (n_x, identity) multiplies every pairing table
    by the induced representation of x: row s by chi at that row's dual
    parameter, evaluated at n_x.  Checked on every stride-th orbit for
    catalog Gaussian 0 and the seed-0 random fixture, with zero fill."""
    model, dual = make_group(group)
    n_grids, h_grid = default_grids(group)
    params = dual.transversal(default_sampling_config(group))[0][::stride]
    for spec in (gaussian_fixtures(group, 1)[0], random_fixtures(group, 1)[0]):
        g = sample(spec, n_grids, h_grid, model)
        tables = pair_orbits(CharacterSlice(g), dual, params)
        for steps in shifts:
            x = GroupElement([s * gr.spacing for s, gr in zip(steps, n_grids)], 0.0)
            moved = pair_orbits(CharacterSlice(shifted_along_n(g, steps)), dual, params)
            for sigma0, pair, pair_moved in zip(params, tables, moved):
                table, got = dense(pair, h_grid.n), dense(pair_moved, h_grid.n)
                want = induced_rep_matrix(model, sigma0, x, h_grid) @ table
                assert np.abs(got - want).max() <= rel * np.abs(table).max(), (spec.kind, steps)


def shifted_along_h(g, steps):
    """g(n, t + t_x) on g's grids, t_x being steps lattice steps of the H
    grid: the samples move steps down the H axis, vacated ones are 0."""
    n = g.h_grid.n
    values = np.zeros_like(g.values)
    values[..., max(0, -steps) : n - max(0, steps)] = g.values[..., max(0, steps) : n - max(0, -steps)]
    return SampledFunction(g.model, g.n_grids, g.h_grid, values, g.spec)


# largest error seen: 3.6e-14 of the largest entry on ax+b, 1.3e-47 on
# Heisenberg; the kernel without its column factor Delta^(1/q) (exponent 0)
# fails it on ax+b at 0.12 to 0.25
@pytest.mark.parametrize("group, stride", [("axb", 1), ("heisenberg", 8)])
def test_translation_along_h_shifts_the_kernel_columns(group, stride):
    """Right translation by x = (0, t_x), t_x = si steps of the H grid, moves
    column m - si of the kernel to column m, times Delta(t_x)^(1/q - 1):

        k_{R_x g}(xi, gamma) = Delta(x)^(1/q - 1) k_g(xi, x^-1 gamma),

    the factor Delta(xi gamma^-1) giving Delta(x)^-1 and the column factor
    Delta(gamma)^(1/q) giving Delta(x)^(1/q).  As ||R_x g||_p =
    Delta(x)^(-1/p) ||g||_p, the Hausdorff-Young ratio does not move.
    Checked at q = 3 and 2 on every stride-th orbit, for catalog Gaussian 0
    and the seed-0 random fixture, on every column whose m - si is on the grid."""
    model, dual = make_group(group)
    n_grids, h_grid = default_grids(group)
    n, delta = h_grid.n, modular_on_grid(model, h_grid)
    params = dual.transversal(default_sampling_config(group))[0][::stride]
    for spec in (gaussian_fixtures(group, 1)[0], random_fixtures(group, 1)[0]):
        g = sample(spec, n_grids, h_grid, model)
        tables = pair_orbits(CharacterSlice(g), dual, params)
        for si in (3, -5):
            moved = pair_orbits(CharacterSlice(shifted_along_h(g, si)), dual, params)
            delta_x = model.modular_on_H(si * h_grid.spacing)
            cols = np.arange(max(0, si), n + min(0, si))
            for table, got in zip(tables, moved):
                for q in (3.0, 2.0):
                    k = kernel_from_pair_table(table, h_grid, delta, 1 / q).values
                    k_moved = kernel_from_pair_table(got, h_grid, delta, 1 / q).values
                    want = delta_x ** (1 / q - 1) * k[:, cols - si]
                    assert k_moved.shape == k.shape
                    err = np.abs(k_moved[:, cols] - want).max() / np.abs(k).max()
                    assert err <= 1e-12, (spec.kind, si, q, err)


def hausdorff_young_change(g, dual, moved):
    """Largest relative change, over p = 1.2, 1.5 and 2, of the
    Hausdorff-Young ratio lhs/rhs from g to each translate in moved."""
    ps = (1.2, 1.5, 2.0)
    ratio = lambda f: np.array([r.lhs / r.rhs for r in hausdorff_young_margins(f, dual, ps)])
    base = ratio(g)
    return max(np.abs(ratio(f) / base - 1).max() for f in moved)


# largest relative change seen: 6.7e-15 on ax+b; on Heisenberg 2.6e-8 under
# the N shifts, the mass pushed across the axis-0 grid edge, and 1.1e-8
# under the H shifts
@pytest.mark.parametrize(
    "group, n_shifts, h_shifts, rel",
    [("axb", [(3,), (-5,)], [], 1e-12), ("heisenberg", [(-5, 1)], [3, -5], 1e-6)],
    ids=["axb", "heisenberg"],
)
def test_lattice_translations_leave_the_direct_integral_ratio_alone(group, n_shifts, h_shifts, rel):
    """Translation by a lattice point unitarily conjugates every transform
    kernel and scales ||g||_p and the transform norm alike, so the
    Hausdorff-Young ratio does not move: checked for catalog Gaussian 0 and
    the seed-0 random fixture under N shifts of 3 and -5 steps on ax+b and
    of (-5, 1) steps on Heisenberg, and H shifts of 3 and -5 steps there."""
    model, dual = make_group(group)
    n_grids, h_grid = default_grids(group)
    for spec in (gaussian_fixtures(group, 1)[0], random_fixtures(group, 1)[0]):
        g = sample(spec, n_grids, h_grid, model)
        moved = [shifted_along_n(g, s) for s in n_shifts] + [shifted_along_h(g, s) for s in h_shifts]
        assert hausdorff_young_change(g, dual, moved) <= rel, spec.kind


def test_an_h_shift_on_axb_moves_the_ratio_only_by_the_h_window():
    """On ax+b an H shift of 3 or -5 steps does move the Hausdorff-Young
    ratio: the H window truncates the transform kernel, whose columns carry
    Delta^(1/q).  At spacing 0.125 the change falls with the H extent, from
    2.4e-3 (catalog Gaussian 0) and 4.8e-4 (seed-0 random fixture) at +-8 to
    8.0e-7 and 1.5e-7 at +-16 and 2.7e-10 and 5.5e-11 at +-24, about 3000x
    per extension; the bounds are 1e-8 at +-24 and a 100x fall per step."""
    model, dual = make_group("axb")
    for spec in (gaussian_fixtures("axb", 1)[0], random_fixtures("axb", 1)[0]):
        changes = []
        for k in (1, 2, 3):
            grids = make_grids(**{**DESK_GRIDS["axb"], "h_count": 128 * k, "h_extent": (-8.0 * k, 8.0 * k)})
            g = sample(spec, *grids, model)
            changes.append(hausdorff_young_change(g, dual, [shifted_along_h(g, s) for s in (3, -5)]))
        assert changes[2] <= 1e-8, changes
        assert changes[1] <= changes[0] / 100 and changes[2] <= changes[1] / 100, changes


def kernel_at(f, dual, sigma0, dimension_exponent=0.0):
    """Operator kernel at one transversal point, and the dual parameters of its rows."""
    (P,) = pair_orbits(CharacterSlice(f), dual, [sigma0])
    delta = modular_on_grid(dual.group, f.h_grid)
    (omegas,) = _orbit_map(dual.group, f.h_grid, [sigma0])
    return kernel_from_pair_table(P, f.h_grid, delta, dimension_exponent), omegas


def test_kernel_matches_direct_representation_sum():
    """sum_x g(x) Delta(x) w(x) rep(x) must equal kernel * diag(column weights)."""
    f = axb_function(n=32, h=8, seed=7)
    gn, gh = f.n_grids[0], f.h_grid
    sigma0 = np.array([1.0])
    k, omegas = kernel_at(f, AXB_DUAL, sigma0)
    assert np.all(CharacterSlice(f).in_band(omegas)), "test setup must keep every row in band"

    direct = np.zeros((gh.n, gh.n), dtype=np.complex128)
    for a, nval in enumerate(gn.points()):
        for b, tval in enumerate(gh.points()):
            x = GroupElement(np.array([nval]), tval)
            rep = induced_rep_matrix(AXB, sigma0, x, gh)
            direct += f.values[a, b] * AXB.modular(x) * gn.spacing * gh.spacing * rep
    np.testing.assert_allclose(direct, k.values * k.gamma_weights[None, :], atol=1e-12)


def test_kernel_heisenberg_matches_direct_representation_sum():
    gy = Grid1D(-2.0, 2.0, 16)
    gz = Grid1D(-2.0, 2.0, 16)
    gx = Grid1D(-1.0, 1.0, 8)
    f = sample(
        TestFunctionSpec(kind="gaussian", center_n=(0.0, 0.0), width_n=(0.5, 0.5), width_h=0.3),
        (gy, gz),
        gx,
        HEIS,
    )
    sigma0 = np.array([0.0, 0.8])
    k, omegas = kernel_at(f, HEIS_DUAL, sigma0)
    assert np.all(CharacterSlice(f).in_band(omegas))

    direct = np.zeros((gx.n, gx.n), dtype=np.complex128)
    wn = gy.spacing * gz.spacing
    for a, yv in enumerate(gy.points()):
        for b, zv in enumerate(gz.points()):
            for c, xv in enumerate(gx.points()):
                if abs(f.values[a, b, c]) < 1e-14:
                    continue
                x = GroupElement(np.array([yv, zv]), xv)
                rep = induced_rep_matrix(HEIS, sigma0, x, gx)
                direct += f.values[a, b, c] * wn * gx.spacing * rep
    np.testing.assert_allclose(direct, k.values * k.gamma_weights[None, :], atol=1e-11)


def test_dimension_exponent_is_a_column_factor():
    f = axb_function(seed=13)
    bare, _ = kernel_at(f, AXB_DUAL, np.array([1.0]))
    half, _ = kernel_at(f, AXB_DUAL, np.array([1.0]), dimension_exponent=0.5)
    delta = np.exp(-f.h_grid.points())
    np.testing.assert_allclose(half.values, bare.values * delta[None, :] ** 0.5, atol=1e-14)


def test_axb_plancherel_desk_scale():
    g128 = Grid1D(-8.0, 8.0, 128)
    f = sample(TestFunctionSpec(kind="gaussian"), (g128,), g128, AXB)
    r = check_plancherel(f, AXB_DUAL)
    assert r.rhs == pytest.approx(lp_norm_G(f, 2.0) ** 2, rel=1e-15)
    assert abs(r.lhs - r.rhs) / r.rhs < 7e-3  # measured 5.5e-3 at these grids


def test_bq_norm_at_two_is_weighted_frobenius():
    f = axb_function(seed=21)
    params, nu = AXB_DUAL.transversal(None)
    acc = 0.0
    for sigma0, w in zip(params, nu):
        k, _ = kernel_at(f, AXB_DUAL, sigma0, dimension_exponent=0.5)
        acc += w * (np.abs(weighted_operator_matrix(k)) ** 2).sum()
    (r,) = hausdorff_young_margins(f, AXB_DUAL, (2.0,))
    assert r.lhs == pytest.approx(np.sqrt(acc), rel=1e-12)


def default_fixture(group_name):
    model, dual = make_group(group_name)
    n_grids, h_grid = default_grids(group_name)
    return sample(random_fixtures(group_name, 1)[0], n_grids, h_grid, model), dual


def test_kernel_keeps_only_the_nonzero_rows_and_every_norm():
    """At lambda = 1.5 on the default Heisenberg grids 7 of 128 rows stay in
    band.  The kernel is those rows of the n x n formula, and its Schatten
    and cross norms are those of the zero-padded n x n kernel."""
    f, dual = default_fixture("heisenberg")
    h, i0 = f.h_grid, f.h_grid.origin_index
    (pair,) = pair_orbits(CharacterSlice(f), dual, [np.array([0.0, 1.5])])
    delta = modular_on_grid(HEIS, h)
    k = kernel_from_pair_table(pair, h, delta, 0.0)
    P = dense(pair, h.n)
    full = np.zeros((h.n, h.n), dtype=np.complex128)
    for i in range(h.n):
        for m in range(h.n):
            if 0 <= i - m + i0 < h.n:
                full[i, m] = P[i, i - m + i0] * delta[i - m + i0]
    rows = np.flatnonzero(np.abs(full).sum(axis=1))
    assert rows.size == 7 and k.values.shape == (7, h.n)
    np.testing.assert_array_equal(k.values, full[rows])
    padded = WeightedKernel(full, h.weights(), h.weights())
    qs = (2.0, 2.25, 3.0, 6.0, np.inf)
    got = schatten_norms(weighted_operator_matrix(k), qs)
    want = schatten_norms(weighted_operator_matrix(padded), qs)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    for q in qs[:-1]:
        p = conjugate_exponent(q)
        assert cross_norm_qpq(k, p) == pytest.approx(cross_norm_qpq(padded, p), rel=1e-12)  # k and k*


@pytest.mark.parametrize("group_name, kept, rows", [("heisenberg", 1764, 8192), ("axb", 150, 256)])
def test_kernel_rows_are_the_in_band_rows(group_name, kept, rows):
    f, dual = default_fixture(group_name)
    cs, delta = CharacterSlice(f), modular_on_grid(dual.group, f.h_grid)
    params, _ = dual.transversal(default_sampling_config(group_name))
    in_band = total = 0
    for omegas, P in zip(_orbit_map(dual.group, f.h_grid, params), pair_orbits(cs, dual, params)):
        total += kernel_from_pair_table(P, f.h_grid, delta, 0.5).values.shape[0]
        in_band += int(cs.in_band(omegas).sum())
    assert total == in_band == kept and len(params) * f.h_grid.n == rows


def test_orbits_with_no_row_in_band_give_empty_kernels():
    """At grid_n = 4 the band is so narrow that most orbits keep no row: their
    kernels are (0, n), every norm 0, and the run stays finite and quiet."""
    checks = ("plancherel", "hausdorff-young", "proof-chain")
    cfg = RunConfig(group="heisenberg", grid_n=4, p=(1.2, 1.5), checks=checks).validate()
    n_grids, h_grid = cfg.grids()
    f = sample(random_fixtures("heisenberg", 1)[0], n_grids, h_grid, HEIS)
    params, _ = HEIS_DUAL.transversal(default_sampling_config("heisenberg"))
    kernels = [kernel_at(f, HEIS_DUAL, sigma0)[0] for sigma0 in params]
    empty = [k for k in kernels if k.values.shape == (0, h_grid.n)]
    assert len(empty) == 56 and len(kernels) == 64
    assert schatten_norms(weighted_operator_matrix(empty[0]), (2.0, 3.0, np.inf)) == [0.0] * 3
    assert cross_norm_qpq(empty[0], 1.5) == (0.0, 0.0)
    records, _, _ = run_suite(cfg)
    assert records and np.all(np.isfinite([(r["lhs"], r["rhs"]) for r in records]))


@pytest.mark.parametrize("group_name", ["axb", "heisenberg"])
def test_pair_orbits_matches_one_pair_call_per_orbit(group_name):
    """Pairing every orbit of the transversal in one call (one trailing-axis
    GEMM on Heisenberg) gives each orbit the rows and table of its own pair
    call, the table to roundoff, with the same nonzero rows."""
    f, dual = default_fixture(group_name)
    cs = CharacterSlice(f)
    params, _ = dual.transversal(default_sampling_config(group_name))
    omegas, tables = _orbit_map(dual.group, f.h_grid, params), pair_orbits(cs, dual, params)
    assert len(tables) == len(params)
    for om, (rows, table) in zip(omegas, tables):
        rows_alone, alone = cs.pair(om)
        np.testing.assert_array_equal(rows, rows_alone)
        assert np.abs(table - alone).max() <= 1e-12 * np.abs(alone).max()
        np.testing.assert_array_equal(table.any(axis=1), alone.any(axis=1))


def test_a_transversal_of_18_orbits_is_paired_in_chunks_of_16_and_2(monkeypatch):
    f, dual = default_fixture("heisenberg")
    config = DualSamplingConfig(lambda_points=18)
    rows = []
    pair = CharacterSlice.pair
    monkeypatch.setattr(CharacterSlice, "pair", lambda cs, om: rows.append(len(om)) or pair(cs, om))
    chunked = spectral_record(f, dual, (1.5, 2.0), config, chain=(1.5,))
    assert rows == [16 * f.h_grid.n, 2 * f.h_grid.n]
    monkeypatch.setattr("hywbench.verify._PAIR_CHUNK", 1)
    alone = spectral_record(f, dual, (1.5, 2.0), config, chain=(1.5,))
    assert len(rows) == 2 + 18 and chunked.nu.shape == (18,)
    for p in (1.5, 2.0):
        np.testing.assert_allclose(chunked.sq[p], alone.sq[p], rtol=1e-12)
    for a, b in zip(chunked.chain[1.5], alone.chain[1.5]):
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_a_chunk_of_orbits_all_out_of_band_gives_empty_kernels():
    """At grid_n = 4 the first 16 orbits (the largest |lambda|) keep no row."""
    n_grids, h_grid = RunConfig(group="heisenberg", grid_n=4).grids()
    f = sample(random_fixtures("heisenberg", 1)[0], n_grids, h_grid, HEIS)
    params, _ = HEIS_DUAL.transversal(default_sampling_config("heisenberg"))
    tables = pair_orbits(CharacterSlice(f), HEIS_DUAL, params[:16])
    assert len(tables) == 16
    delta = modular_on_grid(HEIS, h_grid)
    for rows, table in tables:
        assert rows.shape == (0,) and table.shape == (0, h_grid.n)
        assert kernel_from_pair_table((rows, table), h_grid, delta, 0.5).values.shape == (0, h_grid.n)


def take_along_axis_kernel(pair, h_grid, delta_h, exponent):
    """The kernel values as the gather built them before the shared
    difference index, from the dense n-row table: the reference the
    gather from the in-band rows must equal bit for bit."""
    n, i0 = h_grid.n, h_grid.origin_index
    P = dense(pair, n)
    rows = np.flatnonzero(P.any(axis=1))
    D = rows[:, None] - np.arange(n)[None, :] + i0
    valid = (D >= 0) & (D < n)
    Dc = np.clip(D, 0, n - 1)
    return np.take_along_axis(P[rows], Dc, axis=1) * delta_h[Dc] * valid * delta_h**exponent


@pytest.mark.parametrize("group_name", ["axb", "heisenberg"])
@pytest.mark.parametrize("h_points", [None, 512])
def test_the_kernel_gather_keeps_the_bits_of_the_take_along_axis_formula(group_name, h_points):
    """Every 8th orbit of the seed-0 random fixture (both ax+b orbits), on
    the default H grid and on 512 H points."""
    model, dual = make_group(group_name)
    n_grids, h = RunConfig(group=group_name, grid_h=h_points).grids()
    assert h.n == (h_points or 128)
    f = sample(random_fixtures(group_name, 1)[0], n_grids, h, model)
    params, _ = dual.transversal(default_sampling_config(group_name))
    delta = modular_on_grid(model, h)
    for table in pair_orbits(CharacterSlice(f), dual, params[::8]):
        assert table[1].any()
        for exponent in (0.0, 1 / 3, 0.5):
            k = kernel_from_pair_table(table, h, delta, exponent)
            assert np.array_equal(k.values, take_along_axis_kernel(table, h, delta, exponent))


def test_the_kernel_gather_keeps_the_bits_on_an_orbit_with_no_row_in_band():
    n_grids, h_grid = RunConfig(group="heisenberg", grid_n=4).grids()
    f = sample(random_fixtures("heisenberg", 1)[0], n_grids, h_grid, HEIS)
    params, _ = HEIS_DUAL.transversal(default_sampling_config("heisenberg"))
    (table,) = pair_orbits(CharacterSlice(f), HEIS_DUAL, params[:1])
    delta = modular_on_grid(HEIS, h_grid)
    assert table[1].shape == (0, h_grid.n)
    for exponent in (0.0, 1 / 3, 0.5):
        k = kernel_from_pair_table(table, h_grid, delta, exponent)
        assert k.values.shape == (0, h_grid.n)
        assert np.array_equal(k.values, take_along_axis_kernel(table, h_grid, delta, exponent))
