"""Grids, sampled test functions, weighted norms, fixture serialization."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hywbench.grids import (
    RANDOM_MODES,
    Grid1D,
    SampledFunction,
    TestFunctionSpec,
    lp_norm_G,
    make_grids,
    sample,
    save_sampled,
)
from hywbench.groups import make_group
from hywbench.transform import CharacterSlice
from hywbench.verify import default_grids, gaussian_fixtures, random_fixtures

AXB, _ = make_group("axb")
HEIS, _ = make_group("heisenberg")


def test_grid_layout():
    g = Grid1D(-8.0, 8.0, 128)
    assert g.spacing == 0.125
    assert g.nyquist == 4.0
    assert g.origin_index == 64
    pts = g.points()
    assert pts[0] == -8.0
    assert pts[-1] == pytest.approx(8.0 - 0.125)
    np.testing.assert_allclose(g.weights(), 0.125)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(1.0, 1.0, 8)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Grid1D(0.5, 8.5, 16).origin_index  # origin between points
    with pytest.raises(ValueError, match="spacing > 0"):
        Grid1D(-5e-324, 5e-324, 4)  # the spacing underflows to 0


@given(st.integers(min_value=1, max_value=8), st.floats(min_value=0.25, max_value=16.0))
def test_difference_of_points_is_on_lattice(npow, half):
    # translations act by index shifts: p_i - p_j must be (i - j) * spacing
    g = Grid1D(-half, half, 2**npow)
    pts = g.points()
    i, j = 2**npow - 1, 2 ** (npow - 1)
    assert pts[i] - pts[j] == pytest.approx((i - j) * g.spacing, rel=1e-12)


def test_balanced_refine_grows_extents():
    g = Grid1D(-4.0, 4.0, 64)
    f = g.balanced_refine()
    assert f.n == 128
    assert f.hi == pytest.approx(4.0 * np.sqrt(2.0))
    assert f.spacing < g.spacing
    assert f.origin_index == 64


def test_reciprocal_grid_spans_the_band():
    g = Grid1D(-8.0, 8.0, 128)
    r = g.reciprocal()
    assert r.lo == -g.nyquist and r.hi == g.nyquist and r.n == g.n
    assert r.origin_index == 64


def test_make_grids_checks_origin_alignment():
    n_grids, h_grid = make_grids([64], [(-8.0, 8.0)], 64, (-4.0, 4.0))
    assert len(n_grids) == 1 and h_grid.n == 64
    with pytest.raises(ValueError):
        make_grids([64], [(-8.0, 8.0)], 64, (0.25, 8.25))
    with pytest.raises(ValueError):
        make_grids([64, 64], [(-8.0, 8.0)], 64, (-4.0, 4.0))


def test_spec_validation():
    with pytest.raises(ValueError):
        TestFunctionSpec(kind="sinc")
    with pytest.raises(ValueError):
        TestFunctionSpec(kind="bump")


def test_spec_key_names_every_field():
    base = TestFunctionSpec(kind="gaussian")
    # the key of a spec is the repr of its field values, in field order
    assert base.key() == repr(("gaussian", (0.0,), 0.0, (1.0,), 1.0, 0))
    changes = dict(
        kind="random-bandlimited", center_n=(0.5,), center_h=0.5, width_n=(2.0,),
        width_h=2.0, seed=1,
    )
    assert set(changes) == {f.name for f in dataclasses.fields(TestFunctionSpec)}
    for name, value in changes.items():
        assert dataclasses.replace(base, **{name: value}).key() != base.key(), name


def test_gaussian_sample_matches_callable():
    g = Grid1D(-6.0, 6.0, 64)
    spec = TestFunctionSpec(kind="gaussian", center_n=(0.5,), center_h=-1.0, width_n=(2.0,), width_h=0.5)
    f = sample(spec, (g,), g, AXB)
    n, t = np.meshgrid(g.points(), g.points(), indexing="ij")
    direct = SampledFunction(
        model=AXB,
        n_grids=(g,),
        h_grid=g,
        values=np.exp(-((n - 0.5) ** 2) / 8.0) * np.exp(-((t + 1.0) ** 2) / 0.5),
    )
    np.testing.assert_allclose(f.values, direct.values, atol=1e-15)
    assert f.values.shape == (64, 64)


def test_catalog_gaussian_is_the_outer_product_of_its_envelopes():
    # both accuracy metrics read catalog Gaussians, so their samples stay bit for bit
    spec = gaussian_fixtures("heisenberg", 1)[0]
    n_grids, h_grid = default_grids("heisenberg")
    centers, widths = (*spec.center_n, spec.center_h), (*spec.width_n, spec.width_h)
    p0, p1, ph = (
        np.exp(-((g.points() - c) ** 2) / (2.0 * s**2))
        for g, c, s in zip((*n_grids, h_grid), centers, widths)
    )
    f = sample(spec, n_grids, h_grid, HEIS)
    assert np.array_equal(f.values, np.multiply.outer(np.multiply.outer(p0, p1), ph))


@pytest.mark.parametrize(
    "call, bound",  # bound: traced peak over the fixture's bytes
    [
        (lambda g: sample(g.spec, g.n_grids, g.h_grid, HEIS), 1.5),  # the result counts
        (lambda g: lp_norm_G(g, 1.5), 0.5),
        (lambda g: CharacterSlice(g).transform_reciprocal(), 1.5),  # its one copy counts
    ],
    ids=["sample", "lp_norm_G", "transform_reciprocal"],
)
def test_builds_no_full_size_temporary(call, bound):
    spec = random_fixtures("heisenberg", 1)[0]
    g = sample(spec, *default_grids("heisenberg"), HEIS)
    tracemalloc.start()
    try:
        call(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * g.values.nbytes


def test_random_bandlimited_is_seed_deterministic():
    g = Grid1D(-6.0, 6.0, 32)
    a = sample(TestFunctionSpec(kind="random-bandlimited", seed=42), (g,), g, AXB)
    b = sample(TestFunctionSpec(kind="random-bandlimited", seed=42), (g,), g, AXB)
    c = sample(TestFunctionSpec(kind="random-bandlimited", seed=43), (g,), g, AXB)
    np.testing.assert_array_equal(a.values, b.values)
    assert np.abs(a.values - c.values).max() > 1e-6


def test_random_bandlimited_matches_meshgrid_formula():
    """Separable sampling: each mode is an outer product of per-axis
    exponentials; compare with the phase summed over a meshgrid."""
    n_grids = (Grid1D(-4.0, 4.0, 8), Grid1D(-2.0, 2.0, 6))
    h_grid = Grid1D(-3.0, 3.0, 10)
    spec = TestFunctionSpec(
        kind="random-bandlimited", width_n=(1.5, 0.7), center_n=(0.3, 0.0), seed=5
    )
    f = sample(spec, n_grids, h_grid, HEIS)

    axes = [g.points() for g in n_grids] + [h_grid.points()]
    mesh = np.meshgrid(*axes, indexing="ij")
    envelope = np.exp(-((mesh[0] - 0.3) ** 2) / (2 * 1.5**2))
    envelope *= np.exp(-(mesh[1] ** 2) / (2 * 0.7**2)) * np.exp(-(mesh[2] ** 2) / 2)
    lengths = [8.0, 4.0, 6.0]
    rng = np.random.default_rng(5)
    total = np.zeros(f.values.shape, dtype=complex)
    for j in range(RANDOM_MODES):
        ks = [int(rng.integers(-m, m + 1)) for m in (2, 2, 3)]
        c = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.7**j
        phase = sum((k / length) * x for x, k, length in zip(mesh, ks, lengths))
        total += c * np.exp(2j * np.pi * phase)
    expected = envelope * total
    assert np.abs(f.values - expected).max() <= 1e-14 * np.abs(expected).max()


def test_lp_norm_axb_gaussian_closed_form():
    # int exp(-b^2) db * int exp(-t^2) e^{-t} dt = sqrt(pi) * sqrt(pi) e^{1/4}
    g = Grid1D(-8.0, 8.0, 128)
    f = sample(TestFunctionSpec(kind="gaussian"), (g,), g, AXB)
    assert lp_norm_G(f, 2.0) ** 2 == pytest.approx(np.pi * np.exp(0.25), rel=1e-10)


def test_lp_norm_heisenberg_gaussian_closed_form():
    gy = Grid1D(-12.0, 12.0, 64)
    gz = Grid1D(-6.0, 6.0, 64)
    gx = Grid1D(-16.0, 16.0, 128)
    spec = TestFunctionSpec(kind="gaussian", center_n=(0.0, 0.0), width_n=(2.0, 0.5), width_h=1.0)
    f = sample(spec, (gy, gz), gx, HEIS)
    # product of three 1-D Gaussian squared integrals: sqrt(pi)*2 * sqrt(pi)*0.5 * sqrt(pi)
    assert lp_norm_G(f, 2.0) ** 2 == pytest.approx(np.pi**1.5, rel=1e-10)


# largest relative error seen at each bound's group: ax+b 1.6e-10 and
# Heisenberg 1.0e-7, the latter at Gaussian 2 and p = 1.2, whose N axis-0
# tail (width 2.4) still reaches the +-12 grid edge; every other Heisenberg
# case is within 2.7e-9
@pytest.mark.parametrize("group, rel", [("axb", 1e-9), ("heisenberg", 1e-6)])
def test_lp_norm_of_every_catalog_gaussian_has_its_closed_form(group, rel):
    """||g||_p^p of a Gaussian is a product over axes of s sqrt(2 pi / p),
    s the axis width; on ax+b the Haar weight e^(-t) makes the H axis
    contribute exp(-c_h + s_h^2 / (2p)) more, c_h the H centre."""
    model, _ = make_group(group)
    n_grids, h_grid = default_grids(group)
    for spec in gaussian_fixtures(group, 5):
        g = sample(spec, n_grids, h_grid, model)
        for p in (1.2, 1.5, 1.8, 2.0):
            mass = np.prod([s * np.sqrt(2 * np.pi / p) for s in (*spec.width_n, spec.width_h)])
            if group == "axb":
                mass *= np.exp(-spec.center_h + spec.width_h**2 / (2 * p))
            assert lp_norm_G(g, p) == pytest.approx(mass ** (1 / p), rel=rel), (spec, p)


def test_lp_norm_against_naive_loop():
    g = Grid1D(-3.0, 3.0, 16)
    h = Grid1D(-2.0, 2.0, 8)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
    f = SampledFunction(model=AXB, n_grids=(g,), h_grid=h, values=vals)
    p = 1.7
    acc = 0.0
    for i, b in enumerate(g.points()):
        for j, t in enumerate(h.points()):
            acc += abs(vals[i, j]) ** p * g.spacing * np.exp(-t) * h.spacing
    assert lp_norm_G(f, p) == pytest.approx(acc ** (1 / p), rel=1e-12)


def test_lp_norm_rejects_bad_exponent():
    g = Grid1D(-3.0, 3.0, 16)
    f = sample(TestFunctionSpec(kind="gaussian"), (g,), g, AXB)
    with pytest.raises(ValueError):
        lp_norm_G(f, 0.5)
    with pytest.raises(ValueError):
        lp_norm_G(f, np.inf)


def test_values_shape_is_validated():
    g = Grid1D(-3.0, 3.0, 16)
    with pytest.raises(ValueError):
        SampledFunction(model=AXB, n_grids=(g,), h_grid=g, values=np.zeros((16, 15)))
    with pytest.raises(ValueError):
        SampledFunction(model=AXB, n_grids=(g,), h_grid=g, values=np.full((16, 16), np.nan))


def test_fixture_roundtrip(tmp_path):
    gy = Grid1D(-4.0, 4.0, 16)
    gz = Grid1D(-2.0, 2.0, 8)
    gx = Grid1D(-4.0, 4.0, 16)
    spec = TestFunctionSpec(kind="random-bandlimited", seed=5, center_n=(0.0, 0.0), width_n=(1.0, 0.5))
    f = sample(spec, (gy, gz), gx, HEIS)
    path = tmp_path / "f.hyw"
    save_sampled(f, path)
    header, payload = path.read_bytes().split(b"\n", 1)
    assert header == b"HYW1 16,8,16 -4:4,-2:2,-4:4 5"
    np.testing.assert_array_equal(np.frombuffer(payload, "<c16"), f.values.ravel())
    # serialization is deterministic
    path2 = tmp_path / "g.hyw"
    save_sampled(f, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_sampled_digest_is_stable(tmp_path):
    # save_sampled returns the sha256 of the bytes it wrote
    g = Grid1D(-4.0, 4.0, 16)
    f = sample(TestFunctionSpec(kind="random-bandlimited", seed=42), (g,), g, AXB)
    a = save_sampled(f, tmp_path / "a.hyw")
    again = sample(TestFunctionSpec(kind="random-bandlimited", seed=42), (g,), g, AXB)
    b = save_sampled(again, tmp_path / "b.hyw")
    assert a == b
    assert len(a) == 64
    assert a == hashlib.sha256((tmp_path / "a.hyw").read_bytes()).hexdigest()
