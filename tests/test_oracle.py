"""A grid-free oracle: the closed-form spectrum of Heisenberg Gaussian kernels.

A centred Heisenberg Gaussian exp(-y^2/(2 w_y^2) - z^2/(2 w_z^2) - x^2/(2 w_x^2))
has, at the orbit lambda, the transform kernel

    K(xi, gamma) = C exp(-a xi^2 - b (xi - gamma)^2),

with a = 2 pi^2 w_y^2 lambda^2, b = 1/(2 w_x^2) and
C = 2 pi w_y w_z exp(-2 pi^2 w_z^2 lambda^2).  By Mehler's formula its
singular values are geometric: with rho = b / sqrt((a + b) b) and
r = (1 - sqrt(1 - rho^2)) / rho,

    ||K||_S2^2 = C^2 pi w_x / sqrt(2 a),
    ||K||_Sq^q = (||K||_S2^2 (1 - r^2))^(q/2) / (1 - r^q),

and the direct-integral norm is 2 int_0^inf lambda ||K_lambda||_Sq^q d lambda.
The oracle below is numpy on these formulas alone; it never calls the
pipeline, which the tests then hold to it.

On ax+b, the nonunimodular group, the kernel itself has a closed form.  A
Gaussian exp(-(b - c_b)^2/(2 w_b^2)) psi(t), psi(t) = exp(-(t - c_h)^2/(2 w_h^2)),
has at the orbit sigma0 = +-1 the exponent-q kernel

    k(xi, gamma) = G(sigma0 e^-xi) psi(xi - gamma) e^-(xi - gamma) e^(-gamma/q),

G(omega) = sqrt(2 pi) w_b exp(-2 pi^2 w_b^2 omega^2 + 2 pi i omega c_b) the
transform of the N factor, e^-(xi - gamma) the modular function at the slice
and e^(-gamma/q) the Duflo-Moore column factor Delta^(1/q).  On an H grid of
spacing h wide enough that the Gaussians vanish at its ends (xi over
[-10, 24], h = min(1/4, w_h/4)), ||h k||_{S_q}^q at each sigma0 and its sum
over sigma0 are the continuum values, computed with numpy's SVD alone: they
show where the ax+b Gaussian ratio goes as w_h shrinks, that the ratio does
not depend on w_b, and that the pipeline's error on the default grids comes
from its H window.
"""

import functools
import math

import numpy as np
import pytest

from hywbench import verify
from hywbench.grids import TestFunctionSpec, make_grids, modular_on_grid, sample
from hywbench.groups import DualSamplingConfig, make_group
from hywbench.transform import CharacterSlice, kernel_from_pair_table, pair_orbits


def mehler_sq(lam, q, widths):
    """||K_lambda||_{S_q}^q at every lambda of lam (nonzero)."""
    wy, wz, wx = widths
    lam = np.asarray(lam, dtype=float)
    a = 2 * np.pi**2 * wy**2 * lam**2
    b = 1 / (2 * wx**2)
    c = 2 * np.pi * wy * wz * np.exp(-2 * np.pi**2 * wz**2 * lam**2)
    s2 = c**2 * np.pi * wx / np.sqrt(2 * a)
    # log r = log(1 - sqrt(1 - rho^2)) - log rho with 1 - rho^2 = a / (a + b):
    # near lambda = 0, r tends to 1, and 1 - r^q taken as written is 0/0
    log_r = np.log1p(-np.sqrt(a / (a + b))) + 0.5 * np.log1p(a / b)
    return (s2 * -np.expm1(2 * log_r)) ** (q / 2) / -np.expm1(q * log_r)


def direct_integral(q, widths):
    """2 int_0^inf lambda ||K_lambda||_Sq^q d lambda, by the trapezoid rule in
    u with lambda = e^u / w_z, u on [-40, 3]: below, the integrand in u falls
    like e^u; above, like exp(-2 pi^2 q e^(2u))."""
    u = np.linspace(-40.0, 3.0, 200001)
    lam = np.exp(u) / widths[1]
    return 2 * np.trapezoid(lam**2 * mehler_sq(lam, q, widths), u)


def gaussian_norm(p, widths):
    """||g||_p of the centred Gaussian: each axis contributes w sqrt(2 pi / p)."""
    return (math.prod(widths) * (2 * math.pi / p) ** 1.5) ** (1 / p)


@pytest.mark.parametrize("widths", [(2.0, 0.5, 1.0), (1.0, 10.0, 1.0), (0.7, 3.0, 1.3)])
def test_the_oracle_at_two_is_the_l2_norm(widths):
    # ||g||_2^2 = pi^(3/2) w_y w_z w_x exactly (Plancherel in the continuum)
    assert direct_integral(2.0, widths) == pytest.approx(math.pi**1.5 * math.prod(widths), rel=1e-12)


# worst relative error measured: 1.6e-13 (p = 1.2), 5.3e-10 (1.5), 5.8e-7 (2)
PIN = {1.2: (6, 1e-11), 1.5: (10, 1e-8), 2.0: (12, 1e-5)}


def test_every_resolved_orbit_matches_mehler():
    """Catalog Gaussian 0 on 512 H points (spacing 0.0625) at 16 orbits: each
    orbit whose S_q^q is above 1e-6 of the largest matches the oracle."""
    model, dual = make_group("heisenberg")
    grids = make_grids(**{**verify.DESK_GRIDS["heisenberg"], "h_count": 512})
    spec = verify.gaussian_fixtures("heisenberg", 1)[0]
    widths = (*spec.width_n, spec.width_h)
    config = DualSamplingConfig(lambda_points=16)
    record = verify.spectral_record(sample(spec, *grids, model), dual, tuple(PIN), config)
    lam = dual.transversal(config)[0][:, 1]
    for p, (count, bound) in PIN.items():
        oracle = mehler_sq(lam, p / (p - 1), widths)
        kept = oracle > 1e-6 * oracle.max()
        rel = np.abs(record.sq[p][kept] - oracle[kept]) / oracle[kept]
        assert kept.sum() == count and rel.max() <= bound, (p, rel.max())


def axb_kernel(spec, sigma0, xi, q):
    """The closed-form exponent-q kernel of an ax+b Gaussian at sigma0, with
    both variables on the points xi."""
    (wb,), (cb,), wh, ch = spec.width_n, spec.center_n, spec.width_h, spec.center_h
    omega = sigma0 * np.exp(-xi)
    transform_n = np.sqrt(2 * np.pi) * wb * np.exp(
        -2 * np.pi**2 * wb**2 * omega**2 + 2j * np.pi * omega * cb
    )
    d = np.subtract.outer(xi, xi)
    psi = np.exp(-((d - ch) ** 2) / (2 * wh**2))
    return transform_n[:, None] * psi * np.exp(-d) * np.exp(-xi / q)


def test_every_axb_kernel_matches_its_closed_form():
    """Catalog Gaussians 0-4 at both orbits and q = 2, 3, 6 on the default
    grids: the kept rows are the in-band rows, each within 1e-8 of the
    largest entry (measured: 7.9e-10 on Gaussian 2, whose N tail the grid
    truncates; 9.2e-12 or less on the others), and the pairing rows out of
    band are exactly 0."""
    model, dual = make_group("axb")
    n_grids, h_grid = verify.default_grids("axb")
    delta = modular_on_grid(model, h_grid)
    params, _ = dual.transversal(None)
    in_band = np.exp(-h_grid.points()) <= n_grids[0].nyquist
    # the pipeline's kernel is zero where xi - gamma leaves the grid
    slice_index = np.subtract.outer(np.arange(h_grid.n), np.arange(h_grid.n)) + h_grid.origin_index
    on_grid = (slice_index >= 0) & (slice_index < h_grid.n)
    for spec in verify.gaussian_fixtures("axb", 5):
        tables = pair_orbits(CharacterSlice(sample(spec, n_grids, h_grid, model)), dual, params)
        for (sigma0,), table in zip(params, tables):
            assert not table[~in_band].any()
            for q in (2.0, 3.0, 6.0):
                k = kernel_from_pair_table(table, h_grid, delta, 1 / q).values
                oracle = (axb_kernel(spec, sigma0, h_grid.points(), q) * on_grid)[in_band]
                err = np.abs(k - oracle).max() / np.abs(oracle).max()
                assert err <= 1e-8, (spec, sigma0, q, err)


@functools.cache  # the supremum tests and the planted constant share these SVDs
def axb_orbit_sq(spec, q):
    """||h k||_{S_q}^q at sigma0 = 1 and -1, the order of the ax+b
    transversal, k on xi over [-10, 24] with spacing h = min(1/4, w_h/4): the
    continuum value of each orbit of the Gaussian."""
    h = min(0.25, spec.width_h / 4)
    xi = np.arange(-10.0, 24.0 + h / 2, h)
    singular = [np.linalg.svd(h * axb_kernel(spec, s, xi, q), compute_uv=False) for s in (1.0, -1.0)]
    return np.array([(s**q).sum() for s in singular])


def axb_ratio(p, wh, wb=1.0):
    """Transform norm over ||g||_p of the centred ax+b Gaussian of widths
    (w_b, w_h), in units of babenko_constant(p, 1)^2; ||g||_p^p is
    w_b sqrt(2 pi / p) w_h sqrt(2 pi / p) e^(w_h^2 / (2p)), the last factor
    from the modular density e^-t on H."""
    q = p / (p - 1)
    norm = (wb * wh * (2 * math.pi / p) * math.exp(wh**2 / (2 * p))) ** (1 / p)
    spec = TestFunctionSpec(kind="gaussian", width_n=(wb,), width_h=wh)
    return axb_orbit_sq(spec, q).sum() ** (1 / q) / (verify.babenko_constant(p, 1) ** 2 * norm)


def gaussian_ratios(p):
    """Transform norm over ||g||_p of the Heisenberg Gaussians of widths
    (1, s, 1), s = 1, 10, 100, in units of babenko_constant(p, 1)^3."""
    q = p / (p - 1)
    cube = verify.babenko_constant(p, 1) ** 3
    return [
        direct_integral(q, w) ** (1 / q) / gaussian_norm(p, w) / cube
        for w in ((1.0, s, 1.0) for s in (1.0, 10.0, 100.0))
    ]


EXPONENTS = (1.2, 1.5, 1.8)


@pytest.mark.parametrize("p", EXPONENTS)
def test_the_gaussian_supremum_is_the_cube_of_the_line_constant(p):
    """As w_z / (w_y w_x) grows, the ratio rises to A_p(1)^3, the constant of
    R^3, and never passes it (measured at s = 1, 10, 100: 0.97423, 0.99963,
    0.999996 at p = 1.2; 0.98331, 0.99977, 0.999998 at 1.5; 0.99377,
    0.99991, 0.999999 at 1.8)."""
    ratios = gaussian_ratios(p)
    assert ratios == sorted(ratios) and max(ratios) <= 1 + 1e-9
    assert ratios[-1] >= 1 - 1e-4, ratios


def plant_a_constant_one_percent_too_large(monkeypatch):
    # at p = 2 plancherel would catch it, so the plant leaves p = 2 exact.
    # Every hyw run check passes it on both groups (measured at --p 1.5 and
    # --p 1.2,1.5,1.8)
    constant = verify.babenko_constant
    planted = lambda p, dim=1, regime="sharp": constant(p, dim, regime) * (1.01 if p < 2 else 1.0)
    monkeypatch.setattr(verify, "babenko_constant", planted)


def test_the_supremum_catches_a_constant_one_percent_too_large(monkeypatch):
    # the s = 100 ratio drops to 0.97059 at each p
    plant_a_constant_one_percent_too_large(monkeypatch)
    for p in EXPONENTS:
        assert gaussian_ratios(p)[-1] < 1 - 1e-4


AXB_WIDTHS = (1.0, 0.5, 0.25)  # w_h, with w_b = 1


@pytest.mark.parametrize("p", EXPONENTS)
def test_the_axb_gaussian_supremum_is_the_square_of_the_line_constant(p):
    """As w_h shrinks, the ax+b Gaussian ratio rises towards A_p(1)^2 and
    never passes it (measured at w_h = 1 and 0.25: 0.951321, 0.995560 at
    p = 1.2; 0.970478, 0.997251 at 1.5; 0.989205, 0.998971 at 1.8)."""
    ratios = [axb_ratio(p, wh) for wh in AXB_WIDTHS]
    assert ratios == sorted(ratios) and max(ratios) <= 1 + 1e-9
    assert ratios[-1] >= 0.99, ratios


def test_the_axb_gaussian_ratio_is_one_at_two():
    # Plancherel: the orbit sum at q = 2 is ||g||_2^2 (measured within 1.2e-9)
    for wh in AXB_WIDTHS:
        assert axb_ratio(2.0, wh) == pytest.approx(1.0, abs=1e-8), wh


def test_the_axb_supremum_catches_a_constant_one_percent_too_large(monkeypatch):
    # the w_h = 0.25 ratio drops to 0.9759, 0.9776 and 0.9793
    plant_a_constant_one_percent_too_large(monkeypatch)
    for p in EXPONENTS:
        assert axb_ratio(p, AXB_WIDTHS[-1]) < 0.99


@pytest.mark.parametrize("p", EXPONENTS)
def test_the_axb_ratio_is_invariant_under_the_n_dilation(p):
    """Conjugation by (a, 0) is an automorphism of ax+b that scales b by a,
    so it leaves the transform norm over ||g||_p alone: at w_h = 1, the
    ratios at w_b = 0.5, 1 and 2 agree to 1e-8 relative.  Measured spread:
    9.0e-10 at p = 1.2, 6.9e-10 at 1.5 and 3.5e-9 at 1.8.  Doubling w_b
    shifts the kernel by log 2 in xi, which is no multiple of the oracle's
    spacing 1/4, so the spread is the oracle's own quadrature error."""
    ratios = [axb_ratio(p, 1.0, wb) for wb in (0.5, 1.0, 2.0)]
    assert max(ratios) - min(ratios) <= 1e-8 * min(ratios), ratios


# 256 H points over [-16, 16): the default H spacing on twice the default extent
DOUBLED_H = {"h_count": 256, "h_extent": (-16.0, 16.0)}


def axb_records(specs, ps, **grid_changes):
    """The spectral record at ps of each ax+b spec, sampled on the default
    grids with grid_changes."""
    model, dual = make_group("axb")
    grids = make_grids(**{**verify.DESK_GRIDS["axb"], **grid_changes})
    return [verify.spectral_record(sample(spec, *grids, model), dual, ps) for spec in specs]


def test_the_axb_orbit_sum_error_is_the_h_window():
    """The pipeline's orbit sum sum nu ||k_sigma||_{S_q}^q against the
    oracle's on catalog Gaussians 0-4 at p = 1.2, 1.5, 2.  On the default
    grids every deviation is negative, the mass the H window [-8, 8) cuts off
    (measured at p = 1.2: -3.3e-2, -1.0e-2, -7.5e-2, -3.5e-2, -3.9e-2; at
    p = 2 between -2.5e-3 and -9.1e-3).  On 256 H points over [-16, 16),
    the same spacing, each is at most 2.6e-5, at least 2,900x smaller, and
    each orbit sigma0 = 1 and -1 is within 5e-5 of its own oracle value
    (measured: at most 2.55e-5, on Gaussian 2 at p = 1.2)."""
    ps = (1.2, 1.5, 2.0)
    specs = verify.gaussian_fixtures("axb", 5)
    oracle = np.array([[axb_orbit_sq(spec, p / (p - 1)) for p in ps] for spec in specs])
    devs = []
    for extent in ({}, DOUBLED_H):
        records = axb_records(specs, ps, **extent)
        sq = np.array([[r.sq[p] for p in ps] for r in records])  # fixture, exponent, orbit
        devs.append((sq @ records[0].nu / oracle.sum(axis=-1) - 1, sq / oracle - 1))
    (default, _), (doubled, per_orbit) = devs
    assert np.all(default < 0), default
    assert np.all(np.abs(doubled) <= 5e-5) and np.all(np.abs(doubled) <= 1e-3 * np.abs(default)), doubled
    assert np.all(np.abs(per_orbit) <= 5e-5), per_orbit


def test_the_axb_orbit_pin_catches_a_missing_modular_factor(monkeypatch):
    """Every kernel built with column exponent 0, that is without the
    Duflo-Moore factor Delta^(1/q), puts catalog Gaussian 0 at the doubled H
    extent far off the per-orbit pin above: each orbit's ||k||_{S_q}^q is
    191 to 465 times its oracle value at p = 1.2, 1.5 and 2 (measured)."""
    kernel = verify.kernel_from_pair_table
    monkeypatch.setattr(verify, "kernel_from_pair_table", lambda P, h, delta, _: kernel(P, h, delta, 0.0))
    ps = (1.2, 1.5, 2.0)
    spec = verify.gaussian_fixtures("axb", 1)[0]
    (record,) = axb_records([spec], ps, **DOUBLED_H)
    for p in ps:
        per_orbit = record.sq[p] / axb_orbit_sq(spec, p / (p - 1)) - 1
        assert np.all(per_orbit > 100), (p, per_orbit)


@pytest.mark.parametrize("p", EXPONENTS)
def test_the_ratio_is_invariant_under_the_heisenberg_dilation(p):
    """The dilation (x, y, z) -> (s x, s y, s^2 z) is an automorphism of the
    Heisenberg group, so it leaves the transform norm over ||g||_p alone:
    widths (2, 0.5, 1) dilated by s = 0.5, 2, 3 give the undilated ratio
    (measured within 3.3e-16 relative)."""
    q = p / (p - 1)
    ratio = lambda w: direct_integral(q, w) ** (1 / q) / gaussian_norm(p, w)
    wy, wz, wx = 2.0, 0.5, 1.0
    base = ratio((wy, wz, wx))
    for s in (0.5, 2.0, 3.0):
        assert ratio((s * wy, s * s * wz, s * wx)) == pytest.approx(base, rel=1e-14, abs=0), s
