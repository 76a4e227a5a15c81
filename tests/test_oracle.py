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
and e^(-gamma/q) the Duflo-Moore column factor Delta^(1/q).
"""

import math

import numpy as np
import pytest

from hywbench import verify
from hywbench.grids import make_grids, modular_on_grid, sample
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


def axb_kernel(spec, sigma0, h_grid, q):
    """The closed-form exponent-q kernel of an ax+b Gaussian at sigma0 on
    every row of h_grid, zero where xi - gamma leaves the grid."""
    (wb,), (cb,), wh, ch = spec.width_n, spec.center_n, spec.width_h, spec.center_h
    xi = h_grid.points()
    omega = sigma0 * np.exp(-xi)
    transform_n = np.sqrt(2 * np.pi) * wb * np.exp(
        -2 * np.pi**2 * wb**2 * omega**2 + 2j * np.pi * omega * cb
    )
    slice_index = np.subtract.outer(np.arange(h_grid.n), np.arange(h_grid.n)) + h_grid.origin_index
    d = np.subtract.outer(xi, xi)
    psi = np.exp(-((d - ch) ** 2) / (2 * wh**2)) * ((slice_index >= 0) & (slice_index < h_grid.n))
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
    for spec in verify.gaussian_fixtures("axb", 5):
        tables = pair_orbits(CharacterSlice(sample(spec, n_grids, h_grid, model)), dual, params)
        for (sigma0,), table in zip(params, tables):
            assert not table[~in_band].any()
            for q in (2.0, 3.0, 6.0):
                k = kernel_from_pair_table(table, h_grid, delta, 1 / q).values
                oracle = axb_kernel(spec, sigma0, h_grid, q)[in_band]
                err = np.abs(k - oracle).max() / np.abs(oracle).max()
                assert err <= 1e-8, (spec, sigma0, q, err)


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


def test_the_supremum_catches_a_constant_one_percent_too_large(monkeypatch):
    # at p = 2 plancherel would catch it, so the plant leaves p = 2 exact.
    # Every hyw run check passes it on both groups (measured at --p 1.5 and
    # --p 1.2,1.5,1.8); here the s = 100 ratio drops to 0.97059 at each p
    constant = verify.babenko_constant
    planted = lambda p, dim=1, regime="sharp": constant(p, dim, regime) * (1.01 if p < 2 else 1.0)
    monkeypatch.setattr(verify, "babenko_constant", planted)
    for p in EXPONENTS:
        assert gaussian_ratios(p)[-1] < 1 - 1e-4


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
