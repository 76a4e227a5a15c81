"""Verification checks: equalities, sharp bounds, and the full norm chain.

Three kinds of assertion, three kinds of slack:

* exact discrete facts (matrix inequalities on atomic measure spaces, affine
  measure scalings, semi-invariance): hold to roundoff; slack 1e-10 / 1e-12;
* margin-backed bounds (the sharp Hausdorff-Young inequality on generic
  fixtures): the theorem supplies real margin; slack 1e-6;
* quadrature-mediated comparisons (any grid sum standing in for a continuum
  integral): slack 1e-2 relative at the desk-scale default grids, sized from
  measured refinement behavior (errors land near 5e-3 on the defaults).

What refines what: one balanced refinement of the N and H grids (double the
points, widen the extents by sqrt(2)) lowers every ax+b error source, and the
Plancherel errors of its fixtures fall about 25x.  On Heisenberg it leaves the
orbit transversal and its lambda_min window alone, and the window term,
linear in lambda_min (about -3.55 lambda_min on catalog Gaussian 0, -2.57
lambda_min on the seed-0 random fixture), is then the floor: that fixture goes
from 3.6e-4 to 6.2e-4.  Refining the grids and taking lambda_min a quarter of its
default lowers both catalog Gaussian 0 (2.9e-3 to 5.5e-5) and that fixture
(3.6e-4 to 7.5e-5).

The docstring of the check behind each ``hyw run`` family states what that
family asserts and at which default slack; ``hyw explain`` prints it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grids import (
    Grid1D,
    SampledFunction,
    TestFunctionSpec,
    lp_norm_G,
    make_grids,
    modular_on_grid,
    slice_lp_mass,
)
from .groups import (
    DualOrbitModel,
    DualSamplingConfig,
    GroupElement,
    GroupExtensionModel,
)
from .schatten import (
    WeightedKernel,
    conjugate_exponent,
    cross_norm_qpq,
    russo_gaps,
    schatten_norm,
    schatten_norms,
    weighted_operator_matrix,
)
from .transform import CharacterSlice, induced_rep_matrix, kernel_from_pair_table, pair_orbits

__all__ = [
    "TOLERANCES",
    "CheckResult",
    "inequality_result",
    "equality_result",
    "deviation_result",
    "babenko_constant",
    "default_grids",
    "default_sampling_config",
    "gaussian_fixtures",
    "random_fixtures",
    "check_plancherel",
    "hausdorff_young_margins",
    "spectral_record",
    "check_proof_chain",
    "check_semi_invariance",
    "semi_invariance_suite",
    "check_dual_measure_scaling",
    "dual_measure_suite",
    "check_russo_fournier",
    "russo_fournier_random_suite",
    "check_minkowski",
    "minkowski_random_suite",
    "check_nilpotent_bound",
    "schatten_property_suite",
    "check_gaussian_extremality",
]

TOLERANCES = {
    "linalg": 1e-10,
    "measure": 1e-12,
    "bound": 1e-6,
    "equality": 1e-2,
    "quadrature": 1e-2,
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check: two numbers, a comparison kind, and a verdict."""

    name: str
    kind: str  # "inequality" | "equality" | "deviation"
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    detail: str = ""

    def __str__(self):
        mark = "pass" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: lhs={self.lhs:.12g} rhs={self.rhs:.12g} tol={self.tolerance:g}"


def _holds(lhs: float, rhs: float, tolerance: float) -> bool:
    """The verdict of inequality_result, for sides that are already floats."""
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        return False
    if rhs > 1e-300:
        return lhs <= rhs * (1.0 + tolerance)
    return lhs <= tolerance


def inequality_result(name, lhs, rhs, tolerance, detail="") -> CheckResult:
    """lhs <= rhs up to relative slack; absolute slack when rhs vanishes.

    Fails when either side is NaN or infinite.
    """
    lhs, rhs = float(lhs), float(rhs)
    return CheckResult(name, "inequality", lhs, rhs, tolerance, bool(_holds(lhs, rhs, tolerance)), detail)


def equality_result(name, lhs, rhs, tolerance, detail="") -> CheckResult:
    """lhs == rhs up to relative slack; fails when either side is NaN or infinite."""
    lhs, rhs = float(lhs), float(rhs)
    scale = max(abs(lhs), abs(rhs))
    finite = np.isfinite(lhs) and np.isfinite(rhs)
    passed = finite and (scale == 0 or abs(lhs - rhs) <= tolerance * scale)
    return CheckResult(name, "equality", lhs, rhs, tolerance, bool(passed), detail)


def deviation_result(name, deviation, tolerance, detail="") -> CheckResult:
    """deviation <= tolerance, reported as lhs against rhs 0; fails when
    the deviation is NaN or infinite."""
    dev = float(deviation)
    passed = np.isfinite(dev) and dev <= tolerance
    return CheckResult(name, "deviation", dev, 0.0, tolerance, bool(passed), detail)


def _require_mass(res: CheckResult) -> CheckResult:
    """res, failed closed when its transform side (lhs) is exactly 0: a
    fixture with no transform mass meets every bound and identity vacuously
    and proves nothing."""
    if res.lhs != 0.0:
        return res
    detail = ": ".join(filter(None, (res.detail, "no transform mass, lhs = 0")))
    return replace(res, passed=False, detail=detail)


def babenko_constant(p: float, dim: int = 1, regime: str = "sharp") -> float:
    """Sharp abelian Hausdorff-Young constant on dim-dimensional frequency space.

    sharp: (p^(1/p) / q^(1/q))^(dim/2), the Babenko-Beckner constant, attained
    by Gaussians; classical: 1, the constant from plain interpolation.
    """
    p = float(p)
    if not 1.0 < p <= 2.0:
        raise ValueError("need 1 < p <= 2")
    if regime == "classical":
        return 1.0
    if regime != "sharp":
        raise ValueError(f"unknown constant regime {regime!r}")
    q = conjugate_exponent(p)
    return float((p ** (1.0 / p) / q ** (1.0 / q)) ** (dim / 2.0))


# -- fixture catalogs --------------------------------------------------------------

DESK_GRIDS = {
    "axb": dict(n_counts=[128], n_extents=[(-8.0, 8.0)], h_count=128, h_extent=(-8.0, 8.0)),
    "heisenberg": dict(
        n_counts=[64, 64],
        n_extents=[(-12.0, 12.0), (-6.0, 6.0)],
        h_count=128,
        h_extent=(-16.0, 16.0),
    ),
}

# base envelope widths per group; the Heisenberg pair is anisotropic so the
# dual-side sampling covers the frequency support of every slice
FIXTURE_WIDTHS = {"axb": ((1.0,), 1.0), "heisenberg": ((2.0, 0.5), 1.0)}


def default_grids(group_name: str):
    return make_grids(**DESK_GRIDS[group_name])


def default_sampling_config(group_name: str):
    return DualSamplingConfig() if group_name == "heisenberg" else None


def _scaled_spec(group_name, kind, factor=1.0, center_n=None, center_h=0.0, seed=0):
    wn, wh = FIXTURE_WIDTHS[group_name]
    return TestFunctionSpec(
        kind=kind,
        center_n=center_n if center_n is not None else tuple(0.0 for _ in wn),
        center_h=center_h,
        width_n=tuple(w * factor for w in wn),
        width_h=wh * factor,
        seed=seed,
    )


def gaussian_fixtures(group_name: str, count: int):
    """Deterministic Gaussian fixture family, widths kept inside the regime
    the default grids are budgeted for."""
    dim = len(FIXTURE_WIDTHS[group_name][0])
    variations = [
        dict(factor=1.0),
        dict(factor=0.8, center_h=0.5),
        dict(factor=1.2, center_n=tuple([0.5] + [0.0] * (dim - 1))),
        dict(factor=0.9, center_h=-0.5),
        dict(factor=1.1, center_n=tuple([-0.5] + [0.0] * (dim - 1)), center_h=0.25),
    ]
    out = []
    for i in range(count):
        out.append(_scaled_spec(group_name, "gaussian", **variations[i % len(variations)]))
    return out


def random_fixtures(group_name: str, count: int, base_seed: int = 0):
    return [
        _scaled_spec(group_name, "random-bandlimited", seed=base_seed + i)
        for i in range(count)
    ]


# -- the spectral record: one pairing pass per fixture --------------------------------

# orbits per pair call, one trailing-axis GEMM per H block: on the
# once-refined Heisenberg grids (128 x 128 N points, 256 H points) a chunk
# is four contracted blocks of 2 MB, one after the other, and a table of at
# most 1448 in-band rows, 5.9 MB
_PAIR_CHUNK = 16


@dataclass(frozen=True)
class SpectralRecord:
    """Everything a transform check reads of one fixture, so that every
    check is a reduction of it: orbit weights nu; at every exponent p,
    lp[p] = ||g||_p and sq[p] the per-orbit ||k_sigma||_{S_q}^q of the
    exponent-q kernels (q = p'); and at every chain exponent, chain[p] holds
    the norm chain's per-orbit ||k||_{q,p,q}^q and ||k*||_{q,p,q}^q, its
    swapped iterated form V3 and the per-slice ratios
    ||F_N g(., t)||_q / ||g(., t)||_p over the slices of non-negligible mass,
    whose maximum the proof-chain slice bound reads and whose minimum
    gaussian-extremality reads.  Neither a pairing table nor a sample of g
    is kept: a check given a record reads only the record and the group."""

    nu: np.ndarray
    lp: dict
    sq: dict
    chain: dict


def _mirrored(g: SampledFunction, params) -> bool:
    """Whether the orbit at -sigma repeats the orbit at sigma: the
    transversal lists an even count of points as its own negation reversed,
    and g is real, read from its values."""
    symmetric = len(params) % 2 == 0 and np.array_equal(params[::-1], -params)
    return symmetric and not g.values.imag.any()


def spectral_record(
    g: SampledFunction,
    dual: DualOrbitModel,
    ps,
    config: DualSamplingConfig | None = None,
    chain=(),
) -> SpectralRecord:
    """Pair every orbit of g once and reduce its kernels at every exponent.

    The orbits are paired 16 at a time (pair_orbits), so on Heisenberg one
    GEMM per block of H columns contracts the trailing N axis for a whole
    chunk of orbits.  Besides g, the build holds one chunk's in-band
    pairing rows at a time (under a fifth of g's size on the default
    Heisenberg grids, under a tenth once refined) and one contracted block
    of at most 2 MB, released before the next chunk is paired, and then the
    one copy of g that transform_reciprocal makes; the L^p masses are summed
    in blocks (slice_lp_mass).

    When g is real and the transversal symmetric (an even count of points,
    the second half the first negated in reverse order: +-1 on ax+b, +-lambda
    on Heisenberg), only the first half of the orbits is paired, and each
    per-orbit value of the second half repeats its mirror's.  The dual action
    is linear, so the pairing table at -sigma is the conjugate of the table
    at sigma, and its kernel has the same singular values, cross norms and
    row masses; in IEEE arithmetic the orbit map negates exactly, the band
    test reads |omega|, Delta is real and conjugating the characters only
    flips signs, so the values at -sigma are those at sigma bit for bit, and
    the record is the one the full transversal gives.  A complex g pairs
    every orbit.

    The exponents of chain are added to ps.  Every record exponent is
    p <= 2, so its norm exponent is q = p' >= 2, and no record runs an SVD:
    each norm comes from the eigenvalues of the smaller Gram matrix, or from
    the entries at q = 2 (schatten_norms).  Where the modular function is 1
    on every grid point (on a unimodular group), the kernel does not depend
    on the exponent: it is built once per orbit, and with two or more
    exponents below 2 one Gram eigendecomposition per orbit serves them all.
    Elsewhere Delta^(1/q) changes the spectrum, so every exponent gets its
    own kernel and Gram matrix.  The test reads Delta on g's H grid, as the
    model record does, and the H measure of the swapped form is the H
    weights times that one Delta.  Each kernel holds only the rows of its
    orbit that stay in band, so the Gram matrix and both cross norms are
    taken from an r x n matrix; the slice mass reads the same in-band rows,
    measure[rows] @ |table|^q, and sums the orbits in transversal order,
    each with its own weight.  ||g||_p is
    taken once per exponent, and the slice ratios of every chain exponent
    read one FFT of g, taken after the last chunk of tables is released; a
    slice is dropped when its L^p mass is below 1e-9 of the largest, so a g
    with no mass has no ratios.
    """
    chain = {float(p) for p in chain}
    ps = sorted({float(p) for p in ps} | chain)
    if not ps:
        raise ValueError("need at least one exponent p, got an empty exponent list")
    if not all(1.0 < p <= 2.0 for p in ps):
        raise ValueError("need 1 < p <= 2")
    qs = [conjugate_exponent(p) for p in ps]
    h = g.h_grid
    delta = modular_on_grid(dual.group, h)
    flat = bool(np.all(delta == 1.0))
    shared_gram = flat and sum(p < 2.0 for p in ps) >= 2
    measure = h.weights() * delta
    cs = CharacterSlice(g)
    params, nu = dual.transversal(config)
    paired = params[: len(params) // 2] if _mirrored(g, params) else params
    sq = {p: [] for p in ps}
    extras = {p: ([], [], []) for p in chain}
    for start in range(0, len(paired), _PAIR_CHUNK):
        tables = pair_orbits(cs, dual, paired[start : start + _PAIR_CHUNK])
        for rows, table in tables:
            k = kernel_from_pair_table((rows, table), h, delta, 1.0 / qs[0])
            if shared_gram:
                norms = schatten_norms(weighted_operator_matrix(k), qs)
            for i, (p, q) in enumerate(zip(ps, qs)):
                if i and not flat:  # Delta^(1/q) changes the kernel
                    k = kernel_from_pair_table((rows, table), h, delta, 1.0 / q)
                norm = norms[i] if shared_gram else schatten_norm(weighted_operator_matrix(k), q)
                # numpy powers overflow to inf where a Python float raises
                sq[p].append(np.float64(norm) ** q)
                if p in chain:
                    direct, adjoint, masses = extras[p]
                    for side, norm in zip((direct, adjoint), cross_norm_qpq(k, p)):
                        side.append(np.float64(norm) ** q)
                    # dual-side q-mass of every slice
                    masses.append(measure[rows] @ np.abs(table) ** q)
        del tables, table  # the chunk and a view of it: released before the next is paired

    def every_orbit(values):  # the paired orbits, then their mirrors in transversal order
        return values + values[::-1][: len(params) - len(paired)]

    if chain:
        rgrids, transformed = cs.transform_reciprocal()
    for p, (direct, adjoint, masses) in extras.items():
        q = conjugate_exponent(p)
        slice_mass = np.zeros(h.n)
        for weight, m in zip(nu, every_orbit(masses)):  # row s contributing its orbit weight
            slice_mass += weight * m
        v3 = float((measure @ slice_mass ** (p / q)) ** (q / p))  # the swapped iterated form
        num = slice_lp_mass(transformed, rgrids, q) ** (1 / q)
        den = slice_lp_mass(g.values, g.n_grids, p) ** (1 / p)
        keep = den > 1e-9 * den.max()
        direct, adjoint = np.array(every_orbit(direct)), np.array(every_orbit(adjoint))
        extras[p] = (direct, adjoint, v3, num[keep] / den[keep])
    return SpectralRecord(
        np.asarray(nu),
        {p: lp_norm_G(g, p) for p in ps},
        {p: np.array(every_orbit(v)) for p, v in sq.items()},
        extras,
    )


def _orbit_sum(record: SpectralRecord, p: float) -> float:
    """sum_sigma nu(sigma) ||k_sigma||_{S_q}^q, the q-th power of the
    direct-integral norm; every check of that norm reads it from here."""
    return float(record.nu @ record.sq[p])


# -- the two headline identities ----------------------------------------------------


def check_plancherel(
    g: SampledFunction,
    dual: DualOrbitModel,
    config: DualSamplingConfig | None = None,
    record: SpectralRecord | None = None,
) -> CheckResult:
    """Plancherel identity for the operator-valued transform: the
    direct-integral squared norm sum_orbits nu ||M K^(1/2)||_S2^2 equals
    ||g||_2^2, slack 1e-2 relative (2e-2 for a two-dimensional normal
    subgroup).

    The slack is quadrature-limited at desk grids.  This is the
    Hausdorff-Young check at p = 2, squared: A_2 = 1, so its right side is
    ||g||_2.  A transform side of exactly 0 fails: a fixture with no
    transform mass proves nothing.
    """
    tolerance = TOLERANCES["equality"] if dual.group.dim_N == 1 else 2 * TOLERANCES["equality"]
    (hy,) = hausdorff_young_margins(g, dual, (2.0,), config=config, record=record)
    res = equality_result("plancherel", hy.lhs**2, hy.rhs**2, tolerance, detail=dual.group.name)
    return _require_mass(res)


def hausdorff_young_margins(
    g: SampledFunction,
    dual: DualOrbitModel,
    ps,
    constants: str = "sharp",
    config: DualSamplingConfig | None = None,
    record: SpectralRecord | None = None,
) -> list:
    """Sharp Hausdorff-Young bound for each p in ps, 1 < p <= 2: the
    direct-integral Schatten q-norm of the exponent-q transform, q = p/(p-1),
    is at most A_p^dim ||g||_p, slack 1e-6 below p = 2.

    A_p = (p^(1/p)/q^(1/q))^(1/2) is the Babenko-Beckner constant per
    frequency dimension (1 in the classical regime).  lhs is
    (sum_sigma nu ||k_sigma||_{S_q}^q)^(1/q) over the exponent-q transform
    kernels and rhs reads ||g||_p, both from the spectral record of g (built
    here at ps when none is given).  For p < 2 the sharp bound carries real
    margin on generic fixtures.  At p = 2 the bound saturates (it is the
    Plancherel identity), so the slack widens to the quadrature tolerance, 1e-2.
    An lhs of exactly 0 fails: a fixture with no transform mass proves nothing.
    """
    ps = [float(p) for p in ps]
    if record is None:
        record = spectral_record(g, dual, ps, config)  # rejects p outside (1, 2]
    return [_hausdorff_young(record, dual.group, p, constants) for p in ps]


def _hausdorff_young(record: SpectralRecord, model: GroupExtensionModel, p, constants):
    """The Hausdorff-Young result at p, whose lhs nilpotent-bound shares."""
    lhs = _orbit_sum(record, p) ** (1.0 / conjugate_exponent(p))
    rhs = babenko_constant(p, model.dim_N, constants) * record.lp[p]
    tol = TOLERANCES["bound"] if p < 2.0 else TOLERANCES["quadrature"]
    detail = f"{model.name} p={p:g} {constants}"
    return _require_mass(inequality_result("hausdorff-young", lhs, rhs, tol, detail))


# -- the norm chain ------------------------------------------------------------------


def check_proof_chain(
    record: SpectralRecord, group: GroupExtensionModel, p: float, constants: str = "sharp"
) -> list:
    """Every majorization between the direct-integral norm and the abelian
    bound, slack 1e-10 on the links exact on the grid and 1e-2 on the one
    link that crosses to the continuum.

    With M = the exponent-q transform kernels and q = p', the chain is

        V0 = sum nu ||M||_Sq^q            direct-integral norm, q-th power
        V1 = sum nu sqrt(c c*)            per-orbit kernel averaging bound
        V2 = sqrt(sum nu c  sum nu c*)    Cauchy-Schwarz over the transversal
        V3 = swapped iterated form        generalized Minkowski + exact index
                                          substitution on the quotient lattice
        V4 = (A_p ||g||_p)^q              per-slice abelian Hausdorff-Young

    V0 <= V1 <= V2 <= V3 holds exactly on the grid (the substitution only
    drops nonnegative terms), so those links, the averaging bound at the
    worst orbit and sum nu c, sum nu c* <= V3 get slack 1e-10.  V3 <= V4 crosses from the
    grid to the continuum once, so it gets the quadrature slack 1e-2.  The
    brute-force per-slice bound behind that link gets 1e-6; it fails when
    every slice has negligible mass (its ratio is then NaN).  At p = 2 every
    link of the V chain collapses to an equality, added at 1e-2 relative.
    When V0 is exactly 0 the fixture has no transform mass, and every result
    with an lhs of 0 fails (the rule of _require_mass, keyed on V0 rather
    than on each lhs, since one orbit's lhs may be 0 while V0 is not).

    The results carry every V: averaging reports V0 <= V1, cauchy-schwarz
    V1 <= V2, minkowski-swap V2 <= V3 and slice-hausdorff-young V3 <= V4.
    All of them, and the slice ratios of the slice bound, reduce the
    spectral record of g, which must carry p in its chain.
    """
    p = float(p)
    q = conjugate_exponent(p)
    lin, quad, eq = TOLERANCES["linalg"], TOLERANCES["quadrature"], TOLERANCES["equality"]
    bound = babenko_constant(p, group.dim_N, constants)
    nu, sq = record.nu, record.sq[p]
    direct, adjoint, v3, ratios = record.chain[p]
    c_direct, c_adjoint = float(nu @ direct), float(nu @ adjoint)
    geo = np.sqrt(direct * adjoint)  # sqrt(c c*) per orbit
    v0 = _orbit_sum(record, p)
    v1 = float(nu @ geo)
    v2 = float(np.sqrt(c_direct * c_adjoint))
    v4 = float(np.float64(bound * record.lp[p]) ** q)

    # the per-orbit averaging bound, reported at the worst orbit
    worst = int(np.argmax(sq - geo * (1 + lin)))
    detail = f"worst of {len(sq)} orbits"
    results = [inequality_result("proof-chain:orbit-averaging", sq[worst], geo[worst], lin, detail)]

    links = (
        ("averaging", v0, v1, lin),
        ("cauchy-schwarz", v1, v2, lin),
        ("minkowski-direct", c_direct, v3, lin),
        ("minkowski-adjoint", c_adjoint, v3, lin),
        ("minkowski-swap", v2, v3, lin),
        ("slice-hausdorff-young", v3, v4, quad),
    )
    for label, a, b, tol in links:
        results.append(inequality_result(f"proof-chain:{label}", a, b, tol))

    # brute-force slice-level bound backing the last link
    results.append(
        inequality_result(
            "proof-chain:slice-bound",
            float(ratios.max()) if ratios.size else np.nan,
            bound,
            TOLERANCES["bound"],
            detail=f"{ratios.size} slices",
        )
    )

    if p == 2.0:  # every link of the V chain collapses to an equality
        for label, a, b, _ in links[:2] + links[4:]:  # not the two c <= V3 links
            results.append(equality_result(f"proof-chain:equal-at-two:{label}", a, b, eq))
    if v0 == 0.0:  # no transform mass: the whole chain holds vacuously
        results = [_require_mass(r) for r in results]
    return results


# -- structural facts ----------------------------------------------------------------


def check_semi_invariance(
    model: GroupExtensionModel,
    sigma0,
    x: GroupElement,
    h_grid: Grid1D,
) -> CheckResult:
    """The representation conjugates the formal-dimension operator K into a
    scalar multiple of itself, rep(x) K rep(x)* = K / Delta(x); slack 1e-10.

    Both sides are built as matrices on the quotient grid and compared
    entrywise on the window the shift keeps on the grid.  Reports the
    max-entry deviation relative to the largest entry (the diagonal grows
    like the modular function)."""
    a = induced_rep_matrix(model, sigma0, x, h_grid)
    kvals = modular_on_grid(model, h_grid)  # the formal dimension operator K
    lhs = (a * kvals[None, :]) @ a.conj().T
    rhs = np.diag(kvals / model.modular(x))
    si = int(round(x.h / h_grid.spacing))
    idx = np.arange(h_grid.n)
    window = idx[(idx - si >= 0) & (idx - si < h_grid.n)]
    sub = np.ix_(window, window)
    scale = max(1.0, float(np.abs(rhs[sub]).max()))
    dev = float(np.abs(lhs[sub] - rhs[sub]).max()) / scale
    detail = f"{model.name} shift={si} window={window.size}"
    return deviation_result("semi-invariance", dev, TOLERANCES["linalg"], detail)


def semi_invariance_suite(dual: DualOrbitModel, h_grid, count: int, seed: int) -> list:
    """check_semi_invariance at count seeded shifts x of H-grid steps, each at
    a point sigma0 drawn from the dual's default transversal: the identity
    holds at every sigma0, so the suite takes no sampling config."""
    model = dual.group
    params, _ = dual.transversal(None)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        si = int(rng.integers(-h_grid.n // 4, h_grid.n // 4 + 1))
        n = rng.uniform(-2.0, 2.0, model.dim_N)
        x = GroupElement(n, si * h_grid.spacing)
        sigma0 = params[int(rng.integers(len(params)))]
        out.append(check_semi_invariance(model, sigma0, x, h_grid))
    return out


def check_dual_measure_scaling(model: GroupExtensionModel, t, box_lo, box_hi) -> CheckResult:
    """The quotient group acts on the frequency space of the normal subgroup,
    and the image of a box under t scales its Lebesgue measure by exactly the
    modular function at t; slack 1e-12 relative.

    The action is linear, so the image of the box is the parallelepiped
    spanned by the images of its edges: its measure is |det E|, where column
    j of E is the dual action of t on (hi_j - lo_j) e_j, in any dimension of
    the normal subgroup.  The reference is the modular function at t times
    the box's measure; the two must agree to roundoff.
    """
    box_lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
    box_hi = np.atleast_1d(np.asarray(box_hi, dtype=float))
    if box_lo.shape != (model.dim_N,) or np.any(box_hi <= box_lo):
        raise ValueError("need a nondegenerate box matching dim_N")
    image = abs(np.linalg.det(model.dual_action(t, np.diag(box_hi - box_lo))))
    reference = model.modular_on_H(t) * float(np.prod(box_hi - box_lo))
    return equality_result(
        "dual-measure-scaling", image, reference, TOLERANCES["measure"], detail=model.name
    )


def dual_measure_suite(model: GroupExtensionModel, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    out = [check_dual_measure_scaling(model, 0.0, -np.ones(model.dim_N), np.ones(model.dim_N))]
    for _ in range(count - 1):
        t = rng.uniform(-3.0, 3.0)
        lo = rng.uniform(-3.0, 3.0, model.dim_N)
        hi = lo + rng.uniform(0.1, 3.0, model.dim_N)
        out.append(check_dual_measure_scaling(model, t, lo, hi))
    return out


# -- synthetic-kernel inequalities ----------------------------------------------------


# trials per block of the random kernel suites: a block bounds the draws
# held at once, each trial being judged on its own
_TRIAL_BLOCK = 128


def check_russo_fournier(kernel: WeightedKernel, p: float) -> CheckResult:
    lhs, rhs = russo_gaps([kernel], [p])[0]
    return inequality_result("russo-fournier", lhs, rhs, TOLERANCES["linalg"])


def _random_suite(name: str, count: int, seed: int, draw, judge) -> CheckResult:
    """Worst lhs/rhs ratio and violation count over count random inequality
    checks.  draw(rng) draws one trial's arguments, and judge, given each
    argument as a list over a block of _TRIAL_BLOCK trials, returns their
    (lhs, rhs) in order; the draws keep their order.  The first trial with a
    NaN side is the worst, as in the run summary, and stays the worst;
    ratios are compared without dividing by an rhs."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = (0.0, 1.0)
    for start in range(0, count, _TRIAL_BLOCK):
        trials = (draw(rng) for _ in range(min(_TRIAL_BLOCK, count - start)))
        for lhs, rhs in judge(*map(list, zip(*trials))):  # the draws are released on return
            violations += not _holds(lhs, rhs, TOLERANCES["linalg"])
            settled = math.isnan(sum(worst))  # a NaN trial, which stays the worst
            if not settled and (math.isnan(lhs + rhs) or lhs * worst[1] > worst[0] * rhs):
                worst = (lhs, rhs)
    detail = f"{count} kernels, {violations} violations"
    return CheckResult(name, "inequality", *worst, TOLERANCES["linalg"], violations == 0, detail)


def _russo_draw(rng):
    nx, ng = int(rng.integers(2, 25)), int(rng.integers(2, 25))
    parts = rng.standard_normal((2, nx, ng))  # real, then imaginary
    weights = rng.uniform(0.05, 2.0, nx + ng)  # xi, then gamma
    return (parts[0] + 1j * parts[1], weights[:nx], weights[nx:]), float(rng.uniform(1.05, 2.0))


def russo_fournier_random_suite(count: int, seed: int) -> CheckResult:
    """Russo and Fournier's kernel bound, slack 1e-10: for an integral kernel
    k on a product measure space and conjugate exponents 1/p + 1/q = 1 with
    p <= 2, the Schatten q-norm of the associated operator is at most the
    geometric mean of the mixed (q, p) iterated norms of k and of its adjoint.

    Exact on the grid.  Checked on count random weighted complex kernels at
    random exponents; one result carries the worst lhs/rhs ratio (a trial
    with a NaN side is the worst) and the number of violations."""
    return _random_suite("russo-fournier-random-suite", count, seed, _russo_draw, russo_gaps)


def _minkowski_sides(kernels, ps, qs) -> list:
    """(swapped, dominant) of check_minkowski for each nonnegative kernel
    (values, xi_weights, gamma_weights) at its (p, q), unvalidated."""
    return [
        (
            float(((f**p * wx[:, None]).sum(axis=0) ** (q / p) @ wg) ** (1.0 / q)),
            float(((f**q * wg[None, :]).sum(axis=1) ** (p / q) @ wx) ** (1.0 / p)),
        )
        for (f, wx, wg), p, q in zip(kernels, ps, qs)
    ]


def check_minkowski(values, xi_weights, gamma_weights, p: float, q: float) -> CheckResult:
    """Swapped iterated norms of a nonnegative kernel: the form with the
    small exponent outside dominates (generalized Minkowski, q/p >= 1)."""
    p, q = float(p), float(q)
    if not q / p > 1.0:
        raise ValueError("need q/p > 1")
    f = np.asarray(values, dtype=float)
    if np.any(f < 0):
        raise ValueError("kernel must be nonnegative")
    _, wx, wg = WeightedKernel(f, xi_weights, gamma_weights)  # rejects bad weight lengths and signs
    (sides,) = _minkowski_sides([(f, wx, wg)], [p], [q])  # f stays real, and so do its powers
    return inequality_result("minkowski-swap", *sides, TOLERANCES["linalg"])


def _minkowski_draw(rng):
    nx, ng = int(rng.integers(1, 25)), int(rng.integers(1, 25))
    f = np.abs(rng.standard_normal((nx, ng)))
    weights = rng.uniform(0.05, 2.0, nx + ng)  # xi, then gamma
    p = float(rng.uniform(1.05, 1.95))
    return (f, weights[:nx], weights[nx:]), p, conjugate_exponent(p)


def minkowski_random_suite(count: int, seed: int) -> CheckResult:
    """Generalized Minkowski inequality for iterated weighted norms with
    q/p >= 1, slack 1e-10: putting the larger exponent inside,

      ( sum_b w_b ( sum_a w_a F(a,b)^p )^(q/p) )^(1/q)
        <= ( sum_a w_a ( sum_b w_b F(a,b)^q )^(p/q) )^(1/p).

    Checked on count random nonnegative kernels with q = p'; one result
    carries the worst lhs/rhs ratio and the number of violations."""
    return _random_suite("minkowski-random-suite", count, seed, _minkowski_draw, _minkowski_sides)


# -- instance-specific bounds ---------------------------------------------------------


def check_nilpotent_bound(
    record: SpectralRecord, group: GroupExtensionModel, p: float
) -> CheckResult:
    """Two-step nilpotent bound on the Heisenberg instance: the transform
    norm is at most A_p^(3 - 2/2) ||g||_p = A_p^2 ||g||_p, slack 1e-6 below
    p = 2.

    The exponent is hard-coded: the group is three-dimensional and its
    generic dual orbits are two-dimensional, so the bound carries the
    one-dimensional sharp constant to the power 3 - 2/2 = 2, and that is
    how it is computed here.  It equals the abelian constant of the
    two-dimensional normal subgroup.  lhs and the slack are those of
    hausdorff_young_margins at p, and rhs reads ||g||_p, all from the
    spectral record of g, which must carry p.  An lhs of exactly 0 fails, as
    there.
    """
    if group.name != "heisenberg":
        raise ValueError("the nilpotent bound check is specific to the Heisenberg instance")
    p = float(p)
    constant = babenko_constant(p, 1) ** 2
    hy = _hausdorff_young(record, group, p, "sharp")
    rhs = constant * record.lp[p]
    res = inequality_result("nilpotent-bound", hy.lhs, rhs, hy.tolerance, detail=f"p={p:g}")
    return _require_mass(res)


def schatten_property_suite(count: int, size: int, seed: int) -> CheckResult:
    """Property battery for the Schatten norms ||A||_p = (sum s_k(A)^p)^(1/p)
    over singular values, slack 1e-10: ||A||_S4^2 = ||AA*||_S2 (singular
    values against the Frobenius formula used at p = 2), monotone decrease
    in p, unitary invariance, and the triangle inequality, each on count
    random complex size x size matrices.  Each matrix is one deviation
    verdict on its largest deviation, failed when that is NaN; one result
    carries the largest and the number of failed matrices."""
    rng = np.random.default_rng(seed)
    tol = TOLERANCES["linalg"]
    verdicts = []
    exponents = (1.0, 1.3, 1.7, 2.0, 3.5, 4.0, np.inf)
    for _ in range(count):
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        b = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        norms = dict(zip(exponents, schatten_norms(a, exponents)))  # one SVD of a
        s4_squared = norms[4.0] ** 2
        devs = [abs(schatten_norm(a @ a.conj().T, 2) - s4_squared) / s4_squared]
        ladder = list(norms.values())  # nonincreasing in the exponent
        devs += [lo / hi - 1.0 for lo, hi in zip(ladder[1:], ladder)]
        u = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))[0]
        for p, rotated in zip((1.7, np.inf), schatten_norms(u @ a @ u.conj().T, (1.7, np.inf))):
            devs.append(abs(rotated - norms[p]) / norms[p])
        devs.append(schatten_norm(a + b, 1.3) / (norms[1.3] + schatten_norm(b, 1.3)) - 1.0)
        # np.maximum and np.max carry a NaN deviation through to a failed verdict
        verdicts.append(deviation_result("schatten-suite", np.max(np.maximum(devs, 0.0)), tol))
    violations = sum(not r.passed for r in verdicts)
    detail = f"{count} matrices ({size}x{size}), {violations} violations"
    return deviation_result("schatten-suite", np.max([r.lhs for r in verdicts]), tol, detail)


def check_gaussian_extremality(
    record: SpectralRecord, group: GroupExtensionModel, p: float
) -> CheckResult:
    """Gaussians saturate the abelian Babenko-Beckner inequality, so each
    slice of the Gaussian g must realize at least 0.99 of the sharp constant
    A_p^dim, with no further slack.

    The slice ratios are those of the spectral record of g, which must carry
    p in its chain: the check reads their minimum, where the proof-chain
    slice bound reads their maximum.  The ratios read only g, never the dual
    transversal.  Slices of negligible mass are dropped; when every slice
    is, the ratio is NaN and the check fails."""
    *_, ratios = record.chain[p]
    bound = 0.99 * babenko_constant(p, group.dim_N)
    rhs = float(ratios.min()) if ratios.size else np.nan
    detail = f"{group.name} p={p:g} {ratios.size} slices"
    return inequality_result("gaussian-extremality", bound, rhs, 0.0, detail)
