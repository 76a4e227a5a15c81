"""Verification checks: equalities, sharp bounds, and the full norm chain.

Three kinds of assertion, three kinds of slack:

* exact discrete facts (matrix inequalities on atomic measure spaces, affine
  measure scalings, semi-invariance): hold to roundoff; slack 1e-10 / 1e-12;
* margin-backed bounds (the sharp Hausdorff-Young inequality on generic
  fixtures): the theorem supplies real margin; slack 1e-6;
* quadrature-mediated comparisons (any grid sum standing in for a continuum
  integral): slack 1e-2 relative at the desk-scale default grids, sized from
  measured refinement behavior (errors land near 5e-3 on the defaults and
  shrink about 25x under one balanced refinement).

The docstring of the check behind each ``hyw run`` family states what that
family asserts and at which default slack; ``hyw explain`` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    adjoint_kernel,
    conjugate_exponent,
    cross_norm_qpq,
    russo_gap,
    schatten_norm,
    schatten_norms,
    weighted_operator_matrix,
)
from .transform import CharacterSlice, induced_rep_matrix, kernel_from_pair_table, pair_rows

__all__ = [
    "TOLERANCES",
    "CheckResult",
    "inequality_result",
    "equality_result",
    "babenko_constant",
    "default_grids",
    "default_sampling_config",
    "gaussian_fixtures",
    "random_fixtures",
    "check_plancherel",
    "hausdorff_young_margins",
    "spectral_record",
    "proof_chain_quantities",
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
    "slice_ratios",
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


def inequality_result(name, lhs, rhs, tolerance, detail="") -> CheckResult:
    """lhs <= rhs up to relative slack; absolute slack when rhs vanishes.

    Fails when either side is NaN or infinite.
    """
    lhs, rhs = float(lhs), float(rhs)
    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        passed = False
    elif rhs > 1e-300:
        passed = lhs <= rhs * (1.0 + tolerance)
    else:
        passed = lhs <= tolerance
    return CheckResult(name, "inequality", lhs, rhs, tolerance, bool(passed), detail)


def equality_result(name, lhs, rhs, tolerance, detail="") -> CheckResult:
    """lhs == rhs up to relative slack; fails when either side is NaN or infinite."""
    lhs, rhs = float(lhs), float(rhs)
    scale = max(abs(lhs), abs(rhs))
    finite = np.isfinite(lhs) and np.isfinite(rhs)
    passed = finite and (scale == 0 or abs(lhs - rhs) <= tolerance * scale)
    return CheckResult(name, "equality", lhs, rhs, tolerance, bool(passed), detail)


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


@dataclass(frozen=True)
class SpectralRecord:
    """Per-orbit reductions of one fixture: orbit weights nu, sq[p] the
    ||k_sigma||_{S_q}^q of the exponent-q kernels (q = p'), and chain[p] the
    norm chain's per-orbit ||k||_{q,p,q}^q, ||k*||_{q,p,q}^q and per-slice
    dual-side q-mass.  No pairing table is kept."""

    nu: np.ndarray
    sq: dict
    chain: dict


def spectral_record(
    g: SampledFunction,
    dual: DualOrbitModel,
    ps,
    config: DualSamplingConfig | None = None,
    chain=(),
) -> SpectralRecord:
    """Pair every orbit of g once and reduce its kernels at every exponent.

    The exponents of chain are added to ps.  Where the modular function is
    1 on every grid point (on a unimodular group), the kernel does not depend
    on the exponent: it is built once per orbit, and with two or more
    exponents below 2 one SVD per orbit serves them all.  Elsewhere
    Delta^(1/q) changes the spectrum, so every exponent gets its own kernel
    and SVD.  The test reads Delta itself, not the model's unimodular flag.
    """
    chain = {float(p) for p in chain}
    ps = sorted({float(p) for p in ps} | chain)
    if not all(1.0 < p <= 2.0 for p in ps):
        raise ValueError("need 1 < p <= 2")
    qs = [conjugate_exponent(p) for p in ps]
    h = g.h_grid
    delta = modular_on_grid(dual.group, h)
    flat = bool(np.all(delta == 1.0))
    shared_svd = flat and sum(p < 2.0 for p in ps) >= 2
    measure = g.h_measure()
    cs = CharacterSlice(g)
    params, nu = dual.transversal(config)
    sq = {p: [] for p in ps}
    extras = {p: ([], [], np.zeros(h.n)) for p in chain}
    for sigma0, weight in zip(params, nu):
        table = pair_rows(cs, dual, sigma0)[1]
        k = kernel_from_pair_table(table, h, delta, 1.0 / qs[0])
        if shared_svd:
            norms = schatten_norms(weighted_operator_matrix(k), qs)
        for i, (p, q) in enumerate(zip(ps, qs)):
            if i and not flat:  # Delta^(1/q) changes the kernel
                k = kernel_from_pair_table(table, h, delta, 1.0 / q)
            norm = norms[i] if shared_svd else schatten_norm(weighted_operator_matrix(k), q)
            # numpy powers overflow to inf where a Python float raises
            sq[p].append(np.float64(norm) ** q)
            if p in chain:
                direct, adjoint, slice_mass = extras[p]
                direct.append(np.float64(cross_norm_qpq(k, q, p)) ** q)
                adjoint.append(np.float64(cross_norm_qpq(adjoint_kernel(k), q, p)) ** q)
                # dual-side q-mass of every slice, row s contributing its orbit weight
                slice_mass += weight * (measure @ np.abs(table) ** q)
    return SpectralRecord(
        np.asarray(nu),
        {p: np.array(v) for p, v in sq.items()},
        {p: (np.array(d), np.array(a), m) for p, (d, a, m) in extras.items()},
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
    ||g||_2.
    """
    tolerance = TOLERANCES["equality"] if g.dim_N == 1 else 2 * TOLERANCES["equality"]
    (hy,) = hausdorff_young_margins(g, dual, (2.0,), config=config, record=record)
    return equality_result("plancherel", hy.lhs**2, hy.rhs**2, tolerance, detail=dual.group.name)


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
    kernels, reduced from the spectral record of g (built here at ps when
    none is given).  For p < 2 the sharp bound carries real margin on
    generic fixtures.  At p = 2 the bound saturates (it is the Plancherel
    identity), so the slack widens to the quadrature tolerance, 1e-2.
    """
    model = dual.group
    ps = [float(p) for p in ps]
    if record is None:
        record = spectral_record(g, dual, ps, config)  # rejects p outside (1, 2]
    out = []
    for p in ps:
        lhs = _orbit_sum(record, p) ** (1.0 / conjugate_exponent(p))
        rhs = babenko_constant(p, model.dim_N, constants) * lp_norm_G(g, p)
        tol = TOLERANCES["bound"] if p < 2.0 else TOLERANCES["quadrature"]
        detail = f"{model.name} p={p:g} {constants}"
        out.append(inequality_result("hausdorff-young", lhs, rhs, tol, detail=detail))
    return out


# -- the norm chain ------------------------------------------------------------------


def proof_chain_quantities(
    g: SampledFunction,
    dual: DualOrbitModel,
    p: float,
    constants: str = "sharp",
    config: DualSamplingConfig | None = None,
    record: SpectralRecord | None = None,
) -> dict:
    """All intermediate chain values for one function; see check_proof_chain.

    They reduce the spectral record of g, which must carry p in its chain;
    one is built here when none is given.
    """
    model = dual.group
    p = float(p)
    if record is None:
        record = spectral_record(g, dual, (p,), config, chain=(p,))  # rejects p outside (1, 2]
    q = conjugate_exponent(p)
    measure = g.h_measure()
    nu, sq = record.nu, record.sq[p]
    c_direct, c_adjoint, slice_mass = record.chain[p]

    v0 = _orbit_sum(record, p)
    v1 = float(nu @ np.sqrt(c_direct * c_adjoint))
    big_c1 = float(nu @ c_direct)
    big_c2 = float(nu @ c_adjoint)
    v2 = float(np.sqrt(big_c1 * big_c2))
    v3 = float((measure @ slice_mass ** (p / q)) ** (q / p))
    v4 = float(np.float64(babenko_constant(p, model.dim_N, constants) * lp_norm_G(g, p)) ** q)
    return {
        "p": p,
        "q": q,
        "v0": v0,
        "v1": v1,
        "v2": v2,
        "v3": v3,
        "v4": v4,
        "c_direct": big_c1,
        "c_adjoint": big_c2,
        "per_orbit_sq": sq,
        "per_orbit_direct": c_direct,
        "per_orbit_adjoint": c_adjoint,
    }


def slice_ratios(g: SampledFunction, p: float):
    """Per-slice transform-to-function norm ratios over the reciprocal grid.

    Returns (ratios, slice indices kept); slices with negligible mass are
    dropped to keep the ratios meaningful.
    """
    q = conjugate_exponent(p)
    cs = CharacterSlice(g)
    rgrids, vals = cs.transform_reciprocal()
    num = slice_lp_mass(vals, rgrids, q) ** (1 / q)
    den = slice_lp_mass(g.values, g.n_grids, p) ** (1 / p)
    keep = np.nonzero(den > 1e-9 * den.max())[0]
    return num[keep] / den[keep], keep


def check_proof_chain(
    g: SampledFunction,
    dual: DualOrbitModel,
    p: float,
    constants: str = "sharp",
    config: DualSamplingConfig | None = None,
    record: SpectralRecord | None = None,
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
    brute-force per-slice bound behind that link gets 1e-6.  At p = 2 every
    link of the V chain collapses to an equality, added at 1e-2 relative.
    """
    vals = proof_chain_quantities(g, dual, p, constants, config, record)
    lin, quad, eq = TOLERANCES["linalg"], TOLERANCES["quadrature"], TOLERANCES["equality"]

    # per-orbit averaging bound, reported at the worst orbit
    rf_lhs = vals["per_orbit_sq"]
    rf_rhs = np.sqrt(vals["per_orbit_direct"] * vals["per_orbit_adjoint"])
    worst = int(np.argmax(rf_lhs - rf_rhs * (1 + lin)))
    detail = f"worst of {len(rf_lhs)} orbits"
    results = [
        inequality_result("proof-chain:orbit-averaging", rf_lhs[worst], rf_rhs[worst], lin, detail)
    ]

    links = (
        ("averaging", "v0", "v1", lin),
        ("cauchy-schwarz", "v1", "v2", lin),
        ("minkowski-direct", "c_direct", "v3", lin),
        ("minkowski-adjoint", "c_adjoint", "v3", lin),
        ("minkowski-swap", "v2", "v3", lin),
        ("slice-hausdorff-young", "v3", "v4", quad),
    )
    for label, a, b, tol in links:
        results.append(inequality_result(f"proof-chain:{label}", vals[a], vals[b], tol))

    # brute-force slice-level bound backing the last link
    ratios, _ = slice_ratios(g, p)
    bound = babenko_constant(p, g.dim_N, constants)
    results.append(
        inequality_result(
            "proof-chain:slice-bound",
            float(ratios.max()),
            bound,
            TOLERANCES["bound"],
            detail=f"{ratios.size} slices",
        )
    )

    if vals["p"] == 2.0:  # every link of the V chain collapses to an equality
        for label, a, b, _ in links:
            if a.startswith("v"):
                results.append(
                    equality_result(f"proof-chain:equal-at-two:{label}", vals[a], vals[b], eq)
                )
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
    si = int(round(model.h_coordinate(x.h) / h_grid.spacing))
    idx = np.arange(h_grid.n)
    window = idx[(idx - si >= 0) & (idx - si < h_grid.n)]
    sub = np.ix_(window, window)
    scale = max(1.0, float(np.abs(rhs[sub]).max()))
    dev = float(np.abs(lhs[sub] - rhs[sub]).max()) / scale
    return CheckResult(
        "semi-invariance",
        "deviation",
        dev,
        0.0,
        TOLERANCES["linalg"],
        dev <= TOLERANCES["linalg"],
        detail=f"{model.name} shift={si} window={window.size}",
    )


def semi_invariance_suite(dual: DualOrbitModel, config, h_grid, count: int, seed: int) -> list:
    model = dual.group
    params, _ = dual.transversal(config)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        si = int(rng.integers(-h_grid.n // 4, h_grid.n // 4 + 1))
        n = rng.uniform(-2.0, 2.0, model.dim_N)
        x = GroupElement(n, model.h_parametrization(si * h_grid.spacing))
        sigma0 = params[int(rng.integers(len(params)))]
        out.append(check_semi_invariance(model, sigma0, x, h_grid))
    return out


def check_dual_measure_scaling(model: GroupExtensionModel, h, box_lo, box_hi) -> CheckResult:
    """The quotient group acts on the frequency space of the normal subgroup,
    and the image of a box under h scales its Lebesgue measure by exactly the
    modular function of h; slack 1e-12 relative.

    The image measure is computed geometrically from the transformed corners
    (interval length in one dimension, shoelace area in two), the reference
    from the box alone; the two must agree to roundoff for affine actions.
    """
    box_lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
    box_hi = np.atleast_1d(np.asarray(box_hi, dtype=float))
    if box_lo.shape != (model.dim_N,) or np.any(box_hi <= box_lo):
        raise ValueError("need a nondegenerate box matching dim_N")
    if model.dim_N == 1:
        a = model.dual_action(h, box_lo)[0]
        b = model.dual_action(h, box_hi)[0]
        image = abs(b - a)
    elif model.dim_N == 2:
        corners = [
            np.array([box_lo[0], box_lo[1]]),
            np.array([box_hi[0], box_lo[1]]),
            np.array([box_hi[0], box_hi[1]]),
            np.array([box_lo[0], box_hi[1]]),
        ]
        pts = [model.dual_action(h, c) for c in corners]
        image = 0.0
        for i in range(4):
            x0, y0 = pts[i]
            x1, y1 = pts[(i + 1) % 4]
            image += x0 * y1 - x1 * y0
        image = abs(image) / 2.0
    else:
        raise NotImplementedError("boxes in more than two dual dimensions")
    reference = model.modular_on_H(h) * float(np.prod(box_hi - box_lo))
    return equality_result(
        "dual-measure-scaling", image, reference, TOLERANCES["measure"], detail=model.name
    )


def dual_measure_suite(model: GroupExtensionModel, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    out = [
        check_dual_measure_scaling(
            model, model.h_identity, -np.ones(model.dim_N), np.ones(model.dim_N)
        )
    ]
    for _ in range(count - 1):
        h = model.h_parametrization(rng.uniform(-3.0, 3.0))
        lo = rng.uniform(-3.0, 3.0, model.dim_N)
        hi = lo + rng.uniform(0.1, 3.0, model.dim_N)
        out.append(check_dual_measure_scaling(model, h, lo, hi))
    return out


# -- synthetic-kernel inequalities ----------------------------------------------------


def check_russo_fournier(kernel: WeightedKernel, p: float) -> CheckResult:
    q = conjugate_exponent(p)
    lhs, rhs = russo_gap(kernel, q, p)
    return inequality_result("russo-fournier", lhs, rhs, TOLERANCES["linalg"])


def _random_suite(name: str, count: int, seed: int, trial) -> CheckResult:
    """Worst lhs/rhs ratio and violation count over count random inequality
    checks; trial(rng) draws one check and returns its (lhs, rhs)."""
    rng = np.random.default_rng(seed)
    tol = TOLERANCES["linalg"]
    violations = 0
    worst = (0.0, 1.0)
    for _ in range(count):
        lhs, rhs = trial(rng)
        if not inequality_result(name, lhs, rhs, tol).passed:
            violations += 1
        if lhs * worst[1] > worst[0] * rhs:  # larger lhs/rhs ratio
            worst = (lhs, rhs)
    detail = f"{count} kernels, {violations} violations"
    return CheckResult(name, "inequality", *worst, tol, violations == 0, detail)


def _russo_trial(rng):
    nx, ng = int(rng.integers(2, 25)), int(rng.integers(2, 25))
    vals = rng.standard_normal((nx, ng)) + 1j * rng.standard_normal((nx, ng))
    k = WeightedKernel(vals, rng.uniform(0.05, 2.0, nx), rng.uniform(0.05, 2.0, ng))
    p = float(rng.uniform(1.05, 2.0))
    return russo_gap(k, conjugate_exponent(p), p)


def russo_fournier_random_suite(count: int, seed: int) -> CheckResult:
    """Russo and Fournier's kernel bound, slack 1e-10: for an integral kernel
    k on a product measure space and conjugate exponents 1/p + 1/q = 1 with
    p <= 2, the Schatten q-norm of the associated operator is at most the
    geometric mean of the mixed (q, p) iterated norms of k and of its adjoint.

    Exact on the grid.  Checked on count random weighted complex kernels at
    random exponents; one result carries the worst lhs/rhs ratio and the
    number of violations."""
    return _random_suite("russo-fournier-random-suite", count, seed, _russo_trial)


def check_minkowski(values, xi_weights, gamma_weights, p: float, q: float) -> CheckResult:
    """Swapped iterated norms of a nonnegative kernel: the form with the
    small exponent outside dominates (generalized Minkowski, q/p >= 1)."""
    p, q = float(p), float(q)
    if not q / p > 1.0:
        raise ValueError("need q/p > 1")
    f = np.asarray(values, dtype=float)
    if np.any(f < 0):
        raise ValueError("kernel must be nonnegative")
    wx = np.asarray(xi_weights, dtype=float)
    wg = np.asarray(gamma_weights, dtype=float)
    swapped = float(((f**p * wx[:, None]).sum(axis=0) ** (q / p) @ wg) ** (1.0 / q))
    dominant = float(((f**q * wg[None, :]).sum(axis=1) ** (p / q) @ wx) ** (1.0 / p))
    return inequality_result("minkowski-swap", swapped, dominant, TOLERANCES["linalg"])


def _minkowski_trial(rng):
    nx, ng = int(rng.integers(1, 25)), int(rng.integers(1, 25))
    f = np.abs(rng.standard_normal((nx, ng)))
    wx = rng.uniform(0.05, 2.0, nx)
    wg = rng.uniform(0.05, 2.0, ng)
    p = float(rng.uniform(1.05, 1.95))
    r = check_minkowski(f, wx, wg, p, conjugate_exponent(p))
    return r.lhs, r.rhs


def minkowski_random_suite(count: int, seed: int) -> CheckResult:
    """Generalized Minkowski inequality for iterated weighted norms with
    q/p >= 1, slack 1e-10: putting the larger exponent inside,

      ( sum_b w_b ( sum_a w_a F(a,b)^p )^(q/p) )^(1/q)
        <= ( sum_a w_a ( sum_b w_b F(a,b)^q )^(p/q) )^(1/p).

    Checked on count random nonnegative kernels with q = p'; one result
    carries the worst lhs/rhs ratio and the number of violations."""
    return _random_suite("minkowski-random-suite", count, seed, _minkowski_trial)


# -- instance-specific bounds ---------------------------------------------------------


def check_nilpotent_bound(
    g: SampledFunction,
    dual: DualOrbitModel,
    p: float,
    config: DualSamplingConfig | None = None,
    record: SpectralRecord | None = None,
) -> CheckResult:
    """Two-step nilpotent bound on the Heisenberg instance: the transform
    norm is at most A_p^(3 - 2/2) ||g||_p = A_p^2 ||g||_p, slack 1e-6 below
    p = 2.

    The exponent is hard-coded: the group is three-dimensional and its
    generic dual orbits are two-dimensional, so the bound carries the
    one-dimensional sharp constant to the power 3 - 2/2 = 2.  That equals
    the abelian constant of the two-dimensional normal subgroup, which is
    how it is computed here.  lhs and the slack are those of
    hausdorff_young_margins at p, reduced from record when one is given.
    """
    if dual.group.name != "heisenberg":
        raise ValueError("the nilpotent bound check is specific to the Heisenberg instance")
    p = float(p)
    exponent = 3 - 2 / 2  # dim 3, generic orbit dim 2
    assert exponent == 2 == dual.group.dim_N
    constant = babenko_constant(p, 1) ** exponent
    # consistency: the power of the line constant is the plane constant
    assert abs(constant - babenko_constant(p, 2)) < 1e-14
    (hy,) = hausdorff_young_margins(g, dual, (p,), config=config, record=record)
    rhs = constant * lp_norm_G(g, p)
    return inequality_result("nilpotent-bound", hy.lhs, rhs, hy.tolerance, detail=f"p={p:g}")


def schatten_property_suite(count: int, size: int, seed: int) -> CheckResult:
    """Property battery for the Schatten norms ||A||_p = (sum s_k(A)^p)^(1/p)
    over singular values, slack 1e-10: ||A||_S4^2 = ||AA*||_S2 (singular
    values against the Frobenius formula used at p = 2), monotone decrease
    in p, unitary invariance, and the triangle inequality, each on count
    random complex size x size matrices."""
    rng = np.random.default_rng(seed)
    tol = TOLERANCES["linalg"]
    worst = 0.0
    violations = 0
    exponents = (1.0, 1.3, 2.0, 3.5, np.inf)
    for _ in range(count):
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        b = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        devs = []
        s4_squared = schatten_norm(a, 4.0) ** 2
        devs.append(abs(schatten_norm(a @ a.conj().T, 2) - s4_squared) / s4_squared)
        norms = [schatten_norm(a, p) for p in exponents]
        for lo, hi in zip(norms[1:], norms):  # nonincreasing in the exponent
            devs.append(max(0.0, lo / hi - 1.0))
        u = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))[0]
        for p in (1.7, np.inf):
            ref = schatten_norm(a, p)
            devs.append(abs(schatten_norm(u @ a @ u.conj().T, p) - ref) / ref)
        devs.append(max(0.0, schatten_norm(a + b, 1.3) / (norms[1] + schatten_norm(b, 1.3)) - 1.0))
        local = max(devs)
        worst = max(worst, local)
        if local > tol:
            violations += 1
    return CheckResult(
        "schatten-suite",
        "deviation",
        worst,
        0.0,
        tol,
        violations == 0,
        detail=f"{count} matrices ({size}x{size}), {violations} violations",
    )


def check_gaussian_extremality(g: SampledFunction, p: float) -> CheckResult:
    """Gaussians saturate the abelian Babenko-Beckner inequality, so each
    slice of the Gaussian g must realize at least 0.99 of the sharp constant
    A_p^dim, with no further slack.

    Slices of negligible mass are dropped (see slice_ratios); g is sampled
    on whatever grids the caller chose."""
    ratios, kept = slice_ratios(g, p)
    bound = babenko_constant(p, g.dim_N)
    return inequality_result(
        "gaussian-extremality",
        0.99 * bound,
        float(ratios.min()),
        0.0,
        detail=f"{g.model.name} p={p:g} {kept.size} slices",
    )
