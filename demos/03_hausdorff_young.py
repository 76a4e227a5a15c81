"""The sharp Hausdorff-Young bound on both groups.

For 1 < p <= 2 and q = p/(p-1), the direct-integral Schatten q-norm of the
exponent-q transform is bounded by A_p^d ||g||_p, where A_p is the sharp
Babenko-Beckner constant of the line and d the dimension of the normal
subgroup.  Gaussians saturate the abelian inequality, so they show how tight
the sharp regime is; random band-limited fixtures show the generic margin.

hausdorff_young_margins pairs every dual orbit of a fixture once and returns
one check per exponent, so one call covers both exponents of a fixture.
"""

from hywbench.grids import sample
from hywbench.groups import make_group
from hywbench.verify import (
    babenko_constant,
    default_grids,
    default_sampling_config,
    gaussian_fixtures,
    hausdorff_young_margins,
    random_fixtures,
    spectral_record,
)

for name in ("axb", "heisenberg"):
    model, dual = make_group(name)
    n_grids, h_grid = default_grids(name)
    sampling = default_sampling_config(name)
    print(f"== {name} (dim N = {model.dim_N}) ==")
    for p in (1.2, 1.5, 1.8):
        print(f"  A_{p:g} on the line: {babenko_constant(p, 1):.10f}"
              f"   on the plane: {babenko_constant(p, 2):.10f}")

    spec_g = gaussian_fixtures(name, 1)[0]
    spec_r = random_fixtures(name, 1, base_seed=7)[0]
    for label, spec in (("gaussian", spec_g), ("random", spec_r)):
        g = sample(spec, n_grids, h_grid, model)
        results = hausdorff_young_margins(g, dual, (1.2, 1.8), config=sampling)
        for p, r in zip((1.2, 1.8), results):
            print(f"  {label:8s} p={p:.1f}: lhs/rhs = {r.lhs / r.rhs:.6f}  "
                  f"({'pass' if r.passed else 'FAIL'})")

    # with the classical constant 1 the margin widens further
    g = sample(spec_r, n_grids, h_grid, model)
    (r,) = hausdorff_young_margins(g, dual, (1.5,), "classical", sampling)
    print(f"  classical constant, p=1.5: lhs/rhs = {r.lhs / r.rhs:.6f}")

    # slice by slice the bound is the abelian one; Gaussian slices sit on it
    # (the spectral record carries the slice ratios of its chain exponents)
    g = sample(spec_g, n_grids, h_grid, model)
    *_, ratios = spectral_record(g, dual, (4 / 3,), chain=(4 / 3,)).chain[4 / 3]
    print(f"  gaussian slice ratio at p=4/3: {ratios.max():.10f} "
          f"(sharp constant {babenko_constant(4 / 3, model.dim_N):.10f})\n")
