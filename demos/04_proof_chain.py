"""Every intermediate inequality between the transform norm and the bound.

The chain runs

    V0  direct-integral Schatten norm (q-th power)
    V1  per-orbit kernel averaging (geometric mean of cross norms)
    V2  Cauchy-Schwarz across the orbit transversal
    V3  generalized Minkowski swap of the iterated sums
    V4  per-slice abelian Hausdorff-Young, (A_p^d ||g||_p)^q

V0 through V3 are exact grid facts (slack 1e-10); the V3 <= V4 step crosses
to the continuum once and is quadrature-limited.  At p = 2 everything
collapses to the Plancherel identity, so the whole chain flattens.
"""

from hywbench.grids import sample
from hywbench.groups import make_group
from hywbench.verify import (
    check_proof_chain,
    default_grids,
    default_sampling_config,
    gaussian_fixtures,
    proof_chain_quantities,
    random_fixtures,
)

model, dual = make_group("axb")
n_grids, h_grid = default_grids("axb")
g = sample(gaussian_fixtures("axb", 1)[0], n_grids, h_grid, model)

print("axb, Gaussian fixture:")
print(f"{'p':>5} {'V0':>12} {'V1':>12} {'V2':>12} {'V3':>12} {'V4':>12}")
for p in (1.2, 1.5, 1.8, 2.0):
    v = proof_chain_quantities(g, dual, p)
    print(f"{p:5.1f} {v['v0']:12.6f} {v['v1']:12.6f} {v['v2']:12.6f} "
          f"{v['v3']:12.6f} {v['v4']:12.6f}")

print("\nall chain checks on a random fixture at p = 1.5:")
g_r = sample(random_fixtures("axb", 1, base_seed=3)[0], n_grids, h_grid, model)
for r in check_proof_chain(g_r, dual, 1.5):
    print(" ", r)

# the Heisenberg chain carries the |lambda| orbit weights through unchanged
model_h, dual_h = make_group("heisenberg")
n_grids_h, h_grid_h = default_grids("heisenberg")
gh = sample(gaussian_fixtures("heisenberg", 1)[0], n_grids_h, h_grid_h, model_h)
v = proof_chain_quantities(gh, dual_h, 1.5, config=default_sampling_config("heisenberg"))
print(f"\nheisenberg p=1.5: V0={v['v0']:.4f} <= V1={v['v1']:.4f} <= "
      f"V2={v['v2']:.4f} <= V3={v['v3']:.4f} ~ V4={v['v4']:.4f}")
print("(the last link is quadrature-tight for Gaussians: the dual-side")
print(" Riemann sum slightly overshoots the continuum value it converges to)")
