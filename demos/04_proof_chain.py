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
    gaussian_fixtures,
    random_fixtures,
    spectral_record,
)


def chain_values(results):
    """V0..V4 off the links averaging (V0 <= V1), cauchy-schwarz (V1 <= V2),
    minkowski-swap (V2 <= V3) and slice-hausdorff-young (V3 <= V4)."""
    links = {r.name: r for r in results}
    names = ("averaging", "cauchy-schwarz", "minkowski-swap", "slice-hausdorff-young")
    steps = [links[f"proof-chain:{name}"] for name in names]
    return [steps[0].lhs] + [r.rhs for r in steps]


model, dual = make_group("axb")
n_grids, h_grid = default_grids("axb")
g = sample(gaussian_fixtures("axb", 1)[0], n_grids, h_grid, model)

print("axb, Gaussian fixture:")
print(f"{'p':>5} {'V0':>12} {'V1':>12} {'V2':>12} {'V3':>12} {'V4':>12}")
for p in (1.2, 1.5, 1.8, 2.0):
    results = check_proof_chain(spectral_record(g, dual, (p,), chain=(p,)), model, p)
    print(f"{p:5.1f}" + "".join(f" {v:12.6f}" for v in chain_values(results)))

print("\nall chain checks on a random fixture at p = 1.5:")
g_r = sample(random_fixtures("axb", 1, base_seed=3)[0], n_grids, h_grid, model)
for r in check_proof_chain(spectral_record(g_r, dual, (1.5,), chain=(1.5,)), model, 1.5):
    print(" ", r)

# the Heisenberg chain carries the |lambda| orbit weights through unchanged
model_h, dual_h = make_group("heisenberg")
n_grids_h, h_grid_h = default_grids("heisenberg")
gh = sample(gaussian_fixtures("heisenberg", 1)[0], n_grids_h, h_grid_h, model_h)
v = chain_values(check_proof_chain(spectral_record(gh, dual_h, (1.5,), chain=(1.5,)), model_h, 1.5))
print(f"\nheisenberg p=1.5: V0={v[0]:.4f} <= V1={v[1]:.4f} <= "
      f"V2={v[2]:.4f} <= V3={v[3]:.4f} ~ V4={v[4]:.4f}")
print("(the last link is quadrature-tight for Gaussians: the dual-side")
print(" Riemann sum slightly overshoots the continuum value it converges to)")
