"""Plancherel equality at desk scale, on both groups.

The operator-valued transform of g assigns to each dual orbit an integral
kernel; weighting it by the square root of the formal dimension operator
makes the direct-integral Hilbert-Schmidt norm match ||g||_2.  On a grid the
match is quadrature-limited, so we also show the error falling under one
balanced refinement (double the points, widen the extents by sqrt 2).
"""

import numpy as np

from hywbench.grids import TestFunctionSpec, sample
from hywbench.groups import make_group
from hywbench.verify import check_plancherel, default_grids, default_sampling_config

# -- affine group --------------------------------------------------------------------

model, dual = make_group("axb")
n_grids, h_grid = default_grids("axb")
spec = TestFunctionSpec(kind="gaussian", center_n=(0.0,), width_n=(1.0,))
g = sample(spec, n_grids, h_grid, model)

r = check_plancherel(g, dual)
print(f"axb: direct-integral norm^2 = {r.lhs:.8f}")
print(f"axb: ||g||_2^2              = {r.rhs:.8f}  (exact: pi e^0.25 = {np.pi * np.exp(0.25):.8f})")
print(f"axb: relative error         = {abs(r.lhs - r.rhs) / r.rhs:.3e}")

# one balanced refinement cuts the quadrature error by more than an order
fine_n = [gr.balanced_refine() for gr in n_grids]
fine_h = h_grid.balanced_refine()
g_fine = sample(spec, fine_n, fine_h, model)
r = check_plancherel(g_fine, dual)
print(f"axb refined: relative error = {abs(r.lhs - r.rhs) / r.rhs:.3e}")

# -- Heisenberg group -----------------------------------------------------------------

model_h, dual_h = make_group("heisenberg")
n_grids_h, h_grid_h = default_grids("heisenberg")
spec_h = TestFunctionSpec(kind="gaussian", center_n=(0.0, 0.0), width_n=(2.0, 0.5))
gh = sample(spec_h, n_grids_h, h_grid_h, model_h)

# the dual side integrates over the orbit parameter with density |lambda|
r = check_plancherel(gh, dual_h, default_sampling_config("heisenberg"))
print(f"\nheisenberg: lhs = {r.lhs:.8f}, rhs = {r.rhs:.8f}")
print(f"heisenberg: relative error = {abs(r.lhs - r.rhs) / r.rhs:.3e}")
print(f"heisenberg: ||g||_2^2 exact for this Gaussian: {np.pi ** 1.5:.8f}")
