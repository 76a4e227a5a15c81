"""Tour of the two group extensions and their measure bookkeeping.

Both groups are semidirect products N x| H in cross-section coordinates
(n, t): an abelian normal subgroup N acted on by a one-parameter quotient H,
whose points are carried by the coordinate t in which Haar measure is dt
(for ax+b, t = log a).  Everything downstream (transforms, kernels, inequality chains) is built on
the arithmetic shown here.
"""

import math

import numpy as np

from hywbench.grids import modular_on_grid
from hywbench.groups import GroupElement, make_group
from hywbench.verify import check_semi_invariance, default_grids


def unimodular(model):
    """Whether the modular function is 1 at every point of the default H grid."""
    return bool(np.all(modular_on_grid(model, default_grids(model.name)[1]) == 1.0))


# -- the affine line -----------------------------------------------------------------

model, dual = make_group("axb")
print(f"group: {model.name}, dim N = {model.dim_N}, unimodular = {unimodular(model)}")



def paper_form(x):
    """An ax+b element in the paper's (b, a) form, a = e^t."""
    return f"(b, a) = ({x.n[0]:g}, {math.exp(x.h):g})"


x = GroupElement(np.array([1.0]), math.log(2.0))   # translate by 1, dilate by 2
y = GroupElement(np.array([-3.0]), math.log(0.5))
print("x * y =", paper_form(model.multiply(x, y)))
print("x^-1  =", paper_form(model.inverse(x)))
print("x * x^-1 =", paper_form(model.multiply(x, model.inverse(x))))

# the modular function measures the failure of right invariance; for the
# affine group it is 1/a, so this product is a homomorphism check
print("Delta(x) Delta(y) =", model.modular(x) * model.modular(y))
print("Delta(xy)         =", model.modular(model.multiply(x, y)))

# the quotient acts on frequencies of N; dilation by a shrinks a frequency
omega = np.array([2.0])
print("dual action of a=4 on omega=2:", model.dual_action(math.log(4.0), omega))

# conjugating the formal dimension operator through the representation
# rescales it by exactly 1/Delta; the check needs an element whose quotient
# coordinate lands on the grid lattice, so build one from the grid spacing
h_grid = default_grids("axb")[1]
x_lattice = GroupElement(np.array([0.7]), 8 * h_grid.spacing)
r = check_semi_invariance(model, dual.transversal(None)[0][0], x_lattice, h_grid)
print(f"semi-invariance of the formal dimension operator: deviation {r.lhs:.2e}")

# -- the Heisenberg group ------------------------------------------------------------

model_h, dual_h = make_group("heisenberg")
print(f"\ngroup: {model_h.name}, dim N = {model_h.dim_N}, unimodular = {unimodular(model_h)}")

# N holds the (y, z) pair, H the x coordinate; conjugation shears z by x*y,
# so the commutator of two elements lands in the center
a = GroupElement(np.array([1.0, 0.0]), 0.0)
b = GroupElement(np.array([0.0, 0.0]), 1.0)
ab = model_h.multiply(a, b)
ba = model_h.multiply(b, a)
print("ab =", ab)
print("ba =", ba)
comm = model_h.multiply(ab, model_h.inverse(ba))
print("commutator (central):", comm)

# the dual-orbit transversal carries the weight |lambda| d lambda; its atoms
# are what the direct-integral norms sum over
params, weights = dual_h.transversal(None)
print(f"transversal: {len(weights)} orbit atoms, total weight {weights.sum():.6f}")
print("first three atoms:", params[:3].tolist())
