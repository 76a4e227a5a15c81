"""The linear-algebra floor: Schatten norms and kernel inequalities.

Everything the chain relies on at the matrix level, demonstrated on small
synthetic kernels where each quantity can be read off by hand:

* Schatten norms over singular values, agreeing with Frobenius at 2;
* the averaging bound: Schatten q-norm <= geometric mean of the mixed
  (q, p) cross norms of the kernel and its adjoint (Russo-Fournier);
* the generalized Minkowski inequality for swapped iterated sums.
"""

import numpy as np

from hywbench.schatten import (
    WeightedKernel,
    cross_norm_qpq,
    russo_gap,
    schatten_norm,
    weighted_operator_matrix,
)
from hywbench.verify import check_minkowski, check_russo_fournier

# a diagonal matrix makes the Schatten norm a plain lp norm of the diagonal
d = np.diag([3.0, 2.0, 1.0]).astype(complex)
print("diag(3,2,1):")
for p in (1.0, 2.0, 3.0, np.inf):
    print(f"  S_{p:g} norm = {schatten_norm(d, p):.6f}")
print(f"  (S_3 should be (3^3+2^3+1)^(1/3) = {36 ** (1 / 3):.6f})")

# a weighted kernel carries its measure; the associated operator matrix is
# sqrt(w_row) k sqrt(w_col), and for diagonal kernels the averaging bound
# is an equality
k = WeightedKernel(d, np.ones(3), np.ones(3))
p = 1.5
lhs, rhs = russo_gap(k, p)
print(f"\ndiagonal kernel, p={p}: Schatten bound {lhs:.6f} vs cross-norm mean {rhs:.6f}")

# on a random kernel the bound acquires a real gap
rng = np.random.default_rng(0)
vals = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
k = WeightedKernel(vals, rng.uniform(0.5, 1.5, 4), rng.uniform(0.5, 1.5, 6))
lhs, rhs = russo_gap(k, p)
print(f"random kernel,  p={p}: Schatten bound {lhs:.6f} vs cross-norm mean {rhs:.6f}")
print("cross norm of the adjoint:", f"{cross_norm_qpq(k, p)[1]:.6f}")
print("operator matrix shape:", weighted_operator_matrix(k).shape)
print(check_russo_fournier(k, p))

# Minkowski swap: the iterated norm with the small exponent outside wins;
# separable kernels give equality, generic ones a strict gap
a, b = np.array([1.0, 2.0]), np.array([1.0, 0.5, 2.0])
r = check_minkowski(np.outer(a, b), np.ones(2), np.ones(3), 1.5, 3.0)
print(f"\nseparable kernel: {r.lhs:.6f} = {r.rhs:.6f} (equality)")
r = check_minkowski(np.abs(rng.standard_normal((5, 7))), np.ones(5), np.ones(7), 1.5, 3.0)
print(f"generic kernel:   {r.lhs:.6f} < {r.rhs:.6f}")
