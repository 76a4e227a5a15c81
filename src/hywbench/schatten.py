"""Schatten norms and weighted integral kernels on atomic measure spaces.

A kernel k(xi, gamma) on a pair of weighted point sets acts as the integral
operator (Kf)(xi) = sum_gamma k(xi, gamma) f(gamma) w_gamma on the weighted
l2 spaces.  That operator is unitarily equivalent to the ordinary matrix

    sqrt(w_xi) k sqrt(w_gamma)

acting on unweighted l2, so all Schatten norms are computed from that matrix.
The mixed (q, p, q) cross norm integrates the inner exponent p over xi (axis
0) and the outer exponent q over gamma:

    ||k||_{q,p,q} = ( sum_gamma w_gamma ( sum_xi w_xi |k|^p )^{q/p} )^{1/q}.

With 1 < p <= 2 and q = p' the averaging bound

    ||K||_{S_q} <= ( ||k||_{q,p,q} ||k*||_{q,p,q} )^{1/2},   k*(xi,gamma) = conj(k(gamma,xi)),

holds exactly at machine precision, because the weighted point sets form
genuine (finite, atomic) measure spaces rather than discretizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "conjugate_exponent",
    "schatten_norm",
    "schatten_norms",
    "WeightedKernel",
    "cross_norm_qpq",
    "weighted_operator_matrix",
    "russo_gaps",
    "russo_gap",
]


def conjugate_exponent(p: float) -> float:
    """p' with 1/p + 1/p' = 1; conjugate_exponent(1) is inf."""
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError("need 1 <= p < inf")
    if p == 1.0:
        return np.inf
    return p / (p - 1.0)


def schatten_norm(a: np.ndarray, p: float) -> float:
    """Schatten p-norm of a matrix, p in [1, inf]."""
    return schatten_norms(a, (p,))[0]


def schatten_norms(a: np.ndarray, ps) -> list:
    """[schatten_norm(a, p) for p in ps] from at most one factorization.

    At p = 2 it is the Frobenius norm: no factorization, and slightly more
    accurate than powering singular values.  The other exponents take one
    of two routes, and the route forks by necessity, not for speed alone:

    - every p >= 2: the squared singular values are the eigenvalues of the
      smaller Gram matrix, a a* when a has no more rows than columns and
      a* a otherwise, taken by eigvalsh and clipped at 0.  S_p^p is the sum
      of lambda^(p/2) and S_inf the square root of the largest.  Each
      eigenvalue is off by about eps s_max^2, which enters S_p^p with a
      weight of at most (p/2) s_max^(p-2), so every norm stays at roundoff
      relative to itself.
    - any p < 2: one SVD.  There a small singular value counts for more
      than its square, so it needs the relative accuracy that the Gram
      matrix squares away.

    A norm that cannot be computed is NaN: every norm is NaN when a has a
    non-finite entry or the factorization fails, so a verdict that reads it
    fails rather than raises.  A matrix with no entries has every norm 0.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("schatten_norm expects a matrix")
    ps = list(map(float, ps))
    if not all(map((1.0).__le__, ps)):  # a NaN exponent fails too
        raise ValueError("need p >= 1")
    if not np.isfinite(a.view(float) if a.dtype.kind == "c" else a).all():
        return [np.nan] * len(ps)
    if not a.size:
        return [0.0] * len(ps)
    s = lam = None
    try:
        if min(ps, default=2.0) < 2.0:
            s = np.linalg.svd(a, compute_uv=False)
        elif ps.count(2.0) < len(ps):
            ah = a.conj().T
            lam = np.linalg.eigvalsh(a @ ah if a.shape[0] <= a.shape[1] else ah @ a)
            np.maximum(lam, 0.0, out=lam)
    except np.linalg.LinAlgError:
        return [np.nan] * len(ps)
    out = []
    for p in ps:
        if p == 2.0:
            out.append(float(np.sqrt((np.abs(a) ** 2).sum())))
        elif lam is None:
            out.append(float(s[0] if p == np.inf else (s**p).sum() ** (1.0 / p)))
        else:  # Gram eigenvalues, in ascending order
            out.append(float(np.sqrt(lam[-1]) if p == np.inf else (lam ** (p / 2)).sum() ** (1.0 / p)))
    return out


@dataclass(frozen=True)
class WeightedKernel:
    """Kernel values on a product of two weighted atomic point sets.

    values[i, j] = k(xi_i, gamma_j).  Entries may themselves be operators in
    later extensions; this implementation handles scalar entries only and
    refuses higher-rank input rather than guessing a convention.
    """

    values: np.ndarray
    xi_weights: np.ndarray
    gamma_weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim > 2:
            raise NotImplementedError("operator-valued kernel entries are not supported")
        if v.ndim != 2:
            raise ValueError("kernel values must form a matrix")
        wx = np.asarray(self.xi_weights, dtype=float)
        wg = np.asarray(self.gamma_weights, dtype=float)
        if wx.shape != (v.shape[0],) or wg.shape != (v.shape[1],):
            raise ValueError("weight lengths must match the kernel shape")
        if np.any(wx < 0) or np.any(wg < 0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "xi_weights", wx)
        object.__setattr__(self, "gamma_weights", wg)


def _cross_norms(values, xi_weights, gamma_weights, p: float, q: float):
    """(||k||_{q,p,q}, ||k*||_{q,p,q}) from one |k|^p: the adjoint's inner
    sum runs over gamma (axis 1) and its outer one over xi."""
    mass = np.abs(values) ** p
    direct = (mass * xi_weights[:, None]).sum(axis=0) ** (q / p) @ gamma_weights
    adjoint = (mass * gamma_weights).sum(axis=1) ** (q / p) @ xi_weights
    return float(direct ** (1.0 / q)), float(adjoint ** (1.0 / q))


def cross_norm_qpq(k: WeightedKernel, p: float) -> tuple:
    """(||k||_{q,p,q}, ||k*||_{q,p,q}), q = p': the mixed norm of k, exponent
    p over xi (axis 0) and then q over gamma, and that of its adjoint
    k*(xi, gamma) = conj(k(gamma, xi)), whose weights swap roles; both read
    one |k|^p."""
    p = float(p)
    if not (1.0 < p <= 2.0):
        raise ValueError("need 1 < p <= 2 for the inner exponent")
    return _cross_norms(k.values, k.xi_weights, k.gamma_weights, p, conjugate_exponent(p))


def weighted_operator_matrix(k: WeightedKernel) -> np.ndarray:
    """sqrt(w_xi) k sqrt(w_gamma): the matrix carrying the operator's norms."""
    return np.sqrt(k.xi_weights)[:, None] * k.values * np.sqrt(k.gamma_weights)[None, :]


def russo_gaps(kernels, ps) -> list:
    """[russo_gap(k, p) for k, p in zip(kernels, ps)], each kernel given as
    (values, xi_weights, gamma_weights) and left unvalidated.  Each kernel is
    judged on its own: one schatten_norms of its operator matrix, and both
    cross norms from one |k|^p."""
    ps = [float(p) for p in ps]
    if not all(1.0 < p <= 2.0 for p in ps):
        raise ValueError("need 1 < p <= 2 for the inner exponent")
    gaps = []
    for (values, xi, gamma), p in zip(kernels, ps):
        q = conjugate_exponent(p)
        (lhs,) = schatten_norms(np.sqrt(xi)[:, None] * values * np.sqrt(gamma)[None, :], (q,))
        direct, adjoint = _cross_norms(values, xi, gamma, p, q)
        gaps.append((lhs, float(np.sqrt(direct * adjoint))))
    return gaps


def russo_gap(k: WeightedKernel, p: float):
    """(operator S_q norm, geometric mean of the two cross norms), q = p'."""
    return russo_gaps([(k.values, k.xi_weights, k.gamma_weights)], [p])[0]
