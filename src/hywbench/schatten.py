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
    "adjoint_kernel",
    "cross_norm_qpq",
    "weighted_operator_matrix",
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
    """[schatten_norm(a, p) for p in ps] from at most one SVD.

    At p = 2 it is the Frobenius norm: no SVD, and slightly more accurate
    than powering singular values.  A norm that cannot be computed is NaN:
    every norm is NaN when a has a non-finite entry or the SVD fails, so a
    verdict that reads it fails rather than raises.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("schatten_norm expects a matrix")
    ps = [float(p) for p in ps]
    if not all(p >= 1.0 for p in ps):
        raise ValueError("need p >= 1")
    if not np.all(np.isfinite(a.view(float) if a.dtype.kind == "c" else a)):
        return [np.nan] * len(ps)
    if any(p != 2.0 for p in ps):
        try:
            s = np.linalg.svd(a, compute_uv=False)
        except np.linalg.LinAlgError:
            return [np.nan] * len(ps)
    out = []
    for p in ps:
        if p == 2.0:
            out.append(float(np.sqrt((np.abs(a) ** 2).sum())))
        elif np.isinf(p):
            out.append(float(s[0]) if s.size else 0.0)
        else:
            out.append(float((s**p).sum() ** (1.0 / p)))
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


def adjoint_kernel(k: WeightedKernel) -> WeightedKernel:
    """k*(xi, gamma) = conj(k(gamma, xi)); weights swap roles."""
    return WeightedKernel(k.values.conj().T, k.gamma_weights, k.xi_weights)


def cross_norm_qpq(k: WeightedKernel, p: float) -> float:
    """Mixed norm: exponent p over xi (axis 0), then exponent q = p' over gamma."""
    p = float(p)
    if not (1.0 < p <= 2.0):
        raise ValueError("need 1 < p <= 2 for the inner exponent")
    q = conjugate_exponent(p)
    inner = (np.abs(k.values) ** p * k.xi_weights[:, None]).sum(axis=0)
    outer = (inner ** (q / p)) @ k.gamma_weights
    return float(outer ** (1.0 / q))


def weighted_operator_matrix(k: WeightedKernel) -> np.ndarray:
    """sqrt(w_xi) k sqrt(w_gamma): the matrix carrying the operator's norms."""
    return np.sqrt(k.xi_weights)[:, None] * k.values * np.sqrt(k.gamma_weights)[None, :]


def russo_gap(k: WeightedKernel, p: float):
    """(operator S_q norm, geometric mean of the two cross norms), q = p'."""
    lhs = schatten_norm(weighted_operator_matrix(k), conjugate_exponent(p))
    rhs = float(np.sqrt(cross_norm_qpq(k, p) * cross_norm_qpq(adjoint_kernel(k), p)))
    return lhs, rhs
