"""The operator-valued Fourier transform on a gridded group extension.

At an induced representation with orbit parameter sigma0, the transform of a
sampled function g is the integral operator on L2 of the quotient grid with
kernel

    k(xi, gamma) = pair(g(., xi gamma^-1); xi.sigma0) * Delta(xi gamma^-1),

where pair(g(., h); omega) integrates the h-slice of g against the character
chi_omega over the N grid, and Delta is the modular function.  The exponent-q
transform appends the column factor Delta(gamma)^(1/q), the 1/q power of the
formal dimension operator (multiplication by Delta on the quotient); at
q = 2 this is exactly the correction that makes the direct-integral identity

    ||g||_2^2 = sum_sigma nu(sigma) ||k_sigma||_{S2}^2

hold with constant one on both shipped groups.

Band discipline: pair() returns 0 for frequencies beyond the per-axis band
edge of the N grids.  A uniform grid carries no information there and the
aliased value it would produce is order-one garbage, while the true value for
the shipped fixture families is below roundoff.  A kernel row whose dual
parameter leaves the band is therefore exactly zero, and the kernel keeps only
its nonzero rows: restricting the codomain to them is an isometry, so every
Schatten and cross norm is unchanged (on Heisenberg about 78% of the rows go).
Pointwise character values (induced_rep_matrix) are exact evaluations, not
quadratures, so no band restriction applies to them.

Pairing in chunks: spectral_record pairs the orbits of a transversal 16 at a
time through pair_orbits.  The trailing frequency is constant along a dual
orbit, so one pair call contracts the trailing N axis for every orbit of the
chunk with a single GEMM.  The ax+b group has no trailing axis; its two orbits
share one call.  For a real g on a symmetric transversal only the first half
of the orbits is paired: the dual action is linear, so the table at -sigma is
the conjugate of the table at sigma, and its norms repeat those at sigma bit
for bit (see spectral_record).  A chunk's GEMM blocking follows its row
count, so an orbit paired alone may differ from the same orbit paired in its
chunk by roundoff.

Index bookkeeping: quotient translations act by index shifts, so the kernel
only ever reads g at h-differences that land back on the quotient grid;
entries whose difference falls off the grid vanish, consistent with treating
g as supported on its grid.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import Grid1D, SampledFunction, cell_weight
from .groups import (
    DualOrbitModel,
    GroupElement,
    GroupExtensionModel,
    character_value,
)
from .schatten import WeightedKernel

__all__ = [
    "CharacterSlice",
    "pair_orbits",
    "kernel_from_pair_table",
    "induced_rep_matrix",
]


class CharacterSlice:
    """Slice-by-slice character pairings of a sampled function.

    pair(omegas) returns a (rows, h) table whose row r, column j entry is

        sum_n g(n, h_j) exp(+2 pi i <omega_r, n>) * w_N(n),

    i.e. the transform of the slice at the reflected frequency.  Rows whose
    frequency leaves the band of the N grids on any axis are zero (see the
    module docstring).  Rows that share their trailing frequency components
    are contracted together, which is what keeps the two-step groups fast:
    the center frequency is constant along each dual orbit, so one GEMM
    contracts the last N axis at every distinct trailing frequency of the
    call (one per orbit when pair_orbits pairs a chunk of orbits), and each
    orbit is then one product over the leading axis.
    """

    def __init__(self, g: SampledFunction):
        self.g = g
        self.band = np.array([gr.nyquist for gr in g.n_grids])
        self._pts = [gr.points() for gr in g.n_grids]
        self._n_weight = cell_weight(g.n_grids)

    def in_band(self, omegas) -> np.ndarray:
        om = np.atleast_2d(np.asarray(omegas, dtype=float))
        return np.all(np.abs(om) <= self.band[None, :] * (1 + 1e-12), axis=1)

    def pair(self, omegas) -> np.ndarray:
        om = np.atleast_2d(np.asarray(omegas, dtype=float))
        if om.shape[1] != self.g.dim_N:
            raise ValueError("frequency dimension does not match the N grids")
        if om.shape[1] > 2:
            raise NotImplementedError("pairing in more than two normal-subgroup dimensions")
        out = np.zeros((om.shape[0], self.g.h_grid.n), dtype=np.complex128)
        rows = np.nonzero(self.in_band(om))[0]
        if rows.size == 0:
            return out

        # group in-band rows by their trailing frequency (axis 1 when d = 2);
        # one GEMM contracts that axis at every group, one matmul per group follows
        tails, group_of = np.unique(om[rows, 1:], axis=0, return_inverse=True)
        arr = self.g.values
        if tails.size:  # (n_0, tails, h)
            arr = np.exp(2j * np.pi * np.outer(tails[:, -1], self._pts[-1])) @ arr
        for k in range(len(tails)):
            members = rows[group_of.ravel() == k]
            lead = np.exp(2j * np.pi * np.outer(om[members, 0], self._pts[0]))
            out[members] = lead @ (arr[:, k] if tails.size else arr)
        out *= self._n_weight
        return out

    def transform_reciprocal(self):
        """Transform of every slice on the full reciprocal grid, via the FFT.

        Returns (reciprocal grids, values) with values indexed like g but with
        each N axis replaced by its reciprocal grid.  values is the one copy
        of g made here: the phases and every FFT are applied to it in place,
        so no further array of g's size is held (the result is bit-identical
        to the out-of-place products).
        """
        vals = np.array(self.g.values, dtype=np.complex128, copy=True)
        grids = []
        for ax, gr in enumerate(self.g.n_grids):
            rgrid = gr.reciprocal()
            grids.append(rgrid)
            shape = [1] * vals.ndim
            shape[ax] = gr.n
            # fold the grid offset into pre and post phases around a plain FFT
            vals *= ((-1.0) ** np.arange(gr.n)).reshape(shape)
            np.fft.fft(vals, axis=ax, out=vals)
            vals *= (gr.spacing * np.exp(-2j * np.pi * rgrid.points() * gr.lo)).reshape(shape)
        return tuple(grids), vals


def _orbit_map(model: GroupExtensionModel, h_grid: Grid1D, sigma0s) -> np.ndarray:
    """t_s.sigma0 at every quotient point t_s of k orbits, shape (k, n, d),
    from one array dual_action call."""
    return np.moveaxis(model.dual_action(h_grid.points(), np.transpose(sigma0s)), -1, 0)


def pair_orbits(cs: CharacterSlice, dual: DualOrbitModel, sigma0s):
    """Pairing tables of k orbits, shape (k, n, n): row s of table i pairs
    every h-slice of g with the character at the dual parameter t_s.sigma0_i.
    The k orbit maps come from one dual_action call and go to one pair
    call, so the trailing N axis is contracted for all k orbits with one
    GEMM.  The same table backs both the operator kernel (rows are the
    kernel's left variable) and the disintegrated majorant of the norm chain
    (columns are the slice variable).
    """
    omegas = _orbit_map(dual.group, cs.g.h_grid, sigma0s)
    return cs.pair(omegas.reshape(-1, omegas.shape[-1])).reshape(*omegas.shape[:2], -1)


@functools.lru_cache(maxsize=8)
def _difference_index(n: int, origin_index: int):
    """(index, valid) on an n-point quotient grid, both (n, n): index[s, m]
    is the slice index s - m + origin_index clipped to the grid, and valid
    marks where no clip was needed.  Both depend on s - m alone, so each is
    a read-only window view of one array of its 2n - 1 diagonals."""
    diagonals = n - 1 + origin_index - np.arange(2 * n - 1)  # s - m + origin_index at m - s + n - 1
    window = lambda a: sliding_window_view(a, n)[::-1]
    return window(np.clip(diagonals, 0, n - 1)), window((diagonals >= 0) & (diagonals < n))


def kernel_from_pair_table(
    P: np.ndarray,
    h_grid: Grid1D,
    delta_h: np.ndarray,
    dimension_exponent: float,
) -> WeightedKernel:
    """Turn a pairing table into the operator kernel, on its nonzero rows.

    P[s, j] pairs slice j with the dual parameter of row s; the kernel entry
    (i, m) reads the table at slice index i - m + origin, scaled by the
    modular function at that difference.  Differences off the quotient grid
    give zero entries.  Only the rows where P is not identically zero are
    kept, with their weights (see the band discipline above); an orbit with
    no row in band gives a (0, n) kernel, every norm of which is 0.  The
    difference index of the grid is built once (_difference_index) and the
    kept rows are gathered from P through it directly.
    """
    index, valid = _difference_index(h_grid.n, h_grid.origin_index)
    rows = np.flatnonzero(P.any(axis=1))
    Dc = index[rows]
    vals = P[rows[:, None], Dc] * delta_h[Dc] * valid[rows] * delta_h ** dimension_exponent
    w = h_grid.weights()
    return WeightedKernel(vals, w[rows], w)


def induced_rep_matrix(
    model: GroupExtensionModel, sigma0, x: GroupElement, h_grid: Grid1D
) -> np.ndarray:
    """Matrix of the induced representation of x on the quotient grid.

    (rep(x) f)(xi) = chi_{xi.sigma0}(n_x) f(xi - t_x): a diagonal phase
    times an index shift.  x must translate the quotient grid onto its own
    lattice; rows shifted off the grid are zero.
    """
    s = x.h / h_grid.spacing
    si = int(round(s))
    if abs(s - si) > 1e-9:
        raise ValueError("group element must shift the quotient grid onto itself")
    chi = np.array([character_value(om, x.n) for om in _orbit_map(model, h_grid, [sigma0])[0]])
    n = h_grid.n
    a = np.zeros((n, n), dtype=np.complex128)
    rows = np.arange(max(0, si), min(n, n + si))
    a[rows, rows - si] = chi[rows]
    return a
