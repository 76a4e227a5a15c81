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

Band discipline: a frequency beyond the per-axis band edge of the N grids
pairs to 0.  A uniform grid carries no information there and the aliased
value it would produce is order-one garbage, while the true value for the
shipped fixture families is below roundoff.  So pair() returns only the
in-band rows, with their indices, and never builds the zero rows (on
Heisenberg about 78% of them).  The kernel keeps only its nonzero rows:
restricting the codomain to them is an isometry, so every Schatten and cross
norm is unchanged.  Pointwise character values (induced_rep_matrix) are
exact evaluations, not quadratures, so no band restriction applies to them.

Pairing in chunks: spectral_record pairs the orbits of a transversal 16 at a
time through pair_orbits.  The trailing frequency is constant along a dual
orbit, so one pair call contracts the trailing N axis for every orbit of the
chunk with a single GEMM per block of H columns.  A block's contracted
output is at most _PAIR_BLOCK_BYTES (2 MB): one block on the default
Heisenberg grids, four once refined, and the blocks give the bits of one.
The FFT of the norm chain (transform_reciprocal) runs over H blocks of the
same budget, and h_blocks is the one definition of both blockings.
The ax+b group has no trailing axis; its two orbits share one call.  For a
real g on a symmetric transversal only the first half of the orbits is
paired: the dual action is linear, so the table at -sigma is the conjugate
of the table at sigma, and its norms repeat those at sigma bit for bit (see
spectral_record).  A chunk's GEMM blocking follows its row count, so an
orbit paired alone may differ from the same orbit paired in its chunk by
roundoff.

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


# bytes of one H block: of pair's trailing-axis contraction, its complex
# (n_0, tails, columns) output (a chunk of 16 orbits is one block on the
# default Heisenberg grids and four once refined), and of an FFT block of
# transform_reciprocal (32 columns on the default Heisenberg grids, 8 once
# refined)
_PAIR_BLOCK_BYTES = 2 << 20


def h_blocks(n: int, column_bytes: int):
    """Slices of the n H columns in consecutive blocks of
    _PAIR_BLOCK_BYTES // column_bytes columns, but at least two, and never
    one column alone unless n is 1: a last single column joins the block
    before it.  numpy sums a one-column block over its rows in pairwise
    order, not row by row, so the slice masses of the chain would move in
    the last bits; from two columns on they are those of one full-width
    block."""
    starts = list(range(0, max(n - 1, 1), max(2, _PAIR_BLOCK_BYTES // column_bytes)))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


class CharacterSlice:
    """Slice-by-slice character pairings of a sampled function.

    pair(omegas) returns (rows, table): rows indexes the frequencies that
    stay in the band of the N grids on every axis, and table, shape
    (len(rows), h), holds their pairings, entry (r, j) being

        sum_n g(n, h_j) exp(+2 pi i <omega_rows[r], n>) * w_N(n),

    i.e. the transform of the slice at the reflected frequency.  A frequency
    out of band pairs to zero (see the module docstring) and has no row.
    The cell weight w_N multiplies each leading-axis phase, not the table.
    Rows that share their trailing frequency components are contracted
    together, which is what keeps the two-step groups fast: the center
    frequency is constant along each dual orbit, so one GEMM contracts the
    last N axis at every distinct trailing frequency of the call (one per
    orbit when pair_orbits pairs a chunk of orbits), and each orbit is then
    one product over the leading axis.  Both run over blocks of H columns,
    so the contracted block stays within _PAIR_BLOCK_BYTES.
    """

    def __init__(self, g: SampledFunction):
        self.g = g
        self.band = np.array([gr.nyquist for gr in g.n_grids])
        self._pts = [gr.points() for gr in g.n_grids]
        self._n_weight = cell_weight(g.n_grids)

    def in_band(self, omegas) -> np.ndarray:
        om = np.atleast_2d(np.asarray(omegas, dtype=float))
        return np.all(np.abs(om) <= self.band[None, :] * (1 + 1e-12), axis=1)

    def pair(self, omegas):
        om = np.atleast_2d(np.asarray(omegas, dtype=float))
        if om.shape[1] != self.g.dim_N:
            raise ValueError("frequency dimension does not match the N grids")
        if om.shape[1] > 2:
            raise NotImplementedError("pairing in more than two normal-subgroup dimensions")
        rows = np.flatnonzero(self.in_band(om))
        table = np.empty((rows.size, self.g.h_grid.n), dtype=np.complex128)
        if rows.size == 0:
            return rows, table

        # group in-band rows by their trailing frequency (axis 1 when d = 2);
        # per H block, one GEMM contracts that axis at every group and one
        # matmul per group follows
        tails, group_of = np.unique(om[rows, 1:], axis=0, return_inverse=True)
        members = [np.flatnonzero(group_of.ravel() == k) for k in range(len(tails))]
        leads = [
            np.exp(2j * np.pi * np.outer(om[rows[m], 0], self._pts[0])) * self._n_weight for m in members
        ]
        tail = np.exp(2j * np.pi * np.outer(tails[:, -1], self._pts[-1])) if tails.size else None
        for cols in h_blocks(table.shape[1], 16 * self.g.values.shape[0] * len(tails)):
            block = self.g.values[..., cols]
            block = tail @ block if tails.size else block[:, None]  # (n_0, tails, columns)
            for k, m in enumerate(members):
                table[m, cols] = leads[k] @ block[:, k]
        return rows, table

    def transform_reciprocal(self, cols=slice(None)):
        """Transform of every slice in the H columns cols (all of them by
        default) on the full reciprocal grid, via the FFT.

        Returns (reciprocal grids, values) with values indexed like
        g.values[..., cols] but with each N axis replaced by its reciprocal
        grid.  values is the one copy of those columns made here: the phases
        and every FFT are applied to it in place, so no further array of its
        size is held (the result is bit-identical to the out-of-place
        products).  Each slice is transformed on its own, so a block of
        columns gives the bits of the same columns of the full transform;
        spectral_record transforms g one h_blocks block at a time.
        """
        vals = np.array(self.g.values[..., cols], dtype=np.complex128, copy=True)
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
    """Pairing tables of k orbits, one orbit-local (rows, table) each: rows
    lists the quotient points t_s whose dual parameter t_s.sigma0_i is in
    band, and row r of table pairs every h-slice of g with the character at
    t_rows[r].sigma0_i.  The k orbit maps come from one dual_action call and
    go to one pair call, so the trailing N axis is contracted for all k
    orbits with one GEMM per H block.  The same table backs both the
    operator kernel (rows are the kernel's left variable) and the
    disintegrated majorant of the norm chain (columns are the slice
    variable).
    """
    omegas = _orbit_map(dual.group, cs.g.h_grid, sigma0s)
    k, n = omegas.shape[:2]
    rows, table = cs.pair(omegas.reshape(k * n, -1))
    cuts = np.searchsorted(rows, n * np.arange(k + 1))
    return [(rows[a:b] - i * n, table[a:b]) for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:]))]


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
    pair,
    h_grid: Grid1D,
    delta_h: np.ndarray,
    dimension_exponent: float,
) -> WeightedKernel:
    """Turn an orbit's pairing table into the operator kernel, on its nonzero rows.

    pair is (rows, table) as pair_orbits gives it: table row r pairs slice j
    with the dual parameter of quotient point s = rows[r].  The kernel entry
    (s, m) reads that row at slice index s - m + origin, scaled by the
    modular function at that difference.  Differences off the quotient grid
    give zero entries.  Of the table's rows only those not identically zero
    are kept, with their weights: the rows out of band are not in the table
    at all (see the band discipline above), so the scan reads r rows, not n,
    and an orbit with no row in band gives a (0, n) kernel, every norm of
    which is 0.  The difference index of the grid is built once
    (_difference_index) and the kept rows are gathered from the table
    through it directly.
    """
    rows, table = pair
    index, valid = _difference_index(h_grid.n, h_grid.origin_index)
    kept = np.flatnonzero(table.any(axis=1))
    rows = rows[kept]
    Dc = index[rows]
    vals = table[kept[:, None], Dc] * delta_h[Dc] * valid[rows] * delta_h ** dimension_exponent
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
