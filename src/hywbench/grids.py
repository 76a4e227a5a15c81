"""Uniform grids, sampled test functions, weighted norms, and fixture I/O.

Quadrature convention: every grid point carries the mass of the cell of width
`spacing` centered on it (a midpoint rule on the half-open interval [lo, hi)).
Grids are laid out FFT-style, points lo + j*spacing for j = 0..n-1, so that
differences of H-grid points land back on the integer lattice of the grid;
that is what lets group translations act by index shifts.

Sampled functions always store complex128 values with axes (n_1, ..., n_d, h).
The weighted norms on the full group include the modular density on H, i.e.

    ||g||_p^p = sum |g|^p * w_N(n) * Delta_G(h) * w_H(h).

Binary fixture format (one function per file, written by save_sampled for
``hyw fixtures``; nothing in the package reads it back):

    HYW1 <counts> <extents> <seed>\n

followed by the raw little-endian complex128 array in C order.  counts is a
comma list over axes (N axes then H), extents a comma list of lo:hi pairs.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groups import GroupExtensionModel

__all__ = [
    "Grid1D",
    "make_grids",
    "cell_weight",
    "TestFunctionSpec",
    "SampledFunction",
    "sample",
    "slice_lp_mass",
    "lp_norm_G",
    "modular_on_grid",
    "save_sampled",
]


@dataclass(frozen=True)
class Grid1D:
    """n uniformly spaced points on [lo, hi), each weighted by the spacing."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two grid points")
        if not (np.isfinite(self.hi - self.lo) and self.hi > self.lo and self.spacing > 0):
            raise ValueError("need finite extents with hi > lo, a finite width and a spacing > 0")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / self.n

    @property
    def nyquist(self) -> float:
        """Band edge of the sampled model; beyond it samples alias."""
        return 0.5 / self.spacing

    def points(self) -> np.ndarray:
        return self.lo + self.spacing * np.arange(self.n)

    def weights(self) -> np.ndarray:
        return np.full(self.n, self.spacing)

    @property
    def origin_index(self) -> int:
        """Index of the origin, required to be a grid point (for index shifts)."""
        idx = -self.lo / self.spacing
        j = int(round(idx))
        if abs(idx - j) > 1e-9 or not 0 <= j < self.n:
            raise ValueError("grid does not contain the origin as a point")
        return j

    def balanced_refine(self) -> "Grid1D":
        """Double the points and widen extents by sqrt(2).

        Shrinks the spacing and pushes out the truncation boundary at the same
        time, so every quadrature error source decreases at once.
        """
        s = np.sqrt(2.0)
        return Grid1D(self.lo * s, self.hi * s, self.n * 2)

    def reciprocal(self) -> "Grid1D":
        """The frequency grid (k - n/2) / (n * spacing), FFT layout."""
        return Grid1D(-self.nyquist, self.nyquist, self.n)


def make_grids(
    n_counts: Sequence[int],
    n_extents: Sequence[tuple],
    h_count: int,
    h_extent: tuple,
):
    """Build the N-axis grids and the H grid; the H grid must hold the origin.
    Errors name their extent, ``n_extents[i]`` or ``h_extent``."""
    if len(n_counts) != len(n_extents):
        raise ValueError("n_counts and n_extents must have equal length")
    axes = [(f"n_extents[{i}]", e, c) for i, (c, e) in enumerate(zip(n_counts, n_extents))]
    grids = []
    for label, (lo, hi), count in axes + [("h_extent", h_extent, h_count)]:
        try:
            grids.append(Grid1D(lo, hi, count))
            if label == "h_extent":
                grids[-1].origin_index  # raises if misaligned
        except ValueError as exc:
            raise ValueError(f"{label} {[lo, hi]}: {exc}") from None
    return tuple(grids[:-1]), grids[-1]


def cell_weight(grids) -> float:
    """Mass of one cell of the product of grids: the product of the spacings."""
    return float(np.prod([g.spacing for g in grids]))


def modular_on_grid(model: GroupExtensionModel, h_grid: Grid1D) -> np.ndarray:
    """Delta_G at every H-grid point (the Haar density against dn dt).

    Evaluated point by point with the model's scalar modular_on_H, so the
    values do not depend on how a vectorized exp rounds.
    """
    return np.array([model.modular_on_H(t) for t in h_grid.points()])


# terms of every random-bandlimited test function
RANDOM_MODES = 6


@dataclass(frozen=True)
class TestFunctionSpec:
    """Recipe for a deterministic test function: a sum of separable terms,
    each a coefficient times, on every axis, the Gaussian envelope
    exp(-(x - c)^2 / (2 s^2)) times a plane wave exp(2 pi i (k / L) x), L the
    grid length of the axis (see sample).  Widths broadcast from a scalar.

    kind is one of:

    * "gaussian":  the one term with coefficient 1 and every k = 0, i.e.
      exp(-sum_i (n_i - c_i)^2 / (2 s_i^2)) * exp(-(t - c_h)^2 / (2 s_h^2));
    * "random-bandlimited": RANDOM_MODES terms with small integer k and complex
      coefficients drawn reproducibly from `seed`, i.e. the Gaussian envelope
      times a low-frequency random trigonometric polynomial.
    """

    __test__ = False  # not a pytest class, despite the name

    kind: str
    center_n: tuple = (0.0,)
    center_h: float = 0.0
    width_n: tuple = (1.0,)
    width_h: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("gaussian", "random-bandlimited"):
            raise ValueError(f"unknown test function kind {self.kind!r}")
        object.__setattr__(self, "center_n", tuple(float(c) for c in np.atleast_1d(self.center_n)))
        object.__setattr__(self, "width_n", tuple(float(w) for w in np.atleast_1d(self.width_n)))

    def key(self) -> str:
        return repr(dataclasses.astuple(self))


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples of a function on the (N..., H) grid, with its group model."""

    model: GroupExtensionModel
    n_grids: tuple
    h_grid: Grid1D
    values: np.ndarray
    spec: TestFunctionSpec | None = None

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        expected = tuple(g.n for g in self.n_grids) + (self.h_grid.n,)
        if v.shape != expected:
            raise ValueError(f"values shape {v.shape} does not match grids {expected}")
        rows = v.reshape(-1, v.shape[-1]).view(float)
        blocks = (rows[i : i + _LP_ROWS] for i in range(0, len(rows), _LP_ROWS))
        if not all(np.isfinite(block).all() for block in blocks):
            raise ValueError("sampled values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def dim_N(self) -> int:
        return len(self.n_grids)

    def h_measure(self) -> np.ndarray:
        """Quadrature weights on H including the modular density."""
        return self.h_grid.weights() * modular_on_grid(self.model, self.h_grid)


def sample(spec: TestFunctionSpec, n_grids, h_grid, model) -> SampledFunction:
    """Evaluate the test function described by spec on the grids.

    Both kinds are one sum of separable terms,

        sum_j c_j prod_axes env(x) exp(2 pi i (k_j / L) x),

    env the Gaussian envelope of the axis and L its grid length: a Gaussian
    is the single term c = 1, k = 0, and only the drawing of the terms
    depends on the kind.  Each axis gives a (terms, points) factor; the
    leading axes are multiplied out term by term and one matrix product with
    the last axis's factor sums the terms, so the result is the only
    full-size array.
    """
    grids, d = (*n_grids, h_grid), len(n_grids)
    centers = (*np.broadcast_to(spec.center_n, d), spec.center_h)
    widths = (*np.broadcast_to(spec.width_n, d), spec.width_h)
    coeffs, ks = np.ones(1, dtype=np.complex128), np.zeros((1, d + 1))
    if spec.kind == "random-bandlimited":
        # Low-frequency random modulation under the Gaussian envelope.  Mode
        # numbers are kept small so the sampled model stays far inside the
        # band the dual-side quadrature can resolve.  The draw order (the
        # mode numbers axis by axis, then the coefficient) fixes the function
        # a seed names.
        rng = np.random.default_rng(spec.seed)
        max_k = [2] * d + [3]
        coeffs, ks = np.empty(RANDOM_MODES, dtype=np.complex128), np.empty((RANDOM_MODES, d + 1))
        for j in range(RANDOM_MODES):
            ks[j] = [int(rng.integers(-m, m + 1)) for m in max_k]
            coeffs[j] = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.7**j
    factors = [
        np.exp(-((g.points() - c) ** 2) / (2.0 * s**2))
        * np.exp(2j * np.pi * (k / (g.hi - g.lo))[:, None] * g.points())
        for g, c, s, k in zip(grids, centers, widths, ks.T)
    ]
    lead = coeffs[:, None]
    for f in factors[:-1]:
        lead = (lead[:, :, None] * f[:, None, :]).reshape(len(coeffs), -1)
    values = (lead.T @ factors[-1]).reshape([g.n for g in grids])
    return SampledFunction(model=model, n_grids=tuple(n_grids), h_grid=h_grid, values=values, spec=spec)


# rows per block of slice_lp_mass and of SampledFunction's finiteness check, a
# row being the values at one N-grid point: a block's |values|^p is 1 MB on
# the default Heisenberg grids, 2 MB once refined
_LP_ROWS = 1024


def slice_lp_mass(values: np.ndarray, n_grids, p: float) -> np.ndarray:
    """sum_n |values|^p w_N(n) for every index of the last axis: the p-th
    power of the L^p norm of each slice over the N grids.

    The sum runs over blocks of _LP_ROWS rows, so no temporary of the size
    of values is made.  Each block starts from the running sum, so the rows
    are added in the same order, and to the same bits, as one sum over all
    of them."""
    rows, weight = values.reshape(-1, values.shape[-1]), cell_weight(n_grids)
    mass = np.zeros(rows.shape[1])
    for start in range(0, len(rows), _LP_ROWS):
        block = np.abs(rows[start : start + _LP_ROWS]) ** p * weight
        block[0] += mass
        mass = block.sum(axis=0)
    return mass


def lp_norm_G(g: SampledFunction, p: float) -> float:
    """Weighted L^p norm on the group: quadrature includes Delta_G(h) w_H(h)."""
    p = float(p)
    if not (np.isfinite(p) and p >= 1.0):
        raise ValueError("lp_norm_G needs a finite exponent p >= 1")
    return float((slice_lp_mass(g.values, g.n_grids, p) @ g.h_measure()) ** (1.0 / p))


# -- fixture I/O ----------------------------------------------------------------


def save_sampled(g: SampledFunction, path) -> str:
    """Write the HYW1 bytes of g to path, once: the header line, then the
    raw little-endian complex128 values.  Returns their sha256, the digest
    a fixture manifest lists for the file."""
    grids = (*g.n_grids, g.h_grid)
    counts = ",".join(str(gr.n) for gr in grids)
    extents = ",".join(f"{gr.lo:.17g}:{gr.hi:.17g}" for gr in grids)
    seed = g.spec.seed if g.spec is not None else 0
    header = f"HYW1 {counts} {extents} {seed}\n".encode("ascii")
    data = header + np.ascontiguousarray(g.values.astype("<c16")).tobytes()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
