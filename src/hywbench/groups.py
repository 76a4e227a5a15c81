"""Group-extension models: the affine ax+b group and the 3-D Heisenberg group.

Both are semidirect products N x| H with N abelian and H = R one-parameter.
Elements live in cross-section coordinates (n, t), n a vector in R^dim_N and
t the quotient coordinate in which the Haar measure of H is dt (ax+b:
t = log a; Heisenberg: t = x), with multiplication

    (n1, t1) (n2, t2) = (n1 + t1.n2, t1 + t2)

where t.n is conjugation of N by the cross-section alpha(t).  Everything that
makes G nonunimodular is carried by the modular function restricted to H.

On the dual side, characters of N are chi_omega(n) = exp(2 pi i <omega, n>)
and H acts on the parameter omega through

    (t.chi)(n) = chi(alpha(t)^{-1} n alpha(t)),

which for a linear conjugation action is multiplication by the transpose of
the linearized action of -t.  A DualOrbitModel supplies a transversal of
the generic orbits together with quadrature weights for the measure that
makes the operator-valued Plancherel identity hold with constant one:

* ax+b: two orbit atoms (sign of the frequency), each of weight 1;
* Heisenberg: the center frequency lambda with density |lambda| d lambda,
  sampled symmetrically outside a small exclusion window around 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GroupElement",
    "GroupExtensionModel",
    "DualOrbitModel",
    "DualSamplingConfig",
    "character_value",
    "make_group",
    "GROUPS",
]


@dataclass(frozen=True)
class GroupElement:
    """A group element in cross-section coordinates (n, t); h holds t."""

    n: np.ndarray
    h: float

    def __post_init__(self):
        object.__setattr__(self, "n", np.atleast_1d(np.asarray(self.n, dtype=float)))
        object.__setattr__(self, "h", float(self.h))


@dataclass(frozen=True)
class GroupExtensionModel:
    """A semidirect product N x| H in cross-section coordinates (n, t).

    A quotient point is its Haar coordinate t, so H multiplies by adding t.
    conjugation_action and modular_on_H take t; conjugation_action also takes
    an array of quotient points and then answers one row per point.  G is
    unimodular where modular_on_H is 1; a reader that needs to know tests
    Delta on its own grid (grids.modular_on_grid).
    """

    name: str
    dim_N: int
    conjugation_action: Callable[[float, np.ndarray], np.ndarray]
    modular_on_H: Callable[[float], float]

    # -- group operations ------------------------------------------------------

    def multiply(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return GroupElement(x.n + self.conjugation_action(x.h, y.n), x.h + y.h)

    def inverse(self, x: GroupElement) -> GroupElement:
        return GroupElement(-self.conjugation_action(-x.h, x.n), -x.h)

    def modular(self, x: GroupElement) -> float:
        """Modular function of G; constant on cosets of N."""
        return float(self.modular_on_H(x.h))

    # -- dual action -----------------------------------------------------------

    def dual_action(self, t, omega) -> np.ndarray:
        """Parameter of the character chi_omega composed with conjugation at -t.

        For an array of quotient points, one row per point.  omega may hold
        one parameter per column; the image of column j is then column j of
        the answer (of each row's answer, for an array of points).  The
        matrix of n |-> alpha(-t) n alpha(-t)^-1 on N has the images of the
        unit vectors as its columns (exact: the actions are linear); for an
        array of points it is a stack of matrices, one per point.
        """
        a = np.stack([self.conjugation_action(-t, e) for e in np.eye(self.dim_N)], axis=-1)
        return np.swapaxes(a, -1, -2) @ np.atleast_1d(np.asarray(omega, dtype=float))


def character_value(omega, n):
    """chi_omega(n) = exp(2 pi i <omega, n>) at one point n of N."""
    return np.exp(2j * np.pi * float(np.dot(n, omega)))


@dataclass(frozen=True)
class DualSamplingConfig:
    """How to sample the orbit transversal (only Heisenberg has knobs).

    lambda_min excludes a symmetric window around the degenerate frequency 0;
    the window is sized so the Plancherel mass it removes stays below 1e-3 of
    the squared norm for the shipped fixture families.
    """

    lambda_points: int = 64
    lambda_min: float = 2.5e-4
    lambda_max: float = 1.5

    def __post_init__(self):
        if self.lambda_points < 2 or self.lambda_points % 2:
            raise ValueError("lambda_points must be a positive even integer")
        if not 0 < self.lambda_min < self.lambda_max:
            raise ValueError("need 0 < lambda_min < lambda_max")


@dataclass(frozen=True)
class DualOrbitModel:
    """Transversal of the generic dual orbits plus the orbit-space measure:
    transversal(config) gives the points sigma0 and their quadrature weights."""

    group: GroupExtensionModel
    transversal: Callable


def _axb_transversal(config):
    params = np.array([[1.0], [-1.0]])
    weights = np.array([1.0, 1.0])
    return params, weights


def _heisenberg_transversal(config):
    config = config or DualSamplingConfig()
    m = config.lambda_points // 2
    step = (config.lambda_max - config.lambda_min) / m
    lam = config.lambda_min + (np.arange(m) + 0.5) * step
    lam = np.concatenate([-lam[::-1], lam])
    params = np.stack([np.zeros_like(lam), lam], axis=1)
    weights = np.abs(lam) * step
    return params, weights


def _axb_conjugation(t, n):
    # exp(t) as 1 / exp(-t) point by point with math.exp: the dual action at t
    # is then exactly omega / exp(t), and no vectorized exp rounds it
    scale = 1.0 / np.vectorize(math.exp, otypes=[float])(np.negative(t))
    return np.multiply.outer(scale, np.asarray(n, dtype=float))


def _make_axb():
    """The affine group of the line: N = R (translations), H = R_+ (dilations).

    (b, a)(b', a') = (b + a b', a a'), modular function 1/a, carried by
    t = log a.  The dual orbits of H on R-hat \\ {0} are the two frequency
    rays; each carries orbit weight 1.
    """
    model = GroupExtensionModel(
        name="axb",
        dim_N=1,
        conjugation_action=_axb_conjugation,
        modular_on_H=lambda t: 1.0 / math.exp(t),
    )
    dual = DualOrbitModel(
        group=model,
        transversal=_axb_transversal,
    )
    return model, dual


def _heis_conjugation(x, n):
    n = np.asarray(n, dtype=float)
    return np.stack(np.broadcast_arrays(n[0], n[1] + x * n[0]), axis=-1)


def _make_heisenberg():
    """The 3-D Heisenberg group in coordinates (n, t) = ((y, z), x).

    Triple product (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x y'); N is the
    abelian normal subgroup {(0, y, z)} and the cross-section is x |-> (x,0,0).
    Unimodular.  Generic dual orbits are the horizontal lines of fixed center
    frequency lambda != 0, with orbit-space density |lambda| d lambda.
    """
    model = GroupExtensionModel(
        name="heisenberg",
        dim_N=2,
        conjugation_action=_heis_conjugation,
        modular_on_H=lambda x: 1.0,
    )
    dual = DualOrbitModel(
        group=model,
        transversal=_heisenberg_transversal,
    )
    return model, dual


GROUPS = {"axb": _make_axb, "heisenberg": _make_heisenberg}


def make_group(name: str):
    """Build (GroupExtensionModel, DualOrbitModel) by name."""
    if name not in GROUPS:
        raise ValueError(f"unknown group {name!r}; expected one of {tuple(GROUPS)}")
    return GROUPS[name]()
