"""Planted defects: each must fail at least one ``hyw run`` family.

A defect is patched from outside the package, the way perfbench/tracer.py
counts layers: a module-level function is rebound in every hywbench module
that imported it by name.  Each case runs the smallest family selection that
catches its defect, checks that the selection passes without it, and names
the checks the defect must fail.
"""

import numpy as np
import pytest

from hywbench import cli, grids, groups, schatten, transform, verify
from hywbench.cli import RunConfig, run_suite

MODULES = (groups, grids, schatten, transform, verify, cli)


def plant(monkeypatch, module, name, defect):
    """Rebind module.name to defect(original) wherever it was imported by name."""
    original = getattr(module, name)
    for mod in MODULES:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, defect(original))


def constant_too_small(babenko_constant):
    return lambda p, dim=1, regime="sharp": 0.998 * babenko_constant(p, dim, regime)


def norm_at_two(lp_norm_G):
    return lambda g, p: lp_norm_G(g, 2.0)


def flat_weights(transversal):
    def flattened(config):
        params, weights = transversal(config)
        return params, np.full_like(weights, weights.mean())

    return flattened


# defect -> (where it is planted, the run that catches it, the checks it fails)
MUTANTS = {
    # the Babenko-Beckner constant 0.2% too small: Gaussian slices attain it,
    # so the chain's slice bound, which reads the record's slice ratios,
    # fails on both catalog Gaussians
    "constant-too-small": (
        (verify, "babenko_constant", constant_too_small),
        RunConfig(group="axb", checks=("proof-chain",)),
        {"proof-chain:slice-bound": 2},
    ),
    # the record's ||g||_p read at p = 2 for every exponent (rhs too small at p = 1.5)
    "record-norm-at-two": (
        (grids, "lp_norm_G", norm_at_two),
        RunConfig(group="axb", checks=("hausdorff-young", "proof-chain")),
        {"hausdorff-young": 6, "proof-chain:slice-hausdorff-young": 3},
    ),
    # the Heisenberg orbit weights |lambda| d lambda flattened to their mean
    "flat-orbit-weights": (
        (groups, "_heisenberg_transversal", flat_weights),
        RunConfig(group="heisenberg", checks=("proof-chain",)),
        {"proof-chain:slice-hausdorff-young": 3},
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_planted_defect_fails_a_family(monkeypatch, mutant):
    (module, name, defect), cfg, expected = MUTANTS[mutant]
    _, summary, _ = run_suite(cfg.validate())
    assert summary["failed"] == 0
    plant(monkeypatch, module, name, defect)
    records, _, _ = run_suite(cfg.validate())
    failed = [r["name"] for r in records if not r["passed"]]
    assert {n: failed.count(n) for n in failed} == expected
