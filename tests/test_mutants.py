"""Planted defects: each must fail at least one ``hyw run`` family.

A defect is patched from outside the package, the way perfbench/tracer.py
counts layers: a module-level function is rebound in every hywbench module
that imported it by name, and a method is rebound on its class.  Each case
runs the smallest family selection that catches its defect, checks that the
selection passes without it, and names the checks the defect must fail.

Three defects fail no family and are not cases here.  The pairing table
read one slice off on Heisenberg is exactly a right translation along H by
one step, with wraparound: there Delta = 1, so it changes no norm (see
test_translation_along_h_shifts_the_kernel_columns), and the per-orbit
Mehler pin in tests/test_oracle.py does not catch it either (its errors stay
at 5.8e-7 or less); the direct-representation tests in
tests/test_transform.py do.  The first kept row of each kernel dropped fails
nothing, because edge rows carry negligible mass.  The Babenko-Beckner
constant 1% too large below p = 2 passes every check on both groups, since
no shipped Gaussian comes within 1% of the supremum; the Gaussian supremum
tests in tests/test_oracle.py, on Heisenberg and on ax+b, catch it.

The Gram matrix of the all-p >= 2 route of schatten_norms taken without
the conjugate (b @ b.T for b @ b*) halves the orbit sums of the seed-0
random fixture on both groups: it lowers the transform side, the small side
of every inequality it enters, so no bound alone fails on it.  It is a
case because the eigenvalues of b @ b.T then miss the mass of b, summed
over its entries, and schatten_norms gives NaN norms where a factorization
loses mass; tests/test_schatten.py imports the same plant to show that
its Gram-route test fails it.
The cross norm with its exponents swapped is a case, but only through the
norm chain: the russo-fournier suite passes it on both groups, because
every random kernel still meets the averaging bound with the swapped norms.

A real fixture is paired on half of its symmetric transversal, the
orbits at -sigma repeating those at sigma; a complex one is not, and the
mirror planted for complex fixtures too fails plancherel on every random
fixture of both groups.

One change is planted to show that it changes nothing: an all-zero row
appended to every kernel.  The kernel keeps only its nonzero rows, and
restricting the codomain to them is an isometry, so a zero row must move no
norm and no verdict.

The no-modular-factor defect is also caught without a run: the ax+b kernel
closed form in tests/test_oracle.py holds the exponent-0 kernel off by at
least 1.2 of the largest entry on every catalog Gaussian, orbit and q, and
the per-orbit ax+b pin there puts each orbit of catalog Gaussian 0 at 191 to
465 times its oracle value.

A defect must fail a check, not raise out of one, so no function in the
package asserts: an assert turns a wrong value into a traceback, and under
python -O it is gone.  NaN is the one failure signal of the numerics: a
pairing table whose nonzero entries are NaN gives NaN Schatten norms, cross
norms and slice masses, so every check that reads the table fails and the
report is still written.  The proof-chain slice bound reads the FFT of g,
not the table, and passes.
"""

import ast
import inspect
import json
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from hywbench import cli, grids, groups, schatten, transform, verify
from hywbench.cli import RunConfig, main, run_suite
from hywbench.schatten import WeightedKernel

MODULES = (groups, grids, schatten, transform, verify, cli)


def plant(monkeypatch, owner, name, defect):
    """Rebind owner.name to defect(original), and wherever it was imported by name."""
    original = getattr(owner, name)
    planted = defect(original)
    for where in (owner, *MODULES):
        if getattr(where, name, None) is original:
            monkeypatch.setattr(where, name, planted)


def constant_too_small(babenko_constant):
    return lambda p, dim=1, regime="sharp": 0.998 * babenko_constant(p, dim, regime)


def norm_at_two(lp_norm_G):
    return lambda g, p: lp_norm_G(g, 2.0)


def flat_weights(transversal):
    def flattened(config):
        params, weights = transversal(config)
        return params, np.full_like(weights, weights.mean())

    return flattened


def no_modular_factor(kernel_from_pair_table):
    return lambda P, h_grid, delta_h, exponent: kernel_from_pair_table(P, h_grid, delta_h, 0.0)


def one_slice_off(kernel_from_pair_table):
    return lambda P, *rest: kernel_from_pair_table(np.roll(P, 1, axis=1), *rest)


def heaviest_row_dropped(kernel_from_pair_table):
    def dropped(*args):
        k = kernel_from_pair_table(*args)
        if not len(k.values):
            return k
        i = int(np.argmax(np.sum(np.abs(k.values) ** 2, axis=1)))
        return WeightedKernel(np.delete(k.values, i, 0), np.delete(k.xi_weights, i), k.gamma_weights)

    return dropped


def zero_row_appended(kernel_from_pair_table, calls):
    def appended(*args):
        calls.append(1)
        k = kernel_from_pair_table(*args)
        values = np.vstack([k.values, np.zeros((1, k.values.shape[1]))])
        return WeightedKernel(values, np.append(k.xi_weights, k.gamma_weights[0]), k.gamma_weights)

    return appended


def exponents_swapped(cross_norm_qpq):
    """Both cross norms with inner exponent q and outer p."""

    def swapped(k, p):
        q = schatten.conjugate_exponent(p)
        mass = np.abs(k.values) ** q
        direct = (mass * k.xi_weights[:, None]).sum(axis=0) ** (p / q) @ k.gamma_weights
        adjoint = (mass * k.gamma_weights).sum(axis=1) ** (p / q) @ k.xi_weights
        return float(direct ** (1.0 / p)), float(adjoint ** (1.0 / p))

    return swapped


def gram_without_conjugate(schatten_norms):
    """The Gram matrix of the all-p >= 2 route taken as b @ b.T, not b @ b*."""
    source = inspect.getsource(schatten_norms)
    assert source.count("a.conj().T") == 1
    namespace = dict(vars(schatten))
    exec(source.replace("a.conj().T", "a.T"), namespace)
    return namespace["schatten_norms"]


def nan_table(pair):
    """Every nonzero entry of the pairing table NaN; out-of-band rows stay 0."""

    def planted(cs, omegas):
        table = pair(cs, omegas)
        table[table != 0] *= np.nan
        return table

    return planted


def mirror_ignores_realness(mirrored):
    """The orbits at -sigma taken from those at sigma for every g on a
    symmetric transversal, complex or real."""
    return lambda g, params: mirrored(SimpleNamespace(values=g.values.real), params)


def action_at_t(dual_action):
    """The dual action conjugating at t instead of -t."""
    return lambda model, t, omega: dual_action(model, -t, omega)


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
    # the same constant on Heisenberg, where nilpotent-bound squares it: only
    # the slice bound fails, and no check raises
    "constant-too-small-heisenberg": (
        (verify, "babenko_constant", constant_too_small),
        RunConfig(group="heisenberg", checks=("proof-chain", "nilpotent-bound")),
        {"proof-chain:slice-bound": 2},
    ),
    # the Delta^(1/q) column factor of the kernel dropped
    "no-modular-factor": (
        (transform, "kernel_from_pair_table", no_modular_factor),
        RunConfig(group="axb", checks=("plancherel",)),
        {"plancherel": 10},
    ),
    # the kernel reads the pairing table one slice off
    "table-one-slice-off": (
        (transform, "kernel_from_pair_table", one_slice_off),
        RunConfig(group="axb", checks=("plancherel",)),
        {"plancherel": 10},
    ),
    # the row of each kernel that carries the most mass dropped
    "heaviest-row-dropped-axb": (
        (transform, "kernel_from_pair_table", heaviest_row_dropped),
        RunConfig(group="axb", checks=("plancherel",)),
        {"plancherel": 10},
    ),
    "heaviest-row-dropped-heisenberg": (
        (transform, "kernel_from_pair_table", heaviest_row_dropped),
        RunConfig(group="heisenberg", checks=("plancherel",)),
        {"plancherel": 10},
    ),
    # the cross norm's exponents swapped: the orbit averaging bound still
    # holds, but each cross norm overshoots the swapped iterated form V3
    "cross-norm-exponents-swapped": (
        (schatten, "cross_norm_qpq", exponents_swapped),
        RunConfig(group="axb", checks=("proof-chain",)),
        {
            "proof-chain:minkowski-direct": 3,
            "proof-chain:minkowski-adjoint": 3,
            "proof-chain:minkowski-swap": 3,
        },
    ),
    # the Gram matrix without its conjugate: its eigenvalues miss the
    # mass of a complex kernel, so every norm it gives there is NaN and each
    # check that reads one fails
    "gram-without-conjugate-axb": (
        (schatten, "schatten_norms", gram_without_conjugate),
        RunConfig(group="axb", checks=("hausdorff-young", "proof-chain")),
        {"hausdorff-young": 4, "proof-chain:orbit-averaging": 1, "proof-chain:averaging": 1},
    ),
    "gram-without-conjugate-heisenberg": (
        (schatten, "schatten_norms", gram_without_conjugate),
        RunConfig(group="heisenberg", checks=("hausdorff-young", "proof-chain")),
        {"hausdorff-young": 5, "proof-chain:orbit-averaging": 2, "proof-chain:averaging": 2},
    ),
    # a NaN in every pairing table: each check that reads the table fails,
    # on ax+b with one kernel per exponent
    "nan-pairing-table": (
        (transform.CharacterSlice, "pair", nan_table),
        RunConfig(group="axb", checks=("plancherel", "hausdorff-young", "proof-chain")),
        {
            "plancherel": 10,
            "hausdorff-young": 6,
            **{
                f"proof-chain:{link}": 3
                for link in (
                    "orbit-averaging",
                    "averaging",
                    "cauchy-schwarz",
                    "minkowski-direct",
                    "minkowski-adjoint",
                    "minkowski-swap",
                    "slice-hausdorff-young",
                )
            },
        },
    ),
    # a complex fixture mirrored as if real: its norms at -sigma differ from
    # those at sigma, so plancherel fails every random fixture on both
    # groups, and on ax+b at three exponents hausdorff-young and the chain's
    # last link fail twice each
    "mirror-ignores-realness-heisenberg": (
        (verify, "_mirrored", mirror_ignores_realness),
        RunConfig(group="heisenberg", checks=("plancherel",)),
        {"plancherel": 5},
    ),
    "mirror-ignores-realness-axb": (
        (verify, "_mirrored", mirror_ignores_realness),
        RunConfig(group="axb", p=(1.2, 1.5, 1.8), checks=("plancherel", "hausdorff-young", "proof-chain")),
        {"plancherel": 5, "hausdorff-young": 2, "proof-chain:slice-hausdorff-young": 2},
    ),
    # the dual action taken at t instead of -t (the id keeps the quotient
    # point's field name h): on ax+b the image measure scales by 1/Delta(t),
    # so every box but the identity's fails (the Heisenberg shear preserves
    # area either way)
    "dual-action-at-h": (
        (groups.GroupExtensionModel, "dual_action", action_at_t),
        RunConfig(group="axb", checks=("dual-measure-scaling",)),
        {"dual-measure-scaling": 99},
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_planted_defect_fails_a_family(monkeypatch, mutant):
    (owner, name, defect), cfg, expected = MUTANTS[mutant]
    _, summary, _ = run_suite(cfg.validate())
    assert summary["failed"] == 0
    plant(monkeypatch, owner, name, defect)
    records, _, _ = run_suite(cfg.validate())
    failed = [r["name"] for r in records if not r["passed"]]
    assert {n: failed.count(n) for n in failed} == expected


def test_a_nan_pairing_table_fails_the_shared_gram_run_with_a_report(monkeypatch, tmp_path):
    # Heisenberg is unimodular, so p = 1.2 and 1.5 read one Gram matrix per orbit
    args = ["run", "--quiet", "--group", "heisenberg", "--p", "1.2,1.5", "--checks", "hausdorff-young"]
    assert main([*args, "--out", str(tmp_path / "clean.jsonl")]) == 0
    plant(monkeypatch, transform.CharacterSlice, "pair", nan_table)
    out = tmp_path / "planted.jsonl"
    assert main([*args, "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert lines[0] == "HYWREPORT 1"
    records = [json.loads(line) for line in lines[1:] if not line.startswith("#")]
    checks = [r for r in records if r["record"] == "check"]
    assert len(checks) == 12 and not any(r["passed"] for r in checks)


def test_no_function_in_the_package_asserts():
    # nor does any module body: python -O strips an assert, so no check may be one
    root = pathlib.Path(cli.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        nodes = ast.walk(ast.parse(path.read_text()))
        found += [f"{path.name}:{node.lineno}" for node in nodes if isinstance(node, ast.Assert)]
    assert not found


@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(group="axb", p=(1.2, 1.5), checks=("plancherel", "hausdorff-young", "proof-chain")),
        RunConfig(
            group="heisenberg",
            p=(1.2, 1.5),
            checks=("plancherel", "hausdorff-young", "proof-chain", "nilpotent-bound"),
        ),
    ],
    ids=["axb", "heisenberg"],
)
def test_a_zero_kernel_row_changes_no_record(monkeypatch, cfg):
    before, _, _ = run_suite(cfg.validate())
    calls = []
    plant(monkeypatch, transform, "kernel_from_pair_table", lambda f: zero_row_appended(f, calls))
    after, _, _ = run_suite(cfg.validate())
    assert calls and len(after) == len(before)
    for a, b in zip(before, after):
        assert (a["name"], a["passed"]) == (b["name"], b["passed"])
        for side in ("lhs", "rhs"):
            assert abs(a[side] - b[side]) <= 1e-12 * max(abs(a[side]), abs(b[side])), (a["name"], side)
