"""The four benchmark workloads, each a function of the seed.

Every workload has a set-up step (make_group and the grids, which is what a
user pays before the first check) and a pass.  A pass returns the check
records it produced and a deterministic report body; the body of a CLI
workload is the non-``#`` part of the ``hyw run`` report, the body of a
direct workload is one sorted JSON line per record.

Workloads call the package through module attributes (``cli.run_suite``,
``verify.check_plancherel``, ``grids.sample``) so that a Tracer's rebinding
takes effect.  ``scale="small"`` shrinks every workload for the benchmark's
own tests; the benchmark itself always runs ``scale="full"``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from typing import NamedTuple

from hywbench import cli, grids, make_group, verify

HY_SWEEP_P = (1.2, 1.5, 1.8, 2.0)
REFINE_P = 1.5
REFINE_LEVELS = {"axb": (0, 1, 2), "heisenberg": (0, 1)}
REFINE_RANDOM_ONLY = {("heisenberg", 1)}


def _no_span(name, family=False):
    return contextlib.nullcontext()


def _record(res, family, **labels):
    rec = dataclasses.asdict(res)
    rec["family"] = family
    rec.update(labels)
    return rec


def _body(records):
    return "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n" for r in records)


def _gaussian_rhs(group, count, n_grids, h_grid, ps):
    """Right-hand sides of the Plancherel and Hausdorff-Young checks on the
    first `count` catalog Gaussians: how their records are told apart from
    those of the seeded random fixtures."""
    model, _ = make_group(group)
    out = []
    for spec in verify.gaussian_fixtures(group, count):
        g = grids.sample(spec, n_grids, h_grid, model)
        out.append(grids.lp_norm_G(g, 2.0) ** 2)
        out += [verify.babenko_constant(p, g.dim_N) * grids.lp_norm_G(g, p) for p in ps]
    return out


class _Level(NamedTuple):
    group: str
    level: int
    model: object
    dual: object
    sampling: object
    n_grids: tuple
    h_grid: object
    specs: list


def _refined(grid, level):
    for _ in range(level):
        grid = grid.balanced_refine()
    return grid


class CliRun:
    """``hyw run`` through cli.run_suite, all families, fresh per pass."""

    def __init__(self, group, p, seed, scale):
        self.cfg = dict(group=group, p=p, seed=seed)
        if scale == "small":
            self.cfg["checks"] = ("proof-chain", "hausdorff-young")
        make_group(group)
        self.grids = cli.RunConfig(**self.cfg).grids()

    def gaussian_rhs(self):
        return _gaussian_rhs(self.cfg["group"], 5, *self.grids, self.cfg["p"])

    def run(self, span):
        _, _, text = cli.run_suite(cli.RunConfig(**self.cfg))
        body = "".join(ln + "\n" for ln in text.splitlines() if not ln.startswith("#"))
        lines = body.splitlines()[1:]  # after the HYWREPORT version line
        records = [rec for rec in map(json.loads, lines) if rec["record"] == "check"]
        return records, body, {}


class HeisHySweep:
    """hausdorff_young_margins over fixed Gaussian and seeded random Heisenberg
    fixtures at several exponents: one pairing per fixture, SVD-dominated."""

    def __init__(self, seed, scale):
        self.model, self.dual = make_group("heisenberg")
        self.n_grids, self.h_grid = verify.default_grids("heisenberg")
        self.sampling = verify.default_sampling_config("heisenberg")
        gaussians, randoms = (1, 1) if scale == "small" else (2, 2)
        self.specs = verify.gaussian_fixtures("heisenberg", gaussians) + verify.random_fixtures(
            "heisenberg", randoms, base_seed=seed
        )
        self.ps = (1.5, 2.0) if scale == "small" else HY_SWEEP_P
        self.gaussians = gaussians

    def gaussian_rhs(self):
        return _gaussian_rhs("heisenberg", self.gaussians, self.n_grids, self.h_grid, self.ps)

    def run(self, span):
        records = []
        for spec in self.specs:
            g = grids.sample(spec, self.n_grids, self.h_grid, self.model)
            with span("hausdorff-young", family=True):
                results = verify.hausdorff_young_margins(
                    g, self.dual, self.ps, "sharp", self.sampling
                )
            records += [
                _record(r, "hausdorff-young", fixture=spec.key(), p=p)
                for p, r in zip(self.ps, results)
            ]
        return records, _body(records), {}


class Refine:
    """Plancherel and Hausdorff-Young at p = 1.5 on balanced-refined grids.

    Every level runs the seeded random fixture; every level but the finest
    Heisenberg one also runs the fixed catalog Gaussian.  At Heisenberg 2x
    one fixture costs about 15 s, so that level keeps only the random one,
    whose meshgrid sampling is the cost this workload exists to show.
    """

    def __init__(self, seed, scale):
        self.levels = []
        for group, levels in REFINE_LEVELS.items():
            model, dual = make_group(group)
            n_grids, h_grid = verify.default_grids(group)
            gaussian = verify.gaussian_fixtures(group, 1)
            random = verify.random_fixtures(group, 1, base_seed=seed)
            for level in levels[:1] if scale == "small" else levels:
                self.levels.append(
                    _Level(
                        group,
                        level,
                        model,
                        dual,
                        verify.default_sampling_config(group),
                        tuple(_refined(g, level) for g in n_grids),
                        _refined(h_grid, level),
                        random if (group, level) in REFINE_RANDOM_ONLY else gaussian + random,
                    )
                )

    def gaussian_rhs(self):
        out = []
        for lv in self.levels:
            gaussians = sum(spec.kind == "gaussian" for spec in lv.specs)
            out += _gaussian_rhs(lv.group, gaussians, lv.n_grids, lv.h_grid, (REFINE_P,))
        return out

    def run(self, span):
        records, curve = [], []
        for lv in self.levels:
            start = time.perf_counter()
            errors = []
            for spec in lv.specs:
                g = grids.sample(spec, lv.n_grids, lv.h_grid, lv.model)
                labels = dict(fixture=spec.key(), level=lv.level)
                with span("plancherel", family=True):
                    pl = verify.check_plancherel(g, lv.dual, lv.sampling)
                with span("hausdorff-young", family=True):
                    hy = verify.hausdorff_young_margins(
                        g, lv.dual, (REFINE_P,), "sharp", lv.sampling
                    )
                records.append(_record(pl, "plancherel", **labels))
                records += [_record(r, "hausdorff-young", p=REFINE_P, **labels) for r in hy]
                errors.append(abs(pl.lhs - pl.rhs) / max(abs(pl.lhs), abs(pl.rhs)))
            curve.append(
                dict(
                    group=lv.group,
                    level=lv.level,
                    h_points=lv.h_grid.n,
                    n_points=[gr.n for gr in lv.n_grids],
                    fixtures=[spec.kind for spec in lv.specs],
                    seconds=time.perf_counter() - start,
                    plancherel_rel_err=errors,
                )
            )
        return records, _body(records), {"refinement_curve": curve}


def prepare(name, seed, scale="full"):
    """Set up a workload: everything a user pays before the first check."""
    if name == "heis-run":
        return CliRun("heisenberg", (1.5,), seed, scale)
    if name == "axb-run":
        return CliRun("axb", (1.2, 1.5, 1.8), seed, scale)
    if name == "heis-hy-sweep":
        return HeisHySweep(seed, scale)
    if name == "refine":
        return Refine(seed, scale)
    raise ValueError(f"unknown workload {name!r}")


def run_pass(workload, tracer=None):
    """One pass: (check records, report body, extra observations)."""
    return workload.run(tracer.span if tracer is not None else _no_span)
