"""Batch entry point: configuration, suite orchestration, fixtures, reports.

Subcommands:

* ``run``      execute selected check families and write a report;
* ``explain``  print what a check family asserts and at which slack: the
  docstring of the ``verify`` check behind it;
* ``fixtures`` regenerate the frozen fixture files with checksums.

Report format (versioned): the first line is ``HYWREPORT 1``; every other
line is either a JSON record (``config``, ``model``, ``check``, ``summary``)
or a ``#`` comment.  Comment lines carry timestamps, the wall time of each
family (``# family <name> <seconds>s``) and human-oriented prose, and are
excluded from the determinism contract; the non-comment body is
byte-identical across runs with the same configuration and seed, numpy/BLAS
build and BLAS thread count.  The report is written atomically (temp file,
then rename) even when checks fail.  JSON has no non-finite numbers, so an
overflowed or undefined value (exponents within about 0.005 of 1 overflow
the q-th powers of the norm chain) is written as the string ``"inf"``,
``"-inf"`` or ``"nan"``; a check holding one fails (numpy does not warn).
Every family, semi-invariance included, runs on the run's grids, the ones
the ``model`` record shows.

Exit codes: 0 all selected checks pass, 1 at least one check failed,
2 configuration or usage error, or an output path that cannot be written
(``run --out`` naming a directory is rejected before any check runs).
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import inspect
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .grids import fixture_checksum, make_grids, sample, save_sampled
from .groups import GROUPS, make_group
from . import verify
from .verify import (
    check_dual_measure_scaling,
    check_gaussian_extremality,
    check_nilpotent_bound,
    check_plancherel,
    check_proof_chain,
    check_semi_invariance,
    default_sampling_config,
    dual_measure_suite,
    gaussian_fixtures,
    hausdorff_young_margins,
    minkowski_random_suite,
    random_fixtures,
    russo_fournier_random_suite,
    schatten_property_suite,
    semi_invariance_suite,
    spectral_record,
)

__all__ = ["RunConfig", "ConfigError", "CHECK_FAMILIES", "run_suite", "explain", "main"]


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 2."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_extent(value) -> bool:
    """A [lo, hi] pair of numbers."""
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value))


def _check_seed(seed):
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed={seed!r} is not a nonnegative integer")


@dataclass
class RunConfig:
    group: str = "axb"
    p: tuple = (1.5,)
    grid_n: int | None = None
    grid_h: int | None = None
    n_extents: tuple | None = None
    h_extent: tuple | None = None
    seed: int = 0
    checks: tuple = ("all",)
    constants: str = "sharp"
    tolerances: dict = field(default_factory=dict)
    out: str = "hyw-report.jsonl"

    def validate(self):
        """Check every field and normalize p and checks to tuples (a single
        value becomes a one-element tuple, exponents become floats)."""
        if not (isinstance(self.group, str) and self.group in GROUPS):
            raise ConfigError(f"unknown group {self.group!r}; choose from {tuple(GROUPS)}")
        self.p, self.checks = (
            tuple(v) if isinstance(v, (list, tuple)) else (v,) for v in (self.p, self.checks)
        )
        try:
            self.p = tuple(float(p) for p in self.p)
        except (TypeError, ValueError):
            raise ConfigError(f"exponents p={self.p!r} are not a list of numbers") from None
        if not self.p:
            raise ConfigError("need at least one exponent p")
        for p in self.p:
            if not 1.0 < p <= 2.0:
                raise ConfigError(f"exponent p={p} outside (1, 2]")
        for label, size in (("grid-n", self.grid_n), ("grid-h", self.grid_h)):
            if size is not None and not (_is_int(size) and size >= 4 and not size & (size - 1)):
                raise ConfigError(f"{label}={size!r} is not an integer power of two >= 4")
        _check_seed(self.seed)
        if self.constants not in ("sharp", "classical"):
            raise ConfigError(f"unknown constant regime {self.constants!r}")
        if not isinstance(self.tolerances, dict):
            raise ConfigError("tolerances must map tolerance classes to numbers")
        unknown = set(self.tolerances) - set(verify.TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerance classes {sorted(unknown)}")
        for name, tol in self.tolerances.items():
            if not (_is_number(tol) and math.isfinite(tol) and tol >= 0):
                raise ConfigError(f"tolerance {name}={tol!r} is not a finite number >= 0")
        bad = [
            c
            for c in self.checks
            if not isinstance(c, str) or (c and c != "all" and c not in CHECK_FAMILIES)
        ]
        if bad:
            raise ConfigError(
                f"unknown checks {bad}; valid: {', '.join(CHECK_FAMILIES)} (or 'all')"
            )
        if "nilpotent-bound" in self.checks and self.group != "heisenberg":
            raise ConfigError(f"nilpotent-bound is specific to heisenberg, not {self.group}")
        if not (isinstance(self.out, str) and self.out):
            raise ConfigError(f"out={self.out!r} is not a path")
        if os.path.isdir(self.out):
            raise ConfigError(f"out={self.out!r} is a directory, not a report path")
        if self.h_extent is not None and not _is_extent(self.h_extent):
            raise ConfigError(f"h_extent must be [lo, hi] numbers, got {self.h_extent!r}")
        axes = len(verify.DESK_GRIDS[self.group]["n_counts"])
        if self.n_extents is not None and not (
            isinstance(self.n_extents, (list, tuple))
            and len(self.n_extents) == axes
            and all(map(_is_extent, self.n_extents))
        ):
            raise ConfigError(
                f"n_extents must be {axes} [lo, hi] number pair(s), one per"
                f" normal-subgroup axis of {self.group}, got {self.n_extents!r}"
            )
        try:
            self.grids()
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"bad grid extents: {exc}") from None
        return self

    def selected_families(self):
        names = [c for c in self.checks if c]
        if "all" in names:
            return [
                name
                for name in CHECK_FAMILIES
                if name != "nilpotent-bound" or self.group == "heisenberg"
            ]
        # canonical report ordering regardless of how the selection was spelled
        return [name for name in CHECK_FAMILIES if name in names]

    def grids(self):
        base = dict(verify.DESK_GRIDS[self.group])
        if self.grid_n is not None:
            base["n_counts"] = [self.grid_n] * len(base["n_counts"])
        if self.grid_h is not None:
            base["h_count"] = self.grid_h
        if self.n_extents is not None:
            base["n_extents"] = [tuple(e) for e in self.n_extents]
        if self.h_extent is not None:
            base["h_extent"] = tuple(self.h_extent)
        return make_grids(**base)


@contextlib.contextmanager
def _tolerance_overrides(overrides):
    saved = dict(verify.TOLERANCES)
    verify.TOLERANCES.update(overrides)
    try:
        yield
    finally:
        verify.TOLERANCES.clear()
        verify.TOLERANCES.update(saved)


# -- check families ------------------------------------------------------------------
#
# Every family takes the run configuration and the run.

# fixture pool of each sampling family: (catalog Gaussians, seeded randoms)
POOLS = {
    "plancherel": (5, 5),
    "hausdorff-young": (2, 4),
    "proof-chain": (2, 1),
    "gaussian-extremality": (1, 0),
    "nilpotent-bound": (2, 3),
}


class _Run:
    """What the families of one run read: the group model and dual, the grids,
    the dual sampling, the fixture pools and a spectral record per pooled recipe,
    built on first request at what the plan says the selected families need."""

    def __init__(self, cfg: RunConfig):
        self.p = cfg.p
        self.model, self.dual = make_group(cfg.group)
        self.n_grids, self.h_grid = cfg.grids()
        self.sampling = default_sampling_config(cfg.group)
        self.pools = {
            family: gaussian_fixtures(cfg.group, n)
            + random_fixtures(cfg.group, m, base_seed=cfg.seed)
            for family, (n, m) in POOLS.items()
        }
        self.plan, self.built = {}, {}
        for family in cfg.selected_families():
            if family not in POOLS or family == "gaussian-extremality":  # reads no record
                continue
            ps = self.exponents(family)
            for spec in self.pools[family]:
                need_ps, need_chain = self.plan.setdefault(spec.key(), (set(), set()))
                need_ps.update(ps)
                need_chain.update(ps if family == "proof-chain" else ())

    def exponents(self, family):
        """plancherel checks only p = 2, nilpotent-bound only p < 2, the rest the run's p."""
        if family == "plancherel":
            return (2.0,)
        return tuple(p for p in self.p if p < 2.0 or family != "nilpotent-bound")

    def cases(self, family):
        """(p, fixture) exponent-major, the pool sampled once on the run's grids (not if no p)."""
        ps = self.exponents(family)
        if not ps:
            return []
        pool = [sample(s, self.n_grids, self.h_grid, self.model) for s in self.pools[family]]
        return [(p, g) for p in ps for g in pool]

    def record(self, g):
        key = g.spec.key()
        if key not in self.built:
            ps, chain = self.plan[key]
            self.built[key] = spectral_record(g, self.dual, ps, self.sampling, chain)
        return self.built[key]


def _family_plancherel(cfg, run):
    return [
        check_plancherel(g, run.dual, run.sampling, record=run.record(g))
        for _, g in run.cases("plancherel")
    ]


def _family_hausdorff_young(cfg, run):
    return [
        r
        for p, g in run.cases("hausdorff-young")
        for r in hausdorff_young_margins(
            g, run.dual, (p,), cfg.constants, run.sampling, run.record(g)
        )
    ]


@np.errstate(invalid="ignore")  # an overflowed link times 0 or minus itself: nan, failed closed
def _family_proof_chain(cfg, run):
    return [
        r
        for p, g in run.cases("proof-chain")
        for r in check_proof_chain(g, run.dual, p, cfg.constants, run.sampling, run.record(g))
    ]


def _family_gaussian_extremality(cfg, run):
    return [check_gaussian_extremality(g, p) for p, g in run.cases("gaussian-extremality")]


def _family_nilpotent(cfg, run):
    return [
        check_nilpotent_bound(g, run.dual, p, run.sampling, run.record(g))
        for p, g in run.cases("nilpotent-bound")
    ]


CHECK_FAMILIES = {
    "schatten-suite": lambda cfg, _: [schatten_property_suite(count=20, size=32, seed=cfg.seed)],
    "russo-fournier": lambda cfg, _: [russo_fournier_random_suite(count=1000, seed=cfg.seed)],
    "minkowski": lambda cfg, _: [minkowski_random_suite(count=1000, seed=cfg.seed)],
    "dual-measure-scaling": lambda cfg, run: dual_measure_suite(
        run.model, count=100, seed=cfg.seed
    ),
    "semi-invariance": lambda cfg, run: semi_invariance_suite(
        run.dual, run.sampling, run.h_grid, count=20, seed=cfg.seed
    ),
    "plancherel": _family_plancherel,
    "hausdorff-young": _family_hausdorff_young,
    "proof-chain": _family_proof_chain,
    "gaussian-extremality": _family_gaussian_extremality,
    "nilpotent-bound": _family_nilpotent,
}


# -- report --------------------------------------------------------------------------


def _json_safe(value):
    """value with every non-finite float, at any dict depth, written as the
    string "inf", "-inf" or "nan", which JSON has no numbers for."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _json_line(record_kind, payload):
    body = _json_safe({"record": record_kind, **payload})
    return json.dumps(body, sort_keys=True, allow_nan=False)


def _model_record(run: _Run):
    model, sampling = run.model, run.sampling
    rec = {
        "group": model.name,
        "dim_N": model.dim_N,
        "unimodular": model.unimodular,
        "n_grids": [[g.lo, g.hi, g.n] for g in run.n_grids],
        "h_grid": [run.h_grid.lo, run.h_grid.hi, run.h_grid.n],
    }
    if sampling is not None:
        rec["dual_sampling"] = [sampling.lambda_min, sampling.lambda_max, sampling.lambda_points]
    return rec


def _summary(records):
    passed = sum(r["passed"] for r in records)
    worst_ineq = worst_eq = None
    for r in records:
        if r["kind"] == "inequality" and r["rhs"] > 0:
            ratio = r["lhs"] / r["rhs"]
            if worst_ineq is None or ratio > worst_ineq["ratio"]:
                worst_ineq = {"name": r["name"], "family": r["family"], "ratio": ratio}
        elif r["kind"] in ("equality", "deviation"):
            scale = max(abs(r["lhs"]), abs(r["rhs"]), 1e-300)
            rel = abs(r["lhs"] - r["rhs"]) / scale if r["kind"] == "equality" else r["lhs"]
            if worst_eq is None or rel > worst_eq["deviation"]:
                worst_eq = {"name": r["name"], "family": r["family"], "deviation": rel}
    return {
        "checks": len(records),
        "passed": passed,
        "failed": len(records) - passed,
        "worst_inequality": worst_ineq,
        "worst_equality": worst_eq,
    }


def run_suite(cfg: RunConfig, stream=None):
    """Execute the selected families; returns (records, summary, report text)."""
    cfg.validate()
    echo = asdict(cfg)
    echo.pop("out")  # destination is not part of the deterministic body
    echo["checks"] = cfg.selected_families()
    records, timings, run = [], [], _Run(cfg)
    # an overflowed value fails its check closed and is reported: no numpy warning
    with _tolerance_overrides(cfg.tolerances), np.errstate(over="ignore"):
        for family in cfg.selected_families():
            start = time.perf_counter()
            for res in CHECK_FAMILIES[family](cfg, run):
                rec = asdict(res)
                rec["family"] = family
                records.append(rec)
                if stream is not None:
                    print(res, file=stream)
            timings.append(f"# family {family} {time.perf_counter() - start:.3f}s")
    summary = _summary(records)
    lines = ["HYWREPORT 1"]
    lines.append("# generated " + datetime.datetime.now(datetime.timezone.utc).isoformat())
    lines.append(_json_line("config", {**echo, "version": __version__, "numpy": np.__version__}))
    lines.append(_json_line("model", _model_record(run)))
    lines.extend(_json_line("check", r) for r in records)
    lines.append(_json_line("summary", summary))
    lines.append(
        f"# {summary['checks']} checks: {summary['passed']} passed, {summary['failed']} failed"
    )
    lines.extend(timings)
    return records, summary, "\n".join(lines) + "\n"


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# -- explain -------------------------------------------------------------------------

# the check whose docstring states what each family asserts and at which slack
EXPLAINED_BY = {
    "schatten-suite": schatten_property_suite,
    "russo-fournier": russo_fournier_random_suite,
    "minkowski": minkowski_random_suite,
    "dual-measure-scaling": check_dual_measure_scaling,
    "semi-invariance": check_semi_invariance,
    "plancherel": check_plancherel,
    "hausdorff-young": hausdorff_young_margins,
    "proof-chain": check_proof_chain,
    "gaussian-extremality": check_gaussian_extremality,
    "nilpotent-bound": check_nilpotent_bound,
}

assert set(EXPLAINED_BY) == set(CHECK_FAMILIES)


def explain(name: str) -> str:
    """The docstring of the check behind family name."""
    if name not in EXPLAINED_BY:
        raise KeyError(f"unknown check {name!r}; valid names: {', '.join(sorted(EXPLAINED_BY))}")
    return inspect.getdoc(EXPLAINED_BY[name])


# -- fixtures ------------------------------------------------------------------------


def write_fixture_files(group: str, out_dir: str, seed: int):
    """Sample the frozen fixture catalog and write HYW1 files plus a
    sha256 manifest; returns the manifest path.  A negative seed is
    rejected before any file is written."""
    _check_seed(seed)
    model, _ = make_group(group)
    n_grids, h_grid = verify.default_grids(group)
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    specs = gaussian_fixtures(group, 5) + random_fixtures(group, 5, base_seed=seed)
    for i, spec in enumerate(specs):
        g = sample(spec, n_grids, h_grid, model)
        fname = f"{group}-{spec.kind}-{i:02d}.hyw"
        path = os.path.join(out_dir, fname)
        save_sampled(g, path)
        entries.append((fixture_checksum(g), fname))
    manifest = os.path.join(out_dir, f"{group}-MANIFEST.sha256")
    _write_atomic(manifest, "".join(f"{c}  {f}\n" for c, f in entries))
    return manifest


# -- argument parsing ----------------------------------------------------------------


def _parse_p(text):
    try:
        return tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad exponent list {text!r}") from exc


def _load_config_file(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    allowed = set(RunConfig.__dataclass_fields__)
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    return data


def build_config(args) -> RunConfig:
    cfg = RunConfig(**(_load_config_file(args.config) if args.config else {}))
    parse = {"p": _parse_p, "checks": lambda text: [tok.strip() for tok in text.split(",")]}
    for key in ("group", "p", "grid_n", "grid_h", "seed", "checks", "constants", "out"):
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, parse.get(key, lambda v: v)(value))
    return cfg.validate()


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hyw",
        description="Numerical workbench for the operator-valued Fourier transform "
        "on two group extensions: Plancherel, sharp Hausdorff-Young, and the "
        "full inequality chain between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run check families and write a report")
    runp.add_argument("--config", help="JSON config file; flags override its fields")
    runp.add_argument("--group", choices=GROUPS)
    runp.add_argument("--p", help="comma-separated exponents in (1, 2], e.g. 1.2,1.5")
    runp.add_argument("--grid-n", type=int, help="points per normal-subgroup axis (power of two)")
    runp.add_argument("--grid-h", type=int, help="points on the quotient axis (power of two)")
    runp.add_argument("--seed", type=int, help="seed for random fixtures and kernel suites")
    runp.add_argument("--checks", help="comma-separated families, or 'all'")
    runp.add_argument("--constants", choices=("sharp", "classical"))
    runp.add_argument("--out", help="report path (default hyw-report.jsonl)")
    runp.add_argument("--quiet", action="store_true", help="suppress per-check stdout lines")

    exp = sub.add_parser("explain", help="describe what a check family asserts")
    exp.add_argument("check", help="family name, e.g. plancherel")

    fix = sub.add_parser("fixtures", help="regenerate frozen fixture files and checksums")
    fix.add_argument("--group", choices=GROUPS, required=True)
    fix.add_argument("--out", required=True, help="output directory")
    fix.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "explain":
            try:
                text = explain(args.check)
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 2
            print(f"{args.check}\n{'-' * len(args.check)}\n{text}")
            return 0
        if args.command == "fixtures":
            manifest = write_fixture_files(args.group, args.out, args.seed)
            print(f"wrote fixtures and {manifest}")
            return 0
        cfg = build_config(args)
        records, summary, text = run_suite(cfg, stream=None if args.quiet else sys.stdout)
        _write_atomic(cfg.out, text)
        print(
            f"{summary['checks']} checks: {summary['passed']} passed, "
            f"{summary['failed']} failed -> {cfg.out}"
        )
        return 0 if summary["failed"] == 0 else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
