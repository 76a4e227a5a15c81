"""Batch entry point: configuration, suite orchestration, fixtures, reports.

Subcommands:

* ``run``      execute selected check families and write a report;
* ``explain``  print what a check family asserts and at which slack: the
  docstring of the ``verify`` check behind it;
* ``fixtures`` regenerate the frozen fixture files with checksums.

Report format (versioned): the first line is ``HYWREPORT 1``; every other
line is either a JSON record (``config``, ``model``, ``check``, ``summary``)
or a ``#`` comment.  Comment lines carry timestamps, the wall time of each
family net of building spectral records (``# family <name> <seconds>s``), the
records built and their time (``# records <n> built <seconds>s``) and
human-oriented prose, and are excluded from the determinism contract; the
non-comment body is byte-identical across runs with the same configuration
and seed, numpy/BLAS build and BLAS thread count.  The report is written
atomically even when checks fail: to ``.hyw.tmp.<pid>`` in the report's
directory, whose length does not grow with the report's name (a 255-byte
report name is written), then renamed over it.  JSON has no
non-finite numbers, so an overflowed or undefined value (exponents within
about 0.005 of 1 overflow the q-th powers of the norm chain) is written as
the string ``"inf"``, ``"-inf"`` or ``"nan"``; a check holding one fails
(numpy does not warn).
Every family, semi-invariance included, runs on the run's grids, the ones
the ``model`` record shows.

Exit codes: 0 all selected checks pass, 1 at least one check failed,
2 configuration or usage error, or an output path that cannot be written,
each on one stderr line (a ``run --out`` holding a NUL byte, naming an
existing directory, FIFO or other file that is not a regular file, or
under a path whose nearest existing part is not a directory, grids
over the size or extent limits and an H grid where the modular function
overflows are rejected before any check runs).  A symlink given as the
report is written through: the report replaces the link's target.
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
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .grids import make_grids, modular_on_grid, sample, save_sampled
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


# largest sampled fixture a run may make: 16 times the largest of the refine workload
MAX_FIXTURE_BYTES = 2**30
# largest |extent| and band edge of a run's grids: the fixtures live within a few
# units of the origin, and the cell weights of the grids and of their reciprocal
# grids, their products and their squares stay far from overflow and underflow
MAX_EXTENT = 1e6


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
        value becomes a one-element tuple, exponents become floats, and
        checks becomes the selected family names in report order, "all"
        every family the group supports).  Validating again changes nothing."""
        if not (isinstance(self.group, str) and self.group in GROUPS):
            raise ConfigError(f"unknown group {self.group!r}; choose from {tuple(GROUPS)}")
        self.p, self.checks = (
            tuple(v) if isinstance(v, (list, tuple)) else (v,) for v in (self.p, self.checks)
        )
        try:
            self.p = tuple(float(p) for p in self.p)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"exponents p={self.p!r} are not a list of numbers") from None
        if not self.p:
            raise ConfigError("need at least one exponent p")
        for i, p in enumerate(self.p):
            if not 1.0 < p <= 2.0:
                raise ConfigError(f"exponent p={p} outside (1, 2]")
            if p in self.p[:i]:
                raise ConfigError(f"exponent p={p} repeated in {list(self.p)}")
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
            # compared exactly, never converted: NaN, inf and an int past the float range fail
            if not (_is_number(tol) and 0 <= tol <= sys.float_info.max):
                raise ConfigError(f"tolerance {name}={tol!r} is not a finite number >= 0")
        bad = [
            c
            for c in self.checks
            if not isinstance(c, str) or (c and c != "all" and c not in FAMILY_TABLE)
        ]
        if bad:
            raise ConfigError(
                f"unknown checks {bad}; valid: {', '.join(FAMILY_TABLE)} (or 'all')"
            )
        for f, row in FAMILY_TABLE.items():
            if f in self.checks and self.group not in row.groups:
                raise ConfigError(f"{f} is specific to {' or '.join(row.groups)}, not {self.group}")
        chosen = FAMILY_TABLE if "all" in self.checks else self.checks
        supported = (f for f, row in FAMILY_TABLE.items() if self.group in row.groups)
        self.checks = tuple(f for f in supported if f in chosen)
        if self.checks and not any(FAMILY_TABLE[f].exponents(self.p) for f in self.checks):
            raise ConfigError(f"{self.checks} check no p in {self.p} (nilpotent-bound: p < 2)")
        if not (isinstance(self.out, str) and self.out and "\0" not in self.out):
            raise ConfigError(f"out={self.out!r} is not a path")
        # the rename would swap a directory, FIFO or device node for the report
        if os.path.exists(self.out) and not os.path.isfile(self.out):
            raise ConfigError(f"out={self.out!r} exists and is not a regular file")
        parent = os.path.dirname(os.path.realpath(self.out))
        while not os.path.exists(parent):  # the write makes the missing directories
            parent = os.path.dirname(parent)
        if not os.path.isdir(parent):
            raise ConfigError(f"out={self.out!r} lies under {parent!r}, not a directory")
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
            n_grids, h_grid = self.grids()
        except (TypeError, ValueError, IndexError, OverflowError) as exc:
            raise ConfigError(f"bad grids: {exc}") from None
        size = 16 * math.prod(g.n for g in (*n_grids, h_grid))  # complex128 samples
        if size > MAX_FIXTURE_BYTES:
            raise ConfigError(f"{size}-byte fixtures, over the {MAX_FIXTURE_BYTES}-byte cap")
        reach = max(max(-g.lo, g.hi, g.nyquist) for g in (*n_grids, h_grid))
        if reach > MAX_EXTENT:
            raise ConfigError(f"grids or their bands reach {reach:g}, over {MAX_EXTENT:g}")
        return self

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


class _Family(NamedTuple):
    """Every fact of one check family.  check is the verify function whose
    docstring explain prints; run(cfg, run) returns the family's results in
    report order; pool is its fixture pool, (catalog Gaussians, seeded
    randoms); exponents(ps) is which of the run's p it checks; chain is
    whether its spectral records carry the norm chain; groups is the groups
    it runs on.  The defaults are those of the synthetic and structural
    suites, which sample no fixture."""

    check: Callable
    run: Callable
    pool: tuple = (0, 0)
    exponents: Callable = lambda ps: ps
    chain: bool = False
    groups: tuple = tuple(GROUPS)


# one row per family, in report order
FAMILY_TABLE = {
    "schatten-suite": _Family(schatten_property_suite, lambda cfg, _: [
        schatten_property_suite(count=20, size=32, seed=cfg.seed)]),
    "russo-fournier": _Family(russo_fournier_random_suite, lambda cfg, _: [
        russo_fournier_random_suite(count=1000, seed=cfg.seed)]),
    "minkowski": _Family(minkowski_random_suite, lambda cfg, _: [
        minkowski_random_suite(count=1000, seed=cfg.seed)]),
    "dual-measure-scaling": _Family(check_dual_measure_scaling, lambda cfg, run: (
        dual_measure_suite(run.model, count=100, seed=cfg.seed))),
    "semi-invariance": _Family(check_semi_invariance, lambda cfg, run: (
        semi_invariance_suite(run.dual, run.h_grid, count=20, seed=cfg.seed))),
    "plancherel": _Family(check_plancherel, lambda cfg, run: run.cases(
        "plancherel", lambda g, p, rec: [check_plancherel(g, run.dual, record=rec)]
    ), pool=(5, 5), exponents=lambda ps: (2.0,)),
    "hausdorff-young": _Family(hausdorff_young_margins, lambda cfg, run: run.cases(
        "hausdorff-young",
        lambda g, p, rec: hausdorff_young_margins(g, run.dual, (p,), cfg.constants, record=rec),
    ), pool=(2, 4)),
    "proof-chain": _Family(check_proof_chain, lambda cfg, run: run.cases(
        "proof-chain", lambda g, p, rec: check_proof_chain(rec, run.model, p, cfg.constants)
    ), pool=(2, 1), chain=True),
    "gaussian-extremality": _Family(check_gaussian_extremality, lambda cfg, run: run.cases(
        "gaussian-extremality", lambda g, p, rec: [check_gaussian_extremality(rec, run.model, p)]
    ), pool=(1, 0), chain=True),
    "nilpotent-bound": _Family(check_nilpotent_bound, lambda cfg, run: run.cases(
        "nilpotent-bound", lambda g, p, rec: [check_nilpotent_bound(rec, run.model, p)]
    ), pool=(2, 3), exponents=lambda ps: tuple(p for p in ps if p < 2.0), groups=("heisenberg",)),
}

# each family's runner, looked up here by run_suite so that a profiler can wrap
# them one by one
CHECK_FAMILIES = {name: row.run for name, row in FAMILY_TABLE.items()}


class _Run:
    """What the families of one run read: the group model and dual, the grids,
    the modular function delta on the H grid (the model record's unimodular
    is whether it is 1 everywhere), the dual sampling, the fixture pools and a
    spectral record per pooled recipe, which cases builds when a family first
    samples the recipe, at what the plan says the selected families need.
    The pools and the plan read each family's pool, exponents and chain from
    its row of FAMILY_TABLE.  record_s sums the time spent building records.
    The run keeps no sampled fixture: cases holds one at a time, and a record
    holds none.

    An H grid on which the modular function is not finite and positive (on
    ax+b, exp(t) overflows or underflows at |t| beyond about 709) is a
    ConfigError, raised before any family runs."""

    def __init__(self, cfg: RunConfig):
        self.p = cfg.p
        self.model, self.dual = make_group(cfg.group)
        self.n_grids, self.h_grid = cfg.grids()
        try:
            self.delta = modular_on_grid(self.model, self.h_grid)
        except ArithmeticError:  # 1 / exp(t) with exp(t) underflowed to 0
            self.delta = np.array([np.nan])
        if not 0 < self.delta.min() <= self.delta.max() < np.inf:
            extent = f"[{self.h_grid.lo:g}, {self.h_grid.hi:g}]"
            raise ConfigError(f"h_extent {extent}: modular function not finite and positive")
        self.sampling = default_sampling_config(cfg.group)
        self.pools, self.plan, self.built, self.record_s = {}, {}, {}, 0.0
        for family in cfg.checks:
            row = FAMILY_TABLE[family]
            (n, m), ps = row.pool, row.exponents(self.p)
            pool = gaussian_fixtures(cfg.group, n) + random_fixtures(cfg.group, m, cfg.seed)
            self.pools[family] = pool
            for spec in pool:
                need_ps, need_chain = self.plan.setdefault(spec.key(), (set(), set()))
                need_ps.update(ps)
                need_chain.update(ps if row.chain else ())

    def cases(self, family, check):
        """The results of check(g, p, record) at every exponent p of family
        and every fixture g of its pool, exponent-major as the report lists
        them, where record is the spectral record of g's recipe.

        This is where a recipe's record is built: on its first fixture, at
        what the plan says the selected families need, and kept for the
        families after.  The pool is walked fixture-major: each recipe is
        sampled once on the run's grids, checked at every exponent and
        released before the next is sampled, so one fixture is alive at a
        time.  Nothing is sampled when the family checks no exponent."""
        ps = FAMILY_TABLE[family].exponents(self.p)
        by_p = [[] for _ in ps]
        for spec in self.pools[family] if ps else ():
            g, key = sample(spec, self.n_grids, self.h_grid, self.model), spec.key()
            if key not in self.built:
                start, (need_ps, chain) = time.perf_counter(), self.plan[key]
                self.built[key] = spectral_record(g, self.dual, need_ps, self.sampling, chain)
                self.record_s += time.perf_counter() - start
            for p, results in zip(ps, by_p):
                results.extend(check(g, p, self.built[key]))
            del g  # before the next recipe is sampled
        return [r for results in by_p for r in results]


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
        "unimodular": bool(np.all(run.delta == 1.0)),
        "n_grids": [[g.lo, g.hi, g.n] for g in run.n_grids],
        "h_grid": [run.h_grid.lo, run.h_grid.hi, run.h_grid.n],
    }
    if sampling is not None:
        rec["dual_sampling"] = [sampling.lambda_min, sampling.lambda_max, sampling.lambda_points]
    return rec


def _badness(value):
    """Order key under which NaN is worse than any number, inf included."""
    return (math.isnan(value), value)


def _summary(records):
    """Counts, and the worst inequality by lhs / rhs and the worst equality or
    deviation.  An inequality whose rhs is NaN or not positive has no ratio:
    it takes part with ratio NaN, the worst, if it failed, and not at all if
    it passed."""
    passed = sum(r["passed"] for r in records)
    worst_ineq = worst_eq = None
    for r in records:
        if r["kind"] == "inequality" and (r["rhs"] > 0 or not r["passed"]):
            ratio = r["lhs"] / r["rhs"] if r["rhs"] > 0 else math.nan
            if worst_ineq is None or _badness(ratio) > _badness(worst_ineq["ratio"]):
                worst_ineq = {"name": r["name"], "family": r["family"], "ratio": ratio}
        elif r["kind"] in ("equality", "deviation"):
            scale = max(abs(r["lhs"]), abs(r["rhs"]), 1e-300)
            rel = abs(r["lhs"] - r["rhs"]) / scale if r["kind"] == "equality" else r["lhs"]
            if worst_eq is None or _badness(rel) > _badness(worst_eq["deviation"]):
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
    records, timings, run = [], [], _Run(cfg)
    # an overflowed value, or one made undefined by it (inf times 0 or minus
    # inf), fails its check closed and is reported: no numpy warning
    with _tolerance_overrides(cfg.tolerances), np.errstate(over="ignore", invalid="ignore"):
        for family in cfg.checks:
            start = time.perf_counter() - run.record_s  # a clock that stops while records build
            for res in CHECK_FAMILIES[family](cfg, run):
                rec = asdict(res)
                rec["family"] = family
                records.append(rec)
                if stream is not None:
                    print(res, file=stream)
            timings.append(f"# family {family} {time.perf_counter() - run.record_s - start:.3f}s")
    timings.append(f"# records {len(run.built)} built {run.record_s:.3f}s")
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
    path = os.path.realpath(path)  # a symlink is written through, to its target
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".hyw.tmp.{os.getpid()}")  # length independent of path's
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# -- explain -------------------------------------------------------------------------

def explain(name: str) -> str:
    """The docstring of the check behind family name."""
    if name not in FAMILY_TABLE:
        raise ConfigError(f"unknown check {name!r}; valid names: {', '.join(sorted(FAMILY_TABLE))}")
    return inspect.getdoc(FAMILY_TABLE[name].check)


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
        entries.append((save_sampled(g, os.path.join(out_dir, fname)), fname))
    manifest = os.path.join(out_dir, f"{group}-MANIFEST.sha256")
    _write_atomic(manifest, "".join(f"{c}  {f}\n" for c, f in entries))
    return manifest


# -- argument parsing ----------------------------------------------------------------


def _load_config_file(path):
    try:
        with open(path, "rb") as fh:  # JSON text is UTF-8, whatever the locale
            data = json.load(fh)
    # not UTF-8, not JSON, nested past the recursion limit, or an integer
    # literal past the digit limit of int conversion
    except (OSError, ValueError, RecursionError) as exc:
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
    for key in ("group", "p", "grid_n", "grid_h", "seed", "checks", "constants", "out"):
        value = getattr(args, key)
        if value is not None:
            if key in ("p", "checks"):  # comma lists; validate converts the exponents
                value = [tok.strip() for tok in value.split(",")]
            setattr(cfg, key, value)
    return cfg.validate()


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one-line ConfigErrors."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(
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
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "explain":
            text = explain(args.check)
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
