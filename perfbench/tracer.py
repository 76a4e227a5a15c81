"""Layer tracing from outside the package.

A Tracer wraps the public entry points of each hywbench layer for the
length of one traced pass and restores them afterwards.  Nothing under
``src/`` is edited: module-level functions are rebound in every hywbench
module that imported them by name, and methods are patched on their class.

Hot calls (about 200k ``dual_action`` calls in one Heisenberg run) are
aggregated as a count plus total time per layer.  The CLI suite and each
check family are spans with parent ids; a workload that calls verify
directly opens its family spans itself.  A family's self time is its span
minus the layer time recorded inside it.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

import hywbench
from hywbench import cli, grids, groups, schatten, transform, verify

MODULES = (hywbench, groups, grids, schatten, transform, verify, cli)

# layer metric prefix -> (owner, attribute); owner is a module (rebound
# everywhere the function was imported by name) or a class (patched once)
LEAF_LAYERS = {
    "groups.dual_action": (groups.GroupExtensionModel, "dual_action"),
    "grids.sample": (grids, "sample"),
    "grids.lp_norm_G": (grids, "lp_norm_G"),
    "transform.pair": (transform.CharacterSlice, "pair"),
    "transform.kernel": (transform, "kernel_from_pair_table"),
    "schatten.norm": (schatten, "schatten_norm"),
    "schatten.cross_norm": (schatten, "cross_norm_qpq"),
}

def _grid_key(n_grids, h_grid):
    return tuple((g.lo, g.hi, g.n) for g in (*n_grids, h_grid))


def _fixture_key(g):
    """Identity of a sampled fixture by its recipe, not by its object."""
    if g.spec is None:
        return ("callable", id(g))
    return (g.model.name, g.spec.key(), _grid_key(g.n_grids, g.h_grid))


class Tracer:
    """Counters and spans for one traced pass; use as a context manager."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.calls = {name: 0 for name in LEAF_LAYERS}
        self.seconds = {name: 0.0 for name in LEAF_LAYERS}
        self.spans = []  # [id, parent, name, start, end]
        self._stack = []
        self._leaf_depth = 0
        self._leaf_in_family = 0.0  # leaf time inside the open family span
        self.family_self = 0.0
        self.sample_keys = set()
        self.pair_keys = set()
        self.pair_rows = 0
        self.pair_rows_in_band = 0
        self.p2_calls = 0
        self.flop_computed = 0
        self._saved = []

    # -- spans -----------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name, family=False):
        """A span with a parent id.  family=True marks a check family: its
        self time (span minus leaf-layer time inside it) adds to verify.self_s."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, name, time.perf_counter() - self.t0, None]
        self.spans.append(rec)
        self._stack.append(sid)
        outer_leaf = self._leaf_in_family
        if family:
            self._leaf_in_family = 0.0
        try:
            yield
        finally:
            rec[4] = time.perf_counter() - self.t0
            self._stack.pop()
            if family:
                self.family_self += (rec[4] - rec[3]) - self._leaf_in_family
                self._leaf_in_family = outer_leaf

    def span_seconds(self, name):
        return sum(end - start for _, _, n, start, end in self.spans if n == name)

    # -- leaf wrappers -----------------------------------------------------------

    def _leaf(self, layer, fn, observe=None):
        calls, seconds = self.calls, self.seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            self._leaf_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._leaf_depth -= 1
                calls[layer] += 1
                seconds[layer] += elapsed
                if self._leaf_depth == 0:
                    self._leaf_in_family += elapsed

        return wrapper

    def _observe_sample(self, spec, n_grids, h_grid, model):
        self.sample_keys.add((model.name, spec.key(), _grid_key(n_grids, h_grid)))

    def _observe_pair(self, cs, omegas):
        om = np.atleast_2d(np.asarray(omegas, dtype=float))
        self.pair_keys.add((_fixture_key(cs.g), om.tobytes()))
        self.pair_rows += om.shape[0]
        self.pair_rows_in_band += int(cs.in_band(om).sum())

    def _observe_norm(self, a, p):
        shape = getattr(a, "shape", ())
        if len(shape) == 2:
            m, n = shape
            self.flop_computed += m * n * min(m, n)
        if float(p) == 2.0:
            self.p2_calls += 1

    def _span_wrapper(self, name, fn, family):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, family=family):
                return fn(*args, **kwargs)

        return wrapper

    # -- install / restore ---------------------------------------------------------

    def _rebind(self, owner, attr, new):
        if isinstance(owner, type):
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
            return
        orig = getattr(owner, attr)
        for mod in MODULES:
            if getattr(mod, attr, None) is orig:
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, new)

    def __enter__(self):
        observers = {
            "grids.sample": self._observe_sample,
            "transform.pair": self._observe_pair,
            "schatten.norm": self._observe_norm,
        }
        for layer, (owner, attr) in LEAF_LAYERS.items():
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._rebind(owner, attr, self._leaf(layer, fn, observers.get(layer)))
        self._rebind(cli, "run_suite", self._span_wrapper("cli.run_suite", cli.run_suite, False))
        for family, fn in list(cli.CHECK_FAMILIES.items()):
            self._saved.append((cli.CHECK_FAMILIES, family, fn))
            cli.CHECK_FAMILIES[family] = self._span_wrapper(family, fn, True)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._saved.clear()
        return False

    # -- results ---------------------------------------------------------------

    def metrics(self):
        """Every traced quantity by name (a superset of the gated per-layer set)."""
        out = {}
        for layer in LEAF_LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.s"] = self.seconds[layer]
        n_sample, n_pair = self.calls["grids.sample"], self.calls["transform.pair"]
        out["grids.sample.distinct_share"] = len(self.sample_keys) / n_sample if n_sample else 0.0
        out["transform.pair.distinct_share"] = len(self.pair_keys) / n_pair if n_pair else 0.0
        out["transform.pair.in_band_share"] = (
            self.pair_rows_in_band / self.pair_rows if self.pair_rows else 0.0
        )
        out["schatten.norm.p2_calls"] = self.p2_calls
        out["schatten.norm.flop_computed"] = self.flop_computed
        for family in cli.CHECK_FAMILIES:
            out[f"verify.{family}.s"] = self.span_seconds(family)
        out["verify.self_s"] = self.family_self
        suite = self.span_seconds("cli.run_suite")
        families = sum(self.span_seconds(f) for f in cli.CHECK_FAMILIES)
        out["cli.run_suite.s"] = suite
        out["cli.report.s"] = suite - families if suite else 0.0
        return out
