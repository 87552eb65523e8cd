"""Memo-table census and layer-boundary tracing, both from outside vertexalg.

Memo tables are found by scanning the modules, not by naming private
functions, so a metric keeps its name when a recursion is deleted: every
`functools.cache`/`lru_cache` function a module defines, plus every
module-level dict whose name contains "cache" (such as `rewrite._NF_CACHE`,
whose values are per-signature dicts).

Tracing replaces, for the duration of a pass, the bindings through which one
layer (or the benchmark) reaches another layer's public entry points: a
name imported with `from .words import product` is swapped for a wrapper,
and a module reference such as `suites.fock` is swapped for a namespace whose
entry points are wrapped.  Calls inside a layer keep their direct bindings
and are not traced, so the cost of tracing scales with the number of
boundary crossings, not with the recursion inside a layer.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

LAYERS = ("signature", "words", "rewrite", "basis", "fock", "derivations", "parser", "suites", "cli")

# Public entry points whose calls across a layer boundary are recorded as
# spans.  Names missing from a module are skipped.
ENTRY_POINTS = {
    "signature": ("load_config", "make_signature"),
    "words": ("product", "evaluate"),
    "rewrite": ("normal_form",),
    "basis": ("basis_words", "dim_component"),
    "fock": ("embed", "product_word", "vacuum_product", "charge_act", "rank", "in_span"),
    "derivations": ("apply_derivation",),
    "parser": ("parse_element", "parse_weight"),
    "suites": ("verify_dong", "verify_locfun", "verify_presentation", "verify_boson_fermion"),
    "cli": ("run",),
}

# Work counts read from the results of an entry point: span -> (counter, f).
RESULT_COUNTS = {
    "fock.embed": ("fock.embed.states_out", lambda r: len(r.terms)),
    "basis.basis_words": ("basis.words_out", len),
    "rewrite.normal_form": ("rewrite.q_kills", lambda r: r.q_kills),
}


def layer_modules():
    """The imported vertexalg layer modules, by short name."""
    return {
        name: sys.modules[f"vertexalg.{name}"]
        for name in LAYERS
        if f"vertexalg.{name}" in sys.modules
    }


# --- memo tables ----------------------------------------------------------------


def memo_tables():
    """(layer, table name, object) for every memo table in vertexalg."""
    out = []
    for layer, mod in layer_modules().items():
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)):
                if getattr(obj, "__module__", None) == mod.__name__:
                    out.append((layer, f"{layer}.{attr}", obj))
            elif isinstance(obj, dict) and "cache" in attr.lower():
                out.append((layer, f"{layer}.{attr}", obj))
    return out


def _table_stats(obj):
    if isinstance(obj, dict):
        entries = sum(len(v) if isinstance(v, dict) else 1 for v in obj.values())
        return entries, 0, 0
    info = obj.cache_info()
    return info.currsize, info.hits, info.misses


def memo_sizes():
    """Entries of every memo table, by table name."""
    return {name: _table_stats(obj)[0] for _, name, obj in memo_tables()}


def clear_memo():
    for _, _, obj in memo_tables():
        if isinstance(obj, dict):
            obj.clear()
        else:
            obj.cache_clear()


def assert_cold():
    """Raise unless every memo table is empty."""
    full = {name: n for name, n in memo_sizes().items() if n}
    if full:
        raise RuntimeError(f"memo tables not empty before a cold phase: {full}")


def memo_metrics():
    """Per-layer entries, hits, misses and hit ratio summed over its tables."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.memo.entries"] = 0
        out[f"{layer}.memo.hits"] = 0
        out[f"{layer}.memo.misses"] = 0
    for layer, _, obj in memo_tables():
        entries, hits, misses = _table_stats(obj)
        out[f"{layer}.memo.entries"] += entries
        out[f"{layer}.memo.hits"] += hits
        out[f"{layer}.memo.misses"] += misses
    for layer in LAYERS:
        looked_up = out[f"{layer}.memo.hits"] + out[f"{layer}.memo.misses"]
        out[f"{layer}.memo.hit_ratio"] = out[f"{layer}.memo.hits"] / looked_up if looked_up else 0.0
    return out


# --- spans ------------------------------------------------------------------------


class Tracer:
    """Records spans (name, start, end, parent index, op index) in memory."""

    def __init__(self, importers):
        # importers: extra modules (the benchmark's own) whose bindings to
        # layers are swapped along with the layers' bindings to each other
        self.importers = list(importers)
        self.spans = []
        self.counts = {}
        self.op = -1
        self._stack = [-1]
        self._saved = []

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1], self.op])
        self._stack.append(idx)

    def close(self):
        idx = self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter, measure = RESULT_COUNTS.get(name, (None, None))
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, None, stack[-1], self.op]
            spans.append(record)
            stack.append(idx)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counts[counter] = counts.get(counter, 0) + measure(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Swap every cross-layer binding to an entry point for a wrapper."""
        mods = layer_modules()
        wrapped = {}  # id(original function) -> wrapper
        proxies = {}  # id(layer module) -> namespace with wrapped entry points
        for layer, mod in mods.items():
            ns = dict(vars(mod))
            for fname in ENTRY_POINTS.get(layer, ()):
                fn = getattr(mod, fname, None)
                if fn is None:
                    continue
                wrapped[id(fn)] = ns[fname] = self._wrap(f"{layer}.{fname}", fn)
            proxies[id(mod)] = types.SimpleNamespace(**ns)
        importers = list(mods.values()) + [sys.modules["vertexalg"]] + self.importers
        for imp in importers:
            for attr, obj in list(vars(imp).items()):
                if obj is imp:
                    continue
                if id(obj) in proxies:
                    repl = proxies[id(obj)]
                elif id(obj) in wrapped and getattr(obj, "__module__", None) != imp.__name__:
                    repl = wrapped[id(obj)]
                else:
                    continue
                self._saved.append((imp, attr, obj))
                setattr(imp, attr, repl)

    def uninstall(self):
        for imp, attr, obj in reversed(self._saved):
            setattr(imp, attr, obj)
        self._saved.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack[:] = [-1]

    def summary(self):
        """Per span name: calls, self seconds and inclusive seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls, self_s, total_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, self_s + (t1 - t0 - child[i]), total_s + (t1 - t0))
        return out
