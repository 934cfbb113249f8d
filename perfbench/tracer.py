"""Spans around the package's layers, installed from outside the package.

`Tracer.install` wraps the public functions of every layer module, plus a
few methods that carry the work (phase evaluation, the grid sums), and
rebinds each wrapper under every name a `sparsemv` module holds the original
by, e.g. `sparsemv.meanvalue.tree_sum` as well as `sparsemv.exact.tree_sum`.
No file of the package changes.

A span records its name, start, end and parent span.  Self time is the
span's duration minus its direct children's.  Work counts are computed from
the call's arguments.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "csvio", "numberfield", "padic", "domains", "quadrature",
          "exact", "meanvalue", "vinogradov", "counterexample")


def _grid_counts(grid, r, offset_factors=None, weights=None):
    offsets = 0 if offset_factors is None else int(offset_factors.shape[0])
    points = len(grid.base)
    return {"cells": grid.total, "offsets": offsets,
            "grid_terms": grid.total * points * max(offsets, 1)}


def _size(values):
    size = getattr(values, "size", None)
    return int(size) if size is not None else len(values)


#: Work counts per span name, computed from the wrapped call's arguments.
COUNTERS = {
    "meanvalue.grid_sum": _grid_counts,
    "exact.tree_sum": lambda values: {"elements": _size(values)},
    "exact.modulus_power": lambda abs_squared, r: {"elements": _size(abs_squared)},
    "exact.root_table": lambda modulus: {"entries": modulus,
                                         "bytes": 16 * modulus},  # complex128
    "vinogradov.count_solutions": lambda minpoly, s, k, N, **kw: {
        "keys": N ** (minpoly.degree * s)},
    "quadrature.tensor_offsets": lambda halfwidths, depths, order: {
        "nodes": math.prod(order * 2**s for s in depths)},
    "domains.emit_cell_csv": lambda domain, path, **kw: {"rows": domain.total_cells},
    "counterexample.sum_norm": lambda fam, **kw: {"terms": fam.N**3},
}

#: Counts that need the call's effect: bytes a CSV write left on disk.
AFTER_COUNTERS = {
    "csvio.write_csv": lambda path, *a, **kw: {"bytes": os.path.getsize(path)},
}

#: Methods wrapped in addition to each layer's public functions.
METHODS = (
    ("numberfield", "PhaseComponent", "evaluate", "numberfield.evaluate"),
    ("meanvalue", "_GridSum", "weighted_power_sum", "meanvalue.grid_sum"),
    ("meanvalue", "_GridSum", "per_offset_power_sum", "meanvalue.grid_sum"),
    ("meanvalue", "CoefficientVector", "values", "meanvalue.CoefficientVector.values"),
    ("meanvalue", "CoefficientVector", "ell_r", "meanvalue.CoefficientVector.ell_r"),
)


class Tracer:
    """In-memory span recorder for one measuring process."""

    def __init__(self):
        # [name, parent index, start, end, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before = COUNTERS.get(name)
        after = AFTER_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = before(*args, **kwargs) if before else None
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, counts]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after:
                rec[4] = after(*args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and the METHODS, everywhere bound."""
        package = [m for n, m in sys.modules.items()
                   if n == "sparsemv" or n.startswith("sparsemv.")]
        for layer in LAYERS:
            mod = sys.modules[f"sparsemv.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for holder in package:
                    for name, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, name, wrapper)
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[f"sparsemv.{layer}"], cls_name)
            setattr(cls, meth, self.wrap(span, vars(cls)[meth]))

    def summary(self) -> dict:
        """Per-name and per-layer totals: calls, self seconds, work counts."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, parent, start, end, counts) in enumerate(self.spans):
            self_s = (end - start) - child_time[i]
            layer = name.split(".", 1)[0]
            totals[f"{layer}.self_s"] += self_s
            totals[f"{name}.self_s"] += self_s
            totals[f"{name}.calls"] += 1
            for key, value in (counts or {}).items():
                totals[f"{name}.{key}"] += value
                totals[f"{layer}.{key}"] += value
        return dict(totals)

    def write_spans(self, path) -> None:
        """One JSON line per span: id, name, parent, start, end, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end,
                                     "counts": counts or {}}) + "\n")
