"""Spans around hqm's public functions, recorded from outside the package.

`Tracer.install` replaces each public function of the traced modules, and a
few public methods, with a wrapper that records one span per call: name,
start, end, parent span and item id. Every module that imported a wrapped
function by name gets the wrapper too, so calls between modules are seen.
Nothing under src/hqm changes.

Spans stay in memory; `summary` folds them into per-name statistics and
`write` saves them when the run ends. hqm is single-threaded and has no
queues, so no layer waits on another and spans carry no wait time; the only
waiting is file I/O inside the CSV writers, which shows in their self time.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
import types

MODULES = ("quaternion", "hilbert", "fourier", "operators", "spectral",
           "dynamics", "cli", "config", "expressions")

# Public methods whose cost the workloads are built to expose.
METHODS = {
    "operators": {"QOperator": ("apply_values", "matrix")},
    "fourier": {"BasisFamily": ("sample_all",)},
    "spectral": {"SpectralResolution": ("reconstruction_matrix",)},
}

# Private helpers that mark where one evolve item ends and the next begins.
# They get no span of their own, so dynamics.evolve keeps its loop self time.
ITEM_MARKERS = {"_rk4_step": "step", "_continuity_fields": "continuity"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # each span: [name_id, start, end, parent_index, item, child_time, error]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = -1
        self._marks = {"step": -1, "continuity": -1}

    # -- recording --------------------------------------------------------------

    def _wrap(self, name: str, func):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name_id, clock(), 0.0, parent, self.item, 0.0, 0]
            spans.append(span)
            stack.append(index)
            try:
                return func(*args, **kwargs)
            except BaseException:
                span[6] = 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[2] - span[1]

        return traced

    def _marker(self, kind: str, func):
        marks = self._marks

        def marked(*args, **kwargs):
            marks[kind] += 1
            self.item = marks[kind]
            return func(*args, **kwargs)

        return marked

    def install(self, package: types.ModuleType) -> None:
        """Wrap the public functions of every traced module of `package`."""
        replaced = {}
        for short in MODULES:
            module = sys.modules.get(f"{package.__name__}.{short}")
            if module is None:  # hqm.cli is imported only by the CLI workload
                continue
            for attr, value in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    replaced[value] = self._wrap(f"{short}.{attr}", value)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(module, cls_name, None)
                for meth in methods:
                    raw = vars(cls).get(meth) if cls is not None else None
                    if raw is None:  # renamed or removed: its metrics read 0
                        continue
                    label = f"{short}.{cls_name}.{meth}"
                    if isinstance(raw, property):
                        setattr(cls, meth, property(self._wrap(label, raw.fget)))
                    else:
                        setattr(cls, meth, self._wrap(label, raw))
        dynamics = sys.modules[f"{package.__name__}.dynamics"]
        for attr, kind in ITEM_MARKERS.items():
            original = getattr(dynamics, attr, None)
            if original is not None:  # without it, spans keep the item id -1
                replaced[original] = self._marker(kind, original)
        # rebind every by-name import, including lookup tables of functions
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in replaced:
                            value[key] = replaced[item]
                        elif isinstance(item, tuple) and any(
                                inspect.isfunction(v) and v in replaced for v in item):
                            value[key] = tuple(replaced.get(v, v) if inspect.isfunction(v)
                                               else v for v in item)

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s (duration minus child spans), errors."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
               for name in self.names}
        for name_id, start, end, _parent, _item, child, error in self.spans:
            stats = out[self.names[name_id]]
            stats["calls"] += 1
            stats["total_s"] += end - start
            stats["self_s"] += end - start - child
            stats["errors"] += error
        return out

    def write(self, path) -> None:
        """Save every span as [name, start, end, parent, item] rows (gzip JSON)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "item"],
                       "spans": [s[:5] for s in self.spans]}, fh, separators=(",", ":"))
