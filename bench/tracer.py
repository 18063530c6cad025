"""Spans around complicial's public functions, installed from outside.

The benchmark does not change the package.  ``Tracer.install`` replaces
every binding of each public function of the traced modules (the defining
module, every module that imported it by name, and the package namespace)
with a wrapper that records one span per call: name, start, end and parent.
A generator function gets one span per ``next()``.  Spans stay in memory
and are written out when the pass ends.

Time spent in code that is not wrapped, such as methods of the complex
classes or private helpers, counts toward the self time of the nearest
wrapped caller, so a module's self time can include work done by another
module's methods.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "documents", "core", "strat", "standard", "lifting",
           "homotopy", "adapters")

# Helpers called once per simplex id or key.  A span would cost more than
# the call itself, and their time stays with a caller in the same module or
# with the solver loop that calls them.
LEAVES = frozenset({
    "documents.id_str", "documents.parse_id", "standard.complicial_thin_key",
    "standard.in_horn_key", "standard.is_degenerate_key",
})


def _find_extensions_name(args, kwargs) -> str:
    limit = kwargs.get("limit", args[1] if len(args) > 1 else None)
    return "lifting.find_extensions." + ("all" if limit is None
                                         else f"limit{limit}")


# Functions whose span name depends on the arguments.
NAMERS = {"lifting.find_extensions": _find_extensions_name}

# Work counts read off a call's result, summed as "<span name>.<key>".
COUNTERS = {
    "core.build_sset": lambda r: {"simplices": sum(r.counts)},
    "documents.dumps": lambda r: {"bytes": len(r.encode())},
    "lifting.find_extensions": lambda r: {"solutions": len(r),
                                          "hits": bool(r)},
    "lifting.verify_weak_complicial": lambda r: {
        "rows": len(r.rows),
        "failures": sum(len(row.failures) for row in r.rows),
    },
    "homotopy.sphere_relation": lambda r: {
        "pairs": len(r[0]) ** 2, "related": sum(map(sum, r[1])),
    },
    "homotopy.rel_homotopic": lambda r: {"found": r is not None},
    "homotopy.audit_well_defined": lambda r: {
        "fillers": sum(cell.fillers_tested for cell in r.cells),
    },
}


class Tracer:
    """An in-memory span recorder for one single-threaded pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.wrapped: set[str] = set()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced modules' public functions."""
        mods = {short: importlib.import_module(f"complicial.{short}")
                for short in MODULES}
        holders = [m for key, m in sorted(sys.modules.items())
                   if key == "complicial" or key.startswith("complicial.")]
        for short, mod in mods.items():
            for attr, fn in sorted(vars(mod).items()):
                qual = f"{short}.{attr}"
                if (attr.startswith("_") or qual in LEAVES
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(qual, fn)
                self.wrapped.add(qual)
                if qual in NAMERS:
                    self.wrapped.update(f"{qual}.{limit}"
                                        for limit in ("limit1", "all"))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)

    def _wrap(self, qual: str, fn):
        namer = NAMERS.get(qual)
        counter = COUNTERS.get(qual)
        fixed = self.name_id(qual)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    i = tracer.open(fixed)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer.close(i)
                        return
                    except BaseException:
                        tracer.close(i)
                        tracer.counters[f"{qual}.failed"] += 1
                        raise
                    tracer.close(i)
                    tracer.counters[f"{qual}.instances"] += 1
                    yield item
            return functools.wraps(fn)(gen_wrapper)

        def wrapper(*args, **kwargs):
            name = namer(args, kwargs) if namer else qual
            i = tracer.open(fixed if namer is None else tracer.name_id(name))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(i)
                tracer.counters[f"{name}.failed"] += 1
                raise
            tracer.close(i)
            if counter is not None:
                for key, value in counter(result).items():
                    tracer.counters[f"{name}.{key}"] += value
            return result
        return functools.wraps(fn)(wrapper)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls, inclusive and self seconds per span name, self per module.

        A name's inclusive time counts only its outermost spans, so a
        function reached again below itself is not counted twice.
        """
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out: dict[str, float] = defaultdict(float)
        for name in self.wrapped:     # functions never called report zeros
            out[f"{name}.calls"] += 0
            out[f"{name}.s"] += 0
        for module in MODULES:
            out[f"{module}.self_s"] += 0
        for i in range(n):
            name = self.names[self.name[i]]
            out[f"{name}.calls"] += 1
            out[f"{name.split('.')[0]}.self_s"] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != self.name[i]:
                p = self.parent[p]
            if p < 0:
                out[f"{name}.s"] += dur[i]
        out.update(self.counters)
        for name in ("lifting.find_extensions.limit1",
                     "lifting.find_extensions.all"):
            out[f"{name}.hit_ratio"] = (out[f"{name}.hits"] /
                                        out[f"{name}.calls"]
                                        if out[f"{name}.calls"] else 0.0)
        calls = out["homotopy.rel_homotopic.calls"]
        out["homotopy.rel_homotopic.found_ratio"] = (
            out["homotopy.rel_homotopic.found"] / calls if calls else 0.0)
        out["trace.spans"] = n
        return dict(out)

    def write(self, path: Path) -> None:
        """Spans as [name, start, end, parent] rows, times relative."""
        t0 = self.start[0] if self.start else 0.0
        path.write_text(json.dumps({
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[self.name[i], round(self.start[i] - t0, 7),
                       round(self.end[i] - t0, 7), self.parent[i]]
                      for i in range(len(self.name))],
        }, separators=(",", ":")), encoding="utf-8")
