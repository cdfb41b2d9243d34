"""Span tracing of the quandles modules, installed from outside the package.

install() replaces every function of the traced layers, in every quandles.*
namespace that holds it, and every plain or static method of their classes,
with a wrapper that records one span per call: name, start, end, parent span
and the id of the top-level operation.  remove() puts the originals back.
Spans stay in memory and are written out once, after the run.

Functions called on the order of 10^5 times or more per run (UNSPANNED) are
not wrapped, since the span would cost more than the call; their time stays
in the caller's self time.  Generator functions are not wrapped either,
because their work happens while the caller iterates, not inside the call.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("core", "qndfile", "permgroup", "grouptables", "congruence",
          "orbitseries", "classify", "corpus")

UNSPANNED = frozenset({
    "permgroup.compose", "permgroup.inverse", "permgroup.conjugate",
    "permgroup.commutator", "core.Quandle.ldiv", "corpus._prefix_consistent",
})

# Per-call quantities taken from return values, summed per function.
_YIELD = {
    "core.is_isomorphic": lambda r: r is not None,
    "permgroup.closure": lambda r: r.order,
    "congruence.all_congruences": len,
    "orbitseries.all_subquandles": len,
    "corpus.enumerate_quandles": len,
}

_MARK = "__perfbench_span__"

SETUP_OP = -1

#: No traced pass starts that would take the store past this many spans
#: (about 28 bytes each); a census-verify pass holds about 250 000.
SPAN_LIMIT = 2_000_000


def _spannable(fn, name: str) -> bool:
    return (inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)
            and name not in UNSPANNED)


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.stack: list[list] = []  # [span index, time covered by children]
        self.op = SETUP_OP
        self._patches: list[tuple[object, str, object]] = []
        # Aggregates per name id, split by set-up (op -1) and timed passes.
        self.agg: dict[tuple[int, bool], list[float]] = {}

    # ---- patching

    def install(self) -> set[str]:
        """Wrap the layers' functions; return the names now spanned."""
        modules = [importlib.import_module(f"quandles.{layer}") for layer in LAYERS]
        namespaces = [m for name, m in sys.modules.items()
                      if name == "quandles" or name.startswith("quandles.")]
        spanned = set()
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    spanned |= self._wrap_class(f"{layer}.{attr}", obj)
                elif (_spannable(obj, f"{layer}.{attr}")
                      and obj.__module__ == module.__name__):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    spanned.add(f"{layer}.{attr}")
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._patches.append((ns, key, obj))
                                setattr(ns, key, wrapped)
        return spanned

    def _wrap_class(self, prefix: str, cls) -> set[str]:
        spanned = set()
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__"):
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            name = f"{prefix}.{attr}"
            if not _spannable(fn, name):
                continue
            wrapped = self._wrap(name, fn)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, staticmethod(wrapped) if isinstance(raw, staticmethod)
                    else wrapped)
            spanned.add(name)
        return spanned

    def remove(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        measure = _YIELD.get(name)
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.start)
            tracer.name_of.append(nid)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.op_of.append(tracer.op)
            tracer.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            result = None
            raised = True
            t0 = perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                span = t1 - t0
                if stack:
                    stack[-1][1] += span
                tracer.end[idx] = t1
                row = tracer.agg.get((nid, tracer.op == SETUP_OP))
                if row is None:
                    row = tracer.agg[nid, tracer.op == SETUP_OP] = [0, 0.0, 0, 0]
                row[0] += 1
                row[1] += span - frame[1]
                row[2] += raised
                if measure is not None and not raised:
                    row[3] += measure(result)

        setattr(spanned, _MARK, True)
        return spanned

    # ---- results

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one (average) timed pass.

        For each spanned name: .calls, .self_s and .errors, plus the summed
        return-value quantity (.yield) where _YIELD defines one; and the
        derived counts and ratios named in BENCHMARK.json.  Ratios are taken
        over every span of the run.
        """
        out: dict[str, float] = {}
        total: dict[str, float] = {}
        for name in self.names:
            for key in ("calls", "self_s", "errors", "yield"):
                out[f"{name}.{key}"] = total[f"{name}.{key}"] = 0.0
        for (nid, in_setup), row in self.agg.items():
            weight = 1.0 if in_setup else 1.0 / max(passes, 1)
            for key, value in zip(("calls", "self_s", "errors", "yield"), row):
                out[f"{self.names[nid]}.{key}"] += value * weight
                total[f"{self.names[nid]}.{key}"] += value

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        derived = {
            "core.is_isomorphic.hit_ratio": ("core.is_isomorphic", lambda: ratio(
                total["core.is_isomorphic.yield"], total["core.is_isomorphic.calls"])),
            "permgroup.closure.elements": ("permgroup.closure", lambda:
                                           out["permgroup.closure.yield"]),
            "congruence.all_congruences.found": ("congruence.all_congruences", lambda:
                                                 out["congruence.all_congruences.yield"]),
            "orbitseries.all_subquandles.found": ("orbitseries.all_subquandles", lambda:
                                                  out["orbitseries.all_subquandles.yield"]),
            "permgroup.normal_closure.rounds": ("permgroup.normal_closure", lambda: ratio(
                self._child_count("permgroup.normal_closure", "permgroup.closure"),
                total["permgroup.normal_closure.calls"])),
            "corpus.enumerate_quandles.accept_ratio": ("corpus.enumerate_quandles", lambda: ratio(
                total["corpus.enumerate_quandles.yield"],
                self._child_count("corpus.enumerate_quandles", "core.validate"))),
        }
        for key, (base, value) in derived.items():
            if base in self.name_ids:
                out[key] = value()
        return out

    def _child_count(self, parent: str, child: str) -> int:
        """Spans of child whose parent span is one of parent."""
        pid, cid = self.name_ids.get(parent), self.name_ids.get(child)
        if pid is None or cid is None:
            return 0
        name_of, parent_of = self.name_of, self.parent
        return sum(1 for i in range(len(name_of))
                   if name_of[i] == cid and parent_of[i] >= 0
                   and name_of[parent_of[i]] == pid)

    def write(self, path) -> None:
        """All spans as gzipped TSV: span, parent, op, name, start_s, end_s."""
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\top\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.op_of[i]}\t"
                          f"{names[self.name_of[i]]}\t{self.start[i] - origin:.9f}\t"
                          f"{self.end[i] - origin:.9f}\n")


def leftover_wrappers() -> list[str]:
    """Names in quandles.* namespaces or classes that still hold a span wrapper."""
    found = []
    for modname, module in list(sys.modules.items()):
        if modname != "quandles" and not modname.startswith("quandles."):
            continue
        for key, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append(f"{modname}.{key}")
            if inspect.isclass(value):
                for attr, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if getattr(fn, _MARK, False):
                        found.append(f"{modname}.{key}.{attr}")
    return found
