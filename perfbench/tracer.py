"""Layer spans recorded from outside the program.

``Tracer.install`` replaces every public function of each layer module
(the names in its ``__all__``) with a wrapper, in every expwell module
namespace that holds a reference to it, so calls made through
``from .x import f`` are seen as well.  A wrapper opens a span with its
name, start, end, parent and op id; spans stay in memory and are written
out by ``write``.

``specfun`` is entered about 10^4 times per op, mostly for cheap cache
hits, so its calls get no span of their own: each outermost specfun call
adds its count and duration to the span it was made from.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

LAYERS = ("specfun", "bound", "quadrature", "scatter", "crum", "oracle",
          "verify", "cli")
AGGREGATED = "specfun"
HARNESS = "bench"

# span record fields
IDX, NAME, LAYER, START, END, PARENT, OP, OUTER, CHILD_NS, SF_CALLS, SF_NS = range(11)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._active: dict[str, int] = {}
        self._in_specfun = False
        self._in_det = 0
        self.integrand_evals = 0
        self.det_specfun_calls = 0

    # -- installation ---------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the public functions of each layer module in ``modules``.

        ``modules`` maps layer name to module; every module whose name
        starts with the package name has its references rebound.
        """
        replace = {}
        for layer, mod in modules.items():
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    qual = f"{layer}.{name}"
                    if layer == AGGREGATED:
                        replace[id(fn)] = (fn, self._specfun_wrapper(fn))
                    else:
                        replace[id(fn)] = (fn, self._span_wrapper(fn, qual, layer))
        det = getattr(modules.get("crum"), "_wronskian_det_mp", None)
        if det is not None:
            replace[id(det)] = (det, self._det_wrapper(det))
        prefix = self.package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def _span_wrapper(self, fn, qual: str, layer: str):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns
        count_integrand = layer == "quadrature"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if count_integrand and parent[LAYER] != "quadrature" and args \
                    and callable(args[0]):
                args = (self._counted(args[0]),) + args[1:]
            depth = active.get(qual, 0)
            rec = [len(spans), qual, layer, 0, 0, parent[IDX], parent[OP],
                   depth == 0, 0, 0, 0]
            spans.append(rec)
            stack.append(rec)
            active[qual] = depth + 1
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                active[qual] = depth
                stack.pop()
                parent[CHILD_NS] += end - rec[START]

        return wrapper

    def _counted(self, f):
        def integrand(*args):
            self.integrand_evals += 1
            return f(*args)
        return integrand

    def _specfun_wrapper(self, fn):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_specfun:
                return fn(*args, **kwargs)
            self._in_specfun = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._in_specfun = False
                top = stack[-1]
                top[SF_CALLS] += 1
                top[SF_NS] += dt
                top[CHILD_NS] += dt
                if self._in_det:
                    self.det_specfun_calls += 1

        return wrapper

    def _det_wrapper(self, det):
        @functools.wraps(det)
        def wrapper(*args, **kwargs):
            self._in_det += 1
            try:
                return det(*args, **kwargs)
            finally:
                self._in_det -= 1

        return wrapper

    # -- op roots -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        rec = [len(self.spans), "op", HARNESS, 0, 0, -1, op_id, True, 0, 0, 0]
        self.spans.append(rec)
        self._stack.append(rec)
        rec[START] = time.perf_counter_ns()

    def end_op(self) -> None:
        rec = self._stack.pop()
        rec[END] = time.perf_counter_ns()
        if self._stack or rec[LAYER] != HARNESS:
            raise RuntimeError("span stack unbalanced at the end of an op")

    # -- results --------------------------------------------------------

    def wall_ns(self) -> int:
        return sum(r[END] - r[START] for r in self.spans if r[PARENT] == -1)

    def self_ns(self) -> dict[str, int]:
        """Busy time of each layer minus the time its child spans cover.

        Specfun has no children, so its self time is its aggregated time.
        """
        out = dict.fromkeys((HARNESS,) + LAYERS, 0)
        for r in self.spans:
            out[r[LAYER]] += r[END] - r[START] - r[CHILD_NS]
            out[AGGREGATED] += r[SF_NS]
        return out

    def busy_ns(self, qual: str) -> int:
        """Time inside outermost calls of one function."""
        return sum(r[END] - r[START] for r in self.spans
                   if r[NAME] == qual and r[OUTER])

    def calls(self, qual: str) -> int:
        return sum(r[NAME] == qual for r in self.spans)

    def layer_entries(self, layer: str) -> int:
        """Calls into a layer from another layer."""
        if layer == AGGREGATED:
            return sum(r[SF_CALLS] for r in self.spans)
        parents = self.spans
        return sum(r[LAYER] == layer and parents[r[PARENT]][LAYER] != layer
                   for r in self.spans if r[PARENT] >= 0)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for r in self.spans:
                fh.write(json.dumps({
                    "id": r[IDX], "name": r[NAME], "start_ns": r[START],
                    "end_ns": r[END], "parent": r[PARENT], "op": r[OP],
                    "specfun_calls": r[SF_CALLS], "specfun_ns": r[SF_NS],
                }) + "\n")
