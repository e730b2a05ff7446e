"""Spans and counts around the library's layer boundaries, from outside.

The traced run replaces each public function below, under every name a
module of the package bound it to at import (``sl2geo.synthesis.s_int``,
``sl2geo.geodesics.exp2``, ...), with a wrapper that records a span or a
count.  No library file changes and the originals are restored afterwards.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, function) pairs timed with a span.
SPANNED = (
    ("geodesics", "s_int"),
    ("geodesics", "x_int"),
    ("synthesis", "distance_to_class"),
    ("synthesis", "solve"),
    ("algebra", "exp2"),
    ("geodesics", "lift"),
    ("geodesics", "lift_with_direction"),
    ("quotient", "project"),
    ("quotient", "recover_rotation"),
    ("geodesics", "sample_path"),
    ("su2", "reachable_boundary"),
    ("figures", "figure_svg"),
    ("cli", "main"),
)

# Sub-microsecond functions are only counted: a span around them would time
# the wrapper.  The value names the modules whose bindings are counted (None:
# every binding).  k1k2 is counted where synthesis calls it, once per
# evaluation of the polar-angle objective.
COUNTED = (
    ("_kernels", "coshc", None),
    ("geodesics", "k1k2", ("synthesis",)),
)

OP = "op"


def label(module: str, func: str) -> str:
    """Metric prefix of a traced function; metric names may not start with
    an underscore, so ``_kernels`` is reported as ``kernels``."""
    return f"{module.lstrip('_')}.{func}"


class Tracer:
    """Records spans (name, start, end, parent, op id) and call counts.

    fold() adds the recorded spans to running totals and drops them; the
    first batch is kept for write_spans, so memory stays bounded however
    long the traced run is.
    """

    def __init__(self):
        self.spans: list = []
        self.kept: list = []
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.wall = 0.0
        self._stack: list[int] = []
        self.op_id = -1
        self.ops = 0

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def op(self, call):
        """Wrap the workload's call so each operation gets its own op span."""
        timed = self.span(OP, call)

        def run(args):
            self.op_id += 1
            self.ops += 1
            return timed(args)
        return run

    def fold(self) -> None:
        """Add the recorded spans to the totals; call between operations.

        busy: time inside a function (outermost spans of that name); self:
        the same minus the time its child spans cover; wall: summed op time.
        """
        spans = self.spans
        children = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for idx, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            if name == OP:
                self.wall += dur
                continue
            self.calls[name] += 1
            self.self_time[name] += dur - children[idx]
            # Skip spans nested inside a span of the same name.
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                self.busy[name] += dur
        if not self.kept:
            self.kept = spans[:]
        spans.clear()  # in place: the wrappers hold this list


class Patched:
    """Context manager installing a tracer's wrappers into the package."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    @staticmethod
    def _bindings(target, only):
        for modname, mod in list(sys.modules.items()):
            if modname != "sl2geo" and not modname.startswith("sl2geo."):
                continue
            if only is not None and modname.removeprefix("sl2geo.") not in only:
                continue
            for attr, value in list(vars(mod).items()):
                if value is target:
                    yield mod, attr

    def __enter__(self):
        plan = [(m, f, None, self.tracer.span) for m, f in SPANNED]
        plan += [(m, f, only, self.tracer.count) for m, f, only in COUNTED]
        for module, func, only, make in plan:
            target = getattr(sys.modules[f"sl2geo.{module}"], func)
            wrapper = make(label(module, func), target)
            for mod, attr in list(self._bindings(target, only)):
                self._undo.append((mod, attr, target))
                setattr(mod, attr, wrapper)
        return self.tracer

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()
        return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """calls_per_op, busy_frac and self_frac per traced function, from the
    folded totals; busy and self time are shares of the summed op time.
    Counted functions only get calls_per_op."""
    tracer.fold()
    ops, wall = max(tracer.ops, 1), tracer.wall
    out = {}
    for module, func in SPANNED:
        name = label(module, func)
        out[f"{name}.calls_per_op"] = tracer.calls[name] / ops
        out[f"{name}.busy_frac"] = tracer.busy[name] / wall if wall else 0.0
        out[f"{name}.self_frac"] = tracer.self_time[name] / wall if wall else 0.0
    for module, func, _ in COUNTED:
        name = label(module, func)
        out[f"{name}.calls_per_op"] = tracer.counts[name] / ops
    return out


def write_spans(tracer: Tracer, path) -> None:
    """The kept spans, one CSV line each: id, name, start and end (us),
    parent, op id."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("id,name,start_us,end_us,parent,op\n")
        t0 = tracer.kept[0][1] if tracer.kept else 0.0
        for idx, (name, start, end, parent, op) in enumerate(tracer.kept):
            out.write(f"{idx},{name},{(start - t0) * 1e6:.3f},"
                      f"{(end - t0) * 1e6:.3f},{parent},{op}\n")
