"""Layer tracing for the benchmark's traced runs.

The tracer wraps the public functions of each layer module of
``reilly_lab`` from outside the package.  Modules import functions by
name (``flows`` binds ``periodic_diff1`` from ``numerics``), so every
module-level binding of a wrapped function object, in every loaded
``reilly_lab`` module, is replaced; ``uninstall`` puts the originals back.

Each call of a wrapped function while the tracer is installed records one
span: its name, the span that caused it, start and end.  Spans are kept
in memory in flat arrays and turned into per-layer metrics at the end.
A span's self time is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter

PACKAGE = "reilly_lab"
LAYER_MODULES = ("numerics", "flows", "operators", "bodies", "models",
                 "inequalities", "reilly", "reporting", "suites")
FLOW_INTEGRATORS = ("flows.parallel_normal_flow", "flows.weingarten_wave")
STENCILS = ("numerics.periodic_diff1", "numerics.periodic_diff2")
EMITTERS = ("reporting.emit_report", "reporting.flow_csv",
            "reporting.sweep_csv")
THUNK_PREFIX = "suites.thunk."


def _operator_kind(args, kwargs):
    op = args[0] if args else kwargs["op"]
    return ".dense" if op.kind == "periodic" else ".tridiag"


def _dense_n3(args, kwargs, result):
    op = args[0] if args else kwargs["op"]
    return float(op.n) ** 3 if op.kind == "periodic" else 0.0


def _text_bytes(args, kwargs, result):
    return float(len(result.encode("utf-8")))


def _flow_steps(args, kwargs, result):
    series = result.series
    return 0.0 if series is None else float(len(series.times) - 1)


def _workers(args, kwargs, result):
    return float(kwargs.get("workers", args[2] if len(args) > 2 else 1))


# Span-name suffixes chosen from the arguments, and the one number kept
# with a span (n^3 of a dense eigensolve, bytes emitted, RK steps taken,
# worker count).
_SUFFIX = {"operators.spectral_gap": _operator_kind,
           "operators.eigenvalues": _operator_kind}
_VALUE = {"operators.spectral_gap": _dense_n3,
          "operators.eigenvalues": _dense_n3,
          "reporting.emit_report": _text_bytes,
          "reporting.flow_csv": _text_bytes,
          "reporting.sweep_csv": _text_bytes,
          "flows.parallel_normal_flow": _flow_steps,
          "flows.weingarten_wave": _flow_steps,
          "suites.run_suite_checks": _workers}


class Tracer:
    """Records spans around the layer functions of ``reilly_lab``."""

    def __init__(self):
        self._names = []
        self._name_ids = {}
        self._sid = array("q")
        self._parent = array("q")
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._value = array("d")
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    # -- patching ---------------------------------------------------------

    def install(self) -> int:
        """Wrap every public layer function; returns the bindings patched."""
        wrappers = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        loaded = [m for name, m in list(sys.modules.items())
                  if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in loaded:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, obj))
        return len(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, qualname, fn):
        suffix = _SUFFIX.get(qualname)
        value_of = _VALUE.get(qualname)
        wraps_thunks = qualname == "suites.suite_thunks"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = qualname if suffix is None else qualname + suffix(args, kwargs)
            result = tracer.call(name, fn, args, kwargs, value_of)
            if wraps_thunks:
                result = [(n, tracer._thunk(n, t)) for n, t in result]
            return result

        return traced

    def _thunk(self, name, fn):
        # A thunk may run on an executor thread, whose span stack is empty:
        # its parent is then the span that built the thunk list.
        span = THUNK_PREFIX + name.replace("/", ".")
        creator = self._current()
        return lambda: self.call(span, fn, (), {}, parent=creator)

    # -- recording --------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def call(self, name, fn, args, kwargs, value_of=None, parent=0):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        result = None
        ok = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = perf_counter()
            stack.pop()
            value = value_of(args, kwargs, result) if ok and value_of else 0.0
            self._record(sid, parent, name, start, end, value)

    def _record(self, sid, parent, name, start, end, value):
        with self._lock:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self._names)
                self._names.append(name)
            self._sid.append(sid)
            self._parent.append(parent)
            self._name.append(name_id)
            self._start.append(start)
            self._end.append(end)
            self._value.append(value)

    def spans(self):
        """(sid, parent, name, start, end, value) for every recorded span."""
        names = self._names
        return [(s, p, names[n], a, b, v) for s, p, n, a, b, v in zip(
            self._sid, self._parent, self._name, self._start, self._end,
            self._value)]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("sid,parent,name,start,end,value\n")
            for sid, parent, name, start, end, value in self.spans():
                handle.write(f"{sid},{parent},{name},{start!r},{end!r},"
                             f"{value!r}\n")


def self_times(spans):
    """Self time of each span: its duration minus the union of the
    intervals of its children, clipped to the span's own interval.

    ``spans`` holds (sid, parent, start, end); parent 0 means no parent.
    Children may overlap (executor threads), so their union is taken.
    """
    bounds = {}
    children = defaultdict(list)
    for sid, parent, start, end in spans:
        bounds[sid] = (start, end)
        if parent:
            children[parent].append((start, end))
    out = {}
    for sid, (start, end) in bounds.items():
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(sid, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans, passes: int):
    """Per-pass layer metrics from the spans of ``passes`` traced passes.

    Function spans give ``<span>.calls`` and ``<span>.self_s``; thunk spans
    give ``suites.thunk.<name>.s`` and ``suites.<suite>.s``.  Ratios are
    taken over the whole run, everything else is divided by ``passes``.
    """
    spans = list(spans)
    selfs = self_times((s, p, a, b) for s, p, _, a, b, _ in spans)
    name_of = {s: n for s, _, n, _, _, _ in spans}
    parent_of = {s: p for s, p, _, _, _, _ in spans}

    def in_flow(sid):
        while sid:
            if name_of.get(sid) in FLOW_INTEGRATORS:
                return True
            sid = parent_of.get(sid, 0)
        return False

    out = defaultdict(float)
    steps = flow_stencils = thunk_time = suite_capacity = 0.0
    for sid, parent, name, start, end, value in spans:
        duration = end - start
        if name.startswith(THUNK_PREFIX):
            out[name + ".s"] += duration
            out[f"suites.{name.split('.')[2]}.s"] += duration
            thunk_time += duration
            continue
        out[name + ".calls"] += 1
        out[name + ".self_s"] += selfs[sid]
        if name.endswith(".dense"):
            out["operators.dense.n3_sum"] += value
        elif name in EMITTERS:
            out[name + ".bytes"] += value
        elif name in FLOW_INTEGRATORS:
            steps += value
        elif name == "suites.run_suite_checks":
            suite_capacity += duration * value
        if name in STENCILS and in_flow(parent):
            flow_stencils += 1
    passes = max(passes, 1)
    metrics = {key: value / passes for key, value in out.items()}
    metrics["flows.steps"] = steps / passes
    metrics["flows.stencil_calls_per_step"] = (flow_stencils / steps
                                               if steps else 0.0)
    metrics["suites.parallel_efficiency"] = (thunk_time / suite_capacity
                                             if suite_capacity else 0.0)
    return metrics
