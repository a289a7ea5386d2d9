"""Span recorder for the benchmark's traced runs.

`install` wraps the public functions and methods of every loaded
`dblnerve` module, rebinds the names other modules imported from them,
and records a span around each call.  Spans stay in memory until
`Recorder.records` writes them out at the end of the run.

A span record has a name, a parent, the start of its first call and the
end of its last.  Calls of one function under the same parent span share
one record, which keeps their count and their summed duration; a direct
recursive call is counted in the open span instead of opening a new one.
This keeps memory bounded by the number of distinct call paths, not by
the number of calls.  A span's self time is its duration minus the time
its child spans cover.

The cell-algebra protocol (`h_then`, `s_vcomp`, ...) is left unwrapped:
those methods are constant-time table lookups made at every expression
node, so a span around them would time the recorder.  Their cost is self
time of the caller.

`expr.evaluate` is called tens of millions of times in a nerve sweep, so
it gets a leaner wrapper.  Its recursion stays off the wrapper: the
wrapped copy calls itself, and `expr.evaluate.nodes` adds the node count
of each evaluated expression.  Evaluation visits every node unless it
raises, and no caller in the program catches its errors, so the count is
exact for every operation that succeeds.  Every call is counted, but only
the first call under each parent span and every `SAMPLE`-th after it is
timed: two clock reads and the span bookkeeping on every call would make
a traced nerve sweep three times as long as an untraced one.  The span's
duration is its timed calls' duration scaled by calls over timed calls,
and its parent's self time excludes that estimate.
"""

from __future__ import annotations

import sys
import time
from types import FunctionType

CELL_PROTOCOL = frozenset({
    "obj_exists", "h_src", "h_tgt", "h_id", "h_then", "v_src", "v_tgt", "v_id",
    "v_then", "s_top", "s_bottom", "s_left", "s_right", "s_unit_h", "s_unit_v",
    "s_hcomp", "s_vcomp", "s_vinverse", "s_hinverse", "then", "is_identity",
})

# Queries that return the candidate lists of functor enumeration.
CANDIDATE_QUERIES = frozenset({
    "dblcat.hmors_between", "dblcat.vmors_between", "dblcat.squares_with",
    "twocat.one_cells_between", "twocat.two_cells_between",
})

SAMPLE = 8
SIZE_CACHE = 100_000


class Span:
    __slots__ = ("name", "parent", "children", "calls", "timed", "busy", "child_busy",
                 "start", "end")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.children = {}
        self.calls = 0
        self.timed = 0
        self.busy = 0.0
        self.child_busy = 0.0
        self.start = start
        self.end = start


def _child(parent, name):
    span = parent.children.get(name)
    if span is None:
        span = parent.children[name] = Span(name, parent, time.perf_counter())
    return span


class Recorder:
    def __init__(self):
        self.root = Span("run", None, time.perf_counter())
        self.stack = [self.root]
        self.counts = {
            "expr.evaluate.nodes": 0,
            "presentation.candidates": 0,
            "presentation.enumerate_functors.solutions": 0,
            "pseudohom.functors": 0,
            "pseudohom.transformations": 0,
            "nerve.budget_exceeded": 0,
            "io.dump.bytes": 0,
        }

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Open(self, name)

    def records(self):
        """Every span as a dict, parents before children."""
        order, pending = [], [self.root]
        while pending:
            span = pending.pop()
            order.append(span)
            pending.extend(reversed(list(span.children.values())))
        busy, untimed_children = {}, {}
        for span in reversed(order):
            busy[id(span)] = span.busy * span.calls / span.timed if span.timed else 0.0
            if span.parent is not None:
                key = id(span.parent)
                untimed_children[key] = (untimed_children.get(key, 0.0)
                                         + busy[id(span)] - span.busy)
        index, out = {}, []
        for span in order:
            index[id(span)] = len(out)
            out.append({
                "id": len(out),
                "name": span.name,
                "parent": None if span.parent is None else index[id(span.parent)],
                "start": span.start,
                "end": span.end,
                "calls": span.calls,
                "timed": span.timed,
                "busy_s": busy[id(span)],
                "self_s": 0.0 if span is self.root else (
                    busy[id(span)] - span.child_busy - untimed_children.get(id(span), 0.0)),
            })
        return out


class _Open:
    def __init__(self, recorder, name):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        stack = self.recorder.stack
        span = _child(stack[-1], self.name)
        span.calls += 1
        span.timed += 1
        stack.append(span)
        self.started = time.perf_counter()
        return span

    def __exit__(self, *exc):
        end = time.perf_counter()
        span = self.recorder.stack.pop()
        took = end - self.started
        span.busy += took
        span.end = end
        span.parent.child_busy += took
        return False


def layer_totals(records):
    """Per span name: calls and self seconds, summed over every record."""
    totals = {}
    for rec in records:
        entry = totals.setdefault(rec["name"], {"calls": 0, "self_s": 0.0})
        entry["calls"] += rec["calls"]
        entry["self_s"] += rec["self_s"]
    return totals


def _wrap(recorder, fn, name, after=None, on_error=None):
    stack = recorder.stack
    clock = time.perf_counter

    def traced(*args, **kwargs):
        parent = stack[-1]
        if parent.name is name:
            parent.calls += 1
            parent.timed += 1
            return fn(*args, **kwargs)
        span = _child(parent, name)
        span.calls += 1
        span.timed += 1
        stack.append(span)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(exc, parent)
            raise
        finally:
            end = clock()
            stack.pop()
            took = end - start
            span.busy += took
            span.end = end
            parent.child_busy += took
        if after is not None:
            after(result)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_evaluate(recorder, fn):
    """`_wrap` specialised to `expr.evaluate`: node counts, sampled time."""
    stack = recorder.stack
    clock = time.perf_counter
    counts = recorder.counts
    sizes = {}
    name = "expr.evaluate"
    fn = _self_recursive(fn)

    def evaluate(alg, expression, env):
        # Keyed by identity: equal expressions from different presentations
        # would cost a deep comparison on every lookup.  The entry holds the
        # expression, so its id cannot be reused while it is cached.
        entry = sizes.get(id(expression))
        if entry is None or entry[0] is not expression:
            if len(sizes) >= SIZE_CACHE:
                sizes.clear()
            entry = sizes[id(expression)] = (expression, _size(expression))
        counts["expr.evaluate.nodes"] += entry[1]
        parent = stack[-1]
        span = parent.children.get(name)
        if span is None:
            span = _child(parent, name)
        span.calls += 1
        if (span.calls - 1) % SAMPLE:
            return fn(alg, expression, env)
        span.timed += 1
        stack.append(span)
        start = clock()
        try:
            return fn(alg, expression, env)
        finally:
            end = clock()
            stack.pop()
            took = end - start
            span.busy += took
            span.end = end
            parent.child_busy += took

    evaluate.__wrapped__ = fn
    return evaluate


def _size(expression):
    """Number of nodes of an expression: the calls `evaluate` makes on it."""
    return 1 + sum(_size(part) for part in expression[1:] if isinstance(part, tuple))


def _self_recursive(fn):
    """A copy of `fn` whose recursive calls reach the copy itself instead of
    the module attribute that the wrapper replaces."""
    scope = dict(fn.__globals__)
    copy = FunctionType(fn.__code__, scope, fn.__name__, fn.__defaults__, fn.__closure__)
    scope[fn.__name__] = copy
    return copy


def _hooks(recorder, name, budget_error):
    """Counters taken at a wrapped function's boundary: keyword arguments
    for `_wrap` (after, on_error)."""
    counts = recorder.counts
    if name in CANDIDATE_QUERIES:
        # Only the queries made from presentation.py are the candidate lists
        # of `enumerate_functors`.  The same queries made inside an
        # enumeration by the cached inverse searches behind a flag check run
        # once per cell, so counting them would tie the total to the order
        # of the operations.  Frame 2 is the wrapper's caller.
        def after(result):
            if sys._getframe(2).f_globals.get("__name__") == "dblnerve.presentation":
                counts["presentation.candidates"] += len(result)
        return {"after": after}
    if name == "presentation.enumerate_functors":
        def after(result):
            counts["presentation.enumerate_functors.solutions"] += len(result)
        return {"after": after}
    if name == "pseudohom.pseudo_hom":
        def after(result):
            counts["pseudohom.functors"] += len(result.functors)
            counts["pseudohom.transformations"] += len(result.transformations)
        return {"after": after}
    if name == "io.dump":
        def after(result):
            counts["io.dump.bytes"] += len(result.encode("utf-8"))
        return {"after": after}
    if name.startswith("nerve."):
        def on_error(exc, parent):
            if isinstance(exc, budget_error) and not parent.name.startswith("nerve."):
                counts["nerve.budget_exceeded"] += 1
        return {"on_error": on_error}
    return {}


def install(recorder):
    """Wrap every public function and method of the loaded dblnerve modules."""
    from dblnerve.errors import BudgetExceeded

    modules = {
        key.split(".", 1)[1]: mod
        for key, mod in sorted(sys.modules.items())
        if key.startswith("dblnerve.") and mod is not None
    }
    wrapped = {}
    names = {}

    def wrap(fn, name):
        if name in names and names[name] is not fn:
            raise RuntimeError(f"two functions would share the span name {name!r}")
        names[name] = fn
        if name == "expr.evaluate":
            return _wrap_evaluate(recorder, fn)
        return _wrap(recorder, fn, name, **_hooks(recorder, name, BudgetExceeded))

    for short, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if isinstance(value, FunctionType):
                wrapped[value] = wrap(value, f"{short}.{attr}")
            elif isinstance(value, type):
                for method, fn in list(vars(value).items()):
                    if (method.startswith("_") or method in CELL_PROTOCOL
                            or not isinstance(fn, FunctionType)):
                        continue
                    setattr(value, method, wrap(fn, f"{short}.{method}"))

    for mod in [sys.modules["dblnerve"], *modules.values()]:
        for attr, value in list(vars(mod).items()):
            if isinstance(value, FunctionType) and value in wrapped:
                setattr(mod, attr, wrapped[value])
