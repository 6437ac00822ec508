"""Per-layer tracing of mixedpoly, installed from outside the package.

``Tracer.install()`` replaces every name that binds a public function of a
``mixedpoly`` module -- in its own module, in the package namespace and in
the modules that copied it with ``from .x import y`` -- by a wrapper that
records a span.  The ``TSeries`` arithmetic methods are wrapped on the class
(``__rmul__`` and ``__radd__`` are aliases, so both names are rebound).
``XPoly.__mul__`` is counted, with the bit size of the coefficients it
produces, but never spanned: it is too frequent for a span to stay cheap.

Spans are kept in memory as (name, start, end, parent, request id) and
handed back to the caller, which writes them out when the benchmark ends.
A span's self time is its duration minus the durations of its direct
children.  Nothing under ``src/`` is changed; install only in a process
that is about to run one traced request or session and then exit.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("series", "families", "mixed", "padic", "dsl", "cli")

# TSeries methods spanned, by the span name they report under.
_TSERIES_METHODS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "div",
    "__rtruediv__": "div",
    "__pow__": "pow",
    "compose": "compose",
    "shift_down": "shift_down",
    "poly": "poly",
}

# In cli only main is spanned: the cmd_* functions run inside it, so its
# self time is argparse and output formatting, outside any library span.
_CLI_SPANNED = frozenset({"main"})


def _layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    if not module.startswith("mixedpoly."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


def _public_functions(module):
    """(name, function) for the public functions a module itself defines."""
    layer = module.__name__.split(".", 1)[1]
    for name, value in vars(module).items():
        if name.startswith("_") or inspect.isclass(value) or not callable(value):
            continue
        if _layer_of(value) != layer:
            continue
        if layer == "cli" and name not in _CLI_SPANNED:
            continue
        yield name, value


def _ast_nodes(node) -> int:
    """Number of nodes in a DSL syntax tree (dataclasses with child fields)."""
    count = 0
    stack = [node]
    while stack:
        cur = stack.pop()
        count += 1
        for attr in ("left", "right", "operand", "base", "arg"):
            child = getattr(cur, attr, None)
            if child is not None:
                stack.append(child)
    return count


class Tracer:
    """Spans and counters for one process; see the module docstring."""

    def __init__(self):
        self.request_id = 0
        self.spans: list = []  # (name, start, end, parent index, request id)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.bits_max = 0
        self._stack: list[list] = []  # [span index, child seconds, name]
        self.top_level_s = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mixedpoly" or name.startswith("mixedpoly."))
        ]
        wrappers = {}
        for module in modules:
            if module.__name__ == "mixedpoly" or module.__name__.split(".", 1)[1] not in LAYERS:
                continue
            layer = module.__name__.split(".", 1)[1]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = self._span_wrapper(f"{layer}.{name}", fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)

        series = sys.modules["mixedpoly.series"]
        tseries = series.TSeries
        originals = {name: tseries.__dict__[name] for name in _TSERIES_METHODS}
        for name, short in _TSERIES_METHODS.items():
            setattr(tseries, name, self._span_wrapper(f"series.{short}", originals[name]))
        xpoly = series.XPoly
        counted = self._counted_xpoly_mul(xpoly.__dict__["__mul__"], xpoly)
        xpoly.__mul__ = counted
        xpoly.__rmul__ = counted

    def _span_wrapper(self, name: str, fn):
        after = self._observers().get(name)
        is_dsl = name.startswith("dsl.")
        calls, self_s, counts = self.calls, self.self_s, self.counts
        spans, stack = self.spans, self._stack
        dsl_error = sys.modules["mixedpoly.dsl"].DslError

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0, name]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except dsl_error:
                if is_dsl and (parent is None or not parent[2].startswith("dsl.")):
                    counts["dsl.errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                else:
                    self.top_level_s += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]
                spans[frame[0]] = (
                    name, start, end, None if parent is None else parent[0], self.request_id
                )
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _observers(self) -> dict:
        counts = self.counts

        def parse_nodes(args, result):
            counts["dsl.nodes"] += _ast_nodes(result)

        def instances(args, result):
            counts["mixed.instances"] += len(result)
            counts["mixed.instances_failed"] += sum(1 for rep in result if not rep.passed)

        def multifold_summands(args, result):
            # multifold_integral(kind, f, k, x0, ctx): M per 1-fold level and
            # 2M-1 per 2-fold level (the 2-fold sum runs over y1 + y2).
            k, ctx = args[2], args[4]
            M = ctx.p**ctx.N
            counts["padic.summands"] += M if k == 1 else 2 * M - 1

        def finite_summands(args, result):
            # finite_integral(kind, f, ctx)
            ctx = args[2]
            counts["padic.summands"] += ctx.p**ctx.N

        return {
            "dsl.parse": parse_nodes,
            "mixed.verify_identity": instances,
            "padic.multifold_integral": multifold_summands,
            "padic.finite_integral": finite_summands,
        }

    def _counted_xpoly_mul(self, mul, xpoly):
        counts = self.counts

        def counted(a, b):
            result = mul(a, b)
            counts["series.xpoly_mul.calls"] += 1
            if type(result) is xpoly and result.coeffs:
                bits = max(
                    max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in result.coeffs
                )
                if bits > self.bits_max:
                    self.bits_max = bits
            return result

        return counted

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters and self times so far, as plain data."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "bits_max": self.bits_max,
            "top_level_s": self.top_level_s,
        }

