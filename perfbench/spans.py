"""Span tracing of kpsym's layers, installed from outside the package.

`Tracer.install` wraps the public functions of the layer modules and
rebinds each one under every name that holds it in any kpsym module, so
calls between modules are traced as well as the benchmark's own calls.
Spans (name, start, end, parent) are kept in memory; `summarize` turns them
into calls, inclusive seconds and self seconds per name, where self seconds
are a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("loopfn", "symbol", "tseries", "factorization", "zerocurv", "kp2")


class Tracer:
    def __init__(self):
        self.names = []  # name table; spans refer to names by index
        self.spans = []  # [name index, start, end, parent span index or -1]
        self._ids = {}
        self._stack = []
        self._restore = []  # (owner, attribute, original value)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(self._name_id(name))
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter())

    def _open(self, nid: int) -> int:
        idx = len(self.spans)
        self.spans.append([nid, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[1] = start
        span[2] = end

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(nid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, start, clock())

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer of `package`, the
        LoopFn-by-LoopFn product (not scaling by a number) as `loopfn.mul`,
        and the flow right-hand side as `kp2.flow_rhs` (four per RK4 step)."""
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        for layer in LAYERS:
            mod = importlib.import_module(f"{prefix}.{layer}")
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._rebind(modules, fn, self.wrap(f"{layer}.{fname}", fn))
        kp2 = importlib.import_module(f"{prefix}.kp2")
        self._rebind(modules, kp2._flow_rhs, self.wrap("kp2.flow_rhs", kp2._flow_rhs))

        loop_fn = importlib.import_module(f"{prefix}.loopfn").LoopFn
        plain_mul = loop_fn.__mul__
        traced_mul = self.wrap("loopfn.mul", plain_mul)

        def mul(a, b):
            return traced_mul(a, b) if isinstance(b, loop_fn) else plain_mul(a, b)

        self._restore.append((loop_fn, "__mul__", plain_mul))
        loop_fn.__mul__ = mul

    def _rebind(self, modules, original, replacement) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take(self) -> list:
        """Return the recorded spans and start an empty record."""
        if self._stack:
            raise RuntimeError("spans are still open")
        out = list(self.spans)
        self.spans.clear()
        return out


def span_cost(calls: int = 2000, rounds: int = 7) -> float:
    """Seconds one span adds to a call: a traced no-op against a bare one,
    median over rounds.  Spans times this is the tracing overhead of an
    operation; the difference between a traced and an untraced operation is
    not used, because one operation varies by +-20% on a shared machine,
    far more than the overhead."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("noop", noop)
    costs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        tracer.take()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def summarize(spans: list, names: list) -> dict:
    """name -> {calls, s, self_s}.  `s` sums the durations of a name's
    outermost spans, so a function that calls itself is not counted twice."""
    child = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (nid, start, end, parent) in enumerate(spans):
        rec = out.setdefault(names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child[i]
        up = parent
        while up >= 0 and spans[up][0] != nid:
            up = spans[up][3]
        if up < 0:
            rec["s"] += end - start
    return out
