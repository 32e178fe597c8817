"""Span tracing of blockforge from outside the package.

`Tracer.install` wraps the public functions of each layer module, the
public `FieldSpec` methods, `MatrixGF.__init__` and `BlockingSet.from_points`.
Each original function gets exactly one wrapper, and that wrapper is bound
in every blockforge namespace that holds the original (modules that did
`from .linalg import rank` keep their own reference), so a call is counted
once whichever module makes it.  `Tracer.uninstall` restores the originals.

Spans are aggregated in memory by name: calls, inclusive time (outermost
call only) and self time (duration minus the time covered by child spans).
Generator functions get one span per `next()`, so the consumer's work
between items is not charged to the generator.  Tracing assumes a single
thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("gf", "linalg", "supply", "expander", "construct", "verify", "mincode")


class Span:
    __slots__ = ("calls", "incl", "self_s", "depth", "yielded")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.yielded = 0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = {
            "gf.matmul_arr": self._on_matmul,
            "linalg.rref": self._on_rref,
            "linalg.rank": self._on_rank,
            "verify.is_strong_blocking": self._on_verify,
            "verify.is_strong_blocking_sampled": self._on_sampled,
            "mincode.is_s_minimal": self._on_minimal,
            "construct.edge_span_union": self._on_span_union,
        }

    # -- counters measured at layer boundaries ---------------------------------

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def active(self, name: str) -> bool:
        span = self.spans.get(name)
        return span is not None and span.depth > 0

    def _on_matmul(self, args, out):
        rows, cols = out.shape
        inner = np.shape(args[1])[-1]  # args = (field, a, b)
        self.count("gf.matmul_arr.mac", rows * inner * cols)
        self.count("gf.matmul_arr.bytes", 8 * (rows * inner + inner * cols + rows * cols))
        if self.active("construct.edge_span_union"):
            self.count("construct.points_emitted", cols)

    def _on_rref(self, args, out):
        if self.active("verify.is_strong_blocking"):
            self.count("verify.rref_calls", 1)

    def _on_rank(self, args, out):
        if self.active("supply.verify_general_position"):
            self.count("supply.rank_calls", 1)

    def _on_verify(self, args, report):
        self.count("verify.subspaces_checked", report.subspaces_checked)

    def _on_sampled(self, args, report):
        self.count("verify.trials", report.subspaces_checked)

    def _on_minimal(self, args, report):
        self.count("mincode.subspaces_examined", report.subspaces_examined)

    def _on_span_union(self, args, b):
        self.count("construct.points_unique", b.size)

    # -- wrappers ---------------------------------------------------------------

    def _close(self, span: Span, frame: list[float], t0: float) -> None:
        dt = time.perf_counter() - t0
        self._stack.pop()
        span.depth -= 1
        span.self_s += dt - frame[0]
        if span.depth == 0:
            span.incl += dt
        if self._stack:
            self._stack[-1][0] += dt

    def _wrap(self, name: str, fn):
        span = self.spans.setdefault(name, Span())
        hook = self._hooks.get(name)
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span.calls += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        frame = [0.0]
                        stack.append(frame)
                        span.depth += 1
                        t0 = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            close(span, frame, t0)
                        span.yielded += 1
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span.calls += 1
            frame = [0.0]
            stack.append(frame)
            span.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(span, frame, t0)
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def install(self, bf) -> int:
        """Wrap and bind; returns the number of namespace bindings replaced."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"{bf.__name__}.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        gf, linalg, construct = bf.gf, bf.linalg, bf.construct
        for attr, obj in list(vars(gf.FieldSpec).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._set(gf.FieldSpec, attr, self._wrap(f"gf.{attr}", obj))
        init = linalg.MatrixGF.__dict__["__init__"]
        self._set(linalg.MatrixGF, "__init__", self._wrap("linalg.MatrixGF", init))
        from_points = construct.BlockingSet.__dict__["from_points"]
        self._set(construct.BlockingSet, "from_points",
                  classmethod(self._wrap("construct.from_points", from_points.__func__)))
        prefix = bf.__name__ + "."
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == bf.__name__ or n.startswith(prefix)]
        bound = 0
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(ns, attr, entry[1])
                    bound += 1
        return bound

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- report -----------------------------------------------------------------

    def span(self, name: str) -> Span:
        return self.spans.get(name, Span())

    def layer_self(self, layer: str) -> float:
        return sum(s.self_s for n, s in self.spans.items() if n.startswith(layer + "."))
