"""In-memory span tracer that wraps ``symcube`` functions from outside.

A wrapped function gets a span per call: its layer name, start and end, and
the span that was open when it was called.  Wrapping replaces every binding
of the function object across the loaded ``symcube.*`` modules, because
modules import each other's functions by name (``equivalence`` holds its own
``canonicalize``, ``search`` its own ``cube_certificate``); patching only the
defining module would miss those calls.  Methods are patched on their class.

A call to a function while a span of the same function is innermost (the
recursive ``PermGroup.order``) runs unwrapped and is part of the outer span.
Each wrapper also times its own bookkeeping, which is the tracing overhead.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    layer: str
    func: str
    parent: int | None
    start: int
    end: int = 0
    child_ns: int = 0
    phase: str = "work"
    counts: dict = field(default_factory=dict)

    @property
    def dur_s(self) -> float:
        return (self.end - self.start) / 1e9

    @property
    def self_s(self) -> float:
        return (self.end - self.start - self.child_ns) / 1e9


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.overhead_ns = {"setup": 0, "work": 0}  # time spent in the wrappers
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def ancestors(self, idx: int):
        parent = self.spans[idx].parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def _wrapper(self, layer: str, func_key: str, fn, on_call=None, on_result=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]].func == func_key:
                return fn(*args, **kwargs)
            entered = time.perf_counter_ns()
            idx = len(spans)
            span = Span(layer, func_key, stack[-1] if stack else None, 0, phase=self.phase)
            spans.append(span)
            if on_call is not None:
                args, kwargs = on_call(span, args, kwargs)
            stack.append(idx)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_ns += span.end - span.start
            if on_result is not None:
                on_result(span, result)
            self.overhead_ns[span.phase] += span.start - entered + time.perf_counter_ns() - span.end
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def wrap_function(self, module_name: str, name: str, layer: str, on_call=None, on_result=None):
        """Replace every binding of ``module.name`` in the loaded symcube
        modules by a traced wrapper; returns the number of bindings."""
        fn = getattr(sys.modules[module_name], name)
        wrapper = self._wrapper(layer, f"{module_name}.{name}", fn, on_call, on_result)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "symcube" or mod_name.startswith("symcube.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"no binding of {module_name}.{name} found")
        return bound

    def wrap_method(self, cls, name: str, layer: str):
        fn = cls.__dict__[name]
        self._patched.append((cls, name, fn))
        setattr(cls, name, self._wrapper(layer, f"{cls.__qualname__}.{name}", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- queries --------------------------------------------------------------

    def work_spans(self, *layers: str) -> list[tuple[int, Span]]:
        return [
            (i, s) for i, s in enumerate(self.spans) if s.phase == "work" and s.layer in layers
        ]
