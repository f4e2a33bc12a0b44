"""In-memory span tracer that wraps emibddc's public API from outside.

`Tracer.install` replaces every public function of the traced modules, and
every public method (plus ``__init__`` of non-dataclass classes) of their
public classes, with a wrapper that records a span: name, layer, parent,
start and end.  Functions are rebound in every ``emibddc`` module that
imported them by name, so ``from .x import f`` call sites are traced too.
Nothing under ``src/`` is modified; `Tracer.uninstall` restores the
originals.

A span's self time is its duration minus the durations of its direct
children; summed over all spans it equals the duration of the root span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time

# Modules of the package, bottom layer first.  The layer label drops the
# leading underscore so that it can start a metric name.
LAYERS = (
    "geometry",
    "femspace",
    "_kernels",
    "assembly",
    "schur",
    "sparsela",
    "bddc",
    "krylov",
    "harness",
)


def layer_label(module: str) -> str:
    return module.lstrip("_")


@dataclasses.dataclass
class Span:
    name: str  # "<layer>.<function>" or "<layer>.<Class>.<method>"
    layer: str
    parent: int  # index of the enclosing span, -1 for a root
    start: float
    end: float = 0.0
    info: object = None  # what the annotation hook measured at the boundary

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _public_names(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names if getattr(getattr(module, n), "__module__", None) == module.__name__]


class Tracer:
    """Records nested spans of every traced call while installed.

    ``annotate`` maps a span name to ``hook(args, kwargs, result)``; its
    return value is stored as ``Span.info``.  The hook runs after the span
    has ended, so its cost is charged to the parent span.
    """

    def __init__(self, annotate=None):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._annotate = dict(annotate or {})

    def _wrap(self, fn, name, layer):
        stack, spans = self._stack, self.spans
        hook = self._annotate.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, cls, label):
        for attr, raw in list(vars(cls).items()):
            is_init = attr == "__init__" and not dataclasses.is_dataclass(cls)
            if attr.startswith("_") and not is_init:
                continue
            name = f"{label}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrap(raw.__func__, name, label))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, label)
            else:
                continue
            self._patch(cls, attr, new)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        package = [m for n, m in list(sys.modules.items()) if n == "emibddc" or n.startswith("emibddc.")]
        for module_name in LAYERS:
            module = importlib.import_module(f"emibddc.{module_name}")
            label = layer_label(module_name)
            for attr in _public_names(module):
                obj = getattr(module, attr)
                if inspect.isclass(obj):
                    self._wrap_class(obj, label)
                elif inspect.isfunction(obj):
                    new = self._wrap(obj, f"{label}.{attr}", label)
                    for mod in package:
                        for key, value in list(vars(mod).items()):
                            if value is obj:
                                self._patch(mod, key, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._stack.clear()


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def nesting_errors(spans) -> list[str]:
    """Spans that end before they start or leave their parent's interval."""
    errors = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            errors.append(f"span {i} ({s.name}) ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.parent >= i or s.start < p.start or s.end > p.end:
                errors.append(f"span {i} ({s.name}) is not inside its parent {p.name}")
    return errors


def has_ancestor(spans, index: int, name: str) -> bool:
    """Whether span ``index`` runs inside a span called ``name``."""
    p = spans[index].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
