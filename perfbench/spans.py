"""In-memory span recording around the program's layer boundaries.

The benchmark times layers from its own files: :class:`Tracer.install`
swaps a wrapper in for a class attribute or module function, and
:meth:`Tracer.uninstall` puts every original back.  Nothing under
``src/`` knows it is being traced.

A span is ``(id, name, start, end, parent, ctx)``: ``parent`` is the id
of the enclosing span (or -1), ``ctx`` the tick index (fleet runs) or
request id (serve runs) the span belongs to.  Parents are tracked in a
:class:`contextvars.ContextVar`, so nesting stays correct per thread and
per asyncio task.  Garbage-collector pauses are recorded beside the
spans, each tagged with the innermost span it landed in.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import inspect
import itertools
import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, int, int]
#: (start, end, generation, span id the pause landed in or -1)
GcPause = Tuple[float, float, int, int]

_current: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=-1
)


class Tracer:
    """Collects spans and GC pauses until :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.gc_pauses: List[GcPause] = []
        #: Tick index or request id stamped on new spans.
        self.ctx = -1
        # itertools.count is safe to advance from several threads.
        self._new_id = itertools.count().__next__
        self._patched: List[Tuple[Any, str, Any]] = []
        self._gc_start: Optional[Tuple[float, int]] = None

    # -- recording ---------------------------------------------------------
    def record(
        self, name: str, start: float, end: float, ctx: int = -1, parent: int = None
    ) -> None:
        """Record a span measured by the caller (default parent: current)."""
        if parent is None:
            parent = _current.get()
        self.spans.append((self._new_id(), name, start, end, parent, ctx))

    def wrap(self, name: str, fn: Callable, ctx: Callable[[], int] = None) -> Callable:
        """``fn`` timed as span ``name`` (coroutine functions stay async)."""
        spans = self.spans
        new_id = self._new_id
        ctx_of = ctx or (lambda: self.ctx)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent = _current.get()
                sid = new_id()
                token = _current.set(sid)
                start = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    _current.reset(token)
                    spans.append((sid, name, start, end, parent, ctx_of()))

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _current.get()
            sid = new_id()
            token = _current.set(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _current.reset(token)
                spans.append((sid, name, start, end, parent, ctx_of()))

        return wrapper

    # -- installation ------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, owner: Any, attr: str, name: str, ctx=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``."""
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), ctx))

    def install_gc(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._patched.append((None, "gc", None))

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = (perf_counter(), _current.get())
            return
        if self._gc_start is None:
            return
        start, span = self._gc_start
        self._gc_start = None
        self.gc_pauses.append((start, perf_counter(), info["generation"], span))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if owner is None:
                gc.callbacks.remove(self._on_gc)
            else:
                setattr(owner, attr, original)

    def dump(self, path: str, **extra: Any) -> None:
        """Write spans, GC pauses and ``extra`` as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "gc": self.gc_pauses, **extra}, fh)


def current_span() -> int:
    return _current.get()


def load(path: str) -> Dict[str, Any]:
    """A :meth:`Tracer.dump` document, spans and GC pauses as tuples."""
    with open(path) as fh:
        doc = json.load(fh)
    doc["spans"] = [tuple(s) for s in doc["spans"]]
    doc["gc"] = [tuple(g) for g in doc["gc"]]
    return doc


def self_times(
    spans: List[Span], gc_pauses: List[GcPause]
) -> Dict[int, Tuple[float, float]]:
    """Per span id: (self time excluding GC, GC time that landed in it).

    Self time is the span's duration minus its children's durations and
    minus the collector pauses attributed to it.
    """
    child_time: Dict[int, float] = {}
    for _sid, _name, start, end, parent, _ctx in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    gc_time: Dict[int, float] = {}
    for start, end, _gen, span in gc_pauses:
        if span >= 0:
            gc_time[span] = gc_time.get(span, 0.0) + (end - start)
    out = {}
    for sid, _name, start, end, _parent, _ctx in spans:
        g = gc_time.get(sid, 0.0)
        out[sid] = (end - start - child_time.get(sid, 0.0) - g, g)
    return out
