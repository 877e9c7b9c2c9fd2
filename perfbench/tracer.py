"""In-memory span tracer that instruments the mesher from outside.

Nothing in ``src/`` knows about this module.  A :class:`Tracer` patches
public names *where their callers look them up* (``from X import f``
binds ``f`` in the caller's module, so the patch goes on the caller's
module; methods are patched on their class) and records one span per
call: name, parent span, start, end, thread and, on client threads of
the service workload, a request id.  :meth:`Tracer.restore` puts every
original back.

Self time is computed from parent links, never from the program's flat
phase names (which overlap: under streaming ``refinement`` contains
``decoupling``).  Spans stay in memory and are written once, as Chrome
trace-event JSON, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "Tracer", "union_length"]


class Span:
    """One timed call.  ``end`` is ``None`` while the call is open."""

    __slots__ = ("sid", "name", "parent", "start", "end", "tid", "rid",
                 "args")

    def __init__(self, sid: int, name: str, parent: Optional[int],
                 start: float, tid: int, rid: Optional[int]) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end: Optional[float] = None
        self.tid = tid
        self.rid = rid
        self.args: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


def union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Span recorder plus the monkey-patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()
        self._patches: List[Tuple[object, str, object]] = []
        #: parent of spans opened on a thread with no open span (the
        #: current operation), so service threads join the op's tree.
        self.root: Optional[Span] = None

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid: Optional[int] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(next(self._ids), name,
                    parent.sid if parent is not None else None,
                    time.perf_counter(), threading.get_ident(), rid)
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    @contextlib.contextmanager
    def span(self, name: str, rid: Optional[int] = None) -> Iterator[Span]:
        sp = self.open(name, rid)
        try:
            yield sp
        finally:
            self.close(sp)

    def _active(self) -> bool:
        # Forked pool workers inherit the patches; their spans could
        # never reach this process, so they call straight through.
        return os.getpid() == self._pid

    # -- patching -------------------------------------------------------
    def patch(self, owner: object, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until restore().

        Raises ``AttributeError`` when the name is gone: the benchmark
        must be updated with the program, never silently skip a layer.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def wrap(self, owner: object, attr: str, name: str,
             on_return: Optional[Callable[[Span, object], None]] = None,
             around: Optional[Callable[[], contextlib.AbstractContextManager]]
             = None) -> None:
        """Record a span named ``name`` around every call of owner.attr.

        ``on_return(span, result)`` annotates the span from the result;
        ``around()`` gives a context manager entered inside the span
        (the per-layer counter sinks use it).
        """
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not self._active():
                    return fn(*args, **kwargs)
                with self.span(name) as sp:
                    if around is None:
                        result = fn(*args, **kwargs)
                    else:
                        with around():
                            result = fn(*args, **kwargs)
                    if on_return is not None:
                        on_return(sp, result)
                    return result
            return traced
        self.patch(owner, attr, make)

    def wrap_generator(self, owner: object, attr: str, name: str) -> None:
        """One span per ``next()`` of the generator owner.attr returns,
        so the consumer's work between items is not charged to it."""
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not self._active():
                    yield from it
                    return
                while True:
                    with self.span(name) as sp:
                        try:
                            item = next(it)
                        except StopIteration:
                            sp.args["exhausted"] = True
                            return
                    sp.args["items"] = 1
                    yield item
            return traced
        self.patch(owner, attr, make)

    def wrap_phase(self, owner: object, attr: str = "phase") -> None:
        """Turn the program's own ``phase(name)`` blocks into spans."""
        def make(fn: Callable) -> Callable:
            @contextlib.contextmanager
            def traced(name: str):
                if not self._active():
                    with fn(name):
                        yield
                    return
                with self.span(name), fn(name):
                    yield
            return traced
        self.patch(owner, attr, make)

    def wrap_timed(self, owner: object, attr: str = "timed") -> None:
        """Turn the program's ``timed(name)`` blocks into spans."""
        tracer = self

        def make(cls):
            class Traced(cls):
                __slots__ = ("_span",)

                def __enter__(self):
                    self._span = (tracer.open(self.name)
                                  if tracer._active() else None)
                    return super().__enter__()

                def __exit__(self, *exc):
                    super().__exit__(*exc)
                    if self._span is not None:
                        tracer.close(self._span)
            Traced.__name__ = cls.__name__
            return Traced
        self.patch(owner, attr, make)

    # -- analysis -------------------------------------------------------
    def finished(self) -> List[Span]:
        with self._lock:
            return [s for s in self.spans if s.end is not None]

    @staticmethod
    def self_times(spans: List[Span]) -> Dict[int, float]:
        """Span id -> duration minus the part its children cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = {}
        for s in spans:
            kids = [(max(lo, s.start), min(hi, s.end))
                    for lo, hi in children.get(s.sid, [])]
            out[s.sid] = s.duration - union_length(
                [(lo, hi) for lo, hi in kids if hi > lo])
        return out

    def write_chrome(self, path: str, spans: List[Span], t0: float,
                     meta: Dict[str, object]) -> None:
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        tids = {}
        events = []
        for s in spans:
            tid = tids.setdefault(s.tid, len(tids))
            args = {"id": s.sid, "parent": s.parent}
            if s.rid is not None:
                args["rid"] = s.rid
            args.update({k: v for k, v in s.args.items()
                         if isinstance(v, (int, float, str, bool))})
            events.append({
                "name": s.name, "ph": "X", "pid": self._pid, "tid": tid,
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3), "args": args,
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": meta}, fh)
