"""In-memory span tracer that wraps library functions from outside.

The tracer never edits the library: :meth:`Tracer.wrap` replaces a
function on the module (or a method on the class) *where its caller
looks it up*, records one span per call, and :meth:`Tracer.restore` puts
the original object back.  Spans carry ``(name, start, end, parent, op)``
and are kept in memory until :meth:`Tracer.write_chrome` writes them once
as Chrome trace-event JSON.

Self time is computed online: every open span on a thread's stack
accumulates the duration of its direct children, and on exit its self
time is its duration minus that covered time.  Children of a span run on
the span's own thread and nest inside it, so the covered time is exactly
the union of the children's intervals.

Very hot leaf functions (hundreds of thousands of calls per operation)
are wrapped with ``leaf=True``: they add to their parent's covered time
and to their own totals but are not stored as individual spans, which
keeps a traced run's memory bounded.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: The op tag of spans recorded while the benchmark sets a workload up;
#: their totals are reported apart from those of the timed operations.
SETUP = "setup"


@dataclass(frozen=True)
class Span:
    """One finished call: times are clock seconds, ``parent`` is the id
    of the enclosing span on the same thread (``None`` at the top)."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Any
    tid: int
    self_s: float


class _ThreadState:
    """Per-thread span stack plus totals, merged when the trace is read
    (keeps the hot path free of locks)."""

    def __init__(self) -> None:
        # Each frame: [id, name, start, covered, op]
        self.stack: List[list] = []
        self.op: Any = None
        self.spans: List[Span] = []
        self.self_s: Dict[Tuple[str, bool], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, bool], int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)


NameSpec = Union[str, Callable[..., str]]


class Tracer:
    """Records spans around wrapped callables; see the module docstring.

    ``clock`` is injectable so tests can build span trees with exact,
    synthetic times.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _current_op(self, state: _ThreadState) -> Any:
        return state.stack[-1][4] if state.stack else state.op

    @contextmanager
    def op(self, op_id: Any):
        """Tag every span this thread opens inside the block with ``op_id``."""
        state = self._state()
        previous, state.op = state.op, op_id
        try:
            yield
        finally:
            state.op = previous

    def _enter(self, name: str, op: Any = None) -> list:
        state = self._state()
        frame = [
            self._new_id(), name, self.clock(), 0.0,
            self._current_op(state) if op is None else op,
        ]
        state.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = self.clock()
        state = self._state()
        popped = state.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        span_id, name, start, covered, op = frame
        duration = end - start
        parent = state.stack[-1] if state.stack else None
        if parent is not None:
            parent[3] += duration
        self_s = duration - covered
        key = (name, op == SETUP)
        state.self_s[key] += self_s
        state.calls[key] += 1
        state.spans.append(
            Span(
                id=span_id, name=name, start=start, end=end,
                parent=None if parent is None else parent[0], op=op,
                tid=threading.get_ident(), self_s=self_s,
            )
        )

    @contextmanager
    def span(self, name: str, op: Any = None):
        """Record the block as one span named ``name``."""
        frame = self._enter(name, op)
        try:
            yield
        finally:
            self._exit(frame)

    def leaf(self, name: str, duration: float) -> None:
        """Account one call of a hot leaf without storing a span."""
        state = self._state()
        if state.stack:
            state.stack[-1][3] += duration
        key = (name, self._current_op(state) == SETUP)
        state.self_s[key] += duration
        state.calls[key] += 1

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a work counter (counts made during set-up are dropped)."""
        state = self._state()
        if self._current_op(state) != SETUP:
            state.counts[name] += amount

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: NameSpec,
        on_result: Optional[Callable[..., None]] = None,
        op: Optional[Callable[..., Any]] = None,
        leaf: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is the module the caller reads the name from, or the
        class for a method.  ``name`` may be a callable of the call's
        arguments; ``on_result(tracer, result, *args, **kwargs)`` records
        counts; ``op(*args, **kwargs)`` tags the span with an op id.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = None
        func = raw
        if isinstance(raw, (classmethod, staticmethod)):
            kind, func = type(raw), raw.__func__
        tracer = self

        if leaf:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                start = tracer.clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer.leaf(name, tracer.clock() - start)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                label = name(*args, **kwargs) if callable(name) else name
                frame = tracer._enter(label, None if op is None else op(*args, **kwargs))
                try:
                    result = func(*args, **kwargs)
                    if on_result is not None:
                        on_result(tracer, result, *args, **kwargs)
                    return result
                finally:
                    tracer._exit(frame)

        setattr(owner, attr, wrapper if kind is None else kind(wrapper))
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        with self._states_lock:
            states = list(self._states)
        return sorted((s for st in states for s in st.spans), key=lambda s: s.start)

    def _merged(self, field: str) -> Dict:
        merged: Dict = defaultdict(float)
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, value in getattr(state, field).items():
                merged[key] += value
        return merged

    def self_seconds(self, name: str, setup: bool = False) -> float:
        """Total self time of every span (or leaf call) named ``name``."""
        return self._merged("self_s").get((name, setup), 0.0)

    def calls(self, name: str, setup: bool = False) -> int:
        return int(self._merged("calls").get((name, setup), 0))

    def counter(self, name: str) -> float:
        return self._merged("counts").get(name, 0.0)

    def write_chrome(self, path: str, metadata: Optional[Dict[str, Any]] = None) -> None:
        """Write every stored span as Chrome trace-event JSON (``ph: X``,
        microseconds), loadable in ``chrome://tracing`` or Perfetto."""
        spans = self.spans()
        origin = spans[0].start if spans else 0.0
        pid = os.getpid()
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": pid,
                "tid": s.tid,
                "args": {
                    "id": s.id, "parent": s.parent, "op": str(s.op),
                    "self_us": s.self_s * 1e6,
                },
            }
            for s in spans
        ]
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "otherData": metadata or {}}, handle)
