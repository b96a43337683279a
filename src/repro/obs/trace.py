"""Span tracing: a process-wide recorder with zero overhead when off.

A *span* is one timed region of the pipeline — a compiler pass, a cache
lookup, a plan dispatch — opened with :func:`span` as a context manager::

    with span("lower", einsum=str(assignment)):
        lowered = lower_plan(plan, ...)

When tracing is disabled (the default) :func:`span` returns a shared
null singleton whose ``__enter__``/``__exit__`` do nothing: the cost of
an instrumented site is one module-global load and an ``is None`` check,
which is what lets the pipeline stay instrumented everywhere.  The hot
dispatch path does better: an execution plan samples the state once, at
bind, and one built while tracing is off never reaches a span site
(``tests/test_plans.py`` counts the frames a call enters).

Enable tracing with ``REPRO_TRACE=1`` in the environment (picked up at
import), programmatically via :func:`enable`, or scoped with the
:func:`tracing` context manager (which installs a fresh recorder and
restores the previous one — what tests and the ``repro trace`` CLI use).

Recorded spans carry wall-clock-anchored ``perf_counter_ns`` timestamps,
the recording thread id and the per-thread nesting depth, and export two
ways: :func:`chrome_trace` produces the Chrome ``trace_event`` JSON
document (load it in ``chrome://tracing`` or https://ui.perfetto.dev),
:func:`format_tree` renders a human-readable indented tree.

The recorder is bounded (:data:`DEFAULT_MAX_EVENTS`): a long-lived
process with tracing left on drops spans past the cap (counting them in
:attr:`TraceRecorder.dropped`) instead of growing without bound.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.core.config import knob

#: spans kept per recorder before further spans are counted but dropped.
DEFAULT_MAX_EVENTS = 100_000


class TraceEvent:
    """One completed span: name, ns timestamps, thread, depth, args."""

    __slots__ = ("name", "t0", "t1", "tid", "depth", "args")

    def __init__(self, name: str, t0: int, t1: int, tid: int, depth: int, args: Dict):
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.tid = tid
        self.depth = depth
        self.args = args

    @property
    def duration_ns(self) -> int:
        return self.t1 - self.t0

    def __repr__(self) -> str:
        return "TraceEvent(%s, %.3fms, depth=%d)" % (
            self.name,
            self.duration_ns / 1e6,
            self.depth,
        )


class TraceRecorder:
    """Accumulates completed spans, bounded, from any thread."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS):
        self.max_events = int(max_events)
        self.events: List[TraceEvent] = []
        self.dropped = 0
        #: anchors for converting perf_counter_ns offsets to wall clock.
        self.epoch_ns = time.perf_counter_ns()
        self.epoch_wall = time.time()
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> List[str]:
        """This thread's open-span stack (names, for depth bookkeeping)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, event: TraceEvent) -> None:
        with self._lock:
            if len(self.events) < self.max_events:
                self.events.append(event)
            else:
                self.dropped += 1

    def snapshot(self) -> List[TraceEvent]:
        """A stable copy of the recorded events (in completion order)."""
        with self._lock:
            return list(self.events)

    def clear(self) -> None:
        with self._lock:
            self.events = []
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self.events)


class _Span:
    """An open span; records a :class:`TraceEvent` on exit."""

    __slots__ = ("_rec", "name", "args", "_t0", "_depth")

    def __init__(self, rec: TraceRecorder, name: str, args: Dict):
        self._rec = rec
        self.name = name
        self.args = args

    def add(self, **kwargs) -> None:
        """Attach late-resolved attributes (e.g. a lookup's outcome)."""
        self.args.update(kwargs)

    def __enter__(self) -> "_Span":
        stack = self._rec._stack()
        self._depth = len(stack)
        stack.append(self.name)
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter_ns()
        rec = self._rec
        stack = rec._stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        rec.record(
            TraceEvent(
                self.name,
                self._t0,
                t1,
                threading.get_ident(),
                self._depth,
                self.args,
            )
        )
        return False


class _NullSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, **kwargs) -> None:
        pass


_NULL = _NullSpan()

#: the active recorder, or None when tracing is off.  Module-global so a
#: disabled span() is a single load + is-None check.
_recorder: Optional[TraceRecorder] = None


def span(name: str, **args):
    """Open a span named *name* (context manager).

    With tracing off this returns the shared null span: entering,
    exiting and :meth:`~_Span.add` are all no-ops.
    """
    rec = _recorder
    if rec is None:
        return _NULL
    return _Span(rec, name, args)


def enabled() -> bool:
    """Is a trace recorder installed?"""
    return _recorder is not None


def current() -> Optional[TraceRecorder]:
    """The active recorder (None when tracing is off)."""
    return _recorder


def set_recorder(rec: Optional[TraceRecorder]) -> None:
    """Install (or with None, remove) the process-wide recorder."""
    global _recorder
    _recorder = rec


def enable(max_events: int = DEFAULT_MAX_EVENTS) -> TraceRecorder:
    """Install a fresh recorder and return it (replaces any active one)."""
    rec = TraceRecorder(max_events=max_events)
    set_recorder(rec)
    return rec


def disable() -> Optional[TraceRecorder]:
    """Remove the active recorder; returns it so callers can restore."""
    rec = _recorder
    set_recorder(None)
    return rec


@contextmanager
def tracing(max_events: int = DEFAULT_MAX_EVENTS) -> Iterator[TraceRecorder]:
    """Scoped tracing: install a fresh recorder, restore the previous one.

    The yielded recorder holds every span completed inside the block —
    pass it to :func:`chrome_trace` / :func:`format_tree` afterwards.
    """
    previous = _recorder
    rec = TraceRecorder(max_events=max_events)
    set_recorder(rec)
    try:
        yield rec
    finally:
        set_recorder(previous)


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def _require(recorder: Optional[TraceRecorder]) -> TraceRecorder:
    rec = recorder if recorder is not None else _recorder
    if rec is None:
        raise RuntimeError(
            "no trace recorder: set REPRO_TRACE=1, call obs.trace.enable() "
            "or pass the recorder from obs.tracing()"
        )
    return rec


def _json_safe(value):
    """Chrome's trace viewer wants plain JSON values in args."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def chrome_trace(recorder: Optional[TraceRecorder] = None) -> dict:
    """The recorded spans as a Chrome ``trace_event`` JSON document.

    Every span becomes a complete event (``"ph": "X"``) with microsecond
    ``ts``/``dur`` relative to the recorder's epoch; thread ids map to
    Chrome ``tid`` lanes.  Load the dumped JSON in ``chrome://tracing``
    or https://ui.perfetto.dev.
    """
    rec = _require(recorder)
    pid = os.getpid()
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for e in sorted(rec.snapshot(), key=lambda e: e.t0):
        events.append(
            {
                "name": e.name,
                "cat": "repro",
                "ph": "X",
                "ts": (e.t0 - rec.epoch_ns) / 1000.0,
                "dur": e.duration_ns / 1000.0,
                "pid": pid,
                "tid": e.tid,
                "args": {k: _json_safe(v) for k, v in e.args.items()},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "epoch_unix": rec.epoch_wall,
            "dropped_events": rec.dropped,
        },
    }


def write_chrome_trace(
    path: str, recorder: Optional[TraceRecorder] = None
) -> int:
    """Dump :func:`chrome_trace` JSON to *path*; returns the span count."""
    import json

    doc = chrome_trace(recorder)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return len(doc["traceEvents"]) - 1  # minus the process_name metadata


def format_tree(recorder: Optional[TraceRecorder] = None) -> str:
    """The recorded spans as an indented per-thread tree (human view)."""
    rec = _require(recorder)
    events = sorted(rec.snapshot(), key=lambda e: (e.tid, e.t0))
    if not events:
        return "(no spans recorded)"
    lines: List[str] = []
    tids = sorted({e.tid for e in events})
    for tid in tids:
        if len(tids) > 1:
            lines.append("[thread %d]" % tid)
        for e in events:
            if e.tid != tid:
                continue
            args = " ".join(
                "%s=%s" % (k, _json_safe(v)) for k, v in sorted(e.args.items())
            )
            lines.append(
                "%s%-*s %10.3f ms%s"
                % (
                    "  " * e.depth,
                    max(1, 36 - 2 * e.depth),
                    e.name,
                    e.duration_ns / 1e6,
                    ("  " + args) if args else "",
                )
            )
    if rec.dropped:
        lines.append("(+%d spans dropped past the %d-event cap)" % (rec.dropped, rec.max_events))
    return "\n".join(lines)


# honour the environment at import: REPRO_TRACE=1 records from process
# start, which is what the obs-enabled CI leg and ad-hoc debugging use.
if knob("REPRO_TRACE"):  # pragma: no cover - exercised in the CI env leg
    enable()
