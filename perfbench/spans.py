"""Span tracing from outside the program.

The library has no telemetry of its own yet, so the benchmark wraps the
public functions of each layer with a span recorder.  A span is
``(name, start, end, parent)``; spans are kept in per-thread buffers in
memory and written out once, when the benchmark ends.  A layer's self time
is the duration of its spans minus the part their child spans cover, so
nested layers (decomposition inside a refinement step inside the
scheduler) are never counted twice.

Coroutines (the gateway's HTTP reader) are timed step by step: only the
slices in which the coroutine actually runs count, never the time it is
suspended waiting for bytes.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from types import coroutine

_clock = time.perf_counter


class _ThreadBuffer:
    """Spans and self-time accumulators of one thread."""

    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        # open spans: [index, name_id, start, child_seconds]
        self.stack: list[list] = []
        self.self_seconds: dict[int, float] = {}
        self.calls: dict[int, int] = {}


class Tracer:
    """Records spans for every wrapped callable while installed."""

    def __init__(self):
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._buffers_lock = threading.Lock()
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        #: free-form work counters maintained by the wrappers' callbacks
        self.counters: dict[str, float] = {}
        self._counters_lock = threading.Lock()
        #: ``(start, end)`` busy intervals of work outside this process
        self.intervals: list[tuple[float, float]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _buffer(self) -> _ThreadBuffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _ThreadBuffer(threading.current_thread().name)
            self._local.buffer = buffer
            with self._buffers_lock:
                self._buffers.append(buffer)
        return buffer

    def name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids.setdefault(name, len(self._name_ids))
        return name_id

    def _open(self, buffer: _ThreadBuffer, name_id: int) -> None:
        index = len(buffer.names)
        stack = buffer.stack
        buffer.names.append(name_id)
        buffer.parents.append(stack[-1][0] if stack else -1)
        now = _clock()
        buffer.starts.append(now)
        buffer.ends.append(now)
        stack.append([index, name_id, now, 0.0])

    def _close(self, buffer: _ThreadBuffer) -> None:
        now = _clock()
        index, name_id, start, child = buffer.stack.pop()
        buffer.ends[index] = now
        duration = now - start
        buffer.self_seconds[name_id] = (
            buffer.self_seconds.get(name_id, 0.0) + duration - child
        )
        buffer.calls[name_id] = buffer.calls.get(name_id, 0) + 1
        if buffer.stack:
            buffer.stack[-1][3] += duration

    def count(self, name: str, amount: float = 1) -> None:
        with self._counters_lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def wrap(self, owner, attribute: str, name: str, on_result=None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``on_result(args, kwargs, result)`` runs after the call (outside the
        span) so callers can count work such as rows or columns.
        """
        original = vars(owner)[attribute]
        function = original.__func__ if isinstance(original, staticmethod) else original
        name_id = self.name_id(name)
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            buffer = tracer._buffer()
            tracer._open(buffer, name_id)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(buffer)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        replacement = staticmethod(wrapper) if isinstance(original, staticmethod) else wrapper
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def wrap_coroutine(self, owner, attribute: str, name: str) -> None:
        """Wrap a coroutine function; each resumed slice is one span."""
        function = vars(owner)[attribute]
        name_id = self.name_id(name)
        tracer = self

        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            return await _stepped(tracer, name_id, function(*args, **kwargs))

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, function))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, most recent first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def totals(self) -> dict[str, tuple[float, int]]:
        """``{span name: (self seconds, calls)}`` merged over all threads."""
        names = {name_id: name for name, name_id in self._name_ids.items()}
        merged: dict[str, list] = {}
        for buffer in self._buffers:
            for name_id, seconds in buffer.self_seconds.items():
                entry = merged.setdefault(names[name_id], [0.0, 0])
                entry[0] += seconds
                entry[1] += buffer.calls[name_id]
        return {name: (seconds, calls) for name, (seconds, calls) in merged.items()}

    def span_count(self) -> int:
        return sum(len(buffer.names) for buffer in self._buffers)

    def write(self, path: str) -> None:
        """Write every span as ``thread, index, parent, name, start, end`` TSV."""
        names = {name_id: name for name, name_id in self._name_ids.items()}
        origin = min(
            (buffer.starts[0] for buffer in self._buffers if buffer.starts),
            default=0.0,
        )
        with open(path, "w") as handle:
            handle.write("thread\tindex\tparent\tname\tstart_s\tend_s\n")
            for buffer in self._buffers:
                thread = buffer.thread_name
                for index in range(len(buffer.names)):
                    handle.write(
                        f"{thread}\t{index}\t{buffer.parents[index]}\t"
                        f"{names[buffer.names[index]]}\t"
                        f"{buffer.starts[index] - origin:.9f}\t"
                        f"{buffer.ends[index] - origin:.9f}\n"
                    )


@coroutine
def _stepped(tracer: Tracer, name_id: int, inner):
    """Drive coroutine ``inner``, timing each slice it runs for."""
    to_send, to_throw = None, None
    while True:
        buffer = tracer._buffer()
        tracer._open(buffer, name_id)
        try:
            if to_throw is not None:
                yielded = inner.throw(to_throw)
            else:
                yielded = inner.send(to_send)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer._close(buffer)
        try:
            to_send, to_throw = (yield yielded), None
        except BaseException as error:  # noqa: BLE001 - forwarded to the coroutine
            to_send, to_throw = None, error
