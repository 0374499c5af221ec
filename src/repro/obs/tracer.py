"""Hierarchical span tracing for the AIG middleware.

A :class:`Tracer` records *spans* — named, categorized intervals measured on
``time.perf_counter`` relative to the tracer's epoch — for every pipeline
stage: recursion unfolding, constraint compilation, decomposition, QDG
construction, merge/schedule, per-query execution per source, input
shipping, tagging, and constraint checking.  Spans nest: each thread keeps
its own stack, so a span opened while another is active on the same thread
becomes its child; a parent on another track (the executor's per-source
query spans under the ``execute`` span) is passed explicitly.

The default throughout the codebase is :data:`NULL_TRACER`, whose spans
still *time* their interval (two ``perf_counter`` calls — the engine's
simulated clock is built from span durations, so there is exactly one
timing source of truth) but record nothing and carry no attributes.  The
hot path is therefore unchanged when tracing is disabled; the benchmark's
``trace.overhead_x`` row (``benchmarks/e2e``) measures that it stays so.

Everything here is stdlib-only (``threading`` + ``time``); exporters live
in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import itertools
import threading
import time

from repro.obs.metrics import MetricsRegistry, NULL_METRICS

#: Default track for spans opened outside any source's track.
MAIN_TRACK = "main"


class Span:
    """One recorded interval.  Use as a context manager.

    ``start``/``end`` are seconds relative to the owning tracer's epoch;
    ``track`` names the timeline the span renders on (one per source,
    plus :data:`MAIN_TRACK`); ``attrs`` are free-form key/values carried
    into the trace export.
    """

    __slots__ = ("name", "category", "span_id", "parent_id", "track",
                 "start", "end", "attrs", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 span_id: int, parent_id: int | None, track: str | None,
                 attrs: dict):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.track = track
        self.start: float = 0.0
        self.end: float | None = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attrs) -> None:
        """Attach attributes to the span (merged into ``attrs``)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack()
        if stack:
            top = stack[-1]
            if self.parent_id is None:
                self.parent_id = top.span_id
            if self.track is None:
                self.track = top.track
        if self.track is None:
            self.track = MAIN_TRACK
        stack.append(self)
        self.start = time.perf_counter() - tracer.epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        self.end = time.perf_counter() - tracer.epoch
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        with tracer._lock:
            tracer.spans.append(self)
        return False

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, cat={self.category!r}, "
                f"track={self.track!r}, dur={self.duration:.6f}s)")


class Tracer:
    """Records spans and owns a :class:`MetricsRegistry`.

    Thread-safe: spans may be opened from any thread; each thread nests
    independently, and the finished-span list and the metrics registry are
    lock-protected.  A tracer is cheap enough to create per run; reusing
    one across runs simply accumulates.
    """

    enabled = True

    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans: list[Span] = []
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, category: str, track: str | None = None,
             parent: Span | None = None, **attrs) -> Span:
        """A new span, to be entered with ``with``.

        ``track`` pins the span to a named timeline (a source's); when
        omitted it inherits the enclosing span's track, falling back to
        :data:`MAIN_TRACK`.  ``parent`` overrides the thread-local nesting
        — used when a span on one track belongs under a span on another.
        """
        return Span(self, name, category,
                    next(self._ids),
                    parent.span_id if parent is not None else None,
                    track, attrs)

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- convenience accessors (exporters and tests) --------------------
    def categories(self) -> set[str]:
        return {span.category for span in self.spans}

    def tracks(self) -> list[str]:
        """All track names, :data:`MAIN_TRACK` first, lanes sorted."""
        names = {span.track for span in self.spans}
        ordered = [MAIN_TRACK] if MAIN_TRACK in names else []
        ordered.extend(sorted(names - {MAIN_TRACK}))
        return ordered

    def spans_by_category(self, category: str) -> list[Span]:
        return [span for span in self.spans if span.category == category]


class _NullSpan:
    """A timing-only span: measures its interval, records nothing.

    This is what the engine runs on by default — ``duration`` is real (it
    feeds the simulated clock), but there is no allocation of attribute
    storage beyond the call's kwargs dict and no append to any list.
    """

    __slots__ = ("start", "end")

    def __init__(self):
        self.start = 0.0
        self.end: float | None = None

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        return False


class NullTracer:
    """The no-op default: same interface as :class:`Tracer`.

    Spans still time themselves (see :class:`_NullSpan`); everything else
    — recording, metrics, nesting — is a no-op.
    """

    enabled = False

    def __init__(self):
        self.spans: list = []
        self.metrics = NULL_METRICS

    def span(self, name: str, category: str, track: str | None = None,
             parent=None, **attrs) -> _NullSpan:
        return _NullSpan()

    def current(self):
        return None

    def categories(self) -> set:
        return set()

    def tracks(self) -> list:
        return []

    def spans_by_category(self, category: str) -> list:
        return []


#: Shared no-op tracer instance — the default everywhere.
NULL_TRACER = NullTracer()
