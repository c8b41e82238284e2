"""Sim-time span tracing: deterministic, request-scoped operation traces.

A span records one operation (``append``, ``read``, ``recovery``,
``cache.fill``, ``device.io``, ...) with start/end timestamps taken from
the :class:`~repro.vsystem.clock.SimClock` — never the host clock — so
the trace of a run is a pure function of its inputs: two identical runs
produce byte-identical span trees.  That determinism is what makes traces
usable as *evidence* in benchmarks: a span tree for a cold read shows
exactly which cache fills and device accesses the paper's cost model says
it should (Section 3.3's three read steps).

Beyond per-process trees, spans carry *causal identity*: every span has a
``trace_id`` and a ``span_id``, and a :class:`TraceContext` can ride a
:class:`~repro.vsystem.ipc.MessageHeader` across the simulated IPC
boundary so server-side work — including deferred writes executed *after*
the client reply (Section 3.3's delayed-write window) — attaches to the
originating request.  Ids are derived deterministically from the sim
clock plus a monotone sequence, never from randomness.

Tracing is disabled by default; the shared :data:`NULL_TRACER` makes every
instrumentation point a single no-op method call.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass
from types import TracebackType
from typing import Callable, Iterator, Protocol

__all__ = [
    "ClockLike",
    "Span",
    "SpanTracer",
    "TraceContext",
    "TracerLike",
    "NullTracer",
    "NULL_TRACER",
    "format_span_tree",
]


class ClockLike(Protocol):
    """The one clock attribute the tracer reads (satisfied by SimClock)."""

    now_us: int


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The causal identity a request carries across the IPC boundary.

    ``trace_id`` names the request end to end; ``span_id`` is the id of
    the span that sent the message (0 when there is no sending span), so
    work executed on the far side — or after the reply, in the deferred
    delivery window — records which span caused it.
    """

    trace_id: str
    span_id: int = 0


class Span:
    """One timed operation; children are the operations it performed."""

    __slots__ = (
        "name",
        "start_us",
        "end_us",
        "attributes",
        "children",
        "dropped_children",
        "costs",
        "trace_id",
        "span_id",
        "parent_id",
    )

    def __init__(
        self,
        name: str,
        start_us: int,
        attributes: dict[str, object] | None = None,
        *,
        trace_id: str | None = None,
        span_id: int = 0,
        parent_id: int | None = None,
    ):
        self.name = name
        self.start_us = start_us
        self.end_us: int | None = None
        self.attributes: dict[str, object] = attributes or {}
        self.children: list["Span"] = []
        self.dropped_children = 0
        #: Simulated milliseconds charged inside this span, keyed by cost
        #: component ("ipc", "device", ...) — the profiler's raw material.
        #: None until the first charge, so untagged spans stay lean.
        self.costs: dict[str, float] | None = None
        #: Causal identity: which request this span belongs to.  None only
        #: for hand-built spans; tracer-created spans always carry one.
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def set(self, key: str, value: object) -> None:
        """Attach an attribute discovered mid-span (e.g. a result count)."""
        self.attributes[key] = value

    def add_cost(self, component: str, ms: float) -> None:
        """Record simulated time charged to this span by component."""
        if self.costs is None:
            self.costs = {}
        self.costs[component] = self.costs.get(component, 0.0) + ms

    @property
    def duration_us(self) -> int:
        return (self.end_us if self.end_us is not None else self.start_us) - (
            self.start_us
        )

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """Every descendant span (self included) with the given name."""
        return [span for span in self.walk() if span.name == name]

    def as_dict(self) -> dict[str, object]:
        """A JSON-friendly rendering (used by ``repro trace --format json``
        and as the persisted ``/traces`` record schema)."""
        out: dict[str, object] = {
            "name": self.name,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "attributes": dict(self.attributes),
            "children": [child.as_dict() for child in self.children],
        }
        if self.costs:
            out["costs_ms"] = dict(self.costs)
        if self.dropped_children:
            out["dropped_children"] = self.dropped_children
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
            out["span_id"] = self.span_id
            out["parent_id"] = self.parent_id
        return out

    @classmethod
    def from_dict(cls, record: dict[str, object]) -> "Span":
        """Rebuild a span tree from its :meth:`as_dict` rendering."""
        name = record.get("name")
        start = record.get("start_us")
        if not isinstance(name, str) or not isinstance(start, int):
            raise ValueError(f"not a span record: {record!r}")
        attributes = record.get("attributes")
        trace_id = record.get("trace_id")
        span_id = record.get("span_id")
        parent_id = record.get("parent_id")
        span = cls(
            name,
            start,
            dict(attributes) if isinstance(attributes, dict) else None,
            trace_id=trace_id if isinstance(trace_id, str) else None,
            span_id=span_id if isinstance(span_id, int) else 0,
            parent_id=parent_id if isinstance(parent_id, int) else None,
        )
        end = record.get("end_us")
        span.end_us = end if isinstance(end, int) else None
        costs = record.get("costs_ms")
        if isinstance(costs, dict):
            span.costs = {
                str(component): float(ms)
                for component, ms in costs.items()
                if isinstance(ms, (int, float))
            }
        dropped = record.get("dropped_children")
        if isinstance(dropped, int):
            span.dropped_children = dropped
        children = record.get("children")
        if isinstance(children, list):
            for child in children:
                if isinstance(child, dict):
                    span.children.append(cls.from_dict(child))
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, [{self.start_us}..{self.end_us}]us, "
            f"{len(self.children)} children)"
        )


class _SpanHandle:
    """Context manager for one live span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "SpanTracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if exc_type is not None:
            self._span.set("error", exc_type.__name__)
        self._tracer._finish(self._span)


class SpanTracer:
    """Records nested spans against a simulated clock.

    Finished root spans are kept (most recent last) up to ``max_roots``;
    each span keeps at most ``max_children`` direct children, counting the
    rest in ``dropped_children`` so wide operations (a recovery scan over
    thousands of blocks) stay bounded in memory without losing the totals.

    Causal identity: every span gets a tracer-unique ``span_id`` and a
    ``trace_id``.  A root span opened with no ambient context mints a
    fresh trace id from the sim clock plus a monotone sequence
    (``s<now_us:x>.<seq:x>``); a root opened inside :meth:`activate`
    adopts the activated context's trace id and records its span id as
    ``parent_id`` — that is how deferred deliveries drained after the
    client reply join the originating request's trace.
    """

    enabled = True

    def __init__(
        self,
        clock: ClockLike,
        max_roots: int = 64,
        max_children: int = 512,
    ):
        self._clock = clock
        self.max_roots = max_roots
        self.max_children = max_children
        self._stack: list[Span] = []
        self._roots: list[Span] = []
        self._ambient: list[TraceContext] = []
        self._next_span_id = 1
        self._trace_seq = 0
        self._suppressed = 0
        #: Called with each finished *root* span (the TraceLog's sampling
        #: entry point); None keeps finishing a root a list append.
        self.on_finish: Callable[[Span], None] | None = None

    def mint_trace_id(self, prefix: str = "s") -> str:
        """A deterministic, tracer-unique trace id (clock + sequence)."""
        self._trace_seq += 1
        return f"{prefix}{self._clock.now_us:x}.{self._trace_seq:x}"

    def span(self, name: str, **attributes: object) -> _SpanHandle | _NullSpan:
        """Open a span; use as ``with tracer.span("append", id=7) as sp:``."""
        if self._suppressed:
            return _NULL_SPAN
        span_id = self._next_span_id
        self._next_span_id += 1
        if self._stack:
            parent = self._stack[-1]
            trace_id = parent.trace_id
            parent_id: int | None = parent.span_id
        elif self._ambient:
            context = self._ambient[-1]
            trace_id = context.trace_id
            parent_id = context.span_id or None
        else:
            trace_id = self.mint_trace_id()
            parent_id = None
        span = Span(
            name,
            self._clock.now_us,
            attributes or None,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
        )
        if self._stack:
            parent = self._stack[-1]
            if len(parent.children) < self.max_children:
                parent.children.append(span)
            else:
                parent.dropped_children += 1
        self._stack.append(span)
        return _SpanHandle(self, span)

    def charge(self, component: str, ms: float) -> None:
        """Attribute ``ms`` of simulated time to the innermost open span.

        Called by :meth:`~repro.core.store.LogStore.charge` at every
        cost-model clock advance; charges made outside any span are
        dropped (nothing is being traced there).
        """
        if self._stack and not self._suppressed:
            self._stack[-1].add_cost(component, ms)

    @contextmanager
    def activate(self, context: TraceContext | None) -> Iterator[None]:
        """Make ``context`` the ambient causal identity for root spans.

        Used on the receiving side of the IPC path: draining a deferred
        delivery activates the header's context so the server-side spans
        it opens join the originating request's trace.  ``None`` is a
        no-op, so call sites need not special-case untraced messages.
        """
        if context is None:
            yield
            return
        self._ambient.append(context)
        try:
            yield
        finally:
            self._ambient.pop()

    @contextmanager
    def suppress(self) -> Iterator[None]:
        """Temporarily disable span creation and cost attribution.

        The TraceLog persists traces *through the service itself* (the
        self-hosting move); suppression keeps that bookkeeping from
        generating feedback traces of its own.

        Exception-safe: the pre-entry suppression depth is restored even
        when the block raises, so tracing can never stay silenced (or go
        negative) after an aborted persist.
        """
        prev = self._suppressed
        self._suppressed = prev + 1
        try:
            yield
        finally:
            self._suppressed = prev

    def context(self) -> TraceContext | None:
        """The causal identity at this point: the innermost open span's,
        else the activated ambient context, else None."""
        if self._stack:
            top = self._stack[-1]
            if top.trace_id is not None:
                return TraceContext(trace_id=top.trace_id, span_id=top.span_id)
        if self._ambient:
            return self._ambient[-1]
        return None

    def _finish(self, span: Span) -> None:
        span.end_us = self._clock.now_us
        # Unwind to (and past) the finished span; tolerates generator-driven
        # exits finishing an outer span while an abandoned inner one is
        # still on the stack.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            if top.end_us is None:
                top.end_us = span.end_us
        if not self._stack:
            self._roots.append(span)
            if len(self._roots) > self.max_roots:
                del self._roots[: len(self._roots) - self.max_roots]
            if self.on_finish is not None:
                self.on_finish(span)

    # -- inspection ------------------------------------------------------

    def recent(self, limit: int | None = None) -> list[Span]:
        """Finished root spans, oldest first (bounded by ``max_roots``)."""
        roots = list(self._roots)
        if limit is not None:
            roots = roots[-limit:]
        return roots

    def last(self, name: str | None = None) -> Span | None:
        """The most recent finished root span (optionally by name)."""
        for span in reversed(self._roots):
            if name is None or span.name == name:
                return span
        return None

    def clear(self) -> None:
        self._roots.clear()


class _NullSpan:
    """Inert span yielded when tracing is disabled or suppressed."""

    __slots__ = ()

    trace_id: str | None = None
    span_id: int = 0
    parent_id: int | None = None

    def set(self, key: str, value: object) -> None:
        pass

    def add_cost(self, component: str, ms: float) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every span is the same inert, reused object."""

    enabled = False

    def mint_trace_id(self, prefix: str = "s") -> str:
        return f"{prefix}0.0"

    def span(self, name: str, **attributes: object) -> _NullSpan:
        return _NULL_SPAN

    def charge(self, component: str, ms: float) -> None:
        pass

    @contextmanager
    def activate(self, context: TraceContext | None) -> Iterator[None]:
        yield

    @contextmanager
    def suppress(self) -> Iterator[None]:
        yield

    def context(self) -> TraceContext | None:
        return None

    def recent(self, limit: int | None = None) -> list[Span]:
        return []

    def last(self, name: str | None = None) -> Span | None:
        return None

    def clear(self) -> None:
        pass


class TracerLike(Protocol):
    """The tracer surface the IPC layer needs (SpanTracer or NullTracer)."""

    @property
    def enabled(self) -> bool: ...

    def charge(self, component: str, ms: float) -> None: ...

    def activate(
        self, context: TraceContext | None
    ) -> AbstractContextManager[None]: ...

    def context(self) -> TraceContext | None: ...


#: The shared disabled tracer (the default on every service).
NULL_TRACER = NullTracer()


def format_span_tree(span: Span, indent: str = "") -> str:
    """Render a span tree as indented text for ``repro trace``."""
    attrs = " ".join(
        f"{key}={value}" for key, value in sorted(span.attributes.items())
    )
    duration = f"+{span.duration_us}us" if span.end_us is not None else "+?us"
    line = (
        f"{indent}{span.name}"
        f"{(' ' + attrs) if attrs else ''}"
        f"  [{span.start_us}us {duration}]"
    )
    lines = [line]
    for child in span.children:
        lines.append(format_span_tree(child, indent + "  "))
    if span.dropped_children:
        lines.append(f"{indent}  ... ({span.dropped_children} more spans)")
    return "\n".join(lines)
