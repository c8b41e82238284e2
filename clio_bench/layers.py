"""Boundary tracing for the benchmark's traced pass.

The traced pass times each layer from outside: :class:`BoundaryTracer`
replaces a layer's public functions with wrappers for the length of the
pass and restores them afterwards, so the program under test is not
edited and the untraced pass runs it bare.  Module-level functions are
replaced in the module that calls them (``parse_block`` as named in
``repro.core.reader``), methods on their class.

Each wrapped call is a span: name, start, end, parent span and the id of
the benchmark operation it belongs to.  A layer's self time is the time
its spans cover minus the time their child spans cover; it is summed as
spans close, so totals are exact however many spans a run makes.  The
first ``span_limit`` spans are also kept in memory and written out when
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

__all__ = ["BoundaryTracer", "BOUNDARIES"]

#: (module, owner, attribute, layer).  ``owner`` is a class name in the
#: module, or None for a module-level function replaced in that module.
#: ``iter_entries`` is timed per ``next()``: the span closes before each
#: entry is handed to the caller.
BOUNDARIES: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.core.service", "LogService", "append", "service"),
    ("repro.core.service", "LogService", "append_many", "service"),
    ("repro.core.service", "LogService", "read_entry", "service"),
    ("repro.core.service", "LogService", "read_entries", "service"),
    ("repro.core.service", "LogService", "sync", "service"),
    ("repro.core.service", "LogService", "mount", "recovery"),
    ("repro.core.asyncclient", "AsyncLogClient", "submit", "client"),
    ("repro.core.asyncclient", "AsyncLogClient", "flush", "client"),
    ("repro.vsystem.ipc", "AsyncPort", "drain", "client"),
    ("repro.core.writer", "TailWriter", "append", "writer"),
    ("repro.core.writer", "TailWriter", "append_batch", "writer"),
    ("repro.core.catalog", "Catalog", "ancestors", "catalog"),
    ("repro.core.entrymap", "EntrymapSearch", "locate_prev", "entrymap"),
    ("repro.core.entrymap", "EntrymapSearch", "locate_next", "entrymap"),
    ("repro.core.entrymap", "EntrymapState", "emit", "entrymap"),
    ("repro.core.entrymap", "EntrymapRecord", "decode", "entrymap"),
    ("repro.core.timeindex", "TimeIndex", "locate_entry", "timeindex"),
    ("repro.core.timeindex", "TimeIndex", "locate_position_after", "timeindex"),
    ("repro.core.timeindex", "TimeIndex", "block_first_timestamp", "timeindex"),
    ("repro.core.reader", "LogReader", "iter_entries", "reader"),
    ("repro.core.reader", "LogReader", "entry_at", "reader"),
    ("repro.core.reader", "LogReader", "entry_header_at", "reader"),
    ("repro.core.reader", "LogReader", "read_parsed", "reader"),
    ("repro.core.reader", "LogReader", "locate_prev_global", "reader"),
    ("repro.core.reader", "LogReader", "locate_next_global", "reader"),
    ("repro.core.reader", None, "parse_block", "codec"),
    ("repro.core.reader", None, "decode_record", "codec"),
    # The writer imports both inside a function, from their home modules.
    ("repro.core.block", None, "parse_block", "codec"),
    ("repro.core.entry", None, "decode_record", "codec"),
    ("repro.core.block", "BlockBuilder", "encode", "codec"),
    ("repro.core.entry", "LogEntry", "encode", "codec"),
    ("repro.cache.block_cache", "BlockCache", "get", "cache"),
    ("repro.cache.block_cache", "BlockCache", "get_parsed", "cache"),
    ("repro.cache.block_cache", "BlockCache", "put", "cache"),
    ("repro.cache.block_cache", "BlockCache", "put_parsed", "cache"),
    ("repro.worm.volume", "LogVolume", "read_data_block", "device"),
    ("repro.worm.volume", "LogVolume", "read_data_blocks", "device"),
    ("repro.worm.volume", "LogVolume", "append_data_block", "device"),
    ("repro.worm.filebacked", "FileBackedWormDevice", "write_block", "device"),
    ("repro.worm.filebacked", "FileBackedWormDevice", "open_path", "device_open"),
    ("repro.worm.filebacked", "FileBackedNvram", "store", "nvram"),
    ("repro.worm.nvram", "NvramTail", "load", "nvram"),
    ("repro.obs.tracing", "SpanTracer", "span", "obs"),
    ("repro.obs.tracing", "_SpanHandle", "__exit__", "obs"),
    ("repro.obs.registry", "Histogram", "observe", "obs"),
    ("repro.obs.registry", "_HistogramChild", "observe", "obs"),
    ("repro.obs.events", "EventJournal", "emit", "obs"),
)

#: The benchmark's own operation span; its self time is loop time.
ROOT = "bench.op"


class BoundaryTracer:
    """Wraps layer boundaries while installed; aggregates self time."""

    def __init__(self, span_limit: int = 100_000) -> None:
        self.span_limit = span_limit
        self.names: list[str] = [ROOT]
        self.layers: list[str] = ["bench"]
        self.self_ns: list[int] = [0]
        self.calls: list[int] = [0]
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.dropped_spans = 0
        self.op_id = 0
        self._next_span = 1
        # Frames are [child_ns, span_id]; the base frame is "no span".
        self._stack: list[list[int]] = [[0, 0]]
        self._restore: list[tuple[object, str, object, bool]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import importlib

        for module_name, owner_name, attr, layer in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            static = inspect.getattr_static(owner, attr)
            own = attr in vars(owner)
            name = f"{owner_name or module_name.rsplit('.', 1)[1]}.{attr}"
            if isinstance(static, classmethod):
                wrapped: object = classmethod(self._wrap(static.__func__, name, layer))
            elif attr == "iter_entries":
                wrapped = self._wrap_generator(static, name, layer)
            else:
                wrapped = self._wrap(static, name, layer)
            self._restore.append((owner, attr, static, own))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- spans --------------------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.self_ns.append(0)
        self.calls.append(0)
        return len(self.names) - 1

    def _enter(self) -> tuple[list[int], list[int]]:
        span_id = self._next_span
        self._next_span = span_id + 1
        frame = [0, span_id]
        parent = self._stack[-1]
        self._stack.append(frame)
        return frame, parent

    def _exit(
        self, index: int, frame: list[int], parent: list[int], start: int, end: int
    ) -> None:
        self._stack.pop()
        duration = end - start
        self.self_ns[index] += duration - frame[0]
        self.calls[index] += 1
        parent[0] += duration
        if len(self.spans) < self.span_limit:
            self.spans.append((index, start, end, parent[1], self.op_id, frame[1]))
        else:
            self.dropped_spans += 1

    def _wrap(self, fn, name: str, layer: str):
        index = self._register(name, layer)
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = self._enter()
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index, frame, parent, start, now())

        return traced

    def _wrap_generator(self, fn, name: str, layer: str):
        index = self._register(name, layer)
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame, parent = self._enter()
                start = now()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(index, frame, parent, start, now())
                yield item

        return traced

    def op(self, fn):
        """Run one benchmark operation as a root span."""
        self.op_id += 1
        frame, parent = self._enter()
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            self._exit(0, frame, parent, start, time.perf_counter_ns())

    # -- results -----------------------------------------------------------------

    def calls_of(self, *names: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n in names)

    def self_ns_of(self, *names: str) -> int:
        return sum(ns for n, ns in zip(self.names, self.self_ns) if n in names)

    def layer_self_ns(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for layer, ns in zip(self.layers, self.self_ns):
            totals[layer] = totals.get(layer, 0) + ns
        return totals

    def root_ns(self) -> int:
        """Time covered by root spans (the base frame's child time)."""
        return self._stack[0][0]

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, start, end, parent, op_id, span_id in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": self.names[index],
                            "layer": self.layers[index],
                            "start_ns": start,
                            "end_ns": end,
                            "span": span_id,
                            "parent": parent,
                            "op": op_id,
                        },
                        sort_keys=True,
                    )
                )
                handle.write("\n")
