"""Performance monitoring over log files.

The abstract's third canonical use: "application programs and subsystems
use log services for recovery, to record security audit trails, and for
performance monitoring."  :class:`MetricsLog` records periodic counter
samples into a log file; queries slice the history by time (the log
service's time-range reads) and fold aggregates — a miniature time-series
database whose storage engine is just a log file.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core import LogService

__all__ = ["Sample", "MetricsLog", "SeriesStats"]

_SAMPLE = struct.Struct(">QdH")


@dataclass(frozen=True, slots=True)
class Sample:
    """One metric observation."""

    metric: str
    value: float
    observed_us: int

    def encode(self) -> bytes:
        name = self.metric.encode()
        return _SAMPLE.pack(self.observed_us, self.value, len(name)) + name

    @classmethod
    def decode(cls, payload: bytes) -> "Sample":
        observed_us, value, name_len = _SAMPLE.unpack_from(payload, 0)
        name = payload[_SAMPLE.size : _SAMPLE.size + name_len].decode()
        return cls(metric=name, value=value, observed_us=observed_us)


@dataclass(slots=True)
class SeriesStats:
    """Aggregates over one metric's samples in a time window.

    An empty window has ``minimum``/``maximum`` of ``None`` (not the
    ±inf sentinels a naive fold would leave behind).
    """

    count: int = 0
    total: float = 0.0
    minimum: float | None = None
    maximum: float | None = None

    def fold(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsLog:
    """Periodic counter samples, one sublog per metric under ``/metrics``."""

    def __init__(self, service: LogService, root_path: str = "/metrics"):
        self.service = service
        self.root = service.open_or_create_log_file(root_path)
        self._sublogs: dict[str, object] = {}
        self._last_ingested: dict[str, float] = {}

    def _sublog(self, metric: str):
        if metric not in self._sublogs:
            self._sublogs[metric] = self.root.open_or_create_sublog(metric)
        return self._sublogs[metric]

    # -- recording -------------------------------------------------------------

    def record(self, metric: str, value: float) -> None:
        """Record one observation (unforced: monitoring data trades a
        little durability for throughput)."""
        sample = Sample(
            metric=metric, value=value, observed_us=self.service.clock.now_us
        )
        self._sublog(metric).append(sample.encode(), timestamped=False)

    def checkpoint(self) -> None:
        """Force the buffered tail — e.g. at the end of a reporting period."""
        self.service.sync()

    def ingest_registry(self, registry, prefix: str = "") -> int:
        """Sample every metric in an :class:`repro.obs.MetricsRegistry`
        into the log — the paper's "performance monitoring" use case with
        Clio monitoring itself.

        Counter and gauge children are recorded under
        ``<prefix><name>[.label.value...]``; a histogram child is recorded
        as its ``.sum`` and ``.count`` series.  Returns the number of
        samples recorded.  Pair with :meth:`checkpoint` to make a
        reporting period durable.

        Ingestion is idempotent per series: a value identical to the one
        last ingested for that series is skipped, so re-ingesting an
        unchanged snapshot appends nothing (and a series only grows when
        it actually moves).
        """
        from repro.obs.registry import HistogramValue

        recorded = 0

        def record_changed(name: str, value: float) -> int:
            if self._last_ingested.get(name) == value:
                return 0
            self._last_ingested[name] = value
            self.record(name, value)
            return 1

        for family in registry.collect():
            for labels, value in family.samples:
                name = prefix + family.name
                for label_name, label_value in labels:
                    name += f".{label_name}.{label_value}"
                if isinstance(value, HistogramValue):
                    recorded += record_changed(f"{name}.sum", value.sum)
                    recorded += record_changed(f"{name}.count", value.count)
                else:
                    recorded += record_changed(name, value)
        return recorded

    # -- querying ------------------------------------------------------------------

    def samples(self, metric: str, since: int | None = None) -> list[Sample]:
        kwargs = {"since": since} if since is not None else {}
        return [
            Sample.decode(entry.data)
            for entry in self._sublog(metric).entries(**kwargs)
        ]

    def all_samples(self, since: int | None = None) -> list[Sample]:
        """Every metric's samples, interleaved in recording order — served
        by the parent log file."""
        kwargs = {"since": since} if since is not None else {}
        return [Sample.decode(entry.data) for entry in self.root.entries(**kwargs)]

    def stats(
        self,
        metric: str,
        start_us: int | None = None,
        end_us: int | None = None,
    ) -> SeriesStats:
        """Aggregate a metric over an observation-time window."""
        out = SeriesStats()
        for sample in self.samples(metric):
            if start_us is not None and sample.observed_us < start_us:
                continue
            if end_us is not None and sample.observed_us > end_us:
                continue
            out.fold(sample.value)
        return out

    def metrics(self) -> list[str]:
        return sorted(self.service.list_dir(self.root.path))
