"""Unified observability: metrics registry, sim-time tracing, exporters.

The paper's evaluation is a set of operation counts and cost-model sums;
this package exposes those counts from a *live* service uniformly:

* :mod:`repro.obs.registry` — label-aware ``Counter``/``Gauge``/``Histogram``
  families collected into one :class:`MetricsRegistry`.
* :mod:`repro.obs.tracing` — nested operation spans timestamped on the
  :class:`~repro.vsystem.clock.SimClock`, so traces are deterministic.
* :mod:`repro.obs.export` — Prometheus text exposition and JSON snapshots.
* :mod:`repro.obs.wiring` — connects a :class:`~repro.core.LogService`'s
  existing stats objects (``DeviceStats``, ``CacheStats``, ``ReadStats``,
  ``SpaceStats``, recovery reports) to the registry.
* :mod:`repro.obs.events` — the structured event journal (device writes,
  cache evictions, recovery phases, volume transitions) with log-file
  persistence (:class:`EventLog`) and the crash flight recorder.
* :mod:`repro.obs.slo` — SLO rules evaluated on the simulated clock, with
  alerts persisted to an append-only alert sublog.
* :mod:`repro.obs.profile` — cost-attribution profiling: folds span trees
  against the :mod:`~repro.vsystem.costs` model for per-operation
  breakdowns (the paper's Section 3 decomposition, live).
* :mod:`repro.obs.tracelog` — request-scoped causal traces persisted to a
  ``/traces`` sublog with deterministic head/tail sampling.
* :mod:`repro.obs.critical_path` — per-trace critical paths and
  cost-component breakdowns over the persisted trace log.
* :mod:`repro.obs.perfbench` — the ``clio perf`` sim-count harness: a
  fixed file-backed workload whose deterministic counts are gated
  against a checked-in baseline.  Real (wall-clock) time is measured
  outside the program, by ``clio_bench``.

Enable on a service with ``service.enable_observability()`` (or pass
``observability=True`` to ``LogService.create``/``mount``); disabled, the
hot paths pay one attribute check per operation.
"""

from repro.obs.events import (
    NULL_JOURNAL,
    Event,
    EventJournal,
    EventLog,
    NullJournal,
    format_event,
)
from repro.obs.critical_path import (
    PathStep,
    TraceSummary,
    component_breakdown,
    critical_path,
    format_critical_path,
    format_trace_summary,
    summarize_trace,
    summarize_traces,
    top_traces,
)
from repro.obs.export import (
    json_snapshot,
    openmetrics_text,
    parse_openmetrics_text,
    parse_prometheus_text,
    prometheus_text,
)
from repro.obs.profile import (
    CostBreakdown,
    format_profile,
    profile_roots,
    profile_span,
)
from repro.obs.registry import (
    COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    HistogramValue,
    LabelCardinalityError,
    MetricError,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.slo import (
    Alert,
    AlertLog,
    ModelDeltaRule,
    RatioRule,
    SloEngine,
    ThresholdRule,
    default_ruleset,
    parse_rule,
)
from repro.obs.tracelog import TraceLog, decode_span, encode_span
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanTracer,
    TraceContext,
    format_span_tree,
)
from repro.obs.wiring import Instruments, wire_service

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricFamily",
    "MetricsRegistry",
    "MetricError",
    "LabelCardinalityError",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "COUNT_BUCKETS",
    "Span",
    "SpanTracer",
    "TraceContext",
    "NullTracer",
    "NULL_TRACER",
    "format_span_tree",
    "TraceLog",
    "encode_span",
    "decode_span",
    "PathStep",
    "TraceSummary",
    "component_breakdown",
    "critical_path",
    "summarize_trace",
    "summarize_traces",
    "top_traces",
    "format_trace_summary",
    "format_critical_path",
    "prometheus_text",
    "parse_prometheus_text",
    "openmetrics_text",
    "parse_openmetrics_text",
    "json_snapshot",
    "Instruments",
    "wire_service",
    "Event",
    "EventJournal",
    "NullJournal",
    "NULL_JOURNAL",
    "EventLog",
    "format_event",
    "Alert",
    "AlertLog",
    "SloEngine",
    "ThresholdRule",
    "RatioRule",
    "ModelDeltaRule",
    "default_ruleset",
    "parse_rule",
    "CostBreakdown",
    "profile_span",
    "profile_roots",
    "format_profile",
]
