"""Observability: distributed tracing, metrics, SLOs, and attribution.

The paper's central quantitative claim is about *overhead* — how little
time LiteForm spends composing relative to the speedup it buys (Figures
8-9).  This package makes that attribution first-class across the whole
stack instead of end-of-run aggregates:

* :mod:`repro.obs.trace` — a thread-safe :class:`Tracer` of nested
  context-manager spans with monotonic timestamps, exported as Chrome
  trace-event JSON (open in Perfetto) or a plain-text flame summary.
  Spans carry a propagated :class:`TraceContext` so one logical request
  keeps a single trace id across every component it touches.  The
  compose pipeline, the simulated device, the serving layer, and the
  benchmark harness all emit spans on the globally installed tracer
  (:func:`get_tracer`), which defaults to a near-zero-cost no-op.
* :mod:`repro.obs.merge` — :func:`merge_traces` stitches many tracers
  (one per serving shard, plus the frontend) into one Perfetto file with
  per-component process lanes, reconstructing a request's full causal
  path including reroutes after shard death.
* :mod:`repro.obs.registry` — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket streaming histograms (p50/p95/p99 without
  unbounded storage, labels, per-bucket exemplars), rendered as
  Prometheus text exposition (round-trips through
  :func:`parse_prometheus`) or a JSON snapshot.
* :mod:`repro.obs.slo` — declarative :class:`SLOSpec` objectives
  evaluated by an :class:`SLOEngine` with Google-SRE multi-window
  burn-rate alerting, so a fault storm pages before availability
  breaches.
* :mod:`repro.obs.attribution` — :class:`AttributionCollector` turns
  per-request stage breakdowns into p50/p95/p99 tail attribution with
  exemplar trace ids ("the p99 is 71% queue_wait; see req-000042").

See docs/OBSERVABILITY.md for the API tour and overhead numbers.
"""

from repro.obs.attribution import STAGES, AttributionCollector
from repro.obs.merge import merge_traces, trace_ids_by_lane, write_merged
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    counter_values,
    escape_label_value,
    format_labels,
    get_registry,
    parse_prometheus,
    publish_counters,
)
from repro.obs.slo import (
    Alert,
    BurnRatePolicy,
    SLOEngine,
    SLOSpec,
    default_policies,
    default_slos,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    get_tracer,
    mint_trace_id,
    set_tracer,
    span_event,
    tracing,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceContext",
    "mint_trace_id",
    "span_event",
    "get_tracer",
    "set_tracer",
    "tracing",
    "merge_traces",
    "write_merged",
    "trace_ids_by_lane",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "parse_prometheus",
    "counter",
    "publish_counters",
    "counter_values",
    "escape_label_value",
    "format_labels",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "SLOSpec",
    "SLOEngine",
    "BurnRatePolicy",
    "Alert",
    "default_slos",
    "default_policies",
    "AttributionCollector",
    "STAGES",
]
