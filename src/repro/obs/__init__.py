"""Observability: span tracing, process metrics, and exporters.

The build pipeline threads a :class:`Tracer` through every phase (see
:class:`~repro.core.builder.CADViewBuilder`); the resulting span tree
backs ``EXPLAIN ANALYZE``, the CLI's ``--trace`` Chrome-trace output,
and the legacy three-bucket :class:`~repro.core.profile.BuildProfile`.
Process-wide counters/gauges/histograms live in the default
:func:`registry` and are dumped by ``--metrics``.

The cross-run half: :mod:`repro.obs.worklog` captures every executed
statement as a JSONL workload log (``--worklog`` / ``REPRO_WORKLOG``);
:mod:`repro.serve.stress` re-executes a captured log and reports the
latency distribution per statement kind (``repro replay``).

The cost-model half: :mod:`repro.obs.work` accumulates deterministic
per-statement work counters (rows scanned, distance evals, A*
expansions, ...) that the regression gate compares with exact equality,
and :mod:`repro.obs.profiler` is a stdlib sampling profiler with
span-attributed collapsed-stack flamegraph export (``repro profile``).
"""

from repro.obs.export import (
    render_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.hub import (
    TelemetryHub,
    to_stitched_chrome_trace,
    write_stitched_chrome_trace,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    hist_mean,
    hist_quantile,
    registry,
    set_registry,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.slo import (
    SLObjective,
    SLOError,
    SLOReport,
    SLOResult,
    evaluate_slos,
    parse_slos,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
    epoch_anchor,
    set_span_listener,
    span_to_wire,
)
from repro.obs.work import WORK_COUNTERS, WorkCounters
from repro.obs.worklog import (
    NO_WORKLOG,
    NullWorkLogWriter,
    WORKLOG_VERSION,
    WorkLogWriter,
    iter_worklog,
    read_worklog,
    statement_kind,
)

__all__ = [
    "Tracer", "NullTracer", "NULL_TRACER", "Span", "SpanEvent",
    "epoch_anchor", "span_to_wire", "set_span_listener",
    "WorkCounters", "WORK_COUNTERS", "SamplingProfiler",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "LATENCY_BUCKETS_S", "registry", "set_registry",
    "hist_quantile", "hist_mean",
    "render_trace", "to_chrome_trace", "write_chrome_trace",
    "write_metrics",
    "TelemetryHub", "to_stitched_chrome_trace",
    "write_stitched_chrome_trace",
    "SLObjective", "SLOError", "SLOReport", "SLOResult",
    "parse_slos", "evaluate_slos",
    "WorkLogWriter", "NullWorkLogWriter", "NO_WORKLOG",
    "WORKLOG_VERSION", "iter_worklog", "read_worklog", "statement_kind",
]
