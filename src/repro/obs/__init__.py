"""Observability for the reproduction: metrics, tracing, profiling hooks,
structured event logging, time-series sampling, live HTTP export and
threshold alerting.

Usage sketch::

    from repro import obs

    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with obs.span("experiment.fig1"):
            run_fig1(config)
    payload = obs.build_payload(registry.snapshot(), meta={"cmd": "fig1"})

Live layer::

    store = obs.TimeSeriesStore()
    with obs.use_registry(registry), \
         obs.use_event_log(obs.EventLog("events.jsonl")), \
         obs.ObsServer(registry, store=store, port=9464), \
         obs.Sampler(registry, store=store, interval=1.0):
        long_running_monitoring()          # scrape localhost:9464/metrics

When no registry / event log is installed, every helper routes to a
shared no-op, so instrumented code pays a single attribute read.
"""

from repro.obs.registry import (
    Counter,
    Digest,
    Gauge,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    counter,
    current_span_path,
    detached_span_path,
    digest,
    enabled,
    gauge,
    get_registry,
    merge_into_active,
    render_key,
    span,
    use_registry,
)
from repro.obs.digest import (
    DEFAULT_RELATIVE_ACCURACY,
    EXPORT_QUANTILES,
    LatencyDigest,
    merge_digest_states,
    quantile_from_state,
)
from repro.obs.tracing import (
    RequestContext,
    TraceSpan,
    TraceStore,
    current_trace,
    new_trace_id,
    trace_span,
    use_trace,
)
from repro.obs.slo import (
    DEFAULT_WINDOWS_S,
    KIND_AVAILABILITY,
    KIND_LATENCY,
    ServiceObjective,
    SLOTracker,
    burn_rate_rule,
)
from repro.obs.export import (
    SCHEMA_ID,
    build_payload,
    format_profile_report,
    to_prometheus,
    validate_payload,
    validate_prometheus,
    write_json,
    write_prometheus,
)
from repro.obs.profiling import format_hotspots
from repro.obs.logs import (
    EventLog,
    LEVELS,
    NULL_EVENT_LOG,
    NullEventLog,
    StdlibBridgeHandler,
    attach_stdlib,
    emit,
    get_event_log,
    new_run_id,
    read_events,
    use_event_log,
)
from repro.obs.timeseries import (
    DEFAULT_QUANTILES,
    Sampler,
    Series,
    TimeSeriesStore,
)
from repro.obs.server import PROMETHEUS_CONTENT_TYPE, ObsServer, RouteServer
from repro.obs.alerts import (
    AlertEvent,
    AlertManager,
    AlertRule,
    persistence_drop_rule,
)

__all__ = [
    "AlertEvent",
    "AlertManager",
    "AlertRule",
    "DEFAULT_QUANTILES",
    "DEFAULT_RELATIVE_ACCURACY",
    "DEFAULT_WINDOWS_S",
    "Counter",
    "Digest",
    "EventLog",
    "EXPORT_QUANTILES",
    "Gauge",
    "KIND_AVAILABILITY",
    "KIND_LATENCY",
    "LEVELS",
    "LatencyDigest",
    "MetricsRegistry",
    "NullEventLog",
    "NullRegistry",
    "NULL_EVENT_LOG",
    "NULL_REGISTRY",
    "ObsServer",
    "PROMETHEUS_CONTENT_TYPE",
    "RequestContext",
    "RouteServer",
    "Sampler",
    "SCHEMA_ID",
    "SLOTracker",
    "Series",
    "ServiceObjective",
    "StdlibBridgeHandler",
    "TimeSeriesStore",
    "TraceSpan",
    "TraceStore",
    "attach_stdlib",
    "build_payload",
    "burn_rate_rule",
    "counter",
    "current_span_path",
    "current_trace",
    "detached_span_path",
    "digest",
    "emit",
    "enabled",
    "format_hotspots",
    "format_profile_report",
    "gauge",
    "get_event_log",
    "get_registry",
    "merge_digest_states",
    "merge_into_active",
    "new_run_id",
    "new_trace_id",
    "persistence_drop_rule",
    "quantile_from_state",
    "read_events",
    "render_key",
    "span",
    "to_prometheus",
    "trace_span",
    "use_event_log",
    "use_registry",
    "use_trace",
    "validate_payload",
    "validate_prometheus",
    "write_json",
    "write_prometheus",
]
