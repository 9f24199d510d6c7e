"""Observability layer: lifecycle tracing, phase decomposition, exports,
and the live telemetry plane (streaming sinks, online SLO detectors,
per-replica scrape endpoints, terminal dashboard).

See :mod:`repro.obs.trace` for the recorder both substrates feed,
:mod:`repro.obs.export` for the JSONL / Chrome-trace / Prometheus surfaces,
:mod:`repro.obs.stream` for bounded-memory streaming export,
:mod:`repro.obs.detect` for the hysteresis-gated SLO rules,
:mod:`repro.obs.scrape` / :mod:`repro.obs.watch` for the live endpoints and
the ``repro watch`` dashboard, and :mod:`repro.obs.merge` /
:mod:`repro.obs.critical` for the skew-corrected multi-process shard merge
and the commit critical-path decomposition built on it.
"""

from repro.obs.trace import (
    EVENT_KINDS,
    PhaseBreakdown,
    PhaseStat,
    ProtocolEvent,
    TraceInstant,
    TraceRecorder,
    TxnSpan,
    WireEvent,
    default_bucket_width,
)
from repro.obs.merge import (
    ClockOffsets,
    estimate_offsets,
    format_offsets,
    merge_shards,
    merge_trace_files,
)
from repro.obs.critical import (
    CriticalPathReport,
    HopSegment,
    TxnCriticalPath,
    critical_path_report,
    critical_paths,
    format_critical_path_report,
    link_delay_matrix,
)
from repro.obs.export import (
    chrome_trace,
    parse_prometheus,
    prometheus_text,
    read_jsonl,
    write_chrome,
    write_jsonl,
    write_prometheus,
    write_trace_bundle,
)
from repro.obs.stream import StreamingTraceSink, TraceTail
from repro.obs.detect import Alert, BucketStats, SloDetector, default_rules
from repro.obs.scrape import ReplicaTelemetry, ScrapeServer
from repro.obs.watch import render_dashboard, watch_file, watch_scrape

__all__ = [
    "EVENT_KINDS",
    "PhaseBreakdown",
    "PhaseStat",
    "ProtocolEvent",
    "TraceInstant",
    "TraceRecorder",
    "TxnSpan",
    "WireEvent",
    "default_bucket_width",
    "ClockOffsets",
    "estimate_offsets",
    "format_offsets",
    "merge_shards",
    "merge_trace_files",
    "CriticalPathReport",
    "HopSegment",
    "TxnCriticalPath",
    "critical_path_report",
    "critical_paths",
    "format_critical_path_report",
    "link_delay_matrix",
    "chrome_trace",
    "parse_prometheus",
    "prometheus_text",
    "read_jsonl",
    "write_chrome",
    "write_jsonl",
    "write_prometheus",
    "write_trace_bundle",
    "StreamingTraceSink",
    "TraceTail",
    "Alert",
    "BucketStats",
    "SloDetector",
    "default_rules",
    "ReplicaTelemetry",
    "ScrapeServer",
    "render_dashboard",
    "watch_file",
    "watch_scrape",
]
