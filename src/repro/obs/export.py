"""Trace export surfaces: JSONL dump, Chrome trace, Prometheus exposition.

Three encodings of one :class:`~repro.obs.trace.TraceRecorder`:

* **JSONL** — the lossless dump (one record per line).  ``read_jsonl``
  round-trips it back into a recorder, which is what the ``repro trace``
  subcommand re-renders and re-exports from.
* **Chrome trace** — the Trace Event Format (``{"traceEvents": [...]}``,
  timestamps in microseconds) loadable in Perfetto / ``chrome://tracing``:
  sampled transaction spans become per-phase ``"X"`` slices on one track per
  transaction, protocol events become ``"i"`` instants, and the windowed
  time-series becomes ``"C"`` counter tracks.
* **Prometheus** — a text-exposition snapshot of the exact counters and the
  phase-level latency decomposition; ``parse_prometheus`` reads the samples
  back for the round-trip tests.
"""

from __future__ import annotations

import errno
import json
import os
import re
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import TraceRecorder
from repro.storage.backend import read_jsonl_log


# ----------------------------------------------------------------- JSONL
def write_jsonl(trace: TraceRecorder, path: str) -> str:
    """Dump *trace* as one JSON record per line; returns *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in trace.to_records():
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def read_jsonl(path: str) -> TraceRecorder:
    """Rebuild a read-only recorder from a JSONL dump (torn tails skipped).

    Raises :class:`FileNotFoundError` if there is no file at *path*.
    """
    if not os.path.exists(path):  # read_jsonl_log reads a missing file as empty
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    return TraceRecorder.from_records(read_jsonl_log(path))


# ---------------------------------------------------------------- Chrome
_TXN_PID = 1
_PROTOCOL_PID = 2
_SERIES_PID = 3
_INSTANT_PID = 4
#: Merged multi-process traces give each replica process its own Perfetto
#: track: protocol events from replica ``r`` land on pid ``100 + r``.
_REPLICA_PID_BASE = 100


def chrome_trace(trace: TraceRecorder) -> Dict:
    """Render *trace* in the Chrome Trace Event Format (Perfetto-loadable).

    A recorder flagged with ``per_replica_tracks`` (set by the multi-process
    shard merge) additionally splits protocol events onto one track per
    replica process, so the merged timeline shows each process's view of the
    same blocks side by side.
    """
    events: List[Dict] = [
        _process_name(_TXN_PID, "txn lifecycle (sampled spans)"),
        _process_name(_PROTOCOL_PID, "protocol events"),
        _process_name(_SERIES_PID, "time series"),
        _process_name(_INSTANT_PID, "faults & alerts"),
    ]
    per_replica = trace.per_replica_tracks
    if per_replica:
        for replica in sorted({e.replica for e in trace.events if e.replica >= 0}):
            events.append(
                _process_name(_REPLICA_PID_BASE + replica, f"replica r{replica}")
            )
    for span in trace.spans.values():
        # Chrome slices need non-negative durations, so phases follow the
        # *observed* time order (for HotStuff the committed slice simply
        # precedes the responded one on the track).
        ordered = sorted(span.events.items(), key=lambda item: item[1])
        for (start_kind, start_t), (end_kind, end_t) in zip(ordered, ordered[1:]):
            events.append(
                {
                    "name": f"{start_kind}→{end_kind}",
                    "ph": "X",
                    "ts": start_t * 1e6,
                    "dur": max(end_t - start_t, 0.0) * 1e6,
                    "pid": _TXN_PID,
                    "tid": span.txn_id,
                    "args": {"txn_id": span.txn_id},
                }
            )
    for event in trace.events:
        pid = (
            _REPLICA_PID_BASE + event.replica
            if per_replica and event.replica >= 0
            else _PROTOCOL_PID
        )
        events.append(
            {
                "name": event.kind,
                "ph": "i",
                "ts": event.t * 1e6,
                "pid": pid,
                "tid": 0,
                "s": "p",
                "args": {
                    "view": event.view,
                    "slot": event.slot,
                    "block_hash": event.block_hash,
                    "txn_count": event.txn_count,
                    "replica": event.replica,
                },
            }
        )
    for inst in trace.instants:
        # Fault injections and SLO alerts get their own "global" instants so
        # Perfetto draws them across every track, aligned with the dip they
        # explain.
        events.append(
            {
                "name": f"{inst.kind}: {inst.label}" if inst.label else inst.kind,
                "ph": "i",
                "ts": inst.t * 1e6,
                "pid": _INSTANT_PID,
                "tid": 0,
                "s": "g",
                "args": {"replica": inst.replica, **inst.data},
            }
        )
    for row in trace.timeline():
        ts = row["t_s"] * 1e6
        counters = {
            "throughput_tps": row["tps"],
            "p50_latency_ms": row["p50_ms"],
            "p99_latency_ms": row["p99_ms"],
            "inflight": row["inflight"],
            "current_view": row["view"],
        }
        if row["mempool"] != "":
            counters["mempool_depth"] = row["mempool"]
        for name, value in counters.items():
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": ts,
                    "pid": _SERIES_PID,
                    "tid": 0,
                    "args": {name: value},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _process_name(pid: int, name: str) -> Dict:
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


def write_chrome(trace: TraceRecorder, path: str) -> str:
    """Write the Chrome trace JSON for *trace*; returns *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(trace), handle)
    return path


# ------------------------------------------------------------ Prometheus
def prometheus_text(trace: TraceRecorder) -> str:
    """Snapshot *trace* in the Prometheus text exposition format."""
    lines: List[str] = []

    def emit(name: str, help_text: str, metric_type: str, samples: List[Tuple[Dict[str, str], float]]) -> None:
        if not samples:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {metric_type}")
        for labels, value in samples:
            label_text = (
                "{" + ",".join(f'{key}="{labels[key]}"' for key in sorted(labels)) + "}"
                if labels
                else ""
            )
            lines.append(f"{name}{label_text} {_format_value(value)}")

    emit(
        "repro_trace_events_total",
        "Lifecycle events observed, per kind (exact counters).",
        "counter",
        [({"kind": kind}, float(count)) for kind, count in sorted(trace.counts.items())],
    )
    breakdown = trace.phase_breakdown()
    phase_samples: List[Tuple[Dict[str, str], float]] = []
    for stat in breakdown.phases + breakdown.totals:
        for stat_name, value in (("mean", stat.mean_s), ("p50", stat.p50_s), ("p99", stat.p99_s)):
            phase_samples.append(({"phase": stat.name, "stat": stat_name}, value))
    emit(
        "repro_trace_phase_latency_seconds",
        "Phase-level latency decomposition over sampled spans (signed).",
        "gauge",
        phase_samples,
    )
    emit(
        "repro_trace_spans_sampled",
        "Transaction spans in the bounded sample.",
        "gauge",
        [({}, float(len(trace.spans)))],
    )
    emit(
        "repro_trace_highest_view",
        "Highest view any replica entered.",
        "gauge",
        [({}, float(trace.highest_view))],
    )
    if trace.wire_seen:
        emit(
            "repro_trace_wire_events_total",
            "Transport frames observed by the tracer (send + recv sides).",
            "counter",
            [({}, float(trace.wire_seen))],
        )
    alert_counts: Dict[str, int] = {}
    for inst in trace.instants:
        if inst.kind == "alert":
            alert_counts[inst.label] = alert_counts.get(inst.label, 0) + 1
    emit(
        "repro_trace_alerts_total",
        "SLO detector alerts raised, per rule.",
        "counter",
        [({"rule": rule}, float(count)) for rule, count in sorted(alert_counts.items())],
    )
    return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


_SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


def parse_prometheus(text: str) -> Dict[Tuple[str, frozenset], float]:
    """Parse an exposition back into ``{(name, labels): value}`` samples."""
    samples: Dict[Tuple[str, frozenset], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            continue
        name, label_text, value = match.groups()
        labels = frozenset(_LABEL_RE.findall(label_text or ""))
        samples[(name, labels)] = float(value)
    return samples


def write_prometheus(trace: TraceRecorder, path: str) -> str:
    """Write the Prometheus exposition for *trace*; returns *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(trace))
    return path


# ---------------------------------------------------------------- bundle
def write_trace_bundle(trace: TraceRecorder, out_dir: str, prefix: str = "trace") -> Dict[str, str]:
    """Write all three encodings under *out_dir*; returns ``{format: path}``."""
    os.makedirs(out_dir, exist_ok=True)
    return {
        "jsonl": write_jsonl(trace, os.path.join(out_dir, f"{prefix}.jsonl")),
        "chrome": write_chrome(trace, os.path.join(out_dir, f"{prefix}.chrome.json")),
        "prometheus": write_prometheus(trace, os.path.join(out_dir, f"{prefix}.prom")),
    }
