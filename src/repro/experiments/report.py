"""Rendering experiment series as paper-style tables."""

from __future__ import annotations

from typing import Dict, List, Sequence


def merge_uncertainty(rows: Sequence[Dict]) -> List[Dict]:
    """Fold ``<metric>_std`` columns into their base column as ``mean ±std``.

    Rows produced by the scenario engine with ``repeats > 1`` carry a
    standard-deviation column next to every aggregated metric; for display we
    collapse the pair into one ``value ±std`` cell.  Rows without ``_std``
    columns (single runs) pass through untouched, so historical tables render
    exactly as before.
    """
    merged: List[Dict] = []
    for row in rows:
        std_keys = {key for key in row if key.endswith("_std") and key[: -len("_std")] in row}
        if not std_keys:
            merged.append(dict(row))
            continue
        out: Dict = {}
        for key, value in row.items():
            if key in std_keys:
                continue
            std_key = f"{key}_std"
            if std_key in std_keys:
                out[key] = f"{value} ±{row[std_key]}"
            else:
                out[key] = value
        merged.append(out)
    return merged


def format_series(rows: Sequence[Dict], title: str = "") -> str:
    """Render *rows* (a list of flat dicts) as an aligned text table.

    Column order follows first appearance across the rows, so scenario-specific
    columns (``n``, ``batch_size``, ``delay_ms`` ...) show up next to the
    metrics they modify.  Aggregated rows (mean plus ``*_std`` deviation
    columns) render as ``mean ±std`` cells.
    """
    if not rows:
        return f"{title}\n(no data)\n" if title else "(no data)\n"
    rows = merge_uncertainty(rows)
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            "  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines) + "\n"


def format_network_breakdown(
    network_stats: Dict,
    title: str = "network traffic by message type",
    committed_ops: int = 0,
) -> str:
    """Render the per-message-type counters of a run's ``network_stats``.

    Expects the dict produced by :meth:`repro.net.network.NetworkStats.as_dict`
    (one row per payload type — with its byte total and share of all traffic
    when the stats carry ``bytes_by_type`` — plus a totals row carrying the
    drop and byte counters).  Pass the run's *committed_ops* to surface the
    headline bytes-per-op cost next to the byte total.  Plain stats dicts
    without per-type maps render as totals only.
    """
    sent_by_type = network_stats.get("sent_by_type", {})
    delivered_by_type = network_stats.get("delivered_by_type", {})
    bytes_by_type = network_stats.get("bytes_by_type", {})
    total_bytes = network_stats.get("bytes_sent", 0)
    names = sorted(set(sent_by_type) | set(delivered_by_type), key=lambda name: (-sent_by_type.get(name, 0), name))
    rows = []
    for name in names:
        row = {
            "message_type": name,
            "sent": sent_by_type.get(name, 0),
            "delivered": delivered_by_type.get(name, 0),
        }
        if bytes_by_type:
            type_bytes = bytes_by_type.get(name, 0)
            row["bytes"] = type_bytes
            row["byte_share"] = f"{100.0 * type_bytes / total_bytes:.1f}%" if total_bytes else "0.0%"
        rows.append(row)
    totals = {
        "message_type": "(total)",
        "sent": network_stats.get("messages_sent", 0),
        "delivered": network_stats.get("messages_delivered", 0),
        "dropped": network_stats.get("messages_dropped", 0),
        "bytes_sent": total_bytes,
    }
    if committed_ops:
        totals["bytes_per_op"] = round(total_bytes / committed_ops, 1)
    # Wire-level counters exist only for live runs (the transports coalesce
    # queued frames into batched writes); sim stats lack the keys, so sim
    # tables render exactly as before.
    reconnects = network_stats.get("reconnects") or {}
    if "batch_writes" in network_stats:
        totals["batch_writes"] = network_stats["batch_writes"]
        totals["batched_frames"] = network_stats["batched_frames"]
        totals["reconnects"] = sum(reconnects.values())
    rows.append(totals)
    text = format_series(rows, title=title)
    if reconnects:
        per_peer = ", ".join(
            f"peer {peer}: {count}" for peer, count in sorted(reconnects.items())
        )
        text += f"reconnects by peer: {per_peer}\n"
    return text


def format_phase_breakdown(breakdown, title: str = "phase-level latency breakdown") -> str:
    """Render a :class:`~repro.obs.trace.PhaseBreakdown` as stacked tables.

    The first table decomposes the canonical lifecycle into adjacent-pair
    phases; the second carries the end-to-end totals, including the signed
    *speculation lead* (``responded→committed``) — positive exactly when
    clients learned their result before the commit finished.
    """
    rows = [stat.as_row() for stat in breakdown.phases]
    totals = [stat.as_row() for stat in breakdown.totals]
    text = format_series(rows, title=f"{title} ({breakdown.spans_used} sampled txns)")
    text += format_series(totals, title="end-to-end totals")
    return text


def format_timeline(rows: Sequence[Dict], title: str = "windowed time series") -> str:
    """Render :meth:`~repro.obs.trace.TraceRecorder.timeline` rows as a table."""
    return format_series(list(rows), title=title)


def format_chaos_report(chaos: Dict, title: str = "chaos & recovery") -> str:
    """Render a run's chaos summary (``RunResult.chaos``) as tables.

    One row per incident (crash → restart → first commit), followed by a
    totals row with prefix agreement and the committed-height spread across
    the healed cluster.
    """
    if not chaos:
        return f"{title}\n(no faults injected)\n"
    rows = []
    for incident in chaos.get("incidents", []):
        recovery = incident.get("recovery_s")
        rows.append(
            {
                "replica": incident.get("replica"),
                "hook": incident.get("hook", ""),
                "crashed_at_s": incident.get("crashed_at"),
                "restarted_at_s": incident.get("restarted_at", ""),
                "first_commit_at_s": incident.get("first_commit_at", ""),
                "recovery_ms": round(recovery * 1000.0, 3) if recovery is not None else "",
                "ops_lost": incident.get("ops_lost", 0),
            }
        )
    max_recovery = chaos.get("max_recovery_s")
    rows.append(
        {
            "replica": "(total)",
            "crashed_at_s": chaos.get("crashes", 0),
            "restarted_at_s": chaos.get("restarts", 0),
            "recovery_ms": round(max_recovery * 1000.0, 3) if max_recovery is not None else "",
            "ops_lost": chaos.get("ops_lost_to_rollback", 0),
            "prefix_ok": chaos.get("prefix_agreement"),
            "committed_blocks": (
                f"{chaos.get('committed_blocks_min', 0)}..{chaos.get('committed_blocks_max', 0)}"
            ),
        }
    )
    # Crash-point incidents carry a hook; plain time-scheduled runs do not —
    # drop the empty column so existing reports render unchanged.
    if all(row.get("hook", "") == "" for row in rows):
        for row in rows:
            row.pop("hook", None)
    text = format_series(rows, title=title)
    alerts = chaos.get("alerts")
    if alerts:
        alert_rows = [
            {
                "rule": alert.get("rule"),
                "raised_at_s": alert.get("raised_at"),
                "cleared_at_s": alert.get("cleared_at") if alert.get("cleared_at") is not None else "(active)",
                "detail": alert.get("detail", ""),
            }
            for alert in alerts
        ]
        text += format_series(alert_rows, title="SLO detector alerts")
    problems = []
    if chaos.get("skipped_events"):
        problems.append(
            f"skipped events: {chaos['skipped_events']} "
            f"({', '.join(str(e) for e in chaos.get('skipped', []))})"
        )
    if chaos.get("wal_vote_violations"):
        problems.append(f"WAL vote-dedup violations: {chaos['wal_vote_violations']}")
    if problems:
        text += "".join(f"!! {problem}\n" for problem in problems)
    return text


def format_multiproc_report(info: Dict) -> str:
    """Render a multi-process run's cross-process checks (``RunResult.multiproc``).

    Per-replica committed heights, the coordinator's prefix / duplicate-commit
    verdicts, and — for traced runs — the per-process shard files with the
    ``repro trace merge`` command that puts them on one timeline.
    """
    lines = []
    heights = info.get("committed_heights", {})
    if heights:
        lines.append("committed heights: "
                     + ", ".join(f"r{rid}={height}" for rid, height in sorted(heights.items())))
    lines.append(f"prefix consistent: {info.get('prefix_consistent')}  "
                 f"duplicate commits: {info.get('duplicate_commits', 0)}")
    shards = info.get("trace_shards") or {}
    if shards:
        paths = " ".join(shards[name] for name in sorted(shards))
        lines.append(f"trace shards ({len(shards)}): {paths}")
        lines.append(f"merge with: repro trace merge {paths}")
    return "\n".join(lines)


def chaos_problems(row: Dict) -> List[str]:
    """Everything wrong with one chaos run, from its report row (empty when healthy).

    Healthy means committed-prefix agreement and the never-vote-twice WAL
    invariant held, no planned event was skipped or left unfired, and every
    crashed replica restarted and recovered — committed at least one new
    block, or was superseded by a follow-up crash of the same replica.  What
    ``repro chaos`` and ``repro fuzz`` turn into their exit codes.
    """
    out = []
    if not row.get("prefix_ok", False):
        out.append("prefix disagreement")
    if not row.get("wal_ok", False):
        out.append("WAL vote-dedup violation")
    if row.get("events_skipped", 0):
        out.append(
            f"{row['events_skipped']} planned event(s) skipped or never fired "
            "(check --at/--down-for vs --duration, or lower occurrences)"
        )
    # Incidents cut short by a follow-up crash of the same replica can
    # never record a recovery; they count as superseded, not failed.
    unrecovered = (
        row.get("crashes", 0) - row.get("recovered", 0) - row.get("superseded", 0)
    )
    if unrecovered > 0:
        out.append(f"{unrecovered} crashed replica(s) never committed again")
    return out


def format_suite(results: Dict[str, Sequence[Dict]]) -> str:
    """Render a whole suite result (``{scenario name: rows}``) as stacked tables."""
    if not results:
        return "(no scenarios)\n"
    return "\n".join(format_series(rows, title=name) for name, rows in results.items())


def print_series(rows: Sequence[Dict], title: str = "") -> None:
    """Print a series table to stdout (used by the benchmark harness)."""
    print(format_series(rows, title))


def pivot(rows: Sequence[Dict], index: str, metric: str) -> Dict[str, Dict]:
    """Pivot rows into ``{protocol: {index_value: metric_value}}`` for quick assertions."""
    table: Dict[str, Dict] = {}
    for row in rows:
        protocol = row.get("protocol")
        if protocol is None or index not in row or metric not in row:
            continue
        table.setdefault(protocol, {})[row[index]] = row[metric]
    return table
