"""Parent side: start children, turn their raw numbers into declared metrics, verify.

One :func:`run_workload` call is one driver run: ``--trace 0`` measures the
end-to-end metrics with tracing off (plus several set-up-only children, so
``setup_s`` is a median); ``--trace 1`` spends the same ``--seconds`` on an
untraced half, a traced half and the isolated timings, and reports every
per-layer metric.  Every run is verified; a run that fails verification
reports ``correct: false`` with every attempted operation counted as failed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from bench import ROOT, SRC
from bench.child import RESULT_MARK
from bench.declared import END_TO_END, PER_LAYER
from bench.tracing import LAYERS
from bench.workloads import QUICK_SECONDS, WAN_ONE_WAY_MS, Workload

#: Set-up is measured this many times per run (the measured child included)
#: and reported as the median.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
#: Layers that get ``L.self_us_per_op`` / ``L.calls_per_op`` (``idle`` is
#: reported as ``loop.idle_frac`` instead).
SPAN_LAYERS = tuple(layer for layer in LAYERS if layer != "idle")


def spawn(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job in a fresh interpreter and return its result dict."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    job = dict(job, t_spawn=time.time())
    try:
        done = subprocess.run(
            [sys.executable, "-m", "bench", "_child", json.dumps(job)],
            cwd=str(ROOT),
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child exceeded {CHILD_TIMEOUT_S}s"}
    for line in reversed(done.stdout.splitlines()):
        if line.startswith(RESULT_MARK):
            return json.loads(line[len(RESULT_MARK) :])
    return {"error": f"child exited {done.returncode} without a result"}


def _setup_median(workload: Workload, seed: int, seconds: float, first: float, samples: int):
    """Median set-up time over *samples* children (*first* is the measured child's)."""
    values = [first]
    for _ in range(samples - 1):
        child = spawn(
            dict(kind="run", workload=workload.name, seed=seed, seconds=seconds, setup_only=True)
        )
        if "error" in child:
            return None, child["error"]
        values.append(child["setup_s"])
    return statistics.median(values), None


# ---------------------------------------------------------------- verification
def verify(workload: Workload, raw: Dict[str, Any], spec_gain_ms: Optional[float]) -> List[str]:
    """Reasons this run is invalid (empty when it is valid)."""
    if "error" in raw:
        # Prefix disagreement and transport delivery errors are raised by the
        # program itself (check_safety=True) and arrive here.
        return [raw["error"]]
    problems = []
    floor = workload.floor_tps * raw["measured_s"]
    if raw["committed"] < floor:
        problems.append(f"committed {raw['committed']} below the floor of {floor:.0f}")
    if workload.fault_free:
        if raw["rollbacks"] > 0:
            problems.append(f"{raw['rollbacks']} rollbacks in a fault-free run")
        if raw["timeouts"] > 0:
            problems.append(f"{raw['timeouts']} view timeouts in a fault-free run")
    else:
        chaos = raw["chaos"]
        if chaos is None:
            problems.append("fault plan produced no chaos report")
        else:
            if not chaos["prefix_agreement"]:
                problems.append("committed prefixes disagree after the crash")
            if chaos["wal_vote_violations"]:
                problems.append(f"{chaos['wal_vote_violations']} WAL never-vote-twice violations")
            if chaos["skipped_events"]:
                problems.append(f"{chaos['skipped_events']} fault events skipped")
            if not chaos["recovered"]:
                problems.append("no crashed replica recovered to a new commit")
    if spec_gain_ms is not None and spec_gain_ms < 1.5 * WAN_ONE_WAY_MS:
        problems.append(
            f"spec_gain_ms {spec_gain_ms:.3f} below 1.5 x the {WAN_ONE_WAY_MS} ms one-way delay"
        )
    return problems


# ----------------------------------------------------------------- one run
def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    spans_out: Optional[str] = None,
) -> Dict[str, Any]:
    """One driver run.  Returns ``correct/attempted/failed/metrics`` plus notes."""
    quick = seconds <= QUICK_SECONDS
    job = dict(kind="run", workload=workload.name, seed=seed)
    twin = None
    if workload.name == "live-wan":
        twin = spawn(dict(kind="twin", workload=workload.name, seed=seed))
    spec_gain_ms = None
    if twin is not None and "error" not in twin:
        spec_gain_ms = twin["p50_ms"]["hotstuff-2"] - twin["p50_ms"]["hotstuff-1"]

    if not trace:
        raw = spawn(dict(job, seconds=seconds))
        problems = verify(workload, raw, spec_gain_ms)
        metrics: Dict[str, float] = {}
        if "error" not in raw:
            setup_s, error = _setup_median(
                workload, seed, seconds, raw["setup_s"], 1 if quick else SETUP_SAMPLES
            )
            if error:
                problems.append(error)
            else:
                metrics = end_to_end_metrics(raw, setup_s)
        declared = END_TO_END
    else:
        half = seconds / 2.0
        raw = spawn(dict(job, seconds=half))
        traced = spawn(dict(job, seconds=half, traced=True, spans_out=spans_out))
        isolated = spawn(dict(kind="isolated", workload=workload.name, seed=seed))
        problems = verify(workload, raw, spec_gain_ms)
        problems += [part["error"] for part in (traced, isolated) if "error" in part]
        metrics = {}
        if not problems:
            metrics = per_layer_metrics(workload, raw, traced, isolated, twin, spec_gain_ms)
        declared = PER_LAYER
    if twin is not None and "error" in twin:
        problems.append(twin["error"])

    attempted = max(1, int(raw.get("attempted", 1)))
    failed = attempted if problems else raw["failed"]
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, (unit, _better) in declared.items()
        },
        "problems": problems,
        "latency_n": raw.get("latency_n", 0),
    }


def end_to_end_metrics(raw: Dict[str, Any], setup_s: float) -> Dict[str, float]:
    ops = max(1, raw["completed_total"])
    return {
        "setup_s": setup_s,
        "tps": raw["tps"],
        "p50_ms": raw["p50_ms"],
        "bytes_per_op": raw["bytes_sent"] / ops,
        "cpu_us_per_op": raw["cpu_s"] * 1e6 / ops,
    }


def per_layer_metrics(
    workload: Workload,
    raw: Dict[str, Any],
    traced: Dict[str, Any],
    isolated: Dict[str, float],
    twin: Optional[Dict[str, Any]],
    spec_gain_ms: Optional[float],
) -> Dict[str, float]:
    metrics: Dict[str, float] = dict(isolated)

    # Traced pass: self time (reference seconds) and calls per finalised transaction.
    trace = traced["trace"]
    wall_ns = max(1, trace["wall_ns"])
    traced_ops = max(1, traced["completed_total"])
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.self_us_per_op"] = (
            trace["self_ns"][layer] * traced["speed"] / 1000.0 / traced_ops
        )
        metrics[f"{layer}.calls_per_op"] = trace["calls"][layer] / traced_ops
    covered_ns = sum(trace["self_ns"].values())
    metrics["loop.idle_frac"] = trace["self_ns"]["idle"] / wall_ns
    metrics["loop.other_frac"] = max(0.0, 1.0 - covered_ns / wall_ns)
    metrics["loop.lag_ms_p99"] = trace["lag_ms_p99"]
    metrics["mempool.wait_ms_p50"] = trace["mempool_wait_p50_s"] * 1000.0 * traced["time_scale"]
    metrics["trace.coverage_frac"] = covered_ns / wall_ns
    # Work per reference second, so that it also means something on a
    # simulated clock and the two halves may differ in host speed.
    untraced_rate = raw["completed_total"] / raw["busy_s"]
    traced_rate = traced["completed_total"] / traced["busy_s"]
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    metrics["trace.spans"] = trace["spans"]

    # Counters from the untraced run.
    ops = max(1, raw["completed_total"])
    chaos = raw["chaos"] or {}
    metrics.update(
        {
            "transport.msgs_per_op": raw["messages_sent"] / ops,
            "transport.frames_per_write": raw["batched_frames"] / raw["batch_writes"]
            if raw["batch_writes"]
            else 0.0,
            "consensus.ops_per_block": raw["consensus_commits"] / raw["reporter_blocks"],
            "consensus.views_per_s": raw["view_changes"] / raw["duration_s"],
            "consensus.timeouts": raw["timeouts"],
            "ledger.rollbacks": raw["rollbacks"],
            "ledger.spec_exec_per_op": raw["speculated_blocks"] / max(1, raw["committed_blocks"]),
            "ledger.ops_lost": chaos.get("ops_lost", 0),
            "storage.wal_appends_per_op": raw["wal_appends"] / ops,
            "client.p90_ms": raw["p90_ms"],
            "client.p99_ms": raw["p99_ms"],
            "client.p99_n": raw["latency_n"],
            "client.retries": raw["retries"],
            "client.failed_frac": raw["failed"] / max(1, raw["attempted"]),
            "client.late_ms_p99": raw["late_ms_p99"],
            "client.slo_miss_frac": raw["slo_miss"] / max(1, raw["attempted"])
            if workload.live_args.get("rate")
            else 0.0,
            "fault.outage_s": raw["outage_s"],
            "fault.recovery_s": chaos.get("max_recovery_s") or 0.0,
            "host.speed": raw["speed"],
            "host.peak_rss_mb": raw["peak_rss_mb"],
        }
    )
    if workload.mode == "sim":
        metrics["sim.events_per_s"] = raw["sim_events"] / raw["busy_s"]
        metrics["sim.wall_s_per_sim_s"] = raw["busy_s"] / raw["duration_s"]
    if twin is not None:
        metrics["client.spec_gain_ms"] = spec_gain_ms
        metrics["client.sim_live_p50_ratio"] = twin["p50_ms"]["hotstuff-1"] / raw["p50_ms"]
    return metrics
