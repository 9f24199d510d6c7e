"""Observability layer: trace recorder, exports, and traced end-to-end runs.

Covers the bounded-memory invariants of :class:`~repro.obs.trace.TraceRecorder`,
the three export round-trips (JSONL, Chrome trace, Prometheus), sim/live span
parity, the chaos recovery curve in the windowed time series, the warmup
accounting boundary, and the zero-perturbation guarantee (a traced simulation
is byte-identical to an untraced one).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.consensus.metrics import MetricsCollector
from repro.experiments.report import format_network_breakdown, format_phase_breakdown
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.faults.plan import chaos_preset
from repro.obs.export import (
    chrome_trace,
    parse_prometheus,
    prometheus_exposition,
    prometheus_text,
    read_jsonl,
    write_jsonl,
    write_trace_bundle,
)
from repro.obs.trace import (
    EVENT_KINDS,
    RECORD_TYPES,
    PhaseBreakdown,
    ProtocolEvent,
    TimelineBucket,
    TraceInstant,
    TraceRecorder,
    TxnSpan,
    WireEvent,
    default_bucket_width,
    record_of,
)


class FakeClock:
    """Settable ``.now`` so recorder tests control time exactly."""

    def __init__(self) -> None:
        self.now = 0.0


class FakeBlock:
    def __init__(self, block_hash, txn_ids, view=1, slot=1):
        self.block_hash = block_hash
        self.view = view
        self.slot = slot
        self.transactions = [FakeTxn(txn_id) for txn_id in txn_ids]
        self.txn_count = len(txn_ids)


class FakeTxn:
    def __init__(self, txn_id):
        self.txn_id = txn_id


def traced_recorder(**kwargs) -> TraceRecorder:
    return TraceRecorder(clock=FakeClock(), **kwargs)


def drive_lifecycle(recorder: TraceRecorder, txn_id: int = 1) -> None:
    """Walk one transaction through the full canonical lifecycle."""
    clock = recorder.clock
    block = FakeBlock("b1", [txn_id], view=1)
    clock.now = 0.0
    recorder.txn_submitted(txn_id)
    clock.now = 0.001
    recorder.txn_mempool(txn_id)
    clock.now = 0.002
    recorder.block_proposed(block, mempool_depth=5, replica=0)
    clock.now = 0.003
    recorder.block_voted(1, 1, block, replica=1)
    clock.now = 0.004
    recorder.block_certified(None, block, replica=1)
    clock.now = 0.005
    recorder.block_speculated(block, replica=1)
    clock.now = 0.006
    recorder.txn_responded(txn_id, submitted_at=0.0, speculative=True)
    clock.now = 0.007
    recorder.block_committed(block, replica=1)


class TestTraceRecorder:
    def test_full_lifecycle_span_in_canonical_order(self):
        recorder = traced_recorder()
        drive_lifecycle(recorder)
        span = recorder.spans[1]
        assert span.signature() == EVENT_KINDS
        times = [span.events[kind] for kind in EVENT_KINDS]
        assert times == sorted(times)
        assert recorder.counts["responded-speculative"] == 1

    def test_span_sampling_is_head_capped_but_counters_stay_exact(self):
        recorder = traced_recorder(max_txns=3)
        for txn_id in range(10):
            recorder.txn_submitted(txn_id)
        assert len(recorder.spans) == 3
        assert recorder.counts["submitted"] == 10

    def test_warmup_excludes_early_spans_from_sampling(self):
        recorder = traced_recorder(warmup=1.0)
        recorder.clock.now = 0.5
        recorder.txn_submitted(1)
        recorder.clock.now = 1.0
        recorder.txn_submitted(2)
        assert 1 not in recorder.spans and 2 in recorder.spans
        assert recorder.counts["submitted"] == 2  # counters see everything

    def test_block_events_dedup_first_wins_across_replicas(self):
        recorder = traced_recorder()
        block = FakeBlock("b1", [1, 2], view=3)
        recorder.clock.now = 0.01
        recorder.block_committed(block, replica=0)
        recorder.clock.now = 0.02
        recorder.block_committed(block, replica=1)  # duplicate: ignored
        assert recorder.counts["committed"] == 2  # txn_count once, not twice
        commits = [e for e in recorder.events if e.kind == "committed"]
        assert len(commits) == 1 and commits[0].replica == 0

    def test_event_ring_is_bounded(self):
        recorder = traced_recorder(max_events=4)
        for index in range(10):
            recorder.block_committed(FakeBlock(f"b{index}", [index]))
        assert len(recorder.events) == 4
        assert recorder.events_seen == 10

    def test_view_entered_first_wins_and_tracks_highest(self):
        recorder = traced_recorder()
        recorder.view_entered(2, replica=0)
        recorder.view_entered(2, replica=1)  # same view from a follower
        recorder.view_entered(5, replica=0)
        assert recorder.highest_view == 5
        assert recorder.counts["view-entered"] == 2

    def test_timeline_fills_gaps_with_zero_rows(self):
        recorder = traced_recorder(bucket=0.1)
        recorder.clock.now = 0.05
        recorder.txn_submitted(1)
        recorder.txn_responded(1, submitted_at=0.0, speculative=False)
        recorder.clock.now = 0.45  # three empty buckets in between
        recorder.txn_submitted(2)
        recorder.txn_responded(2, submitted_at=0.4, speculative=False)
        rows = recorder.timeline()
        assert len(rows) == 5
        assert [row["completed"] for row in rows] == [1, 0, 0, 0, 1]
        assert all(row["tps"] == 0.0 for row in rows[1:4])

    def test_default_bucket_width_clamps(self):
        assert default_bucket_width(0.1) == pytest.approx(0.02)
        assert default_bucket_width(4.0) == pytest.approx(0.5)
        assert default_bucket_width(100.0) == pytest.approx(1.0)


class TestPhaseBreakdown:
    def test_speculation_lead_sign_is_signed(self):
        early = TxnSpan(1, {"submitted": 0.0, "responded": 0.3, "committed": 0.5})
        late = TxnSpan(2, {"submitted": 0.0, "responded": 0.7, "committed": 0.5})
        lead = PhaseBreakdown.from_spans([early]).speculation_lead_s
        lag = PhaseBreakdown.from_spans([late]).speculation_lead_s
        assert lead == pytest.approx(0.2)
        assert lag == pytest.approx(-0.2)

    def test_partial_spans_contribute_only_observed_pairs(self):
        partial = TxnSpan(1, {"submitted": 0.0, "mempool": 0.1})
        breakdown = PhaseBreakdown.from_spans([partial])
        assert [stat.name for stat in breakdown.phases] == ["submitted→mempool"]
        assert breakdown.spans_used == 1
        assert breakdown.response_s == 0.0  # total never observed

    def test_format_phase_breakdown_renders(self):
        recorder = traced_recorder()
        drive_lifecycle(recorder)
        text = format_phase_breakdown(recorder.phase_breakdown())
        assert "speculation lead" in text
        assert "submitted→responded" in text


class TestExports:
    def test_jsonl_roundtrip_preserves_everything(self, tmp_path):
        recorder = traced_recorder(bucket=0.1)
        drive_lifecycle(recorder)
        recorder.view_entered(4, replica=2)
        path = write_jsonl(recorder, str(tmp_path / "trace.jsonl"))
        restored = read_jsonl(path)
        assert restored.counts == recorder.counts
        assert restored.highest_view == recorder.highest_view
        assert restored.spans[1].events == recorder.spans[1].events
        assert list(restored.events) == list(recorder.events)
        assert restored.to_records() == recorder.to_records()

    #: One instance of every record kind, every field off its default.
    RECORD_SAMPLES = {
        "span": TxnSpan(7, {"submitted": 0.1, "committed": 0.3}, {"committed": 2}),
        "event": ProtocolEvent("propose", 0.2, view=3, slot=1, block_hash="ab", txn_count=5,
                               replica=1),
        "instant": TraceInstant("alert", 0.4, label="commit-stall", replica=2,
                                data={"window": 3}),
        "wire": WireEvent("recv", 0.25, src=0, dst=3, seq=9, sent_at=0.24, msg="Vote"),
        "bucket": TimelineBucket(4, submitted=10, completed=8, latencies=[0.01, 0.02],
                                 offered=12, max_view=3, mempool_depth=6, committed_txns=8,
                                 responded_speculative=7, views_entered=1),
    }

    @pytest.mark.parametrize("tag", sorted(RECORD_SAMPLES))
    def test_every_record_kind_round_trips_through_its_tag(self, tag):
        obj = self.RECORD_SAMPLES[tag]
        assert RECORD_TYPES[tag] is type(obj)
        record = json.loads(json.dumps(record_of(obj)))
        assert record["type"] == tag
        restored = TraceRecorder.offline()
        restored.apply_record(record)
        held = {
            "span": lambda r: list(r.spans.values()),
            "event": lambda r: list(r.events),
            "instant": lambda r: list(r.instants),
            "wire": lambda r: list(r.wire),
            "bucket": lambda r: list(r.buckets.values()),
        }[tag](restored)
        assert held == [obj]
        assert record_of(held[0]) == record

    def test_prometheus_exposition_leaves_out_empty_families(self):
        text = prometheus_exposition([
            ("repro_a_total", "A things.", "counter", [({"kind": "x"}, 3)]),
            ("repro_b", "Never sampled.", "gauge", []),
            ("repro_c", "Unlabelled.", "gauge", [({}, 0.5)]),
        ])
        assert "repro_b" not in text
        assert text.splitlines() == [
            "# HELP repro_a_total A things.",
            "# TYPE repro_a_total counter",
            'repro_a_total{kind="x"} 3',
            "# HELP repro_c Unlabelled.",
            "# TYPE repro_c gauge",
            "repro_c 0.5",
        ]
        assert parse_prometheus(text) == {
            ("repro_a_total", frozenset({("kind", "x")})): 3.0,
            ("repro_c", frozenset()): 0.5,
        }

    def test_jsonl_reader_skips_torn_tail(self, tmp_path):
        recorder = traced_recorder()
        drive_lifecycle(recorder)
        path = write_jsonl(recorder, str(tmp_path / "trace.jsonl"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "txn_id"')  # interrupted write
        restored = read_jsonl(path)
        assert restored.counts == recorder.counts

    def test_chrome_trace_is_loadable_and_nonnegative(self):
        recorder = traced_recorder(bucket=0.1)
        drive_lifecycle(recorder)
        document = json.loads(json.dumps(chrome_trace(recorder)))
        events = document["traceEvents"]
        phases = [e for e in events if e["ph"] == "X"]
        assert len(phases) == len(EVENT_KINDS) - 1
        assert all(e["dur"] >= 0 for e in phases)
        assert {e["ph"] for e in events} >= {"X", "i", "C", "M"}
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert {"throughput_tps", "inflight", "current_view"} <= counters

    def test_chrome_trace_orders_reversed_phases_by_observed_time(self):
        # HotStuff-style span: committed before responded.  Slices must still
        # have non-negative durations.
        recorder = traced_recorder()
        recorder.spans[1] = TxnSpan(1, {"submitted": 0.0, "committed": 0.4, "responded": 0.9})
        phases = [e for e in chrome_trace(recorder)["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in phases] == ["submitted→committed", "committed→responded"]
        assert all(e["dur"] >= 0 for e in phases)

    def test_prometheus_roundtrip(self):
        recorder = traced_recorder()
        drive_lifecycle(recorder)
        samples = parse_prometheus(prometheus_text(recorder))
        assert samples[("repro_trace_events_total", frozenset({("kind", "submitted")}))] == 1.0
        assert samples[("repro_trace_spans_sampled", frozenset())] == 1.0
        key = (
            "repro_trace_phase_latency_seconds",
            frozenset({("phase", "submitted→responded"), ("stat", "mean")}),
        )
        assert samples[key] == pytest.approx(0.006)

    def test_bundle_writes_all_three_formats(self, tmp_path):
        recorder = traced_recorder()
        drive_lifecycle(recorder)
        paths = write_trace_bundle(recorder, str(tmp_path / "bundle"))
        assert set(paths) == {"jsonl", "chrome", "prometheus"}
        assert read_jsonl(paths["jsonl"]).counts == recorder.counts
        json.load(open(paths["chrome"]))
        assert parse_prometheus(open(paths["prometheus"]).read())


class TestTracedRuns:
    def test_tracing_does_not_perturb_the_simulation(self):
        """The recorder only observes the clock, so a traced run commits the
        same transactions; its bookkeeping is a small constant per event, so
        the traced run costs well under twice the CPU of the untraced one."""
        base = dict(protocol="hotstuff-1", duration=0.3, seed=11)
        started = time.process_time()
        untraced = run_experiment(ExperimentSpec(**base))
        untraced_s = time.process_time() - started
        started = time.process_time()
        traced = run_experiment(ExperimentSpec(trace=True, **base))
        traced_s = time.process_time() - started
        assert untraced.summary.as_dict() == traced.summary.as_dict()
        assert untraced.trace is None and traced.trace is not None
        assert traced_s / untraced_s < 2.0, f"traced {traced_s:.3f}s vs untraced {untraced_s:.3f}s CPU"

    def test_hotstuff1_speculative_response_beats_commit(self):
        result = run_experiment(
            ExperimentSpec(protocol="hotstuff-1", duration=0.3, trace=True)
        )
        breakdown = result.trace.phase_breakdown()
        assert breakdown.spans_used > 0
        assert breakdown.response_s < breakdown.commit_s
        assert breakdown.speculation_lead_s > 0
        row = result.to_row()
        assert row["spec_lead_ms"] > 0
        assert row["trace_resp_ms"] < row["trace_commit_ms"]

    def test_baseline_hotstuff_responds_after_commit(self):
        result = run_experiment(
            ExperimentSpec(protocol="hotstuff", duration=0.3, trace=True)
        )
        assert result.trace.phase_breakdown().speculation_lead_s < 0

    def test_sim_and_live_traces_share_the_span_structure(self):
        sim = run_experiment(
            ExperimentSpec(protocol="hotstuff-1", duration=0.3, trace=True)
        )
        from repro.live.deploy import run_live_experiment

        live = run_live_experiment(
            ExperimentSpec(
                protocol="hotstuff-1",
                mode="live",
                duration=20.0,
                warmup=0.05,
                view_timeout=0.05,
                trace=True,
            ),
            target_ops=150,
        )
        # Both substrates must observe the full canonical lifecycle on
        # (a majority of sim / at least some live) transactions; partial live
        # spans only ever drop a *suffix* or protocol-internal kinds, never
        # reorder them.
        assert sim.trace.span_signatures().get(EVENT_KINDS, 0) > 0
        assert live.trace.span_signatures().get(EVENT_KINDS, 0) > 0
        for signature in live.trace.span_signatures():
            ranks = [EVENT_KINDS.index(kind) for kind in signature]
            assert ranks == sorted(ranks)

    def test_chaos_timeline_shows_dip_and_recovery(self):
        plan = chaos_preset("blackout", n=4, at=0.3, down_for=0.1)
        result = run_experiment(
            ExperimentSpec(
                protocol="hotstuff-1",
                duration=1.0,
                faults=plan.to_dict(),
                trace=True,
                trace_bucket=0.05,
            )
        )
        rows = result.trace.timeline()
        completed = [row["completed"] for row in rows]
        assert len(completed) >= 10
        # Healthy before the blackout, a real dip during it, recovered after.
        dip = min(completed[1:-1])
        assert completed[0] > 0
        assert dip < 0.2 * max(completed)
        dip_index = completed.index(dip)
        assert max(completed[dip_index:]) > 0.5 * max(completed)

    def test_trace_params_ride_executor_requests(self):
        from repro.experiments.executor import execute_request
        from repro.experiments.spec import RunRequest

        record = execute_request(
            RunRequest(
                index=0,
                group=0,
                scenario="s",
                kind="scalability",
                protocol="hotstuff-1",
                params={"n": 4, "duration": 0.2, "warmup": 0.05, "trace": True},
                point={"n": 4},
                seed=1,
                repeat=0,
            )
        )
        assert record.row["spec_lead_ms"] > 0


class TestWarmupAccounting:
    def test_boundary_filters_on_submission_time(self):
        metrics = MetricsCollector(warmup=1.0)
        # Submitted during warmup, completed after: warmup traffic, excluded.
        metrics.record_completion(txn_id=1, submitted_at=0.9, completed_at=1.4, speculative=False)
        # Submitted exactly at the boundary: measured.
        metrics.record_completion(txn_id=2, submitted_at=1.0, completed_at=1.5, speculative=False)
        # Clearly post-warmup: measured.
        metrics.record_completion(txn_id=3, submitted_at=1.2, completed_at=1.8, speculative=False)
        assert metrics.completed_count == 2
        assert {s.txn_id for s in metrics.completed_after_warmup()} == {2, 3}
        assert metrics.average_latency() == pytest.approx((0.5 + 0.6) / 2)
        assert metrics.throughput(2.0) == pytest.approx(2.0)

    def test_close_window_ignores_teardown_completions(self):
        metrics = MetricsCollector()
        metrics.record_completion(txn_id=1, submitted_at=0.1, completed_at=0.5, speculative=False)
        metrics.close_window(1.0)
        metrics.record_completion(txn_id=2, submitted_at=0.9, completed_at=1.5, speculative=False)
        assert metrics.completed_count == 1
        assert len(metrics.samples) == 1


class TestMetricsBounds:
    def test_sample_reservoir_is_capped_but_counters_exact(self):
        metrics = MetricsCollector(max_samples=50)
        for index in range(500):
            metrics.record_completion(
                txn_id=index, submitted_at=index * 0.01, completed_at=index * 0.01 + 0.2,
                speculative=False,
            )
        assert len(metrics.samples) == 50
        assert metrics.completed_count == 500
        assert metrics.average_latency() == pytest.approx(0.2)
        # Percentiles come from the reservoir and stay in the true range.
        assert 0.0 < metrics.latency_percentile(0.5) <= 0.2 + 1e-9

    def test_duplicate_dedup_window_is_bounded(self):
        metrics = MetricsCollector()
        for index in range(10):
            metrics.record_completion(
                txn_id=7, submitted_at=0.0, completed_at=0.1, speculative=False
            )
        assert metrics.completed_count == 1
        assert len(metrics._committed_txn_ids) <= metrics.DEDUP_WINDOW


class TestNetworkBreakdownWire:
    def test_sim_stats_render_without_wire_columns(self):
        text = format_network_breakdown(
            {"messages_sent": 10, "messages_delivered": 10, "bytes_sent": 100}
        )
        assert "batch_writes" not in text
        assert "reconnects" not in text

    def test_live_stats_render_wire_counters_and_per_peer_reconnects(self):
        text = format_network_breakdown(
            {
                "messages_sent": 10,
                "messages_delivered": 10,
                "bytes_sent": 100,
                "batch_writes": 7,
                "batched_frames": 9,
                "reconnects": {1: 2, 3: 1},
            }
        )
        assert "batch_writes" in text and "batched_frames" in text
        assert "reconnects by peer: peer 1: 2, peer 3: 1" in text
