"""Live telemetry plane: streaming sinks, detectors, scrape, watch.

Covers the PR's tentpole guarantees: a streaming trace sink keeps recorder
memory bounded while the JSONL file stays lossless and readable mid-run; the
online SLO detector
fires during injected faults (bracketing a chaos blackout) without flapping
on noise; the per-replica scrape endpoints answer concurrent probes during a
real live run; and the `repro watch` / extended `repro trace` CLI surfaces
work end to end.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.request

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.report import format_chaos_report
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.faults.plan import chaos_preset
from repro.obs.detect import (
    Alert,
    CommitStallRule,
    SloDetector,
    SpecLeadCollapseRule,
    ViewStormRule,
)
from repro.obs.export import chrome_trace, parse_prometheus, read_jsonl, write_jsonl
from repro.obs.merge import merge_shards
from repro.obs.scrape import ReplicaTelemetry, ScrapeServer
from repro.obs.stream import StreamingTraceSink, TraceTail
from repro.obs.trace import TraceRecorder
from repro.obs.watch import active_alerts, render_dashboard, watch_file


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0


class FakeTxn:
    def __init__(self, txn_id):
        self.txn_id = txn_id


class FakeBlock:
    def __init__(self, block_hash, txn_ids, view=1, slot=1):
        self.block_hash = block_hash
        self.view = view
        self.slot = slot
        self.transactions = [FakeTxn(txn_id) for txn_id in txn_ids]
        self.txn_count = len(txn_ids)


def recorder_with(**kwargs) -> TraceRecorder:
    return TraceRecorder(clock=FakeClock(), **kwargs)


def complete_txn(recorder: TraceRecorder, txn_id: int, submitted_at: float,
                 latency: float) -> None:
    """Submit + respond + commit one transaction with a chosen latency."""
    clock = recorder.clock
    clock.now = submitted_at
    recorder.txn_submitted(txn_id)
    clock.now = submitted_at + latency
    recorder.txn_responded(txn_id, submitted_at=submitted_at, speculative=True)
    recorder.block_committed(FakeBlock(f"b{txn_id}", [txn_id]), replica=0)


class TestStreamingSink:
    def test_file_is_readable_mid_run(self, tmp_path):
        recorder = recorder_with(bucket=0.1)
        sink = StreamingTraceSink(recorder, str(tmp_path / "stream.jsonl"))
        for txn_id in range(20):
            complete_txn(recorder, txn_id, submitted_at=txn_id * 0.05, latency=0.01)
        sink.flush()
        # The run is still open (no close()) — a reader sees the data so far.
        mid = read_jsonl(sink.path)
        assert mid.counts["submitted"] == 20
        assert mid.counts["committed"] == 20
        recorder.finalize(2.0)
        assert sink.closed
        final = read_jsonl(sink.path)
        assert len(final.spans) == 20
        assert final.counts == recorder.counts

    def test_recorder_memory_stays_bounded(self, tmp_path):
        recorder = recorder_with(bucket=0.05, max_txns=64)
        sink = StreamingTraceSink(recorder, str(tmp_path / "stream.jsonl"))
        peak_spans = peak_buckets = 0
        for txn_id in range(2000):
            complete_txn(recorder, txn_id, submitted_at=txn_id * 0.01, latency=0.002)
            if txn_id % 50 == 0:
                sink.flush()
                peak_spans = max(peak_spans, len(recorder.spans))
                peak_buckets = max(peak_buckets, len(recorder.buckets))
        # Completed spans retire after the grace window (2 bucket widths @
        # 100 txns/s of clock time), closed buckets are evicted on closure.
        assert peak_spans <= recorder.max_txns
        assert peak_buckets <= 5
        recorder.finalize(2000 * 0.01 + 1.0)
        restored = read_jsonl(sink.path)
        # The file is lossless: every span and every bucket made it to disk.
        assert len(restored.spans) == 2000
        assert restored.counts["committed"] == 2000
        assert len(restored.buckets) >= 390

    def test_incomplete_spans_are_abandoned_not_pinned(self, tmp_path):
        recorder = recorder_with(bucket=0.05, max_txns=10)
        sink = StreamingTraceSink(recorder, str(tmp_path / "stream.jsonl"))
        # 10 transactions that never complete fill the working set ...
        for txn_id in range(10):
            recorder.clock.now = txn_id * 0.001
            recorder.txn_submitted(txn_id)
        assert len(recorder.spans) == 10
        # ... far past the abandon horizon they are flushed out, and
        # admission flows again.
        recorder.clock.now = 100.0
        sink.flush()
        assert len(recorder.spans) == 0
        recorder.txn_submitted(99)
        assert 99 in recorder.spans

    def test_reader_tolerates_crash_truncated_tail(self, tmp_path):
        recorder = recorder_with(bucket=0.1)
        sink = StreamingTraceSink(recorder, str(tmp_path / "stream.jsonl"))
        for txn_id in range(5):
            complete_txn(recorder, txn_id, submitted_at=txn_id * 0.01, latency=0.001)
        sink.flush()
        with open(sink.path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "txn')  # crash mid-write
        restored = read_jsonl(sink.path)
        assert restored.counts["submitted"] == 5

    def test_trace_tail_is_incremental_and_resets_on_truncation(self, tmp_path):
        path = tmp_path / "tail.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n{"torn', encoding="utf-8")
        tail = TraceTail(str(path))
        assert tail.poll() == [{"a": 1}, {"b": 2}]
        assert tail.poll() == []  # torn tail stays pending
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('"}\n{"c": 3}\n')
        records = tail.poll()
        assert {"c": 3} in records
        path.write_text('{"fresh": 1}\n', encoding="utf-8")  # rotation
        assert tail.poll() == [{"fresh": 1}]


class TestSloDetector:
    def drive(self, recorder, start, count, committed_per_bucket):
        """Advance whole buckets, committing a block per bucket (or none)."""
        width = recorder.bucket_width
        for index in range(start, start + count):
            recorder.clock.now = (index + 0.5) * width
            if committed_per_bucket:
                block = FakeBlock(f"b{index}", list(range(committed_per_bucket)))
                block.block_hash = f"b{index}"
                recorder.block_committed(block, replica=0)
            recorder.advance(recorder.clock.now)

    def test_sustained_stall_raises_once_then_clears(self):
        recorder = recorder_with(bucket=0.1)
        detector = SloDetector(recorder, rules=[CommitStallRule()],
                               fire_after=3, clear_after=3)
        self.drive(recorder, 0, 8, committed_per_bucket=10)   # healthy baseline
        self.drive(recorder, 8, 6, committed_per_bucket=0)    # stall
        self.drive(recorder, 14, 8, committed_per_bucket=10)  # recovery
        recorder.finalize(2.4)
        alerts = detector.alerts()
        assert [a.rule for a in alerts] == ["commit-stall"]
        alert = alerts[0]
        assert alert.cleared_at is not None and alert.cleared_at > alert.raised_at
        # Raised inside the stall window (buckets 8..13), not after it.
        assert 0.8 <= alert.raised_at <= 1.4
        kinds = [inst.kind for inst in recorder.instants]
        assert kinds.count("alert") == 1 and kinds.count("alert-cleared") == 1

    def test_hysteresis_ignores_alternating_noise(self):
        recorder = recorder_with(bucket=0.1)
        detector = SloDetector(recorder, rules=[CommitStallRule()],
                               fire_after=3, clear_after=3)
        self.drive(recorder, 0, 6, committed_per_bucket=10)
        # Alternating good/bad buckets never build a 3-bucket bad streak.
        # (End on a good bucket: trailing silence after the last data point
        # would itself be a genuine stall.)
        for index in range(6, 27):
            self.drive(recorder, index, 1, committed_per_bucket=0 if index % 2 else 10)
        recorder.finalize(2.65)
        assert detector.alerts() == []

    def test_view_storm_needs_churn_without_commits(self):
        rule = ViewStormRule()
        from repro.obs.detect import BucketStats

        churning = BucketStats(index=0, end_time=0.1, views_entered=5, committed_txns=0)
        healthy = BucketStats(index=1, end_time=0.2, views_entered=5, committed_txns=40)
        assert rule.is_bad(churning)
        assert not rule.is_bad(healthy)

    def test_spec_lead_collapse_never_arms_on_baselines(self):
        rule = SpecLeadCollapseRule()
        from repro.obs.detect import BucketStats

        # A 2-phase protocol: plenty of completions, zero speculative.
        for index in range(20):
            stats = BucketStats(index=index, end_time=index * 0.1,
                                completed=50, responded_speculative=0)
            assert not rule.is_bad(stats)

    def test_chaos_report_renders_alert_table(self):
        chaos = {
            "incidents": [],
            "crashes": 1,
            "restarts": 1,
            "alerts": [Alert("commit-stall", 0.36, 0.54, "committed 0").as_dict()],
        }
        text = format_chaos_report(chaos)
        assert "SLO detector alerts" in text
        assert "commit-stall" in text


class TestChaosIntegration:
    def test_blackout_alert_brackets_the_injected_fault(self):
        plan = chaos_preset("blackout", n=4, at=0.3, down_for=0.15)
        result = run_experiment(
            ExperimentSpec(
                protocol="hotstuff-1",
                duration=1.0,
                faults=plan.to_dict(),
                trace=True,
                trace_bucket=0.02,
            )
        )
        chaos = result.chaos
        alerts = [a for a in chaos["alerts"] if a["rule"] == "commit-stall"]
        assert alerts, "blackout must raise a commit-stall alert"
        recovery = max(i["first_commit_at"] for i in chaos["incidents"])
        # Raised while the cluster was down: after the crash, before the
        # first post-restart commit (plus hysteresis: 3 buckets of 20 ms).
        assert 0.3 <= alerts[0]["raised_at"] <= recovery + 3 * 0.02
        assert alerts[0]["cleared_at"] is not None
        # The raise/clear pair also exists as trace instants for exports.
        instant_kinds = {inst.kind for inst in result.trace.instants}
        assert {"alert", "alert-cleared"} <= instant_kinds

    def test_fault_actions_are_first_class_trace_instants(self):
        plan = chaos_preset("kill-replica", n=4, at=0.2, down_for=0.1, replica=1)
        result = run_experiment(
            ExperimentSpec(
                protocol="hotstuff-1", duration=0.6, faults=plan.to_dict(), trace=True
            )
        )
        faults = [inst for inst in result.trace.instants if inst.kind == "fault"]
        labels = [inst.label for inst in faults]
        assert "crash" in labels and "restart" in labels
        crash = next(inst for inst in faults if inst.label == "crash")
        assert crash.replica == 1
        assert crash.t == pytest.approx(0.2, abs=0.05)

    def test_detector_can_be_disabled(self):
        plan = chaos_preset("blackout", n=4, at=0.3, down_for=0.15)
        result = run_experiment(
            ExperimentSpec(
                protocol="hotstuff-1",
                duration=1.0,
                faults=plan.to_dict(),
                trace=True,
                trace_detect=False,
            )
        )
        assert "alerts" not in result.chaos
        assert not any(inst.kind == "alert" for inst in result.trace.instants)


class TestSpecValidation:
    def test_nonpositive_trace_bucket_rejected(self):
        with pytest.raises(ConfigurationError, match="trace_bucket"):
            ExperimentSpec(protocol="hotstuff-1", trace=True, trace_bucket=0.0).validate()
        with pytest.raises(ConfigurationError, match="trace_bucket"):
            ExperimentSpec(protocol="hotstuff-1", trace=True, trace_bucket=-0.5).validate()

    def test_recorder_rejects_nonpositive_caps(self):
        with pytest.raises(ConfigurationError):
            TraceRecorder(clock=FakeClock(), bucket=0.0)
        with pytest.raises(ConfigurationError):
            TraceRecorder(clock=FakeClock(), max_txns=0)
        with pytest.raises(ConfigurationError):
            TraceRecorder(clock=FakeClock(), max_events=0)

    def test_stream_implies_trace(self, tmp_path):
        spec = ExperimentSpec(
            protocol="hotstuff-1", trace_stream=str(tmp_path / "s.jsonl")
        ).validate()
        assert spec.trace

    def test_scrape_port_is_live_only(self):
        with pytest.raises(ConfigurationError, match="scrape_port"):
            ExperimentSpec(protocol="hotstuff-1", scrape_port=9100).validate()
        with pytest.raises(ConfigurationError, match="scrape_port"):
            ExperimentSpec(protocol="hotstuff-1", mode="live", scrape_port=70000).validate()


class TestTracedStreamedRuns:
    def test_streamed_sim_run_matches_untraced(self, tmp_path):
        base = dict(protocol="hotstuff-1", duration=0.3, seed=11)
        untraced = run_experiment(ExperimentSpec(**base))
        streamed = run_experiment(
            ExperimentSpec(trace_stream=str(tmp_path / "s.jsonl"), **base)
        )
        # Streaming (sink + detector + closure machinery) must not perturb
        # the simulation any more than plain tracing does.
        assert untraced.summary.as_dict() == streamed.summary.as_dict()
        restored = read_jsonl(str(tmp_path / "s.jsonl"))
        assert restored.counts["committed"] == streamed.trace.counts["committed"]
        assert restored.timeline()

    def test_filtered_windows_spans_and_buckets(self):
        result = run_experiment(
            ExperimentSpec(protocol="hotstuff-1", duration=0.4, trace=True,
                           trace_bucket=0.05)
        )
        full = result.trace
        # Post-warmup spans cluster right after warmup (0.2 s); window a
        # strict sub-range of them.
        window = full.filtered(since=0.2, until=0.22)
        assert 0 < len(window.spans) < len(full.spans)
        for span in window.spans.values():
            assert 0.2 <= min(span.events.values()) < 0.22
        assert window.buckets
        for bucket in window.buckets.values():
            assert 0.2 <= bucket.index * window.bucket_width < 0.22

    def test_filtered_keeps_every_event_and_the_per_replica_tracks(self):
        """A window of a loaded merged bundle is as lossless as the bundle:
        no live ring cap drops its head, and each replica keeps its track."""
        records = [{"type": "meta", "merged": True}] + [
            {"type": "event", "kind": "view", "t": index * 1e-3, "view": index,
             "replica": index % 4}
            for index in range(10_000)
        ]
        loaded = TraceRecorder.from_records(records)
        window = loaded.filtered(since=0.0, until=11.0)
        assert len(window.events) == 10_000
        assert window.events[0].t == 0.0
        assert window.per_replica_tracks
        names = {e["args"]["name"] for e in chrome_trace(window)["traceEvents"]
                 if e.get("name") == "process_name"}
        assert {"replica r0", "replica r3"} <= names


def fake_replica(view=7, height=3, halted=False):
    class Ledger:
        committed = [object()] * height

    class Replica:
        pass

    replica = Replica()
    replica.ledger = Ledger()
    replica.current_view = view
    replica.halted = halted
    return replica


class Mempool:
    def peek_count(self):
        return 42


class TestScrapeEndpoints:
    def run_async(self, coro):
        return asyncio.new_event_loop().run_until_complete(coro)

    async def _get(self, port, path):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        await writer.drain()
        raw = await reader.read()
        writer.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        return status, body.decode()

    def test_concurrent_scrapes_and_all_routes(self):
        replica = fake_replica()
        telemetry = ReplicaTelemetry(
            0, lambda: replica, FakeClock(), tracer=recorder_with(), mempool=Mempool()
        )
        server = ScrapeServer(telemetry.routes())

        async def scenario():
            await server.start()
            results = await asyncio.gather(
                *[self._get(server.port, "/metrics") for _ in range(8)],
                self._get(server.port, "/healthz"),
                self._get(server.port, "/readyz"),
                self._get(server.port, "/nope"),
            )
            await server.close()
            return results

        results = self.run_async(scenario())
        metrics = results[:8]
        assert all(status == 200 for status, _ in metrics)
        samples = parse_prometheus(metrics[0][1])
        labels = frozenset({("replica", "0")})
        assert samples[("repro_replica_up", labels)] == 1.0
        assert samples[("repro_replica_view", labels)] == 7.0
        assert samples[("repro_replica_committed_height", labels)] == 3.0
        assert samples[("repro_replica_mempool_depth", labels)] == 42.0
        health_status, health_body = results[8]
        assert health_status == 200 and json.loads(health_body)["up"] is True
        assert results[9][0] == 200  # readyz: no commit expected yet → ready
        assert results[10][0] == 404

    def test_down_replica_reports_503(self):
        telemetry = ReplicaTelemetry(1, lambda: None, FakeClock())
        status, _, body = telemetry.healthz()
        assert status == 503
        assert json.loads(body)["up"] is False
        halted = fake_replica(halted=True)
        telemetry = ReplicaTelemetry(1, lambda: halted, FakeClock())
        assert telemetry.healthz()[0] == 503

    def test_stalled_replica_fails_readiness(self):
        clock = FakeClock()
        replica = fake_replica(height=5)
        telemetry = ReplicaTelemetry(0, lambda: replica, clock, ready_max_age=1.0)
        telemetry.probe()  # observe height 5 at t=0
        clock.now = 10.0   # no height change for 10 s
        status, _, body = telemetry.readyz()
        assert status == 503
        assert json.loads(body)["stalled"] is True

    def test_live_run_serves_scrapes_mid_run(self):
        from repro.live.deploy import run_live_experiment

        spec = ExperimentSpec(
            protocol="hotstuff-1",
            mode="live",
            duration=8.0,
            warmup=0.05,
            view_timeout=0.05,
            trace=True,
            scrape_port=0,
        )
        started = threading.Event()
        ports = []
        scraped = {}

        def on_started(info):
            ports.extend(info["scrape_ports"])
            started.set()

        holder = {}

        def run():
            holder["result"] = run_live_experiment(
                spec, target_ops=600, on_started=on_started
            )

        worker = threading.Thread(target=run)
        worker.start()
        try:
            assert started.wait(timeout=30.0), "live cluster never started"
            assert len(ports) == spec.n
            for port in ports[:2]:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=5.0
                ) as response:
                    scraped[port] = (response.status, response.read().decode())
            with urllib.request.urlopen(
                f"http://127.0.0.1:{ports[0]}/healthz", timeout=5.0
            ) as response:
                health = json.loads(response.read().decode())
        finally:
            worker.join(timeout=60.0)
        assert not worker.is_alive()
        assert holder["result"].summary.committed_txns > 0
        for status, body in scraped.values():
            assert status == 200
            assert "repro_replica_up" in body
            assert "repro_trace_spans_sampled" in body  # tracer exposition rides along
        assert health["replica"] == 0


class TestWatchAndCli:
    def make_stream(self, tmp_path) -> str:
        path = str(tmp_path / "stream.jsonl")
        run_experiment(
            ExperimentSpec(protocol="hotstuff-1", duration=0.3, trace_stream=path)
        )
        return path

    def test_watch_file_renders_frames(self, tmp_path, capsys):
        path = self.make_stream(tmp_path)
        frames = []
        recorder = watch_file(path, interval=0.0, frames=2,
                              out=frames.append, clear=False)
        assert len(frames) == 2
        assert "speculation lead" in frames[-1]
        assert recorder.counts["committed"] > 0

    def test_dashboard_surfaces_alerts_and_faults(self):
        recorder = recorder_with()
        recorder.instant("fault", label="crash", t=0.3, replica=1)
        recorder.instant("alert", label="commit-stall", t=0.36,
                         data={"detail": "committed 0"})
        assert [a[0] for a in active_alerts(recorder)] == ["commit-stall"]
        text = render_dashboard(recorder, clear=False)
        assert "ACTIVE ALERTS" in text and "commit-stall" in text
        assert "crash replica 1" in text
        recorder.instant("alert-cleared", label="commit-stall", t=0.6)
        assert active_alerts(recorder) == []

    def test_cli_watch_one_frame(self, tmp_path, capsys):
        path = self.make_stream(tmp_path)
        assert main(["watch", path, "--frames", "1", "--no-clear"]) == 0
        out = capsys.readouterr().out
        assert "repro watch" in out and "timeline" in out

    def test_cli_watch_requires_a_source(self, capsys):
        assert main(["watch"]) == 2
        assert "trace-stream" in capsys.readouterr().err

    def test_cli_trace_windowing(self, tmp_path, capsys):
        path = self.make_stream(tmp_path)
        assert main(["trace", path, "--since", "0.1", "--until", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "trace window: [0.1s, 0.25s)" in out
        assert "lifecycle event counters" in out

    def test_cli_trace_window_of_a_merged_bundle_keeps_replica_tracks(self, tmp_path, capsys):
        """``repro trace merged.jsonl --since 0 --chrome`` renders every event
        of a merged bundle larger than one live ring, each replica on its own
        track."""
        shards = {}
        for node in range(4):
            shard = shards[node] = TraceRecorder(FakeClock(), warmup=0.0, bucket=0.25)
            shard.node_id = node
            for index in range(shard.max_events):
                shard.clock.now = index * 1e-3
                shard.view_entered(index + 1)
        path = write_jsonl(merge_shards(shards)[0], str(tmp_path / "merged.jsonl"))
        out = tmp_path / "window.chrome.json"
        assert main(["trace", path, "--since", "0", "--chrome", str(out)]) == 0
        assert "trace window: [0.0s, end)" in capsys.readouterr().out
        events = json.loads(out.read_text())["traceEvents"]
        names = {e["args"]["name"] for e in events if e.get("name") == "process_name"}
        assert {f"replica r{replica}" for replica in range(4)} <= names
        assert sum(1 for e in events if e.get("name") == "view") == 4 * shards[0].max_events

    def test_cli_run_with_stream(self, tmp_path, capsys):
        path = str(tmp_path / "s.jsonl")
        code = main([
            "run", "--protocol", "hotstuff-1", "--duration", "0.3", "--trace-stream", path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"streamed trace: {path}" in out
        assert "phase-level latency breakdown" in out
        assert read_jsonl(path).counts["committed"] > 0
