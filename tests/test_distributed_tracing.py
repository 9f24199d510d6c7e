"""Cluster-wide distributed tracing: shards, wire edges, skew merge, paths.

Covers the tracing plane that spans process boundaries:

* envelope version 11 carries an optional per-sender send sequence — and
  frames without one stay at version 10 (zero wire cost when tracing is off);
* :class:`AsyncTcpTransport` emits matched send/recv wire events when (and
  only when) a tracer is attached;
* the NTP-style skew estimator recovers deliberately offset child clocks,
  degrades gracefully with zero matched pairs, and carries the classic
  half-the-asymmetry bias on asymmetric links — no worse;
* merging the same shard set is deterministic and survives the JSONL
  round-trip with per-replica tracks and span sources intact;
* the commit critical path decomposes each hop into network / queue /
  compute with WAN links named;
* a real 4-process geo run produces shards that merge into a timeline where
  virginia↔hongkong is the dominant network segment and the speculation
  lead stays positive (the acceptance bar for ``repro trace merge``).
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import tempfile
import threading
import time
import urllib.request

import pytest

from repro.consensus.messages import FetchRequest
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentSpec
from repro.live import codec
from repro.live.config import DeploymentConfig, ReplicaEndpoint
from repro.live.procs import run_multiprocess_experiment
from repro.live.runtime import LiveCluster, LiveNode, WallClock
from repro.live.transport import AsyncTcpTransport
from repro.net.latency import REGION_RTT_MS
from repro.obs.critical import (
    WAN_THRESHOLD_S,
    critical_path_report,
    format_critical_path_report,
    link_delay_matrix,
)
from repro.obs.export import read_jsonl, write_jsonl
from repro.obs.merge import (
    CLIENT_SHARD_ID,
    estimate_offsets,
    merge_shards,
    merge_trace_files,
)
from repro.obs.trace import TraceRecorder, TxnSpan

GEO_ORDER = ["virginia", "london", "hongkong", "saopaulo"]


def _free_port_range(count: int) -> int:
    """Base of *count* consecutive free localhost ports (scrape_port + replica_id)."""
    for base in range(19470, 29470, 16):
        sockets = []
        try:
            for offset in range(count):
                sockets.append(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
                sockets[-1].bind(("127.0.0.1", base + offset))
            return base
        except OSError:
            continue
        finally:
            for sock in sockets:
                sock.close()
    raise RuntimeError("no free port range for the scrape endpoints")


def _all_message():
    return FetchRequest(block_hash="a" * 64, requester=0)


# ------------------------------------------------- codec trace context
class TestWireCodecTraceContext:
    def test_traced_frames_round_trip_the_send_sequence(self):
        message = _all_message()
        frame = codec.frame_from_message(3, 1, codec.encode_message(message), 1.25, seq=42)
        sender, receiver, sent_at, seq, payload = codec.decode_envelope(frame[4:])
        assert (sender, receiver, sent_at, seq) == (3, 1, 1.25, 42)
        assert payload == message

    def test_untraced_frames_stay_at_the_untraced_version(self):
        """seq=None must not add a single wire byte: untraced runs pay
        nothing for the feature."""
        message = _all_message()
        encoded = codec.encode_message(message)
        untraced = codec.frame_from_message(3, 1, encoded, 1.25)
        traced = codec.frame_from_message(3, 1, encoded, 1.25, seq=7)
        assert untraced[5] == codec.BINARY_WIRE_VERSION
        assert traced[5] == codec.BINARY_TRACED_WIRE_VERSION
        assert len(traced) - len(untraced) == 8  # the u64 send sequence
        sender, receiver, sent_at, seq, payload = codec.decode_envelope(untraced[4:])
        assert seq is None
        assert (sender, receiver, sent_at, payload) == (3, 1, 1.25, message)


# --------------------------------------------------- transport wire events
class TestTransportWireEvents:
    def _scenario(self, trace_sender: bool, trace_receiver: bool):
        class _Sink:
            def __init__(self, node_id):
                self.node_id = node_id
                self.received = []

            def deliver(self, envelope):
                self.received.append(envelope)

        async def run():
            clock = WallClock()
            left, right = AsyncTcpTransport(0, clock), AsyncTcpTransport(1, clock)
            left.register(_Sink(0))
            sink = _Sink(1)
            right.register(sink)
            left_trace = TraceRecorder(clock) if trace_sender else None
            right_trace = TraceRecorder(clock) if trace_receiver else None
            if left_trace is not None:
                left.set_tracer(left_trace)
            if right_trace is not None:
                right.set_tracer(right_trace)
            cluster = LiveCluster(clock, [LiveNode(0, left), LiveNode(1, right)])
            await cluster.start()
            try:
                for _ in range(5):
                    left.send(0, 1, _all_message())
                for _ in range(400):
                    await asyncio.sleep(0.005)
                    if len(sink.received) >= 5:
                        break
            finally:
                await cluster.close()
            return left_trace, right_trace

        return asyncio.run(run())

    def test_matched_send_recv_events_with_monotonic_sequences(self):
        left_trace, right_trace = self._scenario(True, True)
        sends = [e for e in left_trace.wire if e.kind == "send"]
        recvs = [e for e in right_trace.wire if e.kind == "recv"]
        assert [e.seq for e in sends] == [1, 2, 3, 4, 5]
        assert sorted(e.seq for e in recvs) == [1, 2, 3, 4, 5]
        for recv in recvs:
            assert (recv.src, recv.dst) == (0, 1)
            assert recv.msg == "FetchRequest"
            # Same host, same WallClock epoch basis: receive after send.
            assert recv.t >= recv.sent_at

    def test_untraced_sender_emits_no_sequences_at_all(self):
        """Tracing is per-process: a traced receiver facing an untraced
        sender sees seq-less (v4) frames and records nothing."""
        _, right_trace = self._scenario(False, True)
        assert right_trace.wire_seen == 0
        assert list(right_trace.wire) == []


# --------------------------------------------------------- skew estimation
class _ManualClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now


def _shard(node_id: int) -> TraceRecorder:
    trace = TraceRecorder(_ManualClock(), warmup=0.0, bucket=0.25)
    trace.node_id = node_id
    return trace


def _record_frame(shards, src: int, dst: int, seq: int, true_send: float,
                  delay: float, offsets) -> None:
    """One frame src→dst: the send stamped on src's clock, the receive on
    dst's — with ``offsets[n]`` being node n's clock error (local = true − off)."""
    sender, receiver = shards[src], shards[dst]
    sender.clock.now = true_send - offsets[src]
    sender.wire_send(src, dst, seq)
    receiver.clock.now = (true_send + delay) - offsets[dst]
    receiver.wire_recv(src, dst, seq, sent_at=true_send - offsets[src])


class TestSkewEstimation:
    def test_zero_matched_pairs_degrades_to_concatenation(self):
        shards = {CLIENT_SHARD_ID: _shard(CLIENT_SHARD_ID), 0: _shard(0)}
        offsets = estimate_offsets(shards)
        assert offsets.offsets == {CLIENT_SHARD_ID: 0.0, 0: 0.0}
        assert offsets.unanchored == [0]
        merged, _ = merge_shards(shards)  # must not raise
        assert merged.wire_seen == 0

    def test_deliberately_offset_clocks_are_recovered_exactly(self):
        """Children reset their WallClock origins hundreds of ms apart; with
        symmetric link delays the midpoint estimator recovers the offsets
        exactly, whatever the actual delay value is."""
        skews = {CLIENT_SHARD_ID: 0.0, 0: 0.250, 1: -0.180}
        shards = {n: _shard(n) for n in skews}
        t = 10.0
        for a in skews:
            for b in skews:
                if a == b:
                    continue
                for i in range(3):
                    _record_frame(shards, a, b, i + 1, t, delay=0.040, offsets=skews)
                    t += 0.5
        offsets = estimate_offsets(shards)
        assert offsets.unanchored == []
        for node, skew in skews.items():
            # local = true − skew, so the correction back onto true time
            # is +skew.
            assert offsets.offset(node) == pytest.approx(skew, abs=1e-9)
        # With the offsets applied the corrected link delay is the truth.
        for link, delay in offsets.link_delay_s.items():
            assert delay == pytest.approx(0.040, abs=1e-9)

    def test_merge_trace_files_recovers_injected_skew_from_shard_files(self, tmp_path):
        """One timeline, three vantage points: r0's clock runs 250 ms behind
        the client's, r1's 40 ms ahead.  Merging the shard *files* must
        recover each offset (either sign) within 1 ms and leave no frame
        arriving before it was sent."""
        skews = {CLIENT_SHARD_ID: 0.0, 0: 0.250, 1: -0.040}
        delays = {(CLIENT_SHARD_ID, 0): 0.030, (CLIENT_SHARD_ID, 1): 0.045, (0, 1): 0.012}
        shards = {n: _shard(n) for n in skews}
        t = 2.0
        for (a, b), delay in delays.items():
            for i in range(4):
                _record_frame(shards, a, b, i + 1, t, delay, skews)
                _record_frame(shards, b, a, i + 1, t + 0.1, delay, skews)
                t += 0.25
        paths = [
            write_jsonl(shard, str(tmp_path / f"shard-{n}.jsonl"))
            for n, shard in shards.items()
        ]
        merged, offsets = merge_trace_files(paths)
        assert offsets.unanchored == []
        for node, skew in skews.items():
            assert offsets.offset(node) == pytest.approx(skew, abs=1e-3)
        for (src, dst), delay in offsets.link_delay_s.items():
            true_delay = delays.get((src, dst)) or delays[(dst, src)]
            assert delay >= 0
            assert delay == pytest.approx(true_delay, abs=1e-3)
        received = [event for event in merged.wire if event.kind == "recv"]
        assert len(received) == 24
        assert all(event.t - event.sent_at >= 0 for event in received)

    def test_asymmetric_link_bias_is_half_the_asymmetry(self):
        """The estimator's classic irreducible error: if the two directions
        of a link differ, half the difference leaks into the offset."""
        skews = {CLIENT_SHARD_ID: 0.0, 0: 0.100}
        shards = {n: _shard(n) for n in skews}
        fast, slow = 0.010, 0.090  # client→r0 fast, r0→client slow
        for i in range(3):
            _record_frame(shards, CLIENT_SHARD_ID, 0, i + 1, 1.0 + i, fast, skews)
            _record_frame(shards, 0, CLIENT_SHARD_ID, i + 1, 1.2 + i, slow, skews)
        offsets = estimate_offsets(shards)
        bias = offsets.offset(0) - skews[0]
        assert abs(bias) == pytest.approx((slow - fast) / 2, abs=1e-9)

    def test_offsets_propagate_transitively_through_relays(self):
        """A node that never talks to the reference still anchors through
        any bidirectional path (client ↔ r0 ↔ r1)."""
        skews = {CLIENT_SHARD_ID: 0.0, 0: 0.300, 1: -0.200}
        shards = {n: _shard(n) for n in skews}
        for i in range(2):
            _record_frame(shards, CLIENT_SHARD_ID, 0, i + 1, 1.0 + i, 0.020, skews)
            _record_frame(shards, 0, CLIENT_SHARD_ID, i + 1, 1.1 + i, 0.020, skews)
            _record_frame(shards, 0, 1, i + 1, 2.0 + i, 0.030, skews)
            _record_frame(shards, 1, 0, i + 1, 2.1 + i, 0.030, skews)
        offsets = estimate_offsets(shards)
        assert offsets.unanchored == []
        assert offsets.offset(1) == pytest.approx(-0.200, abs=1e-9)


# ------------------------------------------------------------------- merge
def _synthetic_cluster_shards():
    """Client + two replicas with skewed clocks, one txn observed by all."""
    skews = {CLIENT_SHARD_ID: 0.0, 0: 0.150, 1: -0.100}
    shards = {n: _shard(n) for n in skews}
    for i in range(3):
        for a in skews:
            for b in skews:
                if a != b:
                    _record_frame(shards, a, b, i + 1, 3.0 + i, 0.025, skews)
    client, r0, r1 = shards[CLIENT_SHARD_ID], shards[0], shards[1]
    client.spans[7] = TxnSpan(txn_id=7, events={
        "submitted": 5.000, "responded": 5.400, "committed": 5.500})
    r0.spans[7] = TxnSpan(txn_id=7, events={
        "mempool": 5.050 - 0.150, "proposed": 5.100 - 0.150,
        "voted": 5.150 - 0.150, "certified": 5.250 - 0.150,
        "spec-executed": 5.300 - 0.150})
    r1.spans[7] = TxnSpan(txn_id=7, events={"mempool": 5.060 + 0.100})
    return shards


class TestMerge:
    def test_merge_is_deterministic_and_round_trips_jsonl(self, tmp_path):
        records = []
        for _ in range(2):
            merged, _ = merge_shards(_synthetic_cluster_shards())
            records.append([json.dumps(r, sort_keys=True)
                            for r in merged.to_records()])
        assert records[0] == records[1]

        merged, _ = merge_shards(_synthetic_cluster_shards())
        path = write_jsonl(merged, str(tmp_path / "merged.jsonl"))
        loaded = read_jsonl(path)
        assert getattr(loaded, "per_replica_tracks", False) is True
        assert [json.dumps(r, sort_keys=True) for r in loaded.to_records()] \
            == records[0]

    def test_spans_fold_across_shards_with_sources_and_skew_correction(self):
        merged, offsets = merge_shards(_synthetic_cluster_shards())
        assert offsets.offset(0) == pytest.approx(0.150, abs=1e-9)
        span = merged.spans[7]
        # r0's replica-side events land between the client's bracketing
        # events once rebased onto the reference timeline.
        assert span.events["mempool"] == pytest.approx(5.050, abs=1e-9)
        assert span.events["certified"] == pytest.approx(5.250, abs=1e-9)
        assert span.sources["submitted"] == CLIENT_SHARD_ID
        assert span.sources["certified"] == 0
        # First observation wins: r1 saw the txn in its mempool later.
        assert span.sources["mempool"] == 0

    def test_merged_timeline_is_not_capped_by_a_live_ring(self):
        """Four shards each at the live event cap merge into one timeline
        that keeps all of their events, on each replica's own track."""
        shards = {node: _shard(node) for node in range(4)}
        for node, trace in shards.items():
            for index in range(trace.max_events):
                trace.clock.now = index * 1e-3
                trace.view_entered(index + 1)
        merged, _ = merge_shards(shards)
        cap = shards[0].max_events
        assert len(merged.events) == 4 * cap
        assert {event.replica for event in merged.events} == {0, 1, 2, 3}
        assert merged.per_replica_tracks

    def test_duplicate_shard_node_ids_are_rejected(self, tmp_path):
        trace = _shard(2)
        a, b = str(tmp_path / "trace-r2.jsonl"), str(tmp_path / "x.jsonl")
        write_jsonl(trace, a)
        write_jsonl(trace, b)
        with pytest.raises(ConfigurationError, match="node 2"):
            merge_trace_files([a, b])


# ---------------------------------------------------------- critical path
class TestCriticalPath:
    def _merged(self, link_floor: float):
        merged, _ = merge_shards(_synthetic_cluster_shards())
        if link_floor != 0.025:
            # Rewrite the wire delays: recv at sent_at + floor.
            for event in merged.wire:
                if event.kind == "recv":
                    event.t = event.sent_at + link_floor
        return merged

    def test_link_delay_matrix_reads_corrected_minima(self):
        merged = self._merged(0.025)
        matrix = link_delay_matrix(merged)
        assert matrix[(CLIENT_SHARD_ID, 0)] == pytest.approx(0.025, abs=1e-9)
        assert matrix[(0, 1)] == pytest.approx(0.025, abs=1e-9)

    def test_hops_decompose_into_network_queue_compute(self):
        merged = self._merged(0.025)
        report = critical_path_report(merged)
        assert report.spans_used == 1
        hops = {hop.name: hop for hop in report.hops}
        admission = hops["submitted→mempool"]  # client → r0, 50 ms total
        assert admission.kind == "network"
        assert admission.link == (CLIENT_SHARD_ID, 0)
        assert admission.network_s == pytest.approx(0.025, abs=1e-9)
        assert admission.queue_s == pytest.approx(0.025, abs=1e-9)
        assert hops["mempool→proposed"].queue_s == pytest.approx(0.050, abs=1e-9)
        assert hops["certified→spec-executed"].compute_s == pytest.approx(0.050, abs=1e-9)
        assert report.speculation_lead_p50_s == pytest.approx(0.100, abs=1e-9)

    def test_wan_links_are_named_and_dominate_the_report(self):
        merged = self._merged(0.120)
        report = critical_path_report(
            merged, regions={CLIENT_SHARD_ID: "virginia", 0: "hongkong"})
        assert report.wan_links  # 120 ms > 10 ms threshold
        assert report.wan_network_share == pytest.approx(1.0)
        text = format_critical_path_report(report)
        assert "WAN" in text
        assert "hongkong" in text

    def test_local_links_report_no_wan(self):
        report = critical_path_report(self._merged(0.0001))
        assert report.wan_links == []
        assert report.wan_threshold_s == WAN_THRESHOLD_S
        assert "no WAN links" in format_critical_path_report(report)


# ----------------------------------------------- real multi-process runs
class TestMultiprocessTracing:
    def test_geo_run_merges_into_wan_critical_path(self, tmp_path, monkeypatch):
        """The acceptance bar: a real 4-process geo deployment yields shards
        that merge into a skew-corrected timeline whose critical path shows
        virginia↔hongkong as the dominant network cost, with hotstuff-1's
        speculation lead still positive after the merge."""
        spec = ExperimentSpec(
            protocol="hotstuff-1", mode="live", n=4, batch_size=8,
            duration=8.0, warmup=1.0, seed=3, view_timeout=1.5,
            regions=list(GEO_ORDER), distributed_mempool=True, trace=True,
            storage_dir=str(tmp_path / "wal"), scrape_port=_free_port_range(4),
        )
        # A traced run keeps its scratch directory; keep that under tmp_path.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        # A replica process serves the same /metrics as an in-process replica,
        # the tracer exposition included; scraped mid-run from a side thread.
        scraped = {}

        def scrape_replica_2():
            url = f"http://127.0.0.1:{spec.scrape_port + 2}/metrics"
            deadline = time.monotonic() + 30.0
            while "body" not in scraped and time.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(url, timeout=2.0) as response:
                        scraped["body"] = response.read().decode()
                except OSError:
                    time.sleep(0.1)

        scraper = threading.Thread(target=scrape_replica_2)
        scraper.start()
        try:
            result = run_multiprocess_experiment(spec, rate=40.0, max_outstanding=200)
        finally:
            scraper.join(timeout=40.0)
        assert not scraper.is_alive()
        assert "repro_replica_up" in scraped["body"]
        assert "repro_trace_spans_sampled" in scraped["body"]
        info = result.multiproc
        assert info["prefix_consistent"] is True
        assert info["replica_deaths"] == {}
        # Per-frame sequence stamps and streamed shards must not starve the
        # cluster: it commits at least half of what the open loop offered in
        # the measured window (three runs on a 2-core x86_64 host committed
        # 259-263 of 280).
        offered = 40.0 * (spec.duration - spec.warmup)
        assert result.summary.committed_txns >= 0.5 * offered, result.summary.committed_txns

        # Tentpole part 1: one shard per process, collected by the
        # coordinator; plus the storage_dir satellite — each child got a
        # private WAL subdir.
        shards = info["trace_shards"]
        assert set(shards) == {"client", "r0", "r1", "r2", "r3"}
        for path in shards.values():
            assert os.path.isfile(path)
            assert os.path.dirname(path) == info["workdir"]  # a traced run keeps its scratch dir
        for rid in range(4):
            assert os.path.isdir(tmp_path / "wal" / f"r{rid}")

        merged, offsets = merge_trace_files(sorted(shards.values()))
        assert offsets.unanchored == []
        # No assertion on the offsets' sign: coordinator and children each
        # reset their clock origin after their own readiness barrier, so which
        # side started "first" is a race.  The estimator itself is proven on
        # a known injected skew in TestSkewEstimation.

        # The shaped virginia↔hongkong link is measured, not assumed:
        # its skew-corrected one-way floor must be ≥ the table's 106 ms.
        va_hk = REGION_RTT_MS[frozenset(["virginia", "hongkong"])] / 2 / 1000.0
        report = critical_path_report(merged)
        assert report.link_delay_s[(0, 2)] >= va_hk * 0.95
        assert (0, 2) in report.wan_links and (2, 0) in report.wan_links
        assert report.wan_network_share > 0.5
        dominant = report.dominant_link
        assert dominant is not None
        assert report.link_delay_s[dominant] >= WAN_THRESHOLD_S
        assert "WAN" in format_critical_path_report(report)

        # Replica-side lifecycle events joined the client's spans.
        multi_source = [s for s in merged.spans.values()
                        if {v for v in s.sources.values()} - {CLIENT_SHARD_ID}]
        assert len(multi_source) > 20

        # The paper's one-phase headline survives the merge.
        breakdown = merged.phase_breakdown()
        assert breakdown.spans_used > 50
        assert breakdown.speculation_lead_s > 0
        assert breakdown.response_s >= 0.212


# ------------------------------------------------- watch --deployment
class TestWatchDeploymentEndpoints:
    def _config(self, notes=None):
        return DeploymentConfig(
            replicas=[ReplicaEndpoint(i, f"10.0.0.{i + 1}", 7000 + i)
                      for i in range(3)],
            client_host="127.0.0.1",
            client_port=7100,
            notes=dict(notes or {}),
        )

    def test_endpoints_derive_from_the_scrape_port_note(self):
        from repro.cli import scrape_endpoints_from_deployment

        endpoints = scrape_endpoints_from_deployment(self._config({"scrape_port": 9470}))
        assert endpoints == ["10.0.0.1:9470", "10.0.0.2:9471", "10.0.0.3:9472"]

    def test_base_port_override_beats_the_note(self):
        from repro.cli import scrape_endpoints_from_deployment

        endpoints = scrape_endpoints_from_deployment(
            self._config({"scrape_port": 9470}), base_port=8000)
        assert endpoints == ["10.0.0.1:8000", "10.0.0.2:8001", "10.0.0.3:8002"]

    def test_missing_note_asks_for_an_explicit_port(self):
        from repro.cli import scrape_endpoints_from_deployment

        with pytest.raises(ConfigurationError, match="scrape_port"):
            scrape_endpoints_from_deployment(self._config())
