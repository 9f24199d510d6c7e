"""Lifecycle tracing for both consensus substrates.

:class:`TraceRecorder` is fed by the client pool, the mempool and the
replicas through tiny guarded hooks (``if self.tracer is not None: ...``),
so a run without tracing pays exactly one attribute test per instrumentation
site and allocates nothing.  The recorder only ever *reads* the shared clock
(a discrete-event :class:`~repro.sim.scheduler.Simulator` or a live
:class:`~repro.live.runtime.WallClock` — both expose ``.now``), never
schedules anything, and draws randomness from its own seeded generator, so a
traced simulation produces byte-identical consensus results to an untraced
one.

Memory is bounded everywhere:

* per-transaction lifecycle **spans** are a head-capped sample of the first
  ``max_txns`` post-warmup submissions (exact event counters cover the rest);
* per-block/per-view **protocol events** live in a ring (`deque(maxlen=...)`);
* per-bucket latency distributions are true **reservoirs** of
  :data:`DEFAULT_RESERVOIR` samples;
* block-level first-wins dedup uses an LRU window of recent block hashes
  (blocks are processed temporally close together, so the window is exact in
  practice).

The canonical per-transaction lifecycle is :data:`EVENT_KINDS`::

    submitted → mempool → proposed → voted → certified → spec-executed
              → responded → committed

For HotStuff-1 the ``responded`` event (a matching ``n - f`` quorum of
*speculative* responses) lands before ``committed`` — the paper's one-phase
claim; for HotStuff / HotStuff-2 it lands after.  The signed
``responded → committed`` delta (the *speculation lead*) measures exactly
that.

Beyond the post-mortem surfaces, the recorder is the hub of the *live*
telemetry plane: a :class:`~repro.obs.stream.StreamingTraceSink` attached as
``recorder.sink`` receives completed spans, drained event rings and closed
timeline buckets incrementally (bounded memory for arbitrarily long runs),
an :class:`~repro.obs.detect.SloDetector` attached as ``recorder.detector``
observes every bucket the moment it closes, and point-in-time **instants**
(fault injections, detector alerts) are recorded via :meth:`TraceRecorder.instant`.
Bucket closure is driven by time moving past the bucket edge — either by the
next recorded event or by an explicit :meth:`TraceRecorder.advance` from the
live poll loop, so detectors fire in real time even during a total stall.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigurationError

#: Canonical order of per-transaction lifecycle events.
EVENT_KINDS = (
    "submitted",
    "mempool",
    "proposed",
    "voted",
    "certified",
    "spec-executed",
    "responded",
    "committed",
)

_KIND_BITS = {kind: 1 << index for index, kind in enumerate(EVENT_KINDS)}

#: Default cap on sampled transaction spans.
DEFAULT_MAX_TXNS = 2000
#: Default ring size for block/view protocol events.
DEFAULT_MAX_EVENTS = 4096
#: Per-bucket latency reservoir size.
DEFAULT_RESERVOIR = 512
#: LRU window of block hashes used for first-wins event dedup.
_MARK_WINDOW = 8192


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Percentile over *sorted_values* (same convention as the metrics layer)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, math.ceil(fraction * len(sorted_values)) - 1))
    return sorted_values[index]


def default_bucket_width(duration: float) -> float:
    """Auto-size the time-series bucket to the run length.

    Live runs land in the paper-style 250 ms–1 s range; sub-second simulated
    runs get proportionally finer buckets so a chaos arc still resolves into
    a curve instead of two points.
    """
    return min(1.0, max(0.02, duration / 8.0))


@dataclass
class TxnSpan:
    """First-wins event timestamps for one sampled transaction.

    ``sources`` maps an event kind to the node id whose recorder observed it
    — empty for single-process traces (one shared recorder), populated by
    the multi-process shard merge so critical-path analysis knows which
    process boundary each lifecycle step crossed.
    """

    txn_id: int
    events: Dict[str, float] = field(default_factory=dict)
    sources: Dict[str, int] = field(default_factory=dict)

    def signature(self) -> tuple:
        """Event kinds present, in canonical lifecycle order."""
        return tuple(kind for kind in EVENT_KINDS if kind in self.events)

    def delta(self, start: str, end: str) -> Optional[float]:
        """Signed seconds from *start* to *end*, if both were observed."""
        if start in self.events and end in self.events:
            return self.events[end] - self.events[start]
        return None


@dataclass
class ProtocolEvent:
    """One block- or view-level protocol event (ring-buffered)."""

    kind: str
    t: float
    view: int = 0
    slot: int = 0
    block_hash: str = ""
    txn_count: int = 0
    replica: int = -1

    def as_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "t": self.t,
            "view": self.view,
            "slot": self.slot,
            "block_hash": self.block_hash,
            "txn_count": self.txn_count,
            "replica": self.replica,
        }


@dataclass
class WireEvent:
    """One frame crossing the transport, seen from one side of the wire.

    The multi-process runtime records a ``send`` event in the sender's shard
    and a ``recv`` event in the receiver's shard for every delivered frame;
    the pair is matched by ``(src, seq)`` — the per-sender send sequence the
    v5 wire envelope carries.  A ``recv`` event is self-contained for clock
    skew estimation: ``t`` is stamped by the *receiver's* clock while
    ``sent_at`` came over the wire from the *sender's* clock, so
    ``t - sent_at = offset(dst) - offset(src) + link delay`` (see
    :mod:`repro.obs.merge`).
    """

    kind: str  # "send" | "recv"
    t: float  # local clock at this side of the wire
    src: int  # sending node id
    dst: int  # receiving node id
    seq: int  # per-sender send sequence (matches the two sides)
    sent_at: float  # sender-clock send time (== t for "send" events)
    msg: str = ""  # payload type name, labels critical-path hops

    def as_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "t": self.t,
            "src": self.src,
            "dst": self.dst,
            "seq": self.seq,
            "sent_at": self.sent_at,
            "msg": self.msg,
        }


@dataclass
class TraceInstant:
    """A point-in-time annotation (fault injection, detector alert, ...).

    Instants are not protocol events: they come from the planes *around*
    consensus — the chaos controller stamping ``fault`` markers and the SLO
    detector stamping ``alert``/``alert-cleared`` — so Perfetto timelines and
    ``repro watch`` can align them with the throughput dip they explain.
    """

    kind: str
    t: float
    label: str = ""
    replica: int = -1
    data: Dict = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "t": self.t,
            "label": self.label,
            "replica": self.replica,
            "data": dict(self.data),
        }


@dataclass
class PhaseStat:
    """Latency statistics of one lifecycle phase (signed seconds)."""

    name: str
    count: int
    mean_s: float
    p50_s: float
    p99_s: float

    def as_row(self) -> Dict:
        return {
            "phase": self.name,
            "txns": self.count,
            "mean_ms": round(self.mean_s * 1000.0, 3),
            "p50_ms": round(self.p50_s * 1000.0, 3),
            "p99_ms": round(self.p99_s * 1000.0, 3),
        }


@dataclass
class PhaseBreakdown:
    """Phase-level latency decomposition computed from sampled spans.

    ``phases`` holds the adjacent-pair decomposition of the canonical
    lifecycle; ``totals`` holds the end-to-end aggregates, including the
    signed *speculation lead* (``responded → committed``), which is positive
    exactly when clients learn their result before the commit phase finishes
    — the paper's one-phase speculation claim as a measured number.
    """

    phases: List[PhaseStat]
    totals: List[PhaseStat]
    spans_used: int

    def _total(self, name: str) -> Optional[PhaseStat]:
        for stat in self.totals:
            if stat.name == name:
                return stat
        return None

    @property
    def response_s(self) -> float:
        """Mean submitted→responded latency (the client-visible latency)."""
        stat = self._total("submitted→responded")
        return stat.mean_s if stat else 0.0

    @property
    def commit_s(self) -> float:
        """Mean submitted→committed latency."""
        stat = self._total("submitted→committed")
        return stat.mean_s if stat else 0.0

    @property
    def speculation_lead_s(self) -> float:
        """Mean signed responded→committed delta (> 0: response beat commit)."""
        stat = self._total("responded→committed (speculation lead)")
        return stat.mean_s if stat else 0.0

    @classmethod
    def from_spans(cls, spans: Iterable[TxnSpan]) -> "PhaseBreakdown":
        spans = list(spans)
        pair_deltas: Dict[str, List[float]] = {}
        for start, end in zip(EVENT_KINDS[:-1], EVENT_KINDS[1:]):
            pair_deltas[f"{start}→{end}"] = []
        total_specs = (
            ("submitted→responded", "submitted", "responded"),
            ("submitted→committed", "submitted", "committed"),
            ("responded→committed (speculation lead)", "responded", "committed"),
        )
        total_deltas: Dict[str, List[float]] = {name: [] for name, _, _ in total_specs}
        used = 0
        for span in spans:
            touched = False
            for start, end in zip(EVENT_KINDS[:-1], EVENT_KINDS[1:]):
                delta = span.delta(start, end)
                if delta is not None:
                    pair_deltas[f"{start}→{end}"].append(delta)
                    touched = True
            for name, start, end in total_specs:
                delta = span.delta(start, end)
                if delta is not None:
                    total_deltas[name].append(delta)
                    touched = True
            if touched:
                used += 1

        def stat(name: str, values: List[float]) -> PhaseStat:
            ordered = sorted(values)
            mean = sum(values) / len(values) if values else 0.0
            return PhaseStat(
                name=name,
                count=len(values),
                mean_s=mean,
                p50_s=percentile(ordered, 0.50),
                p99_s=percentile(ordered, 0.99),
            )

        phases = [stat(name, values) for name, values in pair_deltas.items() if values]
        totals = [stat(name, total_deltas[name]) for name, _, _ in total_specs]
        return cls(phases=phases, totals=totals, spans_used=used)


@dataclass
class TimelineBucket:
    """Exact per-window counters plus a latency reservoir."""

    index: int
    submitted: int = 0
    completed: int = 0
    latencies: List[float] = field(default_factory=list)
    offered: int = 0
    max_view: int = 0
    mempool_depth: int = -1
    committed_txns: int = 0
    responded_speculative: int = 0
    views_entered: int = 0


class TraceRecorder:
    """Bounded-memory lifecycle recorder shared by the sim and live substrates.

    Parameters
    ----------
    clock:
        The deployment's shared scheduler (``.now`` is the only thing read).
    warmup:
        Spans are only sampled for transactions submitted at or after this
        time, matching the metrics layer's measurement window.
    bucket:
        Time-series bucket width in (simulated or wall-clock) seconds.
    max_txns:
        Head cap on sampled spans; exact counters cover every transaction.
    """

    def __init__(
        self,
        clock,
        warmup: float = 0.0,
        bucket: float = 0.25,
        max_txns: int = DEFAULT_MAX_TXNS,
        max_events: int = DEFAULT_MAX_EVENTS,
        seed: int = 2025,
    ) -> None:
        if float(bucket) <= 0.0:
            raise ConfigurationError(f"trace bucket width must be > 0, got {bucket!r}")
        if int(max_txns) < 1:
            raise ConfigurationError(f"trace span cap must be >= 1, got {max_txns!r}")
        if int(max_events) < 1:
            raise ConfigurationError(f"trace event ring size must be >= 1, got {max_events!r}")
        self.clock = clock
        self.warmup = float(warmup)
        self.bucket_width = float(bucket)
        self.max_txns = int(max_txns)
        self.max_events = int(max_events)
        self.spans: "OrderedDict[int, TxnSpan]" = OrderedDict()
        self.events: deque = deque(maxlen=self.max_events)
        self.events_seen = 0
        self.instants: deque = deque(maxlen=self.max_events)
        self.instants_seen = 0
        # Wire events are per-frame, so the ring is wider than the protocol
        # rings; with a streaming sink attached it is drained every flush and
        # never wraps.
        self.wire: deque = deque(maxlen=self.max_events * 4)
        self.wire_seen = 0
        #: Which node's clock this recorder's timestamps are on (``None`` for
        #: single-process runs, where one recorder spans the whole cluster).
        self.node_id: Optional[int] = None
        #: Set on a multi-process shard merge: exports give each replica
        #: process its own track.
        self.per_replica_tracks = False
        #: Which lifecycle event opens a span.  The client-side default is
        #: ``"submitted"``; replica *shards* (no client pool in the process)
        #: switch to ``"mempool"`` so the merge has replica-side per-txn
        #: timestamps to fold in.
        self.span_origin = "submitted"
        self.buckets: Dict[int, TimelineBucket] = {}
        self.counts: Dict[str, int] = {}
        self.highest_view = 0
        #: Optional streaming sink (see :mod:`repro.obs.stream`).
        self.sink = None
        #: Optional online SLO detector (see :mod:`repro.obs.detect`).
        self.detector = None
        #: Private RNG (reservoir eviction only) — never the simulator's.
        self._rng = random.Random(seed)
        self._block_marks: "OrderedDict[str, int]" = OrderedDict()
        # Bucket-closure bookkeeping: buckets with index < _frontier are
        # closed (observed by the detector, flushed/evicted by the sink);
        # _cursor is the highest bucket index time has reached.
        self._frontier = 0
        self._cursor = 0
        self._finalized = False

    # ------------------------------------------------------------- plumbing
    def _count(self, kind: str, amount: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + amount

    def _bucket(self, t: float) -> TimelineBucket:
        index = int(t / self.bucket_width) if self.bucket_width > 0 else 0
        if index > self._cursor:
            self._close_buckets(index)
            self._cursor = index
        bucket = self.buckets.get(index)
        if bucket is None:
            bucket = self.buckets[index] = TimelineBucket(index=index)
        return bucket

    def _close_buckets(self, upto: int) -> None:
        """Close every bucket with index < *upto* (detector, then sink)."""
        if upto <= self._frontier:
            return
        detector, sink = self.detector, self.sink
        if detector is None and sink is None:
            self._frontier = upto
            return
        width = self.bucket_width
        for index in range(self._frontier, upto):
            bucket = self.buckets.get(index)
            if detector is not None:
                detector.observe(index, bucket, end_time=(index + 1) * width)
            if sink is not None and bucket is not None:
                sink.bucket_closed(bucket)
        self._frontier = upto
        if sink is not None:
            sink.flush()

    def advance(self, now: float) -> None:
        """Move the bucket cursor to *now*, closing any buckets time passed.

        The live poll loop calls this every tick so the detector sees empty
        buckets *during* a stall (when no event would otherwise close them)
        and the streaming sink keeps flushing in real time.
        """
        if self.bucket_width <= 0:
            return
        index = int(now / self.bucket_width)
        if index > self._cursor:
            self._close_buckets(index)
            self._cursor = index

    def finalize(self, now: Optional[float] = None) -> None:
        """Close all buckets (including the in-progress one) and the sink.

        Idempotent; called once at the end of a run.  Resident spans stay in
        memory so end-of-run reporting (phase breakdown, report columns)
        keeps working; with a sink attached they are also persisted.
        """
        if self._finalized:
            return
        self._finalized = True
        if now is not None:
            self.advance(now)
        self._close_buckets(self._cursor + 1)
        if self.detector is not None:
            self.detector.finalize()
        if self.sink is not None:
            self.sink.close()

    def _mark_block(self, block_hash: str, kind: str) -> bool:
        """First-wins dedup per ``(block, kind)`` over an LRU hash window."""
        bit = _KIND_BITS[kind]
        marks = self._block_marks
        current = marks.get(block_hash)
        if current is None:
            if len(marks) >= _MARK_WINDOW:
                marks.popitem(last=False)
            marks[block_hash] = bit
            return True
        if current & bit:
            return False
        marks[block_hash] = current | bit
        return True

    def _mark_span(self, txn_id: int, kind: str, t: float) -> None:
        span = self.spans.get(txn_id)
        if span is not None and kind not in span.events:
            span.events[kind] = t

    def _note_event(self, event: ProtocolEvent) -> None:
        self.events_seen += 1
        self.events.append(event)

    def _block_event(self, kind: str, block, replica: int = -1) -> bool:
        """Record a first-wins block-level event; returns ``True`` when new."""
        if block is None or not self._mark_block(block.block_hash, kind):
            return False
        t = self.clock.now
        self._count(kind, block.txn_count)
        self._note_event(
            ProtocolEvent(
                kind=kind,
                t=t,
                view=block.view,
                slot=block.slot,
                block_hash=block.block_hash,
                txn_count=block.txn_count,
                replica=replica,
            )
        )
        for txn in block.transactions:
            self._mark_span(txn.txn_id, kind, t)
        return True

    # ------------------------------------------------- instrumentation hooks
    def txn_submitted(self, txn_id: int) -> None:
        """Client pool: a logical client put a new transaction in flight."""
        t = self.clock.now
        self._count("submitted")
        self._bucket(t).submitted += 1
        if t < self.warmup:
            return
        if len(self.spans) < self.max_txns:
            # Head cap.  With a streaming sink attached the sink retires
            # completed spans, so admission keeps running for the whole run
            # instead of stopping at the first max_txns.
            self.spans[txn_id] = TxnSpan(txn_id=txn_id, events={"submitted": t})

    def txn_mempool(self, txn_id: int) -> None:
        """Mempool: the transaction was newly admitted to the shared pool."""
        t = self.clock.now
        self._count("mempool")
        if (
            self.span_origin == "mempool"
            and t >= self.warmup
            and txn_id not in self.spans
            and len(self.spans) < self.max_txns
        ):
            # Replica shard: there is no client pool in this process to open
            # spans at submission, so admission opens them instead.
            self.spans[txn_id] = TxnSpan(txn_id=txn_id, events={"mempool": t})
            return
        self._mark_span(txn_id, "mempool", t)

    def wire_send(self, src: int, dst: int, seq: int, msg: str = "") -> None:
        """Transport: a frame with send sequence *seq* left for *dst*."""
        t = self.clock.now
        self.wire_seen += 1
        self.wire.append(WireEvent("send", t, src, dst, int(seq), t, msg))

    def wire_recv(self, src: int, dst: int, seq: int, sent_at: float, msg: str = "") -> None:
        """Transport: the frame ``(src, seq)`` was delivered locally.

        ``sent_at`` is the sender-clock timestamp carried by the wire
        envelope — the raw material for cross-process skew estimation.
        """
        t = self.clock.now
        self.wire_seen += 1
        self.wire.append(WireEvent("recv", t, src, dst, int(seq), float(sent_at), msg))

    def block_proposed(self, block, mempool_depth: int, replica: int = -1) -> None:
        """Protocol driver: a leader assembled and is broadcasting *block*."""
        if self._block_event("proposed", block, replica=replica):
            bucket = self._bucket(self.clock.now)
            bucket.mempool_depth = int(mempool_depth)
            if block.view > bucket.max_view:
                bucket.max_view = block.view

    def block_voted(self, view: int, slot: int, block, replica: int = -1) -> None:
        """Replica: a vote for *block* at ``(view, slot)`` is about to be sent."""
        self._block_event("voted", block, replica=replica)

    def block_certified(self, cert, block, replica: int = -1) -> None:
        """Replica: the first certificate for *cert*'s block was recorded."""
        if block is not None:
            self._block_event("certified", block, replica=replica)
        elif self._mark_block(cert.block_hash, "certified"):
            # The certificate arrived before its block (a catching-up
            # replica): keep the event with what the certificate knows.
            self._note_event(
                ProtocolEvent(
                    kind="certified",
                    t=self.clock.now,
                    view=cert.view,
                    slot=cert.slot,
                    block_hash=cert.block_hash,
                    replica=replica,
                )
            )

    def block_speculated(self, block, replica: int = -1) -> None:
        """Replica: *block* was speculatively executed (early responses sent)."""
        self._block_event("spec-executed", block, replica=replica)

    def block_committed(self, block, replica: int = -1) -> None:
        """Replica: *block* was committed through the speculative ledger."""
        if self._block_event("committed", block, replica=replica):
            self._bucket(self.clock.now).committed_txns += block.txn_count

    def txn_responded(self, txn_id: int, submitted_at: float, speculative: bool) -> None:
        """Client pool: a matching quorum of responses completed the txn."""
        t = self.clock.now
        self._count("responded")
        bucket = self._bucket(t)
        bucket.completed += 1
        bucket.offered += 1
        if speculative:
            self._count("responded-speculative")
            bucket.responded_speculative += 1
        latency = t - submitted_at
        if len(bucket.latencies) < DEFAULT_RESERVOIR:
            bucket.latencies.append(latency)
        else:
            slot = self._rng.randrange(bucket.offered)
            if slot < DEFAULT_RESERVOIR:
                bucket.latencies[slot] = latency
        self._mark_span(txn_id, "responded", t)

    def view_entered(self, view: int, replica: int = -1) -> None:
        """Replica: the pacemaker entered *view* (first replica to do so wins)."""
        t = self.clock.now
        bucket = self._bucket(t)
        if view > bucket.max_view:
            bucket.max_view = view
        if view > self.highest_view:
            self.highest_view = view
            bucket.views_entered += 1
            self._count("view-entered")
            self._note_event(ProtocolEvent(kind="view", t=t, view=view, replica=replica))

    def instant(self, kind: str, label: str = "", t: Optional[float] = None,
                replica: int = -1, data: Optional[Dict] = None) -> TraceInstant:
        """Record a point-in-time annotation (fault marker, detector alert)."""
        if t is None:
            t = self.clock.now if self.clock is not None else 0.0
        inst = TraceInstant(kind=kind, t=float(t), label=label, replica=replica,
                            data=dict(data or {}))
        self.instants_seen += 1
        self.instants.append(inst)
        return inst

    # -------------------------------------------------------------- analysis
    def phase_breakdown(self) -> PhaseBreakdown:
        """Phase-level latency decomposition over the sampled spans."""
        return PhaseBreakdown.from_spans(self.spans.values())

    def timeline(self) -> List[Dict]:
        """Windowed time-series rows (gaps filled, so stalls show as zeros).

        Each row carries the bucket's exact completion count and throughput,
        reservoir-estimated p50/p99 latency, the inflight count (cumulative
        submitted − completed), the highest view entered so far and the last
        sampled mempool depth.
        """
        if not self.buckets:
            return []
        width = self.bucket_width
        first, last = min(self.buckets), max(self.buckets)
        rows: List[Dict] = []
        inflight = 0
        view = 0
        depth: Optional[int] = None
        empty = TimelineBucket(index=-1)
        for index in range(first, last + 1):
            bucket = self.buckets.get(index, empty)
            inflight += bucket.submitted - bucket.completed
            view = max(view, bucket.max_view)
            if bucket.mempool_depth >= 0:
                depth = bucket.mempool_depth
            ordered = sorted(bucket.latencies)
            rows.append(
                {
                    "t_s": round(index * width, 6),
                    "completed": bucket.completed,
                    "tps": round(bucket.completed / width, 1) if width > 0 else 0.0,
                    "p50_ms": round(percentile(ordered, 0.50) * 1000.0, 3),
                    "p99_ms": round(percentile(ordered, 0.99) * 1000.0, 3),
                    "inflight": inflight,
                    "view": view,
                    "committed": bucket.committed_txns,
                    "mempool": depth if depth is not None else "",
                }
            )
        return rows

    def span_signatures(self) -> Dict[tuple, int]:
        """Histogram of span signatures (event kinds present, canonical order)."""
        histogram: Dict[tuple, int] = {}
        for span in self.spans.values():
            signature = span.signature()
            histogram[signature] = histogram.get(signature, 0) + 1
        return histogram

    # --------------------------------------------------------- serialization
    def meta_record(self) -> Dict:
        """The ``meta`` header record (also the first record of a stream)."""
        record = {
            "type": "meta",
            "version": 2,
            "warmup": self.warmup,
            "bucket_s": self.bucket_width,
            "max_txns": self.max_txns,
            "events_seen": self.events_seen,
            "instants_seen": self.instants_seen,
            "wire_seen": self.wire_seen,
            "highest_view": self.highest_view,
        }
        if self.node_id is not None:
            record["node"] = self.node_id
        if self.per_replica_tracks:
            record["merged"] = True
        return record

    @staticmethod
    def span_record(span: TxnSpan) -> Dict:
        record = {"type": "span", "txn_id": span.txn_id, "events": dict(span.events)}
        if span.sources:
            record["sources"] = dict(span.sources)
        return record

    @staticmethod
    def bucket_record(bucket: TimelineBucket) -> Dict:
        return {
            "type": "bucket",
            "index": bucket.index,
            "submitted": bucket.submitted,
            "completed": bucket.completed,
            "latencies": list(bucket.latencies),
            "offered": bucket.offered,
            "max_view": bucket.max_view,
            "mempool_depth": bucket.mempool_depth,
            "committed_txns": bucket.committed_txns,
            "responded_speculative": bucket.responded_speculative,
            "views_entered": bucket.views_entered,
        }

    def to_records(self) -> List[Dict]:
        """Flatten the recorder into plain JSONL-able records."""
        records: List[Dict] = [
            self.meta_record(),
            {"type": "counters", "counts": dict(self.counts)},
        ]
        for span in self.spans.values():
            records.append(self.span_record(span))
        for event in self.events:
            records.append({"type": "event", **event.as_dict()})
        for inst in self.instants:
            records.append({"type": "instant", **inst.as_dict()})
        for wire in self.wire:
            records.append({"type": "wire", **wire.as_dict()})
        for index in sorted(self.buckets):
            records.append(self.bucket_record(self.buckets[index]))
        return records

    def apply_record(self, record: Dict) -> None:
        """Fold one dumped record back into this (read-only) recorder.

        Shared by :meth:`from_records` and the incremental ``--follow`` /
        ``repro watch`` readers, which tail a streaming JSONL and apply new
        records as they land.  Repeated ``counters``/``meta`` records simply
        overwrite (the stream rewrites them each flush — last wins); repeated
        ``bucket`` records for the same index overwrite too.
        """
        kind = record.get("type")
        if kind == "meta":
            self.warmup = float(record.get("warmup", 0.0))
            self.bucket_width = float(record.get("bucket_s", 0.25))
            self.max_txns = int(record.get("max_txns", DEFAULT_MAX_TXNS))
            self.events_seen = int(record.get("events_seen", 0))
            self.instants_seen = int(record.get("instants_seen", 0))
            self.wire_seen = int(record.get("wire_seen", 0))
            self.highest_view = int(record.get("highest_view", 0))
            if record.get("node") is not None:
                self.node_id = int(record["node"])
            if record.get("merged"):
                self.per_replica_tracks = True
        elif kind == "counters":
            self.counts.update(record.get("counts", {}))
        elif kind == "span":
            txn_id = int(record["txn_id"])
            self.spans[txn_id] = TxnSpan(
                txn_id=txn_id,
                events={str(k): float(v) for k, v in record.get("events", {}).items()},
                sources={str(k): int(v) for k, v in record.get("sources", {}).items()},
            )
        elif kind == "event":
            self.events.append(
                ProtocolEvent(
                    kind=str(record.get("kind", "")),
                    t=float(record.get("t", 0.0)),
                    view=int(record.get("view", 0)),
                    slot=int(record.get("slot", 0)),
                    block_hash=str(record.get("block_hash", "")),
                    txn_count=int(record.get("txn_count", 0)),
                    replica=int(record.get("replica", -1)),
                )
            )
        elif kind == "instant":
            self.instants.append(
                TraceInstant(
                    kind=str(record.get("kind", "")),
                    t=float(record.get("t", 0.0)),
                    label=str(record.get("label", "")),
                    replica=int(record.get("replica", -1)),
                    data=dict(record.get("data", {})),
                )
            )
        elif kind == "wire":
            self.wire.append(
                WireEvent(
                    kind=str(record.get("kind", "")),
                    t=float(record.get("t", 0.0)),
                    src=int(record.get("src", -1)),
                    dst=int(record.get("dst", -1)),
                    seq=int(record.get("seq", 0)),
                    sent_at=float(record.get("sent_at", 0.0)),
                    msg=str(record.get("msg", "")),
                )
            )
        elif kind == "bucket":
            index = int(record["index"])
            self.buckets[index] = TimelineBucket(
                index=index,
                submitted=int(record.get("submitted", 0)),
                completed=int(record.get("completed", 0)),
                latencies=[float(v) for v in record.get("latencies", [])],
                offered=int(record.get("offered", 0)),
                max_view=int(record.get("max_view", 0)),
                mempool_depth=int(record.get("mempool_depth", -1)),
                committed_txns=int(record.get("committed_txns", 0)),
                responded_speculative=int(record.get("responded_speculative", 0)),
                views_entered=int(record.get("views_entered", 0)),
            )

    @classmethod
    def offline(cls, **params) -> "TraceRecorder":
        """A clock-less, read-only recorder with the live-memory ring caps lifted.

        Offline recorders (loaded, windowed or merged) are analysis surfaces,
        so a long streamed shard loads losslessly: the bounds protect
        recording processes, not post-mortem readers.
        """
        recorder = cls(clock=None, **params)
        recorder.events = deque()
        recorder.instants = deque()
        recorder.wire = deque()
        return recorder

    @classmethod
    def from_records(cls, records: Iterable[Dict]) -> "TraceRecorder":
        """Rebuild a (clock-less, read-only) recorder from dumped records."""
        recorder = cls.offline()
        for record in records:
            recorder.apply_record(record)
        return recorder

    def filtered(self, since: Optional[float] = None, until: Optional[float] = None) -> "TraceRecorder":
        """A read-only copy restricted to the ``[since, until)`` time window.

        Spans are kept when their first observed event falls in the window;
        events and instants filter on their timestamp; buckets on their start
        time.  Exact counters are run-global and carry over unchanged (a
        windowed counter would silently misreport — the timeline carries the
        windowed counts).
        """
        lo = -math.inf if since is None else float(since)
        hi = math.inf if until is None else float(until)
        out = TraceRecorder.offline(warmup=self.warmup, bucket=self.bucket_width,
                                    max_txns=self.max_txns, max_events=self.max_events)
        out.counts = dict(self.counts)
        out.events_seen = self.events_seen
        out.instants_seen = self.instants_seen
        out.wire_seen = self.wire_seen
        out.highest_view = self.highest_view
        out.node_id = self.node_id
        out.per_replica_tracks = self.per_replica_tracks
        for txn_id, span in self.spans.items():
            if span.events and lo <= min(span.events.values()) < hi:
                out.spans[txn_id] = span
        for event in self.events:
            if lo <= event.t < hi:
                out.events.append(event)
        for inst in self.instants:
            if lo <= inst.t < hi:
                out.instants.append(inst)
        for wire in self.wire:
            if lo <= wire.t < hi:
                out.wire.append(wire)
        for index, bucket in self.buckets.items():
            if lo <= index * self.bucket_width < hi:
                out.buckets[index] = bucket
        return out
