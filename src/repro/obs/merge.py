"""Skew-corrected merge of per-process trace shards.

Every process of a multi-process deployment records its shard against its own
:class:`~repro.live.runtime.WallClock`, whose origin is reset at a slightly
different wall time in every process — so the shards disagree about when
things happened by up to the process startup spread (plus real clock drift on
multi-host deployments).  Naively concatenating them would produce lifecycle
spans whose ``mempool`` precedes ``submitted`` or whose commit appears before
the propose that caused it.

The correction comes from the causal message edges the transport records
(see :class:`~repro.obs.trace.WireEvent`): every delivered frame yields a
``recv`` event whose ``sent_at`` was stamped by the *sender's* clock and
whose ``t`` by the *receiver's*, so

.. math::  t_j - sent\\_at_i = D_{ij} + (off_i - off_j)

where ``off_n`` maps node *n*'s local clock onto the reference timeline
(``true ≈ local + off``) and ``D`` is the true network delay.  Taking the
*minimum* observed delta per directed link filters out queueing (the fastest
frame experienced essentially the propagation floor), and the classic
NTP-style midpoint over the two directions of a link cancels the symmetric
part of the delay:

.. math::  off_i - off_j = (\\min d_{ij} - \\min d_{ji}) / 2

Offsets are propagated breadth-first from the *reference* node (the
coordinator's client shard, node ``-1`` — its clock also stamped the run's
client-visible latency figures, so it is the natural timeline).  Asymmetric
link delay biases an estimate by half the asymmetry — the estimator's
classic irreducible error, asserted as such in the tests.

:func:`merge_shards` then rebases every shard onto the reference timeline
and folds them into one read-only :class:`TraceRecorder` that all the
existing export surfaces accept: per-transaction spans gain the replica-side
lifecycle events (with ``sources`` naming the process that observed each
step), protocol events keep their per-replica attribution (one Perfetto
track per process), and wire events become skew-corrected network edges for
:mod:`repro.obs.critical`.
"""

from __future__ import annotations

import os
import re
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.export import read_jsonl
from repro.obs.trace import TraceRecorder, TxnSpan

#: Node id of the coordinator's client shard (mirrors
#: :data:`repro.live.config.CLIENT_NODE_ID`).
CLIENT_SHARD_ID = -1

_SHARD_NAME_RE = re.compile(r"trace-r(\d+)\.jsonl$")


@dataclass
class ClockOffsets:
    """Per-node clock offsets onto the reference timeline.

    ``offsets[n]`` is the number of seconds to *add* to node *n*'s local
    timestamps; the reference node's offset is exactly ``0.0``.  Nodes with
    no bidirectional matched-pair path to the reference keep offset ``0.0``
    and are listed in ``unanchored``.
    """

    reference: int
    offsets: Dict[int, float] = field(default_factory=dict)
    #: Matched recv events per unordered node pair ``(a, b)`` with ``a < b``.
    matched_pairs: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: Skew-corrected minimum one-way delay per directed link ``(src, dst)``.
    link_delay_s: Dict[Tuple[int, int], float] = field(default_factory=dict)
    unanchored: List[int] = field(default_factory=list)

    def offset(self, node: int) -> float:
        return self.offsets.get(node, 0.0)


def shard_node_id(path: str, trace: Optional[TraceRecorder] = None) -> int:
    """The node id a shard belongs to.

    Prefers the ``node`` field the recording process stamped into the meta
    record; falls back to the ``trace-r<id>.jsonl`` filename convention, and
    treats anything else (``trace-client.jsonl``) as the client shard.
    """
    if trace is not None and trace.node_id is not None:
        return trace.node_id
    match = _SHARD_NAME_RE.search(os.path.basename(path))
    if match:
        return int(match.group(1))
    return CLIENT_SHARD_ID


def load_shards(paths: Iterable[str]) -> Dict[int, TraceRecorder]:
    """Load shard files into ``{node id: recorder}`` (ids must be distinct)."""
    shards: Dict[int, TraceRecorder] = {}
    for path in paths:
        trace = read_jsonl(path)
        node = shard_node_id(path, trace)
        if node in shards:
            raise ConfigurationError(
                f"two shards claim node {node} (second: {path!r}); "
                "pass each process's shard exactly once"
            )
        shards[node] = trace
    if not shards:
        raise ConfigurationError("no trace shards to merge")
    return shards


def estimate_offsets(
    shards: Dict[int, TraceRecorder], reference: int = CLIENT_SHARD_ID
) -> ClockOffsets:
    """Estimate per-node clock offsets from matched send/recv wire pairs.

    Works off ``recv`` events alone — each one carries both clocks' view of
    the same frame.  With zero matched pairs every node keeps offset ``0.0``
    (and lands in ``unanchored``), so merging untraced or single-shard runs
    degrades to plain concatenation instead of failing.
    """
    if reference not in shards:
        reference = min(shards)
    # Directed minimum deltas:  raw[(i, j)] = min over frames i→j of
    # (receiver time − sender stamp) = D_ij + off_i − off_j.
    raw: Dict[Tuple[int, int], float] = {}
    pair_counts: Dict[Tuple[int, int], int] = {}
    for node, trace in shards.items():
        for event in trace.wire:
            if event.kind != "recv":
                continue
            key = (event.src, event.dst)
            delta = event.t - event.sent_at
            if key not in raw or delta < raw[key]:
                raw[key] = delta
            pair = (min(key), max(key))
            pair_counts[pair] = pair_counts.get(pair, 0) + 1

    # Midpoint estimates exist where both directions were observed.
    theta: Dict[Tuple[int, int], float] = {}  # (i, j) -> off_i - off_j
    for (i, j), d_ij in raw.items():
        d_ji = raw.get((j, i))
        if d_ji is None:
            continue
        theta[(i, j)] = (d_ij - d_ji) / 2.0

    offsets: Dict[int, float] = {node: 0.0 for node in shards}
    offsets[reference] = 0.0
    anchored = {reference}
    queue = deque([reference])
    while queue:
        i = queue.popleft()
        for (a, b), value in theta.items():
            # theta[(a, b)] = off_a - off_b, so anchoring one end of the
            # link from the other is a single subtraction/addition.
            if a == i and b in offsets and b not in anchored:
                offsets[b] = offsets[a] - value
                anchored.add(b)
                queue.append(b)
            elif b == i and a in offsets and a not in anchored:
                offsets[a] = offsets[b] + value
                anchored.add(a)
                queue.append(a)

    unanchored = sorted(set(shards) - anchored)
    link_delay: Dict[Tuple[int, int], float] = {}
    for (i, j), d_ij in raw.items():
        # Apply the solved offsets: corrected delta ≈ the true minimum
        # one-way delay of the link (exact where delays are symmetric).
        link_delay[(i, j)] = d_ij - (offsets.get(i, 0.0) - offsets.get(j, 0.0))
    return ClockOffsets(
        reference=reference,
        offsets=offsets,
        matched_pairs=pair_counts,
        link_delay_s=link_delay,
        unanchored=unanchored,
    )


def merge_shards(
    shards: Dict[int, TraceRecorder], reference: int = CLIENT_SHARD_ID
) -> Tuple[TraceRecorder, ClockOffsets]:
    """Rebase all shards onto the reference timeline and fold them into one.

    The merged recorder is read-only (clock-less) and deterministic: the same
    shard set always merges to an identical record stream.  Per-kind exact
    counters take the *maximum* across shards — every replica shard counted
    the same blocks from its own vantage point, so summing would multiply
    cluster-wide totals by ``n`` while the max approximates first-wins.
    """
    offsets = estimate_offsets(shards, reference)
    reference = offsets.reference
    base = shards[reference]

    merged = TraceRecorder.offline(
        warmup=base.warmup,
        bucket=base.bucket_width,
        max_txns=max(trace.max_txns for trace in shards.values()),
    )
    merged.per_replica_tracks = True

    for node in sorted(shards):
        shift = offsets.offset(node)
        trace = shards[node]
        for txn_id, span in trace.spans.items():
            target = merged.spans.get(txn_id)
            if target is None:
                target = merged.spans[txn_id] = TxnSpan(txn_id=txn_id)
            for kind, t in span.events.items():
                rebased = t + shift
                if kind not in target.events or rebased < target.events[kind]:
                    target.events[kind] = rebased
                    target.sources[kind] = node
        for event in trace.events:
            moved = replace(event, t=event.t + shift)
            if moved.replica < 0:
                moved.replica = node if node >= 0 else -1
            merged.events.append(moved)
        for inst in trace.instants:
            merged.instants.append(replace(inst, t=inst.t + shift))
        for wire in trace.wire:
            # ``t`` is on the shard owner's clock; ``sent_at`` always came
            # from the sender's clock, whichever shard recorded the event.
            merged.wire.append(
                replace(wire, t=wire.t + shift, sent_at=wire.sent_at + offsets.offset(wire.src))
            )
        for kind, count in trace.counts.items():
            if count > merged.counts.get(kind, 0):
                merged.counts[kind] = count
        if trace.highest_view > merged.highest_view:
            merged.highest_view = trace.highest_view

    # One timeline: the reference shard's buckets are already on the merged
    # clock (rebasing other shards' bucket edges by fractional offsets is
    # ill-defined, and the client shard carries the client-visible series).
    merged.buckets = dict(base.buckets)

    merged.spans = type(merged.spans)(sorted(merged.spans.items()))
    merged.events = deque(sorted(merged.events, key=_event_sort_key))
    merged.instants = deque(sorted(merged.instants, key=lambda i: (i.t, i.kind)))
    merged.wire = deque(
        sorted(merged.wire, key=lambda w: (w.t, w.src, w.dst, w.seq, w.kind))
    )
    merged.events_seen = len(merged.events)
    merged.instants_seen = len(merged.instants)
    merged.wire_seen = len(merged.wire)
    return merged, offsets


def _event_sort_key(event) -> Tuple:
    return (event.t, event.kind, event.replica, event.view, event.slot, event.block_hash)


def merge_trace_files(
    paths: Iterable[str], reference: int = CLIENT_SHARD_ID
) -> Tuple[TraceRecorder, ClockOffsets]:
    """Load, skew-correct and merge shard files (see :func:`merge_shards`)."""
    return merge_shards(load_shards(paths), reference)


def format_offsets(offsets: ClockOffsets) -> str:
    """Human-readable offset table for the CLI."""
    lines = [
        f"reference node: {offsets.reference} (offset +0.000 ms)",
        f"matched pairs: {sum(offsets.matched_pairs.values())} recv events "
        f"over {len(offsets.matched_pairs)} links",
    ]
    for node in sorted(offsets.offsets):
        if node == offsets.reference:
            continue
        note = "  [unanchored]" if node in offsets.unanchored else ""
        lines.append(
            f"node {node}: offset {offsets.offsets[node] * 1000.0:+.3f} ms{note}"
        )
    return "\n".join(lines)
