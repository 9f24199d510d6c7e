"""Streaming trace sink: incremental JSONL export with bounded memory.

PR 7's recorder held every span, event and bucket until the end of the run
— fine for short experiments, wrong for the ROADMAP's long-running clusters.
:class:`StreamingTraceSink` attaches to a :class:`~repro.obs.trace.TraceRecorder`
(as ``recorder.sink``) and moves data out of process memory the moment it is
no longer live:

* **spans** are written when they complete (both ``responded`` and
  ``committed`` observed) and linger past a short grace window, or at
  close — then dropped from the working set;
* **protocol events** and **instants** are drained out of their rings on
  every flush, so the ring never wraps and the stream is lossless;
* **timeline buckets** are written exactly once, when the recorder closes
  them (time moved past the bucket edge), then evicted — the one structure
  that otherwise grows without bound over a long run;
* the ``counters``/``meta`` records are *rewritten* on each flush — on
  replay, later records overwrite earlier ones, so a reader always sees the
  freshest totals that made it to disk.

The file is flushed after every batch, so ``repro trace`` (and ``repro
watch --follow``) can read it **mid-run**; a crash mid-write leaves at most
one torn trailing line, which :func:`repro.obs.export.read_jsonl` skips.

:class:`TraceTail` is the incremental reader half: it remembers its file
offset, consumes only complete lines, and tolerates the torn tail — shared
by ``repro trace --follow`` and ``repro watch``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.trace import TraceRecorder, TxnSpan


class StreamingTraceSink:
    """Flush a live recorder's data incrementally to a JSONL file.

    Attaching the sink (done in the constructor) switches the recorder to
    streaming mode: completed spans, drained rings, and closed buckets go to
    disk and out of memory.  ``retire_after`` is the grace window (seconds on
    the recorder's clock) a completed span lingers in memory so straggler
    events (e.g. a late ``committed`` on a 2-phase baseline) can still land
    on it; it defaults to two bucket widths.
    """

    def __init__(self, recorder: TraceRecorder, path: str,
                 retire_after: Optional[float] = None) -> None:
        self.recorder = recorder
        self.path = path
        self.retire_after = (
            2.0 * recorder.bucket_width if retire_after is None else float(retire_after)
        )
        self.records_written = 0
        self.spans_written = 0
        self.buckets_written = 0
        self.closed = False
        self._handle = open(path, "w", encoding="utf-8")
        self._write(recorder.meta_record() | {"streaming": True})
        self._write({"type": "counters", "counts": dict(recorder.counts)})
        self._handle.flush()
        recorder.sink = self

    # ------------------------------------------------------------ low level
    def _write(self, record: Dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self.records_written += 1

    # ------------------------------------------------- recorder entry points
    def write_span(self, span: TxnSpan) -> None:
        """Persist one span (recorder eviction path or retirement).

        Every caller pops the span from the working set first (or, at close,
        writes each resident exactly once), so no dedup state is needed —
        which keeps the sink's own memory O(1) over arbitrarily long runs.
        """
        if self.closed:
            return
        self._write(TraceRecorder.span_record(span))
        self.spans_written += 1

    def bucket_closed(self, bucket) -> None:
        """Persist a closed timeline bucket and evict it from memory."""
        if self.closed:
            return
        self._write(TraceRecorder.bucket_record(bucket))
        self.buckets_written += 1
        self.recorder.buckets.pop(bucket.index, None)

    def flush(self) -> None:
        """Drain rings, retire stale completed spans, refresh the totals."""
        if self.closed:
            return
        recorder = self.recorder
        while recorder.events:
            self._write({"type": "event", **recorder.events.popleft().as_dict()})
        while recorder.instants:
            self._write({"type": "instant", **recorder.instants.popleft().as_dict()})
        while recorder.wire:
            self._write({"type": "wire", **recorder.wire.popleft().as_dict()})
        self._retire_spans()
        self._write({"type": "counters", "counts": dict(recorder.counts)})
        self._write(recorder.meta_record() | {"streaming": True})
        self._handle.flush()

    def _retire_spans(self) -> bool:
        """Flush-and-evict completed spans whose last event went stale."""
        recorder = self.recorder
        if recorder.clock is None:
            return False
        now = recorder.clock.now
        horizon = now - self.retire_after
        # Incomplete spans are presumed abandoned well past the grace window;
        # retiring them keeps admission flowing instead of letting dropped
        # transactions pin the working set at max_txns forever.
        abandon_horizon = now - 20.0 * self.retire_after
        stale: List[int] = []
        for txn_id, span in recorder.spans.items():
            last = max(span.events.values()) if span.events else 0.0
            if "responded" in span.events and "committed" in span.events:
                if last <= horizon:
                    stale.append(txn_id)
            elif last <= abandon_horizon:
                stale.append(txn_id)
        for txn_id in stale:
            span = recorder.spans.pop(txn_id)
            self.write_span(span)
        return bool(stale)

    def close(self) -> None:
        """Final flush: resident spans, remaining rings, closing totals.

        Resident spans are persisted but *kept* in memory so end-of-run
        reporting (phase breakdown, report columns) still has the tail of
        the run to work with; the file holds everything.
        """
        if self.closed:
            return
        recorder = self.recorder
        for span in recorder.spans.values():
            self.write_span(span)
        while recorder.events:
            self._write({"type": "event", **recorder.events.popleft().as_dict()})
        while recorder.instants:
            self._write({"type": "instant", **recorder.instants.popleft().as_dict()})
        while recorder.wire:
            self._write({"type": "wire", **recorder.wire.popleft().as_dict()})
        for index in sorted(recorder.buckets):
            self._write(TraceRecorder.bucket_record(recorder.buckets[index]))
            self.buckets_written += 1
        self._write({"type": "counters", "counts": dict(recorder.counts)})
        self._write(recorder.meta_record() | {"streaming": True})
        self._handle.flush()
        self._handle.close()
        self.closed = True


class TraceTail:
    """Incremental, torn-tail-tolerant reader of a (possibly live) JSONL file.

    Each :meth:`poll` returns the records appended since the last poll,
    consuming only complete lines; a partial trailing line stays buffered
    until its newline arrives.  If the file shrank (rotation / rewrite), the
    reader restarts from the beginning.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._offset = 0

    def poll(self) -> List[Dict]:
        try:
            with open(self.path, "rb") as handle:
                handle.seek(0, 2)
                size = handle.tell()
                if size < self._offset:
                    self._offset = 0  # file was truncated/rotated
                handle.seek(self._offset)
                chunk = handle.read()
        except FileNotFoundError:
            return []
        if not chunk:
            return []
        # Consume only up to the last newline; the torn tail stays pending.
        cut = chunk.rfind(b"\n")
        if cut < 0:
            return []
        self._offset += cut + 1
        records: List[Dict] = []
        for line in chunk[: cut + 1].splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line.decode("utf-8")))
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue  # torn or corrupt line mid-stream
        return records
