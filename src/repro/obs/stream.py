"""Streaming trace sink: incremental JSONL export with bounded memory.

:class:`StreamingTraceSink` attaches to a :class:`~repro.obs.trace.TraceRecorder`
(as ``recorder.sink``) and moves data out of process memory the moment it is
no longer live:

* **spans** are written when they complete (both ``responded`` and
  ``committed`` observed) and linger past a short grace window, or at
  close — then dropped from the working set;
* **protocol events**, **instants** and **wire events** are drained out of
  their rings on every flush, so the ring never wraps and the stream is
  lossless;
* **timeline buckets** are written exactly once, when the recorder closes
  them (time moved past the bucket edge), then evicted — the one structure
  that otherwise grows without bound over a long run;
* the ``counters``/``meta`` records are *rewritten* on each flush — on
  replay, later records overwrite earlier ones, so a reader always sees the
  freshest totals that made it to disk.

The file is flushed after every batch, so ``repro trace`` and ``repro
watch`` can read it **mid-run**; a crash mid-write leaves at most one torn
trailing line, which :func:`repro.obs.export.read_jsonl` skips.

:class:`TraceTail` is the incremental reader half: it remembers its file
offset, consumes only complete lines, and tolerates the torn tail — what
``repro watch`` tails a stream with.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Dict, Iterable, List, Optional

from repro.obs.trace import TimelineBucket, TraceRecorder, TxnSpan, record_of
from repro.storage.backend import parse_jsonl_lines


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
        self.closed = False
        self._handle = open(path, "w", encoding="utf-8")
        self._write(self._meta())
        self._write(recorder.counters_record())
        self._handle.flush()
        recorder.sink = self

    def _meta(self) -> Dict:
        return self.recorder.meta_record() | {"streaming": True}

    def _write(self, record: Dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")

    def _drain(self, objects: Iterable) -> None:
        """Write *objects*, then the fresh totals, and flush the file."""
        for obj in objects:
            self._write(record_of(obj))
        self._write(self.recorder.counters_record())
        self._write(self._meta())
        self._handle.flush()

    # ------------------------------------------------- recorder entry points
    def bucket_closed(self, bucket: TimelineBucket) -> None:
        """Persist a closed timeline bucket and evict it from memory."""
        if self.closed:
            return
        self._write(record_of(bucket))
        self.recorder.buckets.pop(bucket.index, None)

    def flush(self) -> None:
        """Drain rings, retire stale completed spans, refresh the totals."""
        if self.closed:
            return
        self._drain(chain(self.recorder.rings(drain=True), self._retire_spans()))

    def _retire_spans(self) -> List[TxnSpan]:
        """Evict (and return) the completed spans whose last event went stale."""
        recorder = self.recorder
        if recorder.clock is None:
            return []
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
        return [recorder.spans.pop(txn_id) for txn_id in stale]

    def close(self) -> None:
        """Final flush: resident spans, remaining rings and buckets, totals.

        Resident spans are persisted but *kept* in memory so end-of-run
        reporting (phase breakdown, report columns) still has the tail of
        the run to work with; the file holds everything.
        """
        if self.closed:
            return
        self._drain(self.recorder.resident(drain=True))
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
        return parse_jsonl_lines(chunk[: cut + 1].splitlines())
