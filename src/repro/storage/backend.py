"""Append-only log backends shared by the WAL and the durable blockstore.

A backend is a sequence of JSON-compatible records with exactly two
operations: *append* one record, and *replay* every record appended so far.
Durability is the backend's whole job; interpretation of the records belongs
to :mod:`repro.storage.wal` and :mod:`repro.storage.blockstore`.

Two implementations:

* :class:`MemoryLogBackend` — records kept in a Python list.  Used by the
  simulator, where "durable" means "survives the replica *object*": the
  chaos engine keeps the backend alive across a crash/restart and everything
  the dead replica did not append is lost, exactly as with a real disk.
* :class:`FileLogBackend` — one JSON document per line, appended to a real
  file (optionally fsync'd per record).  Replay tolerates a truncated final
  line, the torn-write artefact of a crash mid-append.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional


class LogBackend:
    """Interface for an append-only record log."""

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one JSON-compatible record."""
        raise NotImplementedError

    def replay(self) -> List[Dict[str, Any]]:
        """Return every record appended so far, in order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (no-op by default)."""

    def clear(self) -> None:
        """Discard every record (used by tests and compaction)."""
        raise NotImplementedError

    def compact(self, records: List[Dict[str, Any]]) -> None:
        """Atomically replace the whole log with *records*.

        Checkpointing rewrites a log to just the suffix a snapshot does not
        cover; the replacement must be all-or-nothing so a crash mid-compaction
        leaves either the old log or the new one, never a mix.
        """
        raise NotImplementedError

    def tear_tail(self) -> None:
        """Corrupt the last appended record as a crash mid-append would.

        After a tear, :meth:`replay` must not yield the final record (for the
        file backend the torn line is still physically present, truncated
        mid-document).  Used by the crash-point fuzzer.
        """
        raise NotImplementedError


class MemoryLogBackend(LogBackend):
    """Records kept in memory; the backend object is the durable medium."""

    def __init__(self) -> None:
        self._records: List[Dict[str, Any]] = []

    def append(self, record: Dict[str, Any]) -> None:
        self._records.append(record)

    def replay(self) -> List[Dict[str, Any]]:
        return list(self._records)

    def clear(self) -> None:
        self._records.clear()

    def compact(self, records: List[Dict[str, Any]]) -> None:
        # A single list swap is atomic with respect to "crash between
        # statements", matching the file backend's rename.
        self._records = list(records)

    def tear_tail(self) -> None:
        # In memory a torn record has no readable remnant: replay of a torn
        # tail yields nothing, so dropping the record is the exact equivalent.
        if self._records:
            self._records.pop()

    def __len__(self) -> int:
        return len(self._records)


def read_jsonl_log(path: str) -> List[Dict[str, Any]]:
    """Every intact record of the JSONL log at *path*, in order (read-only).

    Never opens the file for append, so inspection tools can use it on a
    directory they must not modify; a missing file is an empty log.
    """
    records: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    # A torn line from a crash mid-append: the partial
                    # record never counts, but records appended after the
                    # repair (appends terminate a torn tail with a fresh
                    # newline) are intact and must still replay.
                    continue
    except FileNotFoundError:
        pass
    return records


class FileLogBackend(LogBackend):
    """One JSON document per line, appended to *path*.

    ``fsync=True`` flushes and fsyncs after every append (write-ahead
    semantics at real-disk cost); the default flushes to the OS only, which
    is what the deployment harness uses for localhost experiments.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = str(path)
        self.fsync = bool(fsync)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        # A previous incarnation may have died mid-append, leaving a torn
        # final line without a newline; the next append must start a fresh
        # line or the two records would merge into one unreadable line.
        self._dirty_tail = self._tail_is_torn()

    def _tail_is_torn(self) -> bool:
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return False
        if size == 0:
            return False
        with open(self.path, "rb") as handle:
            handle.seek(size - 1)
            return handle.read(1) != b"\n"

    def append(self, record: Dict[str, Any]) -> None:
        prefix = "\n" if self._dirty_tail else ""
        self._dirty_tail = False
        self._handle.write(prefix + json.dumps(record, separators=(",", ":")) + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def replay(self) -> List[Dict[str, Any]]:
        return read_jsonl_log(self.path)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def clear(self) -> None:
        self._handle.close()
        self._handle = open(self.path, "w", encoding="utf-8")
        self._dirty_tail = False

    def compact(self, records: List[Dict[str, Any]]) -> None:
        # Write the replacement beside the log and rename over it: the rename
        # is atomic, so a crash mid-compaction leaves either the old log or
        # the new one, never a torn mix.
        temp_path = self.path + ".compact"
        with open(temp_path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        self._handle.close()
        os.replace(temp_path, self.path)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._dirty_tail = False

    def tear_tail(self) -> None:
        self._handle.flush()
        size = os.path.getsize(self.path)
        if size == 0:
            return
        with open(self.path, "rb+") as handle:
            handle.seek(max(0, size - 2))
            tail = handle.read()
            # Drop the final newline plus a byte of the document, leaving a
            # truncated JSON line exactly as a crash mid-write would.
            cut = 2 if tail.endswith(b"\n") else 1
            handle.truncate(max(0, size - cut))
        self._dirty_tail = True
