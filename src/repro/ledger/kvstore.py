"""Key-value state machine used by the YCSB workload.

The paper's YCSB configuration is "key-value store write operations that
access a database of 600k records".  The machine supports reads, writes and
read-modify-writes so extended workload mixes also run.
"""

from __future__ import annotations

import zlib
from typing import Optional, Tuple

from repro.errors import ExecutionError
from repro.ledger.state_machine import RecordingStateMachine
from repro.ledger.transaction import Transaction, declare_operation

#: Table name used for all YCSB records.
KV_TABLE = "usertable"

# Payload schemas of the operations ``KVStateMachine._execute`` interprets.
declare_operation("ycsb_write", 1, key="str", value="str")
declare_operation("ycsb_read", 2, key="str")
declare_operation("ycsb_rmw", 3, key="str", value="str")
declare_operation("noop", 4)


class KVStateMachine(RecordingStateMachine):
    """A flat key-value store with undo support.

    Parameters
    ----------
    preload_records:
        Number of records to create eagerly at construction time.  The paper
        uses a 600k-record database; for unit tests a handful suffices and
        benchmarks preload lazily (reads of missing keys return a default) to
        keep setup cheap.
    eager_preload:
        When ``True`` the records are materialised immediately; when ``False``
        the store starts empty but reports ``preload_records`` as its logical
        size and treats missing keys as holding a default value.
    """

    #: Per-transaction execution cost for small KV writes (seconds of simulated CPU).
    execution_cost = 1.0e-6

    def __init__(self, preload_records: int = 0, eager_preload: bool = False) -> None:
        super().__init__()
        self.logical_records = int(preload_records)
        if eager_preload:
            table = self.table(KV_TABLE)
            for key in range(preload_records):
                table[self.key_name(key)] = self.default_value(key)

    # --------------------------------------------------------------- helpers
    @staticmethod
    def key_name(index: int) -> str:
        """Render the canonical YCSB key name for a record index."""
        return f"user{index}"

    @staticmethod
    def default_value(index: int) -> str:
        """Initial value for a preloaded record."""
        return f"value-{index}-0"

    def read(self, key: str) -> Optional[str]:
        """Read a record outside of a transaction (test helper)."""
        return self._read(KV_TABLE, key, None)

    @property
    def record_count(self) -> int:
        """Number of materialised records."""
        return len(self.table(KV_TABLE))

    # -------------------------------------------------------------- execute
    def _execute(self, txn: Transaction) -> Tuple[bool, object]:
        operation = txn.operation
        payload = txn.payload
        if operation == "ycsb_write":
            key = payload["key"]
            value = payload["value"]
            self._write(KV_TABLE, key, value)
            return True, {"written": key}
        if operation == "ycsb_read":
            key = payload["key"]
            value = self._read(KV_TABLE, key, self.default_value(0))
            return True, {"key": key, "value": value}
        if operation == "ycsb_rmw":
            key = payload["key"]
            value = self._read(KV_TABLE, key, self.default_value(0))
            # crc32, not hash(): str hashes are salted per process, and every
            # replica process must write the same value.
            new_value = f"{payload['value']}|prev={zlib.crc32(value.encode('utf-8')) & 0xffff}"
            self._write(KV_TABLE, key, new_value)
            return True, {"key": key, "value": new_value}
        if operation == "noop":
            return True, {}
        raise ExecutionError(f"KVStateMachine cannot execute operation {operation!r}")
