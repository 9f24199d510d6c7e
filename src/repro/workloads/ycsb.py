"""YCSB workload generator.

Matches the paper's configuration: "key-value store write operations that
access a database of 600k records".  The write ratio defaults to 1.0 (pure
writes) and the key distribution is Zipfian, as in YCSB's default core
workloads.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.ledger.kvstore import KVStateMachine
from repro.ledger.transaction import Transaction
from repro.sim.rng import SeededRng
from repro.workloads.base import Workload, register_workload
from repro.workloads.zipf import ZipfGenerator

#: Record count used by the paper's YCSB database.
DEFAULT_RECORD_COUNT = 600_000


@register_workload
class YCSBWorkload(Workload):
    """Key-value workload with configurable write ratio and Zipfian skew."""

    name = "ycsb"

    def __init__(
        self,
        record_count: int = DEFAULT_RECORD_COUNT,
        write_ratio: float = 1.0,
        zipf_theta: float = 0.9,
        value_size: int = 64,
    ) -> None:
        if not 0.0 <= write_ratio <= 1.0:
            raise WorkloadError("write_ratio must be in [0, 1]")
        if record_count <= 0:
            raise WorkloadError("record_count must be positive")
        super().__init__()
        self.record_count = int(record_count)
        self.write_ratio = float(write_ratio)
        self.value_size = int(value_size)
        self._zipf = ZipfGenerator(self.record_count, zipf_theta)
        self._write_counter = 0

    def make_state_machine(self) -> KVStateMachine:
        """Return a KV store sized for this workload (lazy preload)."""
        return KVStateMachine(preload_records=self.record_count, eager_preload=False)

    def next_transaction(self, client_id: int, rng: SeededRng, now: float = 0.0) -> Transaction:
        """Generate one YCSB operation (write with probability ``write_ratio``)."""
        key_index = self._zipf.next(rng)
        key = KVStateMachine.key_name(key_index)
        if rng.random() < self.write_ratio:
            self._write_counter += 1
            value = f"v{self._write_counter}".ljust(self.value_size, "x")
            payload = {"key": key, "value": value}
            operation = "ycsb_write"
        else:
            payload = {"key": key}
            operation = "ycsb_read"
        return Transaction.create(
            client_id=client_id,
            operation=operation,
            payload=payload,
            submitted_at=now,
            txn_id=next(self._txn_ids),
        )
