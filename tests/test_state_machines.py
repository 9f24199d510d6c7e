"""Unit tests for the KV and TPC-C state machines (execution and undo)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.crypto.hashing import hash_fields
from repro.errors import ExecutionError
from repro.ledger.kvstore import KVStateMachine
from repro.ledger.state_machine import ExecutionResult
from repro.ledger.tpcc_state import TPCCStateMachine
from repro.ledger.transaction import Transaction


def write(key, value, txn_id=None):
    return Transaction.create(1, "ycsb_write", {"key": key, "value": value}, txn_id=txn_id)


class TestKVStateMachine:
    def test_write_then_read(self):
        machine = KVStateMachine()
        machine.apply(write("user1", "hello"))
        result = machine.apply(Transaction.create(1, "ycsb_read", {"key": "user1"}))
        assert result.success
        assert result.output["value"] == "hello"

    def test_rmw_updates_value(self):
        machine = KVStateMachine()
        machine.apply(write("user2", "base"))
        result = machine.apply(Transaction.create(1, "ycsb_rmw", {"key": "user2", "value": "new"}))
        assert result.success
        assert machine.read("user2").startswith("new")

    def test_rmw_is_deterministic_across_processes(self):
        """`repro replica` children each have their own `str` hash salt: what a
        read-modify-write stores must not depend on it."""
        script = (
            "from repro.ledger.kvstore import KVStateMachine\n"
            "from repro.ledger.transaction import Transaction\n"
            "machine = KVStateMachine()\n"
            "for i, key in enumerate(['user1', 'user2', 'user1']):\n"
            "    machine.apply(Transaction.create(1, 'ycsb_rmw', {'key': key, 'value': f'v{i}'}, txn_id=i))\n"
            "print(machine.state_digest(), machine.read('user1'))\n"
        )
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(sys.path))
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1, outputs

    def test_unknown_operation_raises(self):
        machine = KVStateMachine()
        with pytest.raises(ExecutionError):
            machine.apply(Transaction.create(1, "bogus_op"))

    def test_undo_restores_previous_value(self):
        machine = KVStateMachine()
        machine.apply(write("user3", "first"))
        _, record = machine.apply_with_undo(write("user3", "second"))
        assert machine.read("user3") == "second"
        machine.undo(record)
        assert machine.read("user3") == "first"

    def test_undo_removes_newly_created_key(self):
        machine = KVStateMachine()
        _, record = machine.apply_with_undo(write("brand-new", "x"))
        machine.undo(record)
        assert machine.read("brand-new") is None

    def test_state_digest_reflects_writes(self):
        a = KVStateMachine()
        b = KVStateMachine()
        assert a.state_digest() == b.state_digest()
        a.apply(write("user4", "x"))
        assert a.state_digest() != b.state_digest()
        b.apply(write("user4", "x"))
        assert a.state_digest() == b.state_digest()

    def test_result_digest_matches_across_replicas(self):
        a = KVStateMachine()
        b = KVStateMachine()
        txn = write("user5", "same", txn_id=42)
        assert a.apply(txn).result_digest == b.apply(txn).result_digest

    @pytest.mark.parametrize(
        "txn_id, success, output, digest",
        [
            (42, True, {"written": "user5"},
             "6190563c3b3c8e98f426f405c515bda76f320340c196596fb2867bddfaeaa350"),
            (7, False, {"error": "invalid item", "order_id": 3},
             "82ec9fc4fc91d2d6f5f30347af59b3e6ce88b35c372f2c8a1d9fda0489114002"),
            (123456, True, {"order_id": 17, "total": 104.35},
             "f4e32d3ac808d203b33a4f7ef5d73ea0448ca2f02c60f4d179c32aa5f0d86fac"),
        ],
    )
    def test_result_digest_rendering_is_pinned(self, txn_id, success, output, digest):
        # Clients match responses across replicas (and across versions of
        # this code) by this digest: hash_fields("result", id, success, output).
        txn = Transaction.create(1, "noop", {}, txn_id=txn_id)
        result = ExecutionResult.of(txn, success, output)
        assert result.result_digest == digest == hash_fields("result", txn_id, success, output)

    def test_eager_preload_materialises_records(self):
        machine = KVStateMachine(preload_records=10, eager_preload=True)
        assert machine.record_count == 10
        assert machine.read(KVStateMachine.key_name(3)) == KVStateMachine.default_value(3)

    def test_apply_batch_returns_per_txn_results(self):
        machine = KVStateMachine()
        results = machine.apply_batch([write("a", "1"), write("b", "2")])
        assert len(results) == 2
        assert all(result.success for result in results)


class TestTPCCStateMachine:
    def make_machine(self):
        return TPCCStateMachine(warehouses=1, items=50)

    def new_order_txn(self, lines=2):
        return Transaction.create(
            1,
            "tpcc_new_order",
            {
                "w_id": 1,
                "d_id": 1,
                "c_id": 1,
                "lines": [{"i_id": i + 1, "quantity": 2, "supply_w_id": 1} for i in range(lines)],
            },
        )

    def test_initial_load_sizes(self):
        machine = self.make_machine()
        assert machine.record_count > 300
        assert len(machine.table("warehouse")) == 1
        assert len(machine.table("district")) == 10

    def test_new_order_creates_order_and_decrements_stock(self):
        machine = self.make_machine()
        before = machine.table("stock")[(1, 1)]["quantity"]
        result = machine.apply(self.new_order_txn())
        assert result.success
        assert machine.table("stock")[(1, 1)]["quantity"] < before
        assert len(machine.table("orders")) == 1

    def test_new_order_with_invalid_item_aborts(self):
        machine = self.make_machine()
        txn = Transaction.create(
            1, "tpcc_new_order",
            {"w_id": 1, "d_id": 1, "c_id": 1, "lines": [{"i_id": 9999, "quantity": 1}]},
        )
        result = machine.apply(txn)
        assert not result.success

    def test_payment_updates_balances(self):
        machine = self.make_machine()
        result = machine.apply(
            Transaction.create(1, "tpcc_payment", {"w_id": 1, "d_id": 2, "c_id": 3, "amount": 50.0})
        )
        assert result.success
        assert machine.table("customer")[(1, 2, 3)]["balance"] == pytest.approx(-60.0)
        assert machine.table("warehouse")[1]["ytd"] == pytest.approx(50.0)

    def test_order_status_reports_latest_order(self):
        machine = self.make_machine()
        machine.apply(self.new_order_txn())
        result = machine.apply(
            Transaction.create(1, "tpcc_order_status", {"w_id": 1, "d_id": 1, "c_id": 1})
        )
        assert result.success
        assert result.output["last_order"] == 1

    def test_delivery_marks_orders_delivered(self):
        machine = self.make_machine()
        machine.apply(self.new_order_txn())
        result = machine.apply(Transaction.create(1, "tpcc_delivery", {"w_id": 1}))
        assert result.success
        assert result.output["delivered"] == 1

    def test_stock_level_counts_low_stock(self):
        machine = self.make_machine()
        result = machine.apply(
            Transaction.create(1, "tpcc_stock_level", {"w_id": 1, "threshold": 200})
        )
        assert result.success
        assert result.output["low_stock"] == 50

    def test_undo_restores_new_order_effects(self):
        machine = self.make_machine()
        digest_before = machine.state_digest()
        _, record = machine.apply_with_undo(self.new_order_txn())
        assert machine.state_digest() != digest_before
        machine.undo(record)
        assert machine.state_digest() == digest_before

    @pytest.mark.parametrize(
        "operation, payload",
        [
            ("tpcc_delivery", {"w_id": 1}),
            ("tpcc_payment", {"w_id": 1, "d_id": 1, "c_id": 1, "amount": 12.5}),
            ("tpcc_order_status", {"w_id": 1, "d_id": 1, "c_id": 1}),
            ("tpcc_stock_level", {"w_id": 1, "threshold": 99}),
        ],
    )
    def test_undo_restores_effects_of_every_profile(self, operation, payload):
        machine = self.make_machine()
        machine.apply(self.new_order_txn())  # something to deliver and report
        digest_before = machine.state_digest()
        result, record = machine.apply_with_undo(Transaction.create(1, operation, payload))
        assert result.success
        assert bool(record.changes) == (machine.state_digest() != digest_before)
        machine.undo(record)
        assert machine.state_digest() == digest_before

    def test_unknown_operation_raises(self):
        machine = self.make_machine()
        with pytest.raises(ExecutionError):
            machine.apply(Transaction.create(1, "tpcc_unknown", {}))

    def test_execution_cost_is_higher_than_kv(self):
        assert TPCCStateMachine.execution_cost > KVStateMachine.execution_cost
