"""Unit tests for the KV and TPC-C state machines (block execution and undo)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.ledger.kvstore import KVStateMachine
from repro.ledger.state_machine import tables_digest
from repro.ledger.tpcc_state import TPCCStateMachine
from repro.ledger.transaction import Transaction


def write(key, value, txn_id=None):
    return Transaction.create(1, "ycsb_write", {"key": key, "value": value}, txn_id=txn_id)


class TestKVStateMachine:
    def test_write_then_read(self):
        machine = KVStateMachine()
        machine.apply(write("user1", "hello"))
        success, output = machine.apply(Transaction.create(1, "ycsb_read", {"key": "user1"}))
        assert success
        assert output["value"] == "hello"

    def test_rmw_updates_value(self):
        machine = KVStateMachine()
        machine.apply(write("user2", "base"))
        success, _ = machine.apply(Transaction.create(1, "ycsb_rmw", {"key": "user2", "value": "new"}))
        assert success
        assert machine.read("user2").startswith("new")

    def test_one_tables_digest_behind_state_and_payload_digests(self):
        assert tables_digest({"a": [("k", 1)], "b": []}) == tables_digest({"a": [("k", 1)]})
        assert tables_digest({"a": [("k", 1)]}) != tables_digest({"b": [("k", 1)]})
        machine = KVStateMachine()
        empty = machine.state_digest()
        assert empty == tables_digest({})
        machine.apply(write("user3", "v"))
        assert machine.state_digest() != empty
        assert KVStateMachine.payload_digest(machine.snapshot_state()) == machine.state_digest()

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

    def test_unknown_operation_is_a_failed_outcome(self):
        machine = KVStateMachine()
        machine.apply(write("user1", "kept"))
        digest = machine.state_digest()
        assert machine.apply(Transaction.create(1, "bogus_op")) == (False, {"error": "ExecutionError"})
        assert machine.state_digest() == digest

    def test_failed_transaction_does_not_stop_the_block(self):
        """A payload missing a field fails alone; its neighbours still execute."""
        machine = KVStateMachine()
        bad = Transaction.create(1, "ycsb_write", {"key": "user9"})
        successes, outputs, changes = machine.execute_block([write("a", "1"), bad, write("b", "2")])
        assert successes == [True, False, True]
        assert outputs[1] == {"error": "KeyError"}
        assert [key for _, key, _ in changes] == ["a", "b"]
        assert (machine.read("a"), machine.read("user9"), machine.read("b")) == ("1", None, "2")

    def test_failed_transaction_undoes_its_partial_writes(self):
        """Writes made before the exception are rolled back to the txn's mark."""

        class HalfWriting(KVStateMachine):
            def _execute(self, txn):
                if txn.operation == "noop":
                    self._write("usertable", "torn", "half")
                    raise RuntimeError("fails after a write")
                return super()._execute(txn)

        machine = HalfWriting()
        before = machine.state_digest()
        execution = machine.execute_block([Transaction.create(1, "noop")])
        assert execution.successes == [False] and execution.outputs == [{"error": "RuntimeError"}]
        assert execution.changes == []
        assert machine.state_digest() == before

    def test_undo_restores_previous_value(self):
        machine = KVStateMachine()
        machine.apply(write("user3", "first"))
        changes = machine.execute_block([write("user3", "second")]).changes
        assert machine.read("user3") == "second"
        machine.undo(changes)
        assert machine.read("user3") == "first"

    def test_undo_removes_newly_created_key(self):
        machine = KVStateMachine()
        machine.undo(machine.execute_block([write("brand-new", "x")]).changes)
        assert machine.read("brand-new") is None

    def test_one_undo_log_reverses_a_whole_block(self):
        machine = KVStateMachine()
        machine.apply(write("k", "base"))
        before = machine.state_digest()
        block = [write("k", "1"), write("fresh", "2"), write("k", "3")]
        changes = machine.execute_block(block).changes
        assert len(changes) == 3 and machine.read("k") == "3"
        machine.undo(changes)
        assert machine.state_digest() == before and machine.read("k") == "base"

    def test_state_digest_reflects_writes(self):
        a = KVStateMachine()
        b = KVStateMachine()
        assert a.state_digest() == b.state_digest()
        a.apply(write("user4", "x"))
        assert a.state_digest() != b.state_digest()
        b.apply(write("user4", "x"))
        assert a.state_digest() == b.state_digest()

    def test_outcome_matches_across_replicas(self):
        a = KVStateMachine()
        b = KVStateMachine()
        txn = write("user5", "same", txn_id=42)
        assert a.apply(txn) == b.apply(txn)

    def test_eager_preload_materialises_records(self):
        machine = KVStateMachine(preload_records=10, eager_preload=True)
        assert machine.record_count == 10
        assert machine.read(KVStateMachine.key_name(3)) == KVStateMachine.default_value(3)

    def test_execute_block_returns_per_txn_outcomes(self):
        machine = KVStateMachine()
        execution = machine.execute_block([write("a", "1"), write("b", "2")])
        assert execution.successes == [True, True]
        assert execution.outputs == [{"written": "a"}, {"written": "b"}]


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
        success, _ = machine.apply(self.new_order_txn())
        assert success
        assert machine.table("stock")[(1, 1)]["quantity"] < before
        assert len(machine.table("orders")) == 1

    def test_new_order_with_invalid_item_aborts(self):
        machine = self.make_machine()
        txn = Transaction.create(
            1, "tpcc_new_order",
            {"w_id": 1, "d_id": 1, "c_id": 1, "lines": [{"i_id": 9999, "quantity": 1}]},
        )
        success, _ = machine.apply(txn)
        assert not success

    def test_aborted_new_order_leaves_no_stock_writes(self):
        # The first line is valid and moves stock before the second aborts
        # the order; an aborted order must leave no effect at all.
        machine = self.make_machine()
        before_stock = dict(machine.table("stock")[(1, 1)])
        before_digest = machine.state_digest()
        txn = Transaction.create(
            1, "tpcc_new_order",
            {"w_id": 1, "d_id": 1, "c_id": 1,
             "lines": [{"i_id": 1, "quantity": 3}, {"i_id": 9999999, "quantity": 1}]},
        )
        execution = machine.execute_block([self.new_order_txn(), txn])
        assert execution.successes == [True, False]
        assert execution.outputs[1]["error"] == "invalid item"
        machine.undo(execution.changes)
        assert machine.state_digest() == before_digest
        success, output = machine.apply(txn)
        assert (success, output["error"]) == (False, "invalid item")
        assert machine.table("stock")[(1, 1)] == before_stock
        assert machine.state_digest() == before_digest

    def test_payment_updates_balances(self):
        machine = self.make_machine()
        success, _ = machine.apply(
            Transaction.create(1, "tpcc_payment", {"w_id": 1, "d_id": 2, "c_id": 3, "amount": 50.0})
        )
        assert success
        assert machine.table("customer")[(1, 2, 3)]["balance"] == pytest.approx(-60.0)
        assert machine.table("warehouse")[1]["ytd"] == pytest.approx(50.0)

    def test_order_status_reports_latest_order(self):
        machine = self.make_machine()
        machine.apply(self.new_order_txn())
        success, output = machine.apply(
            Transaction.create(1, "tpcc_order_status", {"w_id": 1, "d_id": 1, "c_id": 1})
        )
        assert success
        assert output["last_order"] == 1

    def test_delivery_marks_orders_delivered(self):
        machine = self.make_machine()
        machine.apply(self.new_order_txn())
        success, output = machine.apply(Transaction.create(1, "tpcc_delivery", {"w_id": 1}))
        assert success
        assert output["delivered"] == 1

    def test_stock_level_counts_low_stock(self):
        machine = self.make_machine()
        success, output = machine.apply(
            Transaction.create(1, "tpcc_stock_level", {"w_id": 1, "threshold": 200})
        )
        assert success
        assert output["low_stock"] == 50

    def test_undo_restores_new_order_effects(self):
        machine = self.make_machine()
        digest_before = machine.state_digest()
        changes = machine.execute_block([self.new_order_txn()]).changes
        assert machine.state_digest() != digest_before
        machine.undo(changes)
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
        successes, _, changes = machine.execute_block([Transaction.create(1, operation, payload)])
        assert successes == [True]
        assert bool(changes) == (machine.state_digest() != digest_before)
        machine.undo(changes)
        assert machine.state_digest() == digest_before

    def test_unknown_operation_is_a_failed_outcome(self):
        machine = self.make_machine()
        digest = machine.state_digest()
        outcome = machine.apply(Transaction.create(1, "tpcc_unknown", {}))
        assert outcome == (False, {"error": "ExecutionError"})
        assert machine.state_digest() == digest

    def test_execution_cost_is_higher_than_kv(self):
        assert TPCCStateMachine.execution_cost > KVStateMachine.execution_cost
