"""Unit tests for the YCSB and TPC-C workload generators."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.ledger.kvstore import KVStateMachine
from repro.ledger.tpcc_state import TPCCStateMachine
from repro.sim.rng import SeededRng
from repro.workloads.base import available_workloads, make_workload
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.ycsb import YCSBWorkload
from repro.workloads import zipf
from repro.workloads.ycsb import DEFAULT_RECORD_COUNT
from repro.workloads.zipf import ZipfGenerator


class TestZipf:
    def test_values_within_range(self):
        gen = ZipfGenerator(1000, 0.9)
        rng = SeededRng(1)
        values = [gen.next(rng) for _ in range(500)]
        assert all(0 <= value < 1000 for value in values)

    def test_skew_prefers_small_indices(self):
        gen = ZipfGenerator(10_000, 0.99)
        rng = SeededRng(2)
        values = [gen.next(rng) for _ in range(2000)]
        head_fraction = sum(1 for value in values if value < 100) / len(values)
        assert head_fraction > 0.3

    def test_theta_zero_is_uniform(self):
        gen = ZipfGenerator(100, 0.0)
        rng = SeededRng(3)
        values = [gen.next(rng) for _ in range(2000)]
        head_fraction = sum(1 for value in values if value < 10) / len(values)
        assert 0.05 < head_fraction < 0.2

    def test_default_ycsb_zeta_is_the_computed_sum(self):
        """The seeded sum of the default table is bit-for-bit what the loop gives."""
        theta = YCSBWorkload()._zipf.theta
        seeded = zipf._ZETA_CACHE[(DEFAULT_RECORD_COUNT, theta)]
        assert seeded.hex() == zipf.zeta_sum(DEFAULT_RECORD_COUNT, theta).hex()

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            ZipfGenerator(0)
        with pytest.raises(WorkloadError):
            ZipfGenerator(10, 1.5)


class TestRegistry:
    def test_both_workloads_registered(self):
        assert set(available_workloads()) >= {"ycsb", "tpcc"}

    def test_make_workload_by_name(self):
        assert isinstance(make_workload("ycsb"), YCSBWorkload)
        assert isinstance(make_workload("tpcc", warehouses=1, items=10), TPCCWorkload)

    def test_unknown_workload_raises(self):
        with pytest.raises(WorkloadError):
            make_workload("graph500")

    @pytest.mark.parametrize("name", ["ycsb", "tpcc"])
    def test_each_instance_numbers_its_transactions_from_zero(self, name):
        """A run's transaction ids (and so its block hashes) do not depend on
        what else ran in the process."""
        first, second = make_workload(name), make_workload(name)
        rng = SeededRng(1)
        assert [first.next_transaction(1, rng).txn_id for _ in range(3)] == [0, 1, 2]
        assert second.next_transaction(1, rng).txn_id == 0


class TestYCSB:
    def test_default_record_count_matches_paper(self):
        assert YCSBWorkload().record_count == 600_000

    def test_pure_write_workload_generates_writes(self):
        workload = YCSBWorkload(record_count=1000, write_ratio=1.0)
        rng = SeededRng(4)
        txns = [workload.next_transaction(7, rng) for _ in range(50)]
        assert all(txn.operation == "ycsb_write" for txn in txns)
        assert all(txn.client_id == 7 for txn in txns)

    def test_mixed_workload_contains_reads(self):
        workload = YCSBWorkload(record_count=1000, write_ratio=0.2)
        rng = SeededRng(5)
        operations = {workload.next_transaction(1, rng).operation for _ in range(200)}
        assert operations == {"ycsb_write", "ycsb_read"}

    def test_transactions_execute_on_matching_state_machine(self):
        workload = YCSBWorkload(record_count=100)
        machine = workload.make_state_machine()
        assert isinstance(machine, KVStateMachine)
        rng = SeededRng(6)
        execution = machine.execute_block([workload.next_transaction(1, rng) for _ in range(20)])
        assert all(execution.successes)

    def test_invalid_write_ratio_rejected(self):
        with pytest.raises(WorkloadError):
            YCSBWorkload(write_ratio=2.0)


class TestTPCC:
    def test_mix_contains_all_profiles(self):
        workload = TPCCWorkload(warehouses=2, items=100)
        rng = SeededRng(7)
        operations = {workload.next_transaction(1, rng).operation for _ in range(500)}
        assert operations == {
            "tpcc_new_order",
            "tpcc_payment",
            "tpcc_order_status",
            "tpcc_delivery",
            "tpcc_stock_level",
        }

    def test_new_order_dominates_with_payment(self):
        workload = TPCCWorkload(warehouses=2, items=100)
        rng = SeededRng(8)
        txns = [workload.next_transaction(1, rng) for _ in range(1000)]
        new_orders = sum(1 for txn in txns if txn.operation == "tpcc_new_order")
        payments = sum(1 for txn in txns if txn.operation == "tpcc_payment")
        assert 0.35 < new_orders / len(txns) < 0.55
        assert 0.33 < payments / len(txns) < 0.53

    def test_transactions_execute_on_matching_state_machine(self):
        workload = TPCCWorkload(warehouses=1, items=50)
        machine = workload.make_state_machine()
        assert isinstance(machine, TPCCStateMachine)
        rng = SeededRng(9)
        execution = machine.execute_block([workload.next_transaction(1, rng) for _ in range(50)])
        # Only TPC-C's own aborts fail: no transaction raised.
        failures = {output["error"] for success, output in zip(*execution[:2]) if not success}
        assert failures <= {"invalid item"}

    def test_invalid_warehouse_count_rejected(self):
        with pytest.raises(WorkloadError):
            TPCCWorkload(warehouses=0)
