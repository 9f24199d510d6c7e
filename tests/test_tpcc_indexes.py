"""TPC-C secondary indexes: equivalence with a scan oracle, and no scans.

``TPCCStateMachine`` answers OrderStatus, Delivery and StockLevel from index
tables (``customer_last_order``, ``delivery_cursor``, ``stock_qty``).  The
functions below are the reference: they compute the same answers by scanning
the *base* tables (``orders``, ``new_orders``, ``stock``, ``customer``), which
is what the state machine itself did before it had indexes.  Every path that
can leave an index out of step with its base table — undo, rollback of a
speculated block, a committed-only checkpoint taken under a speculated
suffix, snapshot/restore — is driven and then checked against them.
"""

from __future__ import annotations

import pytest

from repro.ledger.block import Block
from repro.ledger.blockstore import BlockStore
from repro.ledger.speculative import SpeculativeLedger
from repro.ledger.tpcc_state import DISTRICTS_PER_WAREHOUSE, TPCCStateMachine
from repro.ledger.transaction import Transaction
from repro.sim.rng import SeededRng
from repro.workloads.tpcc import TPCCWorkload


# ------------------------------------------------------------ scan oracles
def scan_order_status(machine, payload):
    """OrderStatus by walking every order (the pre-index implementation)."""
    w_id, d_id, c_id = int(payload["w_id"]), int(payload["d_id"]), int(payload["c_id"])
    customer = machine.table("customer").get((w_id, d_id, c_id))
    if customer is None:
        return {"error": "missing customer"}
    latest = None
    for (order_w, order_d, order_id), order in machine.table("orders").items():
        if order_w == w_id and order_d == d_id and order["c_id"] == c_id:
            if latest is None or order_id > latest:
                latest = order_id
    return {"balance": round(customer["balance"], 2), "last_order": latest}


def scan_stock_level(machine, payload):
    """StockLevel by walking every stock row (the pre-index implementation)."""
    w_id = int(payload["w_id"])
    threshold = int(payload.get("threshold", 15))
    low = 0
    for (stock_w, _), stock in machine.table("stock").items():
        if stock_w == w_id and stock["quantity"] < threshold:
            low += 1
    return {"low_stock": low}


def scan_delivery(machine, payload):
    """Delivery per TPC-C 2.7.4, from a scan of ``new_orders``.

    Returns the expected output and the rows the transaction must leave
    behind: for each district, the oldest order still flagged in
    ``new_orders`` is delivered and its customer credited once.
    """
    w_id = int(payload["w_id"])
    oldest = {}
    for (order_w, order_d, order_id), pending in machine.table("new_orders").items():
        if order_w == w_id and pending and order_id < oldest.get(order_d, order_id + 1):
            oldest[order_d] = order_id
    rows = {}
    for d_id, order_id in oldest.items():
        key = (w_id, d_id, order_id)
        order = machine.table("orders")[key]
        rows[("orders", key)] = dict(order, delivered=True)
        rows[("new_orders", key)] = False
        customer_key = (w_id, d_id, order["c_id"])
        customer = machine.table("customer").get(customer_key)
        if customer is not None:
            rows[("customer", customer_key)] = dict(
                customer,
                balance=customer["balance"] + order["total"],
                delivery_cnt=customer["delivery_cnt"] + 1,
            )
    return {"delivered": len(oldest)}, rows


def apply_checked(machine, txns):
    """Apply *txns*, holding each indexed profile to its scan oracle."""
    seen = set()
    for txn in txns:
        operation, payload = txn.operation, txn.payload
        if operation == "tpcc_order_status":
            expected = scan_order_status(machine, payload)
            assert machine.apply(txn).output == expected
        elif operation == "tpcc_stock_level":
            expected = scan_stock_level(machine, payload)
            assert machine.apply(txn).output == expected
        elif operation == "tpcc_delivery":
            expected, rows = scan_delivery(machine, payload)
            delivered_before = sum(1 for o in machine.table("orders").values() if o["delivered"])
            assert machine.apply(txn).output == expected
            for (table_name, key), row in rows.items():
                assert machine.table(table_name)[key] == row
            delivered_after = sum(1 for o in machine.table("orders").values() if o["delivered"])
            assert delivered_after - delivered_before == expected["delivered"]
        else:
            machine.apply(txn)
        seen.add(operation)
    return seen


def stream(count, seed=11, warehouses=1, items=40):
    """A seeded TPC-C transaction stream (small catalogue: stock quantities wrap)."""
    workload = TPCCWorkload(warehouses=warehouses, items=items)
    rng = SeededRng(seed)
    return [workload.next_transaction(client_id=1, rng=rng) for _ in range(count)]


def make_machine(warehouses=1, items=40):
    return TPCCStateMachine(warehouses=warehouses, items=items)


def make_block(store, parent, view, txns):
    block = Block.build(
        view=view, slot=1, parent_hash=parent.block_hash, proposer=view % 4, transactions=txns
    )
    store.add(block)
    return block


ALL_PROFILES = {
    "tpcc_new_order", "tpcc_payment", "tpcc_order_status", "tpcc_delivery", "tpcc_stock_level",
}


class TestIndexedProfilesMatchScanOracle:
    def test_plain_apply(self):
        machine = make_machine()
        assert apply_checked(machine, stream(400)) == ALL_PROFILES
        # The stream drove stock through the restock rule, so StockLevel's
        # buckets below the initial quantity are populated.
        low = scan_stock_level(machine, {"w_id": 1, "threshold": 60})["low_stock"]
        assert 0 < low < 40

    def test_two_warehouses_keep_separate_indexes(self):
        machine = make_machine(warehouses=2)
        assert apply_checked(machine, stream(300, seed=5, warehouses=2)) == ALL_PROFILES

    def test_rolled_back_block_leaves_no_trace_in_the_indexes(self):
        txns = stream(360)
        prefix, block_a, block_b, probes = txns[:150], txns[150:210], txns[210:260], txns[260:]

        store = BlockStore()
        ledger = SpeculativeLedger(make_machine(), store)
        committed = make_block(store, store.genesis, 1, prefix)
        ledger.commit(committed)
        ledger.speculate(make_block(store, committed, 2, block_a))
        ledger.commit(make_block(store, committed, 3, block_b))  # conflicts: A is rolled back
        assert ledger.rollback_count == 1

        fresh_store = BlockStore()
        fresh = SpeculativeLedger(make_machine(), fresh_store)
        fresh_committed = make_block(fresh_store, fresh_store.genesis, 1, prefix)
        fresh.commit(fresh_committed)
        fresh.commit(make_block(fresh_store, fresh_committed, 3, block_b))

        assert ledger.state_digest() == fresh.state_digest()
        apply_checked(ledger.state_machine, probes)
        apply_checked(fresh.state_machine, probes)
        assert ledger.state_digest() == fresh.state_digest()

    def test_committed_snapshot_excludes_speculated_index_entries(self):
        txns = stream(360)
        prefix, suffix, probes = txns[:150], txns[150:230], txns[230:]

        store = BlockStore()
        ledger = SpeculativeLedger(make_machine(), store)
        committed = make_block(store, store.genesis, 1, prefix)
        ledger.commit(committed)
        committed_digest = ledger.state_digest()
        ledger.speculate(make_block(store, committed, 2, suffix))
        speculated_digest = ledger.state_digest()

        payload, digest = ledger.snapshot_committed_state()
        assert digest == committed_digest
        assert TPCCStateMachine.payload_digest(payload) == committed_digest
        # The suffix was undone and re-applied around the capture.
        assert ledger.state_digest() == speculated_digest

        restored = make_machine()
        restored.restore_state(payload)
        assert restored.state_digest() == committed_digest
        apply_checked(restored, suffix + probes)
        apply_checked(ledger.state_machine, probes)
        assert restored.state_digest() == ledger.state_digest()

    def test_snapshot_restore_round_trip(self):
        txns = stream(360)
        machine = make_machine()
        apply_checked(machine, txns[:240])
        restored = make_machine()
        restored.restore_state(machine.snapshot_state())
        assert restored.state_digest() == machine.state_digest()
        apply_checked(restored, txns[240:])
        apply_checked(machine, txns[240:])
        assert restored.state_digest() == machine.state_digest()

    def test_undo_of_every_transaction_restores_the_digest(self):
        machine = make_machine()
        for txn in stream(200):
            before = machine.state_digest()
            _, record = machine.apply_with_undo(txn)
            machine.undo(record)
            assert machine.state_digest() == before, txn.operation
            machine.apply(txn)


# ------------------------------------------------------- delivery regression
def new_order(d_id, c_id, w_id=1, lines=((1, 2), (2, 3))):
    return Transaction.create(
        1,
        "tpcc_new_order",
        {
            "w_id": w_id,
            "d_id": d_id,
            "c_id": c_id,
            "lines": [
                {"i_id": i_id, "quantity": quantity, "supply_w_id": w_id}
                for i_id, quantity in lines
            ],
        },
    )


DELIVERY = ("tpcc_delivery", {"w_id": 1})


class TestDeliveryRule:
    def test_delivers_the_oldest_order_of_each_district_once(self):
        machine = make_machine()
        per_district = 12
        for index in range(per_district):
            machine.apply(new_order(d_id=1, c_id=1 + index % 3))
            machine.apply(new_order(d_id=2, c_id=1 + index % 4))
        orders = machine.table("orders")
        balances = {key: row["balance"] for key, row in machine.table("customer").items()}

        for call in range(1, per_district + 1):
            result = machine.apply(Transaction.create(1, *DELIVERY))
            assert result.output == {"delivered": 2}
            # Oldest first, one per district, never the same order twice.
            delivered = sorted(key for key, order in orders.items() if order["delivered"])
            assert delivered == sorted(
                (1, d_id, order_id) for d_id in (1, 2) for order_id in range(1, call + 1)
            )
        assert machine.apply(Transaction.create(1, *DELIVERY)).output == {"delivered": 0}
        assert not any(machine.table("new_orders").values())

        # Every customer was credited exactly once per order it placed.
        placed, owed = {}, {}
        for (w_id, d_id, _), order in orders.items():
            customer_key = (w_id, d_id, order["c_id"])
            placed[customer_key] = placed.get(customer_key, 0) + 1
            owed[customer_key] = owed.get(customer_key, 0.0) + order["total"]
        assert sum(placed.values()) == 2 * per_district
        for key, customer in machine.table("customer").items():
            assert customer["delivery_cnt"] == placed.get(key, 0)
            assert customer["balance"] == pytest.approx(balances[key] + owed.get(key, 0.0))

    def test_aborted_new_order_consumes_no_order_id(self):
        machine = make_machine()
        machine.apply(new_order(d_id=1, c_id=1))
        aborted = machine.apply(new_order(d_id=1, c_id=2, lines=((1, 1), (9999, 1))))
        assert not aborted.success
        assert machine.apply(new_order(d_id=1, c_id=3)).output["order_id"] == 2
        # Dense ids: the cursor walks 1, 2 and then finds nothing.
        outputs = [machine.apply(Transaction.create(1, *DELIVERY)).output for _ in range(3)]
        assert outputs == [{"delivered": 1}, {"delivered": 1}, {"delivered": 0}]

    @pytest.mark.parametrize("quantity", [0, -5, 11])
    def test_out_of_range_line_quantity_aborts(self, quantity):
        # Quantities of 1..10 keep stock within 10..100, which is what bounds
        # the buckets StockLevel probes; anything else is refused.
        machine = make_machine()
        result = machine.apply(new_order(d_id=1, c_id=1, lines=((1, quantity),)))
        assert not result.success
        assert scan_stock_level(machine, {"w_id": 1, "threshold": 10**9}) == {"low_stock": 40}
        huge = Transaction.create(1, "tpcc_stock_level", {"w_id": 1, "threshold": 10**9})
        assert machine.apply(huge).output == {"low_stock": 40}


# ------------------------------------------------------------ no-scan guard
class NoScanTable(dict):
    """A table that can be probed by key but not walked, sorted or measured."""

    probes = 0  # shared across instances: reset by the test

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a TPC-C profile scanned a table")

    __iter__ = keys = items = values = __len__ = __reversed__ = copy = _refuse

    def get(self, key, default=None):
        NoScanTable.probes += 1
        return dict.get(self, key, default)

    def __getitem__(self, key):
        NoScanTable.probes += 1
        return dict.__getitem__(self, key)

    def __setitem__(self, key, value):
        NoScanTable.probes += 1
        dict.__setitem__(self, key, value)

    def __contains__(self, key):
        NoScanTable.probes += 1
        return dict.__contains__(self, key)


TABLES = (
    "warehouse", "district", "customer", "item", "stock", "orders", "new_orders",
    "customer_last_order", "delivery_cursor", "stock_qty",
)


def probes_per_profile(order_count):
    """Row probes each of the five profiles makes on a database of *order_count* orders."""
    machine = make_machine()
    for index in range(order_count):  # round-robin: every district keeps pending orders
        machine.apply(new_order(d_id=1 + index % DISTRICTS_PER_WAREHOUSE, c_id=1 + index % 7))
    assert set(machine._tables) <= set(TABLES)
    machine._tables = {name: NoScanTable(machine._tables.get(name, {})) for name in TABLES}
    probe_txns = [
        new_order(d_id=3, c_id=2),
        Transaction.create(1, "tpcc_payment", {"w_id": 1, "d_id": 3, "c_id": 2, "amount": 5.0}),
        Transaction.create(1, "tpcc_order_status", {"w_id": 1, "d_id": 3, "c_id": 2}),
        Transaction.create(1, *DELIVERY),
        Transaction.create(1, "tpcc_stock_level", {"w_id": 1, "threshold": 18}),
    ]
    counts = {}
    for txn in probe_txns:
        NoScanTable.probes = 0
        result, record = machine.apply_with_undo(txn)
        assert result.success
        counts[txn.operation] = (NoScanTable.probes, len(record.changes))
    assert counts["tpcc_delivery"][1] == 4 * DISTRICTS_PER_WAREHOUSE  # every district had one
    return counts


def test_no_profile_scans_and_cost_is_independent_of_history():
    small = probes_per_profile(10)
    large = probes_per_profile(5000)
    assert set(small) == ALL_PROFILES
    assert small == large


def test_no_scan_table_refuses_scans():
    table = NoScanTable({1: "a"})
    for scan in (lambda: list(table), lambda: sorted(table), lambda: len(table), table.items):
        with pytest.raises(AssertionError):
            scan()
