"""TPC-C style OLTP state machine.

The paper's second workload is TPC-C: "online transaction processing (OLTP)
operations that access a database of 260k records, simulating a complex
warehouse and order management environment".  This module implements a
self-contained TPC-C subset with the five standard transaction profiles
(NewOrder, Payment, OrderStatus, Delivery, StockLevel) over warehouse,
district, customer, item, stock and order tables, with undo support so the
speculative ledger can roll it back.

Every profile costs O(rows it touches): no profile iterates, sorts or
measures a table, so a transaction costs the same on the first order as on
the hundred-thousandth.  The three read paths that would otherwise scan are
served by secondary indexes, which are ordinary tables written through
``_write`` — undo, rollback, snapshots and ``state_digest`` cover them
like any other row:

``customer_last_order[(w, d, c)] -> order_id``
    written by NewOrder, read by OrderStatus;
``delivery_cursor[(w, d)] -> order_id``
    the oldest undelivered order of the district (absent: 1).  Order ids are
    dense per district (an aborted NewOrder consumes none), so the order is
    pending exactly when its row exists;
``stock_qty[(w, quantity)] -> rows``
    per-warehouse histogram of stock quantities, moved by each stock write
    and summed below the threshold by StockLevel.  NewOrder's restock rule
    keeps quantities within 10..100 for order lines of 1..10 units (others
    abort the order), which bounds the buckets a StockLevel probes.

Delivery follows TPC-C 2.7.4: it delivers the oldest undelivered order of
each of the warehouse's ten districts and skips districts with none.

The full TPC-C specification includes many details (C-last name generation,
think times, terminal emulation) that do not affect consensus behaviour; what
matters for the reproduction is that TPC-C transactions touch many records
and therefore cost more simulated execution time than YCSB writes.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import ExecutionError
from repro.ledger.state_machine import RecordingStateMachine
from repro.ledger.transaction import Transaction, declare_operation, record, seq

#: Districts per warehouse (TPC-C standard).
DISTRICTS_PER_WAREHOUSE = 10
#: Customers per district (scaled down from 3000 to keep preload cheap).
CUSTOMERS_PER_DISTRICT = 30
#: Items in the catalogue (scaled down from 100k).
DEFAULT_ITEMS = 1000
#: Largest quantity one order line may ask for (TPC-C: OL_QUANTITY is 1..10).
_MAX_LINE_QUANTITY = 10
#: Range NewOrder's restock rule keeps every stock quantity in.
_MIN_STOCK_QUANTITY = 10
_MAX_STOCK_QUANTITY = 100

# Payload schemas of the five profiles (``TPCCStateMachine._PROFILES``), as
# ``workloads/tpcc.py`` generates them.  An order line is a fixed-width record
# (the declared widths are the narrow form; wider ints repack the lines as i64).
declare_operation(
    "tpcc_new_order", 16, w_id="uint", d_id="uint", c_id="uint",
    lines=seq(record(i_id="u16", quantity="u8", supply_w_id="u8")),
)
declare_operation("tpcc_payment", 17, w_id="uint", d_id="uint", c_id="uint", amount="float")
declare_operation("tpcc_order_status", 18, w_id="uint", d_id="uint", c_id="uint")
declare_operation("tpcc_delivery", 19, w_id="uint")
declare_operation("tpcc_stock_level", 20, w_id="uint", threshold="uint")


class TPCCStateMachine(RecordingStateMachine):
    """A TPC-C-subset state machine with warehouses, stock and orders."""

    #: TPC-C transactions touch many records, so they cost more simulated CPU.
    execution_cost = 4.0e-6

    def __init__(self, warehouses: int = 2, items: int = DEFAULT_ITEMS) -> None:
        super().__init__()
        if warehouses <= 0:
            raise ExecutionError("TPC-C requires at least one warehouse")
        self.warehouses = int(warehouses)
        self.items = int(items)
        self._load_initial_data()

    # --------------------------------------------------------------- loading
    def _load_initial_data(self) -> None:
        warehouse_table = self.table("warehouse")
        district_table = self.table("district")
        customer_table = self.table("customer")
        item_table = self.table("item")
        stock_table = self.table("stock")
        for w_id in range(1, self.warehouses + 1):
            warehouse_table[w_id] = {"ytd": 0.0, "tax": 0.05}
            for d_id in range(1, DISTRICTS_PER_WAREHOUSE + 1):
                district_table[(w_id, d_id)] = {"ytd": 0.0, "tax": 0.02, "next_o_id": 1}
                for c_id in range(1, CUSTOMERS_PER_DISTRICT + 1):
                    customer_table[(w_id, d_id, c_id)] = {
                        "balance": -10.0,
                        "ytd_payment": 10.0,
                        "payment_cnt": 1,
                        "delivery_cnt": 0,
                    }
        for i_id in range(1, self.items + 1):
            item_table[i_id] = {"price": 1.0 + (i_id % 100) / 10.0, "name": f"item-{i_id}"}
            for w_id in range(1, self.warehouses + 1):
                stock_table[(w_id, i_id)] = {
                    "quantity": _MAX_STOCK_QUANTITY, "ytd": 0, "order_cnt": 0
                }
        stock_qty_table = self.table("stock_qty")
        for w_id in range(1, self.warehouses + 1):
            stock_qty_table[(w_id, _MAX_STOCK_QUANTITY)] = self.items

    @property
    def record_count(self) -> int:
        """Total number of loaded records across all tables."""
        return sum(len(table) for table in self._tables.values())

    # -------------------------------------------------------------- execute
    def _execute(self, txn: Transaction) -> Tuple[bool, object]:
        handler = self._PROFILES.get(txn.operation)
        if handler is None:
            raise ExecutionError(f"TPCCStateMachine cannot execute operation {txn.operation!r}")
        return handler(self, txn.payload)

    # ------------------------------------------------------------ new order
    def _new_order(self, payload: Dict) -> Tuple[bool, object]:
        write = self._write
        w_id = int(payload["w_id"])
        d_id = int(payload["d_id"])
        c_id = int(payload["c_id"])
        lines = payload.get("lines", [])
        district = self._read("district", (w_id, d_id))
        if district is None:
            return False, {"error": "missing district"}
        order_id = district["next_o_id"]

        # The per-line loop is most of a TPC-C run: probe the tables directly.
        item_table = self.table("item")
        stock_table = self.table("stock")
        stock_qty_table = self.table("stock_qty")
        total_amount = 0.0
        for line in lines:
            i_id = int(line["i_id"])
            quantity = int(line.get("quantity", 1))
            item = item_table.get(i_id)
            if item is None or not 1 <= quantity <= _MAX_LINE_QUANTITY:
                # Aborts: an unused item id (1% of new-order transactions per
                # spec) or a quantity that would take stock out of its range.
                # The order id is only consumed below, once no line can abort.
                return False, {"error": "invalid item", "order_id": order_id}
            supply_w_id = int(line.get("supply_w_id", w_id))
            stock_key = (supply_w_id, i_id)
            stock = stock_table.get(stock_key)
            if stock is None:
                stock = {"quantity": _MAX_STOCK_QUANTITY, "ytd": 0, "order_cnt": 0}
            else:
                bucket = (supply_w_id, stock["quantity"])
                write("stock_qty", bucket, stock_qty_table[bucket] - 1)
            remaining = stock["quantity"] - quantity
            if remaining < _MIN_STOCK_QUANTITY:
                remaining += 91
            write(
                "stock",
                stock_key,
                {
                    "quantity": remaining,
                    "ytd": stock["ytd"] + quantity,
                    "order_cnt": stock["order_cnt"] + 1,
                },
            )
            bucket = (supply_w_id, remaining)
            write("stock_qty", bucket, stock_qty_table.get(bucket, 0) + 1)
            total_amount += item["price"] * quantity

        write("district", (w_id, d_id), dict(district, next_o_id=order_id + 1))
        order_key = (w_id, d_id, order_id)
        total = round(total_amount, 2)
        write(
            "orders",
            order_key,
            {"c_id": c_id, "line_count": len(lines), "total": total, "delivered": False},
        )
        write("new_orders", order_key, True)
        write("customer_last_order", (w_id, d_id, c_id), order_id)
        return True, {"order_id": order_id, "total": total}

    # -------------------------------------------------------------- payment
    def _payment(self, payload: Dict) -> Tuple[bool, object]:
        w_id = int(payload["w_id"])
        d_id = int(payload["d_id"])
        c_id = int(payload["c_id"])
        amount = float(payload.get("amount", 10.0))
        warehouse = dict(self._read("warehouse", w_id) or {})
        district = dict(self._read("district", (w_id, d_id)) or {})
        customer = dict(self._read("customer", (w_id, d_id, c_id)) or {})
        if not warehouse or not district or not customer:
            return False, {"error": "missing row"}
        warehouse["ytd"] += amount
        district["ytd"] += amount
        customer["balance"] -= amount
        customer["ytd_payment"] += amount
        customer["payment_cnt"] += 1
        self._write("warehouse", w_id, warehouse)
        self._write("district", (w_id, d_id), district)
        self._write("customer", (w_id, d_id, c_id), customer)
        return True, {"balance": round(customer["balance"], 2)}

    # --------------------------------------------------------- order status
    def _order_status(self, payload: Dict) -> Tuple[bool, object]:
        customer_key = (int(payload["w_id"]), int(payload["d_id"]), int(payload["c_id"]))
        customer = self._read("customer", customer_key)
        if customer is None:
            return False, {"error": "missing customer"}
        return True, {
            "balance": round(customer["balance"], 2),
            "last_order": self._read("customer_last_order", customer_key),
        }

    # -------------------------------------------------------------- delivery
    def _delivery(self, payload: Dict) -> Tuple[bool, object]:
        w_id = int(payload["w_id"])
        delivered = 0
        for d_id in range(1, DISTRICTS_PER_WAREHOUSE + 1):
            order_id = self._read("delivery_cursor", (w_id, d_id), 1)
            key = (w_id, d_id, order_id)
            order = self._read("orders", key)
            if order is None:
                continue  # nothing pending in this district
            self._write("delivery_cursor", (w_id, d_id), order_id + 1)
            self._write("orders", key, dict(order, delivered=True))
            self._write("new_orders", key, False)
            customer_key = (w_id, d_id, order["c_id"])
            customer = self._read("customer", customer_key)
            if customer is not None:
                self._write(
                    "customer",
                    customer_key,
                    dict(
                        customer,
                        balance=customer["balance"] + order["total"],
                        delivery_cnt=customer["delivery_cnt"] + 1,
                    ),
                )
            delivered += 1
        return True, {"delivered": delivered}

    # ----------------------------------------------------------- stock level
    def _stock_level(self, payload: Dict) -> Tuple[bool, object]:
        w_id = int(payload["w_id"])
        threshold = min(int(payload.get("threshold", 15)), _MAX_STOCK_QUANTITY + 1)
        low = 0
        for quantity in range(_MIN_STOCK_QUANTITY, threshold):
            low += self._read("stock_qty", (w_id, quantity), 0)
        return True, {"low_stock": low}

    _PROFILES = {
        "tpcc_new_order": _new_order,
        "tpcc_payment": _payment,
        "tpcc_order_status": _order_status,
        "tpcc_delivery": _delivery,
        "tpcc_stock_level": _stock_level,
    }
