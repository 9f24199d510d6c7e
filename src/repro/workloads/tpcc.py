"""TPC-C workload generator.

Generates the five standard TPC-C transaction profiles with the standard mix
(45 % NewOrder, 43 % Payment, 4 % each of OrderStatus, Delivery, StockLevel)
over the warehouse/district/customer/item/stock schema implemented by
:class:`~repro.ledger.tpcc_state.TPCCStateMachine`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import WorkloadError
from repro.ledger.tpcc_state import (
    CUSTOMERS_PER_DISTRICT,
    DEFAULT_ITEMS,
    DISTRICTS_PER_WAREHOUSE,
    TPCCStateMachine,
)
from repro.ledger.transaction import Transaction
from repro.sim.rng import SeededRng
from repro.workloads.base import Workload, register_workload

#: Standard TPC-C transaction mix as cumulative probabilities.
STANDARD_MIX = (
    ("tpcc_new_order", 0.45),
    ("tpcc_payment", 0.88),
    ("tpcc_order_status", 0.92),
    ("tpcc_delivery", 0.96),
    ("tpcc_stock_level", 1.00),
)


@register_workload
class TPCCWorkload(Workload):
    """Order-entry OLTP workload over a warehouse schema."""

    name = "tpcc"

    def __init__(
        self,
        warehouses: int = 2,
        items: int = DEFAULT_ITEMS,
        max_order_lines: int = 10,
    ) -> None:
        if warehouses <= 0:
            raise WorkloadError("warehouses must be positive")
        super().__init__()
        self.warehouses = int(warehouses)
        self.items = int(items)
        self.max_order_lines = int(max_order_lines)

    def make_state_machine(self) -> TPCCStateMachine:
        """Return a TPC-C state machine preloaded with this workload's scale."""
        return TPCCStateMachine(warehouses=self.warehouses, items=self.items)

    # ---------------------------------------------------------------- profile
    def _pick_profile(self, rng: SeededRng) -> str:
        draw = rng.random()
        for operation, cumulative in STANDARD_MIX:
            if draw <= cumulative:
                return operation
        return STANDARD_MIX[-1][0]

    def _new_order_payload(self, rng: SeededRng) -> Dict:
        line_count = rng.randint(5, self.max_order_lines)
        lines: List[Dict] = []
        for _ in range(line_count):
            lines.append(
                {
                    "i_id": rng.randint(1, self.items),
                    "quantity": rng.randint(1, 10),
                    "supply_w_id": rng.randint(1, self.warehouses),
                }
            )
        return {
            "w_id": rng.randint(1, self.warehouses),
            "d_id": rng.randint(1, DISTRICTS_PER_WAREHOUSE),
            "c_id": rng.randint(1, CUSTOMERS_PER_DISTRICT),
            "lines": lines,
        }

    def _customer_payload(self, rng: SeededRng) -> Dict:
        return {
            "w_id": rng.randint(1, self.warehouses),
            "d_id": rng.randint(1, DISTRICTS_PER_WAREHOUSE),
            "c_id": rng.randint(1, CUSTOMERS_PER_DISTRICT),
        }

    # -------------------------------------------------------------- generate
    def next_transaction(self, client_id: int, rng: SeededRng, now: float = 0.0) -> Transaction:
        """Generate one TPC-C transaction following the standard mix."""
        operation = self._pick_profile(rng)
        if operation == "tpcc_new_order":
            payload = self._new_order_payload(rng)
        elif operation == "tpcc_payment":
            payload = dict(self._customer_payload(rng), amount=round(rng.uniform(1.0, 5000.0), 2))
        elif operation == "tpcc_order_status":
            payload = self._customer_payload(rng)
        elif operation == "tpcc_delivery":
            payload = {"w_id": rng.randint(1, self.warehouses)}
        else:  # tpcc_stock_level
            payload = {"w_id": rng.randint(1, self.warehouses), "threshold": rng.randint(10, 20)}
        return Transaction.create(
            client_id=client_id,
            operation=operation,
            payload=payload,
            submitted_at=now,
            txn_id=next(self._txn_ids),
        )
