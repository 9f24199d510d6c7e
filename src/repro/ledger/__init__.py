"""Ledger and execution substrate.

This package provides the data model the consensus protocols agree on:

* :class:`~repro.ledger.transaction.Transaction` — a client request with an
  operation payload (key-value write for YCSB, multi-record OLTP operation for
  TPC-C),
* :class:`~repro.ledger.block.Block` — a batch of transactions proposed by a
  leader in a (view, slot), carrying the certificate it extends and optionally
  a carry-block hash (slotting design, §6),
* :class:`~repro.ledger.blockstore.BlockStore` — the block tree with ancestry
  queries (``extends``, common ancestor, path-to-genesis),
* state machines (:mod:`repro.ledger.kvstore`, :mod:`repro.ledger.tpcc_state`)
  that execute a block of transactions and undo it as a whole,
* :class:`~repro.ledger.speculative.SpeculativeLedger` — the paper's
  *global-ledger* (committed prefix) plus *local-ledger* (speculated suffix)
  with rollback to a common ancestor (§3, §4.2).
"""

from repro.ledger.block import Block, GENESIS_VIEW, make_genesis_block
from repro.ledger.blockstore import BlockStore
from repro.ledger.ledger import CommittedLedger
from repro.ledger.kvstore import KVStateMachine
from repro.ledger.speculative import SpeculativeLedger
from repro.ledger.state_machine import StateMachine
from repro.ledger.tpcc_state import TPCCStateMachine
from repro.ledger.transaction import Transaction

__all__ = [
    "Block",
    "BlockStore",
    "CommittedLedger",
    "GENESIS_VIEW",
    "KVStateMachine",
    "SpeculativeLedger",
    "StateMachine",
    "TPCCStateMachine",
    "Transaction",
    "make_genesis_block",
]
