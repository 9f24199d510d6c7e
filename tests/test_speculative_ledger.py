"""Unit tests for the speculative ledger (global/local ledger + rollback)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.crypto.hashing import hash_fields
from repro.errors import SpeculationError
from repro.ledger.block import Block
from repro.ledger.blockstore import BlockStore
from repro.ledger.kvstore import KVStateMachine
from repro.ledger.speculative import SpeculativeLedger
from repro.ledger.tpcc_state import TPCCStateMachine
from repro.ledger.transaction import Transaction

from tests.conftest import build_chain, make_txn


def fork_of(block_store, parent, view, value="fork"):
    """Create a sibling block extending *parent* with one conflicting write."""
    txn = make_txn(view * 1000, key="contended", value=value)
    fork = Block.build(view=view, slot=1, parent_hash=parent.block_hash, proposer=3, transactions=[txn])
    block_store.add(fork)
    return fork


class TestCommit:
    def test_commit_chain_executes_and_appends(self, spec_ledger, block_store):
        blocks = build_chain(block_store, 3, txns_per_block=2)
        outcomes = spec_ledger.commit_chain(blocks[-1])
        assert [o.block.view for o in outcomes] == [1, 2, 3]
        assert spec_ledger.committed.committed_txn_count == 6
        assert spec_ledger.committed_head_hash == blocks[-1].block_hash

    def test_commit_is_idempotent(self, spec_ledger, block_store):
        blocks = build_chain(block_store, 1)
        spec_ledger.commit_chain(blocks[0])
        assert spec_ledger.commit_chain(blocks[0]) == []

    def test_commit_refuses_fork_of_committed_chain(self, spec_ledger, block_store):
        blocks = build_chain(block_store, 2)
        spec_ledger.commit_chain(blocks[1])
        fork = fork_of(block_store, blocks[0], view=9)
        with pytest.raises(SpeculationError):
            spec_ledger.commit_chain(fork)

    def test_commit_of_speculated_block_is_promoted_without_reexecution(self, spec_ledger, block_store):
        blocks = build_chain(block_store, 2)
        spec_ledger.commit_chain(blocks[0])
        spec_ledger.speculate(blocks[1])
        digest_after_speculation = spec_ledger.state_digest()
        outcome = spec_ledger.commit(blocks[1])
        assert outcome.was_speculated
        assert spec_ledger.state_digest() == digest_after_speculation
        assert spec_ledger.is_committed(blocks[1].block_hash)


class TestSpeculation:
    def test_prefix_rule_blocks_speculation_on_uncommitted_prefix(self, spec_ledger, block_store):
        blocks = build_chain(block_store, 2)
        with pytest.raises(SpeculationError):
            spec_ledger.speculate(blocks[1])

    def test_speculation_after_prefix_committed(self, spec_ledger, block_store):
        blocks = build_chain(block_store, 2)
        spec_ledger.commit_chain(blocks[0])
        entry = spec_ledger.speculate(blocks[1])
        assert entry.successes == [True]
        assert spec_ledger.is_speculated(blocks[1].block_hash)
        assert not spec_ledger.is_committed(blocks[1].block_hash)

    def test_speculation_is_idempotent(self, spec_ledger, block_store):
        blocks = build_chain(block_store, 1)
        first = spec_ledger.speculate(blocks[0])
        second = spec_ledger.speculate(blocks[0])
        assert first == second
        assert spec_ledger.speculated_block_count == 1

    def test_speculative_head_tracks_suffix(self, spec_ledger, block_store):
        blocks = build_chain(block_store, 1)
        assert spec_ledger.speculative_head_hash == spec_ledger.committed_head_hash
        spec_ledger.speculate(blocks[0])
        assert spec_ledger.speculative_head_hash == blocks[0].block_hash


class TestRollback:
    def test_conflicting_speculation_triggers_rollback(self, spec_ledger, block_store):
        blocks = build_chain(block_store, 1, txns_per_block=1)
        machine_digest_before = spec_ledger.state_digest()
        spec_ledger.speculate(blocks[0])
        fork = fork_of(block_store, block_store.genesis, view=5)
        spec_ledger.speculate(fork)
        assert spec_ledger.rollback_count == 1
        assert spec_ledger.is_speculated(fork.block_hash)
        assert not spec_ledger.is_speculated(blocks[0].block_hash)
        # State must reflect only the fork's effects now.
        assert spec_ledger.state_digest() != machine_digest_before

    def test_rollback_restores_state_machine_exactly(self, block_store):
        machine = KVStateMachine()
        ledger = SpeculativeLedger(machine, block_store)
        blocks = build_chain(block_store, 1, txns_per_block=3)
        digest_before = machine.state_digest()
        ledger.speculate(blocks[0])
        rolled_back = ledger.rollback_to_committed_head()
        assert [b.block_hash for b in rolled_back] == [blocks[0].block_hash]
        assert machine.state_digest() == digest_before
        assert ledger.rolled_back_txns == 3

    def test_rollback_if_conflicting_keeps_extending_blocks(self, spec_ledger, block_store):
        blocks = build_chain(block_store, 2)
        spec_ledger.commit_chain(blocks[0])
        spec_ledger.speculate(blocks[1])
        child = Block.build(3, 1, blocks[1].block_hash, 0, [make_txn(5)])
        block_store.add(child)
        assert spec_ledger.rollback_if_conflicting(child) == []
        assert spec_ledger.is_speculated(blocks[1].block_hash)

    def test_commit_of_conflicting_block_rolls_back_suffix(self, spec_ledger, block_store):
        blocks = build_chain(block_store, 1)
        spec_ledger.speculate(blocks[0])
        fork = fork_of(block_store, block_store.genesis, view=6)
        outcome = spec_ledger.commit(fork)
        assert not outcome.was_speculated
        assert spec_ledger.rollback_count == 1
        assert spec_ledger.is_committed(fork.block_hash)

    def test_rollback_with_empty_suffix_is_noop(self, spec_ledger):
        assert spec_ledger.rollback_to_committed_head() == []
        assert spec_ledger.rollback_count == 0


class TestAppendixA2Scenario:
    """The rollback scenario from Appendix A.2, replayed against the ledger."""

    def test_withheld_certificate_forces_rollback_then_convergence(self, block_store):
        machine = KVStateMachine()
        ledger = SpeculativeLedger(machine, block_store)
        genesis = block_store.genesis
        # L1 proposes B1; only f replicas see P(1) and speculate B1.
        block_b1 = Block.build(1, 1, genesis.block_hash, 1, [make_txn(1, key="contended", value="b1")])
        block_store.add(block_b1)
        ledger.speculate(block_b1)
        assert ledger.is_speculated(block_b1.block_hash)
        # L2 ignores P(1) and proposes conflicting B2 extending genesis; P(2) forms.
        block_b2 = Block.build(2, 1, genesis.block_hash, 2, [make_txn(2, key="contended", value="b2")])
        block_store.add(block_b2)
        ledger.speculate(block_b2)
        # The replica rolled back B1 and now reflects B2 only.
        assert ledger.rollback_count == 1
        assert not ledger.is_speculated(block_b1.block_hash)
        assert machine.read("contended").startswith("b2")
        # Eventually B2 commits; the ledger promotes the speculation.
        outcome = ledger.commit(block_b2)
        assert outcome.was_speculated
        assert ledger.is_committed(block_b2.block_hash)


# ------------------------------------------------------------- results root
def pinned_blocks():
    """A YCSB and a TPC-C block with fixed ids, each with a failing transaction,
    and the machines they execute on: ``[(name, machine, block), ...]``."""
    genesis_hash = BlockStore().genesis.block_hash

    def block(specs):
        txns = [Transaction.create(7, op, payload, txn_id=100 + i) for i, (op, payload) in enumerate(specs)]
        return Block.build(1, 1, genesis_hash, 0, txns)

    ycsb = block([
        ("ycsb_write", {"key": "user1", "value": "a"}),
        ("ycsb_read", {"key": "user1"}),
        ("ycsb_rmw", {"key": "user1", "value": "b"}),
        ("ycsb_write", {"key": "user2"}),  # no value: a failed outcome
        ("noop", {}),
    ])
    lines = [{"i_id": 3, "quantity": 2, "supply_w_id": 1}, {"i_id": 4, "quantity": 1, "supply_w_id": 1}]
    tpcc = block([
        ("tpcc_new_order", {"w_id": 1, "d_id": 1, "c_id": 1, "lines": lines}),
        ("tpcc_payment", {"w_id": 1, "d_id": 1, "c_id": 1, "amount": 12.5}),
        ("tpcc_order_status", {"w_id": 1, "d_id": 1, "c_id": 1}),
        ("tpcc_new_order", {"w_id": 1, "d_id": 2, "c_id": 1, "lines": [{"i_id": 9999, "quantity": 1}]}),
        ("tpcc_delivery", {"w_id": 1}),
        ("tpcc_stock_level", {"w_id": 1, "threshold": 99}),
        ("tpcc_unknown", {}),
    ])
    return [
        ("ycsb", KVStateMachine(), ycsb),
        ("tpcc", TPCCStateMachine(warehouses=1, items=50), tpcc),
    ]


def pinned_roots():
    """``{name: results_root}`` of :func:`pinned_blocks`, as a ledger computes it."""
    return {
        name: SpeculativeLedger(machine, BlockStore()).speculate(block).results_root
        for name, machine, block in pinned_blocks()
    }


class TestResultsRoot:
    PINNED = {
        "ycsb": "1b130259f184eea883df9c61f08111b4e9406d85a6d7150fa5f26c62ba9a180e",
        "tpcc": "fc6cb9011539d92e508c28a88888c9630f4b608c336428efa443959f3113ebb0",
    }

    def test_root_rendering_is_pinned(self):
        # Clients match responses across replicas (and across versions of this
        # code) by this root: hash_fields("results", block_hash, successes, outputs).
        roots = pinned_roots()
        for name, machine, block in pinned_blocks():
            successes, outputs, _ = machine.execute_block(block.transactions)
            assert False in successes, name
            assert roots[name] == hash_fields("results", block.block_hash, successes, outputs), name
        assert roots == self.PINNED

    def test_root_does_not_depend_on_the_hash_seed(self):
        """Replica processes each salt ``str`` hashes differently."""
        script = "from tests.test_speculative_ledger import pinned_roots\nprint(pinned_roots())\n"
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(sys.path))
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert outputs == {f"{self.PINNED}\n"}

    def test_speculation_and_commit_report_the_same_root(self, block_store):
        blocks = build_chain(block_store, 2, txns_per_block=3)
        speculated = SpeculativeLedger(KVStateMachine(), block_store)
        speculated.commit_chain(blocks[0])
        entry = speculated.speculate(blocks[1])
        promoted = speculated.commit(blocks[1])
        executed = SpeculativeLedger(KVStateMachine(), block_store).commit_chain(blocks[1])[-1]
        assert promoted.was_speculated and not executed.was_speculated
        assert promoted.results_root == entry.results_root == executed.results_root
        assert promoted.successes == executed.successes == [True] * 3
