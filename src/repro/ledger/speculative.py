"""Speculative ledger: committed prefix plus a speculated, rollback-able suffix.

The paper (§3, §4.2) gives each replica two ledgers:

* the **global-ledger** — blocks known to be committed; append-only and never
  rolled back;
* the **local-ledger** — blocks that were *speculatively executed* after the
  replica observed a prepare certificate for them; these may later be erased
  (rolled back) if a conflicting certificate from a higher view supersedes
  them.

:class:`SpeculativeLedger` packages both together with the replica's state
machine so that the consensus code can express exactly the operations the
pseudocode uses:

* ``commit_chain(block)`` — "execute all transactions up to (incl.) B, add
  result to global-ledger" (traditional / prefix commit rules);
* ``speculate(block)`` — "execute all transactions in B speculatively, add
  result to local-ledger" (guarded by the Prefix Speculation rule);
* rollback to the common ancestor when a conflicting block must be speculated
  or committed (Definition 4.7).

The block is the unit of execution and of rollback.  Executing a block yields
its success bits, one undo log for the whole block, and one ``results_root``
— ``hash_fields("results", block_hash, successes, outputs)``, a single
SHA-256 over the block hash and every outcome in block order (the txn ids are
bound by the block hash).  The root is what clients match across replicas
(:mod:`repro.consensus.client`, "Matching responses"); the outputs are hashed
into it and not kept.  Rollback and :meth:`SpeculativeLedger.snapshot_committed_state`
undo (and re-execute) whole blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto.hashing import hash_fields
from repro.errors import SpeculationError
from repro.ledger.block import Block
from repro.ledger.blockstore import BlockStore
from repro.ledger.ledger import CommittedLedger
from repro.ledger.state_machine import StateMachine
from repro.types import NULL_DIGEST


@dataclass
class SpeculativeEntry:
    """A block executed speculatively, with its outcome and the log that undoes it."""

    block: Block
    successes: List[bool]
    results_root: str
    changes: List[tuple]


@dataclass
class CommitOutcome:
    """What happened when a block was committed.

    Attributes
    ----------
    block:
        The committed block.
    successes:
        Per-transaction success bits, in block order (empty when the block
        was already committed).
    results_root:
        The block's results root (see the module docstring).
    was_speculated:
        ``True`` if the block had already been executed speculatively (so the
        replica has already answered the clients and must not answer again).
    position:
        Position of the block in the global ledger.
    """

    block: Block
    successes: List[bool]
    results_root: str
    was_speculated: bool
    position: int


class SpeculativeLedger:
    """Committed ledger + speculated suffix with rollback, for one replica."""

    def __init__(self, state_machine: StateMachine, block_store: BlockStore) -> None:
        self.state_machine = state_machine
        self.block_store = block_store
        self.committed = CommittedLedger()
        # The speculated suffix: at most one block, because the Prefix
        # Speculation rule only speculates a child of the committed head.
        self._speculated: Optional[SpeculativeEntry] = None
        self.rollback_count = 0
        self.rolled_back_txns = 0
        self.speculated_block_count = 0

    # --------------------------------------------------------------- queries
    @property
    def committed_head_hash(self) -> str:
        """Hash of the latest committed block (genesis hash when empty).

        A ledger restored from a checkpoint reports the snapshot block's hash
        even though the block objects below it are no longer materialised.
        """
        head_hash = self.committed.head_hash
        return head_hash if head_hash is not None else self.block_store.genesis.block_hash

    @property
    def speculative_head_hash(self) -> str:
        """Hash of the tip of the speculated suffix (falls back to committed head)."""
        if self._speculated is not None:
            return self._speculated.block.block_hash
        return self.committed_head_hash

    def is_committed(self, block_hash: str) -> bool:
        """Return ``True`` if *block_hash* is in the global ledger (or is genesis)."""
        if block_hash == self.block_store.genesis.block_hash:
            return True
        return block_hash in self.committed

    def is_speculated(self, block_hash: str) -> bool:
        """Return ``True`` if *block_hash* sits on the speculated suffix."""
        entry = self._speculated
        return entry is not None and entry.block.block_hash == block_hash

    def speculated_blocks(self) -> List[Block]:
        """Blocks currently on the speculated suffix (at most one)."""
        return [] if self._speculated is None else [self._speculated.block]

    def prefix_committed(self, block: Block) -> bool:
        """Prefix Speculation rule (Definition 3.1): is *block*'s predecessor committed?"""
        return self.is_committed(block.parent_hash)

    def state_digest(self) -> str:
        """Digest of the underlying state machine (committed + speculated effects)."""
        return self.state_machine.state_digest()

    # ------------------------------------------------------------ checkpoints
    def snapshot_committed_state(self) -> Tuple[dict, str]:
        """Serialize the *committed-only* state and its digest.

        Speculative effects must never leak into a checkpoint (a rolled-back
        suffix would otherwise become durable truth), so the speculated suffix
        is temporarily undone, the state captured, and the suffix re-executed —
        deterministic machines reproduce it exactly.
        """
        machine, entry = self.state_machine, self._speculated
        if entry is not None:
            machine.undo(entry.changes)
        payload = machine.snapshot_state()
        digest = machine.state_digest()
        if entry is not None:
            entry.changes = machine.execute_block(entry.block.transactions).changes
        return payload, digest

    def install_snapshot(self, prefix_hashes: Sequence[str], state_payload: dict) -> None:
        """Adopt a checkpoint: committed prefix by hash, state machine wholesale.

        Any local committed blocks must form a prefix of *prefix_hashes*
        (callers verify this before installing); the speculated suffix is
        rolled away — it extended a head the snapshot supersedes.
        """
        self.rollback_to_committed_head()
        self.state_machine.restore_state(state_payload)
        fresh = CommittedLedger()
        fresh.restore_base(prefix_hashes)
        self.committed = fresh

    # -------------------------------------------------------------- speculate
    def speculate(self, block: Block) -> SpeculativeEntry:
        """Speculatively execute *block* and record it on the local ledger.

        Enforces the Prefix Speculation rule: the block's predecessor must be
        in the global ledger.  If a different block is currently speculated it
        necessarily conflicts with *block* (both extend the committed head),
        so the suffix is rolled back first, as Lines 25–26 / 13–14 of the
        pseudocode require.

        Returns the block's :class:`SpeculativeEntry`.  Speculating the same
        block twice is idempotent and returns the cached entry.
        """
        if self.is_speculated(block.block_hash):
            return self._speculated
        if not self.prefix_committed(block):
            raise SpeculationError(
                f"cannot speculate block (view={block.view}, slot={block.slot}): "
                "its predecessor is not committed (Prefix Speculation rule)"
            )
        if self._speculated is not None:
            self.rollback_to_committed_head()
        self.block_store.add(block)
        entry = self._speculated = self._execute_block(block)
        self.speculated_block_count += 1
        return entry

    # ---------------------------------------------------------------- commit
    def commit(self, block: Block) -> CommitOutcome:
        """Commit a single block whose parent is the committed head.

        If the block is currently speculated it is *promoted* without
        re-execution; otherwise any conflicting speculated suffix is rolled
        back and the block is executed now.
        """
        self.block_store.add(block)
        if self.is_committed(block.block_hash):
            position = self.committed.position_of(block.block_hash)
            return CommitOutcome(block, [], NULL_DIGEST, was_speculated=False, position=position or 0)

        entry = self._speculated
        if entry is not None and entry.block.block_hash == block.block_hash:
            self._speculated = None
            position = self.committed.append(block)
            return CommitOutcome(block, entry.successes, entry.results_root, was_speculated=True, position=position)

        if entry is not None:
            # Whatever is speculated conflicts with the block being committed.
            self.rollback_to_committed_head()

        if block.parent_hash != self.committed_head_hash:
            raise SpeculationError(
                f"cannot commit block (view={block.view}, slot={block.slot}): "
                "its parent is not the committed head; commit the prefix first"
            )
        entry = self._execute_block(block)
        position = self.committed.append(block)
        return CommitOutcome(block, entry.successes, entry.results_root, was_speculated=False, position=position)

    def commit_chain(self, target: Block) -> List[CommitOutcome]:
        """Commit every uncommitted ancestor of *target*, then *target* itself.

        This is the pseudocode's "execute all transactions up to (incl.) B".
        Returns one :class:`CommitOutcome` per newly committed block, oldest
        first.  Blocks already committed are skipped.  Raises
        :class:`SpeculationError` if *target* does not extend the committed
        head (committing it would fork the global ledger).
        """
        self.block_store.add(target)
        if self.is_committed(target.block_hash):
            return []
        head_hash = self.committed_head_hash
        if target.parent_hash == head_hash:
            path = [target]
        else:
            if not self.block_store.extends(target.block_hash, head_hash):
                raise SpeculationError(
                    f"block (view={target.view}, slot={target.slot}) does not extend the "
                    "committed head; refusing to fork the global ledger"
                )
            path = self.block_store.path_between(head_hash, target.block_hash)
        outcomes = []
        for block in path:
            if block.is_genesis:
                continue
            outcomes.append(self.commit(block))
        return outcomes

    # -------------------------------------------------------------- rollback
    def rollback_to_committed_head(self) -> List[Block]:
        """Erase the speculated suffix, undoing its effects.

        Returns the rolled-back blocks (empty or one).  This is the
        "roll local-ledger back to the common ancestor" operation for the
        common case where the conflicting block extends the committed head —
        which is the only case the Prefix Speculation rule permits.
        """
        entry = self._speculated
        if entry is None:
            return []
        self._speculated = None
        self.state_machine.undo(entry.changes)
        self.rolled_back_txns += entry.block.txn_count
        self.rollback_count += 1
        return [entry.block]

    def rollback_if_conflicting(self, block: Block) -> List[Block]:
        """Roll back the speculated suffix if it conflicts with *block*.

        Used before speculating or committing *block*; returns the rolled
        back blocks (empty when nothing conflicted).
        """
        entry = self._speculated
        if entry is None or entry.block.block_hash == block.block_hash:
            return []
        if self.block_store.extends(block.block_hash, entry.block.block_hash):
            return []
        return self.rollback_to_committed_head()

    # -------------------------------------------------------------- internal
    def _execute_block(self, block: Block) -> SpeculativeEntry:
        successes, outputs, changes = self.state_machine.execute_block(block.transactions)
        root = hash_fields("results", block.block_hash, successes, outputs)
        return SpeculativeEntry(block, successes, root, changes)
