"""Property-based tests (hypothesis + seed sweeps) for core data structures
and protocol-level invariants."""

from __future__ import annotations

import copy
import dataclasses
import enum
import itertools
import json
import random
import typing

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.checkpoint.snapshot import Snapshot
from repro.consensus.certificates import CertKind, Certificate
from repro.consensus.mempool import Mempool
from repro.consensus.messages import (
    ClientRequest,
    ClientResponseBatch,
    FetchRequest,
    Prepare,
    ResponseEntry,
    SnapshotRequest,
)
from repro.crypto.hashing import hash_fields
from repro.crypto.threshold import ThresholdScheme, ThresholdSignature
from repro.ledger.block import Block
from repro.ledger.blockstore import BlockStore
from repro.ledger.kvstore import KVStateMachine
from repro.ledger.speculative import SpeculativeLedger
from repro.ledger.transaction import OPERATION_SCHEMAS, Transaction
from repro.live import codec
from repro.sim.rng import SeededRng
from repro.sim.scheduler import Simulator
from repro.types import NULL_DIGEST
from repro.workloads.zipf import ZipfGenerator
from tests.helpers import binary_round_trip


# --------------------------------------------------------------------------
# Threshold signatures
# --------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=16),
    payload=st.text(min_size=1, max_size=20),
)
def test_threshold_aggregate_verifies_for_any_quorum(n, payload):
    f = (n - 1) // 3
    scheme = ThresholdScheme(n=n, threshold=n - f, seed=1)
    shares = [scheme.create_share(i, payload) for i in range(n - f)]
    aggregate = scheme.aggregate(shares)
    assert scheme.verify_aggregate(aggregate)
    assert aggregate.share_count == n - f


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=16),
    drop=st.integers(min_value=1, max_value=5),
)
def test_threshold_rejects_below_quorum(n, drop):
    f = (n - 1) // 3
    quorum = n - f
    scheme = ThresholdScheme(n=n, threshold=quorum, seed=1)
    count = max(0, quorum - drop)
    shares = [scheme.create_share(i, "p") for i in range(count)]
    try:
        scheme.aggregate(shares)
        reached = True
    except Exception:
        reached = False
    assert not reached


# --------------------------------------------------------------------------
# Block store ancestry
# --------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(chain_length=st.integers(min_value=2, max_value=12), fork_at=st.integers(min_value=0, max_value=10))
def test_blockstore_ancestry_and_conflicts(chain_length, fork_at):
    store = BlockStore()
    parent = store.genesis
    chain = []
    for view in range(1, chain_length + 1):
        block = Block.build(view, 1, parent.block_hash, 0)
        store.add(block)
        chain.append(block)
        parent = block
    fork_index = min(fork_at, chain_length - 1)
    fork_parent = chain[fork_index - 1] if fork_index > 0 else store.genesis
    fork = Block.build(100, 1, fork_parent.block_hash, 1)
    store.add(fork)

    # Every block extends genesis; the tip extends every strict ancestor.
    tip = chain[-1]
    assert store.extends(tip.block_hash, store.genesis.block_hash)
    for ancestor in chain[:-1]:
        assert store.extends(tip.block_hash, ancestor.block_hash)
    # The fork conflicts with every block at or after the fork point.
    for block in chain[fork_index:]:
        assert store.conflicts(fork.block_hash, block.block_hash)
    # The common ancestor of the fork and the tip is the fork parent.
    assert store.common_ancestor(fork.block_hash, tip.block_hash).block_hash == fork_parent.block_hash


# --------------------------------------------------------------------------
# Speculative ledger: speculation + rollback always restores the exact state
# --------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.sampled_from(["k1", "k2", "k3"]), st.text(min_size=1, max_size=6)),
        min_size=1,
        max_size=8,
    )
)
def test_speculate_then_rollback_restores_state(writes):
    store = BlockStore()
    machine = KVStateMachine()
    ledger = SpeculativeLedger(machine, store)
    txns = [
        Transaction.create(1, "ycsb_write", {"key": key, "value": value}, txn_id=index)
        for index, (key, value) in enumerate(writes)
    ]
    block = Block.build(1, 1, store.genesis.block_hash, 0, txns)
    store.add(block)
    digest_before = machine.state_digest()
    ledger.speculate(block)
    ledger.rollback_to_committed_head()
    assert machine.state_digest() == digest_before
    assert ledger.speculative_head_hash == ledger.committed_head_hash


@settings(max_examples=25, deadline=None)
@given(
    prefix_len=st.integers(min_value=1, max_value=5),
    value=st.text(min_size=1, max_size=5),
)
def test_commit_after_speculation_equals_direct_commit(prefix_len, value):
    """Speculate-then-promote must produce the same state as executing at commit time."""

    def build(length):
        store = BlockStore()
        machine = KVStateMachine()
        ledger = SpeculativeLedger(machine, store)
        parent = store.genesis
        blocks = []
        for view in range(1, length + 1):
            txn = Transaction.create(
                1, "ycsb_write", {"key": f"k{view}", "value": f"{value}{view}"}, txn_id=view
            )
            block = Block.build(view, 1, parent.block_hash, 0, [txn])
            store.add(block)
            blocks.append(block)
            parent = block
        return store, machine, ledger, blocks

    # Path A: speculate each block, then commit it.
    _, machine_a, ledger_a, blocks_a = build(prefix_len)
    for block in blocks_a:
        ledger_a.speculate(block)
        ledger_a.commit(block)
    # Path B: commit directly.
    _, machine_b, ledger_b, blocks_b = build(prefix_len)
    ledger_b.commit_chain(blocks_b[-1])
    assert machine_a.state_digest() == machine_b.state_digest()
    assert ledger_a.committed.ledger_digest() == ledger_b.committed.ledger_digest()


_KEYS = st.sampled_from(["k1", "k2", "k3"])
_BLOCK_OPS = st.one_of(
    st.tuples(st.just("ycsb_write"), st.fixed_dictionaries({"key": _KEYS, "value": st.text(max_size=6)})),
    st.tuples(st.just("ycsb_rmw"), st.fixed_dictionaries({"key": _KEYS, "value": st.text(max_size=6)})),
    st.tuples(st.just("ycsb_read"), st.fixed_dictionaries({"key": _KEYS})),
    st.tuples(st.just("ycsb_write"), st.fixed_dictionaries({"key": _KEYS})),  # raises: no value
    st.tuples(st.just("bogus_op"), st.just({})),  # raises: unknown operation
)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(_BLOCK_OPS, min_size=1, max_size=10), flip=st.integers(min_value=0))
def test_block_undo_restores_state_and_the_root_binds_every_outcome(ops, flip):
    """One undo log reverses a whole block, failed transactions included, and
    flipping any one outcome changes the block's results root."""

    def machine():
        machine = KVStateMachine()
        machine.apply(Transaction.create(1, "ycsb_write", {"key": "k1", "value": "base"}, txn_id=-1))
        return machine

    store = BlockStore()
    txns = [Transaction.create(1, op, payload, txn_id=i) for i, (op, payload) in enumerate(ops)]
    block = Block.build(1, 1, store.genesis.block_hash, 0, txns)
    executed = machine()
    digest_before = executed.state_digest()
    successes, outputs, changes = executed.execute_block(block.transactions)
    executed.undo(changes)
    assert executed.state_digest() == digest_before

    root = SpeculativeLedger(machine(), store).speculate(block).results_root
    assert root == hash_fields("results", block.block_hash, successes, outputs)
    flipped = list(successes)
    flipped[flip % len(flipped)] ^= True
    assert hash_fields("results", block.block_hash, flipped, outputs) != root


# --------------------------------------------------------------------------
# Mempool invariants
# --------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    ids=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40),
    batch=st.integers(min_value=1, max_value=10),
)
def test_mempool_never_duplicates_or_resurrects(ids, batch):
    pool = Mempool()
    for txn_id in ids:
        pool.add(Transaction.create(1, "noop", txn_id=txn_id))
    popped = pool.next_batch(batch)
    popped_ids = [txn.txn_id for txn in popped]
    assert len(popped_ids) == len(set(popped_ids))
    pool.mark_committed(popped_ids)
    for txn in popped:
        assert not pool.add(txn)
    # Whatever remains is exactly the distinct ids minus the committed ones.
    remaining = set()
    while True:
        chunk = pool.next_batch(10)
        if not chunk:
            break
        remaining.update(txn.txn_id for txn in chunk)
    assert remaining == set(ids) - set(popped_ids)


class _MarkEveryIdMempool(Mempool):
    """The pool as it was before it skipped repeated work: :meth:`mark_committed`
    pops every id and re-checks the watermark, and :meth:`note_proposed` runs
    its full pass on every call."""

    def mark_committed(self, txn_ids) -> None:
        for txn_id in txn_ids:
            if txn_id > self._contiguous:
                self._committed_ids.add(txn_id)
            self._pending.pop(txn_id, None)
            self._inflight.pop(txn_id, None)
            if txn_id > self.highest_committed_id:
                self.highest_committed_id = txn_id
        self._advance_watermark()

    def note_proposed(self, block_hash, txns) -> None:
        ids = []
        for txn in txns:
            self._pending.pop(txn.txn_id, None)
            if txn.txn_id <= self._contiguous or txn.txn_id in self._committed_ids:
                continue
            self._inflight[txn.txn_id] = txn
            ids.append(txn.txn_id)
        if ids:
            self._inflight_blocks[block_hash] = (self._generation, tuple(ids))


_POOL_BLOCKS = 4


def _pool_state(pool: Mempool) -> tuple:
    """Pending order, in-flight ids, the watermark, the counters, and what
    releasing each block would put back in the pool (in pool order)."""
    rescued = []
    for block in range(_POOL_BLOCKS):
        released = copy.deepcopy(pool)
        released.release_block(f"b{block}")
        rescued.append(list(released._pending))
    return (
        list(pool._pending), sorted(pool._inflight), sorted(pool._committed_ids), rescued,
        pool.committed_contiguous, pool.highest_committed_id, pool.total_submitted, pool.admission_rejected,
    )


_POOL_IDS = st.integers(min_value=0, max_value=24)
_POOL_BLOCK = st.integers(0, _POOL_BLOCKS - 1)
_POOL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _POOL_IDS),
        st.tuples(st.just("next_batch"), st.integers(min_value=1, max_value=6)),
        # A block noted by this many replicas in a row.
        st.tuples(st.just("note_proposed"), _POOL_BLOCK, st.integers(1, 5)),
        st.tuples(st.just("requeue"), st.lists(_POOL_IDS, max_size=6)),
        # The fork path: a sibling's uncommitted transactions go back.
        st.tuples(st.just("requeue_block"), _POOL_BLOCK),
        st.tuples(st.just("release_block"), _POOL_BLOCK),
        st.tuples(st.just("note_committed"), _POOL_BLOCK, st.lists(_POOL_IDS, max_size=6)),
        st.tuples(st.just("prune_below"), _POOL_IDS),
    ),
    max_size=40,
)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-replica"])
@settings(max_examples=100, deadline=None)
@given(
    ops=_POOL_OPS,
    replicas=st.integers(min_value=2, max_value=5),
    bodies=st.lists(st.lists(_POOL_IDS, max_size=6), min_size=_POOL_BLOCKS, max_size=_POOL_BLOCKS),
)
# A block noted again after its transactions were requeued, and after a
# block sharing one of them was released: both repeats must run in full.
@example(
    ops=[("add", 1), ("note_proposed", 0, 2), ("requeue_block", 0), ("note_proposed", 0, 2)],
    replicas=2, bodies=[[1], [], [], []],
)
@example(
    ops=[("add", 1), ("note_proposed", 0, 1), ("note_proposed", 1, 1), ("release_block", 1), ("note_proposed", 0, 1)],
    replicas=2, bodies=[[1], [1], [], []],
)
def test_mempool_never_holds_a_committed_id(shared, ops, replicas, bodies):
    """Over random pool operations: no id at or below the watermark, and none
    in ``_committed_ids``, is ever pending or in flight; ``note_committed``
    called once per replica leaves the state one call leaves; and the state
    matches a pool that pops every committed id and runs every
    ``note_proposed`` in full.  Block ``b<i>`` always carries ``bodies[i]``:
    a block hash names one body."""
    pool, reference = Mempool(limit=12, shared=shared), _MarkEveryIdMempool(limit=12, shared=shared)
    txns = {txn_id: Transaction.create(1, "noop", txn_id=txn_id) for txn_id in range(25)}
    for op, *args in ops:
        if op == "note_committed":
            once = copy.deepcopy(pool)
            once.note_committed(f"b{args[0]}", [txns[i] for i in args[1]])
            for _ in range(replicas):
                pool.note_committed(f"b{args[0]}", [txns[i] for i in args[1]])
            assert _pool_state(pool) == _pool_state(once)
            reference.note_committed(f"b{args[0]}", [txns[i] for i in args[1]])
        else:
            for target in (pool, reference):
                if op == "add":
                    target.add(txns[args[0]])
                elif op == "next_batch":
                    target.next_batch(args[0])
                elif op == "note_proposed":
                    for _ in range(args[1]):
                        target.note_proposed(f"b{args[0]}", [txns[i] for i in bodies[args[0]]])
                elif op == "requeue":
                    target.requeue([txns[i] for i in args[0]])
                elif op == "requeue_block":
                    target.requeue([txns[i] for i in bodies[args[0]] if not target.is_committed(i)])
                elif op == "release_block":
                    target.release_block(f"b{args[0]}")
                else:
                    target.prune_below(args[0])
        held = set(pool._pending) | set(pool._inflight)
        assert not {txn_id for txn_id in held if txn_id <= pool.committed_contiguous}
        assert not held & pool._committed_ids
        assert _pool_state(pool) == _pool_state(reference)


# --------------------------------------------------------------------------
# Zipf generator bounds
# --------------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    items=st.integers(min_value=1, max_value=10_000),
    theta=st.floats(min_value=0.0, max_value=0.99),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_zipf_always_in_range(items, theta, seed):
    gen = ZipfGenerator(items, theta)
    rng = SeededRng(seed)
    for _ in range(50):
        assert 0 <= gen.next(rng) < items


# --------------------------------------------------------------------------
# Liveness after > f simultaneous crashes (the ROADMAP view-resync stall)
# --------------------------------------------------------------------------
#: Sim-seconds within which every restarted replica must commit a new block.
RECOVERY_BOUND_S = 0.5


@pytest.mark.parametrize("seed", range(30))
def test_liveness_regained_after_f_then_f_plus_one_simultaneous_crashes(seed):
    """Crash exactly f, then f + 1 of n = 4 replicas simultaneously; every
    honest replica must commit new operations within a bounded number of
    simulated seconds after all restarts.

    Every third seed makes the epoch leader at fire time one of the f + 1
    simultaneous victims (with epoch length f + 1 = 2, half of all views are
    epoch boundaries, so leaders die at boundaries across the sweep).  This
    is the regression test for the documented stall where survivors circled
    at high views while recovered replicas rejoined at low ones and the
    Wish/TC quorum never re-formed.
    """
    from repro.experiments.runner import ExperimentSpec, run_experiment
    from repro.faults.plan import FaultEvent, FaultPlan

    n = 4
    rng = random.Random(seed)
    single = rng.randrange(n)
    first = rng.randrange(n)
    partner = "leader" if seed % 3 == 0 else (first + 1 + rng.randrange(n - 1)) % n
    events = [
        # Phase 1: exactly f = 1 down.
        FaultEvent(at=0.10, action="crash", replica=single),
        FaultEvent(at=0.18, action="restart", replica=single),
        # Phase 2: f + 1 = 2 down simultaneously (static victim first so a
        # dynamic "leader" pick can never collide with it).
        FaultEvent(at=0.30, action="crash", replica=first),
        FaultEvent(at=0.3001, action="crash", replica=partner),
        FaultEvent(at=0.45, action="restart", replica=first),
        FaultEvent(at=0.4501, action="restart", replica=partner),
    ]
    spec = ExperimentSpec(
        protocol="hotstuff-1",
        n=n,
        batch_size=10,
        duration=1.0,
        warmup=0.05,
        seed=seed,
        faults=FaultPlan(events=events).to_dict(),
    )
    result = run_experiment(spec)
    chaos = result.chaos
    assert chaos["crashes"] == 3
    assert chaos["restarts"] == 3
    assert chaos["skipped_events"] == 0, chaos["skipped"]
    assert chaos["wal_vote_violations"] == []
    # Liveness: every crashed replica committed a *new* block after its
    # restart, within the bound.
    assert chaos["recovered"] == 3, chaos["incidents"]
    assert chaos["max_recovery_s"] is not None
    assert chaos["max_recovery_s"] <= RECOVERY_BOUND_S, chaos["incidents"]
    # Safety held throughout, and the whole cluster (survivors included)
    # kept committing well past the crash window.
    assert chaos["prefix_agreement"] is True
    assert chaos["committed_blocks_min"] > 100


# --------------------------------------------------------------------------
# Simulator determinism
# --------------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30))
def test_simulator_fires_in_nondecreasing_time_order(delays):
    sim = Simulator(seed=0)
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


#: ``(kind, value, child delay)``: *value* picks the time (one of four, so
#: many events share one) or the event to cancel; an event with a child delay
#: schedules one more event when it fires, often at its own time.
_SCHEDULE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["schedule", "schedule_at", "cancel"]),
        st.integers(min_value=0, max_value=40),
        st.one_of(st.none(), st.sampled_from([0.0, 0.25])),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_SCHEDULE_OPS)
def test_simulator_fires_in_time_then_insertion_order(ops):
    """Over schedule / schedule_at / cancel sequences with many equal times,
    events fire in ``(time, insertion)`` order, and cancelled events are
    skipped and not counted in ``events_processed``."""
    sim = Simulator(seed=0)
    fired, events = [], []
    queue = {}  # the reference: insertion index -> (time, child delay)

    def fire(label, child):
        fired.append(label)
        if child is not None:
            events.append(sim.schedule(child, fire, len(events), None))

    cancelled = set()
    for kind, value, child in ops:
        if kind == "cancel":
            if events:
                index = value % len(events)
                sim.cancel(events[index])
                cancelled.add(index)
            continue
        when = value % 4 * 0.25
        queue[len(events)] = (when, child)
        schedule = sim.schedule if kind == "schedule" else sim.schedule_at
        events.append(schedule(when, fire, len(events), child))
    for index in cancelled:
        del queue[index]

    expected, inserted = [], len(events)
    while queue:
        label = min(queue, key=lambda index: (queue[index][0], index))
        when, child = queue.pop(label)
        expected.append(label)
        if child is not None:
            queue[inserted] = (when + child, None)
            inserted += 1
    sim.run()
    assert fired == expected
    assert sim.events_processed == len(fired) == len(events) - len(cancelled)
    assert not cancelled & set(fired)
    assert not any(event.pending for event in events)


# --------------------------------------------------------------------------
# Wire codec: every message type, generated fields, framed and as records
# --------------------------------------------------------------------------
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1
_WIRE_INTS = st.one_of(
    st.integers(min_value=-5, max_value=300),
    st.integers(min_value=_I64_MIN, max_value=_I64_MAX),
    st.sampled_from([2**31 - 1, 2**31, -(2**31) - 1, 2**40, _I64_MIN, _I64_MAX]),
)
_HEX_DIGESTS = st.binary(min_size=32, max_size=32).map(bytes.hex)
#: Every ``str`` field gets digests and non-digests alike: the ``digest`` kind
#: must fall back for anything but 64 lowercase hex chars, the ``str`` kind
#: must not care.
_WIRE_STRINGS = st.one_of(
    st.just(NULL_DIGEST),
    _HEX_DIGESTS,
    _HEX_DIGESTS.map(str.upper),  # fromhex would take it; the text must survive
    _HEX_DIGESTS.map(lambda d: d[:30] + "  " + d[30:62]),  # 64 chars, fromhex skips spaces
    _HEX_DIGESTS.map(lambda d: d[:62]),
    st.text(max_size=24),
    st.just("k" * 300),  # past the one-byte lengths
)
#: Schemaless ints ride as zigzag varints of at most 10 bytes.
_VALUE_INTS = st.integers(min_value=-(2**69), max_value=2**69 - 1)
#: Payload values as the workloads produce them: YCSB strings, TPC-C ints,
#: floats and a list of per-line maps (``workloads/tpcc.py``).
_PAYLOAD_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _VALUE_INTS, st.floats(allow_nan=False), st.text(max_size=12)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.one_of(st.text(max_size=6), _VALUE_INTS), inner, max_size=3),
    ),
    max_leaves=8,
)
_PAYLOADS = st.dictionaries(
    st.one_of(st.text(max_size=8), st.just("k" * 300), _VALUE_INTS), _PAYLOAD_VALUES, max_size=4
)


def _wire_strategy(hint):
    """Hypothesis strategy for one annotated field type of the wire dataclasses."""
    hint = getattr(hint, "__supertype__", hint)  # Digest = NewType("Digest", str)
    if hint is bool:
        return st.booleans()
    if hint is int:
        return _WIRE_INTS
    if hint is float:
        return st.floats(allow_nan=False)
    if hint is str:
        return _WIRE_STRINGS
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return st.sampled_from(hint)
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return st.builds(hint, **{f.name: _wire_strategy(hints[f.name]) for f in dataclasses.fields(hint)})
    if isinstance(hint, type) and issubclass(hint, tuple) and hasattr(hint, "_fields"):  # a NamedTuple
        hints = typing.get_type_hints(hint)
        return st.builds(hint, **{name: _wire_strategy(hints[name]) for name in hint._fields})
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[T]
        return st.one_of(st.none(), *(_wire_strategy(arg) for arg in args if arg is not type(None)))
    if origin is tuple:  # Tuple[T, ...]
        return st.lists(_wire_strategy(args[0]), max_size=3).map(tuple)
    if origin is list:
        return st.lists(_wire_strategy(args[0]), max_size=3)
    assert origin in (dict, typing.get_origin(typing.Mapping[str, int])), hint
    return _PAYLOADS  # Transaction.payload, Snapshot.state


@pytest.mark.parametrize(
    "cls", codec.MESSAGE_TYPES + (Block, Certificate, Snapshot), ids=lambda cls: cls.__name__
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_message_type_round_trips_with_generated_fields(cls, data):
    message = data.draw(_wire_strategy(cls))
    wire = codec.encode_message(message)
    frame = codec.frame_from_message(3, -1, wire, 0.5)
    assert codec.decode_message(wire) == message
    assert codec.decode_envelope(frame[4:]) == (3, -1, 0.5, None, message)


@pytest.mark.parametrize(
    "cls", codec.MESSAGE_TYPES + (Block, Certificate, Snapshot), ids=lambda cls: cls.__name__
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_registered_type_round_trips_as_a_log_record(cls, data):
    """The WAL, block log and snapshot log store records as JSON lines:
    whatever a field holds comes back equal through the JSON text, and a
    record read as another type is refused."""
    value = data.draw(_wire_strategy(cls))
    record = json.loads(json.dumps(codec.record_of(value)))
    assert codec.from_record(record, cls) == value
    other = Certificate if cls is Block else Block
    with pytest.raises(codec.CodecError, match=f"holds a {cls.__name__}, not a {other.__name__}"):
        codec.from_record(record, other)


def _schema_strategy(kind, uint_max=2**70 - 1):
    """Values that are exactly a declared payload *kind* (`live/layout.py`)."""
    if kind == "str":
        return st.one_of(st.text(max_size=12), st.just("k" * 300))
    if kind == "uint":
        return st.one_of(st.integers(0, 300), st.integers(0, uint_max))
    if kind == "float":
        return st.floats(allow_nan=False)
    if kind in ("u8", "u16"):  # the narrow width; any i64 repacks the array wide
        return st.one_of(st.integers(0, 255), st.integers(_I64_MIN, _I64_MAX))
    if kind[0] == "record":  # keys in declared order (fixed_dictionaries reorders them)
        names = [name for name, _ in kind[1]]
        fields = (_schema_strategy(field, uint_max) for _, field in kind[1])
        return st.tuples(*fields).map(lambda values: dict(zip(names, values)))
    assert kind[0] == "seq", kind
    return st.lists(_schema_strategy(kind[1], uint_max), max_size=4)


@pytest.mark.parametrize("operation", sorted(OPERATION_SCHEMAS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_schema_conforming_payload_never_takes_the_escape(operation, data):
    opcode, fields = OPERATION_SCHEMAS[operation]
    payload = data.draw(_schema_strategy(("record", fields)))
    txn = Transaction(data.draw(_WIRE_INTS), data.draw(_WIRE_INTS), operation, payload, 0.25)
    sent_as, decoded = binary_round_trip(txn)
    assert sent_as == opcode
    assert decoded.digest() == txn.digest()
    assert repr(decoded.payload) == repr(txn.payload)  # classes and key order, not only ==


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_payload_under_a_declared_operation_round_trips(data):
    """Near misses of every schema (a key dropped, added, renamed to a
    non-str, a value swapped for anything) and arbitrary payloads: the decoded
    transaction is equal and hashes the same, whichever form carried it."""
    operation = data.draw(st.sampled_from(sorted(OPERATION_SCHEMAS)))
    # A near miss rides the self-describing form, whose zigzag ints end at 2**69.
    conforming = _schema_strategy(("record", OPERATION_SCHEMAS[operation][1]), uint_max=2**69 - 1)
    payload = data.draw(st.one_of(_PAYLOADS, conforming))
    payload = dict(payload)
    for _ in range(data.draw(st.integers(0, 2))):
        key = data.draw(st.one_of(st.sampled_from(sorted(payload, key=repr)) if payload else st.nothing(),
                                  st.text(max_size=4), _VALUE_INTS))
        if data.draw(st.booleans()):
            payload.pop(key, None)
        else:
            payload[key] = data.draw(_PAYLOAD_VALUES)
    txn = Transaction(7, -3, operation, payload, 0.25)
    _, decoded = binary_round_trip(txn)
    try:
        expected = txn.digest()
    except TypeError:  # str and int keys do not sort: such a payload never had a digest
        return
    assert decoded.digest() == expected


@pytest.mark.parametrize("cls", codec.MESSAGE_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_every_strict_prefix_of_a_binary_frame_body_is_a_codec_error(cls, data):
    message = data.draw(_wire_strategy(cls))
    wire = codec.encode_message(message)
    body = codec.frame_from_message(0, 1, wire, 0.5, seq=data.draw(st.none() | st.just(9)))[4:]
    for cut in range(len(body)):
        with pytest.raises(codec.CodecError):  # never IndexError / struct.error
            codec.decode_envelope(body[:cut])
    for cut in range(len(wire)):
        with pytest.raises(codec.CodecError):
            codec.decode_message(wire[:cut])


def _id_columns(count):
    """*count* ids as a block carries them: one start, then steps that fit an
    i8, an i16, an i32 or nothing narrower than the ids themselves."""
    steps = st.one_of(
        st.integers(min_value=-128, max_value=127),
        st.integers(min_value=-(2**15), max_value=2**15 - 1),
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
    )
    walk = st.tuples(_WIRE_INTS, st.lists(steps, min_size=count - 1, max_size=count - 1)).map(
        lambda drawn: [max(_I64_MIN, min(_I64_MAX, value)) for value in itertools.accumulate(drawn[1], initial=drawn[0])]
    )
    return st.one_of(walk, st.lists(_WIRE_INTS, min_size=count, max_size=count))


@st.composite
def _response_batches(draw):
    """Batches with every column in both of its modes (constant / packed)."""
    count = draw(st.sampled_from([0, 1, 2, 7, 8, 9, 40]))
    if not count:
        entries = ()
    else:
        txn_ids, client_ids = draw(_id_columns(count)), draw(_id_columns(count))
        several = st.lists(_WIRE_STRINGS, min_size=count, max_size=count)
        digests = draw(st.one_of(st.just([NULL_DIGEST] * count), _WIRE_STRINGS.map(lambda d: [d] * count), several))
        successes = draw(st.one_of(st.just([True] * count), st.lists(st.booleans(), min_size=count, max_size=count)))
        entries = tuple(map(ResponseEntry, txn_ids, client_ids, digests, successes))
    return ClientResponseBatch(
        draw(_WIRE_INTS), draw(_WIRE_INTS), 1, draw(_WIRE_STRINGS), draw(st.booleans()), entries, draw(_WIRE_STRINGS)
    )


@settings(max_examples=150, deadline=None)
@given(batch=_response_batches())
def test_response_batches_round_trip_in_every_column_mode(batch):
    wire = codec.encode_message(batch)
    assert codec.decode_message(wire) == batch
    assert codec.decode_message(wire) == batch  # ...and again from the entries cache


@settings(max_examples=150, deadline=None)
@given(batch=_response_batches(), other=_response_batches())
def test_a_response_batch_encodes_the_same_cold_and_warm(batch, other):
    """The encoder's entries memo writes the bytes a cold encoding writes,
    whether the batch's entries are packed cold or after an equal entries
    tuple was (every replica answering a block sends its own, equal tuple)."""
    codec.reset_codec_caches()
    cold = codec.encode_message(batch)
    codec.reset_codec_caches()
    codec.encode_message(dataclasses.replace(batch, entries=other.entries))
    equal = dataclasses.replace(batch, entries=tuple(ResponseEntry(*entry) for entry in batch.entries))
    assert codec.encode_message(equal) == cold
    assert codec.encode_message(batch) == cold
    assert codec.decode_message(cold) == batch


#: One field of a response entry changed to a value it does not have.
_ENTRY_EDITS = {
    "txn_id": lambda entry: entry.txn_id ^ 1,
    "client_id": lambda entry: entry.client_id ^ 1,
    "result_digest": lambda entry: "e" * 64 if entry.result_digest != "e" * 64 else "f" * 64,
    "success": lambda entry: not entry.success,
}


@settings(max_examples=150, deadline=None)
@given(
    batch=_response_batches().filter(lambda batch: batch.entries),
    field=st.sampled_from(sorted(_ENTRY_EDITS)),
    position=st.integers(min_value=0, max_value=100),
)
def test_a_response_batch_differing_in_one_entry_is_encoded_afresh(batch, field, position):
    """A batch whose entries differ from the memoised ones in one field of one
    entry is not served their bytes: it decodes to itself."""
    entries = list(batch.entries)
    index = position % len(entries)
    entries[index] = entries[index]._replace(**{field: _ENTRY_EDITS[field](entries[index])})
    changed = dataclasses.replace(batch, entries=tuple(entries))
    codec.encode_message(batch)
    wire = codec.encode_message(changed)
    assert codec.decode_message(wire) == changed
    codec.reset_codec_caches()
    assert codec.encode_message(changed) == wire


def _replica_batch(failed=(), digest=lambda txn_id: NULL_DIGEST):
    """100 entries as a replica answers a block of the closed-loop pool."""
    rng = SeededRng(7).fork("clients")
    txn_ids = [5000 + index + rng.randint(0, 2) for index in range(100)]
    entries = tuple(
        ResponseEntry(txn_id, -1_000_000 - rng.randint(0, 269), digest(txn_id), index not in failed)
        for index, txn_id in enumerate(txn_ids)
    )
    return ClientResponseBatch(2, 41, 1, "ab" * 32, True, entries, "cd" * 32)


@pytest.mark.parametrize(
    "batch",
    [
        _replica_batch(),
        _replica_batch(failed=(3, 99), digest=lambda txn_id: "ef" * 32),
        _replica_batch(digest=lambda txn_id: f"{txn_id:064x}"),
    ],
    ids=["as-sent", "bitmap-and-one-digest", "digest-per-entry"],
)
def test_a_damaged_100_entry_response_batch_decodes_or_raises_codec_error(batch):
    """Never IndexError / struct.error: every strict prefix is refused, every
    single-byte flip (widths, modes, sizes, bitmap, deltas) decodes or is."""
    wire = codec.encode_message(batch)
    assert codec.decode_message(wire) == batch
    for cut in range(len(wire)):
        with pytest.raises(codec.CodecError):
            codec.decode_message(wire[:cut])
    for position in range(len(wire)):
        for flip in (0x01, 0x80, 0xFF):
            damaged = bytearray(wire)
            damaged[position] ^= flip
            try:
                codec.decode_message(bytes(damaged))
            except codec.CodecError:
                pass


@pytest.mark.parametrize(
    "batch, bitmap, shared",
    [
        (_replica_batch(), 0, 0),
        (_replica_batch(failed=(3, 99), digest=lambda txn_id: "ef" * 32), 13, 33),
    ],
    ids=["as-sent", "bitmap-and-one-digest"],
)
def test_response_column_mode_bytes_the_encoder_never_writes_are_refused(batch, bitmap, shared):
    """``success`` is 0 or 1 and ``result_digest`` 0, 1 or 2: any other mode
    byte is refused by name, never read as a neighbouring mode — otherwise two
    byte strings would decode to one message."""
    wire = codec.encode_message(batch)
    digest_mode = len(wire) - 33 - shared - 1  # then the shared digest and results_root
    success_mode = digest_mode - bitmap - 1
    assert (wire[success_mode], wire[digest_mode]) == (int(bool(bitmap)), int(bool(shared)))
    for position, modes in ((success_mode, {0, 1}), (digest_mode, {0, 1, 2})):
        for byte in (0x02, 0x03, 0xFF):
            damaged = bytearray(wire)
            damaged[position] = byte
            # 0x02 is a real digest mode: its 100 digests are simply not there.
            with pytest.raises(codec.CodecError, match=None if byte in modes else f"column mode {byte:#04x}"):
                codec.decode_message(bytes(damaged))


@pytest.mark.parametrize("retired", [4, 5, 6, 7, 8, 9])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_retired_binary_versions_are_rejected(retired, data):
    message = data.draw(_wire_strategy(data.draw(st.sampled_from(codec.MESSAGE_TYPES))))
    body = bytearray(codec.frame_from_message(0, 1, codec.encode_message(message), 0.5)[4:])
    assert body[1] == codec.BINARY_WIRE_VERSION
    body[1] = retired
    with pytest.raises(codec.CodecError, match=f"version {retired}"):
        codec.decode_envelope(bytes(body))


@pytest.mark.parametrize("too_big", [2**63, -(2**63) - 1, 2**80])
def test_ints_outside_i64_are_refused_at_encode_time(too_big):
    """Header ints, packed int arrays and both hand-laid records refuse an
    out-of-range int instead of truncating it."""
    signature = ThresholdSignature(NULL_DIGEST, "prepare", (0, too_big), 2, NULL_DIGEST)
    entry = ResponseEntry(txn_id=too_big, client_id=1)
    messages = [
        SnapshotRequest(requester=1, have_height=too_big),
        FetchRequest(block_hash=NULL_DIGEST, requester=too_big),
        Prepare(view=1, cert=Certificate(CertKind.PREPARE, 1, 1, NULL_DIGEST, signature, 1)),
        ClientRequest(txn=Transaction.create(client_id=too_big, operation="op", txn_id=1)),
        ClientResponseBatch(1, 1, 1, NULL_DIGEST, True, (entry,)),
        ClientResponseBatch(1, 1, 1, NULL_DIGEST, True, (ResponseEntry(1, 1), ResponseEntry(2, too_big))),
    ]
    for message in messages:
        with pytest.raises(codec.CodecError):
            codec.encode_message(message)
    # ...while a schemaless payload value is a varint, with room to 2**69.
    roomy = ClientRequest(txn=Transaction.create(client_id=1, operation="op", payload={"n": too_big}, txn_id=1))
    if -(2**69) <= too_big < 2**69:
        assert codec.decode_message(codec.encode_message(roomy)) == roomy
    else:
        with pytest.raises(codec.CodecError):
            codec.encode_message(roomy)
