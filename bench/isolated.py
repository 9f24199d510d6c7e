"""Isolated layer timings: no cluster, inputs drawn from the workload's own generator.

Each timing uses the workload's batch size, transaction type and n, so the
numbers live under the same workload name as the end-to-end run they explain.
Every timing is the median of :data:`REPEATS` repeats of a loop long enough
to dwarf the clock's resolution, in reference seconds (:mod:`bench.reference`:
host speed is sampled right before and after each repeat); the result of each
call is consumed.
"""

from __future__ import annotations

import asyncio
import statistics
import tempfile
import time
from typing import Callable, Dict, List

from bench import ROOT
from bench.reference import ReferenceClock
from bench.workloads import Workload

REPEATS = 5
_clock = time.perf_counter


def _reference(seconds: float, before: ReferenceClock) -> float:
    """*seconds* of wall time as reference seconds (host speed sampled around it)."""
    after = ReferenceClock().burst()
    return seconds * (before.speed + after.speed) / 2.0


def _reference_seconds(run: Callable[[], object]) -> float:
    """Reference seconds one call of *run* takes."""
    before = ReferenceClock().burst()
    started = _clock()
    run()
    return _reference(_clock() - started, before)


def _us_per_call(fn: Callable[[], object], calls: int) -> float:
    """Median reference microseconds per call of *fn* over REPEATS loops of *calls*."""

    def loop() -> None:
        sink = None
        for _ in range(calls):
            sink = fn()
        del sink

    return statistics.median(_reference_seconds(loop) for _ in range(REPEATS)) / calls * 1e6


def run_isolated(workload: Workload, seed: int) -> Dict[str, float]:
    from repro.consensus.certificates import CertificateAuthority, CertKind
    from repro.consensus.config import ProtocolConfig
    from repro.consensus.mempool import Mempool
    from repro.consensus.messages import (
        ClientResponseBatch,
        NewSlot,
        NewView,
        Propose,
        ResponseEntry,
    )
    from repro.crypto.threshold import ThresholdScheme
    from repro.ledger.block import Block
    from repro.ledger.blockstore import BlockStore
    from repro.ledger.speculative import SpeculativeLedger
    from repro.live.codec import decode_message, encode_message, wire_codec_scope
    from repro.sim.rng import SeededRng
    from repro.storage.backend import FileLogBackend, MemoryLogBackend
    from repro.storage.wal import WriteAheadLog
    from repro.workloads.base import make_workload

    spec = workload.spec_kwargs(seed, 1.0)
    n, batch = spec["n"], spec["batch_size"]
    slotted = spec["protocol"].endswith("slotting")
    config = ProtocolConfig(n=n, batch_size=batch, seed=seed)
    authority = CertificateAuthority(ThresholdScheme(n=n, threshold=config.quorum, seed=seed))
    generator = make_workload(spec.get("workload", "ycsb"))
    rng = SeededRng(seed).fork("clients")
    out: Dict[str, float] = {}

    def next_txn():
        return generator.next_transaction(client_id=-1_000_000, rng=rng, now=0.0)

    out["workloads.next_txn_us"] = _us_per_call(next_txn, 2000)

    # One real block, its votes and its certificate.
    store = BlockStore()
    genesis = store.genesis
    txns = [next_txn() for _ in range(batch)]
    out["ledger.block_build_us"] = _us_per_call(
        lambda: Block.build(1, 1, genesis.block_hash, 0, txns), 20
    )
    block = Block.build(1, 1, genesis.block_hash, 0, txns)
    vote_args = (CertKind.PREPARE, 1, 1, block.block_hash)
    out["crypto.create_vote_us"] = _us_per_call(lambda: authority.create_vote(0, *vote_args), 500)
    shares = [authority.create_vote(signer, *vote_args) for signer in range(config.quorum)]
    out["crypto.verify_vote_us"] = _us_per_call(
        lambda: authority.verify_vote(shares[0], *vote_args), 500
    )
    out["crypto.form_cert_us"] = _us_per_call(
        lambda: authority.form_certificate(*vote_args, shares), 100
    )
    cert = authority.form_certificate(*vote_args, shares)
    out["crypto.verify_cert_us"] = _us_per_call(lambda: authority.verify_certificate(cert), 100)

    genesis_cert = CertificateAuthority.genesis_certificate(genesis)
    propose = Propose(view=2, slot=1, block=block, justify=cert, commit_cert=genesis_cert)
    if slotted:
        vote = NewSlot(view=1, slot=1, voter=0, high_cert=cert, share=shares[0],
                       voted_block_hash=block.block_hash)
    else:
        vote = NewView(view=2, voter=0, high_cert=cert, share=shares[0],
                       voted_block_hash=block.block_hash)

    def responses_for(block_txns, replica_id: int) -> ClientResponseBatch:
        return ClientResponseBatch(
            replica_id=replica_id, view=1, slot=1, block_hash=block.block_hash, speculative=True,
            entries=tuple(
                ResponseEntry(txn_id=t.txn_id, client_id=t.client_id,
                              result_digest=block.block_hash, success=True)
                for t in block_txns
            ),
        )

    with wire_codec_scope(spec["codec"]):
        propose_wire = encode_message(propose)
        vote_wire = encode_message(vote)
        out["codec.propose_bytes"] = float(len(propose_wire))
        out["codec.encode_propose_us"] = _us_per_call(lambda: encode_message(propose), 20)
        out["codec.decode_propose_us"] = _us_per_call(lambda: decode_message(propose_wire), 20)
        out["codec.encode_vote_us"] = _us_per_call(lambda: encode_message(vote), 500)
        out["codec.decode_vote_us"] = _us_per_call(lambda: decode_message(vote_wire), 500)
        # A client decodes one batch per replica for every block; the codec
        # memoises equal entries, so each repeat decodes blocks it has never
        # seen: one miss and n - 1 hits per block, as in a run.
        per_batch = []
        for _ in range(REPEATS):
            frames = []
            for _ in range(4):
                block_txns = [next_txn() for _ in range(batch)]
                frames += [encode_message(responses_for(block_txns, r)) for r in range(n)]
            per_batch.append(
                _reference_seconds(lambda: [decode_message(frame) for frame in frames])
                / len(frames)
            )
        out["codec.decode_respbatch_us"] = statistics.median(per_batch) * 1e6
        out["transport.loopback_frames_per_s"] = asyncio.run(_loopback_frames_per_s(vote))

    def add_take() -> int:
        pool = Mempool()
        for txn in txns:
            pool.add(txn)
        return len(pool.next_batch(batch))

    out["mempool.add_take_us_per_txn"] = _us_per_call(add_take, 50) / batch

    # Speculate then commit a chain of fresh blocks on one ledger.
    chain_length = 8
    per_block: List[float] = []
    for _ in range(REPEATS):
        chain_store = BlockStore()
        ledger = SpeculativeLedger(generator.make_state_machine(), chain_store)
        parent = chain_store.genesis.block_hash
        blocks = []
        for height in range(1, chain_length + 1):
            blocks.append(Block.build(height, 1, parent, 0, [next_txn() for _ in range(batch)]))
            parent = blocks[-1].block_hash

        def speculate_and_commit() -> None:
            for chained in blocks:
                ledger.speculate(chained)
                ledger.commit(chained)

        per_block.append(_reference_seconds(speculate_and_commit) / chain_length)
    out["ledger.speculate_commit_us_per_txn"] = statistics.median(per_block) * 1e6 / batch

    memory_wal = WriteAheadLog(MemoryLogBackend())
    out["storage.wal_append_mem_us"] = _us_per_call(
        lambda: memory_wal.append_vote(1, 1, block.block_hash), 2000
    )
    (ROOT / "bench" / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / "bench" / "out") as directory:
        backend = FileLogBackend(f"{directory}/wal.jsonl")
        try:
            file_wal = WriteAheadLog(backend)
            out["storage.wal_append_file_us"] = _us_per_call(
                lambda: file_wal.append_vote(1, 1, block.block_hash), 2000
            )
        finally:
            backend.close()

    out["sim.kernel_events_per_s"] = _sim_kernel_events_per_s()
    return out


def _sim_kernel_events_per_s(events: int = 20000) -> float:
    """Events per wall second of the bare scheduler (self-rescheduling no-ops)."""
    from repro.sim.scheduler import Simulator

    rates = []
    for _ in range(REPEATS):
        sim = Simulator(seed=0)

        def tick() -> None:
            sim.schedule(0.001, tick)

        for _ in range(16):  # a realistic handful of pending timers
            sim.schedule(0.0005, tick)
        rates.append(events / _reference_seconds(lambda: sim.run(max_events=events)))
    return statistics.median(rates)


async def _loopback_frames_per_s(message, frames: int = 2000) -> float:
    """Frames per wall second through two real transports on localhost."""
    from repro.live.runtime import LiveCluster, LiveNode, WallClock
    from repro.live.transport import AsyncTcpTransport

    class Sink:
        node_id = 1

        def __init__(self) -> None:
            self.count = 0
            self.done = asyncio.Event()
            self.want = 0

        def deliver(self, envelope) -> None:
            self.count += 1
            if self.count >= self.want:
                self.done.set()

    clock = WallClock(seed=0)
    sender, receiver = AsyncTcpTransport(0, clock), AsyncTcpTransport(1, clock)
    cluster = LiveCluster(clock, [LiveNode(0, sender), LiveNode(1, receiver)])
    await cluster.start()
    sink = Sink()
    receiver.register(sink)
    rates = []
    try:
        for _ in range(REPEATS):
            sink.want = sink.count + frames
            sink.done.clear()
            before = ReferenceClock().burst()
            started = _clock()
            for _ in range(frames):
                sender.send(0, 1, message)
            await asyncio.wait_for(sink.done.wait(), timeout=30)
            rates.append(frames / _reference(_clock() - started, before))
    finally:
        await cluster.close()
    return statistics.median(rates)
