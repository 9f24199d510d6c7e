"""Integration tests for the Byzantine attacks of §7.3.

Each test runs a short deployment with the attack behaviour installed and
checks the qualitative claim the paper makes: the attack hurts the protocols
without slotting and leaves HotStuff-1 with slotting (mostly) unaffected.
"""

from __future__ import annotations

import pytest

import dataclasses

from repro.consensus.byzantine import (
    CrashBehavior,
    ForgedResponseBehavior,
    HonestBehavior,
    ReplicaBehavior,
    RollbackAttackBehavior,
    SlowLeaderBehavior,
    TailForkingBehavior,
)
from repro.consensus.client import CLIENT_POOL_NODE_ID, ClientPool
from repro.consensus.messages import ClientResponseBatch
from repro.experiments.runner import ExperimentSpec, latency_model_for, prepare, run_experiment, start
from repro.net.network import SimNetwork
from repro.sim.scheduler import Simulator


def run_with_behaviors(protocol, behaviors, n=7, duration=0.4, view_timeout=0.01, seed=13):
    spec = ExperimentSpec(
        protocol=protocol,
        n=n,
        batch_size=20,
        duration=duration,
        warmup=0.1,
        seed=seed,
        behaviors=behaviors,
        view_timeout=view_timeout,
    )
    return run_experiment(spec)


class TestBehaviorUnits:
    def test_honest_behavior_defaults(self):
        behavior = HonestBehavior()
        assert not behavior.is_byzantine
        assert not behavior.is_crashed()
        assert behavior.propose_delay(None, 1) == 0.0
        assert behavior.equivocal_proposal(None, 1, None) is None
        assert not behavior.votes_unsafely(None, None)

    def test_crash_behavior_flags(self):
        behavior = CrashBehavior()
        assert behavior.is_byzantine
        assert behavior.is_crashed()

    def test_attack_behaviors_are_flagged_byzantine(self):
        assert SlowLeaderBehavior().is_byzantine
        assert TailForkingBehavior().is_byzantine
        assert RollbackAttackBehavior(victims=[1]).is_byzantine


class TestLeaderSlowness:
    def test_slow_leaders_degrade_streamlined_hotstuff1(self):
        clean = run_with_behaviors("hotstuff-1", {})
        attacked = run_with_behaviors("hotstuff-1", {0: SlowLeaderBehavior(), 1: SlowLeaderBehavior()})
        assert attacked.throughput < 0.8 * clean.throughput
        assert attacked.latency_ms > clean.latency_ms

    def test_slotting_mitigates_slow_leaders(self):
        clean = run_with_behaviors("hotstuff-1-slotting", {})
        attacked = run_with_behaviors(
            "hotstuff-1-slotting", {0: SlowLeaderBehavior(), 1: SlowLeaderBehavior()}
        )
        assert attacked.throughput > 0.85 * clean.throughput


class TestTailForking:
    def test_tail_forking_degrades_streamlined_hotstuff1(self):
        clean = run_with_behaviors("hotstuff-1", {})
        attacked = run_with_behaviors("hotstuff-1", {0: TailForkingBehavior(), 1: TailForkingBehavior()})
        assert attacked.throughput < 0.9 * clean.throughput

    def test_tail_forked_transactions_eventually_commit(self):
        attacked = run_with_behaviors("hotstuff-1", {0: TailForkingBehavior()}, duration=0.5)
        # Liveness is preserved: clients still make progress despite forked blocks.
        assert attacked.summary.committed_txns > 0

    def test_slotting_resists_tail_forking(self):
        clean = run_with_behaviors("hotstuff-1-slotting", {})
        attacked = run_with_behaviors(
            "hotstuff-1-slotting", {0: TailForkingBehavior(), 1: TailForkingBehavior()}
        )
        assert attacked.throughput > 0.85 * clean.throughput


class TestRollbackAttack:
    def test_rollback_attack_forces_rollbacks_without_slotting(self):
        behaviors = {0: RollbackAttackBehavior(victims=[2, 3], colluders=[0, 1]),
                     1: RollbackAttackBehavior(victims=[2, 3], colluders=[0, 1])}
        attacked = run_with_behaviors("hotstuff-1", behaviors, duration=0.5)
        assert attacked.summary.rollbacks > 0
        assert attacked.summary.rolled_back_txns > 0

    def test_rollback_attack_does_not_break_client_safety(self):
        behaviors = {0: RollbackAttackBehavior(victims=[2, 3], colluders=[0])}
        attacked = run_with_behaviors("hotstuff-1", behaviors, duration=0.5)
        # Committed ledgers of honest replicas stay prefix-consistent (checked by
        # the runner) and clients only ever complete transactions that commit.
        committed_ids = set()
        for block in attacked.replicas[2].ledger.committed.blocks():
            committed_ids.update(txn.txn_id for txn in block.transactions)
        sampled = [s.txn_id for s in attacked.client_pool.metrics.samples]
        missing = [txn_id for txn_id in sampled if txn_id not in committed_ids]
        # Every completed transaction is committed somewhere in the prefix of an
        # honest replica (allowing for blocks committed after the window closed).
        assert len(missing) <= attacked.spec.batch_size

    def test_tpcc_state_and_indexes_survive_rollbacks(self):
        # At n=4 one victim is all f allows, and it must not be the attacker's
        # successor as leader (that replica collects the fork's votes).
        spec = ExperimentSpec(
            protocol="hotstuff-1",
            n=4,
            batch_size=20,
            duration=0.3,
            warmup=0.1,
            seed=13,
            behaviors={0: RollbackAttackBehavior(victims=[3], colluders=[0])},
            view_timeout=0.01,
            workload="tpcc",
            check_safety=True,
        )
        attacked = run_experiment(spec)
        assert attacked.summary.rollbacks > 0
        # Clients finalise on n - f matching results roots, which the victim
        # could not supply if a rolled-back block had left anything behind
        # (TPC-C answers are read from index tables the undo log must cover).
        assert attacked.summary.committed_txns > 0
        honest = [replica for replica in attacked.replicas if not replica.behavior.is_byzantine]
        assert max(replica.ledger.rollback_count for replica in honest) > 0
        # Every honest replica's committed-only state is exactly what a fresh
        # machine reaches by executing the committed chain up to that height.
        longest = max((replica.ledger.committed.blocks() for replica in honest), key=len)
        heights = {len(replica.ledger.committed) for replica in honest}
        reference = attacked.client_pool.workload.make_state_machine()
        digest_at = {}
        for height, block in enumerate(longest, start=1):
            reference.execute_block(block.transactions)
            if height in heights:
                digest_at[height] = reference.state_digest()
        for replica in honest:
            _, digest = replica.ledger.snapshot_committed_state()
            assert digest == digest_at[len(replica.ledger.committed)]

    def test_rollback_attack_degrades_throughput(self):
        clean = run_with_behaviors("hotstuff-1", {})
        behaviors = {0: RollbackAttackBehavior(victims=[2, 3], colluders=[0, 1]),
                     1: RollbackAttackBehavior(victims=[2, 3], colluders=[0, 1])}
        attacked = run_with_behaviors("hotstuff-1", behaviors, duration=0.5)
        assert attacked.throughput < clean.throughput

    def test_slotting_confines_rollback_attack(self):
        clean = run_with_behaviors("hotstuff-1-slotting", {})
        behaviors = {0: RollbackAttackBehavior(victims=[2, 3], colluders=[0])}
        attacked = run_with_behaviors("hotstuff-1-slotting", behaviors, duration=0.5)
        assert attacked.summary.rollbacks == 0
        assert attacked.throughput > 0.85 * clean.throughput


class _RecordingPool(ClientPool):
    """Remembers the matching key every finalisation was made under and, once
    ``draining``, issues nothing new (so what was finalised gets to commit)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.finalised = {}
        self.draining = False

    def _complete(self, request, speculative):
        (key,) = [key for key, votes in request.responders.items() if len(votes) >= self.required_quorum]
        self.finalised[request.txn.txn_id] = key
        super()._complete(request, speculative)

    def _after_completion(self, request):
        if not self.draining:
            super()._after_completion(request)


class _SilentResponder(ReplicaBehavior):
    """Faulty towards clients only, and in the weakest way: it states nothing."""

    is_byzantine = True

    def outgoing_response(self, replica, batch):
        return dataclasses.replace(batch, entries=())


class _TruthfulResponder(ReplicaBehavior):
    """Marked faulty (so the same replicas count as honest in every run) but honest."""

    is_byzantine = True


def run_with_responders(behavior, n, protocol="hotstuff-1", required_quorum=None):
    """Run with the first f replicas answering clients through *behavior*; returns
    ``(completions inside the window, finalisations no honest replica backs)``.

    A finalisation is backed when every honest replica committed the block it
    names, at one position, with the transaction in it, and stated exactly the
    root / digest / success the client matched on.
    """
    f = (n - 1) // 3
    spec = ExperimentSpec(
        protocol=protocol, n=n, batch_size=20, duration=0.3, warmup=0.05, seed=13, view_timeout=0.01,
        behaviors={replica_id: behavior() for replica_id in range(f)},
    )
    sim = Simulator(seed=spec.seed)
    network = SimNetwork(sim, latency=latency_model_for(spec))
    stated = {}  # what honest replicas told the clients: (block hash, txn id) -> keys

    def record(envelope):
        batch = envelope.payload
        if isinstance(batch, ClientResponseBatch) and envelope.sender >= f:
            for entry in batch.entries:
                key = (batch.block_hash, batch.results_root, entry.result_digest, entry.success)
                stated.setdefault((batch.block_hash, entry.txn_id), set()).add(key)

    network.set_trace_hook(record)
    deployment = prepare(
        spec, sim, lambda node_id: network, [*range(n), CLIENT_POOL_NODE_ID], client_class=_RecordingPool
    )
    pool = deployment.client_pool
    if required_quorum is not None:
        pool.required_quorum = required_quorum
    start(deployment)
    sim.run(until=spec.duration)
    completed = pool.completed_count
    pool.draining = True
    sim.run(until=spec.duration + 0.2)

    honest = [replica for replica in deployment.replicas if not replica.behavior.is_byzantine]
    assert len(honest) == n - f and completed > 10 * spec.batch_size
    unbacked = []
    for txn_id, key in pool.finalised.items():
        positions = {replica.ledger.committed.position_of(key[0]) for replica in honest}
        position = positions.pop()
        backed = (
            not positions
            and position is not None
            and txn_id in {txn.txn_id for txn in honest[0].ledger.committed.block_at(position).transactions}
            and stated.get((key[0], txn_id)) == {key}
        )
        if not backed:
            unbacked.append((txn_id, key))
    return completed, unbacked


class TestForgedResponses:
    """A faulty responder gains nothing from block-level result roots: whatever
    it states, clients finalise exactly what honest replicas executed."""

    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("mode", ForgedResponseBehavior.MODES)
    def test_forged_statements_never_finalise_and_cost_what_silence_costs(self, mode, n):
        forged, unbacked = run_with_responders(lambda: ForgedResponseBehavior(mode), n)
        assert unbacked == []
        # A forger whose statements about the block's own transactions are
        # true (it only adds a foreign one) is, for those, an honest responder;
        # every other forgery withholds its vote from the honest key.
        baseline = _TruthfulResponder if mode == "foreign-txn" else _SilentResponder
        assert forged == run_with_responders(baseline, n)[0]

    def test_committed_responses_need_f_plus_one_too(self):
        """HotStuff-2's clients wait for f + 1 post-commit responses: f forgers fall one short."""
        completed, unbacked = run_with_responders(lambda: ForgedResponseBehavior("foreign-txn"), 7, "hotstuff-2")
        assert unbacked == []

    @pytest.mark.parametrize("mode", ["foreign-txn", "own-root"])
    def test_negative_control_a_quorum_of_one_does_finalise_forgeries(self, mode):
        """The same run with `required_quorum=1` accepts the forger's word, so
        the check above is known to be able to fire."""
        _, unbacked = run_with_responders(lambda: ForgedResponseBehavior(mode), 4, required_quorum=1)
        assert unbacked


class TestDelayInjection:
    def test_delays_beyond_f_replicas_slow_the_system(self):
        clean = ExperimentSpec(protocol="hotstuff-1", n=7, batch_size=20, duration=0.3, warmup=0.05, seed=5)
        impacted = ExperimentSpec(
            protocol="hotstuff-1",
            n=7,
            batch_size=20,
            duration=0.6,
            warmup=0.05,
            seed=5,
            delay_injection={"impacted": [4, 5, 6], "extra_delay": 0.02},
            view_timeout=0.1,
            delta=0.02,
        )
        clean_result = run_experiment(clean)
        impacted_result = run_experiment(impacted)
        assert impacted_result.throughput < clean_result.throughput
        assert impacted_result.latency_ms > clean_result.latency_ms

    def test_crossing_f_plus_one_is_the_pronounced_jump(self):
        """The paper: the impact is most pronounced when k goes from f to f+1."""

        def run_with_impacted(count):
            return run_experiment(
                ExperimentSpec(
                    protocol="hotstuff-1",
                    n=7,
                    batch_size=20,
                    duration=0.6,
                    warmup=0.1,
                    seed=5,
                    delay_injection={"impacted": list(range(7 - count, 7)), "extra_delay": 0.02},
                    view_timeout=0.1,
                    delta=0.02,
                )
            )

        at_f = run_with_impacted(2)
        beyond_f = run_with_impacted(3)
        # Once every certificate needs an impacted replica, throughput drops and
        # latency rises relative to the k = f case.
        assert beyond_f.throughput < at_f.throughput
        assert beyond_f.latency_ms > at_f.latency_ms
