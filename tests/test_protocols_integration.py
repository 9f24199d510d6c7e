"""Integration tests: full simulated deployments of every protocol variant.

These tests run short end-to-end simulations (4–7 replicas, small batches)
and check the properties the paper argues for: liveness, safety across
replicas, the latency ordering HotStuff-1 < HotStuff-2 < HotStuff, equal
throughput across the streamlined protocols, speculation and early finality
for the HotStuff-1 variants, and correct client quorum sizes.
"""

from __future__ import annotations

import pytest

from repro.core.registry import EVALUATION_PROTOCOLS, PROTOCOLS, client_quorum_for, replica_class_for
from repro.consensus.config import ProtocolConfig
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentSpec, run_experiment


def small_run(protocol, **overrides):
    spec = ExperimentSpec(
        protocol=protocol,
        n=overrides.pop("n", 4),
        batch_size=overrides.pop("batch_size", 20),
        duration=overrides.pop("duration", 0.25),
        warmup=overrides.pop("warmup", 0.05),
        seed=overrides.pop("seed", 11),
        **overrides,
    )
    return run_experiment(spec)


@pytest.fixture(scope="module")
def baseline_results():
    """One short fault-free run per protocol, shared by several tests."""
    return {protocol: small_run(protocol) for protocol in PROTOCOLS}


class TestLiveness:
    def test_every_protocol_commits_transactions(self, baseline_results):
        for protocol, result in baseline_results.items():
            assert result.summary.committed_txns > 0, protocol
            assert result.throughput > 0, protocol

    def test_views_advance_continuously(self, baseline_results):
        for protocol, result in baseline_results.items():
            views = [replica.current_view for replica in result.replicas]
            # Streamlined protocols advance a view per phase; the slotted variant
            # advances a view per timer expiration, so its count is lower.
            minimum = 5 if protocol == "hotstuff-1-slotting" else 10
            assert max(views) > minimum, protocol

    def test_liveness_with_f_crashed_replicas(self):
        from repro.consensus.byzantine import CrashBehavior

        result = small_run("hotstuff-1", n=4, behaviors={3: CrashBehavior()}, duration=0.4)
        assert result.summary.committed_txns > 0

    def test_slotted_liveness_with_crash(self):
        from repro.consensus.byzantine import CrashBehavior

        result = small_run("hotstuff-1-slotting", n=4, behaviors={3: CrashBehavior()}, duration=0.4)
        assert result.summary.committed_txns > 0


class TestSafety:
    def test_honest_ledgers_are_prefix_consistent(self, baseline_results):
        for protocol, result in baseline_results.items():
            chains = [
                [block.block_hash for block in replica.ledger.committed.blocks()]
                for replica in result.replicas
            ]
            longest = max(chains, key=len)
            for chain in chains:
                assert chain == longest[: len(chain)], protocol

    def test_state_machines_agree_on_common_prefix(self, baseline_results):
        for protocol, result in baseline_results.items():
            # Compare the committed-ledger digests of the two replicas with the
            # shortest ledgers (their full states may differ only by speculation).
            replicas = sorted(result.replicas, key=lambda r: len(r.ledger.committed))
            short, other = replicas[0], replicas[1]
            prefix_length = len(short.ledger.committed)
            digest_a = [b.block_hash for b in short.ledger.committed.blocks()]
            digest_b = [b.block_hash for b in other.ledger.committed.blocks()][:prefix_length]
            assert digest_a == digest_b, protocol

    def test_committed_blocks_form_a_chain(self, baseline_results):
        for protocol, result in baseline_results.items():
            replica = result.replicas[0]
            blocks = replica.ledger.committed.blocks()
            for parent, child in zip(blocks, blocks[1:]):
                assert child.parent_hash == parent.block_hash, protocol


class TestLatencyOrdering:
    def test_hotstuff1_has_lowest_latency(self, baseline_results):
        latency = {p: baseline_results[p].latency_ms for p in EVALUATION_PROTOCOLS}
        assert latency["hotstuff-1"] < latency["hotstuff-2"] < latency["hotstuff"]

    def test_latency_reduction_magnitude_matches_paper_shape(self, baseline_results):
        latency = {p: baseline_results[p].latency_ms for p in ("hotstuff", "hotstuff-2", "hotstuff-1")}
        vs_hotstuff = 1 - latency["hotstuff-1"] / latency["hotstuff"]
        vs_hotstuff2 = 1 - latency["hotstuff-1"] / latency["hotstuff-2"]
        # Paper: up to 41.5% lower than HotStuff and 24.2% lower than HotStuff-2.
        assert 0.25 <= vs_hotstuff <= 0.55
        assert 0.10 <= vs_hotstuff2 <= 0.40

    def test_streamlined_protocols_have_similar_throughput(self, baseline_results):
        throughputs = [baseline_results[p].throughput for p in ("hotstuff", "hotstuff-2", "hotstuff-1")]
        assert max(throughputs) / min(throughputs) < 1.15

    def test_basic_variant_has_roughly_half_throughput(self, baseline_results):
        basic = baseline_results["hotstuff-1-basic"].throughput
        streamlined = baseline_results["hotstuff-1"].throughput
        assert 0.3 < basic / streamlined < 0.7


class TestSpeculation:
    def test_hotstuff1_variants_speculate(self, baseline_results):
        for protocol in ("hotstuff-1", "hotstuff-1-basic", "hotstuff-1-slotting"):
            assert baseline_results[protocol].summary.speculative_executions > 0, protocol

    def test_baselines_never_speculate(self, baseline_results):
        for protocol in ("hotstuff", "hotstuff-2"):
            assert baseline_results[protocol].summary.speculative_executions == 0, protocol

    def test_clients_complete_on_speculative_responses(self, baseline_results):
        samples = baseline_results["hotstuff-1"].client_pool.metrics.samples
        speculative_fraction = sum(1 for s in samples if s.speculative) / len(samples)
        assert speculative_fraction > 0.8

    def test_no_rollbacks_in_fault_free_runs(self, baseline_results):
        for protocol, result in baseline_results.items():
            assert result.summary.rollbacks == 0, protocol

    def test_disabling_speculation_removes_latency_advantage(self):
        with_speculation = small_run("hotstuff-1", seed=21)
        without_speculation = small_run("hotstuff-1", seed=21, speculation_enabled=False)
        assert without_speculation.latency_ms > with_speculation.latency_ms
        assert without_speculation.summary.speculative_executions == 0


class TestSlotting:
    def test_leaders_propose_multiple_slots_per_view(self):
        result = small_run("hotstuff-1-slotting", duration=0.3)
        slots_per_leader = [replica.slots_proposed_total for replica in result.replicas]
        views_led = max(replica.current_view for replica in result.replicas) / result.spec.n
        assert max(slots_per_leader) > views_led  # strictly more slots than views led

    def test_slotted_blocks_carry_view_and_slot_numbers(self):
        result = small_run("hotstuff-1-slotting", duration=0.3)
        blocks = result.replicas[0].ledger.committed.blocks()
        slots_seen = {block.slot for block in blocks}
        assert max(slots_seen) >= 2

    def test_slotted_matches_streamlined_throughput_fault_free(self):
        slotted = small_run("hotstuff-1-slotting", duration=0.3)
        streamlined = small_run("hotstuff-1", duration=0.3)
        assert slotted.throughput > 0.7 * streamlined.throughput


class TestRegistry:
    def test_all_five_protocols_registered(self):
        assert set(PROTOCOLS) == {
            "hotstuff",
            "hotstuff-2",
            "hotstuff-1",
            "hotstuff-1-basic",
            "hotstuff-1-slotting",
        }

    def test_replica_class_lookup(self):
        for name, cls in PROTOCOLS.items():
            assert replica_class_for(name) is cls

    def test_unknown_protocol_raises(self):
        with pytest.raises(ConfigurationError):
            replica_class_for("pbft")

    def test_client_quorums_match_paper(self):
        config = ProtocolConfig(n=31)
        assert client_quorum_for("hotstuff", config) == config.f + 1
        assert client_quorum_for("hotstuff-2", config) == config.f + 1
        assert client_quorum_for("hotstuff-1", config) == config.n - config.f
        assert client_quorum_for("hotstuff-1-slotting", config) == config.n - config.f


class TestWorkloadIntegration:
    def test_tpcc_workload_runs_end_to_end(self):
        result = small_run(
            "hotstuff-1",
            workload="tpcc",
            workload_kwargs={"warehouses": 1, "items": 50},
            duration=0.2,
        )
        assert result.summary.committed_txns > 0

    def test_tpcc_is_slower_than_ycsb(self):
        ycsb = small_run("hotstuff-1", batch_size=50, duration=0.3)
        tpcc = small_run(
            "hotstuff-1",
            batch_size=50,
            duration=0.3,
            workload="tpcc",
            workload_kwargs={"warehouses": 1, "items": 50},
        )
        assert tpcc.throughput < ycsb.throughput


class TestMalformedTransaction:
    def test_run_commits_past_a_request_that_cannot_execute(self, monkeypatch):
        """A ``ycsb_write`` without a ``value`` used to raise out of every
        replica's ledger; it is now one failed outcome and the run goes on."""
        from repro.ledger.transaction import Transaction
        from repro.workloads.ycsb import YCSBWorkload

        bad_id = 499
        generate = YCSBWorkload.next_transaction

        def next_transaction(self, client_id, rng, now=0.0):
            txn = generate(self, client_id, rng, now)
            if txn.txn_id != bad_id:
                return txn
            return Transaction.create(
                client_id, "ycsb_write", {"key": txn.payload["key"]}, submitted_at=now, txn_id=bad_id
            )

        monkeypatch.setattr(YCSBWorkload, "next_transaction", next_transaction)
        result = small_run("hotstuff-1", n=4, batch_size=20, duration=0.2)
        chain = max((replica.ledger.committed.blocks() for replica in result.replicas), key=len)
        bad_height = next(
            height for height, block in enumerate(chain)
            if any(txn.txn_id == bad_id for txn in block.transactions)
        )
        assert bad_height < len(chain) - 1, "nothing committed after the bad request"
        # Replicas at the same height hold the same committed state.
        digests = {replica.ledger.snapshot_committed_state()[1] for replica in result.replicas
                   if len(replica.ledger.committed) == len(chain)}
        assert len(digests) == 1
