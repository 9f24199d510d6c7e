"""The *verify* phase every placement ends in.

One run lifecycle means one safety check: a sim run, an in-process live run
and the coordinator's fold of replica-process result files all feed their
honest replicas' committed hash chains to the same
:func:`repro.experiments.runner.verify`, which raises
:class:`SafetyViolationError` unless every chain is a prefix of the longest.
"""

from __future__ import annotations

import pytest

from repro.consensus.replica import BaseReplica, chains_prefix_consistent
from repro.errors import ConsensusError, SafetyViolationError
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.ledger.blockstore import BlockStore
from repro.ledger.ledger import CommittedLedger
from repro.live.procs import verify_results
from tests.conftest import build_chain

FORK = "f" * 64


@pytest.fixture
def forked_replica(monkeypatch):
    """Make honest replica 2 report a committed chain whose head is a fork."""
    forked = []
    start, hashes = BaseReplica.start, CommittedLedger.hashes

    def tracking_start(replica, *args, **kwargs):
        if replica.replica_id == 2:
            forked.append(replica.ledger.committed)
        return start(replica, *args, **kwargs)

    def forked_hashes(ledger):
        chain = hashes(ledger)
        if any(ledger is marked for marked in forked) and len(chain) > 1:
            chain[-1] = FORK
        return chain

    monkeypatch.setattr(BaseReplica, "start", tracking_start)
    monkeypatch.setattr(CommittedLedger, "hashes", forked_hashes)


def _run_replicas(mode, **overrides):
    spec = ExperimentSpec(
        protocol="hotstuff-1", mode=mode, n=4, batch_size=10,
        duration=0.3 if mode == "sim" else 1.0, warmup=0.05, **overrides,
    )
    return run_experiment(spec).replicas


def _fold_result_files(**overrides):
    """The coordinator's result-file path, fed two hand-written documents."""
    spec = ExperimentSpec(protocol="hotstuff-1", mode="live", n=4, **overrides)
    document = {"committed_txn_ids": [1, 2], "counters": {"delivery_errors": 0}}
    results = {
        0: {**document, "committed_hashes": ["a" * 64, "b" * 64, "c" * 64]},
        1: {**document, "committed_hashes": ["a" * 64, FORK]},
    }
    return verify_results(spec, results, {})


@pytest.mark.parametrize("placement", ["sim", "live", "result-files"])
class TestVerifyCatchesADivergentPrefix:
    def _run(self, placement, **overrides):
        if placement == "result-files":
            return _fold_result_files(**overrides)
        return _run_replicas(placement, **overrides)

    def test_divergence_raises_a_safety_violation(self, placement, forked_replica):
        with pytest.raises(SafetyViolationError, match="not prefixes"):
            self._run(placement)
        assert issubclass(SafetyViolationError, ConsensusError)

    def test_check_safety_off_reports_instead_of_raising(self, placement, forked_replica):
        outcome = self._run(placement, check_safety=False)
        if placement == "result-files":
            assert outcome["prefix_consistent"] is False
        else:
            chains = [replica.ledger.committed.hashes() for replica in outcome]
            assert not chains_prefix_consistent(chains)


def test_result_files_carry_child_handler_errors_into_verify():
    spec = ExperimentSpec(protocol="hotstuff-1", mode="live", n=4)
    results = {
        rid: {"committed_hashes": ["a" * 64], "committed_txn_ids": [],
              "counters": {"delivery_errors": 0}}
        for rid in range(2)
    }
    results[1]["counters"]["delivery_errors"] = 3
    results[1]["first_delivery_error"] = "RuntimeError('boom')"
    with pytest.raises(ConsensusError, match=r"replica 1 .*3 delivery error.*RuntimeError\('boom'\)"):
        verify_results(spec, results, {})


def test_prefix_check_spans_checkpoint_collapsed_prefixes():
    """A replica that collapsed (or restored from) a checkpoint keeps its
    prefix by hash only; the one prefix definition compares full histories."""
    chain = build_chain(BlockStore(), 5)
    hashes = [block.block_hash for block in chain]
    full, collapsed, restored = CommittedLedger(), CommittedLedger(), CommittedLedger()
    for block in chain:
        full.append(block)
        collapsed.append(block)
    assert collapsed.collapse_below(4) == 4
    restored.restore_base(hashes[:3])  # a rejoiner two commits behind
    chains = [ledger.hashes() for ledger in (full, collapsed, restored)]
    assert chains[0] == chains[1] == hashes
    assert chains_prefix_consistent(chains)
    forked = CommittedLedger()
    forked.restore_base(hashes[:2] + [FORK])  # a hash-only position still diverges detectably
    assert not chains_prefix_consistent([full.hashes(), forked.hashes()])
