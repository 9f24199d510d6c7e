"""Tier-1 oracle for the protocol layer.

The simulator is deterministic, so a short run of each protocol is a
fingerprint of its behaviour: the committed hash chain, the client-visible
numbers and the message mix.  A refactor of the protocol layer must leave
every row below unchanged; a row that moves names the protocol whose
behaviour changed.  The runs cover every registered protocol, slotting with a
pipelined leader, and two Byzantine behaviours (rollback attack and
tail-forking), which exercise the equivocation, justify-choice and
rollback paths.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.consensus.byzantine import RollbackAttackBehavior, TailForkingBehavior
from repro.consensus.replica import honest_committed_chains
from repro.experiments.runner import ExperimentSpec, run_experiment

#: Run name -> spec overrides of the shared short run (n = 4, batch 20, 0.2 s).
RUNS = {
    "hotstuff": dict(protocol="hotstuff"),
    "hotstuff-2": dict(protocol="hotstuff-2"),
    "hotstuff-1": dict(protocol="hotstuff-1"),
    "hotstuff-1-basic": dict(protocol="hotstuff-1-basic"),
    "hotstuff-1-slotting": dict(protocol="hotstuff-1-slotting"),
    "slotting-depth-2": dict(protocol="hotstuff-1-slotting", pipeline_depth=2),
    "rollback-attack": dict(
        protocol="hotstuff-1",
        n=7,
        view_timeout=0.01,
        behaviors=lambda: {0: RollbackAttackBehavior(victims=[2, 3], colluders=[0, 1])},
    ),
    "tail-forking": dict(
        protocol="hotstuff-1",
        n=7,
        view_timeout=0.01,
        behaviors=lambda: {0: TailForkingBehavior(), 1: TailForkingBehavior()},
    ),
}

#: Pinned fingerprints.  Every row but ``hotstuff-1-basic`` was measured before the
#: protocol skeleton moved into ``BaseReplica``; basic's moved once, when its
#: traditional-rule commit stopped charging the execution of blocks it had
#: already speculated (5446.667 -> 5580.0 txn/s, 4.7552 -> 4.6958 ms).
EXPECTED = {
    "hotstuff": {
        "chain": "e012d31514173935",
        "blocks": 158,
        "tps": 13800.0,
        "mean_ms": 6.211,
        "p99_ms": 6.211,
        "rollbacks": 0,
        "sent_by_type": {
            "ClientRequest": 2900,
            "ClientResponseBatch": 628,
            "NewView": 648,
            "Propose": 644,
        },
    },
    "hotstuff-1": {
        "chain": "ce3146dcaf48d768",
        "blocks": 157,
        "tps": 13906.667,
        "mean_ms": 3.7866,
        "p99_ms": 3.7866,
        "rollbacks": 0,
        "sent_by_type": {
            "ClientRequest": 2862,
            "ClientResponseBatch": 624,
            "NewView": 636,
            "Propose": 636,
        },
    },
    "hotstuff-1-basic": {
        "chain": "80a758ca6c6cee32",
        "blocks": 84,
        "tps": 5580.0,
        "mean_ms": 4.6958,
        "p99_ms": 4.6958,
        "rollbacks": 0,
        "sent_by_type": {
            "ClientRequest": 1161,
            "ClientResponseBatch": 336,
            "NewView": 344,
            "Prepare": 340,
            "Propose": 340,
            "ProposeVote": 340,
        },
    },
    "hotstuff-1-slotting": {
        "chain": "22803093b8ffa994",
        "blocks": 157,
        "tps": 14453.333,
        "mean_ms": 4.831904,
        "p99_ms": 7.6796,
        "rollbacks": 0,
        "sent_by_type": {
            "ClientRequest": 3024,
            "ClientResponseBatch": 601,
            "NewSlot": 628,
            "NewView": 28,
            "Propose": 636,
            "TimeoutCertificateMsg": 48,
            "ViewSync": 100,
            "Wish": 32,
        },
    },
    "hotstuff-2": {
        "chain": "958df3d67650ff90",
        "blocks": 159,
        "tps": 13920.0,
        "mean_ms": 4.9688,
        "p99_ms": 4.9688,
        "rollbacks": 0,
        "sent_by_type": {
            "ClientRequest": 2900,
            "ClientResponseBatch": 632,
            "NewView": 648,
            "Propose": 644,
        },
    },
    "rollback-attack": {
        "chain": "c44dad260dce7d8a",
        "blocks": 124,
        "tps": 9026.667,
        "mean_ms": 5.834243,
        "p99_ms": 9.5622,
        "rollbacks": 40,
        "sent_by_type": {
            "ClientRequest": 1888,
            "ClientResponseBatch": 768,
            "FetchRequest": 40,
            "FetchResponse": 40,
            "NewView": 1030,
            "Propose": 1029,
        },
    },
    "slotting-depth-2": {
        "chain": "5e5d7a68fe8fe01c",
        "blocks": 238,
        "tps": 13280.0,
        "mean_ms": 5.259071,
        "p99_ms": 9.611,
        "rollbacks": 0,
        "sent_by_type": {
            "ClientRequest": 2824,
            "ClientResponseBatch": 616,
            "FetchRequest": 120,
            "FetchResponse": 120,
            "NewSlot": 962,
            "NewView": 28,
            "Propose": 984,
            "TimeoutCertificateMsg": 48,
            "ViewSync": 100,
            "Wish": 32,
        },
    },
    "tail-forking": {
        "chain": "bb2e1393bce25ea2",
        "blocks": 109,
        "tps": 6306.667,
        "mean_ms": 8.034792,
        "p99_ms": 12.9876,
        "rollbacks": 0,
        "sent_by_type": {
            "ClientRequest": 1388,
            "ClientResponseBatch": 469,
            "NewView": 1092,
            "Propose": 1085,
        },
    },
}


def fingerprint(name):
    """Run *name* and reduce it to what the oracle pins."""
    overrides = dict(RUNS[name])
    if "behaviors" in overrides:
        overrides["behaviors"] = overrides["behaviors"]()
    spec = ExperimentSpec(**{"n": 4, "batch_size": 20, "duration": 0.2, "warmup": 0.05, **overrides})
    result = run_experiment(spec)
    chain = max(honest_committed_chains(result.replicas), key=len)
    return {
        "chain": hashlib.sha256("".join(chain).encode()).hexdigest()[:16],
        "blocks": len(chain),
        "tps": round(result.throughput, 3),
        "mean_ms": round(result.latency_ms, 6),
        "p99_ms": round(result.summary.p99_latency * 1000.0, 6),
        "rollbacks": result.summary.rollbacks,
        "sent_by_type": dict(sorted(result.network_stats["sent_by_type"].items())),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_protocol_fingerprint_is_pinned(name):
    assert fingerprint(name) == EXPECTED[name]


def test_same_spec_twice_in_one_process_commits_the_same_chain():
    """Transaction ids are numbered per run, so a run's block hashes do not
    depend on what ran before it in the process."""
    assert fingerprint("hotstuff-1-slotting") == fingerprint("hotstuff-1-slotting")
