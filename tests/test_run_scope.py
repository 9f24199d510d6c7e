"""The run scope every placement enters: fresh codec memos and the collector policy.

Inside a run the cyclic collector's young generation collects every
:data:`~repro.experiments.runner.RUN_GC_THRESHOLD` net allocations; on every
exit, exceptions included, the thresholds the process had before the run come
back.  The process here starts from deliberately odd thresholds so that a
scope restoring CPython's defaults instead of the caller's would show.
"""

from __future__ import annotations

import gc

import pytest

from repro.consensus.replica import BaseReplica
from repro.experiments.runner import RUN_GC_THRESHOLD, ExperimentSpec, run_experiment, run_scope
from repro.live.deploy import run_live_experiment

OUTSIDE = (1234, 7, 9)
INSIDE = (RUN_GC_THRESHOLD, 7, 9)


@pytest.fixture(autouse=True)
def outside_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*OUTSIDE)
    yield
    gc.set_threshold(*saved)


@pytest.fixture
def seen_at_view_entry(monkeypatch):
    """The thresholds in force each time a replica entered a view."""
    seen = []
    enter = BaseReplica.on_enter_view

    def recording(replica, view):
        seen.append(gc.get_threshold())
        enter(replica, view)

    monkeypatch.setattr(BaseReplica, "on_enter_view", recording)
    return seen


def _spec(mode, **overrides):
    return ExperimentSpec(
        protocol="hotstuff-1", mode=mode, n=4, batch_size=10,
        duration=0.2 if mode == "sim" else 5.0, warmup=0.05, **overrides,
    )


def test_sim_run_holds_the_policy_and_restores_the_thresholds(seen_at_view_entry):
    run_experiment(_spec("sim"))
    assert seen_at_view_entry and set(seen_at_view_entry) == {INSIDE}
    assert gc.get_threshold() == OUTSIDE


def test_live_run_holds_the_policy_and_restores_the_thresholds(seen_at_view_entry):
    started = []
    result = run_live_experiment(
        _spec("live"), target_ops=100, on_started=lambda _info: started.append(gc.get_threshold())
    )
    assert result.summary.committed_txns > 0
    assert started == [INSIDE]
    assert seen_at_view_entry and set(seen_at_view_entry) == {INSIDE}
    assert gc.get_threshold() == OUTSIDE


def test_sim_run_that_raises_restores_the_thresholds(monkeypatch):
    def failing(replica, view):
        assert gc.get_threshold() == INSIDE
        raise RuntimeError("view entry failed")

    monkeypatch.setattr(BaseReplica, "on_enter_view", failing)
    with pytest.raises(RuntimeError, match="view entry failed"):
        run_experiment(_spec("sim"))
    assert gc.get_threshold() == OUTSIDE


def test_live_run_that_raises_restores_the_thresholds():
    def failing(_info):
        assert gc.get_threshold() == INSIDE
        raise RuntimeError("on_started failed")

    with pytest.raises(RuntimeError, match="on_started failed"):
        run_live_experiment(_spec("live"), target_ops=100, on_started=failing)
    assert gc.get_threshold() == OUTSIDE


def test_scope_restores_on_a_raise_in_its_body():
    with pytest.raises(KeyError):
        with run_scope(_spec("sim")):
            assert gc.get_threshold() == INSIDE
            raise KeyError("body")
    assert gc.get_threshold() == OUTSIDE
