"""Smoke test of the benchmark harness at ``--quick`` scale (a few seconds).

Checks the contract between ``BENCHMARK.json`` and what a run prints: every
declared metric present under its declared unit, no undeclared one, names
well-formed; and that a run which fails verification exits non-zero with
every attempted operation counted as failed.
"""

import dataclasses
import json
import re

import pytest

from bench import cli, workloads
from bench.compare import verdict
from bench.declared import BENCHMARK, END_TO_END, PER_LAYER

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(capsys, *argv):
    code = cli.main(["run", "--quick", "--workload", "sim-crash", *argv])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return code, result


def _assert_schema(result, declared):
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert NAME.match(name)
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == declared[name][0]
        assert isinstance(entry["value"], (int, float))


def test_declared_workloads_are_the_harness_workloads():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert declared == list(workloads.WORKLOADS)
    assert all(NAME.match(name) for name in declared)
    assert BENCHMARK["run_seconds"] == workloads.RUN_SECONDS


def test_traced_quick_run_reports_every_per_layer_metric(capsys):
    code, result = _run(capsys, "--trace", "1")
    assert code == 0 and result["correct"] and result["failed"] == 0
    _assert_schema(result, PER_LAYER)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["trace.coverage_frac"] > 0.5
    assert metrics["crypto.verify_vote_us"] > 0  # an isolated timing ran
    assert metrics["fault.recovery_s"] > 0  # the crashed leader came back


def test_floor_violation_fails_the_run(capsys, monkeypatch):
    starved = dataclasses.replace(workloads.WORKLOADS["sim-crash"], floor_tps=1e12)
    monkeypatch.setitem(workloads.WORKLOADS, "sim-crash", starved)
    code, result = _run(capsys, "--trace", "0")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    _assert_schema(result, END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize(
    "base, other, better, expected",
    [
        ([100.0], [140.0], "lower", "regressed"),
        ([100.0], [60.0], "higher", "regressed"),
        ([100.0], [104.0], "lower", "unchanged"),
        ([100.0], [50.0], "lower", "improved"),
        ([100, 101, 99, 100, 102], [90, 91, 89, 90, 92], "lower", "improved"),
        ([100, 160, 60, 100, 140], [100, 101, 99, 100, 102], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(base, other, better, expected):
    assert verdict(base, other, better, bound=0.25)[0] == expected
