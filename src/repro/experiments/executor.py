"""Execute expanded scenario grids, serially or across a process pool.

Every :class:`~repro.experiments.spec.RunRequest` is a pure function of its
parameters and seed, so the pool can execute requests in any order and on any
worker; results are keyed by the request's index and re-assembled into the
deterministic expansion order before aggregation.  Per-repeat records of the
same grid point are folded into one report row (mean, and ``*_std`` columns
when more than one repeat ran).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from statistics import fmean, pstdev
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.spec import (
    POST_PROCESSORS,
    RunRecord,
    RunRequest,
    ScenarioSpec,
    SuiteSpec,
    expand_scenario,
    expand_suite,
    resolve_point_builder,
)

#: Report columns aggregated over repeats, with their rounding (digits).
METRIC_COLUMNS: Dict[str, int] = {
    "throughput_tps": 1,
    "avg_latency_ms": 3,
    "p99_latency_ms": 3,
    "committed_txns": 1,
    "rollbacks": 1,
    "recovery_ms": 3,
    "ops_lost": 1,
}

#: Boolean columns folded with all() over repeats: one bad repeat (e.g. a
#: committed-prefix divergence) must surface in the aggregated row.
BOOL_AND_COLUMNS = ("prefix_ok",)


class PointParams(dict):
    """One grid point's parameters, remembering which keys the point builder read.

    ``params[name]`` on a missing key raises a pointed
    :class:`~repro.errors.ConfigurationError` (hand-written scenario configs
    reach point builders unchecked); ``name in params`` does not count as a
    read.
    """

    def __init__(self, params: Dict[str, Any], **extra: Any) -> None:
        super().__init__(params, **extra)
        self.read: set = set()

    def __getitem__(self, key: str) -> Any:
        self.read.add(key)
        return super().__getitem__(key)

    def __missing__(self, key: str) -> Any:
        raise ConfigurationError(f"scenario is missing the parameter {key!r} its kind requires")

    def get(self, key: str, default: Any = None) -> Any:
        self.read.add(key)
        return super().get(key, default)


def execute_request(request: RunRequest) -> RunRecord:
    """Run one request in the current process and return its record."""
    from repro.experiments.runner import run_experiment

    builder = resolve_point_builder(request.kind)
    params = PointParams(request.params, seed=request.seed)
    spec, extras = builder(request.protocol, params)
    # Every spec knob is an engine-level knob: a param (or an axis, which the
    # grid expansion sweeps like any other value) that names a spec field the
    # point builder did not read itself is applied on top of what it built.
    # So a live mode param runs any point of any scenario over real sockets,
    # a fault plan turns it into a chaos run, a trace switch attaches a
    # recorder (whose phase columns land in the report row) — without any
    # point builder threading those through.  Anything else is a typo or a
    # knob that no longer exists, and running the defaults instead would
    # pass for a result.
    spec_fields = {spec_field.name for spec_field in dataclasses.fields(spec)}
    unknown = params.keys() - params.read - spec_fields
    if unknown:
        raise ConfigurationError(
            f"{request.kind!r} scenario params {sorted(unknown)} are neither read by its "
            "point builder nor the name of a spec knob"
        )
    for name in (params.keys() & spec_fields) - params.read:
        if params[name] is not None:
            setattr(spec, name, params[name])
    result = run_experiment(spec)
    # Unrounded values backing every aggregated column, so repeat means
    # and post-processors never inherit display rounding.
    metrics = {
        "latency_ms": result.latency_ms,
        "throughput": result.throughput,
        "throughput_tps": result.throughput,
        "avg_latency_ms": result.latency_ms,
        "p99_latency_ms": result.summary.p99_latency * 1000.0,
        "committed_txns": float(result.summary.committed_txns),
        "rollbacks": float(result.summary.rollbacks),
    }
    if result.chaos is not None:
        metrics["ops_lost"] = float(result.chaos.get("ops_lost_to_rollback", 0))
        recovery = result.chaos.get("max_recovery_s")
        if recovery is not None:
            metrics["recovery_ms"] = recovery * 1000.0
    return RunRecord(
        index=request.index,
        group=request.group,
        scenario=request.scenario,
        repeat=request.repeat,
        seed=request.seed,
        row=result.to_row(**extras),
        metrics=metrics,
    )


class SerialRunner:
    """Execute requests one after another in the calling process."""

    def run(self, requests: Sequence[RunRequest]) -> List[RunRecord]:
        return [execute_request(request) for request in requests]


class ParallelRunner:
    """Fan requests out across a ``multiprocessing`` pool.

    Each simulation is a pure deterministic function of its request, so
    completion order does not matter: records are sorted back into expansion
    order, making parallel output bit-identical to a serial run.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs if jobs is not None else multiprocessing.cpu_count()

    def run(self, requests: Sequence[RunRequest]) -> List[RunRecord]:
        if self.jobs == 1 or len(requests) < 2:
            return SerialRunner().run(requests)
        with multiprocessing.Pool(processes=min(self.jobs, len(requests))) as pool:
            records = pool.map(execute_request, requests, chunksize=1)
        return sorted(records, key=lambda record: record.index)


def make_runner(jobs: Optional[int]) -> "SerialRunner | ParallelRunner":
    """``jobs`` of ``None``/1 → serial; anything else → a pool of that width."""
    if jobs is not None and jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if jobs is None or jobs == 1:
        return SerialRunner()
    return ParallelRunner(jobs)


def aggregate_records(records: Sequence[RunRecord]) -> List[Dict[str, Any]]:
    """Fold per-repeat records into one row per grid point × protocol.

    Single-repeat groups pass through unchanged (so existing tables keep
    their historical shape); multi-repeat groups report the mean of every
    metric column, a ``*_std`` population standard deviation right next to
    it, and the repeat count.
    """
    groups: Dict[int, List[RunRecord]] = {}
    for record in sorted(records, key=lambda record: record.index):
        groups.setdefault(record.group, []).append(record)
    rows: List[Dict[str, Any]] = []
    for group in sorted(groups, key=lambda g: groups[g][0].index):
        members = groups[group]
        if len(members) == 1:
            rows.append(dict(members[0].row))
            continue
        first = members[0].row
        row: Dict[str, Any] = {}
        # Iterate the union of columns across the group: a repeat may carry a
        # column the first one lacks (e.g. recovery_ms when repeat 0's replica
        # never recovered) and its values must still be aggregated.
        columns = list(first)
        for member in members[1:]:
            for key in member.row:
                if key not in columns:
                    columns.append(key)
        for column in columns:
            value = first.get(column)
            if value is None and column not in first:
                value = next(
                    member.row[column] for member in members if column in member.row
                )
            if column in METRIC_COLUMNS and isinstance(value, (int, float)) and not isinstance(value, bool):
                digits = METRIC_COLUMNS[column]
                # A member may lack the column (e.g. recovery_ms when one
                # repeat's replica never recovered); average what exists.
                samples = [
                    float(sample)
                    for sample in (
                        member.metrics.get(column, member.row.get(column))
                        for member in members
                    )
                    if isinstance(sample, (int, float))
                ]
                row[column] = round(fmean(samples), digits)
                row[f"{column}_std"] = round(pstdev(samples), digits)
            elif column in BOOL_AND_COLUMNS:
                row[column] = all(
                    member.row[column] for member in members if column in member.row
                )
            else:
                row[column] = value
        row["repeats"] = len(members)
        rows.append(row)
    return rows


def _postprocess(
    scenario: ScenarioSpec, rows: List[Dict[str, Any]], records: Sequence[RunRecord]
) -> List[Dict[str, Any]]:
    hook = POST_PROCESSORS.get(scenario.kind)
    return hook(rows, list(records), scenario) if hook else rows


def execute_scenario(
    scenario: ScenarioSpec,
    jobs: Optional[int] = None,
    repeats: Optional[int] = None,
    seed: Optional[int] = None,
    overrides: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Expand, run and aggregate one scenario; returns its report rows."""
    requests = expand_scenario(scenario, repeats=repeats, seed=seed, overrides=overrides)
    records = make_runner(jobs).run(requests)
    return _postprocess(scenario, aggregate_records(records), records)


def execute_suite(
    suite: SuiteSpec, jobs: Optional[int] = None
) -> Dict[str, List[Dict[str, Any]]]:
    """Run a whole suite and return ``{scenario name: rows}``.

    The entire suite expands into one flat request list before hitting the
    pool, so parallelism spans scenario boundaries — a small scenario's
    stragglers overlap with the next scenario's runs.
    """
    requests = expand_suite(suite)
    records = make_runner(jobs if jobs is not None else suite.jobs).run(requests)
    by_scenario: Dict[str, List[RunRecord]] = {s.name: [] for s in suite.scenarios}
    for record in records:
        by_scenario[record.scenario].append(record)
    return {
        scenario.name: _postprocess(
            scenario,
            aggregate_records(by_scenario[scenario.name]),
            by_scenario[scenario.name],
        )
        for scenario in suite.scenarios
    }
