"""Shared helpers for the benchmark suite.

Every figure benchmark runs its registered scenario through the declarative
scenario engine (:func:`run_scenario_once` →
:func:`repro.experiments.executor.execute_scenario`), so the environment
knobs below act as suite-level overrides applied to every series:

* ``REPRO_BENCH_SCALE`` — ``quick`` (default) runs a scaled-down grid,
  ``full`` approaches the paper's grid (see :func:`pick`);
* ``REPRO_BENCH_JOBS`` — process-pool width for independent runs (default:
  serial);
* ``REPRO_BENCH_REPEATS`` — repeats per grid point; rows then aggregate to
  mean ± stddev over seeds ``seed .. seed+repeats-1``.
"""

from __future__ import annotations

import os
import re

import pytest

from repro.experiments.executor import execute_scenario
from repro.experiments.report import format_series, print_series
from repro.experiments.scenarios import scenario_spec

#: "quick" (default) runs a scaled-down grid; "full" approaches the paper's grid.
SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()

#: Suite-level engine overrides injected into every benchmarked series.
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "1"))

#: Directory where each benchmark drops its rendered series table.
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def is_full() -> bool:
    """Return ``True`` when the full paper-scale grid was requested."""
    return SCALE == "full"


def pick(quick, full):
    """Select the quick or full variant of a parameter grid."""
    return full if is_full() else quick


def suite_overrides() -> dict:
    """The engine overrides every series runs with (jobs / repeats)."""
    overrides = {}
    if JOBS > 1:
        overrides["jobs"] = JOBS
    if REPEATS > 1:
        overrides["repeats"] = REPEATS
    return overrides


def _slugify(title: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")
    return slug[:80] or "series"


def run_series_once(benchmark, series_fn, title, **kwargs):
    """Run a scenario series exactly once under pytest-benchmark.

    The series executes through the scenario engine with the suite-level
    overrides from the environment (``REPRO_BENCH_JOBS`` /
    ``REPRO_BENCH_REPEATS``) merged in.  The rendered table is printed
    (visible with ``pytest -s``) and also written to
    ``benchmarks/results/<slug>.txt`` so the regenerated figures survive
    output capturing.
    """
    for key, value in suite_overrides().items():
        kwargs.setdefault(key, value)
    result_holder = {}

    def runner():
        result_holder["rows"] = series_fn(**kwargs)
        return result_holder["rows"]

    benchmark.pedantic(runner, rounds=1, iterations=1)
    rows = result_holder.get("rows", [])
    table = format_series(rows, title=f"{title}  [scale={SCALE}]")
    print()
    print(table)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{_slugify(title)}.txt"), "w") as handle:
        handle.write(table)
    return rows


def run_scenario_once(benchmark, name, title, **overrides):
    """Run the registered scenario *name* (with factory *overrides*) exactly once.

    The figure goes straight through the engine —
    ``execute_scenario(scenario_spec(name, **overrides), jobs=...)`` — with
    ``REPRO_BENCH_JOBS`` as the pool width and ``REPRO_BENCH_REPEATS`` as the
    factory's ``repeats``; rendering and the results file are
    :func:`run_series_once`'s.
    """

    def series(jobs=None, **factory_overrides):
        return execute_scenario(scenario_spec(name, **factory_overrides), jobs=jobs)

    return run_series_once(benchmark, series, title, **overrides)
