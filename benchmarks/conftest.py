"""Shared helpers for the benchmark suite.

Every figure benchmark runs its registered scenario through the declarative
scenario engine (:func:`run_scenario_once` →
:func:`repro.experiments.executor.execute_scenario`), so the environment
knobs below act as suite-level overrides applied to every series:

* ``REPRO_BENCH_SCALE`` — ``quick`` (default) runs a scaled-down grid,
  ``full`` approaches the paper's grid (see :func:`pick`);
* ``REPRO_BENCH_JOBS`` — process-pool width for independent runs (default:
  1, serial);
* ``REPRO_BENCH_REPEATS`` — repeats per grid point (default: 1); rows then
  aggregate to mean ± stddev over seeds ``seed .. seed+repeats-1``.

Any other value is a usage error (:func:`bench_env`): the tables are tracked
golden files, and a mistyped knob must not run one grid while its name is
written into every table.
"""

from __future__ import annotations

import os
import re
from typing import Tuple

import pytest

from repro.experiments.executor import execute_scenario
from repro.experiments.report import format_series
from repro.experiments.scenarios import scenario_spec

#: The values ``REPRO_BENCH_SCALE`` may take.
SCALES = ("quick", "full")

#: Directory where each benchmark drops its rendered series table.
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _positive_int(name: str) -> int:
    raw = os.environ.get(name, "1")
    if not re.fullmatch(r"[0-9]+", raw) or int(raw) < 1:
        raise pytest.UsageError(f"{name}={raw!r}: expected a positive integer")
    return int(raw)


def bench_env() -> Tuple[str, int, int]:
    """``(scale, jobs, repeats)`` from ``REPRO_BENCH_SCALE`` / ``_JOBS`` / ``_REPEATS``.

    Raises :class:`pytest.UsageError` naming the variable and what it allows.
    """
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    if scale not in SCALES:
        raise pytest.UsageError(f"REPRO_BENCH_SCALE={scale!r}: expected one of {'|'.join(SCALES)}")
    return scale, _positive_int("REPRO_BENCH_JOBS"), _positive_int("REPRO_BENCH_REPEATS")


def pytest_configure(config):
    bench_env()  # refuse a bad value before any figure runs


def is_full() -> bool:
    """Return ``True`` when the full paper-scale grid was requested."""
    return bench_env()[0] == "full"


def pick(quick, full):
    """Select the quick or full variant of a parameter grid."""
    return full if is_full() else quick


def _slugify(title: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")
    return slug[:80] or "series"


def run_scenario_once(benchmark, name, title, **overrides):
    """Run the registered scenario *name* (with factory *overrides*) exactly once.

    The figure goes straight through the engine —
    ``execute_scenario(scenario_spec(name, **overrides), jobs=...)`` — with
    ``REPRO_BENCH_JOBS`` as the pool width and ``REPRO_BENCH_REPEATS`` as the
    factory's ``repeats``.  The rendered table is printed (visible with
    ``pytest -s``) and written to ``benchmarks/results/<slug>.txt``.
    """
    scale, jobs, repeats = bench_env()
    if repeats > 1:
        overrides.setdefault("repeats", repeats)
    spec = scenario_spec(name, **overrides)
    rows = benchmark.pedantic(
        execute_scenario, args=(spec,), kwargs={"jobs": jobs if jobs > 1 else None},
        rounds=1, iterations=1,
    )
    table = format_series(rows, title=f"{title}  [scale={scale}]")
    print()
    print(table)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{_slugify(title)}.txt"), "w") as handle:
        handle.write(table)
    return rows
