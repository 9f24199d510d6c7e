"""Experiment harness.

The harness turns a declarative :class:`~repro.experiments.runner.ExperimentSpec`
into a full simulated deployment (replicas, clients, network, faults), runs it
for a fixed simulated duration and returns a
:class:`~repro.consensus.metrics.MetricsSummary`.

On top of single runs sits the scenario engine:

* :mod:`repro.experiments.spec` — pure-data :class:`ScenarioSpec` /
  :class:`SuiteSpec` descriptions (JSON-serializable) and the grid expander
  that flattens them into deterministic run lists;
* :mod:`repro.experiments.executor` — serial and process-pool runners plus
  per-repeat aggregation (mean / stddev rows);
* :mod:`repro.experiments.scenarios` — one registered spec per figure of the
  paper's evaluation (§7); run one with
  ``execute_scenario(scenario_spec(name, **overrides), jobs=...)``;
* :mod:`repro.experiments.report` — renders results as the same series the
  paper plots.
"""

from repro.experiments.executor import (
    ParallelRunner,
    SerialRunner,
    aggregate_records,
    execute_scenario,
    execute_suite,
)
from repro.experiments.report import format_series, format_suite, print_series
from repro.experiments.runner import ExperimentSpec, RunResult, run_experiment
from repro.experiments.spec import (
    RunRecord,
    RunRequest,
    ScenarioSpec,
    SuiteSpec,
    expand_scenario,
    expand_suite,
    load_suite,
)
from repro.experiments.scenarios import SCENARIOS, default_suite, scenario_spec

__all__ = [
    "ExperimentSpec",
    "ParallelRunner",
    "RunRecord",
    "RunRequest",
    "RunResult",
    "SCENARIOS",
    "ScenarioSpec",
    "SerialRunner",
    "SuiteSpec",
    "aggregate_records",
    "default_suite",
    "execute_scenario",
    "execute_suite",
    "expand_scenario",
    "expand_suite",
    "format_series",
    "format_suite",
    "load_suite",
    "print_series",
    "run_experiment",
    "scenario_spec",
]
