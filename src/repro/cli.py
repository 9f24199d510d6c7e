"""Command-line interface for the HotStuff-1 reproduction.

Usage (installed as a module)::

    python -m repro run --protocol hotstuff-1 --replicas 16 --duration 0.5
    python -m repro live --protocol hotstuff1 --n 4
    python -m repro chaos kill-leader --protocol hotstuff-1 --duration 1.0
    python -m repro fuzz --protocol hotstuff-1 --seeds 10 --crashes 2
    python -m repro compare --replicas 16 --batch 100
    python -m repro figure fig8-scalability --jobs 4 --repeats 3 --out results.csv
    python -m repro suite fig8-scalability fig10-rollback --jobs 4
    python -m repro suite --config suite.json --out-dir results/
    python -m repro grid --config suite.json
    python -m repro predict --replicas 32 --batch 100

Sub-commands
------------
``run``
    Run one experiment and print its metric summary.
``live``
    Run one experiment on the live asyncio runtime: an n-replica localhost
    TCP cluster plus a client load generator, reported through the same
    pipeline as simulations.  Where its CPU goes per layer is
    ``python3 -m bench run --workload W --trace 1``'s report; a cProfile of
    any spec is ``python -m cProfile -s tottime -m repro live ...``.
``replica``
    Serve one replica process of a multi-process deployment (started by the
    ``live --multiprocess`` coordinator, or by hand on each host).
``chaos``
    Run one experiment (sim or live) under a fault plan — a named preset
    (``kill-replica``, ``kill-leader``, ``cascade``, ``partition-heal``,
    ``blackout``) or a JSON :class:`~repro.faults.plan.FaultPlan` — and
    report recovery time, operations lost to rollback and committed-prefix
    agreement.  ``run`` and ``live`` also accept ``--faults plan.json``
    directly.
``fuzz``
    Crash-point fuzzing: sweep seed-generated fault plans
    (:meth:`~repro.faults.plan.FaultPlan.randomized`) whose crash points hit
    replicas at protocol-relative hooks (before/after the vote WAL append,
    torn tail, mid-certificate-formation) and fail unless every seed keeps
    committed-prefix agreement and the never-vote-twice WAL invariant.  A
    failing seed's plan replays from a file with ``chaos --plan``.
``compare``
    Run every evaluation protocol under the same configuration and print the
    comparison table (plus an ASCII latency chart).
``figure``
    Regenerate one of the paper's figures via the declarative scenario engine
    and optionally export the rows to CSV/JSON.
``suite``
    Run several scenarios as one campaign — either registered figures by name
    or a JSON :class:`~repro.experiments.spec.SuiteSpec` config — fanned out
    across a process pool.
``grid``
    Expand a suite into its flat run list (scenario × point × protocol ×
    repeat, with seeds) without executing anything; the dry-run view of what
    ``suite`` would do.
``snapshot``
    Inspect the durable checkpoint snapshots under a ``--storage-dir``: per
    replica, the latest snapshot's height/view/digest and the (compacted) WAL
    and block-log record counts.
``trace``
    Inspect a JSONL trace dump (written by ``--trace-out`` or streamed by
    ``--trace-stream`` on ``run`` / ``live`` / ``chaos``) and re-export it as
    a Chrome/Perfetto trace or a Prometheus text snapshot; ``--since`` /
    ``--until`` window the report (``watch`` tails a streaming trace live).
``watch``
    Refreshing terminal dashboard over a live run: tail a ``--trace-stream``
    JSONL or poll per-replica ``--scrape-port`` HTTP endpoints (tps, p50/p99,
    current view, speculation lead, fault markers, active SLO alerts).
``predict``
    Print the closed-form performance-model predictions for all protocols.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro.analysis.charts import ascii_bar_chart
from repro.analysis.export import write_rows, write_suite
from repro.analysis.model import AnalyticalModel
from repro.consensus.config import ProtocolConfig
from repro.core.registry import EVALUATION_PROTOCOLS
from repro.errors import ConfigurationError
from repro.experiments.executor import execute_scenario, execute_suite
from repro.experiments.report import (
    chaos_problems,
    format_chaos_report,
    format_multiproc_report,
    format_network_breakdown,
    format_phase_breakdown,
    format_series,
    format_suite,
    format_timeline,
)
from repro.faults.plan import CRASH_HOOKS
from repro.faults.plan import PRESETS as CHAOS_PRESETS
from repro.faults.plan import chaos_preset, load_plan
from repro.experiments.runner import (
    KNOB_GROUPS,
    ExperimentSpec,
    add_spec_arguments,
    run_experiment,
    spec_from_args,
)
from repro.experiments.spec import SuiteSpec, expand_suite, load_suite
from repro.experiments.scenarios import chaos_fuzz_spec, scenario_spec

#: Figure name -> laptop-scale overrides applied by the CLI so every figure
#: regenerates in seconds.  The defaults themselves live only in the spec
#: factories (:data:`repro.experiments.scenarios.SCENARIOS`).
FIGURES: Dict[str, Dict] = {
    "fig8-scalability": {"replica_counts": (4, 16, 32)},
    "fig8-batching": {"batch_sizes": (100, 1000, 5000), "n": 8},
    "fig8-geo-ycsb": {"n": 16, "region_counts": (2, 5)},
    "fig8-geo-tpcc": {"n": 16, "region_counts": (2, 5)},
    "fig9-delay": {"n": 13, "delays_ms": (5.0, 50.0)},
    "fig9-geo": {"n": 13},
    "fig10-slowness": {"n": 16, "slow_leader_counts": (0, 1, 4)},
    "fig10-tailfork": {"n": 16, "faulty_counts": (0, 1, 4)},
    "fig10-rollback": {"n": 16, "faulty_counts": (0, 2, 4)},
    "latency-breakdown": {"replica_counts": (4, 16)},
    "ablation-slotting": {"n": 8},
    "chaos-recovery": {"duration": 0.8, "faults": ("kill-replica", "kill-leader", "blackout")},
    "chaos-fuzz": {"duration": 0.6, "seeds": (1, 2, 3)},
    "snapshot-recovery": {"faults": ("kill-replica", "blackout")},
}

#: CLI defaults that differ from the :class:`ExperimentSpec` field defaults:
#: quick simulated runs for ``run`` / ``chaos`` / ``fuzz`` / ``compare``,
#: a wall-clock cap and a socket-friendly view timer for ``live``.
SIM_DEFAULTS = {"protocol": "hotstuff-1", "duration": 0.5, "warmup": 0.1}
LIVE_DEFAULTS = {"protocol": "hotstuff-1", "duration": 15.0, "view_timeout": 0.05}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HotStuff-1 reproduction: run experiments, regenerate figures, predict performance.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        subparser = subparsers.add_parser(name, help=help)
        subparser.set_defaults(handler=handler)  # what main() dispatches to
        return subparser

    run_parser = command("run", command_run, "run one experiment")
    add_spec_arguments(
        run_parser, ("core", "durability", "telemetry", "faults"),
        omit=("--n", "mode", "storage_dir", "scrape_port"), **SIM_DEFAULTS,
    )
    _add_trace_out_flag(run_parser)

    live_parser = command(
        "live", command_live, "run one experiment over real localhost TCP sockets"
    )
    add_spec_arguments(live_parser, KNOB_GROUPS, omit=("mode",), warmup=0.25, **LIVE_DEFAULTS)
    live_parser.add_argument("--target-ops", type=int, default=1000,
                             help="stop once this many client operations completed (0: run full duration)")
    live_parser.add_argument("--rate", type=float, default=None,
                             help="open-loop injection rate in txn/s (default: closed loop)")
    live_parser.add_argument("--max-outstanding", type=int, default=None, metavar="TXNS",
                             help="open-loop client-side cap on outstanding requests")
    live_parser.add_argument(
        "--multiprocess", action="store_true",
        help="run each replica in its own OS process (requires --distributed-mempool; "
             "localhost free-port deployment unless --deployment is given)",
    )
    live_parser.add_argument(
        "--deployment", default=None, metavar="DEPLOY.json",
        help="deployment config (replica id -> host:port -> region) for a "
             "multi-process / multi-host cluster; implies --multiprocess",
    )
    _add_trace_out_flag(live_parser)

    replica_parser = command(
        "replica", command_replica, "serve one replica process of a multi-process deployment"
    )
    replica_parser.add_argument("--spec", required=True, metavar="SPEC.json",
                                help="experiment spec document written by the coordinator")
    replica_parser.add_argument("--deployment", required=True, metavar="DEPLOY.json",
                                help="shared deployment config (endpoints + regions)")
    replica_parser.add_argument("--replica-id", type=int, required=True,
                                help="which replica of the deployment this process serves")
    replica_parser.add_argument("--result", required=True, metavar="OUT.json",
                                help="where to write the committed-chain result document")

    chaos_parser = command(
        "chaos", command_chaos, "run one experiment under a fault plan and report recovery"
    )
    chaos_parser.add_argument(
        "preset", nargs="?", default="kill-replica",
        help=f"named fault preset (available: {', '.join(sorted(CHAOS_PRESETS))})",
    )
    add_spec_arguments(
        chaos_parser, ("core", "durability", "telemetry"), omit=("--n",), **SIM_DEFAULTS
    )
    chaos_parser.add_argument("--plan", default=None, metavar="PLAN.json",
                              help="FaultPlan JSON file (overrides the preset)")
    chaos_parser.add_argument("--at", type=float, default=None,
                              help="when the first fault fires (default: 30%% of duration)")
    chaos_parser.add_argument("--down-for", type=float, default=None,
                              help="how long a replica stays down (default: 15%% of duration)")
    chaos_parser.add_argument("--replica", type=int, default=1,
                              help="static target of the kill-replica preset")
    chaos_parser.add_argument("--emit-plan", action="store_true",
                              help="print the resolved fault plan as JSON and exit")
    _add_trace_out_flag(chaos_parser)

    fuzz_parser = command(
        "fuzz", command_fuzz, "crash-point fuzzing: seed-swept protocol-relative crashes"
    )
    add_spec_arguments(
        fuzz_parser, ("core", "durability"), omit=("--n", "mode", "storage_dir"), **SIM_DEFAULTS
    )
    fuzz_parser.add_argument("--seeds", type=int, default=5,
                             help="number of fuzz seeds to sweep (seed, seed+1, ...)")
    fuzz_parser.add_argument("--crashes", type=int, default=2,
                             help="crash points per seed-generated plan")
    fuzz_parser.add_argument("--down-for", type=float, default=None,
                             help="nominal downtime per crash (default: 15%% of duration)")
    fuzz_parser.add_argument(
        "--hooks", default=None,
        help=f"comma-separated crash hooks (default: all of {', '.join(CRASH_HOOKS)})",
    )
    fuzz_parser.add_argument("--jobs", type=int, default=None,
                             help="worker processes for independent seeds (default: serial)")

    compare_parser = command("compare", command_compare, "compare all evaluation protocols")
    add_spec_arguments(
        compare_parser, ("core", "durability"),
        omit=("--n", "protocol", "mode", "storage_dir"), **SIM_DEFAULTS,
    )

    figure_parser = command("figure", command_figure, "regenerate a paper figure")
    figure_parser.add_argument("name", choices=sorted(FIGURES))
    figure_parser.add_argument("--out", default=None, help="write rows to a .csv or .json file")
    _add_engine_flags(figure_parser)

    suite_parser = command(
        "suite", command_suite, "run several scenarios as one (optionally parallel) campaign"
    )
    suite_parser.add_argument(
        "names",
        nargs="*",
        metavar="figure",
        help=f"registered figures to include (default: all); available: {', '.join(sorted(FIGURES))}",
    )
    suite_parser.add_argument(
        "--config", default=None, help="JSON SuiteSpec file (overrides the name list)"
    )
    suite_parser.add_argument("--out-dir", default=None, help="write one file per scenario here")
    suite_parser.add_argument("--format", choices=("csv", "json"), default="csv",
                              help="export format for --out-dir")
    _add_engine_flags(suite_parser)

    grid_parser = command(
        "grid", command_grid, "expand a suite into its flat run list without executing"
    )
    grid_parser.add_argument("names", nargs="*", metavar="figure",
                             help="registered figures to expand (default: all)")
    grid_parser.add_argument("--config", default=None, help="JSON SuiteSpec file")
    grid_parser.add_argument("--out", default=None, help="write the run list to .csv or .json")
    _add_engine_flags(grid_parser, executes=False)

    snapshot_parser = command(
        "snapshot", command_snapshot, "inspect the durable snapshots of a storage directory"
    )
    snapshot_parser.add_argument(
        "storage_dir", help="directory previously passed as --storage-dir / storage_dir"
    )
    snapshot_parser.add_argument(
        "--replica", type=int, default=None,
        help="inspect one replica id (default: every replica-* subdirectory)",
    )

    trace_parser = command(
        "trace", command_trace, "inspect a JSONL trace dump and re-export it (Chrome / Prometheus)"
    )
    trace_parser.add_argument(
        "trace_file",
        help="trace.jsonl written by a --trace-out run; or the literal "
             "'merge' (skew-correct per-process shards into one bundle) or "
             "'critical-path' (per-hop commit latency decomposition)",
    )
    trace_parser.add_argument(
        "inputs", nargs="*", metavar="SHARD",
        help="with 'merge': the per-process shard files (trace-client.jsonl "
             "trace-r0.jsonl ...); with 'critical-path': one merged trace "
             "(or several shards to merge on the fly)",
    )
    trace_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="with 'merge': directory for the merged bundle "
             "(default: alongside the first shard)",
    )
    trace_parser.add_argument(
        "--reference", type=int, default=None, metavar="NODE",
        help="with 'merge': node id whose clock anchors the merged timeline "
             "(default: the client shard, -1)",
    )
    trace_parser.add_argument(
        "--wan-threshold", type=float, default=10.0, metavar="MS",
        help="with 'critical-path': one-way link delay above which a link "
             "counts as WAN (default: 10 ms)",
    )
    trace_parser.add_argument(
        "--deployment", default=None, metavar="DEPLOY.json",
        help="with 'critical-path': deployment document whose region names "
             "label the nodes in the report",
    )
    trace_parser.add_argument(
        "--chrome", default=None, metavar="OUT.json",
        help="write a Chrome/Perfetto trace (load in chrome://tracing or ui.perfetto.dev)",
    )
    trace_parser.add_argument(
        "--prom", default=None, metavar="OUT.prom",
        help="write a Prometheus text-exposition snapshot",
    )
    trace_parser.add_argument(
        "--since", type=float, default=None, metavar="SECONDS",
        help="only include spans/events/buckets at or after this run time",
    )
    trace_parser.add_argument(
        "--until", type=float, default=None, metavar="SECONDS",
        help="only include spans/events/buckets before this run time",
    )

    watch_parser = command(
        "watch", command_watch, "live terminal dashboard over a streaming trace or scrape endpoints"
    )
    watch_parser.add_argument(
        "trace_file", nargs="?", default=None,
        help="streaming trace JSONL to tail (written by --trace-stream); "
             "omit when using --scrape",
    )
    watch_parser.add_argument(
        "--scrape", default=None, metavar="HOST:PORT,...",
        help="poll these replica scrape endpoints instead of tailing a file "
             "(started by --scrape-port on live/chaos runs)",
    )
    watch_parser.add_argument(
        "--deployment", default=None, metavar="DEPLOY.json",
        help="derive every replica's scrape endpoint from a deployment "
             "document (written by multi-process runs; uses its "
             "notes.scrape_port base unless --scrape-port overrides it)",
    )
    watch_parser.add_argument(
        "--scrape-port", type=int, default=None, metavar="PORT",
        help="with --deployment: override the base scrape port "
             "(replica r listens on PORT + r)",
    )
    watch_parser.add_argument("--interval", type=float, default=1.0,
                              help="refresh interval in seconds (default: 1.0)")
    watch_parser.add_argument("--frames", type=int, default=0,
                              help="stop after N refreshes (0: until interrupted)")
    watch_parser.add_argument("--no-clear", dest="clear", action="store_false", default=True,
                              help="append frames instead of clearing the terminal")

    predict_parser = command("predict", command_predict, "closed-form performance predictions")
    predict_parser.add_argument("--replicas", type=int, default=32)
    predict_parser.add_argument("--batch", type=int, default=100)
    predict_parser.add_argument("--hop-latency", type=float, default=0.0005)
    return parser


def _add_trace_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="DIR",
        help="write the trace bundle (JSONL + Chrome trace + Prometheus text) to this "
             "directory (implies --trace)",
    )


def _add_engine_flags(parser: argparse.ArgumentParser, executes: bool = True) -> None:
    if executes:  # `grid` only expands the run list
        parser.add_argument("--duration", type=float, default=None,
                            help="simulated seconds per run")
        parser.add_argument("--jobs", type=int, default=None,
                            help="worker processes for independent runs (default: serial)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="repeats per grid point; seeds are seed, seed+1, ...")
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")


def _spec_from_cli(args: argparse.Namespace, **fixed) -> ExperimentSpec:
    """The spec a sub-command's namespace describes; ``--trace-out`` implies tracing."""
    spec = spec_from_args(args, **fixed)
    if getattr(args, "trace_out", None):
        spec.trace = True
    return spec


def _emit_trace(result, args: argparse.Namespace) -> None:
    """Print a traced run's phase breakdown and time series; export on request."""
    trace = result.trace
    if trace is None:
        return
    if args.trace_stream:
        # A streaming run evicts spans and closed buckets from memory as it
        # goes; the JSONL file is the complete record, so reload it for the
        # end-of-run report instead of printing the partial resident state.
        from repro.obs.export import read_jsonl

        trace = read_jsonl(args.trace_stream)
        print(f"streamed trace: {args.trace_stream}")
    print(format_phase_breakdown(trace.phase_breakdown()))
    print(format_timeline(trace.timeline()))
    if args.trace_out:
        from repro.obs.export import write_trace_bundle

        paths = write_trace_bundle(trace, args.trace_out)
        print(
            "trace bundle: "
            + ", ".join(f"{kind}={path}" for kind, path in sorted(paths.items()))
        )


def _clamp_warmup(scenario) -> None:
    """Keep a scenario valid when a CLI ``--duration`` undercuts its warmup.

    Scenarios that never set a warmup (e.g. hand-written configs relying on
    the point builder's default) get one pinned to ``duration / 4`` so the
    builder default cannot exceed the overridden duration.
    """
    duration = scenario.params.get("duration")
    if duration is None:
        return
    warmup = scenario.params.get("warmup")
    if warmup is None or warmup >= duration:
        scenario.params["warmup"] = round(duration / 4, 6)


def _suite_from_args(args: argparse.Namespace) -> SuiteSpec:
    """Resolve the suite a ``suite`` or ``grid`` invocation refers to."""
    if args.config:
        suite = load_suite(args.config)
    else:
        names = list(args.names) or list(FIGURES)
        for name in names:
            if name not in FIGURES:
                raise ConfigurationError(
                    f"unknown figure {name!r}; available: {sorted(FIGURES)}"
                )
        suite = SuiteSpec(
            name="cli-suite",
            scenarios=[scenario_spec(name, **FIGURES[name]) for name in names],
        )
    if args.repeats is not None:
        suite.repeats = args.repeats
    if args.seed is not None:
        suite.seed = args.seed
    if getattr(args, "duration", None) is not None:
        suite.overrides = {**suite.overrides, "duration": args.duration}
        for scenario in suite.scenarios:
            scenario.params["duration"] = args.duration
            _clamp_warmup(scenario)
    return suite


def command_run(args: argparse.Namespace) -> int:
    """Run a single experiment and print the metric summary."""
    result = run_experiment(_spec_from_cli(args))
    rows = [result.summary.as_dict()]
    print(format_series(rows, title=f"{args.protocol} — n={args.n}, batch={args.batch_size}"))
    print(format_network_breakdown(result.network_stats, committed_ops=result.summary.committed_txns))
    if result.chaos is not None:
        print(format_chaos_report(result.chaos))
    _emit_trace(result, args)
    return 0


def command_live(args: argparse.Namespace) -> int:
    """Run one experiment on the live asyncio runtime and print its summary."""
    from repro.live.deploy import run_live_experiment

    spec = _spec_from_cli(args, mode="live")
    regions = spec.regions
    target_ops = args.target_ops if args.target_ops > 0 else None

    if regions:
        from repro.net.latency import GeoLatencyModel

        model = GeoLatencyModel(dict(enumerate(regions)))
        worst_rtt = 2 * max(
            model.one_way_ms(a, b) / 1000.0 for a in regions for b in regions
        )
        if spec.view_timeout < worst_rtt:
            print(
                f"warning: view timeout {spec.view_timeout * 1000:.0f}ms is below "
                f"the worst-case round trip {worst_rtt * 1000:.0f}ms for these "
                f"regions; views will expire before any proposal can complete "
                f"(try --view-timeout {worst_rtt * 2:.1f})",
                file=sys.stderr,
            )

    if args.multiprocess or args.deployment:
        return _run_live_multiprocess(args, spec, target_ops)

    def _announce(info: Dict) -> None:
        ports = info.get("scrape_ports") or []
        if ports:
            endpoints = ", ".join(f"127.0.0.1:{port}" for port in ports)
            print(f"scrape endpoints: {endpoints} (/metrics /healthz /readyz)", flush=True)

    result = run_live_experiment(
        spec,
        target_ops=target_ops,
        rate=args.rate,
        on_started=_announce if spec.scrape_port is not None else None,
        max_outstanding=args.max_outstanding,
    )
    summary = result.summary
    mode = "open-loop" if args.rate else "closed-loop"
    topo = f"{len(regions)} regions" if regions else "localhost TCP"
    pool = "distributed mempool" if spec.distributed_mempool else "shared mempool"
    print(
        f"live cluster: n={spec.n} {spec.protocol} over {topo}, {pool}, "
        f"{mode} clients, measured {summary.duration:.2f}s wall-clock"
    )
    print(format_series([summary.as_dict()], title=f"{spec.protocol} — live, n={spec.n}"))
    print(format_network_breakdown(result.network_stats, committed_ops=summary.committed_txns))
    if result.chaos is not None:
        print(format_chaos_report(result.chaos))
    _emit_trace(result, args)
    return _target_shortfall(summary, target_ops, spec)


def _target_shortfall(summary, target_ops: Optional[int], spec: ExperimentSpec) -> int:
    """Exit code of a live run: 1 (with a warning) when it fell short of ``--target-ops``."""
    if target_ops is not None and summary.committed_txns < target_ops:
        print(
            f"warning: only {summary.committed_txns} of the targeted "
            f"{target_ops} operations completed within {spec.duration}s",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_live_multiprocess(args: argparse.Namespace, spec: ExperimentSpec,
                           target_ops: Optional[int]) -> int:
    """Coordinate a multi-process cluster and print its summary."""
    from repro.live.config import DeploymentConfig
    from repro.live.procs import run_multiprocess_experiment

    config = DeploymentConfig.load(args.deployment) if args.deployment else None
    result = run_multiprocess_experiment(
        spec,
        config=config,
        target_ops=target_ops,
        rate=args.rate,
        max_outstanding=args.max_outstanding,
    )
    summary = result.summary
    info = result.multiproc or {}
    deployment = info.get("deployment", {})
    placements = deployment.get("replicas", [])
    topo = (
        ", ".join(
            f"{entry['id']}@{entry.get('region') or entry['host']}"
            for entry in placements
        )
        or f"n={spec.n}"
    )
    print(
        f"multi-process cluster: n={spec.n} {spec.protocol}, one OS process "
        f"per replica [{topo}], distributed mempool, measured "
        f"{summary.duration:.2f}s wall-clock"
    )
    print(format_series([summary.as_dict()],
                        title=f"{spec.protocol} — live multi-process, n={spec.n}"))
    print(format_multiproc_report(info))
    deaths = info.get("replica_deaths", {})
    if deaths:
        print("replica deaths: "
              + ", ".join(f"r{rid} (exit {code})" for rid, code in sorted(deaths.items())),
              file=sys.stderr)
    if result.network_stats:
        print(format_network_breakdown(result.network_stats,
                                       committed_ops=summary.committed_txns))
    return _target_shortfall(summary, target_ops, spec)


def command_replica(args: argparse.Namespace) -> int:
    """Serve one replica process of a multi-process deployment."""
    from repro.live.procs import run_replica_process

    return run_replica_process(args.spec, args.deployment, args.replica_id, args.result)


def command_chaos(args: argparse.Namespace) -> int:
    """Run one experiment under a fault plan and report recovery.

    Exit code 0 means every crashed replica restarted, recovered (committed
    at least one new block) and the cluster's committed prefixes agree —
    which is what the CI chaos smoke asserts.
    """
    if args.plan:
        plan = load_plan(args.plan)
    else:
        plan = chaos_preset(
            args.preset,
            n=args.n,
            at=args.at,
            down_for=args.down_for,
            replica=args.replica,
            duration=args.duration,
        )
    # Validate up front so sim-only actions (pause/partition) in a live-mode
    # plan fail here — not minutes into the run, and not silently when the
    # plan is merely being emitted for inspection.
    plan.validate(args.n, mode=args.mode)
    if args.emit_plan:
        print(plan.to_json())
        return 0
    spec = _spec_from_cli(args, faults=plan.to_dict())
    result = run_experiment(spec)
    chaos = result.chaos or {}
    print(
        f"chaos: {args.preset if not args.plan else args.plan} on n={spec.n} "
        f"{spec.protocol} ({spec.mode}), {len(plan)} events"
    )
    print(format_series([result.summary.as_dict()],
                        title=f"{spec.protocol} — chaos ({spec.mode}), n={spec.n}"))
    print(format_chaos_report(chaos))
    _emit_trace(result, args)
    problems = chaos_problems(result.to_row())
    if problems:
        print(f"error: {'; '.join(problems)}", file=sys.stderr)
        return 1
    return 0


def command_fuzz(args: argparse.Namespace) -> int:
    """Sweep seed-generated crash-point plans and verify the recovery invariants.

    Exit code 0 means, for every seed: all planned crash points fired,
    every crashed replica recovered to a new commit, committed-prefix
    agreement and the never-vote-twice WAL invariant held, and no event was
    skipped.
    """
    hooks = CRASH_HOOKS  # names are validated where the plans are generated
    if args.hooks:
        hooks = tuple(h.strip() for h in args.hooks.split(",") if h.strip())
    scenario = chaos_fuzz_spec(
        protocols=(args.protocol,),
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
        n=args.n,
        batch_size=args.batch_size,
        duration=args.duration,
        warmup=args.warmup,
        crashes=args.crashes,
        down_for=args.down_for,
        hooks=hooks,
        checkpoint_interval=args.checkpoint_interval,
    )
    rows = execute_scenario(scenario, jobs=args.jobs)
    print(
        f"chaos-fuzz: {args.seeds} seed(s) x {args.crashes} crash point(s) on "
        f"n={args.n} {args.protocol}, hooks: {', '.join(hooks)}"
    )
    print(format_series(rows, title=f"{args.protocol} — crash-point fuzz, n={args.n}"))
    failures = {row["fuzz_seed"]: chaos_problems(row) for row in rows if chaos_problems(row)}
    if failures:
        for seed, reasons in sorted(failures.items()):
            print(f"error: fuzz seed {seed}: {'; '.join(reasons)}", file=sys.stderr)
        print(
            f"error: {len(failures)} of {len(rows)} fuzz seed(s) failed "
            "(rerun with --seed <seed> --seeds 1 to reproduce one)",
            file=sys.stderr,
        )
        return 1
    return 0


def command_compare(args: argparse.Namespace) -> int:
    """Run every evaluation protocol under the same settings and compare."""
    rows: List[Dict] = []
    for protocol in EVALUATION_PROTOCOLS:
        result = run_experiment(_spec_from_cli(args, protocol=protocol))
        rows.append(
            result.to_row(speculative_executions=result.summary.speculative_executions)
        )
    print(format_series(rows, title=f"Protocol comparison — n={args.n}, batch={args.batch_size}"))
    print(ascii_bar_chart(rows, "protocol", "avg_latency_ms", title="average client latency (ms)"))
    return 0


def command_figure(args: argparse.Namespace) -> int:
    """Regenerate a figure series through the scenario engine and optionally export it."""
    args.names, args.config = [args.name], None
    rows = execute_suite(_suite_from_args(args), jobs=args.jobs)[args.name]
    print(format_series(rows, title=args.name))
    if args.out:
        path = write_rows(rows, args.out)
        print(f"wrote {len(rows)} rows to {path}")
    return 0


def command_suite(args: argparse.Namespace) -> int:
    """Run a whole scenario suite, optionally across a process pool."""
    suite = _suite_from_args(args)
    total = suite.num_runs()
    print(f"suite {suite.name!r}: {len(suite.scenarios)} scenarios, {total} runs"
          f" (jobs={args.jobs or suite.jobs or 1})")
    results = execute_suite(suite, jobs=args.jobs)
    print(format_suite(results))
    if args.out_dir:
        paths = write_suite(results, args.out_dir, fmt=args.format)
        print(f"wrote {len(paths)} scenario files to {args.out_dir}")
    return 0


def command_grid(args: argparse.Namespace) -> int:
    """Print (or export) the flat run list a suite expands to."""
    suite = _suite_from_args(args)
    requests = expand_suite(suite)
    rows = [request.describe() for request in requests]
    print(format_series(rows, title=f"suite {suite.name!r} — {len(rows)} runs"))
    if args.out:
        path = write_rows(rows, args.out)
        print(f"wrote {len(rows)} rows to {path}")
    return 0


def command_snapshot(args: argparse.Namespace) -> int:
    """Inspect the durable snapshots (and log sizes) under a storage directory."""
    from repro.storage.store import inspect_storage_dir

    rows = inspect_storage_dir(args.storage_dir, args.replica)
    print(format_series(rows, title=f"snapshots under {args.storage_dir}"))
    return 0


def _require_trace_files(paths: Sequence[str], when_empty: str) -> None:
    if not paths:
        raise ConfigurationError(when_empty)
    for path in paths:
        if not os.path.isfile(path):
            raise ConfigurationError(f"trace file {path!r} does not exist")


def command_trace(args: argparse.Namespace) -> int:
    """Load a JSONL trace dump, print its surfaces, optionally re-export it."""
    from repro.obs.export import read_jsonl, write_chrome, write_prometheus

    if args.trace_file == "merge":
        return _command_trace_merge(args)
    if args.trace_file == "critical-path":
        return _command_trace_critical(args)
    if args.inputs:
        raise ConfigurationError(
            "extra positional arguments are only valid with "
            "'repro trace merge' / 'repro trace critical-path'"
        )
    _require_trace_files([args.trace_file], "")
    trace = read_jsonl(args.trace_file)
    if not trace.counts and not trace.spans:
        raise ConfigurationError(f"no trace records in {args.trace_file!r}")
    if args.since is not None or args.until is not None:
        trace = trace.filtered(since=args.since, until=args.until)
        window = f"[{args.since if args.since is not None else 0.0}s, "
        window += f"{args.until}s)" if args.until is not None else "end)"
        print(f"trace window: {window}")
    counters = [
        {"event": kind, "count": count} for kind, count in sorted(trace.counts.items())
    ]
    print(format_series(counters, title=f"lifecycle event counters — {args.trace_file}"))
    print(format_phase_breakdown(trace.phase_breakdown()))
    print(format_timeline(trace.timeline()))
    if args.chrome:
        print(f"wrote Chrome trace to {write_chrome(trace, args.chrome)}")
    if args.prom:
        print(f"wrote Prometheus exposition to {write_prometheus(trace, args.prom)}")
    return 0


def _command_trace_merge(args: argparse.Namespace) -> int:
    """Skew-correct per-process trace shards into one merged bundle."""
    from repro.obs.export import write_trace_bundle
    from repro.obs.merge import CLIENT_SHARD_ID, format_offsets, merge_trace_files

    _require_trace_files(
        args.inputs,
        "trace merge needs at least one shard file (e.g. trace-client.jsonl trace-r0.jsonl ...)",
    )
    reference = args.reference if args.reference is not None else CLIENT_SHARD_ID
    merged, offsets = merge_trace_files(args.inputs, reference=reference)
    print(format_offsets(offsets))
    out_dir = args.out or os.path.dirname(os.path.abspath(args.inputs[0]))
    paths = write_trace_bundle(merged, out_dir, prefix="merged")
    print(
        f"merged {len(args.inputs)} shards: {len(merged.spans)} spans, "
        f"{len(merged.events)} events, {merged.wire_seen} wire edges"
    )
    for fmt, path in sorted(paths.items()):
        print(f"wrote {fmt}: {path}")
    print(f"next: repro trace critical-path {paths['jsonl']}")
    return 0


def _command_trace_critical(args: argparse.Namespace) -> int:
    """Per-hop commit critical-path decomposition of a merged trace."""
    from repro.obs.critical import critical_path_report, format_critical_path_report
    from repro.obs.export import read_jsonl
    from repro.obs.merge import merge_trace_files

    _require_trace_files(
        args.inputs,
        "trace critical-path needs a merged trace (or several shards to merge on the fly)",
    )
    if len(args.inputs) == 1:
        trace = read_jsonl(args.inputs[0])
    else:
        trace, _ = merge_trace_files(args.inputs)
    regions = None
    if args.deployment:
        from repro.live.config import CLIENT_NODE_ID, DeploymentConfig

        config = DeploymentConfig.load(args.deployment)
        regions = dict(config.regions() or {})
        if config.client_region is not None:
            regions[CLIENT_NODE_ID] = config.client_region
        regions = regions or None
    report = critical_path_report(
        trace, wan_threshold_s=args.wan_threshold / 1000.0, regions=regions
    )
    if not report.spans_used:
        raise ConfigurationError(
            "no transaction spans in the trace — was the run traced "
            "(--trace) and merged from all shards?"
        )
    print(format_critical_path_report(report))
    return 0


def scrape_endpoints_from_deployment(config, base_port: Optional[int] = None) -> List[str]:
    """Derive every replica's scrape endpoint from a deployment document.

    Multi-process coordinators record the scrape base port under
    ``notes["scrape_port"]``; replica *r* listens on ``base + r`` on its
    configured host.  ``base_port`` overrides the recorded base (for runs
    started before the note existed, or port-forwarded setups).
    """
    base = base_port if base_port is not None else config.notes.get("scrape_port")
    if base is None:
        raise ConfigurationError(
            "deployment document records no scrape_port note — pass "
            "--scrape-port PORT (the base port the run was started with)"
        )
    return [
        f"{endpoint.host}:{int(base) + endpoint.replica_id}"
        for endpoint in config.replicas
    ]


def command_watch(args: argparse.Namespace) -> int:
    """Live terminal dashboard: tail a streaming trace or poll scrape endpoints."""
    from repro.obs.watch import watch_file, watch_scrape

    endpoints = None
    if args.deployment:
        from repro.live.config import DeploymentConfig

        config = DeploymentConfig.load(args.deployment)
        endpoints = scrape_endpoints_from_deployment(config, base_port=args.scrape_port)
    elif args.scrape:
        endpoints = [e.strip() for e in args.scrape.split(",") if e.strip()]
        if not endpoints:
            raise ConfigurationError("--scrape needs at least one host:port endpoint")
    if endpoints is not None:
        watch_scrape(endpoints, interval=args.interval, frames=args.frames, clear=args.clear)
        return 0
    if not args.trace_file:
        raise ConfigurationError(
            "watch needs a streaming trace file (written by --trace-stream) "
            "or --scrape host:port[,host:port...]"
        )
    watch_file(args.trace_file, interval=args.interval, frames=args.frames, clear=args.clear)
    return 0


def command_predict(args: argparse.Namespace) -> int:
    """Print analytic predictions for every protocol."""
    config = ProtocolConfig(n=args.replicas, batch_size=args.batch)
    model = AnalyticalModel(config, hop_latency=args.hop_latency)
    rows = [model.predict(protocol).as_dict() for protocol in EVALUATION_PROTOCOLS]
    print(format_series(rows, title=f"Analytic model — n={args.replicas}, batch={args.batch}"))
    ratio_hs = model.latency_ratio("hotstuff-1", "hotstuff")
    ratio_hs2 = model.latency_ratio("hotstuff-1", "hotstuff-2")
    print(f"predicted HotStuff-1 latency: {ratio_hs:.2f}x of HotStuff, {ratio_hs2:.2f}x of HotStuff-2")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)  # flag parsers (--faults PLAN.json) validate too
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
