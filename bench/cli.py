"""``python -m bench run | compare``.

``run`` with ``--workload`` is one driver run: it prints the metrics by name
and, as its last line, the result object the driver reads.  Without
``--workload`` it runs all seven workloads untraced, then traced, and writes
``bench/out/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from bench import ROOT, SRC

OUT_DIR = ROOT / "bench" / "out"


def _parser() -> argparse.ArgumentParser:
    from bench.workloads import RUN_SECONDS

    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload (driver mode) or all seven")
    run.add_argument("--workload", help="one workload; default: all, both passes")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--quick", action="store_true", help="smoke scale (2 s, one set-up sample)")
    run.add_argument("--label", default="local", help="names bench/out/BENCH_<label>.json")
    run.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="all-workloads mode: untraced runs per workload, seeds seed..seed+N-1",
    )
    run.add_argument("--spans", action="store_true", help="also write the raw spans to bench/out/")
    compare = commands.add_parser("compare", help="judge B against A by the declared bounds")
    compare.add_argument("base")
    compare.add_argument("other")
    child = commands.add_parser("_child")
    child.add_argument("job")
    return parser


def _print_metrics(name: str, trace: int, result: Dict[str, Any]) -> None:
    status = "ok" if result["correct"] else "INVALID: " + "; ".join(result["problems"])
    print(
        f"== {name} --trace {trace}: {status} "
        f"(attempted {result['attempted']}, failed {result['failed']}, "
        f"latency samples {result['latency_n']})"
    )
    for metric, entry in result["metrics"].items():
        print(f"  {metric:34s} {entry['value']:>16.6f} {entry['unit']}")


def _provenance(args, wall_s: float) -> Dict[str, Any]:
    def git(*argv: str) -> str:
        try:
            return subprocess.run(
                ["git", *argv], cwd=str(ROOT), capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return ""

    return {
        "git_sha": git("rev-parse", "HEAD") or None,
        "git_dirty": bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "traced_window_seconds": args.seconds / 2.0,
        "harness_wall_s": wall_s,
        "claim": None,
    }


def _run(args) -> int:
    from bench.declared import END_TO_END
    from bench.harness import run_workload
    from bench.workloads import QUICK_SECONDS, WORKLOADS

    if args.quick:
        args.seconds = QUICK_SECONDS
    if args.workload is not None:
        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
            return 2
        spans_out = None
        if args.spans:
            OUT_DIR.mkdir(exist_ok=True)
            spans_out = str(OUT_DIR / f"spans_{args.workload}.json")
        result = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spans_out
        )
        _print_metrics(args.workload, args.trace, result)
        # Last line: the result object the driver reads.
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    started = time.time()
    report: Dict[str, Any] = {"workloads": {}}
    for name, workload in WORKLOADS.items():
        entry = report["workloads"][name] = {
            "ok": True,
            "problems": [],
            "attempted": 0,
            "failed": 0,
            "end_to_end": {m: {"unit": unit, "values": []} for m, (unit, _) in END_TO_END.items()},
        }
        for seed in range(args.seed, args.seed + args.repeats):
            result = run_workload(workload, seed, args.seconds, trace=False)
            _print_metrics(name, 0, result)
            entry["ok"] = entry["ok"] and result["correct"]
            entry["problems"] += result["problems"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["latency_n"] = result["latency_n"]
            for metric, value in result["metrics"].items():
                entry["end_to_end"][metric]["values"].append(value["value"])
        for metric in entry["end_to_end"].values():
            metric["median"] = statistics.median(metric["values"])
    for name, workload in WORKLOADS.items():
        result = run_workload(workload, args.seed, args.seconds, trace=True)
        _print_metrics(name, 1, result)
        entry = report["workloads"][name]
        entry["ok"] = entry["ok"] and result["correct"]
        entry["problems"] += result["problems"]
        entry["per_layer"] = result["metrics"]
    ok = all(entry["ok"] for entry in report["workloads"].values())
    report["ok"] = ok
    report["provenance"] = _provenance(args, time.time() - started)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{args.label}.json"
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"wrote {path.relative_to(ROOT)} ({'ok' if ok else 'INVALID'})")
    return 0 if ok else 1


def main(argv: List[str]) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from bench.compare import compare_files

        return compare_files(args.base, args.other)
    if not (SRC / "repro").is_dir():
        print(f"nothing to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 3
    if args.command == "_child":
        from bench.child import main as child_main

        return child_main([args.job])
    return _run(args)
