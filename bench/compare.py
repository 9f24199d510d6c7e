"""``python -m bench compare A.json B.json``: judge B against A by the declared bounds.

Each (workload, end-to-end metric) pair gets one verdict:

* ``regressed``  - B's median is worse than A's by more than the metric's bound;
* ``unresolved`` - the run-to-run spread (quartile distance over median, on
  either side) is wider than the bound, so the bound cannot be checked;
* ``improved``   - B's median is better by more than the spread on both sides
  (by more than the bound when a file holds a single run);
* ``unchanged``  - anything else.

Every ratio is printed with its base.  Metrics measured on the simulated
clock are pure functions of (commit, seed); they are listed separately as
``identical`` or ``changed``.  Exit status is 1 if any pair regressed or a
workload of B failed verification.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from bench.declared import BOUNDS, END_TO_END, WORKLOAD_NAMES

#: Simulated-clock numbers: (workload prefix, section, metric).
DETERMINISTIC = (
    ("sim-", "end_to_end", "tps"),
    ("sim-", "end_to_end", "p50_ms"),
    ("sim-", "end_to_end", "bytes_per_op"),
    ("sim-", "per_layer", "client.p90_ms"),
    ("sim-crash", "per_layer", "fault.outage_s"),
    ("sim-crash", "per_layer", "fault.recovery_s"),
    ("live-wan", "per_layer", "client.spec_gain_ms"),
)


def spread(values: List[float]) -> Optional[float]:
    """Quartile distance as a share of the median (None below four values)."""
    if len(values) < 4:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else None


def verdict(
    base: List[float], other: List[float], better: str, bound: float
) -> Tuple[str, float, float]:
    """(verdict, B/A ratio of medians, share by which B is worse than A)."""
    base_median, other_median = statistics.median(base), statistics.median(other)
    ratio = other_median / base_median if base_median else float("inf")
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    spreads = [s for s in (spread(base), spread(other)) if s is not None]
    if any(s > bound for s in spreads):
        return "unresolved", ratio, worse_by
    if worse_by > bound:
        return "regressed", ratio, worse_by
    noise = max(spreads) if len(spreads) == 2 else bound
    if -worse_by > noise:
        return "improved", ratio, worse_by
    return "unchanged", ratio, worse_by


def _values(entry: Dict[str, Any]) -> List[float]:
    return list(entry["values"]) if "values" in entry else [entry["value"]]


def compare_files(base_path: str, other_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(other_path) as handle:
        other = json.load(handle)
    print(f"A = {base_path} ({base['provenance']['git_sha']})")
    print(f"B = {other_path} ({other['provenance']['git_sha']})")
    counts: Counter = Counter()
    for workload in WORKLOAD_NAMES:
        a, b = base["workloads"].get(workload), other["workloads"].get(workload)
        if a is None or b is None:
            print(f"{workload}: missing from {'A' if a is None else 'B'}")
            counts["regressed"] += 1
            continue
        if not b["ok"]:
            print(f"{workload}: B failed verification: {'; '.join(b['problems'])}")
            counts["regressed"] += 1
        for metric, (unit, better) in END_TO_END.items():
            base_values = _values(a["end_to_end"][metric])
            other_values = _values(b["end_to_end"][metric])
            result, ratio, _ = verdict(base_values, other_values, better, BOUNDS[metric])
            counts[result] += 1
            spreads = ", ".join(
                "-" if s is None else f"{s:.1%}" for s in (spread(base_values), spread(other_values))
            )
            print(
                f"{workload:12s} {metric:14s} {result:10s} B/A = {ratio:.4f} "
                f"(A median {statistics.median(base_values):.6g} {unit}, "
                f"B {statistics.median(other_values):.6g}; {better} is better; "
                f"bound {BOUNDS[metric]:.0%}; spread A, B: {spreads})"
            )
    print("simulated-clock metrics (pure functions of commit and seed):")
    for prefix, section, metric in DETERMINISTIC:
        for workload in WORKLOAD_NAMES:
            if not workload.startswith(prefix):
                continue
            try:
                a = _values(base["workloads"][workload][section][metric])
                b = _values(other["workloads"][workload][section][metric])
            except KeyError:
                continue
            differing = [pair for pair in zip(a, b) if pair[0] != pair[1]] or [(a[0], b[0])]
            same = "identical" if a == b else "changed"
            print(f"{workload:12s} {metric:22s} {same:10s} A {differing[0][0]!r} B {differing[0][1]!r}")
    print("verdicts: " + ", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 1 if counts["regressed"] else 0
