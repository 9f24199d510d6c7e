"""cProfile harness for live runs: where does the event loop's CPU go?

The live runtime is a single asyncio loop multiplexing n replicas plus the
client pool, so throughput is CPU-bound and every optimisation question is
"which layer burns the cycles?".  :func:`profile_live_run` wraps
:func:`repro.live.deploy.run_live_experiment` in :mod:`cProfile` and buckets
the per-function ``tottime`` into the layers an operator can act on —
encode/decode (wire codec), transport, hashing, signing, execution,
consensus logic, workload generation and the event loop itself.

Interpretation caveat: cProfile's tracing overhead inflates the run several
fold (a profiled run commits at a fraction of the unprofiled rate), so the
**relative shares** are meaningful while the absolute seconds and the
apparent throughput are not.  The report says so explicitly.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.runner import ExperimentSpec, RunResult

#: Ordered (category, matcher) pairs; the first match wins.  Matchers see
#: ``(filename, function_name)`` with the filename normalised to forward
#: slashes.
_ENCODE_PREFIXES = ("_enc", "encode", "frame_", "_append_uvarint")
_DECODE_PREFIXES = ("_dec", "decode", "_read_uvarint", "read_frame", "iter_frames")


def _categorize(filename: str, funcname: str) -> str:
    path = filename.replace("\\", "/")
    if "repro/live/codec" in path or "repro/live/layout" in path:
        if funcname.startswith(_ENCODE_PREFIXES):
            return "encode"
        if funcname.startswith(_DECODE_PREFIXES):
            return "decode"
        return "codec-other"
    if "repro/live/transport" in path:
        return "transport"
    if "repro/crypto/hashing" in path:
        return "hashing"
    if "repro/crypto" in path:
        return "signing"
    if "repro/ledger" in path:
        return "execution"
    if "repro/workloads" in path:
        return "workload"
    if "repro/consensus" in path or "repro/core" in path:
        return "consensus"
    if "asyncio" in path or "selectors" in path or funcname in ("poll", "recv", "send"):
        return "event-loop"
    return "other"


@dataclass
class LiveProfile:
    """Layer-bucketed CPU profile of one live run."""

    result: RunResult
    total_seconds: float
    categories: Dict[str, float] = field(default_factory=dict)
    top_functions: List[Tuple[str, float]] = field(default_factory=list)

    def share(self, category: str) -> float:
        """Fraction of profiled CPU attributed to *category* (0 when idle)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.categories.get(category, 0.0) / self.total_seconds


def profile_live_run(
    spec: ExperimentSpec,
    target_ops: Optional[int] = None,
    rate: Optional[float] = None,
    top: int = 15,
) -> LiveProfile:
    """Run one live experiment under cProfile and bucket its CPU by layer."""
    from repro.live.deploy import run_live_experiment  # local import: avoids cycle
    from repro.workloads.base import make_workload

    # Warm the workload's one-time tables (the YCSB zipf zeta sum is ~60ms of
    # pure Python, memoized per process) outside the profile, so the report
    # reflects the steady state rather than deployment setup.
    make_workload(spec.workload, **spec.workload_kwargs)

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_live_experiment(spec, target_ops=target_ops, rate=rate)
    finally:
        profiler.disable()

    stats = pstats.Stats(profiler)
    categories: Dict[str, float] = {}
    flat: List[Tuple[str, float]] = []
    total = 0.0
    for (filename, lineno, funcname), (_cc, _nc, tottime, _ct, _callers) in stats.stats.items():
        total += tottime
        category = _categorize(filename, funcname)
        categories[category] = categories.get(category, 0.0) + tottime
        short = filename.replace("\\", "/").rsplit("/", 1)[-1]
        flat.append((f"{short}:{lineno}({funcname})", tottime))
    flat.sort(key=lambda item: -item[1])
    return LiveProfile(
        result=result,
        total_seconds=total,
        categories=categories,
        top_functions=flat[:top],
    )


def format_profile(profile: LiveProfile) -> str:
    """Render the layer breakdown and hottest functions as a text report."""
    summary = profile.result.summary
    lines = [
        "live CPU profile (cProfile inflates wall-clock severalfold; read the "
        "shares, not the absolute throughput)",
        f"profiled run: {summary.committed_txns} ops committed at "
        f"{summary.throughput_tps:.0f} tps apparent, {profile.total_seconds:.3f}s "
        "of attributed CPU",
        "",
        f"{'layer':<12} {'seconds':>9} {'share':>7}",
        "-" * 31,
    ]
    for name, seconds in sorted(profile.categories.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<12} {seconds:>9.3f} {100.0 * profile.share(name):>6.1f}%")
    lines.append("")
    lines.append("hottest functions by tottime:")
    for label, seconds in profile.top_functions:
        lines.append(f"  {seconds:>8.3f}s  {label}")
    return "\n".join(lines)
