"""The declared metrics and workloads, read from ``BENCHMARK.json`` (the contract)."""

from __future__ import annotations

import json
from typing import Dict, Tuple

from bench import ROOT

with open(ROOT / "BENCHMARK.json") as _handle:
    BENCHMARK = json.load(_handle)

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]
}
PER_LAYER: Dict[str, Tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
}
#: End-to-end name -> share of the base median it may worsen by.
BOUNDS: Dict[str, float] = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
