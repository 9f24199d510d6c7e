"""The repository's benchmark: seven named workloads, checked while timed.

``python -m bench run`` measures every workload end to end with tracing off,
then again with the harness's own span tracer on for the per-layer numbers;
``python -m bench compare A.json B.json`` judges two result files against the
bounds in ``BENCHMARK.json``.  See ``bench/README.md``.

The package is self-contained: it drives ``repro`` only through its public
entry points and never edits ``src/``.
"""

import pathlib

#: Root of the checkout (the directory holding ``BENCHMARK.json`` and ``src/``).
ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Where the program under test lives; put on ``sys.path`` of every child.
SRC = ROOT / "src"
