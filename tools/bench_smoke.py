"""Smoke benchmarks — deprecated shim over :mod:`repro.experiments.bench`.

Deprecated: prefer the CLI subcommand, which takes the same arguments::

    PYTHONPATH=src python -m repro.cli bench
        [--axis workers|backend|lint|verify|retention|alloc]
        [--jobs N] [--output PATH] [--gate [BASELINE]]

The benchmark logic lives in the package (``src/repro/experiments/bench.py``)
so the ``repro bench`` CLI subcommand, tests and CI all share one
implementation; this script keeps the historical entry point working.

The shim parses nothing itself: every argument — ``--gate``, axes added
after this file was written, flags it has never heard of — is forwarded
verbatim to :func:`repro.experiments.bench.main`, whose parser is the
single authority on what is and is not a usage error.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.bench import main  # noqa: E402


def forward(argv: Optional[List[str]] = None) -> int:
    """Hand *argv* (default: this process's arguments) to bench unchanged."""
    return main(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    warnings.warn(
        "tools/bench_smoke.py is deprecated; use "
        "'PYTHONPATH=src python -m repro.cli bench' (same arguments)",
        DeprecationWarning,
        stacklevel=2,
    )
    sys.exit(forward())
