"""Paths and thread settings shared by the benchmark's processes.

This module imports nothing beyond the standard library, so that `run.py`
can pin the thread settings below before numpy is first imported.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def benchmark() -> dict:
    """BENCHMARK.json: the command, the workloads and every metric with its
    unit, better direction and, end to end, its bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())

# One BLAS/OpenMP thread and one sweep thread. TIMELEAK_THREADS, not the
# --threads flag, keeps the sweep serial, so the command line of the
# detect-r3 workload does not depend on that flag existing.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "TIMELEAK_THREADS": "1",
}


def pin_threads() -> None:
    os.environ.update(PINNED_ENV)


def pin_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU, so that
    the host-speed probe shares the CPU whose speed it reports."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def program_env() -> dict:
    """Environment of the processes that import the program: the pinned
    settings plus the checkout's own `src` ahead of anything installed."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env
