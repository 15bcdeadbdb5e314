"""Host-speed probe: how fast the benchmark's CPU runs, sampled all through a run.

    python3 bench/probe.py --out FILE

Every PERIOD_S it runs a fixed kernel twice and appends one line to FILE:
the time.perf_counter() at which the second pass started and how long that
pass took. The first pass refills the caches that the program evicted, so
the timed pass reads the speed of the CPU, not the program's footprint.
The kernel mixes interpreter work (dict and integer traffic, parsing floats
from strings) with small numpy products and Adam-like element-wise updates
of small arrays, as the program does. It runs until
it is terminated or the process that started it has ended.

run.py pins itself, the worker and this probe to the same CPU. Sharing that
CPU, the probe slows with the program when the host slows that CPU, and
`speed_factor` turns a measured interval into seconds at NOMINAL_S per pass.
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path

import common

common.pin_threads()

import numpy as np  # noqa: E402

PERIOD_S = 0.05
# The speed of an interval is the mean of its passes without the slowest
# DROPPED share: those were preempted by the program and say nothing about
# the CPU. The mean, unlike the median, follows the mix of fast and slow
# spells in the interval (the passes' durations are bimodal here).
DROPPED = 0.15
# That mean over 5.5 minutes of detect-r3 operations on a 2-vCPU KVM guest
# ("Intel Xeon Processor", Python 3.11.7, numpy 2.4.6), where 90% of the
# passes took 0.55 to 4.1 ms. It sets only the scale of the times reported.
NOMINAL_S = 0.00075

_RNG = np.random.default_rng(20191007)
_A = _RNG.standard_normal((64, 20))
_W = _RNG.standard_normal((20, 20))
_TEXT = [repr(float(v)) for v in _RNG.standard_normal(400)]
_SMALL = [_RNG.standard_normal((20, 10)) for _ in range(6)]


def kernel() -> int:
    counts: dict[int, int] = {}
    for i in range(2000):
        j = i % 97
        counts[j] = counts.get(j, 0) + (i * i) % 7
    parsed = [float(s) for s in _TEXT]
    for _ in range(12):
        h = np.tanh(_A @ _W)
        g = h.T @ _A
    for _ in range(3):
        for w in _SMALL:
            m = 0.9 * w + 0.1 * g[:, :10]
            v = 0.999 * w**2 + 0.001 * m**2
            step = 0.01 * m / (np.sqrt(v) + 1e-8)
    return len(counts) + len(parsed) + step.shape[0]


def read_samples(path: Path) -> np.ndarray:
    """The probe's samples as an (n, 2) array of start time and duration."""
    rows = [line.split() for line in Path(path).read_text().splitlines()]
    return np.asarray([(float(t), float(d)) for t, d in rows], dtype=float).reshape(-1, 2)


def speed_factor(samples: np.ndarray, t0: float, t1: float) -> float:
    """NOMINAL_S over the mean pass that started within [t0, t1], without
    the slowest DROPPED share: the factor that turns a time measured in that
    interval into seconds at the nominal speed."""
    inside = np.sort(samples[(samples[:, 0] >= t0) & (samples[:, 0] < t1), 1])
    if inside.size == 0:
        raise ValueError(f"no probe sample within [{t0:.3f}, {t1:.3f}]")
    kept = inside[: max(1, int(inside.size * (1 - DROPPED)))]
    return NOMINAL_S / float(kept.mean())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    parent = os.getppid()
    with args.out.open("w", encoding="utf-8") as out:
        # Runs until terminated, or until the process that started it is gone.
        while os.getppid() == parent:
            kernel()
            t0 = time.perf_counter()
            kernel()
            out.write(f"{t0!r} {time.perf_counter() - t0!r}\n")
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    raise SystemExit(main())
