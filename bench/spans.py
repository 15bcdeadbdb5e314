"""Spans around calls into the program's public functions, taken from outside.

`Tracer.install` replaces each listed function, in every timeleak module
namespace that holds it, by a wrapper that records one span per call
(name, start, end, parent span) in memory; `uninstall` puts the
originals back. A span's self time is its duration minus the union of its
child spans. `layer_metrics` turns one operation's spans and counts into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import sys
import time
from array import array
from itertools import count

import numpy as np

# module -> functions timed. A name missing from the program is skipped, and
# the metrics built on it read 0.
TRACED = {
    "dataset": ("write_csv", "load_csv"),
    "network": ("train", "loss_and_gradients", "adam_step", "predict_batch", "save", "load"),
    "sweep": ("sweep_k",),
    "counter": ("extract_reducer", "bnb_census"),
    "quantifier": ("build_report",),
    "cli": ("main",),
}


def _epochs_after_best(history) -> int:
    valid = [v for _, v in history]
    return len(valid) - 1 - valid.index(min(valid)) if valid else 0


def _domain(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["dom"]


# Counts taken at the same boundaries: span name -> (args, kwargs, result) -> {count: amount}.
COUNTERS = {
    "dataset.write_csv": lambda a, kw, r: {"write_rows": a[0].n_rows},
    "dataset.load_csv": lambda a, kw, r: {"load_rows": r.n_rows},
    "network.train": lambda a, kw, r: {"epochs": len(r[1]), "epochs_after_best": _epochs_after_best(r[1])},
    "counter.bnb_census": lambda a, kw, r: {"nodes": r.nodes, "points": _domain(a, kw).size},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids = count()
        # Ids of the spans still open. The benchmark pins the program to one
        # thread (common.PINNED_ENV), so one stack serves every call.
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counts recorded so far (call between operations)."""
        self.sid, self.parent, self.name = array("q"), array("q"), array("q")
        self.start, self.end = array("d"), array("d")
        self.counts: dict[str, int] = {}

    def _wrap(self, label: str, fn):
        name_id = len(self.names)
        self.names.append(label)
        counter = COUNTERS.get(label)

        def traced(*args, **kwargs):
            stack = self._stack
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.sid.append(sid)
                self.parent.append(parent)
                self.name.append(name_id)
                self.start.append(t0)
                self.end.append(t1)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + amount
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "timeleak" or n.startswith("timeleak.")]
        for short, functions in TRACED.items():
            module = sys.modules.get(f"timeleak.{short}")
            for fname in functions:
                fn = getattr(module, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{short}.{fname}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "sid": np.frombuffer(self.sid, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    covered, reach = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        covered += hi - max(lo, reach)
        reach = hi
    return covered


def span_totals(names: list[str], spans: dict[str, np.ndarray]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Total seconds, self seconds and calls per span name."""
    children: dict[int, list[tuple[float, float]]] = {}
    for parent, t0, t1 in zip(spans["parent"].tolist(), spans["start"].tolist(), spans["end"].tolist()):
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    total = dict.fromkeys(names, 0.0)
    own = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    for sid, name, t0, t1 in zip(spans["sid"].tolist(), spans["name"].tolist(), spans["start"].tolist(), spans["end"].tolist()):
        label = names[name]
        total[label] += t1 - t0
        own[label] += (t1 - t0) - union_length(children.get(sid, ()))
        calls[label] += 1
    return total, own, calls


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(total: dict[str, float], own: dict[str, float], calls: dict[str, int], counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one operation, named as in BENCHMARK.json."""
    t = lambda name: total.get(name, 0.0)
    c = lambda key: counts.get(key, 0)
    steps = calls.get("network.adam_step", 0)
    train_s = t("network.train")
    bnb_s = t("counter.bnb_census")
    return {
        "dataset.write_csv_s": t("dataset.write_csv"),
        "dataset.write_rows_per_s": _rate(c("write_rows"), t("dataset.write_csv")),
        "dataset.load_csv_s": t("dataset.load_csv"),
        "dataset.load_rows_per_s": _rate(c("load_rows"), t("dataset.load_csv")),
        "network.train_s": train_s,
        "network.loss_and_gradients_s": t("network.loss_and_gradients"),
        "network.adam_step_s": t("network.adam_step"),
        "network.predict_batch_s": t("network.predict_batch"),
        "network.us_per_step": 1e6 * train_s / steps if steps else 0.0,
        "network.steps": steps,
        "network.epochs": c("epochs"),
        "network.epochs_after_best": c("epochs_after_best"),
        "network.save_s": t("network.save"),
        "network.load_s": t("network.load"),
        "sweep.sweep_k_s": t("sweep.sweep_k"),
        "sweep.self_s": own.get("sweep.sweep_k", 0.0),
        "counter.extract_reducer_s": t("counter.extract_reducer"),
        "counter.bnb_census_s": bnb_s,
        "counter.nodes": c("nodes"),
        "counter.nodes_per_s": _rate(c("nodes"), bnb_s),
        "counter.points_per_s": _rate(c("points"), bnb_s),
        "quantifier.build_report_s": t("quantifier.build_report"),
        "cli.self_s": own.get("cli.main", 0.0),
    }

