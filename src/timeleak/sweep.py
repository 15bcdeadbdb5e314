"""Interface-width sweep: train models for k = 0..k_max and find the SSE elbow.

The detection signal is the smallest k after which held-out SSE stops
improving by more than a relative threshold tau; k* >= 1 means the timing
model needs secret information, i.e. a leak.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .dataset import TraceDataset, split
from .network import (
    Architecture,
    NonFiniteLoss,
    TrainConfig,
    TriBranchNetwork,
    max_abs_residual,
    r2,
    sse,
    train_stack,
)

DEFAULT_TAU = 0.05
_SSE_FLOOR = 1e-12


class SweepError(Exception):
    pass


@dataclass(frozen=True)
class Verdict:
    leak: bool
    k_star: int
    note: str = ""

    @property
    def label(self) -> str:
        return f"LeakDetected(k={self.k_star})" if self.leak else "NoLeakDetected"


@dataclass(frozen=True)
class KRecord:
    k: int
    test_sse: float
    test_r2: float
    max_abs_residual: float
    seed: int
    model: TriBranchNetwork | None = field(default=None, compare=False, repr=False)
    model_path: str | None = None


@dataclass(frozen=True)
class SweepResult:
    records: tuple[KRecord, ...]
    k_star: int
    tau: float
    verdict: Verdict

    def __post_init__(self):
        ks = [r.k for r in self.records]
        if ks != list(range(len(ks))):
            raise SweepError("records must cover a contiguous k range starting at 0")
        if not 0 <= self.k_star < len(ks):
            raise SweepError("k_star outside the swept range")
        if self.verdict.leak != (self.k_star >= 1):
            raise SweepError("verdict must say leak exactly when k_star >= 1")

    def record(self, k: int) -> KRecord:
        return self.records[k]

    def sse_curve(self) -> list[float]:
        return [r.test_sse for r in self.records]

    def to_json(self) -> dict:
        return {
            "format": "timeleak-sweep",
            "version": 1,
            "tau": self.tau,
            "k_star": self.k_star,
            "verdict": self.verdict.label,
            "records": [
                {
                    "k": r.k,
                    "test_sse": r.test_sse,
                    "test_r2": r.test_r2,
                    "max_abs_residual": r.max_abs_residual,
                    "seed": r.seed,
                    "model_path": r.model_path,
                }
                for r in self.records
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SweepResult":
        if obj.get("format") != "timeleak-sweep" or obj.get("version") != 1:
            raise SweepError("not a sweep file (or unsupported version)")
        records = tuple(
            KRecord(
                k=int(r["k"]),
                test_sse=float(r["test_sse"]),
                test_r2=float(r["test_r2"]),
                max_abs_residual=float(r["max_abs_residual"]),
                seed=int(r["seed"]),
                model_path=r.get("model_path"),
            )
            for r in obj["records"]
        )
        k_star = int(obj["k_star"])
        verdict = Verdict(leak=k_star >= 1, k_star=k_star)
        return cls(records=records, k_star=k_star, tau=float(obj["tau"]), verdict=verdict)


def select_k(sse_by_k: Sequence[float], tau: float = DEFAULT_TAU) -> int:
    """Smallest k whose SSE no later width improves by a relative tau or more.

    The curve is indexed by k starting at 0. Improvements are measured against
    every larger k, not just the successor, to resist noisy plateaus.
    """
    if not 0 < tau < 1:
        raise SweepError(f"tau must be in (0, 1), got {tau}")
    curve = [float(s) for s in sse_by_k]
    if not curve:
        raise SweepError("empty SSE curve")
    for k, sse_k in enumerate(curve):
        denom = max(sse_k, _SSE_FLOOR)
        if all((sse_k - later) / denom < tau for later in curve[k + 1 :]):
            return k
    return len(curve) - 1


def detect(sweep: SweepResult, epsilon: float | None = None) -> Verdict:
    """Leak verdict. Without epsilon: leak iff k* >= 1. With epsilon: leak iff
    the k=0 model's worst-case residual exceeds it; disagreement is noted."""
    elbow_leak = sweep.k_star >= 1
    if epsilon is None:
        return Verdict(leak=elbow_leak, k_star=sweep.k_star)
    eps_leak = sweep.record(0).max_abs_residual > epsilon
    note = ""
    if eps_leak != elbow_leak:
        note = (
            f"epsilon criterion ({'leak' if eps_leak else 'no leak'} at eps={epsilon:g}) "
            f"disagrees with the SSE elbow ({'leak' if elbow_leak else 'no leak'} at k*={sweep.k_star})"
        )
    return Verdict(leak=eps_leak, k_star=sweep.k_star, note=note)


def derive_seed(base: int, k: int, attempt: int) -> int:
    return (base * 1_000_003 + k * 10_007 + attempt) % 2**32


def sweep_k(
    ds: TraceDataset,
    arch_template: Architecture,
    k_max: int,
    config: TrainConfig,
    seeds_per_k: int = 3,
    tau: float = DEFAULT_TAU,
    test_fraction: float = 0.1,
) -> SweepResult:
    """Train `seeds_per_k` models per interface width, keep the best test-SSE
    model per k, and pick k* by the elbow rule. The seeds of one width train
    in lockstep as one stack (`network.train_stack`).

    One shuffle-split is shared by all widths: `test_fraction` held out for
    the records, and the same fraction carved from the remainder as the
    early-stopping validation set.
    """
    if k_max < 1:
        raise SweepError("k_max must be >= 1")
    if seeds_per_k < 1:
        raise SweepError("seeds_per_k must be >= 1")
    trainval, test = split(ds, test_fraction, config.seed)
    train_ds, valid_ds = split(trainval, test_fraction, config.seed + 1)

    records = []
    for k in range(k_max + 1):
        seeds = [derive_seed(config.seed, k, i) for i in range(seeds_per_k)]
        try:
            trained = train_stack(train_ds, valid_ds, replace(arch_template, k=k), config, seeds)
        except NonFiniteLoss as exc:
            raise SweepError(f"training failed at k={k} (seed {exc.seed}): {exc}") from exc
        except Exception as exc:
            raise SweepError(f"training failed at k={k}: {exc}") from exc
        candidates = [(sse(net, test), i, seed, net) for i, (seed, (net, _)) in enumerate(zip(seeds, trained))]
        test_sse, _, seed, net = min(candidates, key=lambda c: c[:2])
        records.append(
            KRecord(
                k=k,
                test_sse=test_sse,
                test_r2=r2(net, test),
                max_abs_residual=max_abs_residual(net, test),
                seed=seed,
                model=net,
            )
        )

    k_star = select_k([r.test_sse for r in records], tau)
    verdict = Verdict(leak=k_star >= 1, k_star=k_star)
    return SweepResult(records=tuple(records), k_star=k_star, tau=tau, verdict=verdict)
