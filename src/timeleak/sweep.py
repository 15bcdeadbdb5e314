"""Interface-width sweep: train models for k = 0..k_max and find the SSE elbow.

The detection signal is the smallest k after which held-out SSE stops
improving by more than a relative threshold tau; k* >= 1 means the timing
model needs secret information, i.e. a leak.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .dataset import TraceDataset, split_train_valid_test
from .jsonio import FieldError, get
from .network import (
    Architecture,
    NetworkError,
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

    def __post_init__(self):
        ks = [r.k for r in self.records]
        if ks != list(range(len(ks))):
            raise SweepError("records must cover a contiguous k range starting at 0")
        if not 0 <= self.k_star < len(ks):
            raise SweepError("k_star outside the swept range")

    @property
    def verdict(self) -> Verdict:
        return Verdict(leak=self.k_star >= 1, k_star=self.k_star)

    def record(self, k: int) -> KRecord:
        return self.records[k]

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
        try:
            if get(obj, "format", default=None) != "timeleak-sweep" or get(obj, "version", int, default=None) != 1:
                raise SweepError("not a sweep file (or unsupported version)")
            records = get(obj, "records", list)
            records = tuple(_record_from_json(records, i) for i in range(len(records)))
            k_star, tau = get(obj, "k_star", int), get(obj, "tau", float)
        except FieldError as exc:
            raise SweepError(f"sweep {exc}") from None
        _check_tau(tau)
        return cls(records=records, k_star=k_star, tau=tau)


def _record_from_json(records: list, i: int) -> KRecord:
    r, where = get(records, i, dict, where="records"), f"records[{i}]"
    return KRecord(
        k=get(r, "k", int, where=where),
        test_sse=get(r, "test_sse", float, lo=0, where=where),
        test_r2=get(r, "test_r2", float, where=where),
        max_abs_residual=get(r, "max_abs_residual", float, lo=0, where=where),
        seed=get(r, "seed", int, lo=0, hi=2**32 - 1, where=where),  # as `derive_seed` makes them
        model_path=get(r, "model_path", str, type(None), where=where, default=None),
    )


def _check_tau(tau: float) -> None:
    if not 0 < tau < 1:
        raise SweepError(f"tau must be in (0, 1), got {tau}")


def select_k(sse_by_k: Sequence[float], tau: float = DEFAULT_TAU) -> int:
    """Smallest k whose SSE no later width improves by a relative tau or more.

    The curve is indexed by k starting at 0. Improvements are measured against
    every larger k, not just the successor, to resist noisy plateaus.
    """
    _check_tau(tau)
    curve = [float(s) for s in sse_by_k]
    if not curve:
        raise SweepError("empty SSE curve")
    # The last k always returns: no later width can improve on it.
    for k, sse_k in enumerate(curve):
        denom = max(sse_k, _SSE_FLOOR)
        if all((sse_k - later) / denom < tau for later in curve[k + 1 :]):
            return k


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
    model per k, and pick k* by the elbow rule. Every model of the sweep, each
    width and each seed, trains in lockstep as one stack
    (`network.train_stack`), grouped by layer shape rather than padded to
    k_max, so each model's bits are those it gets trained alone. When a
    width diverges, the error names the smallest such k with its seed, as if
    the widths had trained one after another in increasing k.

    One shuffle-split (`dataset.split_train_valid_test`) is shared by all
    widths: `test_fraction` held out for the records, and the same fraction
    carved from the remainder as the early-stopping validation set.
    """
    if k_max < 1:
        raise SweepError("k_max must be >= 1")
    if seeds_per_k < 1:
        raise SweepError("seeds_per_k must be >= 1")
    _check_tau(tau)
    archs = []
    for k in range(k_max + 1):
        try:
            archs.append(replace(arch_template, k=k))
        except NetworkError as exc:
            raise SweepError(f"cannot build the network of width k={k}: {exc}") from exc
    train_ds, valid_ds, test = split_train_valid_test(ds, test_fraction, config.seed)

    seeds = [derive_seed(config.seed, k, i) for k in range(k_max + 1) for i in range(seeds_per_k)]
    try:
        trained = train_stack(train_ds, valid_ds, [a for a in archs for _ in range(seeds_per_k)], config, seeds)
    except NonFiniteLoss as exc:
        raise SweepError(f"training failed at k={exc.k} (seed {exc.seed}): {exc}") from exc
    except Exception as exc:
        raise SweepError(f"training failed: {exc}") from exc

    records = []
    for k in range(k_max + 1):
        models = trained[k * seeds_per_k : (k + 1) * seeds_per_k]
        candidates = [(sse(net, test), i, net) for i, (net, _) in enumerate(models)]
        test_sse, _, net = min(candidates, key=lambda c: c[:2])
        records.append(
            KRecord(
                k=k,
                test_sse=test_sse,
                test_r2=r2(net, test),
                max_abs_residual=max_abs_residual(net, test),
                seed=net.seed,
                model=net,
            )
        )

    k_star = select_k([r.test_sse for r in records], tau)
    return SweepResult(records=tuple(records), k_star=k_star, tau=tau)
