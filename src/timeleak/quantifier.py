"""Shannon-entropy leak figures computed from a class census.

For class sizes B_1..B_K with B = sum B_i (capped counts), a uniform secret
has log2(B) bits of initial entropy; one timing observation leaves
(1/B) * sum B_i * log2(B_i) bits, and the difference is the leak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .counter import ClassCensus
from .jsonio import canonical_dumps, sha256_hex

REPORT_FORMAT = "timeleak-report"
REPORT_VERSION = 1


class QuantifierError(Exception):
    pass


def _feasible_sizes(census: ClassCensus) -> list[int]:
    if not census.complete:
        raise QuantifierError("cannot quantify an incomplete census")
    sizes = [c for c in census.counts if c > 0]
    if not sizes:
        raise QuantifierError("census has no feasible class")
    return sizes


def initial_entropy(census: ClassCensus) -> float:
    """log2 of the total number of (capped) secrets across feasible classes."""
    return math.log2(sum(_feasible_sizes(census)))


def remaining_entropy(census: ClassCensus) -> float:
    """Expected entropy of the secret after one timing observation, in bits."""
    sizes = _feasible_sizes(census)
    total = sum(sizes)
    return sum(b * math.log2(b) for b in sizes) / total


def shannon_leak(census: ClassCensus) -> float:
    """Bits of secret revealed by one observation; clamped at zero."""
    return max(0.0, initial_entropy(census) - remaining_entropy(census))


@dataclass(frozen=True)
class LeakReport:
    k: int
    n_classes: int
    cap: int | None
    total: int
    initial_bits: float
    remaining_bits: float
    leaked_bits: float
    class_sizes: tuple[int, ...]
    provenance: Mapping

    def __post_init__(self):
        if self.n_classes < 1:
            raise QuantifierError("report needs at least one feasible class")
        if not (-1e-9 <= self.remaining_bits <= self.initial_bits + 1e-9):
            raise QuantifierError("remaining entropy must lie in [0, initial entropy]")
        if abs(self.leaked_bits - (self.initial_bits - self.remaining_bits)) > 1e-9:
            raise QuantifierError("leak must equal initial minus remaining entropy")

    def summary(self) -> str:
        return (
            f"k={self.k}, K={self.n_classes}, SE_I={self.initial_bits:.2f}, "
            f"SE_O={self.remaining_bits:.2f}, leak={self.leaked_bits:.2f} bits"
        )

    def to_json(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "k": self.k,
            "n_classes": self.n_classes,
            "cap": self.cap,
            "total": self.total,
            "se_i": self.initial_bits,
            "se_o": self.remaining_bits,
            "se_l": self.leaked_bits,
            "class_sizes": list(self.class_sizes),
            "provenance": dict(self.provenance),
        }


def build_report(
    census: ClassCensus,
    sweep_summary: Mapping | None = None,
    model_ref: str | None = None,
) -> LeakReport:
    """Assemble the leak figures plus provenance hashes into a report.

    `sweep_summary` (if given) must describe the sweep that selected this
    model; its chosen k must match the census.
    """
    if sweep_summary is not None and sweep_summary.get("k_star") != census.k:
        raise QuantifierError(
            f"census k={census.k} does not match sweep k_star={sweep_summary.get('k_star')}"
        )
    sizes = _feasible_sizes(census)
    provenance = {
        "census_hash": sha256_hex(canonical_dumps(census.to_json())),
        "model": model_ref,
        "sweep": dict(sweep_summary) if sweep_summary is not None else None,
    }
    return LeakReport(
        k=census.k,
        n_classes=len(sizes),
        cap=census.cap,
        total=sum(sizes),
        initial_bits=initial_entropy(census),
        remaining_bits=remaining_entropy(census),
        leaked_bits=shannon_leak(census),
        class_sizes=tuple(sizes),
        provenance=provenance,
    )
