"""Reference checks that pass or fail each benchmark operation.

Made apart from the program: this module never imports timeleak. It states
the R_3 clauses itself, evaluates secret branches read straight from the
model JSON, and parses trace CSVs with its own reader. Each `check_*`
function returns a list of problems; an empty list means the operation's
output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# Entropy figures and R_3
# ---------------------------------------------------------------------------

# R_3: loop coefficient 1 when not b1 and (b0 or b2); coefficient 2 when b0 and b1.
R3_CLAUSES = (
    (lambda b: (not b[1]) and (b[0] or b[2]), 1.0),
    (lambda b: b[0] and b[1], 2.0),
)

# Acceptance tolerances of the R_3 run.
R3_EXPECTED_K = 2
R3_MIN_R2 = 0.95
R3_SE_O_TOLERANCE = 0.3
ENTROPY_TOLERANCE = 1e-9


def r3_slope(bits) -> float:
    return sum(coeff for fires, coeff in R3_CLAUSES if fires([int(v) for v in bits]))


def r3_slopes(x: np.ndarray) -> np.ndarray:
    return np.asarray([r3_slope(row) for row in np.asarray(x)], dtype=np.float64)


def r3_class_sizes() -> list[int]:
    """Sizes of the timing classes of the 8 secrets, largest first."""
    by_slope: dict[float, int] = {}
    for bits in product((0, 1), repeat=3):
        s = r3_slope(bits)
        by_slope[s] = by_slope.get(s, 0) + 1
    return sorted(by_slope.values(), reverse=True)


def entropy_figures(sizes) -> tuple[float, float, float]:
    """(initial, remaining, leaked) Shannon bits of a uniform secret whose
    classes have the given sizes; empty classes are ignored."""
    sizes = [int(s) for s in sizes if s > 0]
    total = sum(sizes)
    initial = math.log2(total)
    remaining = sum(b * math.log2(b) for b in sizes) / total
    return initial, remaining, max(0.0, initial - remaining)


def check_detect(op_dir: Path) -> list[str]:
    """The acceptance checks of R_3 on one sweep -> analyze -> report run."""
    try:
        sweep = json.loads((op_dir / "sweep" / "sweep.json").read_text())
        census = json.loads((op_dir / "census.json").read_text())
        report = json.loads((op_dir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"missing or unreadable artifact: {exc}"]
    problems = []
    k_star = sweep["k_star"]
    if abs(k_star - R3_EXPECTED_K) > 1:
        problems.append(f"k*={k_star}, expected {R3_EXPECTED_K} +- 1")
    record = next((r for r in sweep["records"] if r["k"] == k_star), None)
    if record is None or not record["test_r2"] >= R3_MIN_R2:
        problems.append(f"test R2 of k* record below {R3_MIN_R2}: {record and record['test_r2']}")
    counts = [c["count"] for c in census["classes"]]
    if census["k"] != k_star or not census["complete"] or sum(counts) != 8:
        problems.append(f"census k={census['k']} complete={census['complete']} counts={counts}")
    truth = entropy_figures(r3_class_sizes())[1]
    if not abs(report["se_o"] - truth) <= R3_SE_O_TOLERANCE:
        problems.append(f"SE_O {report['se_o']:.4f} vs ground truth {truth:.4f}")
    if sum(counts) > 0:
        for key, want in zip(("se_i", "se_o", "se_l"), entropy_figures(counts)):
            if not abs(report[key] - want) <= ENTROPY_TOLERANCE:
                problems.append(f"{key}={report[key]!r}, recomputed {want!r}")
    return problems


# ---------------------------------------------------------------------------
# Census of a secret branch
# ---------------------------------------------------------------------------

# Interface pre-activations this close to zero, relative to the magnitude of
# the terms summed into them, are decided again in exact arithmetic.
TIE_RTOL = 1e-9


class SecretBranch:
    """The secret branch of a `timeleak-model` v1 document: raw secret ->
    normalized input -> ReLU hidden layers -> k interface pre-activations."""

    def __init__(self, model: dict):
        norm, weights = model["normalizer"], model["weights"]
        self.shift = np.asarray(norm["secret_shift"], dtype=np.float64)
        self.denom = np.asarray(norm["secret_denom"], dtype=np.float64)
        self.hidden = [(np.asarray(l["w"], dtype=np.float64), np.asarray(l["b"], dtype=np.float64)) for l in weights["secret"]]
        self.iface = (np.asarray(weights["iface"]["w"], dtype=np.float64), np.asarray(weights["iface"]["b"], dtype=np.float64))
        self.los, self.his = [], []
        for feature in model["schema"]["secret"]:
            dom = feature["domain"]
            lo, hi = (0, 1) if dom == "binary" else dom["int"]
            self.los.append(int(lo))
            self.his.append(int(hi))

    @property
    def k(self) -> int:
        return self.iface[0].shape[0]

    @property
    def domain_size(self) -> int:
        return math.prod(hi - lo + 1 for lo, hi in zip(self.los, self.his))

    def points(self, start: int, stop: int) -> np.ndarray:
        """Domain points start..stop-1 in lexicographic order, as int64 rows."""
        idx = np.arange(start, stop, dtype=np.int64)
        cols = []
        for lo, hi in zip(reversed(self.los), reversed(self.his)):
            idx, digit = np.divmod(idx, hi - lo + 1)
            cols.append(digit + lo)
        return np.stack(cols[::-1], axis=1)

    def preactivations(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Float64 interface pre-activations and the magnitude of the terms
        summed into each."""
        h = (x - self.shift) / self.denom
        for w, b in self.hidden:
            h = np.maximum(h @ w.T + b, 0.0)
        w, b = self.iface
        return h @ w.T + b, h @ np.abs(w).T + np.abs(b)

    def exact_bits(self, point) -> list[int]:
        """Interface bits of one point in exact rational arithmetic."""
        h = [(Fraction(int(v)) - Fraction(s)) / Fraction(d) for v, s, d in zip(point, self.shift, self.denom)]
        for w, b in self.hidden:
            h = [max(Fraction(0), sum((Fraction(wij) * hj for wij, hj in zip(row, h)), Fraction(bi))) for row, bi in zip(w.tolist(), b.tolist())]
        w, b = self.iface
        return [int(sum((Fraction(wij) * hj for wij, hj in zip(row, h)), Fraction(bi)) >= 0) for row, bi in zip(w.tolist(), b.tolist())]

    def class_counts(self, block: int = 65536) -> tuple[list[int], int]:
        """Exact number of domain points per interface valuation (first bit
        most significant), plus how many points were decided exactly."""
        pow2 = 1 << np.arange(self.k - 1, -1, -1, dtype=np.int64)
        counts = np.zeros(2**self.k, dtype=np.int64)
        rechecked = 0
        total = self.domain_size
        for start in range(0, total, block):
            x = self.points(start, min(start + block, total))
            pre, scale = self.preactivations(x.astype(np.float64))
            bits = (pre >= 0).astype(np.int64)
            for r in np.nonzero(np.any(np.abs(pre) <= TIE_RTOL * scale, axis=1))[0]:
                bits[r] = self.exact_bits(x[r])
                rechecked += 1
            counts += np.bincount(bits @ pow2, minlength=2**self.k)
        return [int(c) for c in counts], rechecked


def check_census(census: dict, reference_counts: list[int], cap: int) -> list[str]:
    """Each class must hold min(reference count, cap), flagged cap_hit exactly
    when the reference count reaches the cap, in a complete census."""
    problems = []
    k = int(math.log2(len(reference_counts)))
    if census.get("format") != "timeleak-census" or census.get("k") != k or census.get("cap") != cap:
        return [f"census header {census.get('format')} k={census.get('k')} cap={census.get('cap')}"]
    if census.get("complete") is not True:
        problems.append("census is not complete")
    got = {int(c["valuation"], 2): c for c in census["classes"]}
    for v, ref in enumerate(reference_counts):
        entry = got.get(v)
        want_count, want_hit = min(ref, cap), ref >= cap
        if entry is None or entry["count"] != want_count or (entry["status"] == "cap_hit") != want_hit:
            problems.append(f"valuation {v:0{k}b}: got {entry}, want count {want_count} cap_hit {want_hit}")
    return problems


# ---------------------------------------------------------------------------
# Trace CSV
# ---------------------------------------------------------------------------


def read_trace_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float64 cell matrix of a trace CSV, parsed cell by cell."""
    with Path(path).open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [[float(cell) for cell in line.rstrip("\n").split(",")] for line in fh]
    return header, np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))


def array_digest(a: np.ndarray) -> str:
    """Identity of an array's dtype, shape and bytes."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.data)
    return h.hexdigest()


def check_written_trace(path: Path, header: list[str], source: dict[str, np.ndarray]) -> list[str]:
    got_header, cells = read_trace_csv(path)
    if got_header != header:
        return [f"header {got_header}, want {header}"]
    want = np.column_stack([source["x"], source["y"], source["t"]])
    if cells.shape != want.shape or not np.array_equal(cells, want):
        return ["written values differ from the source arrays"]
    return []


def check_loaded_trace(loaded: dict, source: dict[str, np.ndarray], sidecar: dict) -> list[str]:
    """`loaded` holds the digests and secret domains of what load_csv returned."""
    problems = [
        f"loaded {name} differs from the source array"
        for name in ("x", "y", "t")
        if loaded["digests"][name] != array_digest(source[name].astype(np.float64))
    ]
    want_domains = [f["domain"] for f in sidecar["secret"]]
    if loaded["domains"] != want_domains:
        problems.append(f"loaded domains {loaded['domains']}, sidecar says {want_domains}")
    return problems
