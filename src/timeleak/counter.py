"""Exact counting of secret inputs per interface valuation.

The secret branch of a trained model, composed with the recorded secret
feature maps, is a total function from the raw secret domain to k bits. This
module extracts it and tallies, for every valuation, how many domain elements
map there: by exhaustive evaluation (the oracle) or by depth-first
branch-and-bound with interval bound propagation (the scalable path). Both
share cap semantics: a class's count freezes at the cap once reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Binary, Domain, FeatureSchema
from .network import TriBranchNetwork, predict_batch

BRUTE_FORCE_LIMIT = 2**20
DEFAULT_NODE_BUDGET = 10**8

# Interval bit decisions keep this safety margin above zero so that float
# rounding in the plain forward pass can never disagree with them; boxes whose
# pre-activations land inside the margin are split down to exact evaluation.
DECISION_MARGIN = 1e-9

# Boxes at most this large are enumerated exactly instead of split further.
LEAF_ENUM_LIMIT = 256

# Points evaluated per batch when a box is enumerated.
ENUM_BLOCK = 65536


class CounterError(Exception):
    pass


class ZeroInterfaceWidth(CounterError):
    pass


class DomainTooLarge(CounterError):
    pass


class IncompleteCensus(CounterError):
    pass


class ExtractionMismatch(CounterError):
    pass


@dataclass(frozen=True)
class SecretDomain:
    """Finite per-feature integer ranges: the box [los, his] of raw secrets."""

    los: tuple[int, ...]
    his: tuple[int, ...]

    @classmethod
    def from_schema(cls, schema: FeatureSchema) -> "SecretDomain":
        if schema.n_secret == 0:
            raise CounterError("schema has no secret features")
        los, his = [], []
        for _, dom in schema.secret_features:
            los.append(dom.lo)
            his.append(dom.hi)
        return cls(tuple(los), tuple(his))

    @property
    def n_features(self) -> int:
        return len(self.los)

    @property
    def size(self) -> int:
        total = 1
        for lo, hi in zip(self.los, self.his):
            total *= hi - lo + 1
        return total


@dataclass(frozen=True, eq=False)
class ReducerNet:
    """Secret branch + interface layer + the exact raw-to-normalized input maps."""

    input_shift: np.ndarray
    input_denom: np.ndarray
    hidden: tuple[tuple[np.ndarray, np.ndarray], ...]
    iface_w: np.ndarray
    iface_b: np.ndarray
    domains: tuple[Domain, ...]

    @property
    def k(self) -> int:
        return self.iface_w.shape[0]

    @property
    def n_features(self) -> int:
        return self.input_shift.shape[0]

    def preactivations(self, x_raw: np.ndarray) -> np.ndarray:
        h = (np.asarray(x_raw, dtype=np.float64) - self.input_shift) / self.input_denom
        for w, b in self.hidden:
            h = np.maximum(h @ w.T + b, 0.0)
        return h @ self.iface_w.T + self.iface_b

    def bits(self, x_raw: np.ndarray) -> np.ndarray:
        return (self.preactivations(x_raw) >= 0).astype(np.int64)

    def valuations(self, x_raw: np.ndarray) -> np.ndarray:
        """Interface valuations as integers; the first interface bit is the MSB."""
        pow2 = 1 << np.arange(self.k - 1, -1, -1)
        return self.bits(x_raw) @ pow2


def valuation_label(v: int, k: int) -> str:
    return format(v, f"0{k}b")


def extract_reducer(net: TriBranchNetwork, self_check_points: int = 1000) -> ReducerNet:
    """Pull the secret branch out of a trained model and verify it agrees with
    the parent network's interface bits on random in-domain points."""
    if net.k == 0:
        raise ZeroInterfaceWidth("a k=0 model has no secret interface to extract")
    if net.schema is None or net.normalizer is None:
        raise CounterError("model lacks schema/normalizer metadata")
    reducer = ReducerNet(
        input_shift=net.normalizer.secret_shift.copy(),
        input_denom=net.normalizer.secret_denom.copy(),
        hidden=tuple((w.copy(), b.copy()) for w, b in net.secret_layers),
        iface_w=net.iface[0].copy(),
        iface_b=net.iface[1].copy(),
        domains=tuple(dom for _, dom in net.schema.secret_features),
    )
    if self_check_points > 0:
        rng = np.random.default_rng(0)
        cols = [rng.integers(d.lo, d.hi + 1, size=self_check_points) for d in reducer.domains]
        x = np.stack(cols, axis=1).astype(np.float64)
        no_public = np.zeros((self_check_points, net.arch.n_public))
        parent = predict_batch(net, net.normalizer.map_secrets(x), no_public)[1]
        if not np.array_equal(parent, reducer.bits(x)):
            raise ExtractionMismatch("extracted reducer disagrees with the parent network")
    return reducer


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassCensus:
    """Per-valuation feasibility and capped count over the full secret domain."""

    k: int
    cap: int | None
    counts: tuple[int, ...]  # min(true count, cap) per valuation
    cap_hits: tuple[bool, ...]
    complete: bool = True
    nodes: int = field(default=0, compare=False)
    true_counts: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.counts) != 2**self.k or len(self.cap_hits) != 2**self.k:
            raise CounterError("census must cover every interface valuation")
        for c, hit in zip(self.counts, self.cap_hits):
            if hit and (self.cap is None or c != self.cap):
                raise CounterError("cap-hit classes must record exactly the cap")

    def status(self, v: int) -> str:
        if self.counts[v] == 0:
            return "infeasible"
        return "cap_hit" if self.cap_hits[v] else "counted"

    @property
    def feasible_count(self) -> int:
        return sum(1 for c in self.counts if c > 0)

    @property
    def total_counted(self) -> int:
        return sum(self.counts)

    def to_json(self) -> dict:
        return {
            "format": "timeleak-census",
            "version": 1,
            "k": self.k,
            "cap": self.cap,
            "complete": self.complete,
            "nodes": self.nodes,
            "classes": [
                {"valuation": valuation_label(v, self.k), "status": self.status(v), "count": self.counts[v]}
                for v in range(2**self.k)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ClassCensus":
        if obj.get("format") != "timeleak-census" or obj.get("version") != 1:
            raise CounterError("not a census file (or unsupported version)")
        k = int(obj["k"])
        counts = [0] * 2**k
        hits = [False] * 2**k
        for entry in obj["classes"]:
            v = int(entry["valuation"], 2)
            counts[v] = int(entry["count"])
            hits[v] = entry["status"] == "cap_hit"
        return cls(
            k=k,
            cap=obj.get("cap"),
            counts=tuple(counts),
            cap_hits=tuple(hits),
            complete=bool(obj.get("complete", True)),
            nodes=int(obj.get("nodes", 0)),
        )


def census_from_sizes(sizes, cap: int | None = None, k: int | None = None) -> ClassCensus:
    """Build a census for known class sizes, each count capped at `cap`."""
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise CounterError("need at least one class size")
    if k is None:
        k = max(1, math.ceil(math.log2(len(sizes))))
    if len(sizes) > 2**k:
        raise CounterError(f"{len(sizes)} classes do not fit in {k} bits")
    counts = [0] * 2**k
    hits = [False] * 2**k
    for v, s in enumerate(sizes):
        if cap is not None and s >= cap:
            counts[v] = cap
            hits[v] = True
        else:
            counts[v] = s
    return ClassCensus(k=k, cap=cap, counts=tuple(counts), cap_hits=tuple(hits), true_counts=tuple(sizes) + (0,) * (2**k - len(sizes)))


def _tally(reducer: ReducerNet, los, his, block: int = ENUM_BLOCK) -> np.ndarray:
    """Count per valuation over every integer point of the box [los, his].

    Points are listed in lexicographic order (last feature fastest) by
    decoding their mixed-radix index, and evaluated `block` at a time.
    """
    lo = np.asarray(los, dtype=np.int64)
    sizes = np.asarray(his, dtype=np.int64) - lo + 1
    strides = np.cumprod(np.append(1, sizes[:0:-1]))[::-1]
    tally = np.zeros(2**reducer.k, dtype=np.int64)
    total = math.prod(sizes.tolist())
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.int64)[:, None]
        points = (lo + idx // strides % sizes).astype(np.float64)
        tally += np.bincount(reducer.valuations(points), minlength=tally.size)
    return tally


def brute_force_census(reducer: ReducerNet, dom: SecretDomain, cap: int | None = None) -> ClassCensus:
    """Evaluate the reducer on every domain element and tally exactly.

    The returned counts are capped like the branch-and-bound census, but the
    exact tallies are retained in `true_counts` for oracle comparisons.
    """
    total = dom.size
    if total > BRUTE_FORCE_LIMIT:
        raise DomainTooLarge(f"domain size {total} exceeds brute-force guard {BRUTE_FORCE_LIMIT}")
    if dom.n_features != reducer.n_features:
        raise CounterError("domain does not match reducer input width")
    census = census_from_sizes(_tally(reducer, dom.los, dom.his), cap, reducer.k)
    return replace(census, nodes=total)


# ---------------------------------------------------------------------------
# Interval bound propagation and branch-and-bound
# ---------------------------------------------------------------------------


def _split_weights(reducer: ReducerNet):
    hidden = [(np.maximum(w, 0.0), np.minimum(w, 0.0), b) for w, b in reducer.hidden]
    iw_p, iw_n = np.maximum(reducer.iface_w, 0.0), np.minimum(reducer.iface_w, 0.0)
    return hidden, (iw_p, iw_n, reducer.iface_b)


def _propagate(split, shift, denom, lo: np.ndarray, hi: np.ndarray):
    hidden, (iw_p, iw_n, ib) = split
    lb = (lo - shift) / denom
    ub = (hi - shift) / denom
    for wp, wn, b in hidden:
        nlb = lb @ wp.T + ub @ wn.T + b
        nub = ub @ wp.T + lb @ wn.T + b
        lb = np.maximum(nlb, 0.0)
        ub = np.maximum(nub, 0.0)
    return lb @ iw_p.T + ub @ iw_n.T + ib, ub @ iw_p.T + lb @ iw_n.T + ib


def propagate_bounds(reducer: ReducerNet, box) -> tuple[np.ndarray, np.ndarray]:
    """Sound interval bounds on the interface pre-activations over a raw-space box.

    `box` is a sequence of per-feature (lo, hi) pairs. Every reachable
    pre-activation for inputs inside the box lies within the returned
    (lower, upper) vectors.
    """
    box = np.asarray(box, dtype=np.float64)
    if box.ndim != 2 or box.shape != (reducer.n_features, 2):
        raise CounterError(f"box must be ({reducer.n_features}, 2) lo/hi pairs")
    lo, hi = box[:, 0], box[:, 1]
    if np.any(lo > hi):
        raise CounterError("box has lo > hi")
    return _propagate(_split_weights(reducer), reducer.input_shift, reducer.input_denom, lo, hi)


def bnb_census(
    reducer: ReducerNet,
    dom: SecretDomain,
    cap: int,
    budget: int = DEFAULT_NODE_BUDGET,
    leaf_limit: int = LEAF_ENUM_LIMIT,
) -> ClassCensus:
    """Branch-and-bound census, exact wherever brute force is applicable.

    Depth-first search over sub-boxes of the domain: binary features branch
    before integer features, integer features bisect their widest interval.
    Interval bounds fix interface bits over a box; fully determined boxes are
    counted in closed form, boxes that can only feed already-capped classes
    are pruned, and small boxes are enumerated exactly. Budget exhaustion
    returns a partial census marked incomplete.
    """
    if cap < 1:
        raise CounterError("cap must be >= 1")
    if dom.n_features != reducer.n_features:
        raise CounterError("domain does not match reducer input width")
    k = reducer.k
    n_vals = 2**k
    counts: list[int] = [0] * n_vals
    capped = np.zeros(n_vals, dtype=bool)
    all_vals = np.arange(n_vals)
    pow2 = 1 << np.arange(k - 1, -1, -1)
    split = _split_weights(reducer)
    shift, denom = reducer.input_shift, reducer.input_denom
    binary_mask = np.asarray([isinstance(d, Binary) for d in reducer.domains])

    def add(v: int, amount: int) -> None:
        if capped[v]:
            return
        counts[v] += amount
        if counts[v] >= cap:
            counts[v] = cap
            capped[v] = True

    stack: list[tuple[np.ndarray, np.ndarray]] = [
        (np.asarray(dom.los, dtype=np.int64), np.asarray(dom.his, dtype=np.int64))
    ]
    nodes = 0
    complete = True
    while stack:
        if nodes >= budget:
            complete = False
            break
        nodes += 1
        los, his = stack.pop()

        lb, ub = _propagate(split, shift, denom, los.astype(np.float64), his.astype(np.float64))
        det_one = lb >= DECISION_MARGIN
        det_zero = ub < -DECISION_MARGIN
        free = ~(det_one | det_zero)

        size = 1
        for lo, hi in zip(los.tolist(), his.tolist()):
            size *= hi - lo + 1

        base = int(det_one @ pow2)
        if not free.any():
            add(base, size)
            continue

        # Prune when every valuation that agrees with the decided bits is capped.
        if capped.any() and capped[(all_vals & int(~free @ pow2)) == base].all():
            continue

        if size <= leaf_limit:
            tally = _tally(reducer, los, his)
            for v in np.nonzero(tally)[0]:
                add(int(v), int(tally[v]))
            continue

        widths = his - los
        unfixed_binary = np.nonzero(binary_mask & (widths > 0))[0]
        if unfixed_binary.size:
            j = int(unfixed_binary[0])
            mid = los[j]
        else:
            j = int(np.argmax(widths))
            mid = los[j] + (his[j] - los[j]) // 2
        left_hi = his.copy()
        left_hi[j] = mid
        right_lo = los.copy()
        right_lo[j] = mid + 1
        stack.append((right_lo, his))
        stack.append((los, left_hi))

    return ClassCensus(
        k=k,
        cap=cap,
        counts=tuple(counts),
        cap_hits=tuple(capped.tolist()),
        complete=complete,
        nodes=nodes,
    )


def feasible_classes(census: ClassCensus) -> list[tuple[str, int]]:
    """Feasible valuations (as bit strings) with their capped counts, ordered
    by the valuation read as a binary integer."""
    if not census.complete:
        raise IncompleteCensus("census is incomplete (budget exhausted)")
    return [
        (valuation_label(v, census.k), census.counts[v])
        for v in range(2**census.k)
        if census.counts[v] > 0
    ]
