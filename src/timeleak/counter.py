"""Exact counting of secret inputs per interface valuation.

The secret branch of a trained model, composed with the recorded secret
feature maps, is a total function from the raw secret domain to k bits. This
module extracts it and tallies, for every valuation, how many domain elements
map there, by branch-and-bound with interval bound propagation, which works
on a block of boxes per numpy call and enumerates the boxes it cannot decide
with one kernel, `_tally`. A class's count freezes at the cap once reached.

Counts are those of exact arithmetic: a point's valuation is the sign
pattern of its interface pre-activations computed in rationals from the
raw integer point (every float64 weight is a rational), with `>= 0` as the
threshold. The counter computes in float64 and knows how far float can be
off: `ReducerNet.tie_tolerance`, `TIE_RTOL` times the magnitude of the
terms summed into each pre-activation. Bounds fix a bit only beyond it, and
the enumeration kernel `_tally` decides the points inside it again in
`fractions.Fraction`, so no count depends on batching or summation order.
`_tally` lists the points of a box as rows times a grid, writes the first
layer as one batched K = 2 product of a row table `[R | 1]` and a grid table
`[1 ; G]`, and runs the other layers on (units, points) matrices with a
trailing row of ones, so each bias is added inside its layer's product.
The reducer's float evaluator `network.secret_branch` runs the same layer
steps as training and prediction, and the `extract_reducer` self-check
compares float with float.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import Binary, Domain
from .jsonio import FieldError, get
from .network import TriBranchNetwork, interface_bits, predict_batch, secret_branch

DEFAULT_NODE_BUDGET = 10**8

# A float interface pre-activation of the counter lies within TIE_RTOL times
# the magnitude of the terms summed into it (`ReducerNet.tie_tolerance`) of
# its exact value, and equals it when that magnitude is 0. Bounds decide a
# bit only beyond that band; points inside it are decided again exactly.
TIE_RTOL = 1e-9

# Boxes at most this large are enumerated exactly instead of split further.
LEAF_ENUM_LIMIT = 256

# Points the table kernel evaluates per step when boxes are enumerated.
ENUM_BLOCK = 4096

# Boxes the branch-and-bound takes off its stack and bounds together.
FRONTIER_BLOCK = 256

# An uncapped search (cap >= domain size) takes blocks of up to this many
# times `FRONTIER_BLOCK` boxes.
UNCAPPED_BLOCK_FACTOR = 2

# Cells (boxes x valuations) of the cap-prune mask built at a time.
PRUNE_MASK_CELLS = 2**18

# Class counts are summed in float64, exact below this.
EXACT_COUNT_LIMIT = 2**53

# Random in-domain points on which an extracted reducer must match its network.
SELF_CHECK_POINTS = 1000


class CounterError(Exception):
    pass


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
    def box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Corners (los, his) of the secret domain, the box a census counts."""
        return tuple(d.lo for d in self.domains), tuple(d.hi for d in self.domains)

    @property
    def domain_size(self) -> int:
        return math.prod(d.size for d in self.domains)

    @property
    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The hidden layers, then the interface layer."""
        return (*self.hidden, (self.iface_w, self.iface_b))

    def preactivations(self, x_raw: np.ndarray) -> np.ndarray:
        """Float interface pre-activations of (rows, d) raw secrets, by the
        layer steps that training and prediction run."""
        xn = (np.asarray(x_raw, dtype=np.float64) - self.input_shift) / self.input_denom
        return secret_branch(self.hidden, (self.iface_w, self.iface_b), xn)

    def bits(self, x_raw: np.ndarray) -> np.ndarray:
        return interface_bits(self.preactivations(x_raw)).astype(np.int64)

    @property
    def tie_tolerance(self) -> np.ndarray:
        """`TIE_RTOL` times M_j, a bound on the magnitude of every term summed
        into interface pre-activation j anywhere in the domain: M starts as
        max |normalized input| per feature and passes each layer as
        |W| M + |b|."""
        m = np.array([max(abs(d.lo - s), abs(d.hi - s)) for d, s in zip(self.domains, self.input_shift.tolist())])
        m /= np.abs(self.input_denom)
        for w, b in self.layers:
            m = np.abs(w) @ m + np.abs(b)
        return TIE_RTOL * m

    def exact_valuations(self, points) -> list[int]:
        """Interface valuations of raw integer points in exact rational
        arithmetic: every float64 weight is a rational, so the threshold
        `>= 0` is decided without rounding."""
        from fractions import Fraction

        shift = [Fraction(s) for s in self.input_shift.tolist()]
        denom = [Fraction(s) for s in self.input_denom.tolist()]
        layers = [([[Fraction(v) for v in row] for row in w.tolist()], [Fraction(v) for v in b.tolist()]) for w, b in self.layers]
        out = []
        for point in points:
            h = [(int(x) - s) / q for x, s, q in zip(point, shift, denom)]
            for i, (w, b) in enumerate(layers):
                if i:
                    h = [max(v, 0) for v in h]
                h = [sum(map(operator.mul, row, h), bias) for row, bias in zip(w, b)]
            out.append(sum(int(v >= 0) << (len(h) - 1 - j) for j, v in enumerate(h)))
        return out


def _aligned(a: np.ndarray) -> np.ndarray:
    """A copy of the float64 array `a` whose data starts on a 64-byte
    boundary: a cache line, and one AVX-512 vector. numpy takes whatever
    alignment malloc gives. With the buffers at offsets 16, 32 or 48 in
    place of 0, the census of the benchmark's census-mixed model (a) took
    18-30% longer and that of model (c) 4-11% longer (medians of 9, one
    CPU of an AVX-512 Xeon)."""
    raw = np.empty(a.nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    out = raw[start : start + a.nbytes].view(np.float64).reshape(a.shape)
    out[...] = a
    return out


class EvalBuffers:
    """What the table kernel keeps for one reducer across its calls: the
    reducer's tie tolerance, each layer after the first as `[W | b]`, and
    the (width, `rows`) matrices a step of up to `rows` points writes, one
    per layer (hidden layers, then the interface). A hidden layer's matrix
    has a trailing row of ones, so the next layer's product adds its bias.
    A step overwrites the columns it reads, so the arrays carry nothing from
    one step to the next. Every array starts on a 64-byte boundary."""

    def __init__(self, reducer: ReducerNet, rows: int):
        self.tol = reducer.tie_tolerance
        self.folded = [_aligned(np.hstack([w, b[:, None]])) for w, b in reducer.layers[1:]]
        layers = [np.ones((len(b) + 1, rows)) for _, b in reducer.hidden] + [np.empty((reducer.k, rows))]
        self.layers = [_aligned(a) for a in layers]


def valuation_label(v: int, k: int) -> str:
    return format(v, f"0{k}b")


def extract_reducer(net: TriBranchNetwork) -> ReducerNet:
    """Pull the secret branch out of a trained model and verify it agrees with
    the parent network's interface bits on random in-domain points."""
    if net.k == 0:
        raise CounterError("k=0 model has no reducer - nothing leaks through it")
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
    rng = np.random.default_rng(0)
    cols = [rng.integers(d.lo, d.hi + 1, size=SELF_CHECK_POINTS) for d in reducer.domains]
    x = np.stack(cols, axis=1).astype(np.float64)
    no_public = np.zeros((SELF_CHECK_POINTS, net.arch.n_public))
    parent = predict_batch(net, net.normalizer.map_secrets(x), no_public)[1]
    if not np.array_equal(parent, reducer.bits(x)):
        raise CounterError("extracted reducer disagrees with the parent network")
    return reducer


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------


class NodeOutcomes(NamedTuple):
    """How a branch-and-bound census spent its nodes; the four sum to `nodes`."""

    decided: int  # every interface bit fixed by the bounds, counted in closed form
    pruned: int  # every class the box could reach is already capped
    enumerated: int  # small enough to list its points
    split: int  # cut in two along one feature


@dataclass(frozen=True)
class ClassCensus:
    """Per-valuation feasibility and capped count over the full secret domain."""

    k: int
    cap: int | None
    counts: tuple[int, ...]  # min(true count, cap) per valuation
    complete: bool = True
    nodes: int = field(default=0, compare=False)
    node_outcomes: NodeOutcomes | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.counts) != 2**self.k:
            raise CounterError("census must cover every interface valuation")

    def status(self, v: int) -> str:
        if self.counts[v] == 0:
            return "infeasible"
        return "cap_hit" if self.counts[v] == self.cap else "counted"

    @property
    def feasible_count(self) -> int:
        return sum(1 for c in self.counts if c > 0)

    @property
    def total_counted(self) -> int:
        return sum(self.counts)

    def to_json(self) -> dict:
        obj = {
            "format": "timeleak-census",
            "version": 1,
            "k": self.k,
            "cap": self.cap,
            "complete": self.complete,
            "nodes": self.nodes,
        }
        if self.node_outcomes is not None:
            obj["node_outcomes"] = self.node_outcomes._asdict()
        obj["classes"] = [
            {"valuation": valuation_label(v, self.k), "status": self.status(v), "count": self.counts[v]}
            for v in range(2**self.k)
        ]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ClassCensus":
        try:
            if get(obj, "format", default=None) != "timeleak-census" or get(obj, "version", int, default=None) != 1:
                raise FieldError("format is not timeleak-census version 1")
            k, cap = get(obj, "k", int, lo=0), get(obj, "cap", int, type(None), lo=1)
            complete, nodes = get(obj, "complete", bool, default=True), get(obj, "nodes", int, lo=0, default=0)
            outcomes = get(obj, "node_outcomes", dict, type(None), default=None)
            if outcomes is not None:
                outcomes = NodeOutcomes(*(get(outcomes, f, int, lo=0, where="node_outcomes") for f in NodeOutcomes._fields))
                if sum(outcomes) != nodes:
                    raise FieldError(f"node_outcomes sum to {sum(outcomes)}, not to nodes = {nodes}")
            # Checked before anything of size 2^k is built: n must be exactly 2^k.
            classes = get(obj, "classes", list)
            n = len(classes)
            if n < 1 or n & (n - 1) or n.bit_length() != k + 1:
                raise FieldError(f"with k={k} must list 2^{k} classes, found {n}")
            counts, statuses = [], []
            for v in range(n):
                entry, where = get(classes, v, dict, where="classes"), f"classes[{v}]"
                if get(entry, "valuation", str, where=where) != valuation_label(v, k):
                    raise FieldError(f"{where}.valuation must be {valuation_label(v, k)!r}, got {entry['valuation']!r}")
                counts.append(get(entry, "count", int, lo=0, hi=cap, where=where))
                statuses.append(get(entry, "status", str, where=where))
            census = cls(k, cap, tuple(counts), complete, nodes, outcomes)
            for v, status in enumerate(statuses):
                if status != census.status(v):
                    raise FieldError(f"classes[{v}].status is {status!r} with count {counts[v]}")
            return census
        except (FieldError, CounterError) as exc:
            raise CounterError(f"census {exc}") from None


def _offsets(shape: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Offsets of the points with these mixed-radix indices in a box of this
    shape, last feature fastest, as an (len(index), d) matrix."""
    return np.stack(np.unravel_index(index, tuple(shape.tolist())), axis=-1)


def _tally(reducer: ReducerNet, los, his, bufs: EvalBuffers | None = None) -> np.ndarray:
    """Count per valuation over every integer point of the boxes [los[i], his[i]].

    `los` and `his` are (N, d) matrices, or one box as two vectors. The
    points of one box shape are rows (the leading features, listed by
    index) times a grid (the longest run of trailing features with at most
    `ENUM_BLOCK` points). The first layer is affine, so its pre-activation
    at row point r plus grid offset g is the sum of two tables:
    R[:, r] = W1 (r - shift) / denom + b1, built per step, and
    G[:, g] = W1 g / denom, built once per shape. Each unit's sum is one
    K = 2 product `[R | 1] @ [1 ; G]`, batched over units, which rounds
    exactly as `R + G` does and runs faster than numpy's broadcast add. The
    other layers run on (units, points) matrices of at most `ENUM_BLOCK`
    points per step, written into `bufs` (new buffers when none are given);
    each hidden matrix ends in a row of ones, so `[W | b]` adds the bias
    inside the product. A pre-activation within the reducer's
    `tie_tolerance` of zero may have the wrong sign in float, so the
    valuations of those points are decided again in exact arithmetic; the
    counts are those of exact arithmetic, whatever the blocks.
    """
    los = np.atleast_2d(np.asarray(los, dtype=np.int64))
    sizes = np.atleast_2d(np.asarray(his, dtype=np.int64)) - los + 1
    d = los.shape[1]
    w1, b1 = reducer.layers[0]
    shift, denom = reducer.input_shift, reducer.input_denom
    pow2 = 2.0 ** np.arange(reducer.k - 1, -1, -1)
    tally = np.zeros(2**reducer.k, dtype=np.int64)
    block = ENUM_BLOCK
    if bufs is None:
        bufs = EvalBuffers(reducer, block)
    tol = bufs.tol
    # Boxes sorted by shape, so each shape is one run of rows.
    order = np.lexsort(sizes.T)
    los, sizes = los[order], sizes[order]
    starts = np.flatnonzero(np.r_[True, (sizes[1:] != sizes[:-1]).any(axis=1), True])
    for first, end in zip(starts[:-1], starts[1:]):
        box_lo, shape = los[first:end], sizes[first]
        n_grid = int(np.searchsorted(np.cumprod(shape[::-1]), block, side="right"))
        grid_shape, row_shape = shape.copy(), shape.copy()
        grid_shape[: d - n_grid] = 1
        row_shape[d - n_grid :] = 1
        grid = _offsets(grid_shape, np.arange(math.prod(grid_shape.tolist())))
        grid_table = np.ones((len(b1), 2, len(grid)))
        np.matmul(w1, (grid / denom).T, out=grid_table[:, 1])
        rows_per_box = math.prod(row_shape.tolist())
        n_rows = len(box_lo) * rows_per_box
        step = max(1, block // len(grid))
        row_table = np.ones((len(b1), min(step, n_rows), 2))
        for start in range(0, n_rows, step):
            r = np.arange(start, min(start + step, n_rows))
            row_lo = box_lo[r // rows_per_box]
            if rows_per_box > 1:
                row_lo += _offsets(row_shape, r % rows_per_box)
            n = len(r) * len(grid)
            h = bufs.layers[0][: len(b1), :n]
            np.add(w1 @ ((row_lo - shift) / denom).T, b1[:, None], out=row_table[:, : len(r), 0])
            np.matmul(row_table[:, : len(r)], grid_table, out=h.reshape(len(b1), len(r), len(grid)))
            for wb, prev, buf in zip(bufs.folded, bufs.layers, bufs.layers[1:]):
                np.maximum(prev[:, :n], 0.0, out=prev[:, :n])
                h = np.matmul(wb, prev[:, :n], out=buf[: len(wb), :n])
            vals = (pow2 @ interface_bits(h)).astype(np.intp)
            # Ties are rare: each bit's smallest |pre-activation| rules them out first.
            np.abs(h, out=h)
            if (h.min(axis=1) < tol).any():
                ties = np.flatnonzero((h < tol[:, None]).any(axis=0))
                vals[ties] = reducer.exact_valuations(row_lo[ties // len(grid)] + grid[ties % len(grid)])
            tally += np.bincount(vals, minlength=tally.size)
    return tally


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


def _all_capped(capped: np.ndarray, base: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """For each box, whether every valuation that agrees with its decided bits
    (`fixed` marks them, `base` holds their values) is capped. The mask over
    boxes x uncapped valuations is built `PRUNE_MASK_CELLS` cells at a time."""
    open_vals = np.nonzero(~capped)[0]
    rows = max(1, PRUNE_MASK_CELLS // max(1, open_vals.size))
    out = np.empty(base.size, dtype=bool)
    for start in range(0, base.size, rows):
        part = slice(start, start + rows)
        out[part] = ~((open_vals & fixed[part, None]) == base[part, None]).any(axis=1)
    return out


def _children(los: np.ndarray, his: np.ndarray, binary: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split every box in two: on its first unfixed binary feature, else at the
    midpoint of its widest feature. Siblings are adjacent, left first."""
    widths = his - los
    open_bits = binary & (widths > 0)
    axis = np.where(open_bits.any(axis=1), open_bits.argmax(axis=1), widths.argmax(axis=1))
    rows = np.arange(len(los))
    mid = los[rows, axis] + widths[rows, axis] // 2
    left_his, right_los = his.copy(), los.copy()
    left_his[rows, axis] = mid
    right_los[rows, axis] = mid + 1
    d = los.shape[1]
    return np.stack([los, right_los], axis=1).reshape(-1, d), np.stack([left_his, his], axis=1).reshape(-1, d)


def bnb_census(reducer: ReducerNet, cap: int, budget: int = DEFAULT_NODE_BUDGET) -> ClassCensus:
    """Branch-and-bound census of the reducer's domain, exact below the cap.

    Search over sub-boxes of the reducer's domain, depth-first at the
    granularity of blocks of up to `FRONTIER_BLOCK` boxes, and never more
    than the boxes resolved so far, each block bounded by one interval
    propagation. When the cap is at least the domain size, no class reaches
    it while a box is open, so nothing is pruned and every box has the same
    outcome in any order: such a search takes blocks of up to
    `UNCAPPED_BLOCK_FACTOR` times `FRONTIER_BLOCK` boxes with no ramp, and
    visits the same nodes.
    Interval bounds fix an interface bit over a box where they clear the
    reducer's tie tolerance (see `TIE_RTOL`); fully determined boxes
    are counted in closed form, boxes that can only feed already-capped
    classes are pruned, boxes of at most `LEAF_ENUM_LIMIT` points are
    enumerated exactly, and the rest split: binary features before integer
    features, integer features bisecting their widest interval. Every box
    taken is one node. Budget exhaustion returns a partial census marked
    incomplete.
    """
    if cap < 1:
        raise CounterError("cap must be >= 1")
    if budget < 1:
        raise CounterError("budget must be >= 1")
    # No count exceeds the domain size, so counts saturate at the cap or just
    # above the domain size, whichever is lower.
    size = reducer.domain_size
    saturation = min(cap, size + 1)
    if saturation > EXACT_COUNT_LIMIT:
        raise CounterError("cap and domain size both exceed 2^53: counts would not be exact")
    k = reducer.k
    n_vals = 2**k
    counts = np.zeros(n_vals)
    capped = np.zeros(n_vals, dtype=bool)
    pow2 = 1 << np.arange(k - 1, -1, -1)
    split = _split_weights(reducer)
    shift, denom = reducer.input_shift, reducer.input_denom
    binary = np.asarray([isinstance(d, Binary) for d in reducer.domains])
    outcomes = np.zeros(4, dtype=np.int64)
    bufs = EvalBuffers(reducer, ENUM_BLOCK)
    tol = bufs.tol

    def add(amounts: np.ndarray) -> None:
        # Float sizes and sums are exact below 2^53, and one that passes 2^53
        # rounds to at least 2^53, which is at or above the saturation: the
        # clipped counts are exact.
        np.minimum(counts + amounts, saturation, out=counts)
        capped[:] = counts >= cap

    stack = [tuple(np.asarray([corner], dtype=np.int64) for corner in reducer.box)]
    nodes = 0
    complete = True
    while stack:
        if nodes >= budget:
            complete = False
            break
        # A capped block holds no more boxes than the search has resolved so
        # far: it dives to its first resolved boxes before it widens, so the
        # classes they cap can prune the boxes it has not split yet.
        if cap >= size:
            take = min(UNCAPPED_BLOCK_FACTOR * FRONTIER_BLOCK, budget - nodes)
        else:
            take = min(FRONTIER_BLOCK, max(1, nodes - outcomes[3]), budget - nodes)
        los, his = stack.pop()
        if len(los) > take:
            # Copies, so the popped arrays are freed when the block is done.
            stack.append((los[take:].copy(), his[take:].copy()))
            los, his = los[:take], his[:take]
        nodes += len(los)

        lb, ub = _propagate(split, shift, denom, los.astype(np.float64), his.astype(np.float64))
        det_one = lb >= tol
        free = ~(det_one | (ub < -tol))
        base = det_one @ pow2
        with np.errstate(over="ignore"):
            sizes = np.prod(his - los + 1, axis=1, dtype=np.float64)

        decided = ~free.any(axis=1)
        if decided.any():
            add(np.bincount(base[decided], weights=sizes[decided], minlength=n_vals))
        pruned = np.zeros_like(decided)
        if capped.any():
            pruned[~decided] = _all_capped(capped, base[~decided], ~free[~decided] @ pow2)
        leaf = ~decided & ~pruned & (sizes <= LEAF_ENUM_LIMIT)
        if leaf.any():
            add(_tally(reducer, los[leaf], his[leaf], bufs=bufs))
        branch = ~(decided | pruned | leaf)
        if branch.any():
            stack.append(_children(los[branch], his[branch], binary))
        outcomes += [decided.sum(), pruned.sum(), leaf.sum(), branch.sum()]

    return ClassCensus(
        k=k,
        cap=cap,
        counts=tuple(int(c) for c in counts),
        complete=complete,
        nodes=nodes,
        node_outcomes=NodeOutcomes(*(int(n) for n in outcomes)),
    )
