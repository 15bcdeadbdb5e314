import itertools
import math
import operator
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from timeleak import counter as C
from timeleak import dataset as D
from timeleak import network as N
from timeleak import quantifier as Q

from conftest import binary_schema, flip_one_self_check_bit, identity_normalizer, random_reducer_net


def hand_reducer(weights, bias, domains, hidden=()):
    """Single-interface-layer reducer with explicit weights over raw features."""
    n = len(domains)
    return C.ReducerNet(
        input_shift=np.zeros(n),
        input_denom=np.ones(n),
        hidden=tuple(hidden),
        iface_w=np.asarray(weights, dtype=np.float64).reshape(-1, n if not hidden else hidden[-1][0].shape[0]),
        iface_b=np.asarray(bias, dtype=np.float64).reshape(-1),
        domains=tuple(domains),
    )


def straddling_reducer(rng, domains, hidden=8, k=3):
    """Random one-hidden-layer reducer over raw features scaled to [0, 1],
    with interface biases that put every bit's threshold at a random
    off-lattice point of the domain, so that the bits vary across it."""
    lo = np.array([d.lo for d in domains], dtype=np.float64)
    hi = np.array([d.hi for d in domains], dtype=np.float64)
    reducer = C.ReducerNet(
        input_shift=lo,
        input_denom=hi - lo,
        hidden=((rng.normal(size=(hidden, len(domains))), rng.normal(size=hidden)),),
        iface_w=rng.normal(size=(k, hidden)),
        iface_b=np.zeros(k),
        domains=tuple(domains),
    )
    reducer.iface_b[...] = -reducer.preactivations(rng.uniform(lo, hi)[None, :])[0]
    return reducer


def box_points(los, his):
    return list(itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))))


def exact_counts(reducer, points) -> list[int]:
    """Oracle: class counts of raw integer points in exact arithmetic,
    threshold `>= 0`. Every float64 is an integer over a power of two, and
    the input map (x - shift) / denom is rational, so each layer runs on
    integer numerators over one positive common denominator, whose sign
    tests need no division."""

    def numerators(values):
        ratios = [Fraction(v) for v in values]
        den = math.lcm(*(r.denominator for r in ratios))
        return [r.numerator * (den // r.denominator) for r in ratios], den

    # x_n = (x - s) / q = (a x - c) / den for every feature, q > 0.
    maps = [(Fraction(s), Fraction(q)) for s, q in zip(reducer.input_shift.tolist(), reducer.input_denom.tolist())]
    den = math.lcm(*(f.denominator for s, q in maps for f in (1 / q, s / q)))
    a_c = [(int(den / q), int(s * den / q)) for s, q in maps]
    layers = []
    for w, b in (*reducer.hidden, (reducer.iface_w, reducer.iface_b)):
        w_num, w_den = numerators(w.ravel().tolist())
        b_num, b_den = numerators(b.tolist())
        layers.append(([w_num[i : i + w.shape[1]] for i in range(0, w.size, w.shape[1])], w_den, b_num, b_den))
    counts = [0] * 2**reducer.k
    for point in points:
        h, h_den = [a * x - c for (a, c), x in zip(a_c, point)], den
        for i, (w, w_den, b, b_den) in enumerate(layers):
            if i:
                h = [max(v, 0) for v in h]
            h = [sum(map(operator.mul, row, h)) * b_den + bias * w_den * h_den for row, bias in zip(w, b)]
            h_den *= w_den * b_den
        counts[int("".join("1" if v >= 0 else "0" for v in h), 2)] += 1
    return counts


def bounds(reducer, los, his):
    """Interval bounds on the interface pre-activations over one raw box,
    propagated as a block of one box, as `bnb_census` takes its root."""
    lo, hi = (np.asarray([v], dtype=np.float64) for v in (los, his))
    lb, ub = C._propagate(C._split_weights(reducer), reducer.input_shift, reducer.input_denom, lo, hi)
    return lb[0], ub[0]


def near_tie_reducer(rng, domains, hidden, k, scale=1.0, shift=None, denom=None):
    """Random one-hidden-layer reducer whose interface biases are minus the
    pre-activations of one domain point, evaluated in a batch with every
    other point of a random sample: that point sits on the threshold to
    within float rounding, on either side."""
    n = len(domains)
    reducer = C.ReducerNet(
        input_shift=np.zeros(n) if shift is None else np.asarray(shift, dtype=np.float64),
        input_denom=np.ones(n) if denom is None else np.asarray(denom, dtype=np.float64),
        hidden=((scale * rng.normal(size=(hidden, n)), scale * rng.normal(size=hidden)),),
        iface_w=scale * rng.normal(size=(k, hidden)),
        iface_b=np.zeros(k),
        domains=tuple(domains),
    )
    sample = np.stack([rng.integers(d.lo, d.hi + 1, size=64) for d in domains], axis=1).astype(np.float64)
    reducer.iface_b[...] = -reducer.preactivations(sample)[int(rng.integers(64))]
    return reducer


def domain_of(reducer) -> C.SecretDomain:
    return C.SecretDomain(los=tuple(d.lo for d in reducer.domains), his=tuple(d.hi for d in reducer.domains))


@pytest.fixture
def and_gate_reducer():
    # preact = x0 + x1 - 1.5 over the 2-bit domain: bit 1 only at (1, 1)
    return hand_reducer([[1.0, 1.0]], [-1.5], (D.Binary(), D.Binary()))


class TestExtractReducer:
    def test_matches_parent_on_fresh_points(self, rng):
        net = random_reducer_net(rng, n_secret=6, k=3, hidden=(8,))
        reducer = C.extract_reducer(net)
        x = rng.integers(0, 2, size=(500, 6)).astype(np.float64)
        _, parent_bits = N.predict_batch(net, net.normalizer.map_secrets(x), np.zeros((500, net.arch.n_public)))
        assert np.array_equal(parent_bits, reducer.bits(x))

    def test_preactivations_equal_the_forward_pass(self, rng):
        # Two secret layers and a secret map that is not the identity: the
        # reducer's raw-space pre-activations are the training pass's, bit for bit.
        net = random_reducer_net(rng, n_secret=5, k=3, hidden=(7, 6))
        net.normalizer = replace(net.normalizer, secret_shift=rng.uniform(-1, 1, 5), secret_denom=rng.uniform(0.5, 2, 5))
        reducer = C.extract_reducer(net)
        x = rng.integers(0, 2, size=(400, 5)).astype(np.float64)
        ws = N._forward_cache(net.stack, net.normalizer.map_secrets(x)[None], np.zeros((1, 400, net.arch.n_public)))
        assert np.array_equal(reducer.preactivations(x), ws.preact[0][0])

    def test_k0_rejected(self):
        arch = N.Architecture(n_secret=2, n_public=2, k=0, joint_widths=(4,))
        net = N.init(arch, seed=0)
        net.schema = binary_schema(2)
        net.normalizer = identity_normalizer(2)
        with pytest.raises(C.CounterError, match="^k=0 model has no reducer - nothing leaks through it$"):
            C.extract_reducer(net)

    def test_self_check_refuses_a_disagreeing_reducer(self, rng, monkeypatch):
        net = random_reducer_net(rng, n_secret=6, k=2, hidden=(5,))
        C.extract_reducer(net)
        flip_one_self_check_bit(monkeypatch)
        with pytest.raises(C.CounterError, match="^extracted reducer disagrees with the parent network$"):
            C.extract_reducer(net)

    def test_wide_secret_branch_extraction(self, rng):
        # 1024 binary secrets through a [50, 50] stack into 6 interface bits.
        net = random_reducer_net(rng, n_secret=1024, k=6, hidden=(50, 50))
        reducer = C.extract_reducer(net)
        assert reducer.k == 6 and reducer.n_features == 1024


class TestReducerBits:
    def test_threshold_with_tie(self):
        # preact = x0 - x1: 1 at (1, 0), -1 at (0, 1), exactly 0.0 at (1, 1).
        reducer = hand_reducer([[1.0, -1.0]], [0.0], (D.Binary(), D.Binary()))
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert reducer.bits(x).tolist() == [[1], [0], [1]]


class TestTally:
    def test_mixed_box_matches_explicit_listing(self, rng, monkeypatch):
        # Negative integer lo, a fixed and a free binary axis, and a block
        # size that splits the 96-point box unevenly.
        domains = (D.IntRange(-5, 5), D.Binary(), D.Binary(), D.IntRange(-3, 3))
        reducer = straddling_reducer(rng, domains)
        los, his = (-4, 1, 0, -3), (3, 1, 1, 2)
        expected = exact_counts(reducer, box_points(los, his))
        monkeypatch.setattr(C, "ENUM_BLOCK", 7)
        tally = C._tally(reducer, los, his)
        assert tally.tolist() == expected
        assert np.count_nonzero(tally) > 1
        assert tally.sum() == 8 * 1 * 2 * 6

    def test_many_boxes_match_explicit_listing(self, rng, monkeypatch):
        # Boxes of four shapes, some sharing one, with negative lo. At block 7
        # the 8-point and 24-point shapes list rows of a smaller grid, and the
        # 11-wide last feature takes no grid at all (one point per row).
        domains = (D.IntRange(-5, 5), D.Binary(), D.Binary(), D.IntRange(-6, 6))
        reducer = straddling_reducer(rng, domains)
        boxes = [
            ((-4, 1, 0, -3), (3, 1, 1, 2)),
            ((-5, 0, 0, 0), (-5, 1, 1, 0)),
            ((2, 0, 1, -6), (2, 1, 1, 4)),
            ((0, 0, 0, 1), (0, 1, 1, 1)),
            ((-1, 1, 1, -6), (0, 1, 1, -1)),
            ((-5, 0, 0, -6), (5, 1, 1, 6)),
            ((4, 1, 0, 5), (5, 1, 1, 6)),
        ]
        expected = exact_counts(reducer, [p for los, his in boxes for p in box_points(los, his)])
        los, his = (np.array([box[i] for box in boxes]) for i in (0, 1))
        for block in (1, 7, 64, C.ENUM_BLOCK):
            monkeypatch.setattr(C, "ENUM_BLOCK", block)
            assert C._tally(reducer, los, his).tolist() == expected
        assert np.count_nonzero(expected) > 1

    def test_large_biases_near_a_tie(self, rng, monkeypatch):
        # Biases about 1e6 times the weights put the pre-activations near
        # 1e6, where a bias added inside a product may round differently
        # from one added after it. The interface biases put one point on the
        # threshold to within float rounding, and the 64 points that differ
        # from it only in the six zero-weight features sit there with it, so
        # each valuation is that of a point with those features at 0, 64
        # times over. At `ENUM_BLOCK` the 12 binary features make a grid of
        # exactly `ENUM_BLOCK` points, one row per step, as brute force
        # lists them.
        points = np.array(box_points((0,) * 13, (1,) * 13))
        xs = points.astype(np.float64)
        blocks = (1, 7, 64, C.ENUM_BLOCK)
        for _ in range(4):
            w1 = rng.normal(size=(7, 13))
            w1[:, 7:] = 0.0
            reducer = C.ReducerNet(
                input_shift=np.zeros(13),
                input_denom=np.ones(13),
                hidden=((w1, 1e6 * np.abs(rng.normal(size=7))),),
                iface_w=np.abs(rng.normal(size=(2, 7))),
                iface_b=np.zeros(2),
                domains=(D.IntRange(0, 1),) + (D.Binary(),) * 12,
            )
            reducer.iface_b[...] = -reducer.preactivations(xs)[int(rng.integers(len(points)))]
            assert np.abs(reducer.iface_b).min() > 1e5
            ties = (np.abs(reducer.preactivations(xs)) < reducer.tie_tolerance).all(axis=1)
            assert ties.sum() >= 64
            counts = (64 * np.bincount(reducer.exact_valuations(points[::64]), minlength=4)).tolist()
            for block in blocks:
                monkeypatch.setattr(C, "ENUM_BLOCK", block)
                assert C._tally(reducer, (0,) * 13, (1,) * 13).tolist() == counts

    def test_points_per_evaluation_are_bounded(self, rng, monkeypatch):
        # A step writes at most `ENUM_BLOCK` points into buffers of that many
        # columns (a larger step would not fit them), and what else the
        # kernel allocates does not grow with the boxes: ten times the
        # points, 82,082 of them, whose (points, d) matrix alone would take
        # about 2 MB, leave the peak where it was, a few kilobytes.
        import tracemalloc

        monkeypatch.setattr(C, "ENUM_BLOCK", 64)

        def peak(lo):
            domains = (D.IntRange(-lo, lo), D.Binary(), D.IntRange(-20, 20))
            reducer = straddling_reducer(rng, domains)
            los = np.array([[-lo, 0, -20], [0, 1, 3], [1, 0, -2]])
            his = np.array([[lo, 1, 20], [0, 1, 9], [4, 1, 3]])
            bufs = C.EvalBuffers(reducer, 64)
            assert [buf.shape for buf in bufs.layers] == [(8 + 1, 64), (3, 64)]
            C._tally(reducer, los[:1], his[:1], bufs=bufs)  # first-call caches
            tracemalloc.start()
            try:
                tally = C._tally(reducer, los, his, bufs=bufs)
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert tally.sum() == (2 * lo + 1) * 2 * 41 + 7 + 4 * 2 * 6
            return top

        small, large = peak(100), peak(1000)
        assert large < 1.25 * small and large < 65_536

    @pytest.mark.parametrize("rows", [1, 7, 64, C.ENUM_BLOCK])
    def test_buffers_start_on_cache_lines(self, rng, rows):
        domains = (D.IntRange(-30, 30), D.Binary(), D.IntRange(0, 9))
        reducer = straddling_reducer(rng, domains, hidden=12, k=4)
        bufs = C.EvalBuffers(reducer, rows)
        assert [a.ctypes.data % 64 for a in bufs.folded + bufs.layers] == [0, 0, 0]
        (w, b), = reducer.layers[1:]
        assert np.array_equal(bufs.folded[0], np.hstack([w, b[:, None]]))
        assert bufs.layers[0].shape == (13, rows) and np.all(bufs.layers[0] == 1.0)

    def test_tie_tolerance_scales_with_the_terms(self, rng):
        # M_j = tie_tolerance / TIE_RTOL bounds |pre-activation j| on every
        # point of the domain, and scales with the interface layer.
        domains = (D.IntRange(-30, 30), D.Binary(), D.IntRange(0, 9))
        reducer = straddling_reducer(rng, domains, hidden=12, k=4)
        pre = reducer.preactivations(np.array(box_points((-30, 0, 0), (30, 1, 9)), dtype=np.float64))
        m = reducer.tie_tolerance / C.TIE_RTOL
        assert np.all(m > 0) and np.all(np.abs(pre) <= m)
        scaled = replace(reducer, iface_w=1e6 * reducer.iface_w, iface_b=1e6 * reducer.iface_b)
        assert np.allclose(scaled.tie_tolerance, 1e6 * reducer.tie_tolerance)


class TestNearTies:
    """Points whose interface pre-activation is zero to within float
    rounding: both counters must agree with exact arithmetic at every leaf
    size, whatever batch a point is evaluated in."""

    def check(self, reducer, monkeypatch):
        dom = domain_of(reducer)
        oracle = C.census_from_sizes(exact_counts(reducer, box_points(dom.los, dom.his)), dom.size, reducer.k)
        assert C.brute_force_census(reducer, dom, cap=dom.size) == oracle
        for leaf_limit in (1, 16, 256, dom.size):
            monkeypatch.setattr(C, "LEAF_ENUM_LIMIT", leaf_limit)
            assert C.bnb_census(reducer, dom, cap=dom.size) == oracle

    def test_random_near_tie_reducers(self, monkeypatch):
        rng = np.random.default_rng(7)
        for _ in range(300):
            self.check(near_tie_reducer(rng, (D.Binary(),) * 6, hidden=int(rng.integers(3, 17)), k=1), monkeypatch)

    def test_large_integer_domain(self, monkeypatch):
        # Raw inputs up to 10^4 in magnitude, unnormalized.
        rng = np.random.default_rng(11)
        for _ in range(3):
            self.check(near_tie_reducer(rng, (D.IntRange(-10000, 10000),), hidden=4, k=2), monkeypatch)

    def test_large_weights(self, monkeypatch):
        # Weights up to about 10^6 on inputs up to 10^4: pre-activations up
        # to about 10^15, whose float rounding is far above any fixed
        # absolute margin.
        rng = np.random.default_rng(13)
        domains = (D.IntRange(-50, 50), D.Binary(), D.Binary(), D.Binary())
        for _ in range(10):
            reducer = near_tie_reducer(rng, domains, hidden=6, k=2, scale=3e5, shift=(-50, 0, 0, 0), denom=(0.01, 1, 1, 1))
            assert np.abs(reducer.iface_w).max() < 2e6
            self.check(reducer, monkeypatch)

    def test_bounds_decide_only_beyond_the_tolerance(self):
        # pre = (w0 x0 - w1 x1) / 7 + b at x = (71, 71): two terms near 10^10
        # that nearly cancel, so the float bound of the point is off by far
        # more than 1e-9. The bias puts the float bound 1e-8 from zero on the
        # other side of it from the exact value, where an absolute 1e-9
        # margin would decide the bit wrongly.
        def reducer(bias):
            hand = hand_reducer([[1e9 + 0.123, -1e9]], [bias], (D.IntRange(0, 100),) * 2)
            return replace(hand, input_denom=np.full(2, 7.0))

        x = (71, 71)
        pre0 = bounds(reducer(0.0), x, x)[0][0]
        exact0 = (Fraction(1e9 + 0.123) - Fraction(1e9)) * Fraction(71, 7)
        error = float(exact0 - Fraction(pre0))
        assert abs(error) > 2e-8
        tied = reducer(-(pre0 + np.copysign(1e-8, error)))
        lb, ub = bounds(tied, x, x)
        exact = exact_counts(tied, [x])
        assert lb[0] == ub[0] and abs(lb[0]) > 1e-9 and (lb[0] >= 0) != (exact == [0, 1])
        assert abs(lb[0]) < tied.tie_tolerance[0]
        dom = C.SecretDomain(x, x)
        assert C.bnb_census(tied, dom, cap=1).counts == C.brute_force_census(tied, dom, cap=1).counts == tuple(exact)


class TestBruteForce:
    def test_hand_reducer_census(self, and_gate_reducer):
        dom = C.SecretDomain(los=(0, 0), his=(1, 1))
        census = C.brute_force_census(and_gate_reducer, dom)
        assert census.counts == (3, 1)  # valuation 0 -> 3 secrets, valuation 1 -> 1
        assert census.status(0) == "counted" and census.status(1) == "counted"

    def test_constant_bias_reducer_single_class(self):
        reducer = hand_reducer([[0.0, 0.0, 0.0]], [-1.0], (D.Binary(),) * 3)
        dom = C.SecretDomain(los=(0,) * 3, his=(1,) * 3)
        census = C.brute_force_census(reducer, dom)
        assert census.counts == (8, 0)
        assert census.feasible_count == 1

    def test_cap_semantics(self, and_gate_reducer):
        dom = C.SecretDomain(los=(0, 0), his=(1, 1))
        census = C.brute_force_census(and_gate_reducer, dom, cap=2)
        assert census.counts == (2, 1)
        assert census.cap_hits == (True, False)
        assert C.brute_force_census(and_gate_reducer, dom).counts == (3, 1)

    def test_domain_guard(self):
        reducer = hand_reducer([[1.0]], [0.0], (D.IntRange(0, 2**21),))
        with pytest.raises(C.CounterError, match="^domain size 2097153 exceeds brute-force guard 1048576$"):
            C.brute_force_census(reducer, C.SecretDomain(los=(0,), his=(2**21,)))


    @pytest.mark.parametrize(
        "census", [C.brute_force_census, lambda reducer, dom: C.bnb_census(reducer, dom, cap=100)], ids=["brute", "bnb"]
    )
    def test_domain_outside_the_reducer_domains_rejected(self, census):
        # The tie tolerance bounds the terms of a pre-activation over the
        # reducer's domains only; far outside them, cancelling terms exceed
        # it and a bit can be decided wrongly. An empty range (lo > hi) gave
        # a negative count. A sub-box is searched.
        reducer = hand_reducer([[1.0, -1.0]], [0.0], (D.IntRange(0, 10),) * 2)
        for los, his in (((10**9, 0), (10**9, 10)), ((0, -1), (10, 10)), ((0, 0), (11, 10)), ((0, 5), (10, 3))):
            with pytest.raises(C.CounterError, match="is no range inside the reducer's domain"):
                census(reducer, C.SecretDomain(los, his))
        assert census(reducer, C.SecretDomain((3, 0), (5, 10))).counts == (18, 15)


class TestPropagateBounds:
    def test_affine_over_unit_box(self, and_gate_reducer):
        lb, ub = bounds(and_gate_reducer, (0, 0), (1, 1))
        assert lb[0] == pytest.approx(-1.5) and ub[0] == pytest.approx(0.5)

    def test_point_box_is_exact(self, and_gate_reducer):
        lb, ub = bounds(and_gate_reducer, (1, 1), (1, 1))
        assert lb[0] == ub[0] == pytest.approx(0.5)

    def test_relu_clamps_lower_bound(self):
        # Hidden unit spans [-2, 3]; after ReLU the interface sees [0, 3].
        hidden = ((np.array([[1.0]]), np.array([-2.0])),)
        reducer = hand_reducer([[1.0]], [0.0], (D.IntRange(0, 5),), hidden=hidden)
        lb, ub = bounds(reducer, (0,), (5,))
        assert lb[0] == pytest.approx(0.0) and ub[0] == pytest.approx(3.0)

    def test_soundness_random_sampling(self, rng):
        for _ in range(20):
            net = random_reducer_net(rng, n_secret=4, k=2, hidden=(6,))
            reducer = C.extract_reducer(net)
            lo = rng.integers(0, 2, size=4)
            hi = np.maximum(lo, rng.integers(0, 2, size=4))
            lb, ub = bounds(reducer, lo, hi)
            for _ in range(50):
                x = rng.integers(lo, hi + 1).astype(np.float64)[None, :]
                pre = reducer.preactivations(x)[0]
                assert np.all(pre >= lb - 1e-9) and np.all(pre <= ub + 1e-9)

    def test_shrinking_box_never_widens(self, rng):
        net = random_reducer_net(rng, n_secret=3, k=2, hidden=(5,))
        reducer = C.extract_reducer(net)
        lb_wide, ub_wide = bounds(reducer, (0, 0, 0), (1, 1, 1))
        lb_narrow, ub_narrow = bounds(reducer, (0, 1, 0), (1, 1, 0))
        assert np.all(lb_narrow >= lb_wide - 1e-12)
        assert np.all(ub_narrow <= ub_wide + 1e-12)


class TestBnb:
    def test_hand_reducer_matches_brute_force(self, and_gate_reducer):
        dom = C.SecretDomain(los=(0, 0), his=(1, 1))
        assert C.bnb_census(and_gate_reducer, dom, cap=10) == C.brute_force_census(
            and_gate_reducer, dom, cap=10
        )

    def test_random_reducers_oracle_equivalence(self, rng, monkeypatch):
        leaf_limits = (1, 16, C.LEAF_ENUM_LIMIT)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, 4))
            net = random_reducer_net(rng, n_secret=n, k=k, hidden=(int(rng.integers(2, 9)),))
            reducer = C.extract_reducer(net)
            dom = C.SecretDomain(los=(0,) * n, his=(1,) * n)
            for cap in (1, 5, dom.size):
                oracle = C.brute_force_census(reducer, dom, cap=cap)
                for leaf_limit in leaf_limits + (dom.size,):
                    monkeypatch.setattr(C, "LEAF_ENUM_LIMIT", leaf_limit)
                    assert C.bnb_census(reducer, dom, cap=cap) == oracle

    def test_int_range_domains(self, rng, monkeypatch):
        # Non-binary features exercise the bisection branch once the
        # 121-point domain exceeds the leaf limit.
        reducer = straddling_reducer(rng, (D.IntRange(0, 10), D.IntRange(-5, 5)), hidden=4, k=2)
        dom = C.SecretDomain(los=(0, -5), his=(10, 5))
        leaf_limits = (1, 16, C.LEAF_ENUM_LIMIT, dom.size)
        for cap in (1, 7, dom.size):
            oracle = C.brute_force_census(reducer, dom, cap=cap)
            assert oracle.feasible_count > 1
            for leaf_limit in leaf_limits:
                monkeypatch.setattr(C, "LEAF_ENUM_LIMIT", leaf_limit)
                census = C.bnb_census(reducer, dom, cap=cap)
                assert census == oracle
                assert leaf_limit >= dom.size or census.nodes > 1

    def test_wide_int_range_with_binary_bits(self, rng):
        # 2001 x 2^6 = 128,064 points: bisection down to leaves of mixed
        # widths, and a brute force that spans more than one point block.
        n_bits = 6
        reducer = straddling_reducer(rng, (D.IntRange(-1000, 1000),) + (D.Binary(),) * n_bits)
        dom = C.SecretDomain(los=(-1000,) + (0,) * n_bits, his=(1000,) + (1,) * n_bits)
        assert dom.size == 128_064 > C.ENUM_BLOCK
        for cap in (1, 100, dom.size):
            census = C.bnb_census(reducer, dom, cap=cap)
            oracle = C.brute_force_census(reducer, dom, cap=cap)
            assert census == oracle
            assert census.nodes > 1 and oracle.feasible_count > 1

    def test_cap_prune_past_sixteen_free_bits(self, monkeypatch):
        # k = 17 over 10 bits: bits 0-4 read x0-x4, bits 5-15 copy x0 and bit
        # 16 reads x9, so all 17 bits are free at the root. At cap 1 the mask
        # test runs over 2^17 valuations and prunes boxes whose classes are
        # already capped: at the default block size, and in blocks of 3,
        # whose 3 x 2^17 mask cells take two row slices.
        assert 2**17 < C.PRUNE_MASK_CELLS < 3 * 2**17
        w = np.zeros((17, 10))
        w[np.arange(5), np.arange(5)] = 1.0
        w[5:16, 0] = 1.0
        w[16, 9] = 1.0
        reducer = hand_reducer(w, [-0.5] * 17, (D.Binary(),) * 10)
        dom = C.SecretDomain(los=(0,) * 10, his=(1,) * 10)
        lb, ub = bounds(reducer, dom.los, dom.his)
        tol = reducer.tie_tolerance
        assert np.sum((lb < tol) & (ub >= -tol)) == 17
        oracle = C.brute_force_census(reducer, dom, cap=1)
        assert oracle.feasible_count == 64
        monkeypatch.setattr(C, "LEAF_ENUM_LIMIT", 4)
        for block in (C.FRONTIER_BLOCK, 3):
            monkeypatch.setattr(C, "FRONTIER_BLOCK", block)
            census = C.bnb_census(reducer, dom, cap=1)
            assert census == oracle
            assert census.node_outcomes.pruned > 0
            assert census.nodes < C.bnb_census(reducer, dom, cap=dom.size).nodes

    def test_completeness_sums_to_domain_size(self, rng):
        net = random_reducer_net(rng, n_secret=7, k=3, hidden=(6,))
        reducer = C.extract_reducer(net)
        dom = C.SecretDomain(los=(0,) * 7, his=(1,) * 7)
        census = C.bnb_census(reducer, dom, cap=dom.size + 1)
        assert census.total_counted == dom.size == 128
        assert census.complete

    def test_cap_one_marks_every_feasible_class(self, rng):
        net = random_reducer_net(rng, n_secret=5, k=2, hidden=(4,))
        reducer = C.extract_reducer(net)
        dom = C.SecretDomain(los=(0,) * 5, his=(1,) * 5)
        census = C.bnb_census(reducer, dom, cap=1)
        for v in range(4):
            assert census.status(v) in ("infeasible", "cap_hit")
            assert census.counts[v] <= 1

    def test_budget_exhaustion_marks_incomplete(self, rng):
        # A 1024-bit domain cannot be exhausted; the search must stop at the
        # node budget and say so.
        net = random_reducer_net(rng, n_secret=1024, k=4, hidden=(20,))
        reducer = C.extract_reducer(net)
        dom = C.SecretDomain(los=(0,) * 1024, his=(1,) * 1024)
        census = C.bnb_census(reducer, dom, cap=100, budget=500)
        assert not census.complete
        assert census.nodes <= 500
        with pytest.raises(Q.QuantifierError, match="^cannot quantify an incomplete census$"):
            Q.build_report(census)

    def test_budget_runs_out_inside_a_block(self, rng):
        # The search dives one box at a time to its first leaves, then widens
        # its blocks; the last one, of 16 boxes, is cut to the 15 the budget
        # of 300 has left.
        reducer = straddling_reducer(rng, (D.Binary(),) * 30, k=4)
        dom = C.SecretDomain(los=(0,) * 30, his=(1,) * 30)
        census = C.bnb_census(reducer, dom, cap=10, budget=300)
        assert census.nodes == 300 and not census.complete
        assert sum(census.node_outcomes) == 300

    def test_budget_runs_out_inside_a_wide_block(self, rng):
        # Uncapped, the blocks double from the root with no ramp: 1, 2, ...,
        # 128 boxes make 255 nodes, and the next block of 256 is cut to the
        # 45 the budget of 300 has left. No box is yet small enough to be a
        # leaf, where a capped search would have dived to its first leaves.
        reducer = straddling_reducer(rng, (D.Binary(),) * 30, k=4)
        dom = C.SecretDomain(los=(0,) * 30, his=(1,) * 30)
        census = C.bnb_census(reducer, dom, cap=dom.size, budget=300)
        assert census.nodes == 300 and not census.complete
        assert sum(census.node_outcomes) == 300 == census.node_outcomes.split

    @pytest.mark.parametrize("block", [1, 3])
    def test_frontier_block_does_not_change_census(self, rng, monkeypatch, block):
        for domains in ((D.Binary(),) * 8, (D.IntRange(-7, 9), D.Binary(), D.IntRange(0, 12))):
            reducer = straddling_reducer(rng, domains, hidden=6, k=3)
            dom = C.SecretDomain(los=tuple(d.lo for d in domains), his=tuple(d.hi for d in domains))
            # Uncapped searches prune nothing, so they visit the same boxes
            # with the same outcomes whatever the block size.
            uncapped = {}
            for leaf_limit in (1, 16, dom.size):
                monkeypatch.setattr(C, "LEAF_ENUM_LIMIT", leaf_limit)
                uncapped[leaf_limit] = C.bnb_census(reducer, dom, cap=dom.size)
            monkeypatch.setattr(C, "FRONTIER_BLOCK", block)
            for cap in (1, 5, dom.size):
                oracle = C.brute_force_census(reducer, dom, cap=cap)
                assert oracle.feasible_count > 1
                for leaf_limit in (1, 16, dom.size):
                    monkeypatch.setattr(C, "LEAF_ENUM_LIMIT", leaf_limit)
                    census = C.bnb_census(reducer, dom, cap=cap)
                    assert census == oracle
                    assert leaf_limit >= dom.size or census.nodes > block
                    if cap == dom.size:
                        default = uncapped[leaf_limit]
                        assert (census.nodes, census.node_outcomes) == (default.nodes, default.node_outcomes)
            monkeypatch.undo()

    def test_node_outcomes_sum_to_nodes(self, rng, and_gate_reducer, monkeypatch):
        tie = hand_reducer([[1.0, -1.0]], [0.0], (D.Binary(), D.Binary()))
        constant = hand_reducer([[0.0, 0.0, 0.0]], [-1.0], (D.Binary(),) * 3)
        mixed = straddling_reducer(rng, (D.IntRange(-40, 40), D.Binary(), D.Binary()))
        seen = C.NodeOutcomes(0, 0, 0, 0)
        leaf_limits = (1, 16, C.LEAF_ENUM_LIMIT)
        for reducer in (and_gate_reducer, tie, constant, mixed):
            dom = C.SecretDomain(los=tuple(d.lo for d in reducer.domains), his=tuple(d.hi for d in reducer.domains))
            for cap in (1, dom.size):
                for leaf_limit in leaf_limits + (dom.size,):
                    monkeypatch.setattr(C, "LEAF_ENUM_LIMIT", leaf_limit)
                    census = C.bnb_census(reducer, dom, cap=cap)
                    assert sum(census.node_outcomes) == census.nodes
                    assert census.to_json()["node_outcomes"] == census.node_outcomes._asdict()
                    seen = C.NodeOutcomes(*(max(a, b) for a, b in zip(seen, census.node_outcomes)))
        # The constant reducer is decided at the root; every outcome occurs.
        monkeypatch.undo()
        assert C.bnb_census(constant, C.SecretDomain((0,) * 3, (1,) * 3), cap=5).node_outcomes == (1, 0, 0, 0)
        assert min(seen) > 0

    def test_large_counts_saturate_exactly(self):
        # A constant reducer is decided at the root, so its one class takes
        # the whole domain in closed form.
        def census(n_bits, cap):
            reducer = hand_reducer([[0.0] * n_bits], [-1.0], (D.Binary(),) * n_bits)
            return C.bnb_census(reducer, C.SecretDomain((0,) * n_bits, (1,) * n_bits), cap=cap)

        assert census(50, 2**50 + 1).counts == (2**50, 0) and census(50, 2**50 + 1).cap_hits == (False, False)
        assert census(50, 2**50 - 1).counts == (2**50 - 1, 0) and census(50, 2**50 - 1).cap_hits == (True, False)
        assert census(60, 3).counts == (3, 0)
        assert census(4, 10**30).counts == (16, 0)
        with pytest.raises(C.CounterError):
            census(60, 2**60)

    def test_bad_cap(self, and_gate_reducer):
        dom = C.SecretDomain(los=(0, 0), his=(1, 1))
        with pytest.raises(C.CounterError):
            C.bnb_census(and_gate_reducer, dom, cap=0)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_bad_budget(self, and_gate_reducer, budget):
        dom = C.SecretDomain(los=(0, 0), his=(1, 1))
        with pytest.raises(C.CounterError, match="budget must be >= 1"):
            C.bnb_census(and_gate_reducer, dom, cap=4, budget=budget)


class TestFeasibleClasses:
    def test_ordering_and_omission(self, and_gate_reducer):
        dom = C.SecretDomain(los=(0, 0), his=(1, 1))
        census = C.brute_force_census(and_gate_reducer, dom)
        assert census.counts == (3, 1)
        assert [census.status(v) for v in range(2)] == ["counted", "counted"]

    def test_singleton(self):
        census = C.census_from_sizes([7], k=2)
        assert census.counts == (7, 0, 0, 0)
        assert census.feasible_count == 1 and census.status(0) == "counted"


class TestCensusJson:
    def test_round_trip(self, and_gate_reducer):
        dom = C.SecretDomain(los=(0, 0), his=(1, 1))
        census = C.brute_force_census(and_gate_reducer, dom, cap=2)
        again = C.ClassCensus.from_json(census.to_json())
        assert again == census

    def test_node_outcomes_round_trip(self, and_gate_reducer, monkeypatch):
        dom = C.SecretDomain(los=(0, 0), his=(1, 1))
        monkeypatch.setattr(C, "LEAF_ENUM_LIMIT", 1)
        census = C.bnb_census(and_gate_reducer, dom, cap=2)
        again = C.ClassCensus.from_json(census.to_json())
        assert again.node_outcomes == census.node_outcomes and again.nodes == census.nodes
        assert again.to_json() == census.to_json()
        # A census without the key (the oracle's, or an older file) keeps none.
        oracle = C.brute_force_census(and_gate_reducer, dom, cap=2)
        assert "node_outcomes" not in oracle.to_json()
        assert C.ClassCensus.from_json(oracle.to_json()).node_outcomes is None

    @pytest.mark.parametrize(
        "edit",
        [
            {"k": 40},
            {"k": -1},
            {"k": 2},
            {"k": "1"},
            {"k": 1.0},
            {"classes": "01"},
            {"classes": [{"valuation": "1", "status": "counted", "count": 1}] * 2},
            {"classes": [{"valuation": "0", "status": "counted"}, {"valuation": "1", "status": "counted", "count": 1}]},
            {"node_outcomes": {"decided": 1}},
            {"cap": 0},
            {"cap": "2"},
            {"classes": [{"valuation": "0", "status": "cap_hit", "count": 2}, {"valuation": "1", "status": "counted", "count": -1}]},
            {"classes": [{"valuation": "0", "status": "cap_hit", "count": 2}, {"valuation": "1", "status": "infeasible", "count": 1}]},
            {"classes": [{"valuation": "0", "status": "counted", "count": 3}, {"valuation": "1", "status": "counted", "count": 1}]},
            {"classes": [{"valuation": "0", "status": "cap_hit", "count": 1}, {"valuation": "1", "status": "counted", "count": 1}]},
            {"classes": [{"valuation": "0", "status": "cap_hit", "count": 2}, {"valuation": "1", "status": "counted", "count": 1.0}]},
            {"complete": "false"},
            {"complete": 1},
            {"nodes": 7.5},
            {"node_outcomes": {"decided": 1.0, "pruned": 0, "enumerated": 0, "split": 0}},
            {"nodes": -1, "node_outcomes": None},
            {"nodes": 1, "node_outcomes": {"decided": 2, "pruned": -1, "enumerated": 0, "split": 0}},
            {"nodes": 1, "node_outcomes": {"decided": 1, "pruned": 1, "enumerated": 0, "split": 0}},
            {"classes": [{"valuation": "0", "status": "cap_hit", "count": 2}, {"valuation": "1", "status": "counted", "count": 2}]},
        ],
    )
    def test_from_json_rejects_malformed(self, and_gate_reducer, edit):
        dom = C.SecretDomain(los=(0, 0), his=(1, 1))
        good = C.bnb_census(and_gate_reducer, dom, cap=2).to_json()
        assert [(c["status"], c["count"]) for c in good["classes"]] == [("cap_hit", 2), ("counted", 1)]
        obj = {**good, **edit}
        with pytest.raises(C.CounterError):
            C.ClassCensus.from_json(obj)

    def test_from_sizes_with_cap(self):
        census = C.census_from_sizes([68, 16, 27, 1, 16], cap=100, k=3)
        assert census.feasible_count == 5
        assert census.total_counted == 128
        census_capped = C.census_from_sizes([150, 40], cap=100, k=1)
        assert census_capped.counts == (100, 40)
        assert census_capped.cap_hits == (True, False)
