import itertools

import numpy as np
import pytest

from timeleak import counter as C
from timeleak import dataset as D
from timeleak import network as N

from conftest import binary_schema, identity_normalizer, random_reducer_net


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

    def test_k0_rejected(self):
        arch = N.Architecture(n_secret=2, n_public=2, k=0, joint_widths=(4,))
        net = N.init(arch, seed=0)
        net.schema = binary_schema(2)
        net.normalizer = identity_normalizer(2)
        with pytest.raises(C.ZeroInterfaceWidth):
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
    def test_mixed_box_matches_explicit_listing(self, rng):
        # Negative integer lo, a fixed and a free binary axis, and a block
        # size that splits the 96-point box unevenly.
        domains = (D.IntRange(-5, 5), D.Binary(), D.Binary(), D.IntRange(-3, 3))
        reducer = straddling_reducer(rng, domains)
        los, his = (-4, 1, 0, -3), (3, 1, 1, 2)
        points = np.array(list(itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his)))), dtype=np.float64)
        expected = np.bincount(reducer.valuations(points), minlength=8)
        tally = C._tally(reducer, los, his, block=7)
        assert tally.tolist() == expected.tolist()
        assert np.count_nonzero(tally) > 1
        assert tally.sum() == 8 * 1 * 2 * 6


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
        assert census.true_counts == (3, 1)

    def test_domain_guard(self):
        reducer = hand_reducer([[1.0]], [0.0], (D.IntRange(0, 2**21),))
        with pytest.raises(C.DomainTooLarge):
            C.brute_force_census(reducer, C.SecretDomain(los=(0,), his=(2**21,)))


class TestPropagateBounds:
    def test_affine_over_unit_box(self, and_gate_reducer):
        lb, ub = C.propagate_bounds(and_gate_reducer, [(0, 1), (0, 1)])
        assert lb[0] == pytest.approx(-1.5) and ub[0] == pytest.approx(0.5)

    def test_point_box_is_exact(self, and_gate_reducer):
        lb, ub = C.propagate_bounds(and_gate_reducer, [(1, 1), (1, 1)])
        assert lb[0] == ub[0] == pytest.approx(0.5)

    def test_relu_clamps_lower_bound(self):
        # Hidden unit spans [-2, 3]; after ReLU the interface sees [0, 3].
        hidden = ((np.array([[1.0]]), np.array([-2.0])),)
        reducer = hand_reducer([[1.0]], [0.0], (D.IntRange(0, 5),), hidden=hidden)
        lb, ub = C.propagate_bounds(reducer, [(0, 5)])
        assert lb[0] == pytest.approx(0.0) and ub[0] == pytest.approx(3.0)

    def test_soundness_random_sampling(self, rng):
        for _ in range(20):
            net = random_reducer_net(rng, n_secret=4, k=2, hidden=(6,))
            reducer = C.extract_reducer(net, self_check_points=0)
            lo = rng.integers(0, 2, size=4)
            hi = np.maximum(lo, rng.integers(0, 2, size=4))
            lb, ub = C.propagate_bounds(reducer, list(zip(lo, hi)))
            for _ in range(50):
                x = rng.integers(lo, hi + 1).astype(np.float64)[None, :]
                pre = reducer.preactivations(x)[0]
                assert np.all(pre >= lb - 1e-9) and np.all(pre <= ub + 1e-9)

    def test_shrinking_box_never_widens(self, rng):
        net = random_reducer_net(rng, n_secret=3, k=2, hidden=(5,))
        reducer = C.extract_reducer(net, self_check_points=0)
        lb_wide, ub_wide = C.propagate_bounds(reducer, [(0, 1)] * 3)
        lb_narrow, ub_narrow = C.propagate_bounds(reducer, [(0, 1), (1, 1), (0, 0)])
        assert np.all(lb_narrow >= lb_wide - 1e-12)
        assert np.all(ub_narrow <= ub_wide + 1e-12)


class TestBnb:
    def test_hand_reducer_matches_brute_force(self, and_gate_reducer):
        dom = C.SecretDomain(los=(0, 0), his=(1, 1))
        assert C.bnb_census(and_gate_reducer, dom, cap=10) == C.brute_force_census(
            and_gate_reducer, dom, cap=10
        )

    def test_random_reducers_oracle_equivalence(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, 4))
            net = random_reducer_net(rng, n_secret=n, k=k, hidden=(int(rng.integers(2, 9)),))
            reducer = C.extract_reducer(net, self_check_points=0)
            dom = C.SecretDomain(los=(0,) * n, his=(1,) * n)
            for cap in (1, 5, dom.size):
                oracle = C.brute_force_census(reducer, dom, cap=cap)
                for leaf_limit in (1, 16, C.LEAF_ENUM_LIMIT, dom.size):
                    assert C.bnb_census(reducer, dom, cap=cap, leaf_limit=leaf_limit) == oracle

    def test_int_range_domains(self, rng):
        # Non-binary features exercise the bisection branch once the
        # 121-point domain exceeds the leaf limit.
        reducer = straddling_reducer(rng, (D.IntRange(0, 10), D.IntRange(-5, 5)), hidden=4, k=2)
        dom = C.SecretDomain(los=(0, -5), his=(10, 5))
        for cap in (1, 7, dom.size):
            oracle = C.brute_force_census(reducer, dom, cap=cap)
            assert oracle.feasible_count > 1
            for leaf_limit in (1, 16, C.LEAF_ENUM_LIMIT, dom.size):
                census = C.bnb_census(reducer, dom, cap=cap, leaf_limit=leaf_limit)
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

    def test_cap_prune_past_sixteen_free_bits(self):
        # k = 17 over 10 bits: bits 0-4 read x0-x4, bits 5-15 copy x0 and bit
        # 16 reads x9, so all 17 bits are free at the root. At cap 1 the mask
        # test runs over 2^17 valuations and prunes boxes whose classes are
        # already capped.
        w = np.zeros((17, 10))
        w[np.arange(5), np.arange(5)] = 1.0
        w[5:16, 0] = 1.0
        w[16, 9] = 1.0
        reducer = hand_reducer(w, [-0.5] * 17, (D.Binary(),) * 10)
        dom = C.SecretDomain(los=(0,) * 10, his=(1,) * 10)
        lb, ub = C.propagate_bounds(reducer, list(zip(dom.los, dom.his)))
        assert np.sum((lb < C.DECISION_MARGIN) & (ub >= -C.DECISION_MARGIN)) == 17
        census = C.bnb_census(reducer, dom, cap=1, leaf_limit=4)
        assert census == C.brute_force_census(reducer, dom, cap=1)
        assert census.feasible_count == 64
        assert census.nodes < C.bnb_census(reducer, dom, cap=dom.size, leaf_limit=4).nodes

    def test_completeness_sums_to_domain_size(self, rng):
        net = random_reducer_net(rng, n_secret=7, k=3, hidden=(6,))
        reducer = C.extract_reducer(net, self_check_points=0)
        dom = C.SecretDomain(los=(0,) * 7, his=(1,) * 7)
        census = C.bnb_census(reducer, dom, cap=dom.size + 1)
        assert census.total_counted == dom.size == 128
        assert census.complete

    def test_cap_one_marks_every_feasible_class(self, rng):
        net = random_reducer_net(rng, n_secret=5, k=2, hidden=(4,))
        reducer = C.extract_reducer(net, self_check_points=0)
        dom = C.SecretDomain(los=(0,) * 5, his=(1,) * 5)
        census = C.bnb_census(reducer, dom, cap=1)
        for v in range(4):
            assert census.status(v) in ("infeasible", "cap_hit")
            assert census.counts[v] <= 1

    def test_budget_exhaustion_marks_incomplete(self, rng):
        # A 1024-bit domain cannot be exhausted; the search must stop at the
        # node budget and say so.
        net = random_reducer_net(rng, n_secret=1024, k=4, hidden=(20,))
        reducer = C.extract_reducer(net, self_check_points=0)
        dom = C.SecretDomain(los=(0,) * 1024, his=(1,) * 1024)
        census = C.bnb_census(reducer, dom, cap=100, budget=500)
        assert not census.complete
        assert census.nodes <= 500
        with pytest.raises(C.IncompleteCensus):
            C.feasible_classes(census)

    def test_bad_cap(self, and_gate_reducer):
        dom = C.SecretDomain(los=(0, 0), his=(1, 1))
        with pytest.raises(C.CounterError):
            C.bnb_census(and_gate_reducer, dom, cap=0)


class TestFeasibleClasses:
    def test_ordering_and_omission(self, and_gate_reducer):
        dom = C.SecretDomain(los=(0, 0), his=(1, 1))
        census = C.brute_force_census(and_gate_reducer, dom)
        assert C.feasible_classes(census) == [("0", 3), ("1", 1)]

    def test_singleton(self):
        census = C.census_from_sizes([7], k=2)
        assert C.feasible_classes(census) == [("00", 7)]


class TestCensusJson:
    def test_round_trip(self, and_gate_reducer):
        dom = C.SecretDomain(los=(0, 0), his=(1, 1))
        census = C.brute_force_census(and_gate_reducer, dom, cap=2)
        again = C.ClassCensus.from_json(census.to_json())
        assert again == census

    def test_from_sizes_with_cap(self):
        census = C.census_from_sizes([68, 16, 27, 1, 16], cap=100, k=3)
        assert census.feasible_count == 5
        assert census.total_counted == 128
        census_capped = C.census_from_sizes([150, 40], cap=100, k=1)
        assert census_capped.counts == (100, 40)
        assert census_capped.cap_hits == (True, False)
