import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeleak import counter as C
from timeleak import quantifier as Q

from conftest import census_from_sizes

sizes_strategy = st.lists(st.integers(min_value=1, max_value=50_000), min_size=1, max_size=32)


def entropy_of_observation(sizes):
    """Independent oracle: the leak equals the entropy of the class-label
    distribution induced by a uniform secret (the observation's entropy)."""
    total = sum(sizes)
    return -sum((b / total) * math.log2(b / total) for b in sizes)


class TestInitialEntropy:
    def test_26_classes_capped_at_10k(self):
        census = census_from_sizes([10_000] * 26, cap=10_000)
        assert Q.initial_entropy(census) == pytest.approx(17.99, abs=0.01)

    def test_8_classes_of_60(self):
        census = census_from_sizes([60] * 8, cap=60)
        assert Q.initial_entropy(census) == pytest.approx(8.91, abs=0.01)

    def test_single_singleton_class(self):
        assert Q.initial_entropy(census_from_sizes([1])) == 0.0

    def test_empty_census_rejected(self):
        census = C.ClassCensus(k=1, cap=None, counts=(0, 0))
        with pytest.raises(Q.QuantifierError, match="^census has no feasible class$"):
            Q.initial_entropy(census)

    def test_incomplete_census_rejected(self):
        census = C.ClassCensus(k=1, cap=None, counts=(1, 0), complete=False)
        with pytest.raises(Q.QuantifierError, match="^cannot quantify an incomplete census$"):
            Q.initial_entropy(census)


class TestRemainingEntropy:
    def test_five_class_bench_census(self):
        census = census_from_sizes([68, 16, 27, 1, 16])
        assert Q.remaining_entropy(census) == pytest.approx(5.24, abs=0.01)

    def test_password_matching_census(self):
        census = census_from_sizes([48, 6760, 4309, 5269])
        assert Q.remaining_entropy(census) == pytest.approx(12.41, abs=0.01)

    @pytest.mark.parametrize(
        "n_classes,size,expected",
        [(26, 10_000, 13.29), (60, 3, 1.585), (8, 60, 5.907)],
    )
    def test_equal_classes_give_log_size(self, n_classes, size, expected):
        census = census_from_sizes([size] * n_classes)
        assert Q.remaining_entropy(census) == pytest.approx(math.log2(size), abs=1e-12)
        assert Q.remaining_entropy(census) == pytest.approx(expected, abs=0.01)


class TestShannonLeak:
    def test_five_class_bench_leak(self):
        census = census_from_sizes([68, 16, 27, 1, 16])
        assert Q.shannon_leak(census) == pytest.approx(7.0 - 5.24, abs=0.01)

    def test_single_class_no_leak(self):
        assert Q.shannon_leak(census_from_sizes([500])) == 0.0

    def test_all_singletons_full_disclosure(self):
        census = census_from_sizes([1] * 16)
        assert Q.shannon_leak(census) == pytest.approx(4.0, abs=1e-12)
        assert Q.remaining_entropy(census) == 0.0

    @given(sizes_strategy)
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, sizes):
        census = census_from_sizes(sizes)
        leak = Q.shannon_leak(census)
        assert -1e-9 <= leak <= math.log2(sum(sizes)) + 1e-9

    @given(sizes_strategy)
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_observation_entropy_oracle(self, sizes):
        census = census_from_sizes(sizes)
        assert Q.shannon_leak(census) == pytest.approx(entropy_of_observation(sizes), abs=1e-9)

    @given(sizes_strategy, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, sizes, rand):
        census_a = census_from_sizes(sizes)
        shuffled = list(sizes)
        rand.shuffle(shuffled)
        census_b = census_from_sizes(shuffled)
        assert Q.shannon_leak(census_a) == pytest.approx(Q.shannon_leak(census_b), abs=1e-12)
        assert Q.remaining_entropy(census_a) == pytest.approx(Q.remaining_entropy(census_b), abs=1e-12)

    @given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=2, max_size=16), st.data())
    @settings(max_examples=100, deadline=None)
    def test_merging_classes_never_increases_leak(self, sizes, data):
        i = data.draw(st.integers(min_value=0, max_value=len(sizes) - 2))
        merged = sizes[:i] + [sizes[i] + sizes[i + 1]] + sizes[i + 2 :]
        assert Q.shannon_leak(census_from_sizes(merged)) <= Q.shannon_leak(
            census_from_sizes(sizes)
        ) + 1e-9


class TestBuildReport:
    def test_report_8_classes_of_60(self):
        census = census_from_sizes([60] * 8, cap=60, k=6)
        report = Q.build_report(census, sweep_summary={"k_star": 6, "tau": 0.05, "verdict": "LeakDetected(k=6)"})
        assert report.n_classes == 8
        assert report.leaked_bits == pytest.approx(3.0, abs=0.01)
        assert "k=6, K=8" in report.summary()

    def test_report_60_classes_of_3(self):
        census = census_from_sizes([3] * 60, cap=3, k=10)
        report = Q.build_report(census)
        assert report.n_classes == 60
        assert report.leaked_bits == pytest.approx(5.91, abs=0.01)

    def test_k_mismatch_rejected(self):
        census = census_from_sizes([4, 4], k=1)
        with pytest.raises(Q.QuantifierError, match="^census k=1 does not match sweep k_star=3$"):
            Q.build_report(census, sweep_summary={"k_star": 3})

    def test_invariants_and_json_round_trip(self):
        census = census_from_sizes([68, 16, 27, 1, 16], cap=100, k=3)
        report = Q.build_report(census, model_ref="models/k3.json")
        assert 0 <= report.remaining_bits <= report.initial_bits
        assert report.leaked_bits == pytest.approx(report.initial_bits - report.remaining_bits)
        assert report.remaining_bits <= math.log2(report.total)
