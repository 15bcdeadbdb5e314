import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeleak import dataset as D
from timeleak import network as N
from timeleak import sweep as S

from conftest import quick_config

curve_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=10
)


def record(k, sse, resid=1.0):
    return S.KRecord(k=k, test_sse=sse, test_r2=0.9, max_abs_residual=resid, seed=0)


def make_result(sses, k_star=None, tau=0.05, residuals=None):
    residuals = residuals or [1.0] * len(sses)
    if k_star is None:
        k_star = S.select_k(sses, tau)
    return S.SweepResult(
        records=tuple(record(k, s, r) for k, (s, r) in enumerate(zip(sses, residuals))),
        k_star=k_star,
        tau=tau,
        verdict=S.Verdict(leak=k_star >= 1, k_star=k_star),
    )


class TestSelectK:
    def test_clear_elbow(self):
        assert S.select_k([100, 40, 10, 9.8, 9.7, 9.7], 0.05) == 2

    def test_flat_curve(self):
        assert S.select_k([5, 5, 5], 0.05) == 0

    def test_flattening_after_six(self):
        curve = [900, 700, 500, 330, 200, 110, 40, 39.5, 39.2]
        assert S.select_k(curve, 0.05) == 6

    def test_distant_improvement_still_counts(self):
        # k=1 looks flat next to k=2 but k=3 improves on it by far.
        assert S.select_k([100, 50, 49, 10, 10], 0.05) == 3

    @given(curve_strategy, st.floats(min_value=0.01, max_value=0.5), st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_tau(self, curve, tau_a, tau_b):
        lo, hi = sorted((tau_a, tau_b))
        assert S.select_k(curve, hi) <= S.select_k(curve, lo)

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=10),
        st.floats(min_value=1e-3, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariant_under_positive_scaling(self, curve, scale):
        # Scale invariance holds above the 1e-12 denominator floor; curves at
        # or below that floor are deliberately treated as converged-to-zero.
        assert S.select_k(curve, 0.05) == S.select_k([s * scale for s in curve], 0.05)

    def test_bad_tau(self):
        with pytest.raises(S.SweepError):
            S.select_k([1.0], tau=0.0)


class TestDetect:
    def test_elbow_leak(self):
        verdict = S.detect(make_result([50, 1.0, 1.0]))
        assert verdict.leak and verdict.k_star == 1
        assert verdict.label == "LeakDetected(k=1)"

    def test_infinite_epsilon_never_leaks(self):
        verdict = S.detect(make_result([50, 1.0, 1.0]), epsilon=float("inf"))
        assert not verdict.leak
        assert "disagrees" in verdict.note

    def test_epsilon_agrees_silently(self):
        verdict = S.detect(make_result([50, 1.0, 1.0], residuals=[9.0, 0.1, 0.1]), epsilon=2.0)
        assert verdict.leak and verdict.note == ""

    def test_no_leak_flat(self):
        verdict = S.detect(make_result([5, 5, 5]))
        assert not verdict.leak and verdict.label == "NoLeakDetected"


class TestSweepResultInvariants:
    def test_records_must_start_at_zero(self):
        with pytest.raises(S.SweepError):
            S.SweepResult(
                records=(record(1, 5.0),), k_star=1, tau=0.05, verdict=S.Verdict(True, 1)
            )

    def test_verdict_must_match_k_star(self):
        with pytest.raises(S.SweepError):
            S.SweepResult(
                records=(record(0, 5.0), record(1, 1.0)),
                k_star=1,
                tau=0.05,
                verdict=S.Verdict(leak=False, k_star=1),
            )

    def test_json_round_trip(self):
        result = make_result([50, 2.0, 1.9])
        again = S.SweepResult.from_json(result.to_json())
        assert again.k_star == result.k_star
        assert again.sse_curve() == result.sse_curve()
        assert again.verdict.label == result.verdict.label


@pytest.fixture(scope="module")
def public_only_ds():
    # Time depends on the public integer alone: a clause that always fires.
    clauses = (D.Clause(lambda x: np.ones(x.shape[0], dtype=bool), 1.0),)
    return D.gen_rn(4, clauses, 5, rows=400, noise_std=0.02, seed=5)


class TestSweepK:
    def test_public_only_data_no_leak(self, public_only_ds):
        arch = N.Architecture(4, 5, 0, (6,), (6,), (12,))
        cfg = quick_config(learning_rate=0.02, ste_clip=4.0, max_epochs=150, seed=2)
        result = S.sweep_k(public_only_ds, arch, k_max=2, config=cfg, seeds_per_k=2)
        assert result.k_star == 0
        assert not result.verdict.leak
        assert result.record(0).test_sse <= result.record(2).test_sse * 1.1

    def test_leak_detected_on_secret_dependent_data(self):
        ds = D.gen_rn_preset("R_2", rows=400, noise_std=0.02, seed=1)
        arch = N.Architecture(2, 7, 0, (5,), (5,), (10,))
        cfg = quick_config(learning_rate=0.02, ste_clip=4.0, max_epochs=150, seed=1)
        result = S.sweep_k(ds, arch, k_max=2, config=cfg, seeds_per_k=2)
        assert result.verdict.leak
        assert result.k_star >= 1

    def test_bad_args(self, public_only_ds):
        arch = N.Architecture(4, 5, 0, (6,), (6,), (12,))
        with pytest.raises(S.SweepError):
            S.sweep_k(public_only_ds, arch, k_max=0, config=quick_config())
        with pytest.raises(S.SweepError):
            S.sweep_k(public_only_ds, arch, k_max=1, config=quick_config(), seeds_per_k=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the poisoned model overflows
    def test_divergence_names_k_and_seed(self, public_only_ds, monkeypatch):
        cfg = quick_config(max_epochs=5, seed=3)
        bad_seed = S.derive_seed(cfg.seed, 1, 2)
        real_init = N.init

        def init(arch, seed):
            net = real_init(arch, seed)
            if seed == bad_seed:
                net.flat[...] = np.inf  # the last model of the k = 1 stack
            return net

        monkeypatch.setattr(N, "init", init)
        arch = N.Architecture(4, 5, 0, (6,), (6,), (12,))
        with pytest.raises(S.SweepError, match=rf"k=1 \(seed {bad_seed}\)") as info:
            S.sweep_k(public_only_ds, arch, k_max=2, config=cfg, seeds_per_k=3)
        cause = info.value.__cause__
        assert isinstance(cause, N.NonFiniteLoss) and cause.epoch == 0 and cause.seed == bad_seed
