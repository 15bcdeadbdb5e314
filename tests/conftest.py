import math
from dataclasses import replace

import numpy as np
import pytest

from timeleak import counter as C
from timeleak import dataset as D
from timeleak import network as N


def quick_config(**overrides) -> N.TrainConfig:
    """Small training budget for unit tests; override per test."""
    base = dict(max_epochs=120, patience=60, batch_size=32, seed=0)
    base.update(overrides)
    return N.TrainConfig(**base)


def conditional_entropy_of_sizes(sizes) -> float:
    """Independent oracle: expected bits left in a uniform secret given its class."""
    total = sum(sizes)
    return sum(b * math.log2(b) for b in sizes) / total


BRUTE_FORCE_LIMIT = 2**20


def census_from_sizes(sizes, cap: int | None = None, k: int | None = None) -> C.ClassCensus:
    """Build a census for known class sizes, each count capped at `cap`."""
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise C.CounterError("need at least one class size")
    if k is None:
        k = max(1, math.ceil(math.log2(len(sizes))))
    if len(sizes) > 2**k:
        raise C.CounterError(f"{len(sizes)} classes do not fit in {k} bits")
    counts = [s if cap is None else min(s, cap) for s in sizes]
    return C.ClassCensus(k=k, cap=cap, counts=tuple(counts + [0] * (2**k - len(counts))))


def brute_force_census(reducer: C.ReducerNet, cap: int | None = None) -> C.ClassCensus:
    """The counting oracle: evaluate the reducer on every domain element and
    tally exactly; the counts are capped like the branch-and-bound census."""
    total = reducer.domain_size
    if total > BRUTE_FORCE_LIMIT:
        raise C.CounterError(f"domain size {total} exceeds brute-force guard {BRUTE_FORCE_LIMIT}")
    census = census_from_sizes(C._tally(reducer, *reducer.box), cap, reducer.k)
    return replace(census, nodes=total)


def binary_schema(n: int) -> D.FeatureSchema:
    return D.FeatureSchema(tuple((f"s_{j}", D.Binary()) for j in range(n)), (), "cost-units")


def identity_normalizer(n_secret: int, n_public: int = 0) -> D.Normalizer:
    return D.Normalizer(
        secret_shift=np.zeros(n_secret),
        secret_denom=np.ones(n_secret),
        public_shift=np.zeros(n_public),
        public_scale=np.ones(n_public),
        time_shift=0.0,
        time_scale=1.0,
    )


def random_reducer_net(
    rng: np.random.Generator,
    n_secret: int,
    k: int,
    hidden,
    n_public: int = 2,
) -> N.TriBranchNetwork:
    """Randomly initialized trained-shaped network over binary secrets, with
    random biases so interface pre-activations straddle zero."""
    arch = N.Architecture(
        n_secret=n_secret,
        n_public=n_public,
        k=k,
        secret_widths=tuple(hidden),
        public_widths=(4,),
        joint_widths=(4,),
    )
    net = N.init(arch, seed=int(rng.integers(0, 2**31)))
    for w, b in net.secret_layers:
        b += rng.uniform(-0.5, 0.5, size=b.shape)
    if net.iface is not None:
        net.iface[1][...] = rng.uniform(-0.5, 0.5, size=net.iface[1].shape)
    schema = D.FeatureSchema(
        tuple((f"s_{j}", D.Binary()) for j in range(n_secret)),
        tuple(f"p_{j}" for j in range(n_public)),
        "cost-units",
    )
    net.schema = schema
    net.normalizer = identity_normalizer(n_secret, n_public)
    return net


def flip_one_self_check_bit(monkeypatch) -> None:
    """Make the parent network's interface bits, as `counter.extract_reducer`
    reads them for its self-check, disagree with the reducer on one point."""
    real = C.predict_batch

    def predict_batch(net, xn, yn):
        t_hat, bits = real(net, xn, yn)
        bits[0, 0] ^= 1
        return t_hat, bits

    monkeypatch.setattr(C, "predict_batch", predict_batch)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
