import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from timeleak import counter as C
from timeleak import dataset as D
from timeleak import network as N

from conftest import identity_normalizer, quick_config, random_reducer_net


def tiny_arch(k=1, n_secret=2, n_public=3):
    return N.Architecture(
        n_secret=n_secret,
        n_public=n_public,
        k=k,
        secret_widths=(4,),
        public_widths=(4,),
        joint_widths=(5,),
    )


def loss_only(net, batch):
    xn, yn, tn = batch
    t_hat, _ = N.predict_batch(net, xn, yn)
    return float(np.mean((t_hat - tn) ** 2))


def split_like(net, vec):
    """The arrays of a flat-layout vector, in canonical layer order."""
    return [a for layer in N.TriBranchNetwork(net.arch, vec).layers for a in layer]


def non_ste_arrays(arch, vec):
    """The public, joint and output arrays of a flat-layout vector: those whose
    gradients do not pass the straight-through surrogate."""
    net = N.TriBranchNetwork(arch, vec)
    return [a for layer in (*net.public_layers, *net.joint_layers, net.out_layer) for a in layer]


def model_loss_and_gradients(net, batch, ste_clip=1.0):
    """`loss_and_gradients` of one model on (rows, d) batches, through its
    one-model stack: the model's loss and its gradient vector."""
    loss, grad = N.loss_and_gradients(net.stack, tuple(a[None] for a in batch), ste_clip)
    return loss[0], grad


def fd_gradient(net, batch, param, i, j=None, h=1e-6):
    """Central finite difference of the batch loss wrt one parameter entry."""
    idx = (i,) if j is None else (i, j)
    orig = param[idx]
    param[idx] = orig + h
    up = loss_only(net, batch)
    param[idx] = orig - h
    down = loss_only(net, batch)
    param[idx] = orig
    return (up - down) / (2 * h)


class TestInit:
    def test_deterministic(self):
        a = N.init(tiny_arch(), seed=5)
        b = N.init(tiny_arch(), seed=5)
        assert np.array_equal(a.flat, b.flat)

    def test_seed_changes_weights(self):
        a = N.init(tiny_arch(), seed=5)
        b = N.init(tiny_arch(), seed=6)
        assert any(not np.array_equal(pa, pb) for pa, pb in zip(split_like(a, a.flat), split_like(b, b.flat)))

    def test_k0_has_no_secret_branch(self):
        net = N.init(tiny_arch(k=0), seed=1)
        assert net.secret_layers == [] and net.iface is None

    def test_deep_wide_shapes(self):
        arch = N.Architecture(
            n_secret=1024,
            n_public=1024,
            k=6,
            secret_widths=(50, 50),
            public_widths=(100,),
            joint_widths=(200, 200),
        )
        net = N.init(arch, seed=0)
        assert [w.shape for w, _ in net.secret_layers] == [(50, 1024), (50, 50)]
        assert net.iface[0].shape == (6, 50)
        assert [w.shape for w, _ in net.public_layers] == [(100, 1024)]
        assert [w.shape for w, _ in net.joint_layers] == [(200, 106), (200, 200)]
        assert net.out_layer[0].shape == (1, 200)


def predict_one(net, x, y):
    """Prediction and bits for one normalized sample, through a one-row batch."""
    t_hat, bits = N.predict_batch(net, np.asarray(x, dtype=float).reshape(1, -1), np.asarray(y, dtype=float).reshape(1, -1))
    return float(t_hat[0]), bits[0]


class TestForward:
    def test_zero_weights(self):
        net = N.init(tiny_arch(), seed=0)
        net.flat[...] = 0.0
        t_hat, bits = predict_one(net, [0.5, 0.5], [0.1, 0.2, 0.3])
        assert t_hat == 0.0
        assert bits.tolist() == [1]  # zero pre-activation, tie maps to 1

    def test_k0_noninterference(self, rng):
        net = N.init(tiny_arch(k=0), seed=2)
        y = rng.normal(size=3)
        t1, _ = predict_one(net, rng.normal(size=2), y)
        t2, _ = predict_one(net, rng.normal(size=2), y)
        assert t1 == t2

    def test_class_consistency(self, rng):
        # Same interface bits imply the same prediction for any public input.
        net = N.init(tiny_arch(k=2, n_secret=4), seed=3)
        for _ in range(50):
            x1, x2 = rng.normal(size=4), rng.normal(size=4)
            y = rng.normal(size=3)
            t1, b1 = predict_one(net, x1, y)
            t2, b2 = predict_one(net, x2, y)
            if np.array_equal(b1, b2):
                assert t1 == t2

    def test_dimension_mismatch(self):
        net = N.init(tiny_arch(), seed=0)
        with pytest.raises(N.NetworkError, match="^expected 2 secret / 3 public features, got 1 / 3$"):
            predict_one(net, [1.0], [0.0, 0.0, 0.0])


class TestGradients:
    def test_non_ste_gradients_match_finite_differences(self, rng):
        for trial in range(5):
            k = int(rng.integers(0, 4))
            arch = N.Architecture(
                n_secret=3,
                n_public=2,
                k=k,
                secret_widths=(int(rng.integers(2, 9)),),
                public_widths=(int(rng.integers(2, 9)),),
                joint_widths=(int(rng.integers(2, 9)),),
            )
            net = N.init(arch, seed=trial)
            batch = (rng.normal(size=(5, 3)), rng.normal(size=(5, 2)), rng.normal(size=5))
            _, grad = model_loss_and_gradients(net, batch)
            for p, g in zip(non_ste_arrays(arch, net.flat), non_ste_arrays(arch, grad)):
                flat_p = p.reshape(-1)
                flat_g = g.reshape(-1)
                for idx in range(flat_p.size):
                    fd = fd_gradient(net, batch, flat_p, idx)
                    assert fd == pytest.approx(flat_g[idx], rel=1e-4, abs=1e-6)

    def test_ste_zero_outside_clip(self):
        # One secret feature feeding the interface directly; pre-activation 2.0
        # sits outside the default clip of 1, so no gradient reaches the
        # interface parameters.
        arch = N.Architecture(n_secret=1, n_public=1, k=1, joint_widths=(3,))
        net = N.init(arch, seed=0)
        net.iface[0][...] = 1.0
        net.iface[1][...] = 0.0
        batch = (np.full((4, 1), 2.0), np.linspace(0, 1, 4).reshape(4, 1), np.ones(4))
        _, grad = model_loss_and_gradients(net, batch, ste_clip=1.0)
        grads = split_like(net, grad)
        assert np.all(grads[0] == 0.0) and np.all(grads[1] == 0.0)
        # With a wide enough clip the same unit passes gradient again.
        _, grad = model_loss_and_gradients(net, batch, ste_clip=2.0)
        assert np.any(split_like(net, grad)[0] != 0.0)

    def test_duplicated_rows_keep_mean_semantics(self, rng):
        net = N.init(tiny_arch(k=2), seed=1)
        x, y, t = rng.normal(size=(5, 2)), rng.normal(size=(5, 3)), rng.normal(size=5)
        loss1, grad1 = model_loss_and_gradients(net, (x, y, t))
        loss2, grad2 = model_loss_and_gradients(net, (np.tile(x, (2, 1)), np.tile(y, (2, 1)), np.tile(t, 2)))
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        np.testing.assert_allclose(grad1, grad2, rtol=1e-12, atol=1e-15)

    def test_empty_batch_rejected(self):
        net = N.init(tiny_arch(), seed=0)
        with pytest.raises(N.NetworkError):
            N.loss_and_gradients(net.stack, (np.zeros((1, 0, 2)), np.zeros((1, 0, 3)), np.zeros((1, 0))))


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = np.array([1.0, -2.0])
        N.adam_step(p, np.zeros(2), N.AdamState(np.zeros(2), np.zeros(2)), N.TrainConfig())
        assert p.tolist() == [1.0, -2.0]

    def test_first_step_magnitude(self):
        # Bias correction makes the first step almost exactly the learning rate.
        p = np.array([0.0])
        N.adam_step(p, np.array([1.0]), N.AdamState(np.zeros(1), np.zeros(1)), N.TrainConfig(learning_rate=0.1))
        assert p[0] == pytest.approx(-0.1, rel=1e-6)

    def test_two_runs_identical(self, rng):
        grads_seq = [rng.normal(size=3) for _ in range(10)]
        outs = []
        for _ in range(2):
            p = np.zeros(3)
            state = N.AdamState(np.zeros(3), np.zeros(3))
            for g in grads_seq:
                N.adam_step(p, g, state, N.TrainConfig())
            outs.append(p.copy())
        assert np.array_equal(outs[0], outs[1])


class TestTrain:
    def _quick_split(self, ds, seed=0):
        trainval, test = D.split(ds, 0.1, seed)
        tr, va = D.split(trainval, 0.1, seed + 1)
        return tr, va, test

    def test_constant_time_dataset(self):
        clauses = (D.Clause(lambda x: np.zeros(x.shape[0], dtype=bool), 1.0),)
        ds = D.gen_rn(2, clauses, 3, rows=60, noise_std=0.0, seed=1)
        tr, va, test = self._quick_split(ds)
        net, _ = N.train(tr, va, tiny_arch(k=1, n_public=3), quick_config(max_epochs=80))
        assert N.sse(net, test) < 1e-3

    def test_determinism(self):
        ds = D.gen_rn_preset("R_2", rows=120, noise_std=0.01, seed=4)
        tr, va, _ = self._quick_split(ds)
        arch = N.Architecture(2, 7, 1, (5,), (5,), (10,))
        n1, h1 = N.train(tr, va, arch, quick_config(max_epochs=25, seed=9))
        n2, h2 = N.train(tr, va, arch, quick_config(max_epochs=25, seed=9))
        assert h1 == h2
        assert np.array_equal(n1.flat, n2.flat)

    def test_r2_preset_fit_quality(self):
        ds = D.gen_rn_preset("R_2", rows=400, noise_std=0.02, seed=1)
        tr, va, test = self._quick_split(ds)
        arch = N.Architecture(2, 7, 1, (5,), (5,), (10,))
        net, _ = N.train(tr, va, arch, quick_config(max_epochs=300, patience=120, seed=3))
        assert N.r2(net, test) >= 0.95

    def test_monotone_capacity(self):
        # A wider interface can always emulate a narrower one by zeroing
        # weights, so best-of-3 test SSE at k+1 stays within a 5%-of-variance
        # slack of the SSE at k (trained results are checked statistically;
        # at the convergence floor the ratio itself is noise).
        ds = D.gen_rn_preset("R_2", rows=400, noise_std=0.0, seed=6)
        tr, va, test = self._quick_split(ds)
        tn = (test.t - test.t.mean()) / test.t.std()
        ss_tot = float(np.sum((tn - tn.mean()) ** 2))
        best = {}
        for k in (0, 1, 2):
            arch = N.Architecture(2, 7, k, (5,), (5,), (10,))
            best[k] = min(
                N.sse(
                    N.train(tr, va, arch, quick_config(learning_rate=0.02, ste_clip=4.0, max_epochs=220, patience=90, seed=s))[0],
                    test,
                )
                for s in (0, 1, 2)
            )
        assert best[1] <= best[0] + 0.05 * ss_tot
        assert best[2] <= best[1] + 0.05 * ss_tot

    def test_schema_mismatch_rejected(self):
        ds1 = D.gen_rn_preset("R_2", rows=60, noise_std=0.0, seed=0)
        ds2 = D.gen_rn_preset("R_3", rows=60, noise_std=0.0, seed=0)
        with pytest.raises(N.NetworkError, match="^train and validation datasets must share a schema$"):
            N.train(ds1, ds2, tiny_arch(), quick_config())


class TestMetrics:
    def test_perfect_predictions(self):
        ds = D.gen_rn_preset("R_2", rows=50, noise_std=0.0, seed=3)
        tr, te = D.split(ds, 0.2, 0)
        tr2, va = D.split(tr, 0.2, 1)
        net, _ = N.train(tr2, va, N.Architecture(2, 7, 1, (5,), (5,), (10,)), quick_config(max_epochs=5))
        # Force residuals to zero by predicting the normalized targets exactly.
        xn = net.normalizer.map_secrets(te.x)
        yn = net.normalizer.map_publics(te.y)
        t_hat, _ = N.predict_batch(net, xn, yn)
        ss_res = np.sum((t_hat - net.normalizer.map_time(te.t)) ** 2)
        assert N.sse(net, te) == pytest.approx(float(ss_res))

    def test_r2_zero_for_mean_predictor(self):
        # A constant-output network predicting the mean has an R2 of zero.
        schema = D.FeatureSchema((), ("p_x",), "s")
        ds = D.TraceDataset(schema, np.zeros((4, 0)), [[1.0], [2.0], [3.0], [4.0]], [1.0, 2.0, 3.0, 4.0])
        arch = N.Architecture(0, 1, 0, (), (), ())
        net = N.init(arch, seed=0)
        net.normalizer = D.fit_normalizer(ds)
        net.schema = schema
        net.flat[...] = 0.0  # predicts normalized 0 == raw mean everywhere
        assert N.r2(net, ds) == pytest.approx(0.0)
        assert N.max_abs_residual(net, ds) == pytest.approx(1.5)

    def test_r2_constant_targets_guard(self):
        schema = D.FeatureSchema((), ("p_x",), "s")
        ds = D.TraceDataset(schema, np.zeros((3, 0)), [[1.0], [2.0], [3.0]], [5.0, 5.0, 5.0])
        net = N.init(N.Architecture(0, 1, 0, (), (), ()), seed=0)
        net.normalizer = D.fit_normalizer(ds)
        net.schema = schema
        net.flat[...] = 0.0  # predicts the constant exactly
        assert N.r2(net, ds) == 1.0


class TestSaveLoad:
    def test_round_trip_forward_identical(self, rng, tmp_path):
        ds = D.gen_rn_preset("R_3", rows=80, noise_std=0.01, seed=2)
        tr, va = D.split(ds, 0.2, 0)
        net, _ = N.train(tr, va, N.Architecture(3, 7, 2, (6,), (6,), (8,)), quick_config(max_epochs=10))
        path = tmp_path / "model.json"
        N.save(net, path)
        loaded = N.load(path)
        assert loaded.k == net.k
        assert loaded.normalizer is not None and loaded.schema == net.schema
        assert loaded.metrics == net.metrics and "valid_sse" in loaded.metrics
        for _ in range(100):
            x = rng.normal(size=3)
            y = rng.normal(size=7)
            t1, b1 = predict_one(net, x, y)
            t2, b2 = predict_one(loaded, x, y)
            assert t1 == t2 and np.array_equal(b1, b2)

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        message = f"cannot read JSON file {path}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        with pytest.raises(N.NetworkError, match=f"^{re.escape(message)}$"):
            N.load(path)

    def test_version_mismatch(self, tmp_path):
        net = N.init(tiny_arch(), seed=0)
        obj = N.to_json(net)
        obj["version"] = 99
        path = tmp_path / "v99.json"
        path.write_text(__import__("json").dumps(obj), encoding="utf-8")
        with pytest.raises(N.NetworkError, match="^unsupported model version 99$"):
            N.load(path)


# ---------------------------------------------------------------------------
# Per-array reference: every weight and bias its own array, gradients found
# by object identity and Adam looping over the arrays. The flat layout must
# reproduce it bit for bit.
# ---------------------------------------------------------------------------


class LooseNet:
    def __init__(self, net):
        def own(layer):
            return layer[0].copy(), layer[1].copy()

        self.arch = net.arch
        self.k = net.k
        self.secret_layers = [own(l) for l in net.secret_layers]
        self.iface = own(net.iface) if net.iface is not None else None
        self.public_layers = [own(l) for l in net.public_layers]
        self.joint_layers = [own(l) for l in net.joint_layers]
        self.out_layer = own(net.out_layer)

    def parameters(self):
        iface = [self.iface] if self.iface is not None else []
        layers = [*self.secret_layers, *iface, *self.public_layers, *self.joint_layers, self.out_layer]
        return [a for layer in layers for a in layer]


def reference_forward(net, xn, yn):
    """Every activation of a forward pass over (rows, d) arrays, by plain 2-D
    products of each layer's own arrays."""

    def relu_stack(layers, h):
        ins, zs = [], []
        for w, b in layers:
            ins.append(h)
            zs.append(h @ w.T + b)
            h = np.maximum(zs[-1], 0.0)
        return ins, zs, h

    cache = {}
    bits = np.zeros((yn.shape[0], 0))
    if net.k > 0:
        cache["sec_in"], cache["sec_z"], cache["sec_out"] = relu_stack(net.secret_layers, xn)
        cache["iface_preact"] = cache["sec_out"] @ net.iface[0].T + net.iface[1]
        bits = (cache["iface_preact"] >= 0).astype(float)
    cache["pub_in"], cache["pub_z"], pub_out = relu_stack(net.public_layers, yn)
    joint = relu_stack(net.joint_layers, np.concatenate([bits, pub_out], axis=1))
    cache["joint_in"], cache["joint_z"], cache["joint_out"] = joint
    cache["t_hat"] = (cache["joint_out"] @ net.out_layer[0].T + net.out_layer[1])[:, 0]
    return cache


def reference_loss_and_gradients(net, batch, ste_clip):
    xn, yn, tn = batch
    cache = reference_forward(net, xn, yn)
    resid = cache["t_hat"] - tn
    grads = {}

    def put(param, grad):
        grads[id(param)] = grad

    def back(layers, ins, zs, dh):
        for (w, b), h_in, z in zip(reversed(layers), reversed(ins), reversed(zs)):
            dz = dh * (z > 0)
            put(w, dz.T @ h_in)
            put(b, dz.sum(axis=0))
            dh = dz @ w
        return dh

    dz = (2.0 / tn.shape[0]) * resid[:, None]
    put(net.out_layer[0], dz.T @ cache["joint_out"])
    put(net.out_layer[1], dz.sum(axis=0))
    dh = back(net.joint_layers, cache["joint_in"], cache["joint_z"], dz @ net.out_layer[0])
    if net.k > 0:
        da = dh[:, : net.k] * (np.abs(cache["iface_preact"]) <= ste_clip)
        put(net.iface[0], da.T @ cache["sec_out"])
        put(net.iface[1], da.sum(axis=0))
        back(net.secret_layers, cache["sec_in"], cache["sec_z"], da @ net.iface[0])
    back(net.public_layers, cache["pub_in"], cache["pub_z"], dh[:, net.k :])
    return float(np.mean(resid**2)), [grads[id(p)] for p in net.parameters()]


def reference_adam_step(params, grads, moments, t, config):
    b1, b2 = N.ADAM_BETA1, N.ADAM_BETA2
    for p, g, m, v in zip(params, grads, *moments):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g**2
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + N.ADAM_EPS)


def reference_train(ds_train, ds_valid, arch, config):
    norm = D.fit_normalizer(ds_train)
    tr = (norm.map_secrets(ds_train.x), norm.map_publics(ds_train.y), norm.map_time(ds_train.t))
    va = (norm.map_secrets(ds_valid.x), norm.map_publics(ds_valid.y), norm.map_time(ds_valid.t))
    net = LooseNet(N.init(arch, config.seed))
    params = net.parameters()
    moments = ([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])

    def sse(x, y, t):
        return float(np.sum((reference_forward(net, x, y)["t_hat"] - t) ** 2))

    history, best_valid, best, stall, t = [], np.inf, [p.copy() for p in params], 0, 0
    for epoch in range(config.max_epochs):
        order = np.random.default_rng([config.seed, epoch]).permutation(ds_train.n_rows)
        for start in range(0, ds_train.n_rows, config.batch_size):
            idx = order[start : start + config.batch_size]
            _, grads = reference_loss_and_gradients(net, tuple(a[idx] for a in tr), config.ste_clip)
            t += 1
            reference_adam_step(params, grads, moments, t, config)
        history.append(sse(*va))
        if history[-1] < best_valid - 1e-12:
            best_valid, best, stall = history[-1], [p.copy() for p in params], 0
        else:
            stall += 1
            if stall >= config.patience:
                break
    return best, history


class TestFlatParameters:
    def test_layers_are_views_of_flat(self, tmp_path):
        # The named layers, in canonical order, tile `flat`, and the model's
        # one-model stack runs on that same vector.
        net = N.init(tiny_arch(k=2), seed=4)
        N.save(net, tmp_path / "m.json")
        for built in (net, N.from_json(N.to_json(net)), N.load(tmp_path / "m.json")):
            assert np.array_equal(built.flat, net.flat)
            arrays = [a for layer in built.layers for a in layer]
            assert all(np.shares_memory(a, built.flat) for a in arrays)
            assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), built.flat)
            assert built.stack.flat is built.flat and np.all(built.stack.owner == 0)

    def test_in_place_layer_edit_reaches_predictions(self, rng):
        net = N.init(tiny_arch(k=2), seed=4)
        x, y = rng.normal(size=(20, 2)), rng.normal(size=(20, 3))
        t0, b0 = N.predict_batch(net, x, y)
        net.iface[1][...] = 10.0  # every interface bit on
        t1, b1 = N.predict_batch(net, x, y)
        assert np.all(b1 == 1) and not np.array_equal(b0, b1) and not np.array_equal(t0, t1)
        net.flat[...] = 0.0
        assert np.all(net.out_layer[0] == 0.0)
        assert np.all(N.predict_batch(net, x, y)[0] == 0.0)

    def test_extracted_reducer_owns_its_arrays(self, rng):
        net = random_reducer_net(rng, 5, 2, (4,))
        reducer = C.extract_reducer(net)
        before = [a.copy() for a in (reducer.hidden[0][0], reducer.hidden[0][1], reducer.iface_w, reducer.iface_b)]
        net.flat += 1.0
        after = (reducer.hidden[0][0], reducer.hidden[0][1], reducer.iface_w, reducer.iface_b)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_from_json_rejects_misshapen_weights(self):
        obj = N.to_json(N.init(tiny_arch(), seed=0))
        obj["weights"]["out"]["w"] = [[1.0, 2.0]]
        with pytest.raises(N.NetworkError, match=r"^model weights\.out\.w must be an array of numbers of shape \(1, 5\)$"):
            N.from_json(obj)

    def test_reader_checks_shapes_before_allocating(self, tmp_path):
        # A declared width of 10**12 puts terabytes of parameters in the
        # architecture; the reader names the first misshapen array without
        # allocating anything of the architecture's size.
        obj = N.to_json(N.init(tiny_arch(), seed=0))
        obj["architecture"]["secret_widths"] = [10**12]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        tracemalloc.start()
        try:
            with pytest.raises(N.NetworkError, match=r"^model weights\.secret\[0\]\.w must be an array of numbers of shape \(1000000000000, 2\)$"):
                N.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_from_json_rejects_non_finite_values(self):
        obj = N.to_json(N.init(tiny_arch(), seed=0))
        obj["weights"]["iface"]["w"][0][0] = float("nan")
        with pytest.raises(N.NetworkError, match="^model weights are not all finite$"):
            N.from_json(obj)
        obj = N.to_json(N.init(tiny_arch(), seed=0))
        obj["normalizer"] = D.normalizer_to_json(replace(identity_normalizer(2, 3), time_shift=float("inf")))
        with pytest.raises(N.NetworkError, match="^model normalizer values are not all finite: time_shift$"):
            N.from_json(obj)

    def test_steps_match_per_array_reference(self, rng):
        arch = N.Architecture(3, 7, 3, (10,), (10,), (20,))
        net = N.init(arch, seed=2)
        ref = LooseNet(net)
        config = N.TrainConfig(learning_rate=0.02)
        state = N.AdamState(np.zeros_like(net.flat), np.zeros_like(net.flat))
        moments = ([np.zeros_like(p) for p in ref.parameters()], [np.zeros_like(p) for p in ref.parameters()])
        for t in range(1, 4):
            batch = (rng.integers(0, 2, size=(32, 3)).astype(float), rng.normal(size=(32, 7)), rng.normal(size=32))
            loss, grad = model_loss_and_gradients(net, batch, ste_clip=4.0)
            ref_loss, ref_grads = reference_loss_and_gradients(ref, batch, ste_clip=4.0)
            assert loss == ref_loss
            assert all(np.array_equal(g, r) for g, r in zip(split_like(net, grad), ref_grads))
            N.adam_step(net.flat, grad, state, config)
            reference_adam_step(ref.parameters(), ref_grads, moments, t, config)
            assert all(np.array_equal(p, r) for p, r in zip(split_like(net, net.flat), ref.parameters()))

    def test_training_matches_per_array_reference(self):
        # A three-model stack: each model matches the per-array reference
        # trained alone with its seed.
        ds = D.gen_rn_preset("R_2", rows=120, noise_std=0.01, seed=4)
        trainval, _ = D.split(ds, 0.1, 0)
        tr, va = D.split(trainval, 0.1, 1)
        arch = N.Architecture(2, 7, 1, (5,), (5,), (10,))
        config = quick_config(max_epochs=25)
        seeds = [9, 10, 11]
        for seed, (net, history) in zip(seeds, N.train_stack(tr, va, [arch] * 3, config, seeds)):
            ref_params, ref_history = reference_train(tr, va, arch, replace(config, seed=seed))
            assert history == ref_history and len(history) == 25
            assert all(np.array_equal(p, r) for p, r in zip(split_like(net, net.flat), ref_params))


# ---------------------------------------------------------------------------
# Lockstep training: a stack of seeds gives each model the bits it gets alone.
# ---------------------------------------------------------------------------


class TestLockstep:
    @pytest.mark.parametrize(
        "arch",
        [
            N.Architecture(2, 7, 0, (5,), (5,), (10,)),
            N.Architecture(2, 7, 2, (5,), (5,), (10,)),
            N.Architecture(2, 7, 2, (6, 4), (5,), (10,)),
        ],
        ids=["k0", "k2", "two-layer-secret"],
    )
    def test_stack_equals_one_at_a_time(self, arch):
        ds = D.gen_rn_preset("R_2", rows=200, noise_std=0.02, seed=4)
        tr, va = D.split(ds, 0.1, 0)
        config = quick_config(learning_rate=0.02, ste_clip=4.0, max_epochs=60, patience=5)
        seeds = [1, 2, 3]
        stacked = N.train_stack(tr, va, [arch] * 3, config, seeds)
        epochs = [len(history) for _, history in stacked]
        # Members stop at different epochs, so the stack shrinks mid-run.
        assert len(set(epochs)) > 1 and min(epochs) < config.max_epochs
        for seed, (net, history) in zip(seeds, stacked):
            alone, alone_history = N.train(tr, va, arch, replace(config, seed=seed))
            assert net.seed == seed
            assert np.array_equal(net.flat, alone.flat)
            assert history == alone_history
            assert net.metrics == alone.metrics

    def test_metrics_describe_the_saved_weights(self):
        # The saved weights are each model's best-validation snapshot, so its
        # metrics are that epoch's SSEs, also for a model stopped by patience.
        ds = D.gen_rn_preset("R_2", rows=200, noise_std=0.02, seed=4)
        tr, va = D.split(ds, 0.1, 0)
        config = quick_config(learning_rate=0.02, ste_clip=4.0, max_epochs=60, patience=5)
        stacked = N.train_stack(tr, va, [N.Architecture(2, 7, 2, (5,), (5,), (10,))] * 3, config, [1, 2, 3])
        assert any(net.metrics["epochs"] < config.max_epochs for net, _ in stacked)
        for net, history in stacked:
            metrics = net.metrics
            assert metrics["epochs"] == len(history) and metrics["best_epoch"] < len(history) - 1
            assert history[metrics["best_epoch"]] == metrics["valid_sse"] == N.sse(net, va)
            assert metrics["train_sse"] == N.sse(net, tr)

    def test_one_sse_pass_per_epoch(self, monkeypatch):
        # Early stopping reads only the validation SSE: each epoch makes one
        # SSE pass, over the validation rows and the whole stack, and the
        # training rows are passed over once per kept model, at the end.
        ds = D.gen_rn_preset("R_2", rows=200, noise_std=0.02, seed=4)
        tr, va = D.split(ds, 0.1, 0)
        config = quick_config(learning_rate=0.02, ste_clip=4.0, max_epochs=60, patience=5)
        real_sse = N._sse_arrays
        calls = []

        def counted_sse(stack, xn, yn, tn, ws=None):
            calls.append((len(tn), len(stack.archs)))
            return real_sse(stack, xn, yn, tn, ws)

        monkeypatch.setattr(N, "_sse_arrays", counted_sse)
        archs = [N.Architecture(2, 7, k, (5,), (5,), (10,)) for k in (0, 1, 2, 2)]
        stacked = N.train_stack(tr, va, archs, config, [1, 2, 3, 4])
        epochs = [len(history) for _, history in stacked]
        assert len(set(epochs)) > 1 and tr.n_rows != va.n_rows
        valid, final = calls[: max(epochs)], calls[max(epochs) :]
        assert [rows for rows, _ in valid] == [va.n_rows] * max(epochs)
        assert [models for _, models in valid] == [sum(e > epoch for e in epochs) for epoch in range(max(epochs))]
        assert final == [(tr.n_rows, 1)] * len(archs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the poisoned model overflows
    def test_divergence_names_epoch_and_seed(self, monkeypatch):
        ds = D.gen_rn_preset("R_2", rows=120, noise_std=0.01, seed=4)
        tr, va = D.split(ds, 0.1, 0)
        config = quick_config(max_epochs=10)
        n_batches = -(-tr.n_rows // config.batch_size)
        real_step = N.adam_step
        arch = N.Architecture(2, 7, 1, (5,), (5,), (10,))
        second = N.Stack([arch] * 3).owner == 1

        def poisoned_step(params, grads, state, cfg):
            real_step(params, grads, state, cfg)
            if state.step == 2 * n_batches + 1:  # first step of epoch 2
                params[second] = np.nan  # the stack's second model
            return state

        monkeypatch.setattr(N, "adam_step", poisoned_step)
        with pytest.raises(N.NonFiniteLoss, match="epoch 2") as info:
            N.train_stack(tr, va, [arch] * 3, config, [5, 6, 7])
        assert info.value.epoch == 2 and info.value.seed == 6


class TestSweepStack:
    """One stack over several k: layers grouped by shape, none padded."""

    @pytest.mark.parametrize(
        "widths",
        [((6, 4), (5,), (10,)), ((6, 4), (), (10,)), ((), (5,), ())],
        ids=["hidden-everywhere", "no-public-hidden", "no-secret-or-joint-hidden"],
    )
    def test_every_model_equals_training_alone(self, widths):
        # Without public hidden layers the public output is a copy of the
        # input; without joint hidden layers the first joint layer is the
        # output layer.
        ds = D.gen_rn_preset("R_2", rows=200, noise_std=0.02, seed=4)
        tr, va = D.split(ds, 0.1, 0)
        config = quick_config(learning_rate=0.02, ste_clip=4.0, max_epochs=60, patience=5)
        # Given out of k order; results come back in the order given.
        pairs = [(2, 31), (0, 32), (1, 33), (2, 34), (0, 35), (1, 36)]
        archs = [N.Architecture(2, 7, k, *widths) for k, _ in pairs]
        stacked = N.train_stack(tr, va, archs, config, [seed for _, seed in pairs])
        epochs = {(k, seed): len(history) for (k, seed), (_, history) in zip(pairs, stacked)}
        # Members stop at different epochs, and a whole run of one k leaves
        # while others train on, so groups and runs shrink mid-run.
        last_by_k = {k: max(e for (kk, _), e in epochs.items() if kk == k) for k in (0, 1, 2)}
        assert len(set(epochs.values())) > 2 and len(set(last_by_k.values())) > 1
        for arch, (k, seed), (net, history) in zip(archs, pairs, stacked):
            alone, alone_history = N.train(tr, va, arch, replace(config, seed=seed))
            assert net.k == k and net.seed == seed
            assert np.array_equal(net.flat, alone.flat)
            assert history == alone_history
            assert net.metrics == alone.metrics

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the poisoned models overflow
    @pytest.mark.parametrize(
        "poisons, applied, reported",
        [
            # epoch -> (k, which model of that k): its weights turn NaN at
            # the first step of the epoch.
            ({1: (2, 1), 3: (1, 1)}, [14, 12], (1, 3, 12)),
            ({1: (1, 1), 3: (2, 1)}, [12], (1, 1, 12)),
        ],
        ids=["larger-k-first", "smaller-k-first"],
    )
    def test_divergence_reports_the_smallest_failing_k(self, monkeypatch, poisons, applied, reported):
        # Trained one k after another, the smallest k that fails is the one
        # reported, at the epoch and seed where it fails. In lockstep a
        # failing k leaves the stack with every larger k, the smaller k
        # train on, and the error names the smallest k that failed.
        ds = D.gen_rn_preset("R_2", rows=120, noise_std=0.01, seed=4)
        tr, va = D.split(ds, 0.1, 0)
        config = quick_config(max_epochs=8)
        n_batches = -(-tr.n_rows // config.batch_size)
        archs = [N.Architecture(2, 7, k, (5,), (5,), (10,)) for k in (0, 1, 1, 2, 2)]
        seeds = [10, 11, 12, 13, 14]
        real = N.loss_and_gradients
        steps, poisoned = [], []

        def poisoned_step(stack, batch, ste_clip, ws):
            epoch, step = divmod(len(steps), n_batches)
            steps.append(epoch)
            rows = [row for row, a in enumerate(stack.archs) if a.k == poisons.get(epoch, (None,))[0]]
            if step == 0 and rows:
                row = rows[poisons[epoch][1]]
                stack.flat[stack.owner == row] = np.nan
                poisoned.append(seeds[archs.index(stack.archs[row]) + poisons[epoch][1]])
            return real(stack, batch, ste_clip, ws)

        monkeypatch.setattr(N, "loss_and_gradients", poisoned_step)
        with pytest.raises(N.NonFiniteLoss, match=f"loss diverged at epoch {reported[1]}") as info:
            N.train_stack(tr, va, archs, config, seeds)
        assert poisoned == applied
        assert (info.value.k, info.value.epoch, info.value.seed) == reported
        assert steps[-1] == config.max_epochs - 1  # the smaller k trained on to the end

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the poisoned model overflows
    def test_sse_divergence_names_k_epoch_and_seed(self, monkeypatch):
        # Poisoned after the last step of an epoch, a model has a finite loss
        # at every step of that epoch, and its SSE is the first value to fail.
        ds = D.gen_rn_preset("R_2", rows=120, noise_std=0.01, seed=4)
        tr, va = D.split(ds, 0.1, 0)
        config = quick_config(max_epochs=6)
        n_batches = -(-tr.n_rows // config.batch_size)
        archs = [N.Architecture(2, 7, k, (5,), (5,), (10,)) for k in (0, 1, 1, 2)]
        second_k1 = N.Stack(archs).owner == 2
        real_step = N.adam_step

        def poisoned_step(params, grads, state, cfg):
            real_step(params, grads, state, cfg)
            if state.step == 3 * n_batches:  # the last step of epoch 2
                params[second_k1] = np.nan
            return state

        monkeypatch.setattr(N, "adam_step", poisoned_step)
        with pytest.raises(N.NonFiniteLoss, match="^SSE diverged at epoch 2$") as info:
            N.train_stack(tr, va, archs, config, [10, 11, 12, 13])
        assert (info.value.k, info.value.epoch, info.value.seed) == (1, 2, 12)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_kept_snapshot_training_sse_divergence(self, monkeypatch, value):
        # The training rows are passed over once, at the end, with each kept
        # snapshot. Where that SSE is not finite, the smallest such k is
        # reported at its model's best epoch, with its seed.
        ds = D.gen_rn_preset("R_2", rows=120, noise_std=0.01, seed=4)
        tr, va = D.split(ds, 0.1, 0)
        config = quick_config(learning_rate=0.02, ste_clip=4.0, max_epochs=30, patience=3)
        archs = [N.Architecture(2, 7, k, (5,), (5,), (10,)) for k in (2, 0, 1, 1)]
        seeds = [10, 11, 12, 13]
        trained = N.train_stack(tr, va, archs, config, seeds)
        # The second k = 1 model and the k = 2 model; the k = 2 model is given first.
        poisoned = [trained[i][0].flat for i in (0, 3)]
        real_sse = N._sse_arrays

        def poisoned_sse(stack, xn, yn, tn, ws=None):
            sse = real_sse(stack, xn, yn, tn, ws)
            if len(tn) == tr.n_rows and any(np.array_equal(stack.flat, flat) for flat in poisoned):
                sse[...] = value
            return sse

        monkeypatch.setattr(N, "_sse_arrays", poisoned_sse)
        epoch = trained[3][0].metrics["best_epoch"]
        assert epoch != trained[0][0].metrics["best_epoch"]
        with pytest.raises(N.NonFiniteLoss, match=f"^SSE diverged at epoch {epoch}$") as info:
            N.train_stack(tr, va, archs, config, seeds)
        assert (info.value.k, info.value.epoch, info.value.seed) == (1, epoch, 13)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the poisoned models overflow
    def test_divergence_equals_training_each_width_alone(self, monkeypatch):
        # Seeded random schedules poison models with NaN or infinity before a
        # step or just before the SSE pass. The whole sweep as one stack and
        # each width trained alone, in increasing k up to the first that
        # fails, must end in the same error or return the same models.
        ds = D.gen_rn_preset("R_2", rows=120, noise_std=0.01, seed=4)
        tr, va = D.split(ds, 0.1, 0)
        config = quick_config(learning_rate=0.02, ste_clip=4.0, max_epochs=8, patience=3)
        n_batches = -(-tr.n_rows // config.batch_size)
        pairs = [(0, 20), (1, 21), (1, 22), (2, 23), (2, 24), (3, 25)]
        archs = [N.Architecture(2, 7, k, (5,), (5,), (10,)) for k, _ in pairs]
        real_loss, real_step = N.loss_and_gradients, N.adam_step

        def run(schedule, indices):
            """`train_stack` on the pairs at `indices`, or the error it raises.
            A poison (epoch, step, k, r, value) sets every parameter of the
            r-th model of k, among those whose parameters are all finite, to
            `value` before that step of that epoch; step `n_batches` is the
            SSE pass."""
            stacks = []

            def poison(stack, epoch, step):
                for k, r, value in (p[2:] for p in schedule if p[:2] == (epoch, step)):
                    finite = [row for row, a in enumerate(stack.archs)
                              if a.k == k and np.isfinite(stack.flat[stack.owner == row]).all()]
                    if r < len(finite):
                        stack.flat[stack.owner == finite[r]] = value

            def loss_and_gradients(stack, batch, ste_clip, ws):
                poison(stack, *divmod(len(stacks), n_batches))
                stacks.append(stack)
                return real_loss(stack, batch, ste_clip, ws)

            def adam_step(params, grads, state, cfg):
                real_step(params, grads, state, cfg)
                epoch, step = divmod(len(stacks), n_batches)
                if step == 0:  # after the last step of an epoch
                    poison(stacks[-1], epoch - 1, n_batches)
                return state

            monkeypatch.setattr(N, "loss_and_gradients", loss_and_gradients)
            monkeypatch.setattr(N, "adam_step", adam_step)
            try:
                return N.train_stack(tr, va, [archs[i] for i in indices], config, [pairs[i][1] for i in indices])
            except N.NonFiniteLoss as exc:
                return exc

        outcomes = []
        for trial in range(16):
            rng = np.random.default_rng([11, trial])
            schedule = [
                (int(rng.integers(config.max_epochs)), int(rng.choice([rng.integers(n_batches), n_batches])),
                 int(rng.integers(4)), int(rng.integers(2)), float(rng.choice([np.nan, np.inf, -np.inf])))
                for _ in range(rng.integers(1, 4))
            ]
            stacked = run(schedule, range(len(pairs)))
            alone = []
            for k in range(4):
                result = run(schedule, [i for i, (kk, _) in enumerate(pairs) if kk == k])
                if isinstance(result, N.NonFiniteLoss):
                    alone = result
                    break
                alone += result
            if isinstance(alone, N.NonFiniteLoss):
                assert isinstance(stacked, N.NonFiniteLoss), schedule
                got, want = ((str(e), e.k, e.epoch, e.seed) for e in (stacked, alone))
                assert got == want, schedule
                outcomes.append(str(alone).split()[0])
                continue
            assert isinstance(stacked, list), schedule
            for (net, history), (net_alone, history_alone) in zip(stacked, alone):
                assert np.array_equal(net.flat, net_alone.flat) and history == history_alone, schedule
                assert net.metrics == net_alone.metrics, schedule
            outcomes.append("none")
        # The schedules reach both places a model can fail, and no failure.
        assert {"loss", "SSE", "none"} <= set(outcomes)

    def test_architectures_must_differ_only_in_k(self):
        ds = D.gen_rn_preset("R_2", rows=60, noise_std=0.0, seed=0)
        tr, va = D.split(ds, 0.2, 0)
        archs = [N.Architecture(2, 7, 1, (5,), (5,), (10,)), N.Architecture(2, 7, 2, (6,), (5,), (10,))]
        with pytest.raises(N.NetworkError, match="^stacked models must differ only in k and come in ascending k$"):
            N.train_stack(tr, va, archs, quick_config(), [1, 2])

    def test_one_model_stack_is_the_model_layout(self):
        # A one-model stack's role arrays, model axis dropped, are the model's
        # own layer views, in canonical order.
        net = N.init(N.Architecture(2, 7, 2, (6, 4), (5,), (10,)), seed=3)
        stack = net.stack
        assert stack.flat is net.flat and np.all(stack.owner == 0)
        (first_weights, first_bias), *rest = stack.joint
        roles = [*stack.secret, *stack.iface, *stack.public, (first_weights[0], first_bias), *rest]
        arrays = [a[0] for layer in roles for a in layer]
        views = split_like(net, net.flat)
        assert len(arrays) == len(views)
        assert all(a.shape == v.shape and a.ctypes.data == v.ctypes.data for a, v in zip(arrays, views))


# ---------------------------------------------------------------------------
# Workspaces: training reuses its evaluation arrays from pass to pass.
# ---------------------------------------------------------------------------


def arrays_in(obj):
    """Every array held in `obj`, through lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from arrays_in(item)


def stack_predictions(stack, xn, yn, ws=None):
    """Predictions and interface bits of a stack whose models share one k, on
    the same (rows, d) inputs, evaluated in `ws` when given."""
    lead = (len(stack.archs),)
    ws = N._forward_cache(stack, np.broadcast_to(xn, lead + xn.shape), np.broadcast_to(yn, lead + yn.shape), ws)
    return ws.t_hat, np.concatenate(ws.bits)


class TestWorkspace:
    def test_reused_workspaces_equal_fresh_allocation(self, monkeypatch):
        # Every SSE pass of the training loop runs in a workspace that earlier
        # epochs (other weights) wrote, and the workspaces are rebuilt when
        # the stack shrinks. Each pass must equal one in new arrays.
        ds = D.gen_rn_preset("R_2", rows=200, noise_std=0.02, seed=4)
        tr, va = D.split(ds, 0.1, 0)
        config = quick_config(learning_rate=0.02, ste_clip=4.0, max_epochs=60, patience=5)
        real_sse = N._sse_arrays
        bits_seen: dict[tuple[int, int], set[bytes]] = {}

        def checked_sse(net, xn, yn, tn, ws=None):
            t_reused, bits_reused = (a.copy() for a in stack_predictions(net, xn, yn, ws))
            t_fresh, bits_fresh = stack_predictions(net, xn, yn)
            assert np.array_equal(t_reused, t_fresh) and np.array_equal(bits_reused, bits_fresh)
            sse = real_sse(net, xn, yn, tn, ws)
            assert np.array_equal(sse, real_sse(net, xn, yn, tn))
            bits_seen.setdefault(bits_fresh.shape[:2], set()).add(bits_fresh.tobytes())
            return sse

        monkeypatch.setattr(N, "_sse_arrays", checked_sse)
        N.train_stack(tr, va, [N.Architecture(2, 7, 2, (5,), (5,), (10,))] * 3, config, [1, 2, 3])
        stack_sizes = {models for models, _ in bits_seen}
        assert len(stack_sizes) > 1  # the stack shrank
        assert any(len(states) > 1 for states in bits_seen.values())  # the bits moved between passes

    def test_bound_step_on_every_layer_shape(self, monkeypatch):
        # k = 0 rows first, two secret layers, no public hidden layer and two
        # joint hidden layers. On the full and the short last batch, before
        # and after the stack shrinks, each model's loss and gradients equal
        # the per-array reference bit for bit, and the workspaces rebuilt
        # for a smaller stack bind none of the old stack's parameters.
        ds = D.gen_rn_preset("R_2", rows=220, noise_std=0.02, seed=4)
        tr, va = D.split(ds, 0.1, 0)
        archs = [N.Architecture(2, 7, k, (6, 4), (), (8, 5)) for k in (0, 0, 1, 2, 2)]
        config = quick_config(learning_rate=0.02, ste_clip=1.0, max_epochs=40, patience=3)
        real = N.loss_and_gradients
        checked, flats = set(), []

        def checked_step(stack, batch, ste_clip, ws):
            if not flats or flats[-1] is not stack.flat:
                held = list(arrays_in(list(vars(ws).values())))
                assert not any(np.shares_memory(a, old) for a in held for old in flats)
                flats.append(stack.flat)
            loss, grad = real(stack, batch, ste_clip, ws)
            shape = (len(stack.archs), batch[2].shape[1])
            if shape not in checked:
                checked.add(shape)
                for row, arch in enumerate(stack.archs):
                    mine = stack.owner == row
                    net = N.TriBranchNetwork(arch, stack.flat[mine].copy())
                    ref_loss, ref_grads = reference_loss_and_gradients(LooseNet(net), tuple(a[row] for a in batch), ste_clip)
                    assert loss[row] == ref_loss
                    assert all(g.tobytes() == r.tobytes() for g, r in zip(split_like(net, grad[mine]), ref_grads))
            return loss, grad

        monkeypatch.setattr(N, "loss_and_gradients", checked_step)
        N.train_stack(tr, va, archs, config, [1, 2, 3, 4, 5])
        assert {rows for _, rows in checked} == {32, tr.n_rows % 32} and tr.n_rows % 32
        assert len({models for models, _ in checked}) > 1  # the stack shrank
