"""Three-branch feedforward ReLU model of execution time.

The secret branch ends in a k-bit hard-threshold interface; the joint branch
reads only those k bits plus the public branch output, so the predicted time
depends on the secret input solely through the interface valuation. Training
uses mini-batch Adam with a straight-through surrogate gradient at the
threshold. The seeds of one architecture train together as one stacked
network whose parameters are an (M, P) matrix, one row per model; each
model gets the same bits it would get training alone.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import (
    FeatureSchema,
    Normalizer,
    TraceDataset,
    fit_normalizer,
    normalizer_from_json,
    normalizer_to_json,
    schema_from_json,
    schema_to_json,
)

MODEL_FORMAT = "timeleak-model"
MODEL_VERSION = 1


class NetworkError(Exception):
    pass


class DimensionMismatch(NetworkError):
    pass


class NonFiniteLoss(NetworkError):
    def __init__(self, message: str, epoch: int | None = None, seed: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.seed = seed


class ModelFormatError(NetworkError):
    pass


class SchemaVersionMismatch(ModelFormatError):
    pass


@dataclass(frozen=True)
class Architecture:
    """Branch widths: secret hidden stack, k-bit interface, public stack, joint stack."""

    n_secret: int
    n_public: int
    k: int
    secret_widths: tuple[int, ...] = ()
    public_widths: tuple[int, ...] = ()
    joint_widths: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "secret_widths", tuple(self.secret_widths))
        object.__setattr__(self, "public_widths", tuple(self.public_widths))
        object.__setattr__(self, "joint_widths", tuple(self.joint_widths))
        if self.k < 0:
            raise DimensionMismatch("interface width k must be >= 0")
        if self.n_secret < 0 or self.n_public < 0 or (self.n_secret == 0 and self.n_public == 0):
            raise DimensionMismatch("need at least one input feature")
        if self.k > 0 and self.n_secret == 0:
            raise DimensionMismatch("a k >= 1 interface needs secret features")
        for w in self.secret_widths + self.public_widths + self.joint_widths:
            if w < 1:
                raise DimensionMismatch("hidden widths must be >= 1")

    @property
    def public_out_dim(self) -> int:
        return self.public_widths[-1] if self.public_widths else self.n_public

    @property
    def joint_in_dim(self) -> int:
        return self.k + self.public_out_dim


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    batch_size: int = 32
    max_epochs: int = 2000
    patience: int = 20
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    seed: int = 0
    ste_clip: float = 1.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise NetworkError("learning_rate must be positive")
        if self.patience < 1:
            raise NetworkError("patience must be >= 1")
        if self.ste_clip <= 0:
            raise NetworkError("ste_clip must be positive")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise NetworkError("batch_size and max_epochs must be >= 1")
        if self.seed < 0:
            raise NetworkError("seed must be non-negative")


Layer = tuple[np.ndarray, np.ndarray]  # weight (out, in), bias (out,)


@functools.lru_cache(maxsize=64)
def _layout(arch: Architecture) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """(out, in, offset) of every layer in canonical order (secret stack,
    interface, public stack, joint stack, output; a k=0 model has no secret
    branch) and the total parameter count. Each layer stores its weight
    row-major, then its bias."""
    shapes: list[tuple[int, int]] = []

    def stack(d: int, widths: tuple[int, ...]) -> int:
        for w_out in widths:
            shapes.append((w_out, d))
            d = w_out
        return d

    if arch.k > 0:
        shapes.append((arch.k, stack(arch.n_secret, arch.secret_widths)))
    stack(arch.n_public, arch.public_widths)
    shapes.append((1, stack(arch.joint_in_dim, arch.joint_widths)))
    layout, at = [], 0
    for n_out, n_in in shapes:
        layout.append((n_out, n_in, at))
        at += n_out * (n_in + 1)
    return tuple(layout), at


def parameter_count(arch: Architecture) -> int:
    return _layout(arch)[1]


def layer_views(arch: Architecture, vec: np.ndarray) -> list[Layer]:
    """Weight/bias views into a vector laid out like `TriBranchNetwork.flat`;
    for an (M, P) matrix of such rows the views lead with the model axis."""
    lead = vec.shape[:-1]
    return [
        (vec[..., at : at + n_out * n_in].reshape(*lead, n_out, n_in), vec[..., at + n_out * n_in : at + n_out * (n_in + 1)])
        for n_out, n_in, at in _layout(arch)[0]
    ]


def _branches(arch: Architecture, layers: list[Layer]):
    """Split canonical-order layers into (secret, iface, public, joint, out)."""
    n_sec = len(arch.secret_widths) if arch.k > 0 else 0
    n_front = n_sec + (arch.k > 0)
    n_pub = len(arch.public_widths)
    iface = layers[n_sec] if arch.k > 0 else None
    return layers[:n_sec], iface, layers[n_front : n_front + n_pub], layers[n_front + n_pub : -1], layers[-1]


@dataclass(eq=False)
class TriBranchNetwork:
    """Every weight and bias lives in one contiguous float64 vector, `flat`;
    the layer attributes are views into it, so an in-place edit of either is
    seen by both. A stack of M models of one architecture has an (M, P)
    `flat`, one row per model, and layer views with a leading model axis;
    forward and backward passes then take (M, rows, d) batches."""

    arch: Architecture
    flat: np.ndarray
    normalizer: Normalizer | None = None
    schema: FeatureSchema | None = None
    seed: int = 0
    metrics: dict | None = None
    secret_layers: list[Layer] = field(init=False)
    iface: Layer | None = field(init=False)
    public_layers: list[Layer] = field(init=False)
    joint_layers: list[Layer] = field(init=False)
    out_layer: Layer = field(init=False)

    def __post_init__(self):
        if self.flat.ndim not in (1, 2) or self.flat.shape[-1] != parameter_count(self.arch) or self.flat.dtype != np.float64:
            raise DimensionMismatch("parameter vector does not match the architecture")
        self.secret_layers, self.iface, self.public_layers, self.joint_layers, self.out_layer = _branches(
            self.arch, layer_views(self.arch, self.flat)
        )

    @property
    def k(self) -> int:
        return self.arch.k


def init(arch: Architecture, seed: int) -> TriBranchNetwork:
    """He-style uniform fan-in initialization with zero biases; deterministic per seed."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(parameter_count(arch))
    for w, _ in layer_views(arch, flat):
        limit = np.sqrt(6.0 / max(w.shape[1], 1))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return TriBranchNetwork(arch, flat, seed=seed)


def _affine(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """h @ w.T + b, per model for a stack's (M, rows, d) activations."""
    return h @ w.swapaxes(-1, -2) + b[..., None, :]


def _forward_cache(net: TriBranchNetwork, xn: np.ndarray, yn: np.ndarray) -> dict:
    cache: dict = {}

    if net.k > 0:
        h = xn
        sec_in, sec_z = [], []
        for w, b in net.secret_layers:
            sec_in.append(h)
            z = _affine(h, w, b)
            sec_z.append(z)
            h = np.maximum(z, 0.0)
        preact = _affine(h, *net.iface)
        bits = (preact >= 0).astype(np.float64)
        cache.update(sec_in=sec_in, sec_z=sec_z, sec_out=h, iface_preact=preact)
    else:
        bits = np.zeros((*(yn if net.arch.n_public else xn).shape[:-1], 0))

    h = yn
    pub_in, pub_z = [], []
    for w, b in net.public_layers:
        pub_in.append(h)
        z = _affine(h, w, b)
        pub_z.append(z)
        h = np.maximum(z, 0.0)
    cache.update(pub_in=pub_in, pub_z=pub_z, pub_out=h)

    h = np.concatenate([bits, h], axis=-1) if net.k > 0 else h
    joint_in, joint_z = [], []
    for w, b in net.joint_layers:
        joint_in.append(h)
        z = _affine(h, w, b)
        joint_z.append(z)
        h = np.maximum(z, 0.0)
    t_hat = _affine(h, *net.out_layer)[..., 0]
    cache.update(joint_in=joint_in, joint_z=joint_z, joint_out=h, bits=bits, t_hat=t_hat)
    return cache


def predict_batch(net: TriBranchNetwork, xn: np.ndarray, yn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized predictions and interface bits for batches of normalized
    inputs; a stack gives every model the same (rows, d) inputs."""
    if xn.shape[-1] != net.arch.n_secret or yn.shape[-1] != net.arch.n_public:
        raise DimensionMismatch(
            f"expected {net.arch.n_secret} secret / {net.arch.n_public} public features, "
            f"got {xn.shape[-1]} / {yn.shape[-1]}"
        )
    lead = net.out_layer[0].shape[:-2]  # (M,) for a stack
    cache = _forward_cache(net, np.broadcast_to(xn, (*lead, *xn.shape)), np.broadcast_to(yn, (*lead, *yn.shape)))
    return cache["t_hat"], cache["bits"].astype(np.int64)


def _put_gradient(grad: Layer, dz: np.ndarray, h_in: np.ndarray) -> None:
    """Write one layer's weight and bias gradients into their slots."""
    np.matmul(dz.swapaxes(-1, -2), h_in, out=grad[0])
    dz.sum(axis=-2, out=grad[1])


def loss_and_gradients(
    net: TriBranchNetwork,
    batch: tuple[np.ndarray, np.ndarray, np.ndarray],
    ste_clip: float = 1.0,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean squared error over a normalized batch plus reverse-mode gradients.

    The gradient is laid out like `net.flat`. A stack takes (M, rows, d)
    batches, one per model, and returns one loss per model. The loss is not
    checked here: a non-finite loss gives non-finite gradients. At the
    interface threshold the backward pass uses the straight-through
    surrogate: the incoming gradient passes unchanged where the
    pre-activation magnitude is at most `ste_clip` and is zeroed elsewhere.
    """
    xn, yn, tn = batch
    rows = tn.shape[-1]
    if rows == 0:
        raise NetworkError("batch must be non-empty")
    cache = _forward_cache(net, xn, yn)
    resid = cache["t_hat"] - tn
    loss = np.mean(resid**2, axis=-1)

    # Every slot is written below, so the buffer needs no zeroing.
    grad = np.empty_like(net.flat)
    g_secret, g_iface, g_public, g_joint, g_out = _branches(net.arch, layer_views(net.arch, grad))
    dz = (2.0 / rows) * resid[..., None]
    _put_gradient(g_out, dz, cache["joint_out"])
    dh = dz @ net.out_layer[0]
    for (w, _), g, h_in, z in zip(
        reversed(net.joint_layers), reversed(g_joint), reversed(cache["joint_in"]), reversed(cache["joint_z"])
    ):
        dz = dh * (z > 0)
        _put_gradient(g, dz, h_in)
        dh = dz @ w

    k = net.k
    dbits, dpub = dh[..., :k], dh[..., k:]

    if k > 0:
        preact = cache["iface_preact"]
        da = dbits * (np.abs(preact) <= ste_clip)
        _put_gradient(g_iface, da, cache["sec_out"])
        dh_s = da @ net.iface[0]
        for (w, _), g, h_in, z in zip(
            reversed(net.secret_layers), reversed(g_secret), reversed(cache["sec_in"]), reversed(cache["sec_z"])
        ):
            dz = dh_s * (z > 0)
            _put_gradient(g, dz, h_in)
            dh_s = dz @ w

    dh_p = dpub
    for (w, _), g, h_in, z in zip(
        reversed(net.public_layers), reversed(g_public), reversed(cache["pub_in"]), reversed(cache["pub_z"])
    ):
        dz = dh_p * (z > 0)
        _put_gradient(g, dz, h_in)
        dh_p = dz @ w

    return loss, grad


@dataclass
class AdamState:
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    config: TrainConfig,
) -> AdamState:
    """One bias-corrected Adam update, in place, of a parameter vector or of
    a stack's matrix (its models always share the step count)."""
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    m, v = state.m, state.v
    m *= b1
    m += (1 - b1) * grads
    v *= b2
    v += (1 - b2) * grads**2
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    params -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps_adam)
    return state


def _normalized_arrays(net_norm: Normalizer, ds: TraceDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return net_norm.map_secrets(ds.x), net_norm.map_publics(ds.y), net_norm.map_time(ds.t)


def _sse_arrays(net: TriBranchNetwork, xn, yn, tn):
    """SSE of one model, or the (M,) SSEs of a stack."""
    t_hat, _ = predict_batch(net, xn, yn)
    return np.sum((t_hat - tn) ** 2, axis=-1)


def train(
    ds_train: TraceDataset,
    ds_valid: TraceDataset,
    arch: Architecture,
    config: TrainConfig,
) -> tuple[TriBranchNetwork, list[tuple[float, float]]]:
    """Mini-batch Adam training; early-stops on validation SSE and returns the
    best-validation snapshot plus the per-epoch (train SSE, valid SSE) history."""
    return train_stack(ds_train, ds_valid, arch, config, [config.seed])[0]


def train_stack(
    ds_train: TraceDataset,
    ds_valid: TraceDataset,
    arch: Architecture,
    config: TrainConfig,
    seeds: list[int],
) -> list[tuple[TriBranchNetwork, list[tuple[float, float]]]]:
    """Train one model per seed in lockstep, as one stacked network, and
    return `train`'s (model, history) for each seed, in seed order.

    Every model draws its own batch order and early-stops on its own; a
    stopped model leaves the stack with its best-validation snapshot. The
    stacked operations act on each model's slice exactly as on one model's
    arrays, so each result is bit for bit what `train` gives that seed.
    `config.seed` is not used.
    """
    if ds_train.schema != ds_valid.schema:
        raise DimensionMismatch("train and validation datasets must share a schema")
    if arch.n_secret != ds_train.schema.n_secret or arch.n_public != ds_train.schema.n_public:
        raise DimensionMismatch("architecture input dims do not match the schema")
    if not seeds:
        raise NetworkError("need at least one seed")

    norm = fit_normalizer(ds_train)
    xtr, ytr, ttr = _normalized_arrays(norm, ds_train)
    xva, yva, tva = _normalized_arrays(norm, ds_valid)

    nets = [init(arch, seed) for seed in seeds]
    for net in nets:
        net.normalizer = norm
        net.schema = ds_train.schema
    # The stack keeps its layer views until a model stops and its row goes.
    stack = TriBranchNetwork(arch, np.stack([net.flat for net in nets]))
    state = AdamState()

    n = ds_train.n_rows
    live = np.arange(len(seeds))  # the model behind each stack row
    histories: list[list[tuple[float, float]]] = [[] for _ in seeds]
    best_valid = np.full(len(seeds), np.inf)
    best_snapshot = stack.flat.copy()
    stall = np.zeros(len(seeds), dtype=np.int64)

    def check_finite(what: str, epoch: int, finite: np.ndarray) -> None:
        if not finite.all():
            raise NonFiniteLoss(f"{what} diverged at epoch {epoch}", epoch, seeds[live[np.argmin(finite)]])

    for epoch in range(config.max_epochs):
        order = np.stack([np.random.default_rng([seeds[i], epoch]).permutation(n) for i in live])
        for start in range(0, n, config.batch_size):
            idx = order[:, start : start + config.batch_size]
            loss, grads = loss_and_gradients(stack, (xtr[idx], ytr[idx], ttr[idx]), config.ste_clip)
            check_finite("loss", epoch, np.isfinite(loss))
            adam_step(stack.flat, grads, state, config)

        train_sse = _sse_arrays(stack, xtr, ytr, ttr)
        valid_sse = _sse_arrays(stack, xva, yva, tva)
        check_finite("SSE", epoch, np.isfinite(train_sse) & np.isfinite(valid_sse))
        for i, tr_sse, va_sse in zip(live, train_sse.tolist(), valid_sse.tolist()):
            histories[i].append((tr_sse, va_sse))

        improved = valid_sse < best_valid[live] - 1e-12
        best_valid[live[improved]] = valid_sse[improved]
        best_snapshot[live[improved]] = stack.flat[improved]
        stall[live] = np.where(improved, 0, stall[live] + 1)
        keep = stall[live] < config.patience
        if not keep.all():
            if not keep.any():
                break
            live = live[keep]
            stack = TriBranchNetwork(arch, stack.flat[keep])
            state.m, state.v = state.m[keep], state.v[keep]

    for net, snapshot, history, valid in zip(nets, best_snapshot, histories, best_valid.tolist()):
        net.flat[...] = snapshot
        net.metrics = {"epochs": len(history), "train_sse": history[-1][0], "valid_sse": valid}
    return list(zip(nets, histories))


def sse(net: TriBranchNetwork, ds: TraceDataset) -> float:
    """Sum of squared residuals on the normalized time scale."""
    if ds.n_rows == 0:
        raise NetworkError("dataset is empty")
    return float(_sse_arrays(net, *_normalized_arrays(net.normalizer, ds)))


def r2(net: TriBranchNetwork, ds: TraceDataset) -> float:
    """Coefficient of determination on the denormalized time scale."""
    if ds.n_rows == 0:
        raise NetworkError("dataset is empty")
    xn, yn, _ = _normalized_arrays(net.normalizer, ds)
    t_hat = net.normalizer.unmap_time(predict_batch(net, xn, yn)[0])
    ss_res = float(np.sum((ds.t - t_hat) ** 2))
    ss_tot = float(np.sum((ds.t - ds.t.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def max_abs_residual(net: TriBranchNetwork, ds: TraceDataset) -> float:
    """Largest absolute prediction error in raw time units (the infinity norm)."""
    if ds.n_rows == 0:
        raise NetworkError("dataset is empty")
    xn, yn, _ = _normalized_arrays(net.normalizer, ds)
    t_hat = net.normalizer.unmap_time(predict_batch(net, xn, yn)[0])
    return float(np.max(np.abs(ds.t - t_hat)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _layer_to_json(layer: Layer) -> dict:
    return {"w": layer[0].tolist(), "b": layer[1].tolist()}


def to_json(net: TriBranchNetwork) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "architecture": {
            "n_secret": net.arch.n_secret,
            "n_public": net.arch.n_public,
            "k": net.arch.k,
            "secret_widths": list(net.arch.secret_widths),
            "public_widths": list(net.arch.public_widths),
            "joint_widths": list(net.arch.joint_widths),
        },
        "weights": {
            "secret": [_layer_to_json(l) for l in net.secret_layers],
            "iface": _layer_to_json(net.iface) if net.iface is not None else None,
            "public": [_layer_to_json(l) for l in net.public_layers],
            "joint": [_layer_to_json(l) for l in net.joint_layers],
            "out": _layer_to_json(net.out_layer),
        },
        "normalizer": normalizer_to_json(net.normalizer) if net.normalizer else None,
        "schema": schema_to_json(net.schema) if net.schema else None,
        "seed": net.seed,
        "metrics": net.metrics,
    }


def from_json(obj: dict) -> TriBranchNetwork:
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise SchemaVersionMismatch("not a timeleak model file")
    if obj.get("version") != MODEL_VERSION:
        raise SchemaVersionMismatch(f"unsupported model version {obj.get('version')!r}")
    a = obj["architecture"]
    arch = Architecture(
        n_secret=a["n_secret"],
        n_public=a["n_public"],
        k=a["k"],
        secret_widths=tuple(a["secret_widths"]),
        public_widths=tuple(a["public_widths"]),
        joint_widths=tuple(a["joint_widths"]),
    )
    w = obj["weights"]
    stored = [*w["secret"], *([w["iface"]] if w["iface"] is not None else []), *w["public"], *w["joint"], w["out"]]
    flat = np.empty(parameter_count(arch))
    views = layer_views(arch, flat)
    if len(stored) != len(views):
        raise ModelFormatError("weights do not match the architecture")
    for (vw, vb), layer in zip(views, stored):
        lw = np.asarray(layer["w"], dtype=np.float64)
        lb = np.asarray(layer["b"], dtype=np.float64)
        if lw.shape != vw.shape or lb.shape != vb.shape:
            raise ModelFormatError("weights do not match the architecture")
        vw[...] = lw
        vb[...] = lb
    return TriBranchNetwork(
        arch,
        flat,
        normalizer=normalizer_from_json(obj["normalizer"]) if obj.get("normalizer") else None,
        schema=schema_from_json(obj["schema"]) if obj.get("schema") else None,
        seed=int(obj.get("seed", 0)),
        metrics=obj.get("metrics"),
    )


def save(net: TriBranchNetwork, path) -> None:
    from .jsonio import write_json

    write_json(path, to_json(net))


def load(path) -> TriBranchNetwork:
    try:
        text = Path(path).read_text(encoding="utf-8")
        obj = json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    return from_json(obj)
