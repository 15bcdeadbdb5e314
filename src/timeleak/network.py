"""Three-branch feedforward ReLU model of execution time.

The secret branch ends in a k-bit hard-threshold interface; the joint branch
reads only those k bits plus the public branch output, so the predicted time
depends on the secret input solely through the interface valuation. Training
uses mini-batch Adam with a straight-through surrogate gradient at the
threshold. Every model of a sweep, each k and each seed, trains in one
lockstep `Stack`: a layer role whose shape does not depend on k is one array
over all the models that have it, and the layers whose shape does (the
interface and the first joint weights) are one array per run of equal k.
Nothing is padded, so each model gets the same bits it would get training
alone.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataset import (
    DatasetError,
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
# A valuation of the k interface bits is an int64 in the counter.
MAX_K = 62


class NetworkError(Exception):
    pass


class DimensionMismatch(NetworkError):
    pass


class NonFiniteLoss(NetworkError):
    def __init__(self, message: str, epoch: int | None = None, seed: int | None = None, k: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.seed = seed
        self.k = k


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
    """Weight/bias views into a vector laid out like `TriBranchNetwork.flat`."""
    return [
        (vec[at : at + n_out * n_in].reshape(n_out, n_in), vec[at + n_out * n_in : at + n_out * (n_in + 1)])
        for n_out, n_in, at in _layout(arch)[0]
    ]


def _branches(arch: Architecture, layers: list[Layer]):
    """Split canonical-order layers into (secret, iface, public, joint, out)."""
    n_sec = len(arch.secret_widths) if arch.k > 0 else 0
    n_front = n_sec + (arch.k > 0)
    n_pub = len(arch.public_widths)
    iface = layers[n_sec] if arch.k > 0 else None
    return layers[:n_sec], iface, layers[n_front : n_front + n_pub], layers[n_front + n_pub : -1], layers[-1]


def _runs(archs: tuple[Architecture, ...]) -> tuple[tuple[int, int, int], ...]:
    """(k, first row, end row) of each run of equal k in a k-sorted model list."""
    runs, lo = [], 0
    for k, group in itertools.groupby(a.k for a in archs):
        hi = lo + sum(1 for _ in group)
        runs.append((k, lo, hi))
        lo = hi
    return tuple(runs)


def _stack_views(archs: tuple[Architecture, ...], vec: np.ndarray):
    """The role views of a buffer laid out like `Stack.flat` (secret, iface,
    public, joint), and every view paired with the stack row of its first
    model, in buffer order."""
    a, m, runs = archs[0], len(archs), _runs(archs)
    first_secret = 0 if runs[0][0] else runs[0][2]
    blocks: list[tuple[np.ndarray, int]] = []
    at = 0

    def take(first: int, *shape: int) -> np.ndarray:
        nonlocal at
        size = math.prod(shape)
        view = vec[at : at + size].reshape(shape)
        at += size
        blocks.append((view, first))
        return view

    def relu_stack(first: int, n: int, d: int, widths: tuple[int, ...]) -> tuple[list[Layer], int]:
        layers = []
        for w in widths:
            layers.append((take(first, n, w, d), take(first, n, w)))
            d = w
        return layers, d

    secret, iface = [], []
    if first_secret < m:
        secret, d = relu_stack(first_secret, m - first_secret, a.n_secret, a.secret_widths)
        secret_runs = [(k, lo, hi) for k, lo, hi in runs if k]
        weights = [take(lo, hi - lo, k, d) for k, lo, hi in secret_runs]
        iface = list(zip(weights, [take(lo, hi - lo, k) for k, lo, hi in secret_runs]))
    public, p = relu_stack(0, m, a.n_public, a.public_widths)
    widths = (*a.joint_widths, 1)
    first = ([take(lo, hi - lo, widths[0], k + p) for k, lo, hi in runs], take(0, m, widths[0]))
    rest, _ = relu_stack(0, m, widths[0], widths[1:])
    if at != vec.size:
        raise DimensionMismatch("parameter vector does not match the stacked architectures")
    return (secret, iface, public, [first, *rest]), blocks


class Stack:
    """Models that differ only in k, in ascending k, evaluated and trained as
    one network on (M, rows, d) batches, one (rows, d) slice per model.

    A layer role whose shape does not depend on k is one array over every
    model that has it, model axis first: the secret stack (the k >= 1
    models), the public stack, the joint layers after the first, the output
    layer and the first joint bias. The interface layer and the first joint
    weights, whose input width is k plus the public output width, are one
    array per run of equal k (`runs`). Nothing is padded, and numpy's stacked
    matmuls run one model slice at a time, so each model's slice is computed
    exactly as it would be alone. All arrays are views into `flat`, role
    after role, weights before biases; for one model that is the layout of
    `TriBranchNetwork.flat`. `joint[0]` is (per-run weights, bias)."""

    def __init__(self, archs, flat: np.ndarray | None = None):
        self.archs = tuple(archs)
        if not self.archs:
            raise NetworkError("a stack needs at least one model")
        template = replace(self.archs[0], k=0)
        if any(replace(a, k=0) != template for a in self.archs) or any(a.k > b.k for a, b in zip(self.archs, self.archs[1:])):
            raise DimensionMismatch("stacked models must differ only in k and come in ascending k")
        self.runs = _runs(self.archs)
        self.n_plain = 0 if self.runs[0][0] else self.runs[0][2]  # the k = 0 models come first
        self.secret_runs = self.runs[1:] if self.n_plain else self.runs
        size = sum(parameter_count(a) for a in self.archs)
        self.flat = np.zeros(size) if flat is None else flat
        if self.flat.shape != (size,) or self.flat.dtype != np.float64:
            raise DimensionMismatch("parameter vector does not match the stacked architectures")
        (self.secret, self.iface, self.public, self.joint), _ = _stack_views(self.archs, self.flat)

    @functools.cached_property
    def owner(self) -> np.ndarray:
        """The stack row of the model each entry of `flat` belongs to; model
        i's `TriBranchNetwork.flat` is `flat[owner == i]`."""
        owner = np.empty(self.flat.size, dtype=np.intp)
        for view, first in _stack_views(self.archs, owner)[1]:
            view[...] = np.arange(first, first + len(view)).reshape(-1, *(1,) * (view.ndim - 1))
        return owner


@dataclass(eq=False)
class TriBranchNetwork:
    """One model. Every weight and bias lives in one contiguous float64
    vector, `flat`; the layer attributes are views into it, so an in-place
    edit of either is seen by both. `stack` is the one-model `Stack` over
    the same vector, which the forward and backward passes run on."""

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
    stack: Stack = field(init=False)

    def __post_init__(self):
        if self.flat.shape != (parameter_count(self.arch),) or self.flat.dtype != np.float64:
            raise DimensionMismatch("parameter vector does not match the architecture")
        self.secret_layers, self.iface, self.public_layers, self.joint_layers, self.out_layer = _branches(
            self.arch, layer_views(self.arch, self.flat)
        )
        self.stack = Stack((self.arch,), self.flat)

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


def _affine(h: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """h @ w.T + b, per model for a stack's (M, rows, d) activations, written
    into `out` when given (a new array otherwise)."""
    out = np.matmul(h, w.swapaxes(-1, -2), out=out)
    out += b[..., None, :]
    return out


def _relu_stack(layers: list[Layer], h: np.ndarray, bufs=None) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Run `h` through ReLU layers: each layer's input, each layer's
    pre-activation, and the stack's output. `bufs`, if given, holds one
    (pre-activation, output) pair of arrays per layer to write them into."""
    ins, zs = [], []
    for (w, b), (z, out) in zip(layers, bufs or [(None, None)] * len(layers)):
        ins.append(h)
        zs.append(_affine(h, w, b, z))
        h = np.maximum(zs[-1], 0.0, out=out)
    return ins, zs, h


def secret_branch(layers: list[Layer], iface: Layer, xn: np.ndarray):
    """The secret stack and the interface layer on normalized secrets: the
    stack's (ins, zs, out) and the interface pre-activations. The counter's
    reducer evaluates the branch here; a stack's forward pass runs the same
    `_relu_stack` and `_affine` steps, the interface once per run of equal
    k. The census counts with its own table kernel, in exact arithmetic at
    the threshold."""
    ins, zs, h = _relu_stack(layers, xn)
    return ins, zs, h, _affine(h, *iface)


def interface_bits(preact: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The hard threshold of the interface: a bit is set where its
    pre-activation is at or above zero (1.0 in a float `out`)."""
    return np.greater_equal(preact, 0.0, out=out)


class Workspace:
    """The arrays a pass of a stack over (M, rows) batches writes: every
    layer's pre-activation and output, the interface pre-activations and the
    joint input of each run with k >= 1, and, unless `forward_only`, the
    gradients gathered at the secret and public outputs and the gradient
    vector. A forward-only workspace keeps one array per ReLU layer, which
    the ReLU overwrites. A pass writes each array before it reads it, so a
    workspace carries nothing from one pass to the next and can serve every
    pass of its shape; what a pass returns lives here until the next one.

    The arrays are consecutive views of `arena` when one is given (its
    first `size` entries), so workspaces that never serve passes at the same
    time can share one buffer; otherwise each is allocated on its own."""

    def __init__(self, stack: Stack, rows: int, forward_only: bool = False, arena: np.ndarray | None = None):
        a, m = stack.archs[0], len(stack.archs)
        m_secret, p = m - stack.n_plain, a.public_out_dim
        self.size = 0

        def take(*shape: int) -> np.ndarray:
            n = math.prod(shape)
            view = np.empty(shape) if arena is None else arena[self.size : self.size + n].reshape(shape)
            self.size += n
            return view

        def relu_stack(lead: tuple[int, int], widths: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
            pairs = []
            for w in widths:
                z = take(*lead, w)
                pairs.append((z, z if forward_only else take(*lead, w)))
            return pairs

        self.secret = relu_stack((m_secret, rows), a.secret_widths if m_secret else ())
        self.preact = [take(hi - lo, rows, k) for k, lo, hi in stack.secret_runs]
        # The interface bits, then a copy of the public stack's output.
        self.joint_in = [take(hi - lo, rows, k + p) for k, lo, hi in stack.secret_runs]
        self.public = relu_stack((m, rows), a.public_widths)
        self.joint = relu_stack((m, rows), a.joint_widths)
        self.out = take(m, rows, 1)
        if not forward_only:
            self.d_secret = take(m_secret, rows, (a.secret_widths or (a.n_secret,))[-1])
            self.d_public = take(m, rows, p)
            self.grad = take(stack.flat.size)
            self.grad_layers = _stack_views(stack.archs, self.grad)[0]


def _forward_cache(stack: Stack, xn: np.ndarray, yn: np.ndarray, ws: Workspace | None = None) -> dict:
    """Every activation of a forward pass of `stack` on (M, rows, d) batches,
    written into `ws` (a new full workspace when none is given; in a
    forward-only one the ReLU outputs overwrite the pre-activations). The
    interface pre-activations, the bits and the first joint layer's inputs
    are lists with one entry per run (per run with k >= 1 for the first
    two)."""
    if ws is None:
        ws = Workspace(stack, yn.shape[-2])
    cache: dict = {"iface_preact": ws.preact, "bits": []}
    s = stack.n_plain
    if stack.iface:
        sec_in, sec_z, h = _relu_stack(stack.secret, xn[s:], ws.secret)
        for (k, lo, hi), (w, b), preact, joint_in in zip(stack.secret_runs, stack.iface, ws.preact, ws.joint_in):
            _affine(h[lo - s : hi - s], w, b, out=preact)
            cache["bits"].append(interface_bits(preact, out=joint_in[..., :k]))
        cache.update(sec_in=sec_in, sec_z=sec_z, sec_out=h)

    pub_in, pub_z, p = _relu_stack(stack.public, yn, ws.public)
    joint_in = [p[:s]] if s else []
    for (k, lo, hi), buf in zip(stack.secret_runs, ws.joint_in):
        buf[..., k:] = p[lo:hi]
        joint_in.append(buf)
    # The first joint layer: a product per run, then one bias-add (and one
    # ReLU) over every model.
    (weights, bias), rest = stack.joint[0], stack.joint[1:]
    z = ws.joint[0][0] if rest else ws.out
    for (_, lo, hi), w, h in zip(stack.runs, weights, joint_in):
        np.matmul(h, w.swapaxes(-1, -2), out=z[lo:hi])
    z += bias[..., None, :]
    ins, zs = [joint_in], [z]
    if rest:
        more_in, more_z, h = _relu_stack(rest[:-1], np.maximum(z, 0.0, out=ws.joint[0][1]), ws.joint[1:])
        ins, zs = ins + more_in, zs + more_z
        z = _affine(h, *rest[-1], out=ws.out)
        cache["joint_out"] = h
    cache.update(pub_in=pub_in, pub_z=pub_z, joint_in=ins, joint_z=zs, t_hat=z[..., 0])
    return cache


def predict_batch(
    net: TriBranchNetwork, xn: np.ndarray, yn: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized predictions and int64 interface bits of one model for
    (rows, d) batches of normalized inputs. The predictions live in `ws` (a
    workspace of `net.stack`) when one is given."""
    if xn.shape[-1] != net.arch.n_secret or yn.shape[-1] != net.arch.n_public:
        raise DimensionMismatch(
            f"expected {net.arch.n_secret} secret / {net.arch.n_public} public features, "
            f"got {xn.shape[-1]} / {yn.shape[-1]}"
        )
    if ws is None:
        ws = Workspace(net.stack, yn.shape[0], forward_only=True)
    cache = _forward_cache(net.stack, xn[None], yn[None], ws)
    t_hat = cache["t_hat"][0]
    bits = cache["bits"][0][0] if net.k else np.empty((t_hat.shape[0], 0))
    return t_hat, bits.astype(np.int64)


def _put_gradient(grad: Layer, dz: np.ndarray, h_in: np.ndarray) -> None:
    """Write one layer's weight and bias gradients into their slots."""
    np.matmul(dz.swapaxes(-1, -2), h_in, out=grad[0])
    dz.sum(axis=-2, out=grad[1])


def _relu_stack_backward(layers: list[Layer], grads: list[Layer], ins, zs, dh: np.ndarray, input_grad: bool = True):
    """Write the gradients of a `_relu_stack` pass into `grads`, given the
    gradient `dh` at its output, and return the gradient at its input; with
    `input_grad` false that gradient is not computed and None is returned."""
    for i in reversed(range(len(layers))):
        dz = dh * (zs[i] > 0)
        _put_gradient(grads[i], dz, ins[i])
        dh = dz @ layers[i][0] if i or input_grad else None
    return dh


def loss_and_gradients(
    net: TriBranchNetwork | Stack,
    batch: tuple[np.ndarray, np.ndarray, np.ndarray],
    ste_clip: float = 1.0,
    ws: Workspace | None = None,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean squared error over a normalized batch plus reverse-mode gradients.

    One model takes (rows, d) batches and returns one loss; a `Stack` takes
    (M, rows, d) batches, one per model, and returns one loss per model. The
    gradient is laid out like the parameters (`flat`). The loss is not
    checked here: a non-finite loss gives non-finite gradients. At the
    interface threshold the backward pass uses the straight-through
    surrogate: the incoming gradient passes unchanged where the
    pre-activation magnitude is at most `ste_clip` and is zeroed elsewhere.
    The pass writes into `ws` (a new workspace when none is given), and the
    gradient returned is `ws.grad`.
    """
    one = isinstance(net, TriBranchNetwork)
    stack = net.stack if one else net
    xn, yn, tn = (a[None] for a in batch) if one else batch
    rows = tn.shape[-1]
    if rows == 0:
        raise NetworkError("batch must be non-empty")
    if ws is None:
        ws = Workspace(stack, rows)
    cache = _forward_cache(stack, xn, yn, ws)
    resid = cache["t_hat"] - tn
    loss = np.mean(resid**2, axis=-1)

    # Every slot of the gradient is written below.
    g_secret, g_iface, g_public, g_joint = ws.grad_layers
    dz = (2.0 / rows) * resid[..., None]
    (weights, _), rest = stack.joint[0], stack.joint[1:]
    if rest:
        _put_gradient(g_joint[-1], dz, cache["joint_out"])
        dh = _relu_stack_backward(rest[:-1], g_joint[1:-1], cache["joint_in"][1:], cache["joint_z"][1:], dz @ rest[-1][0])
        dz = dh * (cache["joint_z"][0] > 0)
    dz.sum(axis=-2, out=g_joint[0][1])

    # Per run: the first joint weights, then the interface, and the
    # gradients at the secret and public outputs, gathered for one backward
    # pass of each stack over every model.
    s = stack.n_plain
    iface = iter(zip(stack.iface, g_iface, cache["iface_preact"]))
    for (k, lo, hi), w, g_w, h in zip(stack.runs, weights, g_joint[0][0], cache["joint_in"][0]):
        dz_run = dz[lo:hi]
        np.matmul(dz_run.swapaxes(-1, -2), h, out=g_w)
        if k == 0:
            if stack.public:
                np.matmul(dz_run, w, out=ws.d_public[lo:hi])
            continue
        dh = dz_run @ w
        (w_iface, _), g_i, preact = next(iface)
        da = dh[..., :k] * (np.abs(preact) <= ste_clip)
        _put_gradient(g_i, da, cache["sec_out"][lo - s : hi - s])
        if stack.secret:
            np.matmul(da, w_iface, out=ws.d_secret[lo - s : hi - s])
        if stack.public:
            ws.d_public[lo:hi] = dh[..., k:]
    if stack.secret:
        _relu_stack_backward(stack.secret, g_secret, cache["sec_in"], cache["sec_z"], ws.d_secret, False)
    _relu_stack_backward(stack.public, g_public, cache["pub_in"], cache["pub_z"], ws.d_public, False)

    return (loss[0] if one else loss), ws.grad


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
    """One bias-corrected Adam update, in place, of a parameter vector (one
    model's or a stack's, whose models always share the step count)."""
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


def _sse_arrays(stack: Stack, xn, yn, tn, ws: Workspace | None = None) -> np.ndarray:
    """The (M,) SSEs of a stack's models on the same (rows, d) inputs,
    evaluated in `ws` when given. Only the predictions are read."""
    lead = (len(stack.archs),)
    if ws is None:
        ws = Workspace(stack, yn.shape[0], forward_only=True)
    t_hat = _forward_cache(stack, np.broadcast_to(xn, lead + xn.shape), np.broadcast_to(yn, lead + yn.shape), ws)["t_hat"]
    return np.sum((t_hat - tn) ** 2, axis=-1)


def train(
    ds_train: TraceDataset,
    ds_valid: TraceDataset,
    arch: Architecture,
    config: TrainConfig,
) -> tuple[TriBranchNetwork, list[tuple[float, float]]]:
    """Mini-batch Adam training; early-stops on validation SSE and returns the
    best-validation snapshot plus the per-epoch (train SSE, valid SSE) history."""
    return train_stack(ds_train, ds_valid, [arch], config, [config.seed])[0]


def train_stack(
    ds_train: TraceDataset,
    ds_valid: TraceDataset,
    archs: list[Architecture],
    config: TrainConfig,
    seeds: list[int],
) -> list[tuple[TriBranchNetwork, list[tuple[float, float]]]]:
    """Train one model per (architecture, seed) pair in lockstep, as one
    `Stack`, and return `train`'s (model, history) for each pair, in the
    order given. The architectures may differ only in k.

    Every model draws its own batch order and early-stops on its own; a
    stopped model leaves the stack with its best-validation snapshot. The
    stacked operations act on each model's slice exactly as on one model's
    arrays, so each result is bit for bit what `train` gives that pair.
    When a loss or SSE turns non-finite, the models of that k and of every
    larger k leave the stack and the smaller k train on; at the end
    `NonFiniteLoss` is raised for the smallest k that failed, with the
    epoch and seed at which that k failed (its first model in the given
    order among those that failed). `config.seed` is not used.
    """
    if not seeds or len(archs) != len(seeds):
        raise NetworkError("need one seed per architecture, and at least one")
    if ds_train.schema != ds_valid.schema:
        raise DimensionMismatch("train and validation datasets must share a schema")
    if archs[0].n_secret != ds_train.schema.n_secret or archs[0].n_public != ds_train.schema.n_public:
        raise DimensionMismatch("architecture input dims do not match the schema")
    order = sorted(range(len(archs)), key=lambda i: archs[i].k)  # input position of each stack row
    stack = Stack([archs[i] for i in order])

    norm = fit_normalizer(ds_train)
    xtr, ytr, ttr = _normalized_arrays(norm, ds_train)
    xva, yva, tva = _normalized_arrays(norm, ds_valid)

    nets = [init(archs[i], seeds[i]) for i in order]
    for row, net in enumerate(nets):
        net.normalizer = norm
        net.schema = ds_train.schema
        stack.flat[stack.owner == row] = net.flat
    state = AdamState(m=np.zeros_like(stack.flat), v=np.zeros_like(stack.flat))

    n = ds_train.n_rows
    bs = config.batch_size

    # One workspace per pass shape, (rows, forward_only): the full and the
    # last batch, and the two SSE passes. The passes run one after another,
    # so their workspaces share one buffer, sized once for the full stack
    # (the stack only shrinks) and re-carved when it shrinks.
    passes = {(r, False) for r in (min(bs, n), (n - 1) % bs + 1)} | {(n, True), (ds_valid.n_rows, True)}
    arena = np.empty(max(Workspace(stack, *shape).size for shape in passes))
    spaces = {shape: Workspace(stack, *shape, arena) for shape in passes}
    live = np.arange(len(nets))  # the model behind each stack row
    histories: list[list[tuple[float, float]]] = [[] for _ in nets]
    best_valid = np.full(len(nets), np.inf)
    best = stack.flat.copy()
    stall = np.zeros(len(nets), dtype=np.int64)
    failure: NonFiniteLoss | None = None

    def leave(keep: np.ndarray) -> np.ndarray:
        """Take the models of the rows outside `keep` out of the stack, each
        with its best snapshot, and return the parameter mask of the rest."""
        nonlocal stack, best, live, spaces
        for row in np.flatnonzero(~keep):
            nets[live[row]].flat[...] = best[stack.owner == row]
        params = keep[stack.owner]
        live = live[keep]
        if live.size:
            stack = Stack([nets[i].arch for i in live], stack.flat[params])
            best, state.m, state.v = best[params], state.m[params], state.v[params]
            spaces = {shape: Workspace(stack, *shape, arena) for shape in passes}
        return params

    def diverged(what: str, epoch: int, finite: np.ndarray) -> np.ndarray:
        """Record the failure of the smallest k with a non-finite value and
        return the rows that train on: those of smaller k."""
        nonlocal failure
        row = int(np.argmin(finite))
        k = stack.archs[row].k
        failure = NonFiniteLoss(f"{what} diverged at epoch {epoch}", epoch, nets[live[row]].seed, k)
        return np.array([a.k < k for a in stack.archs])

    for epoch in range(config.max_epochs):
        perm = np.stack([np.random.default_rng([nets[i].seed, epoch]).permutation(n) for i in live])
        for start in range(0, n, bs):
            rows = perm[:, start : start + bs]
            batch = (xtr[rows], ytr[rows], ttr[rows])
            loss, grads = loss_and_gradients(stack, batch, config.ste_clip, spaces[rows.shape[1], False])
            finite = np.isfinite(loss)
            if not finite.all():
                keep = diverged("loss", epoch, finite)
                grads = grads[leave(keep)]
                if not live.size:
                    break
                perm = perm[keep]
            adam_step(stack.flat, grads, state, config)
        if not live.size:
            break

        train_sse = _sse_arrays(stack, xtr, ytr, ttr, spaces[n, True])
        valid_sse = _sse_arrays(stack, xva, yva, tva, spaces[ds_valid.n_rows, True])
        finite = np.isfinite(train_sse) & np.isfinite(valid_sse)
        if not finite.all():
            keep = diverged("SSE", epoch, finite)
            leave(keep)
            if not live.size:
                break
            train_sse, valid_sse = train_sse[keep], valid_sse[keep]
        for i, tr_sse, va_sse in zip(live, train_sse.tolist(), valid_sse.tolist()):
            histories[i].append((tr_sse, va_sse))

        improved = valid_sse < best_valid[live] - 1e-12
        best_valid[live[improved]] = valid_sse[improved]
        np.copyto(best, stack.flat, where=improved[stack.owner])
        stall[live] = np.where(improved, 0, stall[live] + 1)
        keep = stall[live] < config.patience
        if not keep.all():
            leave(keep)
            if not live.size:
                break

    if failure is not None:
        raise failure
    if live.size:
        leave(np.zeros(live.size, dtype=bool))
    results: list = [None] * len(nets)
    for i, net, history, valid in zip(order, nets, histories, best_valid.tolist()):
        net.metrics = {"epochs": len(history), "train_sse": history[-1][0], "valid_sse": valid}
        results[i] = (net, history)
    return results


def sse(net: TriBranchNetwork, ds: TraceDataset) -> float:
    """Sum of squared residuals on the normalized time scale."""
    if ds.n_rows == 0:
        raise NetworkError("dataset is empty")
    return float(_sse_arrays(net.stack, *_normalized_arrays(net.normalizer, ds))[0])


def _raw_predictions(net: TriBranchNetwork, ds: TraceDataset) -> np.ndarray:
    """Predicted times of a non-empty dataset, in raw time units."""
    if ds.n_rows == 0:
        raise NetworkError("dataset is empty")
    norm = net.normalizer
    return norm.unmap_time(predict_batch(net, norm.map_secrets(ds.x), norm.map_publics(ds.y))[0])


def r2(net: TriBranchNetwork, ds: TraceDataset) -> float:
    """Coefficient of determination on the denormalized time scale."""
    t_hat = _raw_predictions(net, ds)
    ss_res = float(np.sum((ds.t - t_hat) ** 2))
    ss_tot = float(np.sum((ds.t - ds.t.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def max_abs_residual(net: TriBranchNetwork, ds: TraceDataset) -> float:
    """Largest absolute prediction error in raw time units (the infinity norm)."""
    return float(np.max(np.abs(ds.t - _raw_predictions(net, ds))))


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


def _is_int(value, lo: int) -> bool:
    """A JSON integer (not a bool) of at least `lo`."""
    return type(value) is int and value >= lo


def _architecture_from_json(a) -> Architecture:
    if not isinstance(a, dict):
        raise ModelFormatError("model architecture is missing or not an object")
    for name, lo, hi in (("n_secret", 0, None), ("n_public", 0, None), ("k", 0, MAX_K)):
        value = a.get(name)
        if not _is_int(value, lo) or (hi is not None and value > hi):
            bound = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
            raise ModelFormatError(f"model architecture.{name} must be an integer {bound}, got {value!r}")
    for name in ("secret_widths", "public_widths", "joint_widths"):
        widths = a.get(name)
        if not isinstance(widths, list) or not all(_is_int(w, 1) for w in widths):
            raise ModelFormatError(f"model architecture.{name} must be a list of integers >= 1, got {widths!r}")
    try:
        return Architecture(
            a["n_secret"], a["n_public"], a["k"], tuple(a["secret_widths"]), tuple(a["public_widths"]), tuple(a["joint_widths"])
        )
    except DimensionMismatch as exc:
        raise ModelFormatError(f"model architecture: {exc}") from None


def _stored_layers(weights, arch: Architecture) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (w, b) arrays of the `weights` object in canonical layer order,
    each checked against the architecture's shape."""
    if not isinstance(weights, dict):
        raise ModelFormatError("model weights must be an object")
    named = []
    for group in ("secret", "iface", "public", "joint", "out"):
        value = weights.get(group)
        if group in ("iface", "out"):
            if value is not None or group == "out":  # a k = 0 model has no interface
                named.append((f"weights.{group}", value))
        elif isinstance(value, list):
            named += [(f"weights.{group}[{i}]", layer) for i, layer in enumerate(value)]
        else:
            raise ModelFormatError(f"model weights.{group} must be a list of layers, got {type(value).__name__}")
    shapes = [(n_out, n_in) for n_out, n_in, _ in _layout(arch)[0]]
    if len(named) != len(shapes):
        raise ModelFormatError(f"model weights hold {len(named)} layers, the architecture has {len(shapes)}")
    layers = []
    for (name, layer), (n_out, n_in) in zip(named, shapes):
        if not isinstance(layer, dict):
            raise ModelFormatError(f"model {name} must be an object with w and b")
        arrays = []
        for key, shape in (("w", (n_out, n_in)), ("b", (n_out,))):
            try:
                arr = np.asarray(layer.get(key))
            except (ValueError, TypeError, OverflowError):
                arr = np.asarray(None)
            if arr.dtype.kind not in "if" or arr.shape != shape:
                raise ModelFormatError(f"model {name}.{key} must be an array of numbers of shape {shape}")
            arrays.append(arr.astype(np.float64))
        layers.append(tuple(arrays))
    return layers


def from_json(obj: dict) -> TriBranchNetwork:
    """A model from its JSON object. Every field is checked before any array
    of the architecture's size is allocated; a malformed file raises
    `ModelFormatError` naming the field."""
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise SchemaVersionMismatch("not a timeleak model file")
    if obj.get("version") != MODEL_VERSION:
        raise SchemaVersionMismatch(f"unsupported model version {obj.get('version')!r}")
    arch = _architecture_from_json(obj.get("architecture"))
    stored = _stored_layers(obj.get("weights"), arch)
    schema = None
    if obj.get("schema"):
        try:
            schema = schema_from_json(obj["schema"])
        except (DatasetError, KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ModelFormatError(f"model schema is malformed: {exc}") from None
        if (schema.n_secret, schema.n_public) != (arch.n_secret, arch.n_public):
            raise ModelFormatError("model schema features do not match architecture.n_secret / n_public")
    seed = obj.get("seed", 0)
    if not _is_int(seed, 0):
        raise ModelFormatError(f"model seed must be an integer >= 0, got {seed!r}")

    flat = np.empty(parameter_count(arch))
    for (vw, vb), (lw, lb) in zip(layer_views(arch, flat), stored):
        vw[...] = lw
        vb[...] = lb
    if not np.isfinite(flat).all():
        raise ModelFormatError("model weights are not all finite")
    normalizer = None
    if obj.get("normalizer"):
        try:
            normalizer = normalizer_from_json(obj["normalizer"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"model normalizer is malformed: {exc!r}") from None
        if not all(np.isfinite(v).all() for v in vars(normalizer).values()):
            raise ModelFormatError("model normalizer values are not all finite")
        for name in ("secret_shift", "secret_denom"):
            if getattr(normalizer, name).shape != (arch.n_secret,):
                raise ModelFormatError(f"model normalizer {name} must hold {arch.n_secret} values, one per secret feature")
        if not (normalizer.secret_denom > 0).all():
            raise ModelFormatError("model normalizer secret_denom values must all be > 0")
    return TriBranchNetwork(arch, flat, normalizer=normalizer, schema=schema, seed=seed, metrics=obj.get("metrics"))


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
