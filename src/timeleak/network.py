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
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import (
    DatasetError,
    FeatureSchema,
    Normalizer,
    TraceDataset,
    fit_normalizer,
    normalizer_to_json,
    schema_from_json,
    schema_to_json,
)
from .jsonio import FieldError, get, numbers, read_json, write_json

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
    `TriBranchNetwork.flat`. `joint[0]` is (per-run weights, bias). `bound`
    holds the same roles as the forward pass reads them, each weight
    transposed and each bias as a row (`_bind`)."""

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
        (first_w, first_b), rest = self.joint[0], self.joint[1:]
        first = ([w.swapaxes(-1, -2) for w in first_w], first_b[..., None, :])
        self.bound = (_bind(self.secret), _bind(self.iface), _bind(self.public), [first, *_bind(rest)])

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


def _bind(layers: list[Layer]) -> list[Layer]:
    """Each (w, b) layer as `_affine` reads it: w transposed, b as a row."""
    return [(w.swapaxes(-1, -2), b[..., None, :]) for w, b in layers]


def _affine(h: np.ndarray, wt: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """h @ w.T + b for a layer bound by `_bind`, per model for a stack's
    (M, rows, d) activations, written into `out` when given (a new array
    otherwise)."""
    out = np.matmul(h, wt, out=out)
    out += b
    return out


def _relu_stack(layers: list[Layer], h: np.ndarray, bufs=None) -> np.ndarray:
    """Run `h` through ReLU layers bound by `_bind` and return the output.
    `bufs`, if given, holds one (pre-activation, output) pair of arrays per
    layer to write them into."""
    for (wt, b), (z, out) in zip(layers, bufs or [(None, None)] * len(layers)):
        h = np.maximum(_affine(h, wt, b, z), 0.0, out=out)
    return h


def secret_branch(layers: list[Layer], iface: Layer, xn: np.ndarray) -> np.ndarray:
    """The interface pre-activations of the secret stack and interface
    layer on normalized secrets. The counter's reducer evaluates the branch
    here; a stack's forward pass runs the same `_relu_stack` and `_affine`
    steps, the interface once per run of equal k. The census counts with
    its own table kernel, in exact arithmetic at the threshold."""
    return _affine(_relu_stack(_bind(layers), xn), *_bind([iface])[0])


def interface_bits(preact: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The hard threshold of the interface: a bit is set where its
    pre-activation is at or above zero (1.0 in a float `out`)."""
    return np.greater_equal(preact, 0.0, out=out)


class Workspace:
    """The arrays a pass of `stack` over (M, rows) batches writes, and every
    view of them that it reads, bound once: each layer's pre-activation and
    output, the interface pre-activations and the joint input of each run
    with k >= 1 (the bits, then a copy of the public output), the
    predictions `t_hat` and, unless `forward_only`, the residuals, the
    backward temporaries, the gradient vector `grad` and per-layer records
    that also bind the stack weights the backward pass reads. A branch with
    no hidden layers gets a copy of its input as its output. A forward-only
    workspace keeps one array per ReLU layer, which the ReLU overwrites. A
    pass writes each array before it reads it, so a workspace carries
    nothing from one pass to the next and serves every pass of its shape
    over `stack`; what a pass returns lives here until the next one. A stack
    that shrinks is a new stack and needs new workspaces.

    The arrays are consecutive views of `arena` when one is given (its
    first `size` entries), so workspaces that never serve passes at the same
    time can share one buffer; otherwise each is allocated on its own."""

    def __init__(self, stack: Stack, rows: int, forward_only: bool = False, arena: np.ndarray | None = None):
        a, m, s, runs = stack.archs[0], len(stack.archs), stack.n_plain, stack.secret_runs
        self.size = 0

        def take(*shape: int) -> np.ndarray:
            n = math.prod(shape)
            view = np.empty(shape) if arena is None else arena[self.size : self.size + n].reshape(shape)
            self.size += n
            return view

        def relu_stack(lead: tuple[int, int], d: int, widths: tuple[int, ...]):
            pairs = []
            for w in widths:
                z = take(*lead, w)
                pairs.append((z, z if forward_only else take(*lead, w)))
            return pairs, pairs[-1][1] if pairs else take(*lead, d)

        self.secret, self.sec_out = relu_stack((m - s, rows), a.n_secret, a.secret_widths if m > s else ())
        self.preact = [take(hi - lo, rows, k) for k, lo, hi in runs]
        self.joint_in = [take(hi - lo, rows, k + a.public_out_dim) for k, lo, hi in runs]
        self.public, self.pub_out = relu_stack((m, rows), a.n_public, a.public_widths)
        self.joint, _ = relu_stack((m, rows), 0, a.joint_widths)
        self.out = take(m, rows, 1)
        self.t_hat = self.out[..., 0]
        self.bits = [j[..., :k] for (k, _, _), j in zip(runs, self.joint_in)]
        self.sec_parts = [self.sec_out[lo - s : hi - s] for _, lo, hi in runs]
        self.pub_parts = [(j[..., k:], self.pub_out[lo:hi]) for (k, lo, hi), j in zip(runs, self.joint_in)]
        # The first joint layer's input and pre-activation of each run.
        z0 = self.joint[0][0] if self.joint else self.out
        self.first = [(h, z0[lo:hi]) for h, (_, lo, hi) in zip(([self.pub_out[:s]] if s else []) + self.joint_in, stack.runs)]
        if forward_only:
            return

        def backward(layers, grads, pairs, h=None, d_in=None):
            """The records `_relu_stack_backward` reads, last layer first (an
            input or input gradient of None: the pass's input, not needed),
            and the gradient at the stack's output."""
            records = []
            for (w, _), (g_w, g_b), (z, out) in zip(layers, grads, pairs):
                dh, dz = take(*z.shape), take(*z.shape)
                records.insert(0, (w, g_w, g_b, h, z, dh, dz, dz.swapaxes(-1, -2), d_in))
                h, d_in = out, dh
            return records, d_in

        self.grad = take(stack.flat.size)
        self.grad_layers = g_secret, _, g_public, g_joint = _stack_views(stack.archs, self.grad)[0]
        self.resid, self.sq, self.d_out = take(m, rows), take(m, rows), take(m, rows, 1)
        self.resid_col, self.d_out_t = self.resid[..., None], self.d_out.swapaxes(-1, -2)
        self.secret_back, self.d_secret = backward(stack.secret, g_secret, self.secret)
        self.public_back, self.d_public = backward(stack.public, g_public, self.public)
        # The gradient at the first joint layer's output and its dz (the
        # output layer's dz if it is the first), then the layers after it.
        first = a.joint_widths[:1]
        self.d_first, self.dz_first = (take(m, rows, *first), take(m, rows, *first)) if first else (None, self.d_out)
        h, rest = self.joint[0][1] if self.joint else None, stack.joint[1:-1]
        self.joint_back, self.d_joint = backward(rest, g_joint[1:-1], self.joint[1:], h, self.d_first)
        self.first_back, self.iface_back = [], []
        for _, lo, hi in stack.runs:
            dz = self.dz_first[lo:hi]
            self.first_back.append((dz, dz.swapaxes(-1, -2), self.d_public[lo:hi] if self.public else None))
        for k, lo, hi in runs:
            dh, da = take(hi - lo, rows, k + a.public_out_dim), take(hi - lo, rows, k)
            d_sec = self.d_secret[lo - s : hi - s] if self.secret else None
            self.iface_back.append((dh, dh[..., :k], dh[..., k:], da, da.swapaxes(-1, -2), d_sec))


def _forward_cache(stack: Stack, xn: np.ndarray, yn: np.ndarray, ws: Workspace | None = None) -> Workspace:
    """A forward pass of `stack` on (M, rows, d) batches, written into `ws`
    (a new full workspace when none is given), which is returned."""
    if ws is None:
        ws = Workspace(stack, yn.shape[-2])
    secret, iface, public, joint = stack.bound
    # A branch with no hidden layers passes on a copy of its input.
    if iface:
        xs = xn[stack.n_plain :]
        if secret:
            _relu_stack(secret, xs, ws.secret)
        else:
            np.copyto(ws.sec_out, xs)
        for (wt, b), h, preact, bits in zip(iface, ws.sec_parts, ws.preact, ws.bits):
            interface_bits(_affine(h, wt, b, preact), out=bits)
    if public:
        _relu_stack(public, yn, ws.public)
    else:
        np.copyto(ws.pub_out, yn)
    for to, part in ws.pub_parts:
        np.copyto(to, part)
    # The first joint layer: a product per run, then one bias-add (and one
    # ReLU) over every model.
    (weights, bias), rest = joint[0], joint[1:]
    for wt, (h, z) in zip(weights, ws.first):
        np.matmul(h, wt, out=z)
    z = ws.joint[0][0] if rest else ws.out
    z += bias
    if rest:
        h = _relu_stack(rest[:-1], np.maximum(z, 0.0, out=ws.joint[0][1]), ws.joint[1:])
        _affine(h, *rest[-1], ws.out)
    return ws


def predict_batch(net: TriBranchNetwork, xn: np.ndarray, yn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized predictions and int64 interface bits of one model for
    (rows, d) batches of normalized inputs."""
    if xn.shape[-1] != net.arch.n_secret or yn.shape[-1] != net.arch.n_public:
        raise DimensionMismatch(
            f"expected {net.arch.n_secret} secret / {net.arch.n_public} public features, "
            f"got {xn.shape[-1]} / {yn.shape[-1]}"
        )
    ws = _forward_cache(net.stack, xn[None], yn[None], Workspace(net.stack, yn.shape[0], forward_only=True))
    bits = ws.bits[0][0] if net.k else np.empty((yn.shape[0], 0))
    return ws.t_hat[0], bits.astype(np.int64)


def _relu_stack_backward(records, h: np.ndarray | None) -> None:
    """Write the gradients of a `_relu_stack` pass into their slots, given
    its input `h` and its layers' `Workspace` records, last layer first:
    weight, gradient slots, input, pre-activation, gradient at the output
    (written before the call), dz, dz transposed and gradient at the input."""
    for w, g_w, g_b, h_in, z, dh, dz, dz_t, d_in in records:
        np.multiply(dh, np.greater(z, 0.0, out=dz), out=dz)
        np.matmul(dz_t, h if h_in is None else h_in, out=g_w)
        np.add.reduce(dz, -2, out=g_b)
        if d_in is not None:
            np.matmul(dz, w, out=d_in)


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
    gradient returned is `ws.grad`. Every array of the pass but the losses
    is one of `ws`, and every view of them it reads is bound there.
    """
    one = isinstance(net, TriBranchNetwork)
    stack = net.stack if one else net
    xn, yn, tn = (a[None] for a in batch) if one else batch
    rows = tn.shape[-1]
    if rows == 0:
        raise NetworkError("batch must be non-empty")
    if ws is None:
        ws = Workspace(stack, rows)
    _forward_cache(stack, xn, yn, ws)
    resid = np.subtract(ws.t_hat, tn, out=ws.resid)
    # The mean of the squares: np.mean is this sum, then this division.
    loss = np.add.reduce(np.multiply(resid, resid, out=ws.sq), -1) / rows

    # Every slot of the gradient is written below.
    _, g_iface, _, g_joint = ws.grad_layers
    np.multiply(2.0 / rows, ws.resid_col, out=ws.d_out)
    (weights, _), rest = stack.joint[0], stack.joint[1:]
    if rest:
        np.matmul(ws.d_out_t, ws.joint[-1][1], out=g_joint[-1][0])
        np.add.reduce(ws.d_out, -2, out=g_joint[-1][1])
        np.matmul(ws.d_out, rest[-1][0], out=ws.d_joint)
        _relu_stack_backward(ws.joint_back, None)
        np.multiply(ws.d_first, np.greater(ws.joint[0][0], 0.0, out=ws.dz_first), out=ws.dz_first)
    np.add.reduce(ws.dz_first, -2, out=g_joint[0][1])

    # Per run: the first joint weights, then the interface, and the
    # gradients at the secret and public outputs, gathered for one backward
    # pass of each stack over every model.
    iface = iter(zip(stack.iface, g_iface, ws.preact, ws.sec_parts, ws.iface_back))
    for (k, _, _), w, g_w, (h, _), (dz, dz_t, d_public) in zip(stack.runs, weights, g_joint[0][0], ws.first, ws.first_back):
        np.matmul(dz_t, h, out=g_w)
        if k == 0:
            if stack.public:
                np.matmul(dz, w, out=d_public)
            continue
        (w_iface, _), (g_iw, g_ib), preact, h_secret, (dh, dh_bits, dh_public, da, da_t, d_secret) = next(iface)
        np.matmul(dz, w, out=dh)
        np.multiply(dh_bits, np.less_equal(np.abs(preact, out=da), ste_clip, out=da), out=da)
        np.matmul(da_t, h_secret, out=g_iw)
        np.add.reduce(da, -2, out=g_ib)
        if stack.secret:
            np.matmul(da, w_iface, out=d_secret)
        if stack.public:
            np.copyto(d_public, dh_public)
    _relu_stack_backward(ws.secret_back, xn[stack.n_plain :])
    _relu_stack_backward(ws.public_back, yn)

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
    t_hat = _forward_cache(stack, np.broadcast_to(xn, lead + xn.shape), np.broadcast_to(yn, lead + yn.shape), ws).t_hat
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

    Every model draws its own batch order and early-stops on its own. Models
    leave the stack only at the end of an epoch: on patience, at the last
    epoch, or on divergence, each with its best-validation snapshot, and
    its `metrics` give that snapshot's epoch (`best_epoch`, from 0) and
    SSEs. The stacked operations act on each model's slice exactly as on one
    model's arrays, so each result is bit for bit what `train` gives that
    pair.
    A model whose loss or SSE turns non-finite runs on to the end of its
    epoch, which changes no other model's bits. Then the models of the
    smallest k that failed and of every larger k leave the stack and the
    smaller k train on; at the end `NonFiniteLoss` is raised for the
    smallest k that failed, with the epoch and seed at which that k failed
    (its model that failed at the earliest step, the SSE pass counting as
    the epoch's last step, then the first in the given order), as if each
    k trained alone in increasing k. `config.seed` is not used.
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
    # (the stack only shrinks) and re-carved when it shrinks. Each epoch's
    # training rows sit in it after the batch workspaces: the SSE passes,
    # which may overwrite them, run after the epoch's last step.
    steps = {(r, False) for r in (min(bs, n), (n - 1) % bs + 1)}
    passes = steps | {(n, True), (ds_valid.n_rows, True)}
    rows_at = max(Workspace(stack, *shape).size for shape in steps)
    train_rows = (xtr, ytr, ttr)
    sizes = [rows_at + len(nets) * sum(a.size for a in train_rows)] + [Workspace(stack, *shape).size for shape in passes]
    arena = np.empty(max(sizes))
    spaces = {shape: Workspace(stack, *shape, arena) for shape in passes}
    live = np.arange(len(nets))  # the model behind each stack row
    histories: list[list[tuple[float, float]]] = [[] for _ in nets]
    best_valid = np.full(len(nets), np.inf)
    best_epoch = np.zeros(len(nets), dtype=np.int64)
    best = stack.flat.copy()
    stall = np.zeros(len(nets), dtype=np.int64)
    failure: NonFiniteLoss | None = None
    sse_step = -(-n // bs)  # the SSE pass counts as the epoch's last step

    def leave(keep: np.ndarray) -> None:
        """Take the models of the rows outside `keep` out of the stack, each with its best snapshot."""
        nonlocal stack, best, live, spaces
        for row in np.flatnonzero(~keep):
            nets[live[row]].flat[...] = best[stack.owner == row]
        params = keep[stack.owner]
        live = live[keep]
        if live.size:
            stack = Stack([nets[i].arch for i in live], stack.flat[params])
            best, state.m, state.v = best[params], state.m[params], state.v[params]
            spaces = {shape: Workspace(stack, *shape, arena) for shape in passes}

    for epoch in range(config.max_epochs):
        # Each model's training rows in its order for this epoch; the
        # batches are views of them. A permutation is always in range, so
        # "clip" changes no row; it only spares a buffered copy.
        perm = np.stack([np.random.default_rng([nets[i].seed, epoch]).permutation(n) for i in live])
        at, epoch_rows = rows_at, []
        for a in train_rows:
            view = arena[at : at + perm.size * math.prod(a.shape[1:])].reshape(perm.shape + a.shape[1:])
            epoch_rows.append(np.take(a, perm, axis=0, out=view, mode="clip"))
            at += view.size
        xe, ye, te = epoch_rows
        failed_at = np.full(live.size, sse_step + 1)  # each model's first non-finite step, if any
        for step, start in enumerate(range(0, n, bs)):
            batch = (xe[:, start : start + bs], ye[:, start : start + bs], te[:, start : start + bs])
            loss, grads = loss_and_gradients(stack, batch, config.ste_clip, spaces[min(bs, n - start), False])
            finite = np.isfinite(loss)
            if not finite.all():
                failed_at[~finite & (failed_at > step)] = step
            adam_step(stack.flat, grads, state, config)

        train_sse = _sse_arrays(stack, xtr, ytr, ttr, spaces[n, True])
        valid_sse = _sse_arrays(stack, xva, yva, tva, spaces[ds_valid.n_rows, True])
        finite = np.isfinite(train_sse) & np.isfinite(valid_sse)
        failed_at[~finite & (failed_at > sse_step)] = sse_step
        for i, tr_sse, va_sse in zip(live, train_sse.tolist(), valid_sse.tolist()):
            histories[i].append((tr_sse, va_sse))

        improved = valid_sse < best_valid[live] - 1e-12
        best_valid[live[improved]] = valid_sse[improved]
        best_epoch[live[improved]] = epoch
        np.copyto(best, stack.flat, where=improved[stack.owner])
        stall[live] = np.where(improved, 0, stall[live] + 1)
        keep = (stall[live] < config.patience) & (epoch < config.max_epochs - 1)
        if (failed_at <= sse_step).any():
            ks = np.array([a.k for a in stack.archs])
            k = ks[np.argmax(failed_at <= sse_step)]  # rows come in ascending k
            row = int(np.argmin(np.where(ks == k, failed_at, sse_step + 1)))
            what = "loss" if failed_at[row] < sse_step else "SSE"
            failure = NonFiniteLoss(f"{what} diverged at epoch {epoch}", epoch, nets[live[row]].seed, int(k))
            keep &= ks < k
        if not keep.all():
            leave(keep)
            if not live.size:
                break

    if failure is not None:
        raise failure
    results: list = [None] * len(nets)
    for i, net, history, epoch in zip(order, nets, histories, best_epoch.tolist()):
        # The SSEs of the best-validation snapshot, which is the model kept.
        train_sse, valid_sse = history[epoch]
        net.metrics = {"epochs": len(history), "best_epoch": epoch, "train_sse": train_sse, "valid_sse": valid_sse}
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


def _architecture_from_json(a) -> Architecture:
    bounds = (("n_secret", None), ("n_public", None), ("k", MAX_K))
    ints = [get(a, name, int, lo=0, hi=hi, where="architecture") for name, hi in bounds]
    widths = []
    for name in ("secret_widths", "public_widths", "joint_widths"):
        ws = get(a, name, list, where="architecture")
        widths.append(tuple(get(ws, i, int, lo=1, where=f"architecture.{name}") for i in range(len(ws))))
    try:
        return Architecture(*ints, *widths)
    except DimensionMismatch as exc:
        raise FieldError(f"architecture: {exc}") from None


def _stored_arrays(weights, arch: Architecture) -> list[np.ndarray]:
    """The w and b arrays of the `weights` object in canonical layer order,
    each checked against the architecture's shape and for finite values."""
    named = []
    for group in ("secret", "iface", "public", "joint", "out"):
        if group in ("iface", "out"):
            layer = get(weights, group, default=None)
            if layer is not None or group == "out":  # a k = 0 model has no interface
                named.append((f"weights.{group}", layer))
        else:
            named += [(f"weights.{group}[{i}]", item) for i, item in enumerate(get(weights, group, list, where="weights"))]
    layout = _layout(arch)[0]
    if len(named) != len(layout):
        raise FieldError(f"weights hold {len(named)} layers, the architecture has {len(layout)}")
    arrays = []
    for (name, layer), (n_out, n_in, _) in zip(named, layout):
        for key, shape in (("w", (n_out, n_in)), ("b", (n_out,))):
            arrays.append(numbers(get(layer, key, where=name), shape))
            if arrays[-1] is None:
                raise FieldError(f"{name}.{key} must be an array of numbers of shape {shape}")
            if not np.isfinite(arrays[-1]).all():
                raise FieldError("weights are not all finite")
    return arrays


def _normalizer_from_json(obj, arch: Architecture) -> Normalizer:
    """The `normalizer` object, each field checked against the architecture.
    `fit_normalizer` writes only positive scales and denominators."""
    fields = {}
    for name, n in (("secret_shift", arch.n_secret), ("secret_denom", arch.n_secret), ("public_shift", arch.n_public),
                    ("public_scale", arch.n_public), ("time_shift", None), ("time_scale", None)):
        if name not in obj:
            raise FieldError(f"normalizer {name} is missing")
        arr = numbers(obj[name], () if n is None else (n,))
        if arr is None:
            must = "be a number" if n is None else f"hold {n} values, one per {name.split('_')[0]} feature"
            raise FieldError(f"normalizer {name} must {must}, got {obj[name]!r:.40}")
        if not np.isfinite(arr).all():
            raise FieldError(f"normalizer values are not all finite: {name}")
        if name.endswith(("denom", "scale")) and not (arr > 0).all():
            raise FieldError(f"normalizer {name} {'must be' if n is None else 'values must all be'} > 0")
        fields[name] = float(arr) if n is None else arr
    return Normalizer(**fields)


def from_json(obj: dict) -> TriBranchNetwork:
    """A model from its JSON object. Every field is checked before any array
    of the architecture's size is allocated; a malformed file raises
    `ModelFormatError` naming the field."""
    try:
        if get(obj, "format", default=None) != MODEL_FORMAT:
            raise SchemaVersionMismatch("not a timeleak model file")
        if (version := get(obj, "version", int, default=None)) != MODEL_VERSION:
            raise SchemaVersionMismatch(f"unsupported model version {version!r}")
        arch = _architecture_from_json(get(obj, "architecture", dict))
        arrays = _stored_arrays(get(obj, "weights", dict), arch)
        schema = get(obj, "schema", dict, type(None), default=None) or None
        if schema is not None:
            try:
                schema = schema_from_json(schema)
            except (FieldError, DatasetError) as exc:
                raise FieldError(f"schema: {exc}") from None
            if (schema.n_secret, schema.n_public) != (arch.n_secret, arch.n_public):
                raise FieldError("schema features do not match architecture.n_secret / n_public")
        normalizer = get(obj, "normalizer", dict, type(None), default=None)
        if normalizer is not None:
            normalizer = _normalizer_from_json(normalizer, arch)
        seed, metrics = get(obj, "seed", int, lo=0, default=0), get(obj, "metrics", dict, type(None), default=None)
    except FieldError as exc:
        raise ModelFormatError(f"model {exc}") from None
    flat = np.concatenate([a.ravel() for a in arrays])  # the layout of `_layout`
    return TriBranchNetwork(arch, flat, normalizer=normalizer, schema=schema, seed=seed, metrics=metrics)


def save(net: TriBranchNetwork, path) -> None:
    write_json(path, to_json(net))


def load(path) -> TriBranchNetwork:
    try:
        obj = read_json(path)
    except FieldError as exc:
        raise ModelFormatError(str(exc)) from None
    return from_json(obj)
