"""Residual survival network with exact manual backpropagation.

The network stacks residual blocks and ends in a linear head producing one
scalar risk score per sample. Each block computes

    y = F(x) + W_s x

where the main channel F applies [dense -> batch norm -> activation ->
dropout] once per dense layer and the shortcut W_s is a learned bias-free
linear map. Nothing follows the residual sum: no activation, normalization,
or dropout touches y or the shortcut path.

Backward passes are hand-derived and exact, including the path through the
batch statistics, so analytic gradients match finite differences of the
composed Cox loss to numerical precision. Arrays are row-major with samples
as rows: features (n, p), per-layer activations (n, width).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from itertools import count, zip_longest
from numbers import Integral

import numpy as np

from .data import StandardizationParams, check_field_types

SELU_ALPHA = 1.6732632423543772
SELU_SCALE = 1.0507009873554805

ACTIVATION_KINDS = ("tanh", "selu", "relu")

# every batch norm adds BN_EPSILON to the variance it divides by, and updates
# its running statistics as an exponential moving average with BN_MOMENTUM
BN_EPSILON = 1e-5
BN_MOMENTUM = 0.1

CHECKPOINT_MAGIC = b"RESSURVCKPT1\n"
CHECKPOINT_FORMAT = "ressurv-checkpoint-v2"


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass
class DenseLayerParams:
    """Affine map z = a W^T + b; bias-free when b is None (shortcut maps)."""

    W: np.ndarray                 # (out_dim, in_dim)
    b: np.ndarray | None = None   # (out_dim,)


@dataclass
class BatchNormParams:
    """Per-feature scale/shift plus running statistics for eval mode.

    Running statistics start life as the first train-mode batch statistics
    (the first update copies them outright; later updates are an
    exponential moving average with BN_MOMENTUM). With full-batch training
    this makes eval mode consistent with the training data from epoch one.
    """

    gamma: np.ndarray
    beta_shift: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def identity(cls, dim: int):
        return cls(
            gamma=np.ones(dim),
            beta_shift=np.zeros(dim),
            running_mean=np.zeros(dim),
            running_var=np.ones(dim),
        )


@dataclass
class ResBlockParams:
    """One residual block: dense layers with their batch norms, plus the
    learned shortcut. `shortcut=None` is the no-shortcut ablation (y = F(x))."""

    dense_layers: list[DenseLayerParams]
    batch_norms: list[BatchNormParams]
    shortcut: DenseLayerParams | None


def _layout(n_features, block_widths, dense_layers_per_block, with_shortcut):
    """(name, shape, learnable, decayed) of every tensor of the network, in
    checkpoint order: per block, per layer W, b, gamma, beta, running mean,
    running var; then the shortcut W; finally head W, head b. The learnable
    entries make up `flat`, the rest (the batch-norm running statistics)
    `stats`. Only weight matrices are decayed: L2 / weight decay never
    touches biases or batch-norm scale/shift."""
    in_dim = n_features
    for bi, width in enumerate(block_widths):
        for li in range(dense_layers_per_block):
            prefix = f"block{bi}.layer{li}"
            yield f"{prefix}.W", (width, in_dim if li == 0 else width), True, True
            for name in ("b", "bn.gamma", "bn.beta"):
                yield f"{prefix}.{name}", (width,), True, False
            for name in ("bn.running_mean", "bn.running_var"):
                yield f"{prefix}.{name}", (width,), False, False
        if with_shortcut:
            yield f"block{bi}.shortcut.W", (width, in_dim), True, True
        in_dim = width
    yield "head.W", (1, in_dim), True, True
    yield "head.b", (1,), True, False


@dataclass(eq=False)
class ResSurvParams:
    """The network: its architecture, and its tensors in two vectors of one
    float dtype, in which its layers compute, laid out by `_layout`: `flat`
    holds the learnable tensors, `stats` the batch-norm running statistics
    (zeros where not given, float64 unless `flat` is given in another).
    `flat` holds the weight matrices, which L2 / weight decay act on, as
    `flat[:n_decayed]`, then the other learnable tensors, each in table order.

    `blocks` and `output_head` are views into the two vectors: writing
    through a vector changes the tensors and vice versa. `n_updates` counts
    the train-mode forward passes, each of which updated every batch norm's
    running statistics once.
    """

    n_features: int
    block_widths: list[int]
    dense_layers_per_block: int
    activation_kind: str
    dropout_rate: float
    with_shortcut: bool = True
    flat: np.ndarray | None = field(default=None, repr=False)
    stats: np.ndarray | None = field(default=None, repr=False)
    n_updates: int = 0
    blocks: list[ResBlockParams] = field(init=False, repr=False)
    output_head: DenseLayerParams = field(init=False, repr=False)

    def __post_init__(self):
        check_field_types(self)
        if self.activation_kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.activation_kind!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        widths = self.block_widths
        if (not widths or self.n_features < 1
                or any(isinstance(w, bool) or not isinstance(w, Integral) or w < 1
                       for w in widths)):
            raise ValueError("widths and feature count must be positive")
        if self.dense_layers_per_block < 1:
            raise ValueError("need at least one dense layer per block")
        if self.n_updates < 0:
            raise ValueError(f"n_updates must be >= 0, not {self.n_updates}")
        # plain ints, so that a checkpoint header can hold them
        self.n_features = int(self.n_features)
        self.block_widths = [int(w) for w in widths]
        self.dense_layers_per_block = int(self.dense_layers_per_block)

        sizes = [0, 0, 0]   # running statistics, other learnable, weight matrices
        for _, shape, learnable, decayed in self._table():
            sizes[learnable + decayed] += math.prod(shape)
        # not a field: check_field_types would read it before it is set
        self.n_decayed = sizes[2]
        if self.flat is None:
            self.flat = np.zeros(sizes[1] + sizes[2])
        if self.stats is None:
            self.stats = np.zeros(sizes[0], self.flat.dtype)
        views = {name: vec[where].reshape(shape) for name, vec, where, shape, _ in _placed(self)}

        def dense(prefix):
            return DenseLayerParams(views[f"{prefix}.W"], views.get(f"{prefix}.b"))

        self.blocks = []
        for bi in range(len(self.block_widths)):
            layers = [f"block{bi}.layer{li}" for li in range(self.dense_layers_per_block)]
            norms = [BatchNormParams(*(views[f"{layer}.bn.{name}"] for name in
                                       ("gamma", "beta", "running_mean", "running_var")))
                     for layer in layers]
            shortcut = dense(f"block{bi}.shortcut") if self.with_shortcut else None
            self.blocks.append(ResBlockParams([dense(layer) for layer in layers], norms,
                                              shortcut))
        self.output_head = dense("head")

    def _table(self):
        return _layout(self.n_features, self.block_widths,
                       self.dense_layers_per_block, self.with_shortcut)

    def __reduce__(self):
        # pickle and deepcopy rebuild the views over the clone's own vectors
        return (type(self), (self.n_features, self.block_widths, self.dense_layers_per_block,
                             self.activation_kind, self.dropout_rate, self.with_shortcut,
                             self.flat, self.stats, self.n_updates))

    def copy(self, dtype=None) -> "ResSurvParams":
        """Independent snapshot: copies of the two vectors, cast to `dtype`
        when given, plus the update count."""
        cls, args = self.__reduce__()
        return cls(*args[:6], np.array(self.flat, dtype), np.array(self.stats, dtype),
                   self.n_updates)


def _placed(params: ResSurvParams):
    """(name, vector, slice, shape, decayed) of every tensor, in table order:
    where in `params.flat` or `params.stats` it lives. Weight matrices fill
    `flat` from 0, the other learnable tensors from `params.n_decayed`."""
    pos = [0, params.n_decayed, 0]   # running statistics, other learnable, weight matrices
    for name, shape, learnable, decayed in params._table():
        size, group = math.prod(shape), learnable + decayed
        vec = params.flat if learnable else params.stats
        yield name, vec, slice(pos[group], pos[group] + size), shape, decayed
        pos[group] += size


def init_params(
    n_features: int,
    block_widths: list[int],
    dense_layers_per_block: int,
    activation_kind: str,
    dropout_rate: float,
    seed: int,
    with_shortcut: bool = True,
) -> ResSurvParams:
    """Fresh parameters: dense weights ~ uniform(-L, L) with
    L = sqrt(6 / (fan_in + fan_out)), drawn in table order, so deterministic
    for a fixed seed; zero biases, identity batch norms.
    """
    params = ResSurvParams(n_features, block_widths, dense_layers_per_block,
                           activation_kind, dropout_rate, with_shortcut)
    rng = np.random.default_rng(seed)
    for name, vec, where, shape, decayed in _placed(params):
        if decayed:   # a weight matrix
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            vec[where] = rng.uniform(-limit, limit, size=shape).ravel()
        elif name.endswith((".bn.gamma", ".bn.running_var")):
            vec[where] = 1.0
    return params


def to_flat(params: ResSurvParams) -> np.ndarray:
    """A copy of the parameter vector."""
    return params.flat.copy()


def set_flat(params: ResSurvParams, flat: np.ndarray) -> None:
    """Overwrite the parameter vector (and so every tensor) in place."""
    flat = np.asarray(flat, dtype=np.float64).ravel()
    if flat.size != params.flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, expected {params.flat.size}")
    params.flat[...] = flat


def flat_layout(params: ResSurvParams) -> list[tuple[str, slice, tuple]]:
    """(name, slice into the flat vector, shape) for every learnable tensor,
    in vector order (the weight matrices first)."""
    return sorted(((name, where, shape) for name, vec, where, shape, _ in _placed(params)
                   if vec is params.flat), key=lambda entry: entry[1].start)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def activation_forward(z: np.ndarray, kind: str,
                       out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise nonlinearity, written into `out` (a new array when None;
    tanh may be given `z` itself). Returns (output, cache for backward):
    tanh's backward reads its output, relu's and selu's their input. selu
    builds SCALE * where(z > 0, z, ALPHA * expm1(z)) in one array with the
    operations of that formula, so the result is bit-identical to it."""
    if kind == "tanh":
        out = np.tanh(z, out=out)
        return out, out
    if kind == "relu":
        return np.maximum(z, 0.0, out=out), z
    if kind == "selu":
        out = np.expm1(z, out=out)
        out *= SELU_ALPHA
        np.copyto(out, z, where=z > 0)
        out *= SELU_SCALE
        return out, z
    raise ValueError(f"unknown activation {kind!r}")


def activation_backward(grad_out: np.ndarray, cache: np.ndarray, kind: str,
                        out: np.ndarray | None = None) -> np.ndarray:
    """grad_out times the activation's derivative at the cached values,
    written into `out` (a new array when None; never `grad_out`). It is
    built in place in that one array, with the operations of the plain
    formulas in their order (tanh: grad_out * (1 - out²); relu: grad_out *
    (z > 0); selu: grad_out * (SCALE * where(z > 0, 1, ALPHA * exp(z)))), so
    the result is bit-identical to them."""
    d = np.empty_like(grad_out) if out is None else out
    if kind == "tanh":
        np.multiply(cache, cache, out=d)
        np.subtract(1.0, d, out=d)
        d *= grad_out
        return d
    if kind == "relu":
        np.greater(cache, 0.0, out=d)
        d *= grad_out
        return d
    if kind == "selu":
        np.exp(cache, out=d)
        d *= SELU_ALPHA
        np.copyto(d, 1.0, where=cache > 0)
        d *= SELU_SCALE
        d *= grad_out
        return d
    raise ValueError(f"unknown activation {kind!r}")


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

def _column_sums(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=0) of an (n, width) array, bit for bit. On a C-contiguous
    array of width >= 2, einsum adds the rows into the sums one after
    another, as numpy's axis-0 reduce does, and is several times faster
    than it; at width 1 the reduce sums the column pairwise, so there, and
    on any other layout, the reduce itself runs."""
    if x.shape[1] < 2 or not x.flags.c_contiguous:
        return x.sum(axis=0)
    return np.einsum("ij->j", x)


@dataclass
class BatchNormCache:
    xhat: np.ndarray
    inv_std: np.ndarray
    gamma: np.ndarray


def batchnorm_forward(
    inputs: np.ndarray,
    params: BatchNormParams,
    mode: str,
    first: bool = False,
    xhat: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, BatchNormCache | None]:
    """Normalize each feature across the batch (train) or by running
    statistics (eval); then scale by gamma and shift by beta. Train mode
    folds the batch statistics into the running ones (copies them on the
    network's `first` train-mode pass); eval mode leaves them.

    Train mode uses the population (divide-by-n) batch variance and needs a
    batch of at least 2 samples. The inputs are centred once into `xhat`
    (which may be `inputs` itself); the centred array gives the variance as
    sum((z - mean)²) / n, which is how numpy's `var` computes it, and then
    becomes `xhat` in place. The output goes into `out`. Arrays given as
    None are allocated, and the result is bit-identical to the unfused
    formulas either way. Eval mode allocates its output.
    """
    if mode == "train":
        n = inputs.shape[0]
        if n < 2:
            raise ValueError("train-mode batch normalization needs a batch of >= 2")
        mean = _column_sums(inputs) / n
        xhat = np.subtract(inputs, mean, out=xhat)
        sq = np.multiply(xhat, xhat, out=out)
        var = _column_sums(sq) / n
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat *= inv_std
        if first:
            params.running_mean[...] = mean
            params.running_var[...] = var
        else:
            m = BN_MOMENTUM
            params.running_mean[...] = (1.0 - m) * params.running_mean + m * mean
            params.running_var[...] = (1.0 - m) * params.running_var + m * var
        return _scale_shift(xhat, params, out=sq), BatchNormCache(xhat, inv_std, params.gamma)
    if mode == "eval":
        inv_std = 1.0 / np.sqrt(params.running_var + BN_EPSILON)
        out = inputs - params.running_mean
        out *= params.gamma
        out *= inv_std
        out += params.beta_shift
        return out, None
    raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")


def _scale_shift(xhat: np.ndarray, params: BatchNormParams, out: np.ndarray | None) -> np.ndarray:
    """gamma * xhat + beta in `out`: batch norm's train-mode output, which
    the backward pass rebuilds here from the kept `xhat`, bit for bit."""
    out = np.multiply(xhat, params.gamma, out=out)
    return np.add(out, params.beta_shift, out=out)


def batchnorm_backward(
    grad_out: np.ndarray,
    cache: BatchNormCache,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients through the batch statistics (mean and variance both
    depend on the inputs). Returns (grad_inputs, grad_gamma, grad_beta).

    grad_inputs = (inv_std / n) * (n * g - sum(g) - xhat * sum(g * xhat))
    with g = grad_out * gamma, evaluated in that order in two full-size
    arrays, so it is bit-identical to the formula written out: grad_inputs
    goes into `out` (which may be `grad_out` itself), the products into
    `scratch`. Arrays given as None are allocated."""
    n = grad_out.shape[0]
    scratch = np.multiply(grad_out, cache.xhat, out=scratch)
    grad_gamma = _column_sums(scratch)
    grad_beta = _column_sums(grad_out)
    grad_in = np.multiply(grad_out, cache.gamma, out=out)
    sum_g = _column_sums(grad_in)
    np.multiply(grad_in, cache.xhat, out=scratch)
    sum_g_xhat = _column_sums(scratch)
    grad_in *= n
    grad_in -= sum_g
    np.multiply(cache.xhat, sum_g_xhat, out=scratch)
    grad_in -= scratch
    grad_in *= cache.inv_std / n
    return grad_in, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------

# a dropout mask reads its generator's raw 64-bit words this many at a time,
# so that a mask of any size allocates one chunk of words (128 KB)
MASK_CHUNK_WORDS = 1 << 14


class DropoutStream:
    """Counter-based deterministic dropout masks.

    Masks are keyed by (seed, epoch, block, layer), so re-running a forward
    pass for the same epoch reproduces them exactly, so training runs are
    reproducible and gradient checks see frozen masks for free.

    A mask thresholds, as integers, the raw words of the PCG64 generator
    seeded with its key, and equals the float-draw mask
    `np.random.default_rng(SeedSequence(key)).random(shape, np.float32) >=
    np.float32(rate)` bit for bit, at half its cost, whatever the precision
    of the network it drops units of. It reads the words in chunks of
    `MASK_CHUNK_WORDS`, straight into the mask's entries in order.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def mask(self, shape, rate: float, epoch: int, block: int, layer: int,
             out: np.ndarray | None = None) -> np.ndarray:
        """Boolean keep mask: True where a unit survives (probability 1 - rate),
        in `out` (allocated when None). It is `rng.random(shape, np.float32)
        >= np.float32(rate)` for the key's generator `rng`: numpy draws a
        float32 from one 32-bit half of a 64-bit word, low half first, as
        (u32 >> 8) * 2**-24, so the draw is >= the rate exactly when the
        half is >= ceil(rate * 2**24) << 8."""
        if out is None:
            out = np.empty(shape, bool)
        rate = float(np.float32(rate))
        if not rate < 1.0:   # no draw reaches 1.0, nor a rate that rounds to it
            out[...] = False
            return out
        threshold = math.ceil(max(rate, 0.0) * 2**24) << 8
        bits = np.random.PCG64(
            np.random.SeedSequence([self.seed, int(epoch), int(block), int(layer)]))
        # a view of a C-contiguous `out`; any other is filled from a copy
        flat = out.reshape(-1)
        for start in range(0, flat.size, 2 * MASK_CHUNK_WORDS):
            part = flat[start:start + 2 * MASK_CHUNK_WORDS]
            # little-endian 64-bit words read as 32-bit ones put each low half first
            halves = bits.random_raw(-(-part.size // 2)).astype("<u8", copy=False).view("<u4")
            np.greater_equal(halves[:part.size], threshold, out=part)
        if not np.may_share_memory(flat, out):
            out[...] = flat.reshape(out.shape)
        return out


def _apply_keep(x: np.ndarray, keep: np.ndarray, rate: float,
                out: np.ndarray | None = None) -> np.ndarray:
    """Inverted dropout with the boolean keep mask, forward on activations
    and backward on their gradients: x * keep / (1 - rate), in `out` (a new
    array when None; never `x`). Multiplying by the 0/1 mask first and by
    the scale second gives exactly x * m for the float mask m = keep / (1 -
    rate), signed zeros included. (Copying the mask into a float array is
    faster than letting the multiply cast the booleans.)"""
    if out is None:
        out = np.empty(keep.shape, x.dtype)
    np.copyto(out, keep)
    out *= x
    out *= 1.0 / (1.0 - rate)
    return out


# ---------------------------------------------------------------------------
# Whole network
# ---------------------------------------------------------------------------

@dataclass
class LayerCache:
    """A dense layer's record for the backward pass: its batch-norm cache
    and dropout mask. It keeps no activation: `act` is None, and so is
    `a_in`, the layer's input, but for a block's first layer (the block's
    input). The backward pass rebuilds them from `bn.xhat`, gamma, beta
    and the mask of the layer and of the layer below."""

    a_in: np.ndarray | None
    bn: BatchNormCache
    act: np.ndarray | None
    mask: np.ndarray | None


@dataclass
class BlockCache:
    x: np.ndarray
    layers: list[LayerCache]


@dataclass
class ModelCache:
    """A train-mode forward pass's record for the backward pass, and the
    workspace of one fit.

    `blocks` and `head_in` are the arrays the backward pass reads. `arrays`
    holds, by name, every array the two passes write into: those kept for
    backward (per dense layer its batch-norm `xhat` and its dropout mask;
    per block its output) and a few rotating scratch arrays for the
    temporaries, every activation among them. A forward pass handed this
    cache writes the next epoch into the same arrays, and the backward
    pass takes its temporaries from them too, so a fit holds one epoch of
    its record and reuses its memory every epoch."""

    blocks: list[BlockCache] = field(default_factory=list)
    head_in: np.ndarray | None = None
    arrays: dict = field(default_factory=dict, repr=False)
    dtype: type = np.float64

    def array(self, key, shape: tuple, dtype=None) -> np.ndarray:
        """The workspace array named `key`; made anew unless it has `shape`
        and `dtype`, by default the float dtype of the latest forward pass."""
        dtype = self.dtype if dtype is None else dtype
        arr = self.arrays.get(key)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = self.arrays[key] = np.empty(shape, dtype)
        return arr

    def scratch(self, shape: tuple, *busy: np.ndarray) -> np.ndarray:
        """A float scratch array of `shape` that is none of `busy`."""
        for i in count():
            arr = self.array(("scratch", shape[1:], i), shape)
            if not any(arr is b for b in busy):
                return arr


def model_forward(
    X: np.ndarray,
    params: ResSurvParams,
    mode: str = "eval",
    stream: DropoutStream | None = None,
    epoch: int = 0,
    cache: ModelCache | None = None,
) -> tuple[np.ndarray, ModelCache | None]:
    """Risk scores h(x), one scalar per input row.

    Each block computes y = F(x) + W_s x, with F = [dense -> batch norm ->
    activation -> dropout] per dense layer. Eval mode uses running
    batch-norm statistics and disables dropout, so predictions are
    deterministic and independent of batch composition, and builds no
    caches. Train mode updates the running statistics (and counts the
    pass in `params.n_updates`), drops units with
    the masks of `stream` (needed when the dropout rate is above 0), and
    returns the cache the backward pass needs: `cache`, written over, when
    an earlier train-mode forward's cache is handed in, else a new one.
    """
    X = np.asarray(X, dtype=params.flat.dtype)
    if X.ndim != 2 or X.shape[1] != params.n_features:
        raise ValueError(
            f"input of shape {X.shape} does not match model input dim {params.n_features}"
        )
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    kind, rate = params.activation_kind, params.dropout_rate
    drop = train and rate > 0.0
    if drop and stream is None:
        raise ValueError("train-mode dropout requires a DropoutStream")

    # every array goes into the workspace in train mode; eval mode lets
    # numpy allocate (out=None)
    n = X.shape[0]
    ws = (ModelCache() if cache is None else cache) if train else None
    if ws is not None:
        ws.dtype = X.dtype
    first = params.n_updates == 0

    def kept(key, width: int, dtype=None):
        return None if ws is None else ws.array(key, (n, width), dtype)

    def scratch(width: int, *busy):
        return None if ws is None else ws.scratch((n, width), *busy)

    block_caches: list[BlockCache] = []
    x = X
    for bi, block in enumerate(params.blocks):
        layer_caches: list[LayerCache] = []
        a = x
        last = len(block.dense_layers) - 1
        for li, (dense, bn) in enumerate(zip(block.dense_layers, block.batch_norms)):
            width = dense.W.shape[0]
            z = np.matmul(a, dense.W.T, out=kept(("xhat", bi, li), width))
            z += dense.b
            # the layer's output: a temporary that the next layer or the
            # shortcut sum reads, kept only as the next block's input. Batch
            # norm, the activation (tanh's in place) and dropout write in
            # turn, the one k writes before the last into bufs[k % 2]
            out = (kept(("out", bi, li), width) if li == last and block.shortcut is None
                   else scratch(width))
            writes = (kind != "tanh") + drop
            bufs = [out, scratch(width, out) if writes else None]
            bn_out, bn_cache = batchnorm_forward(z, bn, mode, first, xhat=z, out=bufs[writes % 2])
            act, _ = activation_forward(bn_out, kind, out=bn_out if kind == "tanh" else bufs[drop])
            mask = (stream.mask(act.shape, rate, epoch, bi, li,
                                out=kept(("mask", bi, li), width, bool))
                    if drop else None)
            if train:
                layer_caches.append(LayerCache(None if li else x, bn_cache, None, mask))
            a = _apply_keep(act, mask, rate, out=out) if drop else act
        if train:
            block_caches.append(BlockCache(x, layer_caches))
        if block.shortcut is not None:
            y = np.matmul(x, block.shortcut.W.T, out=kept(("y", bi), width))
            a = np.add(y, a, out=y)
        x = a
    head = params.output_head
    h = (x @ head.W.T + head.b).ravel()
    if not train:
        return h, None
    params.n_updates += 1
    ws.blocks, ws.head_in = block_caches, x
    return h, ws


def model_backward(
    grad_h: np.ndarray, params: ResSurvParams, cache: ModelCache
) -> np.ndarray:
    """Exact chain rule from per-sample score gradients down to every
    learnable tensor; returns the gradient in flat-view layout, in float64,
    the optimizer's precision, whatever the network's dtype: each tensor's
    gradient, computed in the network's dtype, is written straight into the
    float64 vector, exactly. The vector belongs to the workspace of `cache`,
    so the next backward pass with that cache writes over it.

    Backpropagation meets the tensors in reverse traversal order (head b
    and W; then per block from the last: the shortcut W, and per layer from
    the last: beta, gamma, b, W), so each gradient is written just below
    the previous one of its group: the weight matrices' down from
    `params.n_decayed`, the others' down from the vector's end. The (n,
    width) gradients rotate through the scratch arrays of `cache`, and so
    does each layer's activation cache, rebuilt once, bit for bit, from its
    `xhat`, gamma and beta by the forward pass's calls: for the weight
    gradient of the layer above, whose input they rebuild from it and the
    mask, or as a block's last layer's turn starts. Nothing reads the
    gradient with respect to the network input, so it is not computed.
    """
    grad_h = np.asarray(grad_h, dtype=params.flat.dtype).reshape(-1, 1)
    grads = cache.array("grads", params.flat.shape, np.float64)
    ends = [grads.size, params.n_decayed]   # other tensors, weight matrices
    n = grad_h.shape[0]
    kind, rate = params.activation_kind, params.dropout_rate

    def put(*parts: np.ndarray) -> None:
        for g in parts:   # the 2-D gradients are the weight matrices'
            group = g.ndim == 2
            grads[ends[group] - g.size : ends[group]] = g.ravel()
            ends[group] -= g.size

    def rebuilt(bn: BatchNormParams, lc: LayerCache, *busy) -> np.ndarray:
        # tanh's backward reads its output, relu's and selu's their input
        act = _scale_shift(lc.bn.xhat, bn, cache.scratch(lc.bn.xhat.shape, *busy))
        return activation_forward(act, kind, out=act)[0] if kind == "tanh" else act

    head_W = params.output_head.W
    put(_column_sums(grad_h), grad_h.T @ cache.head_in)
    grad_y = np.matmul(grad_h, head_W, out=cache.scratch((n, head_W.shape[1])))
    for bi, (block, bc) in reversed(list(enumerate(zip(params.blocks, cache.blocks)))):
        # the main-channel chain, plus the shortcut term W_s^T grad_y
        if block.shortcut is not None:
            put(grad_y.T @ bc.x)
        grad = grad_y
        act = rebuilt(block.batch_norms[-1], bc.layers[-1], grad_y)
        for li, (dense, lc) in reversed(list(enumerate(zip(block.dense_layers, bc.layers)))):
            if lc.mask is not None:
                grad = _apply_keep(grad, lc.mask, rate,
                                   out=cache.scratch(grad.shape, grad_y, grad, act))
            grad = activation_backward(grad, act, kind,
                                       out=cache.scratch(grad.shape, grad_y, grad, act))
            grad, g_gamma, g_beta = batchnorm_backward(
                grad, lc.bn, out=grad, scratch=cache.scratch(grad.shape, grad_y, grad))
            a_in = bc.x
            if li:   # the layer below's output, from its activation cache, kept for its turn
                act = a_in = rebuilt(block.batch_norms[li - 1], bc.layers[li - 1], grad_y, grad)
                if kind != "tanh":
                    a_in, _ = activation_forward(
                        act, kind, out=cache.scratch(act.shape, grad_y, grad, act))
                if bc.layers[li - 1].mask is not None:
                    a_in = _apply_keep(a_in, bc.layers[li - 1].mask, rate,
                                       out=cache.scratch(act.shape, grad_y, grad, act, a_in))
            put(g_beta, g_gamma, _column_sums(grad), grad.T @ a_in)
            if bi or li:   # not down to the network input
                grad = np.matmul(grad, dense.W,
                                 out=cache.scratch((n, dense.W.shape[1]), grad_y, grad, act))
        if bi and block.shortcut is not None:
            grad += np.matmul(grad_y, block.shortcut.W,
                              out=cache.scratch(grad.shape, grad_y, grad))
        grad_y = grad
    return grads


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(
    path,
    params: ResSurvParams,
    standardization: StandardizationParams | None = None,
    extra: dict | None = None,
) -> None:
    """Write a single self-describing checkpoint file.

    The format is deliberately bespoke: a magic line, a JSON header (layout,
    the batch-norm constants and update count, the standardization applied
    at training time, `extra`, an array manifest), then the raw row-major
    float64 little-endian tensor data. A float32 network's values are
    stored exactly, so it loads back as a float64 network of the same
    values. Unlike a zip-based container it embeds no timestamps, so
    identical state produces identical bytes. `extra` is written as its
    JSON round trip (string keys, lists for tuples), which is what
    `load_checkpoint` gives back. A standardization of another width than
    the network's input, or `extra` keys that are equal as JSON strings (1
    and "1"), raise ValueError before the file is opened.
    """
    text = json.dumps(extra)
    extra = json.loads(text)
    if json.dumps(extra) != text:
        raise ValueError("extra has keys that are equal as JSON strings")
    blob = json.dumps(_header(params, standardization, extra), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for _, vec, where, _, _ in _placed(params):
            fh.write(np.ascontiguousarray(vec[where], dtype="<f8").tobytes())


def _header(params: ResSurvParams, standardization: StandardizationParams | None,
            extra: dict | None) -> dict:
    if standardization is not None and standardization.means.size != params.n_features:
        raise ValueError(f"standardization of {standardization.means.size} features "
                         f"for a network of {params.n_features} input features")
    return {
        "format": CHECKPOINT_FORMAT,
        "activation_kind": params.activation_kind,
        "dropout_rate": params.dropout_rate,
        "n_features": params.n_features,
        "block_widths": params.block_widths,
        "dense_layers_per_block": params.dense_layers_per_block,
        "with_shortcut": params.with_shortcut,
        "batch_norm": {"epsilon": BN_EPSILON, "momentum": BN_MOMENTUM,
                       "n_updates": params.n_updates},
        "standardization": (
            None
            if standardization is None
            else {
                "means": standardization.means.tolist(),
                "stddevs": standardization.stddevs.tolist(),
            }
        ),
        "extra": extra,
        "arrays": [{"name": name, "shape": list(shape)} for name, shape, _, _ in params._table()],
    }


def load_checkpoint(
    path,
) -> tuple[ResSurvParams, StandardizationParams | None, dict | None]:
    """Read a checkpoint written by `save_checkpoint`.

    A file loads only if it is the bytes `save_checkpoint` writes for the
    network it describes; anything else raises one `ValueError` naming the
    file (and the array or header key at fault, where there is one). Three
    guards run before the network is built, so that a small file cannot
    make this allocate a large network: the header length field is compared
    with the bytes left in the file, the array manifest with the tensor
    table of the architecture the header names, and the size of the array
    data with the manifest. Then the header must be, byte for byte, the one
    `save_checkpoint` writes for the network built from it."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        header_len = int.from_bytes(fh.read(8), "little")
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        try:
            if header_len > left:
                raise ValueError(f"{left} of {header_len} bytes")
            text = fh.read(header_len).decode("utf-8")
            header = json.loads(text)
        except ValueError as err:   # JSONDecodeError and UnicodeDecodeError too
            raise ValueError(f"{path}: unreadable checkpoint header: {err}") from None
        fmt = header.get("format") if isinstance(header, dict) else None
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: unsupported format {fmt!r}")
        try:
            params, std, extra = _network_of(header, text, left - header_len)
        except _ArrayBytesError as err:
            raise ValueError(f"{path}: {err}") from None
        except (KeyError, TypeError, ValueError) as err:
            what = f"missing key {err}" if isinstance(err, KeyError) else err
            raise ValueError(f"{path}: checkpoint header does not describe a "
                             f"network: {what}") from None
        for _, vec, where, _, _ in _placed(params):
            vec[where] = np.frombuffer(fh.read(8 * (where.stop - where.start)), dtype="<f8")
    return params, std, extra


class _ArrayBytesError(Exception):
    """The bytes after a checkpoint header are not the arrays it lists."""


def _network_of(header: dict, text: str, data_bytes: int):
    """(params, standardization, extra) of the checkpoint header `header`,
    parsed from `text` and followed by `data_bytes` bytes of array data: the
    network with its update count set and both vectors zero. Raises
    `_ArrayBytesError` where the data is not the size of the arrays the
    manifest lists, and KeyError, TypeError or ValueError where the
    manifest is not the architecture's or `text` is not what
    `save_checkpoint` writes for that network."""
    n_features, widths, depth, shortcut = (header[key] for key in (
        "n_features", "block_widths", "dense_layers_per_block", "with_shortcut"))
    manifest = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
    table = (entry[:2] for entry in _layout(n_features, widths, depth, shortcut))
    for i, (got, want) in enumerate(zip_longest(manifest, table)):
        if got != want:
            raise ValueError(f"array manifest entry {i} is {got}, expected {want}")
    for name, shape in manifest:
        size = 8 * math.prod(shape)
        if size > data_bytes:
            raise _ArrayBytesError(f"array {name!r} is truncated ({data_bytes} of {size} bytes)")
        data_bytes -= size
    if data_bytes:
        raise _ArrayBytesError(f"unexpected bytes after the last array {name!r}")
    norms = header["batch_norm"]   # any other shape fails the comparison below
    n_updates = norms.get("n_updates", 0) if isinstance(norms, dict) else 0
    params = ResSurvParams(n_features, widths, depth, header["activation_kind"],
                           header["dropout_rate"], shortcut, n_updates=n_updates)
    std = header["standardization"]
    if std is not None:
        std = StandardizationParams(np.array(std["means"]), np.array(std["stddevs"]))
    written = _header(params, std, header["extra"])
    expected = json.dumps(written, sort_keys=True)
    if text != expected:
        # name the first key whose value differs, else the header's spelling
        got, what = text, "header"
        for key in sorted(header.keys() | written.keys()):
            pair = [json.dumps(h.get(key, "<absent>"), sort_keys=True) for h in (header, written)]
            if pair[0] != pair[1]:
                (got, expected), what = pair, key
                break
        at = len(os.path.commonprefix([got, expected]))
        raise ValueError(f"{what} has {got[at:at + 40]!r} at character {at}, where this "
                         f"network writes {expected[at:at + 40]!r}")
    return params, std, header["extra"]
