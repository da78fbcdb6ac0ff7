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
from dataclasses import dataclass, field, replace
from itertools import count, zip_longest
from typing import NamedTuple

import numpy as np

from .data import StandardizationParams

SELU_ALPHA = 1.6732632423543772
SELU_SCALE = 1.0507009873554805

ACTIVATION_KINDS = ("tanh", "selu", "relu")

# every batch norm adds BN_EPSILON to the variance it divides by, and updates
# its running statistics as an exponential moving average with BN_MOMENTUM
BN_EPSILON = 1e-5
BN_MOMENTUM = 0.1

CHECKPOINT_MAGIC = b"RESSURVCKPT1\n"
CHECKPOINT_FORMAT = "ressurv-checkpoint-v1"


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
    n_updates: int = 0

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


@dataclass
class ResSurvParams:
    """All learnable state of the network plus its architectural knobs.

    Construction packs every learnable tensor into one float64 vector,
    `flat`, in the traversal order of `flat_layout`, and rebinds each tensor
    as a view into it: writing through `flat` changes the tensors and vice
    versa. Batch-norm running statistics stay outside the vector.
    """

    blocks: list[ResBlockParams]
    output_head: DenseLayerParams
    activation_kind: str
    dropout_rate: float
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        learnable = [t for t in _tensors(self) if t.learnable]
        self.flat = np.concatenate([t.array.ravel() for t in learnable], dtype=np.float64)
        for t, (_, where, shape) in zip(learnable, flat_layout(self)):
            setattr(t.owner, t.attr, self.flat[where].reshape(shape))

    @property
    def in_dim(self) -> int:
        return self.blocks[0].dense_layers[0].W.shape[1]

    def __reduce__(self):
        # pickle and deepcopy rebuild through construction, so the copy's
        # tensors are views into its own fresh `flat`
        return (type(self), (self.blocks, self.output_head,
                             self.activation_kind, self.dropout_rate))

    def copy(self) -> "ResSurvParams":
        """Independent snapshot: a copy of the parameter vector plus the
        batch-norm running statistics and update counts; used to keep the
        best epoch during training."""
        # the new containers share this network's tensors only until
        # construction packs them into a fresh vector
        blocks = [
            ResBlockParams(
                [replace(d) for d in block.dense_layers],
                [replace(bn, running_mean=bn.running_mean.copy(),
                         running_var=bn.running_var.copy()) for bn in block.batch_norms],
                None if block.shortcut is None else replace(block.shortcut),
            )
            for block in self.blocks
        ]
        return ResSurvParams(blocks, replace(self.output_head),
                             self.activation_kind, self.dropout_rate)


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
    L = sqrt(6 / (fan_in + fan_out)), zero biases, identity batch norms.
    Deterministic for a fixed seed (fixed traversal order).
    """
    if activation_kind not in ACTIVATION_KINDS:
        raise ValueError(f"unknown activation {activation_kind!r}")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError("dropout_rate must lie in [0, 1)")
    if not block_widths or any(w < 1 for w in block_widths) or n_features < 1:
        raise ValueError("widths and feature count must be positive")
    if dense_layers_per_block < 1:
        raise ValueError("need at least one dense layer per block")

    rng = np.random.default_rng(seed)

    def glorot(out_dim: int, in_dim: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        return rng.uniform(-limit, limit, size=(out_dim, in_dim))

    blocks = []
    in_dim = n_features
    for width in block_widths:
        dense_layers = []
        batch_norms = []
        layer_in = in_dim
        for _ in range(dense_layers_per_block):
            dense_layers.append(DenseLayerParams(glorot(width, layer_in), np.zeros(width)))
            batch_norms.append(BatchNormParams.identity(width))
            layer_in = width
        shortcut = DenseLayerParams(glorot(width, in_dim), None) if with_shortcut else None
        blocks.append(ResBlockParams(dense_layers, batch_norms, shortcut))
        in_dim = width
    head = DenseLayerParams(glorot(1, in_dim), np.zeros(1))
    return ResSurvParams(blocks, head, activation_kind, dropout_rate)


# ---------------------------------------------------------------------------
# The parameter traversal and the flat vector
# ---------------------------------------------------------------------------

class _Tensor(NamedTuple):
    name: str
    owner: object
    attr: str
    decayed: bool     # weight-matrix entries, the only ones L2 / weight decay touch
    learnable: bool   # False for batch-norm running statistics

    @property
    def array(self) -> np.ndarray:
        return getattr(self.owner, self.attr)


def _tensors(params: ResSurvParams):
    """The one fixed traversal: per block, per layer W, b, gamma, beta,
    running mean, running var; then the shortcut W; finally head W, head b.
    The learnable entries, in this order, make up the flat vector; all of
    them, in this order, make up a checkpoint."""
    for bi, block in enumerate(params.blocks):
        for li, (dense, bn) in enumerate(zip(block.dense_layers, block.batch_norms)):
            prefix = f"block{bi}.layer{li}"
            yield _Tensor(f"{prefix}.W", dense, "W", True, True)
            yield _Tensor(f"{prefix}.b", dense, "b", False, True)
            yield _Tensor(f"{prefix}.bn.gamma", bn, "gamma", False, True)
            yield _Tensor(f"{prefix}.bn.beta", bn, "beta_shift", False, True)
            yield _Tensor(f"{prefix}.bn.running_mean", bn, "running_mean", False, False)
            yield _Tensor(f"{prefix}.bn.running_var", bn, "running_var", False, False)
        if block.shortcut is not None:
            yield _Tensor(f"block{bi}.shortcut.W", block.shortcut, "W", True, True)
    yield _Tensor("head.W", params.output_head, "W", True, True)
    yield _Tensor("head.b", params.output_head, "b", False, True)


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
    """(name, slice into the flat vector, shape) for every learnable tensor."""
    layout = []
    pos = 0
    for t in _tensors(params):
        if t.learnable:
            layout.append((t.name, slice(pos, pos + t.array.size), t.array.shape))
            pos += t.array.size
    return layout


def decay_mask(params: ResSurvParams) -> np.ndarray:
    """True on dense-layer and shortcut weight-matrix entries; biases and
    batch-norm scale/shift are never penalized."""
    return np.concatenate([
        np.full(t.array.size, t.decayed, dtype=bool) for t in _tensors(params) if t.learnable
    ])


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

@dataclass
class BatchNormCache:
    xhat: np.ndarray
    inv_std: np.ndarray
    gamma: np.ndarray


def batchnorm_forward(
    inputs: np.ndarray,
    params: BatchNormParams,
    mode: str,
    xhat: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, BatchNormCache | None]:
    """Normalize each feature across the batch (train) or by running
    statistics (eval); then scale by gamma and shift by beta. Train mode
    folds the batch statistics into the running ones; eval mode leaves them.

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
        mean = inputs.mean(axis=0)
        xhat = np.subtract(inputs, mean, out=xhat)
        sq = np.multiply(xhat, xhat, out=out)
        var = sq.sum(axis=0) / n
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat *= inv_std
        if params.n_updates == 0:
            params.running_mean[...] = mean
            params.running_var[...] = var
        else:
            m = BN_MOMENTUM
            params.running_mean[...] = (1.0 - m) * params.running_mean + m * mean
            params.running_var[...] = (1.0 - m) * params.running_var + m * var
        params.n_updates += 1
        out = np.multiply(xhat, params.gamma, out=sq)
        out += params.beta_shift
        return out, BatchNormCache(xhat, inv_std, params.gamma)
    if mode == "eval":
        inv_std = 1.0 / np.sqrt(params.running_var + BN_EPSILON)
        out = inputs - params.running_mean
        out *= params.gamma
        out *= inv_std
        out += params.beta_shift
        return out, None
    raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")


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
    grad_gamma = scratch.sum(axis=0)
    grad_beta = grad_out.sum(axis=0)
    grad_in = np.multiply(grad_out, cache.gamma, out=out)
    sum_g = grad_in.sum(axis=0)
    np.multiply(grad_in, cache.xhat, out=scratch)
    sum_g_xhat = scratch.sum(axis=0)
    grad_in *= n
    grad_in -= sum_g
    np.multiply(cache.xhat, sum_g_xhat, out=scratch)
    grad_in -= scratch
    grad_in *= cache.inv_std / n
    return grad_in, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------

class DropoutStream:
    """Counter-based deterministic dropout masks.

    Masks are keyed by (seed, epoch, block, layer), so re-running a forward
    pass for the same epoch reproduces them exactly, so training runs are
    reproducible and gradient checks see frozen masks for free.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def mask(self, shape, rate: float, epoch: int, block: int, layer: int,
             out: np.ndarray | None = None,
             draws: np.ndarray | None = None) -> np.ndarray:
        """Boolean keep mask: True where a unit survives (probability 1 - rate).
        The uniform draws go into the float array `draws` and the mask into
        `out`; arrays given as None are allocated."""
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, int(epoch), int(block), int(layer)])
        )
        draws = rng.random(shape) if draws is None else rng.random(out=draws)
        return np.greater_equal(draws, rate, out=out)


def _apply_keep(x: np.ndarray, keep: np.ndarray, rate: float,
                out: np.ndarray | None = None) -> np.ndarray:
    """Inverted dropout with the boolean keep mask, forward on activations
    and backward on their gradients: x * keep / (1 - rate), in `out` (a new
    array when None; never `x`). Multiplying by the 0/1 mask first and by
    the scale second gives exactly x * m for the float mask m = keep / (1 -
    rate), signed zeros included. (Copying the mask into a float array is
    faster than letting the multiply cast the booleans.)"""
    if out is None:
        out = np.empty(keep.shape)
    np.copyto(out, keep)
    out *= x
    out *= 1.0 / (1.0 - rate)
    return out


# ---------------------------------------------------------------------------
# Whole network
# ---------------------------------------------------------------------------

@dataclass
class LayerCache:
    a_in: np.ndarray
    bn: BatchNormCache
    act: np.ndarray
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
    backward and a few rotating scratch arrays for temporaries. A forward
    pass handed this cache writes the next epoch into the same arrays, and
    the backward pass takes its temporaries from them too, so a fit holds
    one epoch of activations and reuses their memory every epoch."""

    blocks: list[BlockCache] = field(default_factory=list)
    head_in: np.ndarray | None = None
    arrays: dict = field(default_factory=dict, repr=False)

    def array(self, key, shape: tuple, dtype=np.float64) -> np.ndarray:
        """The workspace array named `key`; made anew unless it has `shape`
        and `dtype`."""
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
    caches. Train mode updates the running statistics, drops units with
    the masks of `stream` (needed when the dropout rate is above 0), and
    returns the cache the backward pass needs: `cache`, written over, when
    an earlier train-mode forward's cache is handed in, else a new one.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.in_dim:
        raise ValueError(
            f"input of shape {X.shape} does not match model input dim {params.in_dim}"
        )
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    kind = params.activation_kind
    rate = params.dropout_rate
    drop = train and rate > 0.0
    if drop and stream is None:
        raise ValueError("train-mode dropout requires a DropoutStream")

    # every array goes into the workspace in train mode; eval mode lets
    # numpy allocate (out=None)
    n = X.shape[0]
    ws = (ModelCache() if cache is None else cache) if train else None

    def kept(key, width: int, dtype=np.float64):
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
            bn_out, bn_cache = batchnorm_forward(z, bn, mode, xhat=z,
                                                 out=kept(("act", bi, li), width))
            # the layer's output: the next layer's input, or a temporary the
            # shortcut sum reads; tanh without dropout outputs its cache
            out = None
            if drop or kind != "tanh":
                out = (scratch(width) if li == last and block.shortcut is not None
                       else kept(("out", bi, li), width))
            # tanh's backward reads its output, relu's and selu's their input
            act_out = bn_out if kind == "tanh" else scratch(width, out) if drop else out
            act, act_cache = activation_forward(bn_out, kind, out=act_out)
            mask = (stream.mask(act.shape, rate, epoch, bi, li,
                                out=kept(("mask", bi, li), width, bool), draws=out)
                    if drop else None)
            if train:
                layer_caches.append(LayerCache(a, bn_cache, act_cache, mask))
            a = _apply_keep(act, mask, rate, out=out) if drop else act
        if train:
            block_caches.append(BlockCache(x, layer_caches))
        if block.shortcut is not None:
            y = np.matmul(x, block.shortcut.W.T, out=kept(("y", bi), width))
            y += a
            a = y
        x = a
    head = params.output_head
    h = (x @ head.W.T + head.b).ravel()
    if not train:
        return h, None
    ws.blocks, ws.head_in = block_caches, x
    return h, ws


def model_backward(
    grad_h: np.ndarray, params: ResSurvParams, cache: ModelCache
) -> np.ndarray:
    """Exact chain rule from per-sample score gradients down to every
    learnable tensor; returns the gradient in flat-view layout.

    Backpropagation meets the tensors in reverse traversal order (head b
    and W; then per block from the last: the shortcut W, and per layer from
    the last: beta, gamma, b, W), so each gradient is written just below
    the previous one, from the vector's end. The (n, width) gradients
    rotate through the scratch arrays of `cache`. Nothing reads the
    gradient with respect to the network input, so it is not computed.
    """
    grad_h = np.asarray(grad_h, dtype=np.float64).reshape(-1, 1)
    grads = np.empty_like(params.flat)
    end = grads.size
    n = grad_h.shape[0]
    kind, rate = params.activation_kind, params.dropout_rate

    def put(*parts: np.ndarray) -> None:
        nonlocal end
        for g in parts:
            grads[end - g.size : end] = g.ravel()
            end -= g.size

    head_W = params.output_head.W
    put(grad_h.sum(axis=0), grad_h.T @ cache.head_in)
    grad_y = np.matmul(grad_h, head_W, out=cache.scratch((n, head_W.shape[1])))
    for bi, (block, bc) in reversed(list(enumerate(zip(params.blocks, cache.blocks)))):
        # the main-channel chain, plus the shortcut term W_s^T grad_y
        if block.shortcut is not None:
            put(grad_y.T @ bc.x)
        grad = grad_y
        for li, (dense, lc) in reversed(list(enumerate(zip(block.dense_layers, bc.layers)))):
            if lc.mask is not None:
                grad = _apply_keep(grad, lc.mask, rate,
                                   out=cache.scratch(grad.shape, grad_y, grad))
            grad = activation_backward(grad, lc.act, kind,
                                       out=cache.scratch(grad.shape, grad_y, grad))
            grad, g_gamma, g_beta = batchnorm_backward(
                grad, lc.bn, out=grad, scratch=cache.scratch(grad.shape, grad_y, grad))
            put(g_beta, g_gamma, grad.sum(axis=0), grad.T @ lc.a_in)
            if bi or li:   # not down to the network input
                grad = np.matmul(grad, dense.W,
                                 out=cache.scratch((n, dense.W.shape[1]), grad_y, grad))
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
    batch-norm state, the standardization applied at training time, an array
    manifest), then the raw row-major float64 little-endian tensor data.
    Unlike a zip-based container it embeds no timestamps, so identical state
    produces identical bytes. A standardization of another width than the
    network's input raises ValueError before the file is opened.
    """
    if standardization is not None:
        _check_width(standardization, params.in_dim)
    arrays = [(t.name, t.array) for t in _tensors(params)]
    header = {
        "format": CHECKPOINT_FORMAT,
        "activation_kind": params.activation_kind,
        "dropout_rate": params.dropout_rate,
        "n_features": params.in_dim,
        "block_widths": [b.dense_layers[-1].W.shape[0] for b in params.blocks],
        "dense_layers_per_block": len(params.blocks[0].dense_layers),
        "with_shortcut": params.blocks[0].shortcut is not None,
        "batch_norm": [
            {
                "block": bi,
                "layer": li,
                "epsilon": BN_EPSILON,
                "momentum": BN_MOMENTUM,
                "n_updates": bn.n_updates,
            }
            for bi, block in enumerate(params.blocks)
            for li, bn in enumerate(block.batch_norms)
        ],
        "standardization": (
            None
            if standardization is None
            else {
                "means": standardization.means.tolist(),
                "stddevs": standardization.stddevs.tolist(),
            }
        ),
        "extra": extra,
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(
    path,
) -> tuple[ResSurvParams, StandardizationParams | None, dict | None]:
    """Read a checkpoint written by `save_checkpoint`.

    A file that is cut short, carries bytes after the last array, or has a
    header that is unreadable or does not describe this format's network
    raises one `ValueError` naming the file (and the array, where one is at
    fault). The header must hold every key `save_checkpoint` writes, an
    array manifest naming every tensor of the architecture in layout order
    with its shape, one batch-norm entry per batch norm in that order, with
    this module's epsilon and momentum, and a standardization (if any) of
    the network's input width. The header and the size of the array data
    are checked before the network is built, so that a small file cannot
    make this allocate a large network."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        header_len = int.from_bytes(fh.read(8), "little")
        blob = fh.read(header_len)
        try:
            if len(blob) != header_len:
                raise ValueError(f"{len(blob)} of {header_len} bytes")
            header = json.loads(blob.decode("utf-8"))
        except ValueError as err:   # JSONDecodeError and UnicodeDecodeError too
            raise ValueError(f"{path}: unreadable checkpoint header: {err}") from None
        fmt = header.get("format") if isinstance(header, dict) else None
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: unsupported format {fmt!r}")
        try:
            params, std, extra = _network_of(header, os.fstat(fh.fileno()).st_size - fh.tell())
        except _ArrayBytesError as err:
            raise ValueError(f"{path}: {err}") from None
        except (KeyError, TypeError, ValueError) as err:
            what = f"missing key {err}" if isinstance(err, KeyError) else err
            raise ValueError(f"{path}: checkpoint header does not describe a "
                             f"network: {what}") from None
        for t in _tensors(params):
            raw = fh.read(t.array.size * 8)
            t.array[...] = np.frombuffer(raw, dtype="<f8").reshape(t.array.shape)
    return params, std, extra


class _ArrayBytesError(Exception):
    """The bytes after a checkpoint header are not the arrays it lists."""


def _declared_layout(n_features, block_widths, dense_layers_per_block, with_shortcut):
    """(name, shape) of every tensor of the network `init_params` builds
    from these arguments, in `_tensors` order, without building it."""
    in_dim = n_features
    for bi, width in enumerate(block_widths):
        for li in range(dense_layers_per_block):
            prefix = f"block{bi}.layer{li}"
            yield f"{prefix}.W", (width, in_dim if li == 0 else width)
            for name in ("b", "bn.gamma", "bn.beta", "bn.running_mean", "bn.running_var"):
                yield f"{prefix}.{name}", (width,)
        if with_shortcut:
            yield f"block{bi}.shortcut.W", (width, in_dim)
        in_dim = width
    yield "head.W", (1, in_dim)
    yield "head.b", (1,)


def _network_of(header: dict, data_bytes: int):
    """(params, standardization, extra) of a checkpoint header followed by
    `data_bytes` bytes of array data: the network with its batch-norm update
    counts set and every tensor still at its initial value. Raises KeyError,
    TypeError or ValueError where the header does not describe that network
    exactly, and `_ArrayBytesError` where the data is not the size of its
    arrays. Both are checked before the network is built, so that a small
    file cannot make this allocate a large network."""
    manifest = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
    layout = _declared_layout(header["n_features"], header["block_widths"],
                              header["dense_layers_per_block"], header["with_shortcut"])
    for i, (got, want) in enumerate(zip_longest(manifest, layout)):
        if got != want:
            raise ValueError(f"array manifest entry {i} is {got}, expected {want}")
    for name, shape in manifest:
        size = 8 * math.prod(shape)
        if size > data_bytes:
            raise _ArrayBytesError(f"array {name!r} is truncated ({data_bytes} of {size} bytes)")
        data_bytes -= size
    if data_bytes:
        raise _ArrayBytesError(f"unexpected bytes after the last array {name!r}")
    params = init_params(
        n_features=header["n_features"],
        block_widths=header["block_widths"],
        dense_layers_per_block=header["dense_layers_per_block"],
        activation_kind=header["activation_kind"],
        dropout_rate=header["dropout_rate"],
        seed=0,
        with_shortcut=header["with_shortcut"],
    )
    norms = [(bi, li, bn) for bi, block in enumerate(params.blocks)
             for li, bn in enumerate(block.batch_norms)]
    entries = header["batch_norm"]
    if len(entries) != len(norms):
        raise ValueError(f"{len(entries)} batch_norm entries for {len(norms)} batch norms")
    for (bi, li, bn), meta in zip(norms, entries):
        n_updates = meta["n_updates"]
        fixed = [meta[key] for key in ("block", "layer", "epsilon", "momentum")]
        if (fixed != [bi, li, BN_EPSILON, BN_MOMENTUM]
                or not isinstance(n_updates, int) or n_updates < 0):
            raise ValueError(f"batch_norm entry {meta} does not match block {bi}, "
                             f"layer {li}, epsilon {BN_EPSILON}, momentum {BN_MOMENTUM}")
        bn.n_updates = n_updates
    std = header["standardization"]
    if std is not None:
        std = StandardizationParams(np.array(std["means"]), np.array(std["stddevs"]))
        _check_width(std, params.in_dim)
    return params, std, header["extra"]


def _check_width(standardization: StandardizationParams, n_features: int) -> None:
    if standardization.means.size != n_features:
        raise ValueError(f"standardization of {standardization.means.size} features "
                         f"for a network of {n_features} input features")
