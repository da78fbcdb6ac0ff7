import copy
import hashlib
import json
import os
import pickle
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ressurv.cox import build_risk_index, nll_gradient
from ressurv import model
from ressurv.data import StandardizationParams
from ressurv.model import (
    ACTIVATION_KINDS,
    BN_EPSILON,
    BN_MOMENTUM,
    CHECKPOINT_MAGIC,
    SELU_ALPHA,
    SELU_SCALE,
    BatchNormParams,
    DropoutStream,
    _apply_keep,
    _column_sums,
    activation_backward,
    activation_forward,
    batchnorm_backward,
    batchnorm_forward,
    flat_layout,
    init_params,
    load_checkpoint,
    model_backward,
    model_forward,
    save_checkpoint,
    set_flat,
    to_flat,
)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def test_selu_constants():
    assert SELU_ALPHA == 1.6732632423543772
    assert SELU_SCALE == 1.0507009873554805


def test_tanh_values_and_derivative():
    z = np.array([-2.0, 0.0, 1.5])
    out, cache = activation_forward(z, "tanh")
    assert np.allclose(out, np.tanh(z))
    grad = activation_backward(np.ones_like(z), cache, "tanh")
    assert np.allclose(grad, 1.0 - np.tanh(z) ** 2)


def test_relu_values_and_derivative():
    z = np.array([-1.0, 0.0, 2.0])
    out, cache = activation_forward(z, "relu")
    assert np.array_equal(out, np.array([0.0, 0.0, 2.0]))
    grad = activation_backward(np.ones_like(z), cache, "relu")
    # derivative at 0 is taken as 0 (z > 0 test)
    assert np.array_equal(grad, np.array([0.0, 0.0, 1.0]))


def test_selu_values_both_branches():
    z = np.array([-1.0, 0.0, 2.0])
    out, _ = activation_forward(z, "selu")
    assert np.isclose(out[0], SELU_SCALE * SELU_ALPHA * np.expm1(-1.0))
    assert out[1] == 0.0
    assert np.isclose(out[2], SELU_SCALE * 2.0)


def test_selu_derivative():
    z = np.array([-1.5, 0.5])
    _, cache = activation_forward(z, "selu")
    grad = activation_backward(np.ones_like(z), cache, "selu")
    assert np.isclose(grad[0], SELU_SCALE * SELU_ALPHA * np.exp(-1.5))
    assert np.isclose(grad[1], SELU_SCALE)


@pytest.mark.parametrize("kind", ["tanh", "selu", "relu"])
def test_activation_derivative_matches_fd(kind):
    rng = np.random.default_rng(3)
    z = rng.normal(size=40)
    z = z[np.abs(z) > 1e-3]  # keep away from the relu kink
    step = 1e-6
    fd = (
        activation_forward(z + step, kind)[0] - activation_forward(z - step, kind)[0]
    ) / (2 * step)
    _, cache = activation_forward(z, kind)
    an = activation_backward(np.ones_like(z), cache, kind)
    assert np.allclose(an, fd, atol=1e-7)


def test_unknown_activation_rejected():
    with pytest.raises(ValueError):
        activation_forward(np.zeros(3), "gelu")
    with pytest.raises(ValueError):
        activation_backward(np.zeros(3), np.zeros(3), "gelu")


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

def test_batchnorm_train_normalizes_batch():
    rng = np.random.default_rng(0)
    x = rng.normal(loc=3.0, scale=2.5, size=(200, 4))
    bn = BatchNormParams.identity(4)
    out, cache = batchnorm_forward(x, bn, "train")
    assert np.all(np.abs(out.mean(axis=0)) < 1e-10)
    # population variance of the output is sigma^2 / (sigma^2 + eps)
    expected_var = x.var(axis=0) / (x.var(axis=0) + BN_EPSILON)
    assert np.allclose(out.var(axis=0), expected_var, atol=1e-6)
    assert cache is not None


def test_batchnorm_uses_population_variance():
    x = np.array([[1.0], [2.0], [3.0]])
    bn = BatchNormParams.identity(1)
    batchnorm_forward(x, bn, "train", first=True)
    assert np.isclose(bn.running_var[0], np.var([1.0, 2.0, 3.0]))  # ddof=0


def test_batchnorm_gamma_beta_applied():
    x = np.array([[0.0], [2.0]])
    bn = BatchNormParams.identity(1)
    bn.gamma[:] = 3.0
    bn.beta_shift[:] = -1.0
    out, _ = batchnorm_forward(x, bn, "train")
    xhat = (x - 1.0) / np.sqrt(1.0 + BN_EPSILON)
    assert np.allclose(out, 3.0 * xhat - 1.0)


def test_batchnorm_first_update_copies_then_ema():
    bn = BatchNormParams.identity(1)
    x1 = np.array([[0.0], [4.0]])  # mean 2, var 4
    batchnorm_forward(x1, bn, "train", first=True)
    assert np.isclose(bn.running_mean[0], 2.0)
    assert np.isclose(bn.running_var[0], 4.0)
    x2 = np.array([[10.0], [14.0]])  # mean 12, var 4
    batchnorm_forward(x2, bn, "train")
    assert np.isclose(bn.running_mean[0], 0.9 * 2.0 + 0.1 * 12.0)
    assert np.isclose(bn.running_var[0], 0.9 * 4.0 + 0.1 * 4.0)


def test_network_counts_its_train_passes_and_copies_on_the_first():
    # every train-mode pass updates every batch norm once, so the network
    # keeps one count: its first pass copies the batch statistics, later
    # passes average them in; eval passes neither update nor count
    rng = np.random.default_rng(4)
    params = init_params(2, [3], 1, "tanh", 0.0, seed=4, with_shortcut=False)
    dense, bn = params.blocks[0].dense_layers[0], params.blocks[0].batch_norms[0]
    X1, X2 = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    model_forward(X1, params)
    assert params.n_updates == 0
    model_forward(X1, params, mode="train")
    z1 = X1 @ dense.W.T + dense.b
    assert params.n_updates == 1
    assert np.allclose(bn.running_mean, z1.mean(axis=0))
    assert np.allclose(bn.running_var, z1.var(axis=0))
    model_forward(X2, params, mode="train")
    z2 = X2 @ dense.W.T + dense.b
    assert params.n_updates == 2
    assert np.allclose(bn.running_mean, 0.9 * z1.mean(axis=0) + 0.1 * z2.mean(axis=0))
    assert np.allclose(bn.running_var, 0.9 * z1.var(axis=0) + 0.1 * z2.var(axis=0))
    model_forward(X2, params)
    assert params.n_updates == 2
    # a count handed in must be a nonnegative integer
    with pytest.raises(ValueError, match="n_updates must be >= 0"):
        type(params)(2, [3], 1, "tanh", 0.0, n_updates=-1)
    with pytest.raises(ValueError, match="n_updates must be an integer, not True"):
        type(params)(2, [3], 1, "tanh", 0.0, n_updates=True)


def test_batchnorm_eval_uses_running_stats():
    bn = BatchNormParams.identity(1)
    bn.running_mean[:] = 5.0
    bn.running_var[:] = 4.0
    out, cache = batchnorm_forward(np.array([[7.0]]), bn, "eval")
    assert cache is None
    assert np.isclose(out[0, 0], 2.0 / np.sqrt(4.0 + BN_EPSILON))


def test_batchnorm_train_needs_two_samples():
    bn = BatchNormParams.identity(1)
    with pytest.raises(ValueError):
        batchnorm_forward(np.array([[1.0]]), bn, "train")


def test_batchnorm_rejects_bad_mode():
    bn = BatchNormParams.identity(1)
    with pytest.raises(ValueError):
        batchnorm_forward(np.zeros((2, 1)), bn, "predict")


def test_batchnorm_backward_matches_fd():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 3))
    v = rng.normal(size=(6, 3))  # fixed linear functional of the output
    bn = BatchNormParams.identity(3)
    bn.gamma[:] = rng.normal(size=3)
    bn.beta_shift[:] = rng.normal(size=3)

    def phi(inputs):
        out, _ = batchnorm_forward(inputs, bn, "train")
        return float((v * out).sum())

    out, cache = batchnorm_forward(x, bn, "train")
    grad_in, grad_gamma, grad_beta = batchnorm_backward(v, cache)

    step = 1e-6
    fd = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[i, j] += step
            xm[i, j] -= step
            fd[i, j] = (phi(xp) - phi(xm)) / (2 * step)
    assert np.allclose(grad_in, fd, atol=1e-6)

    xhat = cache.xhat
    assert np.allclose(grad_gamma, (v * xhat).sum(axis=0))
    assert np.allclose(grad_beta, v.sum(axis=0))


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------

def test_dropout_eval_and_rate_zero_are_identity():
    X = np.random.default_rng(0).normal(size=(5, 3))
    params = init_params(3, [4], 2, "tanh", 0.5, seed=0)
    model_forward(X, params, mode="train", stream=DropoutStream(0), epoch=1)
    no_dropout = params.copy()
    no_dropout.dropout_rate = 0.0
    # eval mode ignores the rate
    assert np.array_equal(model_forward(X, params)[0], model_forward(X, no_dropout)[0])
    # train mode at rate 0 needs no stream and hands each activation on as is
    # (the tanh cache is the activation output)
    _, cache = model_forward(X, no_dropout, mode="train")
    first, second = cache.blocks[0].layers
    assert first.mask is None and second.mask is None
    assert second.a_in is first.act


def test_dropout_train_requires_mask():
    params = init_params(2, [3], 2, "tanh", 0.5, seed=0)
    init = params.copy()
    with pytest.raises(ValueError, match="requires a DropoutStream"):
        model_forward(np.zeros((4, 2)), params, mode="train")
    # the check comes before any batch norm updates its running statistics
    assert params.n_updates == 0 and np.array_equal(params.stats, init.stats)


def test_dropout_mask_values_and_rate():
    stream = DropoutStream(11)
    mask = stream.mask((400, 50), 0.4, epoch=1, block=0, layer=0)
    # a boolean keep mask; the 1/(1-rate) scale is applied by _apply_keep
    assert mask.dtype == np.bool_ and mask.shape == (400, 50)
    assert abs(mask.mean() - 0.6) < 0.02


def test_dropout_mask_keyed_deterministically():
    a = DropoutStream(5).mask((8, 8), 0.5, epoch=3, block=1, layer=2)
    b = DropoutStream(5).mask((8, 8), 0.5, epoch=3, block=1, layer=2)
    assert np.array_equal(a, b)
    for other in (
        DropoutStream(6).mask((8, 8), 0.5, 3, 1, 2),
        DropoutStream(5).mask((8, 8), 0.5, 4, 1, 2),
        DropoutStream(5).mask((8, 8), 0.5, 3, 0, 2),
        DropoutStream(5).mask((8, 8), 0.5, 3, 1, 1),
    ):
        assert not np.array_equal(a, other)


# rates anywhere in [0, 1], near 0, near 1, and at the edges of float32's
# 24-bit draw grid and below it: 1 - 2**-26 rounds to 1.0 in float32
_MASK_RATES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-6),
    st.floats(1.0 - 1e-6, 1.0),
    st.sampled_from([0.0, 2.0**-53, 2.0**-24, 0.2, 1 - 2.0**-24, 1 - 2.0**-26,
                     1 - 2.0**-53, 1.0]),
)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), key=st.tuples(*[st.integers(0, 20)] * 3),
       shape=st.tuples(st.integers(1, 9), st.integers(1, 9)), rate=_MASK_RATES,
       chunk_words=st.sampled_from([1, 2, 3, 7, model.MASK_CHUNK_WORDS]))
@example(seed=3, key=(1, 0, 2), shape=(1280, 64), rate=0.2,
         chunk_words=model.MASK_CHUNK_WORDS)
@example(seed=0, key=(0, 0, 0), shape=(1, 1), rate=1 - 2.0**-26, chunk_words=1)
# odd and even sizes over several whole chunks and a partial last one
@example(seed=5, key=(2, 1, 0), shape=(3 * model.MASK_CHUNK_WORDS + 1, 1), rate=0.3,
         chunk_words=model.MASK_CHUNK_WORDS)
@example(seed=5, key=(2, 1, 0), shape=(2, 3 * model.MASK_CHUNK_WORDS + 1), rate=0.3,
         chunk_words=model.MASK_CHUNK_WORDS)
def test_dropout_mask_is_the_float_draw_mask(seed, key, shape, rate, chunk_words):
    # the integer thresholds on the generator's raw words, read in chunks of
    # `chunk_words`, keep exactly the units a float32 draw keeps, into `out`
    # (contiguous or not) or not
    rng = np.random.default_rng(np.random.SeedSequence([seed, *key]))
    expected = rng.random(shape, dtype=np.float32) >= np.float32(rate)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "MASK_CHUNK_WORDS", chunk_words)
        mask = DropoutStream(seed).mask(shape, rate, *key)
        assert mask.dtype == np.bool_ and np.array_equal(mask, expected)
        out = ~expected
        assert DropoutStream(seed).mask(shape, rate, *key, out=out) is out
        assert np.array_equal(out, expected)
        strided = np.ones(shape[::-1], bool).T
        assert DropoutStream(seed).mask(shape, rate, *key, out=strided) is strided
        assert np.array_equal(strided, expected)


class _Words:
    """A stand-in bit generator that hands out the raw words `raw`, each
    once, in order."""

    def __init__(self, raw):
        self.raw = raw

    def random_raw(self, size):
        words, self.raw = self.raw[:size], self.raw[size:]
        return words


@settings(max_examples=200, deadline=None)
@given(rate=_MASK_RATES)
def test_dropout_mask_keeps_the_words_whose_draws_reach_the_rate(rate):
    # random words almost never fall within 2**8 of the threshold, so the
    # generator hands out every 32-bit half around it, and the mask must
    # keep those whose draws by numpy's conversion, (u32 >> 8) * 2**-24,
    # reach the rate
    near = int(np.float32(rate) * 2**24) << 8
    halves = np.array([w for w in range(near - (3 << 8), near + (3 << 8)) if 0 <= w < 2**32],
                      "<u4")
    raw = np.zeros(-(-halves.size // 2), "<u8")
    raw.view("<u4")[:halves.size] = halves
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "PCG64", lambda key: _Words(raw))
        mask = DropoutStream(0).mask(halves.shape, rate, 0, 0, 0)
    draws = (halves >> 8).astype(np.float32) * np.float32(2.0**-24)
    assert np.array_equal(mask, draws >= np.float32(rate))


def test_float32_network_draws_float32_masks():
    # and so does a float64 network: it drops the units its float32 copy drops
    X = np.random.default_rng(2).normal(size=(33, 3))
    wide = init_params(3, [8, 8], 2, "tanh", 0.3, seed=2)
    for params in (wide.copy(np.float32), wide):
        _, cache = model_forward(X, params, mode="train", stream=DropoutStream(4), epoch=2)
        for bi, block in enumerate(cache.blocks):
            for li, layer in enumerate(block.layers):
                rng = np.random.default_rng(np.random.SeedSequence([4, 2, bi, li]))
                assert np.array_equal(layer.mask, rng.random((33, 8), dtype=np.float32) >= 0.3)


def test_dropout_applies_mask():
    x = np.ones((40, 40))
    stream = DropoutStream(0)
    mask = stream.mask(x.shape, 0.4, 0, 0, 0)
    out = _apply_keep(x, mask, 0.4)
    # inverted dropout: survivors are scaled by 1/(1-rate), the rest zeroed
    assert np.all(out[mask] == 1.0 / 0.6)
    assert np.all(out[~mask] == 0.0)
    assert 0 < mask.sum() < mask.size

    # a train-mode forward drops with the stream's mask for its epoch,
    # block and layer, and caches that mask for the backward pass
    X = np.random.default_rng(1).normal(size=(40, 3))
    params = init_params(3, [8, 8], 2, "tanh", 0.4, seed=1)
    _, cache = model_forward(X, params, mode="train", stream=stream, epoch=5)
    for bi, block in enumerate(cache.blocks):
        for li, layer in enumerate(block.layers):
            assert np.array_equal(layer.mask, stream.mask((40, 8), 0.4, 5, bi, li))
        first, second = block.layers
        assert np.array_equal(second.a_in, _apply_keep(first.act, first.mask, 0.4))


# ---------------------------------------------------------------------------
# Fused kernels against the unfused formulas
# ---------------------------------------------------------------------------
# The *_reference functions are the textbook formulas the kernels replace,
# written out with one temporary per operation. The kernels must reproduce
# them bit for bit, so report files do not change with the fusion.

def batchnorm_forward_reference(inputs, params, mode, first=False):
    if mode == "train":
        mean = inputs.mean(axis=0)
        var = inputs.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat = (inputs - mean) * inv_std
        if first:
            params.running_mean[...] = mean
            params.running_var[...] = var
        else:
            m = BN_MOMENTUM
            params.running_mean[...] = (1.0 - m) * params.running_mean + m * mean
            params.running_var[...] = (1.0 - m) * params.running_var + m * var
        return params.gamma * xhat + params.beta_shift, (xhat, inv_std)
    inv_std = 1.0 / np.sqrt(params.running_var + BN_EPSILON)
    return params.gamma * (inputs - params.running_mean) * inv_std + params.beta_shift, None


def batchnorm_backward_reference(grad_out, xhat, inv_std, gamma):
    n = grad_out.shape[0]
    grad_gamma = (grad_out * xhat).sum(axis=0)
    grad_beta = grad_out.sum(axis=0)
    grad_xhat = grad_out * gamma
    grad_in = (inv_std / n) * (
        n * grad_xhat
        - grad_xhat.sum(axis=0)
        - xhat * (grad_xhat * xhat).sum(axis=0)
    )
    return grad_in, grad_gamma, grad_beta


def activation_forward_reference(z, kind):
    if kind == "tanh":
        return np.tanh(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    assert kind == "selu"
    return SELU_SCALE * np.where(z > 0, z, SELU_ALPHA * np.expm1(z))


def activation_backward_reference(grad_out, cache, kind):
    if kind == "tanh":
        return grad_out * (1.0 - cache * cache)
    if kind == "relu":
        return grad_out * (cache > 0)
    assert kind == "selu"
    return grad_out * (SELU_SCALE * np.where(cache > 0, 1.0, SELU_ALPHA * np.exp(cache)))


def dropout_mask_reference(seed, shape, rate, epoch, block, layer):
    # the float mask: 1/(1-rate) where kept, 0 elsewhere
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, block, layer]))
    keep = rng.random(shape, dtype=np.float32) >= rate
    return keep / (1.0 - rate)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 300),
    width=st.integers(1, 70),
    seed=st.integers(0, 2**32 - 1),
    loc=st.sampled_from([0.0, -3.0, 40.0]),
    scale=st.sampled_from([1e-3, 1.0, 25.0]),
    constant_cols=st.integers(0, 3),
    rate=st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.6]),
)
def test_fused_kernels_match_reference_bytes(n, width, seed, loc, scale, constant_cols, rate):
    rng = np.random.default_rng(seed)
    z = rng.normal(loc, scale, size=(n, width))
    for j in rng.choice(width, size=min(constant_cols, width), replace=False):
        z[:, j] = rng.normal(loc, scale)   # a constant column, often negative
    bn, ref = BatchNormParams.identity(width), BatchNormParams.identity(width)
    for p in (bn, ref):
        p.gamma[:] = np.random.default_rng(seed + 1).normal(size=width)
        p.beta_shift[:] = np.random.default_rng(seed + 2).normal(size=width)

    # train mode twice: the first update copies, the second is the EMA
    for batch, first in ((z, True), (z[::-1] * 0.5 - 1.0, False)):
        out, cache = batchnorm_forward(batch, bn, "train", first)
        ref_out, (ref_xhat, ref_inv_std) = batchnorm_forward_reference(batch, ref, "train",
                                                                       first)
        assert _same_bytes(out, ref_out)
        assert _same_bytes(cache.xhat, ref_xhat) and _same_bytes(cache.inv_std, ref_inv_std)
        assert _same_bytes(bn.running_mean, ref.running_mean)
        assert _same_bytes(bn.running_var, ref.running_var)
    assert _same_bytes(batchnorm_forward(z, bn, "eval")[0],
                       batchnorm_forward_reference(z, ref, "eval")[0])

    grad_out = rng.normal(size=(n, width))
    for got, want in zip(batchnorm_backward(grad_out, cache),
                         batchnorm_backward_reference(grad_out, ref_xhat, ref_inv_std,
                                                      ref.gamma)):
        assert _same_bytes(got, want)

    for kind in ACTIVATION_KINDS:
        act, act_cache = activation_forward(out, kind)
        assert _same_bytes(act, activation_forward_reference(out, kind))
        assert _same_bytes(activation_backward(grad_out, act_cache, kind),
                           activation_backward_reference(grad_out, act_cache, kind))

    keep = DropoutStream(seed).mask(out.shape, rate, 1, 0, 2)
    dropped = _apply_keep(out, keep, rate)
    # signed zeros included: a dropped negative unit is -0.0 in both
    assert _same_bytes(dropped, out * dropout_mask_reference(seed, out.shape, rate, 1, 0, 2))


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 3000),
    cols=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
@example(rows=1, cols=1, seed=0, zero_share=0.0)
@example(rows=2999, cols=1, seed=1, zero_share=0.1)
@example(rows=10666, cols=16, seed=2, zero_share=0.0)
@example(rows=7, cols=80, seed=3, zero_share=1.0)
def test_column_sums_and_means_are_the_reduce_bit_for_bit(rows, cols, seed, zero_share):
    # magnitudes from 1e-8 to 1e8 of either sign, and exact zeros of either sign
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], size=(rows, cols)) * 10.0 ** rng.uniform(-8, 8, (rows, cols))
    zeros = rng.random((rows, cols)) < zero_share
    x[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
    sums = _column_sums(x)
    assert _same_bytes(sums, x.sum(axis=0))
    assert _same_bytes(sums / rows, x.mean(axis=0))
    # other layouts take the reduce itself
    for other in (np.asfortranarray(x), x[:, ::2]):
        assert _same_bytes(_column_sums(other), other.sum(axis=0))


# ---------------------------------------------------------------------------
# Residual block
# ---------------------------------------------------------------------------

def _zero_main_channel(block):
    for dense in block.dense_layers:
        dense.W[...] = 0.0
        dense.b[...] = 0.0


def test_zeroed_main_channel_passes_shortcut_through():
    params = init_params(4, [6], 3, "tanh", 0.0, seed=2)
    block, head = params.blocks[0], params.output_head
    _zero_main_channel(block)
    x = np.random.default_rng(3).normal(size=(9, 4))
    y = x @ block.shortcut.W.T
    h, _ = model_forward(x, params, mode="eval")
    assert np.max(np.abs(h - (y @ head.W.T + head.b).ravel())) <= 1e-12
    # the head reads the block output, which the train cache keeps
    _, cache = model_forward(x, params, mode="train")
    assert np.max(np.abs(cache.head_in - y)) <= 1e-12


def test_zeroed_main_channel_without_shortcut_is_zero():
    params = init_params(4, [6], 2, "relu", 0.0, seed=2, with_shortcut=False)
    block = params.blocks[0]
    assert block.shortcut is None
    _zero_main_channel(block)
    params.output_head.b[...] = 0.25
    x = np.random.default_rng(3).normal(size=(5, 4))
    h, _ = model_forward(x, params, mode="eval")
    assert np.all(h == 0.25)
    _, cache = model_forward(x, params, mode="train")
    assert np.max(np.abs(cache.head_in)) == 0.0


def test_resblock_train_returns_cache_eval_does_not():
    params = init_params(3, [4, 4], 2, "tanh", 0.0, seed=0)
    x = np.random.default_rng(0).normal(size=(6, 3))
    _, cache = model_forward(x, params, mode="train")
    assert len(cache.blocks) == 2
    assert all(len(block.layers) == 2 for block in cache.blocks)
    assert cache.blocks[0].x is x and cache.blocks[0].layers[0].a_in is x
    _, cache = model_forward(x, params, mode="eval")
    assert cache is None


# ---------------------------------------------------------------------------
# Whole network
# ---------------------------------------------------------------------------

def test_model_forward_shapes_and_modes():
    params = init_params(5, [8, 8], 2, "selu", 0.0, seed=1)
    X = np.random.default_rng(1).normal(size=(12, 5))
    h, cache = model_forward(X, params, mode="train")
    assert h.shape == (12,) and cache is not None
    h, cache = model_forward(X, params, mode="eval")
    assert h.shape == (12,) and cache is None


def test_model_forward_validates_input():
    params = init_params(5, [4], 2, "tanh", 0.0, seed=0)
    with pytest.raises(ValueError):
        model_forward(np.zeros((3, 4)), params)
    with pytest.raises(ValueError):
        model_forward(np.zeros((3, 5)), params, mode="predict")


def test_eval_scores_independent_of_batch_composition():
    params = init_params(6, [8, 8], 3, "tanh", 0.3, seed=4)
    X = np.random.default_rng(4).normal(size=(20, 6))
    # populate running stats with one train pass, then freeze
    model_forward(X, params, mode="train", stream=DropoutStream(0), epoch=1)
    full, _ = model_forward(X, params, mode="eval")
    parts = np.concatenate(
        [model_forward(X[:7], params, mode="eval")[0],
         model_forward(X[7:], params, mode="eval")[0]]
    )
    assert np.max(np.abs(full - parts)) < 1e-12


def test_train_forward_reproducible_with_same_stream():
    params = init_params(4, [6], 2, "relu", 0.4, seed=9)
    X = np.random.default_rng(9).normal(size=(10, 4))
    h1, _ = model_forward(X, params, mode="train", stream=DropoutStream(3), epoch=2)
    h2, _ = model_forward(X, params, mode="train", stream=DropoutStream(3), epoch=2)
    assert np.array_equal(h1, h2)


def test_model_backward_matches_fd():
    # full-coordinate central difference through batch norm and frozen dropout
    rng = np.random.default_rng(12)
    params = init_params(5, [6, 6], 2, "tanh", 0.3, seed=12)
    X = rng.normal(size=(12, 5))
    v = rng.normal(size=12)
    stream = DropoutStream(7)

    def phi(flat):
        set_flat(params, flat)
        h, _ = model_forward(X, params, mode="train", stream=stream, epoch=1)
        return float(v @ h)

    theta = to_flat(params)
    set_flat(params, theta)
    h, cache = model_forward(X, params, mode="train", stream=stream, epoch=1)
    analytic = model_backward(v, params, cache)

    step = 1e-6
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += step
        tm[i] -= step
        fd[i] = (phi(tp) - phi(tm)) / (2 * step)
    set_flat(params, theta)

    # biases feeding a batch norm have exactly zero gradient (the batch mean
    # absorbs any constant shift); those coordinates drown in FD roundoff,
    # so near-zero entries are compared absolutely
    scale = np.maximum(np.abs(fd), np.abs(analytic))
    tiny = scale < 1e-7
    assert np.max(np.abs(fd[tiny] - analytic[tiny]), initial=0.0) < 1e-8
    rel = np.abs(fd[~tiny] - analytic[~tiny]) / scale[~tiny]
    assert np.max(rel) < 1e-6


def model_backward_reference(grad_h, params, cache):
    """The backward pass with a fresh array per operation, carried down to
    the gradient with respect to the network input: (parameter gradient,
    each tensor's at its `flat_layout` slice, input gradient)."""
    grad_h = grad_h.reshape(-1, 1)
    parts = [grad_h.sum(axis=0), grad_h.T @ cache.head_in]   # reverse table order
    grad_y = grad_h @ params.output_head.W
    for block, bc in zip(reversed(params.blocks), reversed(cache.blocks)):
        if block.shortcut is not None:
            parts.append(grad_y.T @ bc.x)
        grad = grad_y
        for dense, lc in zip(reversed(block.dense_layers), reversed(bc.layers)):
            if lc.mask is not None:
                grad = grad * (lc.mask / (1.0 - params.dropout_rate)).astype(grad.dtype)
            grad = activation_backward_reference(grad, lc.act, params.activation_kind)
            grad, g_gamma, g_beta = batchnorm_backward_reference(
                grad, lc.bn.xhat, lc.bn.inv_std, lc.bn.gamma)
            parts += [g_beta, g_gamma, grad.sum(axis=0), grad.T @ lc.a_in]
            grad = grad @ dense.W
        if block.shortcut is not None:
            grad = grad + grad_y @ block.shortcut.W
        grad_y = grad
    grads = np.empty_like(params.flat)
    where = {name: sl for name, sl, _ in flat_layout(params)}
    table = [name for name, _, learnable, _ in params._table() if learnable]
    for name, part in zip(table, reversed(parts), strict=True):
        grads[where[name]] = part.ravel()
    return grads, grad_y


@pytest.mark.parametrize("with_shortcut", [True, False])
@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_backward_skips_the_input_gradient_bit_for_bit(kind, with_shortcut):
    # the reference also computes the (n, p) input gradient; the parameter
    # gradient does not depend on it. A float32 network's gradient, computed
    # in float32, comes back as the float64 vector of the same values
    rng = np.random.default_rng(31)
    X, v = rng.normal(size=(17, 9)), rng.normal(size=17)
    for dtype in (np.float64, np.float32):
        params = init_params(9, [5, 7], 2, kind, 0.2, seed=31,
                             with_shortcut=with_shortcut).copy(dtype)
        _, cache = model_forward(X, params, mode="train", stream=DropoutStream(31), epoch=1)
        want, grad_input = model_backward_reference(v.astype(dtype), params, cache)
        assert grad_input.shape == X.shape and want.dtype == dtype
        assert _same_bytes(model_backward(v, params, cache), want.astype(np.float64))


def _cache_arrays(cache):
    """Every array of a train-mode cache, in a fixed order."""
    arrays = []
    for block in cache.blocks:
        arrays.append(block.x)
        for layer in block.layers:
            arrays += [layer.a_in, layer.bn.xhat, layer.bn.inv_std, layer.bn.gamma, layer.act]
            arrays += [] if layer.mask is None else [layer.mask]
    return arrays + [cache.head_in]


def _distinct_bytes(cache):
    """Bytes of the distinct arrays a cache holds (the same array may fill
    several fields)."""
    return sum({id(a): a.nbytes for a in _cache_arrays(cache)}.values())


@pytest.mark.parametrize("with_shortcut", [True, False])
@pytest.mark.parametrize("rate", [0.0, 0.2])
@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_reused_cache_matches_fresh_allocation(kind, rate, with_shortcut):
    # two identical networks take three steps, one writing each epoch over
    # the previous epoch's cache and one allocating a new cache each epoch;
    # the blocks differ in width so that the workspace meets two shapes
    rng = np.random.default_rng(23)
    X, v = rng.normal(size=(24, 5)), rng.normal(size=24)
    reused, fresh = (init_params(5, [6, 4], 3, kind, rate, seed=23,
                                 with_shortcut=with_shortcut) for _ in range(2))
    stream = DropoutStream(23)
    cache = None
    for epoch in (1, 2, 3):
        h, out = model_forward(X, reused, mode="train", stream=stream, epoch=epoch,
                               cache=cache)
        if cache is None:
            first_xhat = out.blocks[1].layers[2].bn.xhat
        assert cache is None or out is cache
        cache = out
        h_fresh, cache_fresh = model_forward(X, fresh, mode="train", stream=stream,
                                             epoch=epoch)
        assert _same_bytes(h, h_fresh)
        for got, want in zip(_cache_arrays(cache), _cache_arrays(cache_fresh), strict=True):
            assert _same_bytes(got, want)
        assert _distinct_bytes(cache) == _distinct_bytes(cache_fresh)
        grad = model_backward(v, reused, cache)
        grad_fresh = model_backward(v, fresh, cache_fresh)
        assert _same_bytes(grad, grad_fresh)
        reused.flat[...] -= 0.05 * grad
        fresh.flat[...] -= 0.05 * grad_fresh
        for block, block_fresh in zip(reused.blocks, fresh.blocks):
            for bn, bn_fresh in zip(block.batch_norms, block_fresh.batch_norms):
                assert _same_bytes(bn.running_mean, bn_fresh.running_mean)
                assert _same_bytes(bn.running_var, bn_fresh.running_var)
    # the third epoch wrote into the first epoch's arrays
    assert cache.blocks[1].layers[2].bn.xhat is first_xhat


@pytest.mark.parametrize("kind", ["tanh", "selu"])
@pytest.mark.parametrize("seed", range(5))
def test_float32_gradient_is_the_float64_one_to_float32_precision(kind, seed):
    # the paper-default net on a cv-paper fold's shape, at weights and
    # inputs that float32 holds exactly: the float32 passes compute in
    # float32 throughout, and their Cox-loss gradient lies within 1e-5
    # (relative, in norm) of the float64 one; measured 8.9e-7 to 1.8e-6
    # over these cases (relu's kink lets a unit flip, so it is left out)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(1280, 20)).astype(np.float32).astype(np.float64)
    times, events = np.round(rng.exponential(5.0, 1280), 1) + 0.1, rng.random(1280) >= 0.3
    idx = build_risk_index(times, events)
    wide = init_params(20, [64] * 5, 3, kind, 0.2, seed=seed)
    wide.flat[...] = wide.flat.astype(np.float32)
    narrow = wide.copy(np.float32)
    assert narrow.flat.dtype == narrow.stats.dtype == np.float32
    assert np.array_equal(narrow.flat, wide.flat)
    passes = [model_forward(X, params, mode="train", stream=DropoutStream(seed), epoch=1)
              for params in (wide, narrow)]
    if kind == "selu":
        # selu's derivative jumps at 0 (SCALE * ALPHA below, SCALE above), so
        # an input within float32 rounding of 0 may lie on the other side in
        # float32 (one of 1,228,800 at seed 2): the float64 backward reads
        # the float32 pass's input there
        for block, block32 in zip(passes[0][1].blocks, passes[1][1].blocks):
            for layer, layer32 in zip(block.layers, block32.layers):
                crossed = (layer.act > 0) != (layer32.act > 0)
                assert crossed.sum() <= 1 and np.abs(layer.act[crossed]).max(initial=0) < 1e-6
                np.copyto(layer.act, layer32.act, where=crossed)
    grads = []
    for params, (h, cache) in zip((wide, narrow), passes):
        grads.append(model_backward(nll_gradient(h, idx), params, cache))
        # the gradient goes straight into the workspace's float64 vector
        assert h.dtype == params.flat.dtype and grads[-1].dtype == np.float64
        assert cache.arrays["grads"] is grads[-1]
        assert ({a.dtype for key, a in cache.arrays.items() if key != "grads"}
                == {params.flat.dtype, np.dtype(bool)})
    want, got = grads
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-5


# ---------------------------------------------------------------------------
# Flat parameter view
# ---------------------------------------------------------------------------

def test_flat_roundtrip_exact():
    params = init_params(4, [5, 3], 2, "selu", 0.2, seed=6)
    theta = to_flat(params)
    set_flat(params, np.arange(theta.size, dtype=np.float64))
    assert np.array_equal(to_flat(params), np.arange(theta.size, dtype=np.float64))
    set_flat(params, theta)
    assert np.array_equal(to_flat(params), theta)


def test_set_flat_rejects_wrong_size():
    params = init_params(3, [4], 2, "tanh", 0.0, seed=0)
    with pytest.raises(ValueError):
        set_flat(params, np.zeros(params.flat.size + 1))


def test_flat_layout_names_and_coverage():
    params = init_params(3, [4, 4], 2, "tanh", 0.0, seed=0)
    layout = flat_layout(params)
    names = [name for name, _, _ in layout]
    assert names[0] == "block0.layer0.W"
    assert names[-1] == "head.b"
    assert "block0.shortcut.W" in names and "block1.shortcut.W" in names
    pos = 0
    for _, sl, shape in layout:
        assert sl.start == pos
        pos = sl.stop
        assert sl.stop - sl.start == int(np.prod(shape))
    assert pos == params.flat.size == to_flat(params).size


def test_weight_matrices_lead_the_parameter_vector():
    # the decayed entries are flat[:n_decayed]; each group keeps table order
    params = init_params(3, [4, 4], 2, "tanh", 0.0, seed=0)
    layout = flat_layout(params)
    weights = ["block0.layer0.W", "block0.layer1.W", "block0.shortcut.W",
               "block1.layer0.W", "block1.layer1.W", "block1.shortcut.W", "head.W"]
    rest = [f"block{bi}.layer{li}.{name}" for bi in range(2) for li in range(2)
            for name in ("b", "bn.gamma", "bn.beta")] + ["head.b"]
    assert [name for name, _, _ in layout] == weights + rest
    assert params.n_decayed == 12 + 16 + 12 + 16 + 16 + 16 + 4 == layout[len(weights)][1].start


def test_no_shortcut_changes_layout():
    full = init_params(3, [4], 2, "tanh", 0.0, seed=0)
    bare = init_params(3, [4], 2, "tanh", 0.0, seed=0, with_shortcut=False)
    names = [name for name, _, _ in flat_layout(bare)]
    assert "block0.shortcut.W" not in names
    assert bare.flat.size == full.flat.size - 4 * 3


@st.composite
def _networks(draw):
    """A random architecture with batch-norm running statistics that have
    seen one train-mode batch."""
    n_features = draw(st.integers(1, 5))
    params = init_params(
        n_features,
        draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)),
        draw(st.integers(1, 3)),
        "tanh",
        0.0,
        seed=draw(st.integers(0, 2**32 - 1)),
        with_shortcut=draw(st.booleans()),
    )
    X = np.random.default_rng(draw(st.integers(0, 100))).normal(size=(4, n_features))
    model_forward(X, params, mode="train")
    return params


def _named_tensors(params):
    """(name, slice, shape, tensor) of every `flat_layout` entry, its tensor
    found by name in a walk of the network's tree, independently of the
    model's own traversal."""
    def walk():
        for bi, block in enumerate(params.blocks):
            for li, (dense, bn) in enumerate(zip(block.dense_layers, block.batch_norms)):
                prefix = f"block{bi}.layer{li}"
                yield from ((f"{prefix}.W", dense.W), (f"{prefix}.b", dense.b),
                            (f"{prefix}.bn.gamma", bn.gamma),
                            (f"{prefix}.bn.beta", bn.beta_shift))
            if block.shortcut is not None:
                yield f"block{bi}.shortcut.W", block.shortcut.W
        yield from (("head.W", params.output_head.W), ("head.b", params.output_head.b))

    tensors = dict(walk())
    layout = flat_layout(params)
    assert sorted(tensors) == sorted(name for name, _, _ in layout)
    for name, where, shape in layout:
        yield name, where, shape, tensors[name]


@settings(max_examples=40, deadline=None)
@given(_networks())
def test_parameter_buffer_properties(params):
    layout = flat_layout(params)
    # the layout tiles the buffer in vector order: the weight matrices below
    # n_decayed, every other learnable tensor at or above it
    assert layout[0][1].start == 0 and layout[-1][1].stop == params.flat.size
    assert all(a[1].stop == b[1].start for a, b in zip(layout, layout[1:]))
    assert params.flat.size == to_flat(params).size
    for name, where, shape, tensor in _named_tensors(params):
        assert tensor.shape == shape and where.stop - where.start == tensor.size
        if name.endswith(".W"):
            assert where.stop <= params.n_decayed, name
        else:
            assert where.start >= params.n_decayed, name
        # every tensor aliases its slice of the buffer
        assert np.shares_memory(tensor, params.flat[where])

    # set_flat shows through the tensors, and a tensor write through flat
    theta = np.arange(params.flat.size, dtype=np.float64)
    set_flat(params, theta)
    for _, where, shape, tensor in _named_tensors(params):
        assert np.array_equal(tensor, theta[where].reshape(shape))
    params.output_head.b[...] = -1.0
    assert params.flat[-1] == -1.0 and to_flat(params)[-1] == -1.0

    # a copy is independent of the original, and its tensors alias its own buffer
    snap = params.copy()
    before = to_flat(snap)
    bn, snap_bn = params.blocks[0].batch_norms[0], snap.blocks[0].batch_norms[0]
    stats = (snap_bn.running_mean.copy(), snap_bn.running_var.copy(), snap.n_updates)
    params.flat += 1.0
    bn.running_mean += 1.0
    bn.running_var += 1.0
    params.n_updates += 1
    assert np.array_equal(snap.flat, before)
    assert np.array_equal(snap_bn.running_mean, stats[0])
    assert np.array_equal(snap_bn.running_var, stats[1])
    assert snap.n_updates == stats[2]
    for _, where, _, tensor in _named_tensors(snap):
        assert np.shares_memory(tensor, snap.flat[where])

    # pickle and deepcopy rebuild the buffer: the clone's tensors alias its
    # own flat, and the running statistics and the update count carry over
    norms = [bn for block in params.blocks for bn in block.batch_norms]
    for clone in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params)):
        assert np.array_equal(clone.flat, params.flat)
        assert not np.shares_memory(clone.flat, params.flat)
        for _, where, _, tensor in _named_tensors(clone):
            assert np.shares_memory(tensor, clone.flat[where])
        assert clone.n_updates == params.n_updates
        clone_norms = [bn for block in clone.blocks for bn in block.batch_norms]
        for bn, clone_bn in zip(norms, clone_norms, strict=True):
            assert np.array_equal(clone_bn.running_mean, bn.running_mean)
            assert np.array_equal(clone_bn.running_var, bn.running_var)
        clone.flat[...] = 0.0
        for _, _, _, tensor in _named_tensors(clone):
            assert not tensor.any()

    # checkpoint -> load -> checkpoint reproduces the bytes
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.ckpt"), os.path.join(tmp, "b.ckpt")
        save_checkpoint(first, params)
        save_checkpoint(second, load_checkpoint(first)[0])
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def test_init_deterministic_per_seed():
    a = to_flat(init_params(5, [8, 8], 3, "tanh", 0.2, seed=42))
    b = to_flat(init_params(5, [8, 8], 3, "tanh", 0.2, seed=42))
    c = to_flat(init_params(5, [8, 8], 3, "tanh", 0.2, seed=43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_init_bounds_biases_and_norms():
    params = init_params(10, [16], 2, "relu", 0.0, seed=5)
    first = params.blocks[0].dense_layers[0]
    limit = np.sqrt(6.0 / (10 + 16))
    assert np.max(np.abs(first.W)) <= limit
    assert np.array_equal(first.b, np.zeros(16))
    bn = params.blocks[0].batch_norms[0]
    assert np.array_equal(bn.gamma, np.ones(16))
    assert np.array_equal(bn.beta_shift, np.zeros(16))
    assert np.array_equal(bn.running_mean, np.zeros(16))
    assert np.array_equal(bn.running_var, np.ones(16))
    assert params.n_updates == 0


def test_init_validation():
    with pytest.raises(ValueError):
        init_params(3, [4], 2, "swish", 0.0, seed=0)
    with pytest.raises(ValueError):
        init_params(3, [4], 2, "tanh", 1.0, seed=0)
    with pytest.raises(ValueError):
        init_params(3, [], 2, "tanh", 0.0, seed=0)
    with pytest.raises(ValueError):
        init_params(3, [4], 0, "tanh", 0.0, seed=0)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    params = init_params(4, [6, 5], 2, "selu", 0.4, seed=8)
    X = np.random.default_rng(8).normal(size=(10, 4))
    model_forward(X, params, mode="train", stream=DropoutStream(1), epoch=1)
    std = StandardizationParams(np.array([1.0, -2.0, 0.5, 3.0]), np.array([1.0, 2.0, 0.7, 4.0]))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, standardization=std, extra={"seed": 8})

    loaded, loaded_std, extra = load_checkpoint(path)
    assert np.array_equal(to_flat(loaded), to_flat(params))
    assert loaded.activation_kind == "selu"
    assert loaded.dropout_rate == 0.4
    bn0 = loaded.blocks[0].batch_norms[0]
    orig0 = params.blocks[0].batch_norms[0]
    assert loaded.n_updates == params.n_updates == 1
    assert np.array_equal(bn0.running_mean, orig0.running_mean)
    assert np.array_equal(bn0.running_var, orig0.running_var)
    assert np.array_equal(loaded_std.means, std.means)
    assert np.array_equal(loaded_std.stddevs, std.stddevs)
    assert extra == {"seed": 8}
    # predictions survive the roundtrip bit for bit
    assert np.array_equal(model_forward(X, params)[0], model_forward(X, loaded)[0])


def test_checkpoint_bytes_are_pinned(tmp_path):
    # the file holds the tensors in table order, not in the parameter
    # vector's order (weight matrices first). The values come from numpy's
    # generator and IEEE arithmetic, so another numpy build may need the
    # digest recorded anew; a change to the vector's layout may not
    params = init_params(3, [4, 5], 2, "selu", 0.2, seed=11)
    params.stats[...] = np.linspace(0.5, 2.0, params.stats.size)
    params.n_updates = 3
    std = StandardizationParams(np.array([0.5, -1.0, 2.0]), np.array([1.5, 0.25, 3.0]))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, std, extra={"seed": 3, "note": "pinned"})
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "67c4829b97100e75403eb82ced5f54aa801ac0e981dc28aee54d6a9c01961313")
    loaded = load_checkpoint(path)[0]
    assert loaded.flat.tobytes() == params.flat.tobytes()
    assert loaded.stats.tobytes() == params.stats.tobytes()


def test_checkpoint_header_holds_one_batch_norm_entry(tmp_path):
    # the constants and the update count are the network's, not per layer
    params = init_params(3, [4, 5], 3, "tanh", 0.0, seed=0)
    model_forward(np.random.default_rng(0).normal(size=(6, 3)), params, mode="train")
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    raw = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    header = json.loads(raw[start:start + int.from_bytes(raw[start - 8:start], "little")])
    assert header["format"] == "ressurv-checkpoint-v2"
    assert header["batch_norm"] == {"epsilon": BN_EPSILON, "momentum": BN_MOMENTUM,
                                    "n_updates": 1}
    assert load_checkpoint(path)[0].n_updates == 1


def test_checkpoint_of_the_v1_format_is_refused_naming_it(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(3, [4], 2, "tanh", 0.0, seed=0))
    _edit_header(path, lambda h: h.update(format="ressurv-checkpoint-v1"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unsupported format "
                                         "'ressurv-checkpoint-v1'$"):
        load_checkpoint(path)


def test_checkpoint_bytes_deterministic(tmp_path):
    params = init_params(3, [4], 2, "tanh", 0.0, seed=0)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params)
    save_checkpoint(p2, params)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("damage, message", [
    (lambda b: b + b"\0", "unexpected bytes after the last array 'head.b'"),
    (lambda b: b[:-4], r"array 'head.b' is truncated \(4 of 8 bytes\)"),
    (lambda b: b[:40], "unreadable checkpoint header"),
    # 31-byte files whose length field declares more than is left: the
    # header was read first, which raised MemoryError or OverflowError
    (lambda b: _with_header_length(b, 2**33)[:31],
     r"unreadable checkpoint header: 10 of 8589934592 bytes"),
    (lambda b: _with_header_length(b, 2**63)[:31],
     r"unreadable checkpoint header: 10 of 9223372036854775808 bytes"),
], ids=["trailing-bytes", "truncated-array", "cut-header", "header-length-2^33",
        "header-length-2^63"])
def test_checkpoint_damage_fails_fast_naming_file_and_array(tmp_path, damage, message):
    params = init_params(3, [4], 2, "tanh", 0.0, seed=0)
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    save_checkpoint(good, params)
    assert flat_layout(params)[-1][0] == "head.b"   # the last array stored
    bad.write_bytes(damage(good.read_bytes()))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: {message}"):
            load_checkpoint(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _with_header_length(raw: bytes, length: int) -> bytes:
    start = len(CHECKPOINT_MAGIC)
    return raw[:start] + length.to_bytes(8, "little") + raw[start + 8:]


def _edit_header(path, edit, cut=0):
    """Rewrite a checkpoint with `edit` applied to its JSON header and the
    last `cut` bytes of its array data dropped."""
    raw = path.read_bytes()
    start = len(CHECKPOINT_MAGIC)
    end = start + 8 + int.from_bytes(raw[start:start + 8], "little")
    header = json.loads(raw[start + 8:end])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:start] + len(blob).to_bytes(8, "little") + blob
                     + raw[end:len(raw) - cut])


def _swap_first_bias_and_gamma(header):
    arrays = header["arrays"]
    arrays[1], arrays[2] = arrays[2], arrays[1]


@pytest.mark.parametrize("edit, cut, message", [
    # head.b left out of the manifest, its bytes cut: it loaded as its
    # initial 0.0 without a word
    (lambda h: h["arrays"].pop(), 8,
     r"array manifest entry 14 is None, expected \('head.b', \(1,\)\)"),
    # two (4,) tensors listed in swapped order: their values loaded swapped
    (_swap_first_bias_and_gamma, 0,
     r"array manifest entry 1 is \('block0.layer0.bn.gamma', \(4,\)\), "
     r"expected \('block0.layer0.b', \(4,\)\)"),
    (lambda h: h.pop("dense_layers_per_block"), 0,
     "missing key 'dense_layers_per_block'"),
    # the one entry per dense layer that the v1 format wrote
    (lambda h: h.update(batch_norm=[{"block": 0, "layer": li, **h["batch_norm"]}
                                    for li in range(2)]), 0,
     r"batch_norm has '\[{\"block\": 0, .*' at character 0, where this network writes "
     r"'{\"epsilon\": 1e-05, "),
    (lambda h: h["batch_norm"].update(epsilon=1e-3), 0,
     r"batch_norm has '0.001, .*' at character 12, where this network writes '1e-05, "),
    # a 5-feature standardization for the 3-feature network loaded silently
    (lambda h: h.update(standardization={"means": [0.0] * 5, "stddevs": [1.0] * 5}), 0,
     "standardization of 5 features for a network of 3 input features"),
    # a NaN mean or an infinite deviation loaded, and scored a feature as NaN or 0
    (lambda h: h.update(standardization={"means": [float("nan"), 0.0, 0.0],
                                         "stddevs": [1.0] * 3}), 0,
     "means and stddevs must be finite"),
    (lambda h: h.update(standardization={"means": [0.0] * 3,
                                         "stddevs": [float("inf"), 1.0, 1.0]}), 0,
     "means and stddevs must be finite"),
    # a 2 KB file declaring 32 million floats: the network was built (512 MB)
    # before anything was compared with the file
    (lambda h: h.update(n_features=4_000_000), 0,
     r"array manifest entry 0 is \('block0.layer0.W', \(4, 3\)\), "
     r"expected \('block0.layer0.W', \(4, 4000000\)\)"),
    # true or 1 where the other is written: each loaded, some saved back
    # other bytes, and a shortcut flag of 1 built the shortcuts
    (lambda h: h.update(with_shortcut=1), 0, "with_shortcut must be true or false, not 1"),
    (lambda h: h["batch_norm"].update(n_updates=True), 0,
     "n_updates must be an integer, not True"),
    (lambda h: h.update(batch_norm={}), 0,
     r"batch_norm has '}' at character 1, where this network writes '\"epsilon\": 1e-05, "),
    (lambda h: h["arrays"][-1].update(shape=[True]), 0,
     r"arrays has 'true\]}\]' at character \d+, where this network writes '1\]}\]'"),
], ids=["omitted-array", "reordered-arrays", "missing-key", "batch-norm-v1-list",
        "batch-norm-epsilon", "standardization-width", "standardization-nan-mean",
        "standardization-inf-stddev", "huge-declared-network",
        "shortcut-flag-1", "update-count-true", "no-batch-norm-entries", "shape-true"])
def test_checkpoint_header_must_describe_the_network(tmp_path, edit, cut, message):
    params = init_params(3, [4], 2, "tanh", 0.0, seed=0)
    params.output_head.b[...] = 7.0
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    assert [name for name, _, _ in flat_layout(params)][-1] == "head.b"
    _edit_header(path, edit, cut)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint header "
                                             f"does not describe a network: {message}"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_checkpoint_too_short_for_its_declared_network_fails_before_building_it(tmp_path):
    # header and manifest agree on 4 million input features; the data does not
    params = init_params(3, [4], 2, "tanh", 0.0, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)

    def widen(header):
        header["n_features"] = 4_000_000
        for entry in header["arrays"]:
            if entry["name"] in ("block0.layer0.W", "block0.shortcut.W"):
                entry["shape"][1] = 4_000_000

    _edit_header(path, widen)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: array "
                                             r"'block0.layer0.W' is truncated \(\d+ of "
                                             r"128000000 bytes\)"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _json_paths(value, path=()):
    """(path, value) of a JSON value and of every value inside it."""
    yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _json_paths(item, path + (key,))


def _at(root, path):
    for key in path:
        root = root[key]
    return root


def _replaced(root, path, value):
    if not path:
        return value
    _at(root, path[:-1])[path[-1]] = value
    return root


_RESPELLINGS = [
    lambda b: b" " + b,
    lambda b: b + b"\n",
    lambda b: b.replace(b'"format"', b'"\\u0066ormat"'),
    lambda b: b.replace(b'"dropout_rate": 0.0', b'"dropout_rate": 0.00'),
    lambda b: b.replace(b"1e-05", b"0.00001"),
    lambda b: b.replace(b", ", b","),
    lambda b: json.dumps(json.loads(b), sort_keys=True, indent=1).encode("utf-8"),
]


@settings(max_examples=200, deadline=None)
@given(with_shortcut=st.booleans(), data=st.data())
def test_damaged_checkpoint_header_fails_fast_or_saves_back_the_same_bytes(
        with_shortcut, data):
    # a feature count, a width, a layer count, shapes and update counts of
    # 1, where true or 1.0 compares equal to the integer 1
    params = init_params(1, [2, 1], 1, "tanh", 0.0, seed=0, with_shortcut=with_shortcut)
    model_forward(np.array([[0.5], [-1.0], [2.0]]), params, mode="train")
    std = StandardizationParams(np.array([0.5]), np.array([2.0]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        save_checkpoint(path, params, standardization=std, extra={"seed": 1, "tag": "x"})
        with open(path, "rb") as fh:
            raw = fh.read()
        start = len(CHECKPOINT_MAGIC) + 8
        end = start + int.from_bytes(raw[start - 8:start], "little")
        header = json.loads(raw[start:end])
        paths = list(_json_paths(header))
        kind = data.draw(st.sampled_from(["drop", "swap", "perturb", "reorder", "length",
                                          "respell"]))
        length = None
        if kind == "drop":
            where = data.draw(st.sampled_from(
                [p for p, _ in paths if p and isinstance(_at(header, p[:-1]), dict)]))
            del _at(header, where[:-1])[where[-1]]
        elif kind == "swap":
            where = data.draw(st.sampled_from([p for p, _ in paths]))
            header = _replaced(header, where, data.draw(st.one_of(
                st.booleans(), st.floats(), st.text(max_size=3),
                st.lists(st.integers(-2, 5), max_size=3))))
        elif kind == "perturb":
            where, value = data.draw(st.sampled_from(
                [(p, v) for p, v in paths if type(v) is int]))
            header = _replaced(header, where, value + data.draw(
                st.sampled_from([-2, -1, 1, 2, 2**40])))
        elif kind == "reorder":
            header["arrays"] = data.draw(st.permutations(header["arrays"]))
        elif kind == "length":
            length = data.draw(st.one_of(st.integers(0, 2**64 - 1),
                                         st.sampled_from([2**33, 2**63, 2**64 - 1]),
                                         st.integers(end - start - 8, end - start + 8)))
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        if kind == "respell":   # the same JSON values, spelled otherwise
            blob = data.draw(st.sampled_from(_RESPELLINGS))(blob)
        edited = (raw[:start - 8] + (len(blob) if length is None else length).to_bytes(8, "little")
                  + blob + raw[end:])
        with open(path, "wb") as fh:
            fh.write(edited)

        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
        except ValueError as err:
            assert str(err).startswith(f"{path}: "), err
            assert tracemalloc.get_traced_memory()[1] < 1_000_000
            return
        finally:
            tracemalloc.stop()
        resaved = os.path.join(tmp, "resaved.ckpt")
        save_checkpoint(resaved, *loaded)
        with open(resaved, "rb") as fh:
            assert fh.read() == edited


@pytest.mark.parametrize("respell", [
    lambda t: " " + t,
    lambda t: t.replace('"dropout_rate": 0.2', '"dropout_rate": 0.20000000000000001'),
    lambda t: t.replace('"format"', '"\\u0066ormat"'),
], ids=["leading-space", "long-float", "escaped-key"])
def test_checkpoint_header_spelled_otherwise_is_refused(tmp_path, respell):
    # each of these loaded, and saved back other bytes
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(3, [4], 2, "tanh", 0.2, seed=0))
    raw = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    end = start + int.from_bytes(raw[start - 8:start], "little")
    text = respell(raw[start:end].decode("utf-8"))
    assert text != raw[start:end].decode("utf-8")
    blob = text.encode("utf-8")
    path.write_bytes(raw[:start - 8] + len(blob).to_bytes(8, "little") + blob + raw[end:])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint header does not "
                                         r"describe a network: header has '.*' at character "
                                         r"\d+, where this network writes "):
        load_checkpoint(path)


def _json_values(keys):
    leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.tuples(inner, inner),
        st.dictionaries(keys, inner, max_size=3)), max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(extra=st.one_of(st.none(), st.dictionaries(
    st.one_of(st.text(max_size=3), st.integers(-3, 12)), _json_values(st.text(max_size=3)),
    max_size=4)))
@example(extra={9: "a", 10: "b"})   # loaded with string keys, saved back other bytes
def test_checkpoint_extra_saves_as_it_loads(extra):
    params = init_params(1, [2], 1, "tanh", 0.0, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.ckpt"), os.path.join(tmp, "b.ckpt")
        try:
            save_checkpoint(first, params, extra=extra)
        except ValueError as err:
            # 1 and "1" are the same JSON key
            assert str(err) == "extra has keys that are equal as JSON strings"
            assert len({str(key) for key in extra}) < len(extra)
            assert not os.path.exists(first)
            return
        loaded, _, loaded_extra = load_checkpoint(first)
        save_checkpoint(second, loaded, extra=loaded_extra)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
    # what loads is the JSON round trip of what was saved (NaN included)
    assert (json.dumps(loaded_extra, sort_keys=True)
            == json.dumps(json.loads(json.dumps(extra)), sort_keys=True))


def test_checkpoint_save_rejects_standardization_of_another_width(tmp_path):
    params = init_params(3, [4], 2, "tanh", 0.0, seed=0)
    std = StandardizationParams(np.zeros(5), np.ones(5))
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="standardization of 5 features for a network "
                                         "of 3 input features"):
        save_checkpoint(path, params, standardization=std)
    assert not path.exists()


def test_checkpoint_without_standardization(tmp_path):
    params = init_params(3, [4], 2, "relu", 0.0, seed=1)
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, params)
    loaded, std, extra = load_checkpoint(path)
    assert std is None and extra is None
    assert np.array_equal(to_flat(loaded), to_flat(params))
