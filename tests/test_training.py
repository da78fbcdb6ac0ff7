import dataclasses
import functools
import json
import multiprocessing
import os
import sys
import tempfile
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import fold_1_feature_dataset, make_dataset
from ressurv import cli, training
from ressurv.cox import build_risk_index, neg_log_partial_likelihood
from ressurv.data import (
    SurvivalDataset,
    SyntheticSpec,
    filter_features,
    generate_synthetic,
    standardize_apply,
    standardize_fit,
    stratified_holdout,
    write_csv,
)
from ressurv.errors import DivergenceError, UnusableDatasetError
from ressurv.model import model_forward, to_flat
from ressurv.training import (
    GRID_DOMAINS,
    GRID_FIELDS,
    STEP_CHUNK,
    CVResult,
    Hyperparameters,
    UnitPool,
    adam_step,
    adamw_step,
    cross_validate,
    decay_learning_rate,
    enumerate_grid,
    grid_search,
    init_optimizer_state,
    sgd_step,
    stable_seed,
    train,
)


def _split(ds, frac=0.25, seed=1):
    tr_idx, va_idx = stratified_holdout(ds.events, frac, seed=seed)
    return ds.subset(tr_idx), ds.subset(va_idx)


# a configuration small enough that full test files stay fast
TINY = Hyperparameters(
    n_blocks=1, nodes=8, dense_layers_per_block=2,
    dropout_rate=0.0, max_epochs=30, patience=5,
)

# drives the weights into overflow: the L2 gradient term alone multiplies
# every weight by a factor > 1 each sgd step, and patience exceeds the
# epoch count at which the scores overflow, so early stopping cannot rescue it
DIVERGENT = Hyperparameters(
    optimizer_kind="sgd", learning_rate=1e-1, l2_lambda=50.0,
    n_blocks=1, nodes=8, dense_layers_per_block=1,
    dropout_rate=0.0, lr_decay=0.0, max_epochs=400, patience=400,
)
# its error on make_dataset(n=80, p=3, seed=0) under cross-validation
DIVERGED_FOLD_0 = ("non-finite loss at epoch 20 (fold 0: validation loss); "
                   "the learning rate is likely too high")


# ---------------------------------------------------------------------------
# Hyperparameters
# ---------------------------------------------------------------------------

def test_hp_defaults_are_valid():
    hp = Hyperparameters()
    assert hp.optimizer_kind == "adam"
    assert hp.activation_kind == "tanh"
    assert hp.patience == 10


def test_hp_strings_case_insensitive():
    hp = Hyperparameters(optimizer_kind="AdamW", activation_kind="SELU")
    assert hp.optimizer_kind == "adamw"
    assert hp.activation_kind == "selu"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"optimizer_kind": "rmsprop"},
        {"activation_kind": "gelu"},
        {"n_blocks": 0},
        {"nodes": 0},
        {"learning_rate": 0.0},
        {"learning_rate": -1e-3},
        {"l2_lambda": -1.0},
        {"dropout_rate": 1.0},
        {"lr_decay": -0.1},
        {"max_epochs": 0},
        {"patience": 0},
        {"seed": -1},
    ],
)
def test_hp_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        Hyperparameters(**kwargs)


def test_hp_lr_decay_zero_is_legal():
    assert Hyperparameters(lr_decay=0.0).lr_decay == 0.0


def test_hp_dict_roundtrip_and_unknown_keys():
    hp = Hyperparameters(nodes=128, seed=7)
    assert Hyperparameters.from_dict(dataclasses.asdict(hp)) == hp
    with pytest.raises(ValueError, match="unknown"):
        Hyperparameters.from_dict({"momentum": 0.9})


def test_hp_replaced():
    hp = Hyperparameters()
    other = hp.replaced(nodes=512)
    assert other.nodes == 512 and hp.nodes == 64


def test_stable_seed_deterministic_and_sensitive():
    assert stable_seed(1, 2, 3) == stable_seed(1, 2, 3)
    assert stable_seed(1, 2, 3) != stable_seed(1, 2, 4)
    assert stable_seed(1, 2, 3) != stable_seed(3, 2, 1)


# ---------------------------------------------------------------------------
# Optimizer steps
# ---------------------------------------------------------------------------

def test_sgd_step_hand_value():
    hp = Hyperparameters(optimizer_kind="sgd", learning_rate=0.1)
    state = init_optimizer_state(hp, 1, 1)
    w = np.array([1.0])
    sgd_step(w, np.array([2.0]), state, hp)
    assert np.isclose(w[0], 0.8)
    assert state.t == 1


def test_sgd_zero_gradient_leaves_weights():
    hp = Hyperparameters(optimizer_kind="sgd", learning_rate=0.1)
    state = init_optimizer_state(hp, 3, 3)
    w = np.array([1.0, -2.0, 0.5])
    sgd_step(w, np.zeros(3), state, hp)
    assert np.array_equal(w, np.array([1.0, -2.0, 0.5]))


def test_adam_first_step_is_signed_lr():
    # after bias correction the first step is lr * g / (|g| + eps)
    hp = Hyperparameters(optimizer_kind="adam", learning_rate=1e-2)
    state = init_optimizer_state(hp, 2, 2)
    w = np.zeros(2)
    adam_step(w, np.array([3.0, -0.25]), state, hp)
    assert np.allclose(w, [-1e-2, 1e-2], rtol=1e-6)


def test_adam_state_accumulates():
    hp = Hyperparameters(optimizer_kind="adam", learning_rate=1e-2)
    state = init_optimizer_state(hp, 1, 1)
    w = np.zeros(1)
    g = np.array([2.0])
    adam_step(w, g, state, hp)
    assert state.t == 1
    assert np.isclose(state.m[0], 0.1 * 2.0)
    assert np.isclose(state.v[0], 0.001 * 4.0)


def test_adamw_decay_is_decoupled_and_masked():
    # zero gradient: the adam update is exactly zero, so only decay moves
    # the weights, and only the leading n_decayed of them
    hp = Hyperparameters(optimizer_kind="adamw", learning_rate=0.5, l2_lambda=8.0)
    state = init_optimizer_state(hp, 2, 1)
    w = np.array([10.0, 10.0])
    adamw_step(w, np.zeros(2), state, hp)
    wd = 8.0 * 1e-3
    assert np.isclose(w[0], 10.0 * (1.0 - 0.5 * wd))
    assert w[1] == 10.0


def _step_reference(kind, w, g, ref, hp):
    """The optimizer steps written out with a fresh array per operation."""
    ref["t"] += 1
    if kind == "sgd":
        return w - ref["lr"] * g
    if kind == "adamw":
        wd = hp.l2_lambda * 1e-3
        w = w.copy()
        w[:ref["n_decayed"]] -= ref["lr"] * wd * w[:ref["n_decayed"]]
    ref["m"] = 0.9 * ref["m"] + (1.0 - 0.9) * g
    ref["v"] = 0.999 * ref["v"] + (1.0 - 0.999) * g * g
    m_hat = ref["m"] / (1.0 - 0.9 ** ref["t"])
    v_hat = ref["v"] / (1.0 - 0.999 ** ref["t"])
    return w - ref["lr"] * m_hat / (np.sqrt(v_hat) + 1e-8)


@pytest.mark.parametrize("kind", ["sgd", "adam", "adamw"])
def test_steps_match_the_formulas_bit_for_bit(kind):
    # the steps compute chunk by chunk in the state's work rows, allocating
    # nothing; the long vector spans four chunks, its decayed part ending
    # inside the third
    rng = np.random.default_rng(3)
    hp = Hyperparameters(optimizer_kind=kind, learning_rate=0.05, l2_lambda=4.0)
    step = training._STEP_FUNCTIONS[kind]
    for size, n_decayed in ((50, 30), (3 * STEP_CHUNK + 123, 2 * STEP_CHUNK + 77)):
        state = init_optimizer_state(hp, size, n_decayed)
        ref = {"t": 0, "lr": hp.learning_rate, "n_decayed": n_decayed,
               "m": np.zeros(size), "v": np.zeros(size)}
        w = rng.normal(size=size)
        want = w.copy()
        for _ in range(4):
            g = rng.normal(size=size) * 3.0
            assert step(w, g, state, hp) is w
            want = _step_reference(kind, want, g, ref, hp)
            assert w.tobytes() == want.tobytes()
            state.lr = ref["lr"] = state.lr * 0.9


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_optimizer_work_rows_do_not_grow_with_the_parameter_count(kind):
    hp = Hyperparameters(optimizer_kind=kind)
    rows = 1 if kind == "sgd" else 2
    assert init_optimizer_state(hp, 50, 30).work.nbytes == rows * 50 * 8
    for size in (STEP_CHUNK, 3 * STEP_CHUNK + 123, 40 * STEP_CHUNK):
        assert init_optimizer_state(hp, size, size // 2).work.nbytes == rows * STEP_CHUNK * 8


def test_decay_learning_rate_hand_value():
    hp = Hyperparameters(learning_rate=1e-2, lr_decay=1e-2)
    state = init_optimizer_state(hp, 1, 1)
    decay_learning_rate(state, hp, 100)
    assert np.isclose(state.lr, 5e-3)


def test_decay_learning_rate_monotone_and_validated():
    hp = Hyperparameters(learning_rate=1e-2, lr_decay=1e-3)
    state = init_optimizer_state(hp, 1, 1)
    last = np.inf
    for epoch in range(1, 20):
        decay_learning_rate(state, hp, epoch)
        assert state.lr < last
        last = state.lr
    with pytest.raises(ValueError):
        decay_learning_rate(state, hp, 0)


def test_decay_zero_keeps_lr_constant():
    hp = Hyperparameters(learning_rate=1e-2, lr_decay=0.0)
    state = init_optimizer_state(hp, 1, 1)
    decay_learning_rate(state, hp, 500)
    assert state.lr == 1e-2


# ---------------------------------------------------------------------------
# train()
# ---------------------------------------------------------------------------

def test_train_learns_on_linear_data():
    ds = make_dataset(n=300, p=4, seed=3)
    tr, va = _split(ds)
    report = train(tr, va, TINY.replaced(max_epochs=60, patience=10))
    assert report.best_val_loss <= report.epochs[0].val_loss
    first = report.epochs[0].train_loss
    assert min(r.train_loss for r in report.epochs) < first
    assert report.best_epoch == min(
        r.epoch for r in report.epochs
        if np.isclose(r.val_loss, report.best_val_loss, rtol=0, atol=1e-12)
    )
    assert 0.5 < report.best_val_c_index <= 1.0


def test_train_frozen_weights_stop_after_patience_plus_one():
    # a learning rate far below float64 resolution makes every step a no-op,
    # and full-batch statistics make the second epoch's running-stat update
    # a fixed point, so epoch 2 reproduces epoch 1's validation loss exactly:
    # one improving epoch, then patience=1 exhausts
    ds = make_dataset(n=100, p=3, seed=5)
    tr, va = _split(ds)
    hp = TINY.replaced(optimizer_kind="sgd", learning_rate=1e-300,
                       lr_decay=0.0, patience=1, max_epochs=50)
    report = train(tr, va, hp)
    assert report.epochs_run == 2
    assert report.stopped_early
    assert report.best_epoch == 1
    assert report.epochs[0].val_loss == report.epochs[1].val_loss


def test_train_is_deterministic():
    ds = make_dataset(n=120, p=3, seed=8)
    tr, va = _split(ds)
    hp = TINY.replaced(dropout_rate=0.3, max_epochs=20)
    a = train(tr, va, hp)
    b = train(tr, va, hp)
    assert a.epochs == b.epochs
    assert np.array_equal(to_flat(a.params), to_flat(b.params))


def test_train_seed_changes_the_run():
    ds = make_dataset(n=120, p=3, seed=8)
    tr, va = _split(ds)
    a = train(tr, va, TINY.replaced(seed=0))
    b = train(tr, va, TINY.replaced(seed=1))
    assert not np.array_equal(to_flat(a.params), to_flat(b.params))


def test_train_restores_best_snapshot():
    ds = make_dataset(n=200, p=4, seed=11)
    tr, va = _split(ds)
    report = train(tr, va, TINY.replaced(max_epochs=40, patience=6))
    recorded = min(r.val_loss for r in report.epochs)
    assert abs(report.best_val_loss - recorded) < 1e-12
    # restored parameters (weights and running stats) reproduce that loss
    h, _ = model_forward(va.features, report.params, mode="eval")
    idx = build_risk_index(va.times, va.events)
    assert abs(neg_log_partial_likelihood(h, idx) - report.best_val_loss) < 1e-12


def test_train_divergence_aborts_with_epoch():
    ds = make_dataset(n=80, p=3, seed=0)
    tr, va = _split(ds)
    with pytest.raises(DivergenceError) as exc:
        train(tr, va, DIVERGENT)
    assert exc.value.epoch >= 1
    assert "learning rate" in str(exc.value)


def test_train_names_the_epoch_whose_scores_are_not_finite(monkeypatch):
    # the Cox loss refuses non-finite scores with a ValueError, so train
    # checks the scores first: one sgd step of 1e30 overflows the
    # validation scores of epoch 1
    ds = make_dataset(n=200, p=4, seed=1)
    tr, va = _split(ds)
    with pytest.raises(DivergenceError) as exc:
        train(tr, va, TINY.replaced(optimizer_kind="sgd", learning_rate=1e30))
    assert (exc.value.epoch, exc.value.message) == (1, "validation loss")

    forward = training.model_forward

    def overflowing(X, params, mode="eval", **kwargs):
        h, cache = forward(X, params, mode, **kwargs)
        if mode == "train" and kwargs["epoch"] == 2:
            h = np.full_like(h, np.inf)
        return h, cache

    monkeypatch.setattr(training, "model_forward", overflowing)
    with pytest.raises(DivergenceError) as exc:
        train(tr, va, TINY)
    assert (exc.value.epoch, exc.value.message) == (2, "training loss")


def test_train_computes_the_layers_in_float32_and_steps_in_float64(monkeypatch):
    # the layers read a float32 network, refreshed from the float64 master
    # weights after every step; the step and its moments stay float64, and
    # the report holds the float32 network
    ds = make_dataset(n=120, p=3, seed=8)
    tr, va = _split(ds)
    forward, step = training.model_forward, training._STEP_FUNCTIONS["adam"]
    dtypes, stepped = set(), []

    def recording_forward(X, params, *args, **kwargs):
        dtypes.add(("layers", X.dtype, params.flat.dtype, params.stats.dtype))
        if stepped:
            assert np.array_equal(params.flat, stepped[-1].astype(np.float32))
        return forward(X, params, *args, **kwargs)

    def recording_step(flat, grads, state, hp):
        dtypes.add(("step", flat.dtype, grads.dtype, state.m.dtype, state.v.dtype))
        stepped.append(step(flat, grads, state, hp).copy())
        return flat

    monkeypatch.setattr(training, "model_forward", recording_forward)
    monkeypatch.setitem(training._STEP_FUNCTIONS, "adam", recording_step)
    report = train(tr, va, TINY.replaced(max_epochs=4, patience=10))
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    assert dtypes == {("layers", f32, f32, f32), ("step", f64, f64, f64, f64)}
    assert len(stepped) == 4
    assert report.params.flat.dtype == report.params.stats.dtype == f32


def test_train_holds_one_epoch_of_activations():
    # the paper-default net on a cv-paper fold's shape; one epoch of the
    # float32 train-mode cache, from the shapes: per dense layer xhat,
    # activation and dropout mask, per block the inputs of its later layers
    # and its output
    hp = Hyperparameters(max_epochs=3, patience=5)
    beta = (1.0, -0.8, 0.6) + (0.0,) * 17
    ds, _ = generate_synthetic(SyntheticSpec(n=1600, p=20, true_coefficients=beta,
                                             target_censor_rate=0.3, seed=5))
    tr, va = ds.subset(np.arange(1280)), ds.subset(np.arange(1280, 1600))
    layers = hp.dense_layers_per_block
    per_row_and_node = hp.n_blocks * (layers * (4 + 4 + 1) + (layers - 1) * 4 + 4)
    cache_bytes = per_row_and_node * tr.n * hp.nodes
    tracemalloc.start()
    try:
        train(tr, va, hp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 1.54x: the float64 optimizer state, master weights and penalty
    # rows add about 8 MB; a new cache per epoch would hold two epochs at
    # once (about 2.5x)
    assert peak <= 1.8 * cache_bytes, f"peak {peak / cache_bytes:.2f}x one epoch's cache"


def test_train_scores_the_validation_c_index_every_epoch():
    ds = make_dataset(n=120, p=3, seed=8)
    tr, va = _split(ds)
    report = train(tr, va, TINY.replaced(max_epochs=6, patience=10))
    assert len(report.epochs) == 6
    assert all(np.isfinite(r.val_c_index) for r in report.epochs)
    assert report.best_val_c_index == report.epochs[report.best_epoch - 1].val_c_index
    # without the score, every other number of the report is the same
    unscored = train(tr, va, TINY.replaced(max_epochs=6, patience=10),
                     score_val_c_index=False)
    assert all(np.isnan(r.val_c_index) for r in unscored.epochs)
    assert ([dataclasses.replace(r, val_c_index=0.0) for r in unscored.epochs]
            == [dataclasses.replace(r, val_c_index=0.0) for r in report.epochs])
    assert np.array_equal(to_flat(unscored.params), to_flat(report.params))


def test_train_validates_splits():
    ds = make_dataset(n=40, p=3, seed=1)
    censored = SurvivalDataset(
        ds.sample_ids, ds.features, ds.feature_names,
        ds.times, np.zeros(ds.n, dtype=bool),
    )
    tr, va = _split(ds)
    with pytest.raises(UnusableDatasetError, match="^the training split has no comparable "):
        train(censored, va, TINY)
    with pytest.raises(UnusableDatasetError, match="^the validation split has no comparable "):
        train(tr, censored, TINY)
    narrower = va.select_features(va.feature_names[:2])
    with pytest.raises(UnusableDatasetError):
        train(tr, narrower, TINY)


def test_train_refuses_a_split_without_a_comparable_pair_before_the_network(monkeypatch):
    # every validation event at the latest validation time: no pair to
    # score, which the validation C-index found only after a full epoch
    ds = make_dataset(n=60, p=3, seed=2)
    tr, va = _split(ds)
    times = va.times.copy()
    times[va.events] = times.max()
    late = SurvivalDataset(va.sample_ids, va.features, va.feature_names, times, va.events)
    monkeypatch.setattr(training, "init_params", lambda **kw: pytest.fail("network made"))
    with pytest.raises(UnusableDatasetError, match=r"^the validation split has no comparable "
                                                   r"pair \(an event followed by a strictly "
                                                   r"later time\)$"):
        train(tr, late, TINY)


# ---------------------------------------------------------------------------
# cross_validate
# ---------------------------------------------------------------------------

def test_cv_fold_accounting():
    ds = make_dataset(n=100, p=3, seed=2)
    cv = cross_validate(ds, TINY, k=5, seed=0)
    assert cv.k == 5 and len(cv.folds) == 5
    assert [r.fold for r in cv.folds] == [0, 1, 2, 3, 4]
    for r in cv.folds:
        assert r.n_test == 20 and r.n_train == 80
        assert 0.0 <= r.c_index <= 1.0
    values = np.array([r.c_index for r in cv.folds])
    assert abs(cv.mean_c_index - values.mean()) < 1e-12
    assert abs(cv.std_c_index - values.std()) < 1e-12
    assert len(cv.fold_hash) == 16  # truncated sha256 hex


def test_cv_invariant_to_row_order():
    ds = make_dataset(n=90, p=3, seed=4)
    perm = np.random.default_rng(0).permutation(ds.n)
    shuffled = SurvivalDataset(
        [ds.sample_ids[i] for i in perm], ds.features[perm],
        ds.feature_names, ds.times[perm], ds.events[perm],
    )
    a = cross_validate(ds, TINY, k=3, seed=7)
    b = cross_validate(shuffled, TINY, k=3, seed=7)
    assert a.fold_hash == b.fold_hash
    assert a.mean_c_index == b.mean_c_index
    assert [r.c_index for r in a.folds] == [r.c_index for r in b.folds]


def test_cv_recovers_strong_linear_signal():
    spec = SyntheticSpec(
        n=800, p=5, hazard_kind="linear",
        true_coefficients=(2.0, -2.0, 1.0, 0.0, 0.0),
        target_censor_rate=0.25, seed=55,
    )
    ds, _ = generate_synthetic(spec)
    hp = Hyperparameters(n_blocks=2, nodes=32, dense_layers_per_block=2,
                         max_epochs=200)
    cv = cross_validate(ds, hp, k=5, seed=55)
    assert cv.mean_c_index > 0.8


def test_cv_divergence_names_the_fold():
    # the fold and the stage whose scores were not finite
    ds = make_dataset(n=80, p=3, seed=0)
    with pytest.raises(DivergenceError) as exc:
        cross_validate(ds, DIVERGENT, k=3, seed=0)
    assert (exc.value.epoch, exc.value.message) == (20, "fold 0: validation loss")


def test_cv_worker_count_is_invisible():
    ds = make_dataset(n=90, p=3, seed=5)
    serial = cross_validate(ds, TINY.replaced(max_epochs=10), k=3, seed=2)
    pooled = cross_validate(ds, TINY.replaced(max_epochs=10), k=3, seed=2, pool=UnitPool(2))
    assert pooled == serial


def _count_concordance_calls(monkeypatch, path):
    """Make every `concordance_fast` call of the training module, forked
    workers' too, append a line to `path`; returns a line counter."""
    real = training.concordance_fast

    def counted(*args):
        with open(path, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(training, "concordance_fast", counted)
    path.write_text("")
    return lambda: len(path.read_text().splitlines())


@pytest.mark.parametrize("workers", [1, 2])
def test_cv_units_score_the_c_index_once_and_report_the_same(monkeypatch, tmp_path,
                                                             workers):
    # a unit scores only its held-out fold; scoring every epoch's validation
    # split as well changes no fold record
    ds = make_dataset(n=90, p=3, seed=5)
    hp = TINY.replaced(max_epochs=4, patience=10)
    calls = _count_concordance_calls(monkeypatch, tmp_path / "calls")
    lean = cross_validate(ds, hp, k=3, seed=2, pool=UnitPool(workers))
    assert calls() == 3

    real_train = training.train
    monkeypatch.setattr(training, "train", lambda *args, **kwargs: real_train(
        *args, **{**kwargs, "score_val_c_index": True}))
    (tmp_path / "calls").write_text("")
    scored = cross_validate(ds, hp, k=3, seed=2, pool=UnitPool(workers))
    assert calls() == 3 * (hp.max_epochs + 1)
    assert scored == lean


def test_cv_divergence_message_is_the_same_under_a_pool():
    ds = make_dataset(n=80, p=3, seed=0)
    messages = []
    for workers in (1, 2):
        with pytest.raises(DivergenceError) as info:
            cross_validate(ds, DIVERGENT, k=3, seed=0, pool=UnitPool(workers))
        messages.append(str(info.value))
    assert messages == [DIVERGED_FOLD_0] * 2


def test_early_stop_split_gives_rows_that_partition_the_rows_it_splits():
    # rows of the dataset, not positions into `rows`, on rows other than arange(n)
    ds = make_dataset(n=60, p=3, seed=3)
    rows = np.flatnonzero(np.arange(ds.n) % 3 != 1)
    train_rows, val_rows = training.early_stop_split(ds, rows, 4)
    assert np.array_equal(np.sort(np.concatenate([train_rows, val_rows])), rows)
    assert np.intersect1d(train_rows, val_rows).size == 0
    holdout = stratified_holdout(ds.events[rows], training.HOLDOUT_FRACTION, seed=4)
    assert [side.tolist() for side in (train_rows, val_rows)] == [rows[pos].tolist()
                                                                  for pos in holdout]
    plan = training.plan_folds(ds, 3, 0)
    for f, sides in enumerate(plan.splits):
        assert np.array_equal(np.sort(np.concatenate(sides)), plan.folds.train_indices(f))


def _four_event_dataset():
    # events at rows 0, 5, 10, 15 only: with k=5 the held-out fold 4 gets none
    ds = make_dataset(n=40, p=3, seed=0)
    events = np.zeros(ds.n, dtype=bool)
    events[[0, 5, 10, 15]] = True
    return SurvivalDataset(ds.sample_ids, ds.features, ds.feature_names, ds.times, events)


def test_cv_degenerate_fold_fails_before_training(monkeypatch):
    calls = []
    monkeypatch.setattr(training, "train", lambda *a, **kw: calls.append(1))
    with pytest.raises(UnusableDatasetError, match="fold 4: the held-out split"):
        cross_validate(_four_event_dataset(), TINY, k=5, seed=0)
    assert calls == []


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_search_degenerate_fold_fails_before_training(monkeypatch, workers):
    calls = []
    monkeypatch.setattr(training, "train", lambda *a, **kw: calls.append(1))
    with pytest.raises(UnusableDatasetError, match="fold 4: the held-out split"):
        grid_search(_four_event_dataset(), enumerate_grid({"learning_rate": [1e-2, 1e-3]}, TINY),
                    k=5, seed=0, pool=UnitPool(workers))
    assert calls == []


@pytest.mark.parametrize("workers", [1, 2])
def test_a_fold_left_without_features_is_named(monkeypatch, workers):
    # fold 1's complement has no feature with variance, which the plan finds
    # while it prepares the folds, before any unit trains
    calls = []
    monkeypatch.setattr(training, "train", lambda *a, **kw: calls.append(1))
    with pytest.raises(UnusableDatasetError, match=r"^fold 1: no features retained at "):
        cross_validate(fold_1_feature_dataset(), TINY.replaced(max_epochs=2), k=2, seed=0,
                       pool=UnitPool(workers))
    assert calls == []


def _with_column(ds, j, values):
    X = ds.features.copy()
    X[:, j] = values
    return SurvivalDataset(ds.sample_ids, X, ds.feature_names, ds.times, ds.events)


def test_a_fold_whose_standardization_overflows_is_named_before_training(monkeypatch):
    calls = []
    monkeypatch.setattr(training, "train", lambda *a, **kw: calls.append(1))
    ds = make_dataset(n=40, p=2, seed=0)
    # the fit overflows on every complement
    with pytest.raises(UnusableDatasetError, match=r"^fold 0: feature 'x1' has mean inf and "
                                                   r"standard deviation inf; its values overflow"):
        cross_validate(_with_column(ds, 1, 1e308), TINY, k=2, seed=0)
    # the fit holds on fold 0's complement, but scaling a row fold 0 holds
    # out by its deviation of about 1e-3 goes past float64's range
    small = np.random.default_rng(1).normal(scale=1e-3, size=ds.n)
    small[training.plan_folds(ds, 2, 0).folds.test_indices(0)[0]] = 1e306
    with pytest.raises(UnusableDatasetError, match=r"^fold 0: feature 'x0' standardizes by "
                                                   r"mean \S+ and standard deviation \S+ to "
                                                   r"values beyond float64's range$"):
        cross_validate(_with_column(ds, 0, small), TINY, k=2, seed=0)
    assert calls == []


def _reference_fold_data(plan, f):
    """Fold `f`'s (complement, held-out fold) the long way round: the
    complement's features filtered, the held-out fold's selected to match,
    and both standardized by the complement's statistics."""
    complement, retained = filter_features(plan.data.subset(plan.folds.train_indices(f)))
    test_fold = plan.data.subset(plan.folds.test_indices(f)).select_features(retained)
    std = standardize_fit(complement)
    return standardize_apply(complement, std), standardize_apply(test_fold, std)


def _reference_fold_record(plan, hp, with_shortcut, f):
    """Fold `f`'s record the long way round: `train` on the early-stop
    subsets of the reference complement, then the held-out scores."""
    complement, test_fold = _reference_fold_data(plan, f)
    # the early-stop sides are rows of `plan.data`; the complement holds
    # its rows in ascending order
    inner_train, inner_val = (np.searchsorted(plan.folds.train_indices(f), side)
                              for side in plan.splits[f])
    report = train(complement.subset(inner_train), complement.subset(inner_val),
                   hp.replaced(seed=stable_seed(hp.seed, 13, f)),
                   with_shortcut=with_shortcut, score_val_c_index=False)
    h_test, _ = model_forward(test_fold.features, report.params, mode="eval")
    return training.FoldRecord(
        **training.held_out_fields(f, complement.n, test_fold, h_test),
        best_epoch=report.best_epoch, epochs_run=report.epochs_run,
        stopped_early=report.stopped_early, best_val_loss=report.best_val_loss)


@pytest.mark.parametrize("with_shortcut", [True, False])
def test_fold_unit_is_the_reference_path_bit_for_bit(with_shortcut):
    # x2 is constant, so every fold drops it; x3 varies only on the rows
    # fold 0 holds out, so fold 0's complement drops it and the others keep it
    ds = make_dataset(n=90, p=4, seed=2)
    held_out = training.plan_folds(ds, 3, 5).folds.test_indices(0)
    x3 = np.zeros(ds.n)
    x3[held_out] = ds.features[held_out, 3]
    plan = training.plan_folds(_with_column(_with_column(ds, 2, 1.5), 3, x3), 3, 5)
    assert ([prep.retained for prep in plan.preparations]
            == [["x0", "x1"], ["x0", "x1", "x3"], ["x0", "x1", "x3"]])
    hp = TINY.replaced(dropout_rate=0.2, max_epochs=8)
    for f in range(3):
        want = _reference_fold_record(plan, hp, with_shortcut, f)
        assert repr(training.fold_unit(plan, hp, with_shortcut, f)) == repr(want)
        prep = plan.preparations[f]
        got = prep.apply(plan.folds.train_indices(f)), prep.apply(plan.folds.test_indices(f))
        for got, side in zip(got, _reference_fold_data(plan, f)):
            assert got.feature_names == side.feature_names
            assert got.sample_ids == side.sample_ids
            assert got.features.tobytes() == side.features.tobytes()


# On Python 3.10 a caller's evaluation stack keeps a call's arguments until
# the call returns, so `train` cannot let go of the datasets it is handed
RELEASES_ARGUMENTS = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="the caller holds a call's arguments before 3.11")


def _watch_prepared_rows(monkeypatch) -> tuple[list, list]:
    """(refs, alive), filled as the code runs: a weak reference to each
    dataset `Preparation.apply` gives, and per train-mode forward pass the
    count of the referenced datasets still alive."""
    refs, alive = [], []
    real_apply, real_forward = training.Preparation.apply, training.model_forward

    def apply(prep, rows):
        ds = real_apply(prep, rows)
        refs.append(weakref.ref(ds))
        return ds

    def forward(X, params, mode="eval", **kwargs):
        if mode == "train":
            alive.append(sum(ref() is not None for ref in refs))
        return real_forward(X, params, mode, **kwargs)

    monkeypatch.setattr(training.Preparation, "apply", apply)
    monkeypatch.setattr(training, "model_forward", forward)
    return refs, alive


@RELEASES_ARGUMENTS
def test_the_epochs_hold_no_float64_copy_of_the_rows(monkeypatch):
    # fold_unit hands its two prepared early-stop sides to `train`, which
    # keeps their float32 copies only, and cross_validate lets go of the
    # dataset it is handed once the plan holds the canonical rows
    refs, alive = _watch_prepared_rows(monkeypatch)

    def loaded():
        ds = make_dataset(n=60, p=3, seed=1)
        # ids out of canonical order, so that the plan holds a sorted copy
        ds = SurvivalDataset(ds.sample_ids[::-1], ds.features, ds.feature_names, ds.times,
                             ds.events)
        refs.append(weakref.ref(ds))
        return ds

    cross_validate(loaded(), TINY.replaced(max_epochs=3), k=2, seed=0)
    assert len(alive) == 6 and alive == [0] * 6
    assert len(refs) == 1 + 2 * 3   # the loaded dataset, per fold three prepared sides


@RELEASES_ARGUMENTS
def test_the_train_command_holds_no_prepared_float64_rows_through_the_epochs(tmp_path,
                                                                            monkeypatch):
    # cmd_train hands its two prepared sides to `train` as call temporaries
    # and reads its summary's sizes and names from the split and the
    # preparation
    path = tmp_path / "data.csv"
    write_csv(make_dataset(n=60, p=3, seed=1), path)
    hp = tmp_path / "hp.json"
    hp.write_text(json.dumps(dataclasses.asdict(TINY.replaced(max_epochs=3, patience=5))))
    refs, alive = _watch_prepared_rows(monkeypatch)
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(path), "--hp", str(hp), "--out", str(out)]) == 0
    assert len(refs) == 2 and alive == [0] * 3
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["n_train"], summary["n_val"], summary["feature_names"]) == (
        48, 12, ["x0", "x1", "x2"])


@RELEASES_ARGUMENTS
def test_a_fold_unit_at_a_genomics_shape_keeps_its_memory_bound():
    # 300 patients x 2,000 genes, a small net, so that the rows dominate:
    # one unit's traced peak is the standardization of its early-stop
    # training rows (two float64 copies, 6.1 MB); its epochs hold their
    # float32 copies (1.9 MB with the validation rows) and the network.
    # Measured 6.55 MB; a float64 copy of the rows kept through the epochs
    # would take it to about 9 MB, and the parent's one unit took 15.2 MB
    beta = (1.0, -0.8, 0.7, -0.6, 0.5) + (0.0,) * 1995
    ds, _ = generate_synthetic(SyntheticSpec(n=300, p=2000, true_coefficients=beta,
                                             target_censor_rate=0.3, seed=1))
    plan = training.plan_folds(ds, 5, 1)
    del ds
    hp = Hyperparameters(n_blocks=1, dense_layers_per_block=2, nodes=16, max_epochs=3,
                         patience=4, seed=1)
    tracemalloc.start()
    try:
        record = training.fold_unit(plan, hp, True, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.epochs_run == 3
    assert peak <= 7.0e6, f"one fold unit's traced peak {peak / 1e6:.2f} MB"


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def test_enumerate_grid_order():
    grid = {
        "activation_kind": ["tanh", "relu"],
        "optimizer_kind": ["sgd", "adam"],
    }
    points = enumerate_grid(grid, Hyperparameters())
    combos = [(p.optimizer_kind, p.activation_kind) for p in points]
    # optimizer_kind is declared before activation_kind, so it varies slowest
    assert combos == [
        ("sgd", "tanh"), ("sgd", "relu"), ("adam", "tanh"), ("adam", "relu"),
    ]
    assert "optimizer_kind" in GRID_FIELDS[:2]
    # the swept fields are the leading Hyperparameters fields, in their order
    names = tuple(f.name for f in dataclasses.fields(Hyperparameters))
    assert GRID_FIELDS == names[:len(GRID_FIELDS)]


def test_enumerate_grid_keeps_base_values():
    base = Hyperparameters(nodes=128, max_epochs=33)
    points = enumerate_grid({"learning_rate": [1e-2, 1e-3]}, base)
    assert all(p.nodes == 128 and p.max_epochs == 33 for p in points)
    assert [p.learning_rate for p in points] == [1e-2, 1e-3]


def test_enumerate_grid_validation():
    base = Hyperparameters()
    with pytest.raises(ValueError):
        enumerate_grid({}, base)
    with pytest.raises(ValueError, match="unknown"):
        enumerate_grid({"max_epochs": [10]}, base)
    with pytest.raises(ValueError):
        enumerate_grid({"learning_rate": []}, base)


def test_enumerate_grid_builds_only_the_budget(monkeypatch):
    built = []
    real_post_init = Hyperparameters.__post_init__

    def post_init(self):
        built.append(self)
        real_post_init(self)

    base = Hyperparameters()
    monkeypatch.setattr(Hyperparameters, "__post_init__", post_init)
    # the full canonical grid has tens of thousands of points
    points = enumerate_grid(GRID_DOMAINS, base, budget=3)
    assert len(points) == len(built) == 3
    small = {"learning_rate": [1e-2, 1e-3], "dropout_rate": [0.0, 0.2, 0.4]}
    full = enumerate_grid(small, base)
    assert enumerate_grid(small, base, budget=4) == full[:4]
    assert enumerate_grid(small, base, budget=10) == full
    with pytest.raises(ValueError, match="budget must be >= 1"):
        enumerate_grid(small, base, budget=0)


def test_grid_search_single_point_matches_direct_cv():
    ds = make_dataset(n=80, p=3, seed=6)
    base = TINY.replaced(max_epochs=15)
    result = grid_search(ds, [base.replaced(learning_rate=1e-2)], k=3, seed=9)
    assert len(result.outcomes) == 1 and result.best_index == 0
    point = result.outcomes[0]
    direct = cross_validate(
        ds, base.replaced(learning_rate=1e-2, seed=stable_seed(9, 17, 0)),
        k=3, seed=9,
    )
    assert abs(point.mean_c_index - direct.mean_c_index) < 1e-12
    assert result.fold_hash == direct.fold_hash


def test_grid_search_outcomes_are_the_cross_validations_of_the_seeded_points():
    # point i's outcome is `cross_validate` of it under the seed
    # stable_seed(seed, 17, i), which replaces the point's own seed, fold
    # records included
    ds = make_dataset(n=70, p=3, seed=1)
    points = enumerate_grid({"learning_rate": [1e-2, 1e-3], "dropout_rate": [0.0, 0.2]},
                            TINY.replaced(max_epochs=6, seed=5))
    result = grid_search(ds, points, k=2, seed=3)
    assert result.hps == [hp.replaced(seed=stable_seed(3, 17, i))
                          for i, hp in enumerate(points)]
    assert result.outcomes == [cross_validate(ds, hp, k=2, seed=3) for hp in result.hps]
    assert (result.k, result.seed, result.fold_hash) == (2, 3, result.outcomes[0].fold_hash)


def test_grid_search_flags_divergent_point_and_picks_survivor():
    ds = make_dataset(n=80, p=3, seed=0)
    base = DIVERGENT
    grid = {"learning_rate": [1e-1, 1e-3]}
    result = grid_search(ds, enumerate_grid(grid, base), k=2, seed=0)
    failed, survivor = result.outcomes
    assert isinstance(failed, DivergenceError) and str(failed)
    assert isinstance(survivor, CVResult)
    assert result.best_index == 1


def test_grid_search_worker_count_is_invisible():
    ds = make_dataset(n=70, p=3, seed=3)
    base = TINY.replaced(max_epochs=10)
    points = enumerate_grid({"learning_rate": [1e-2, 1e-3], "dropout_rate": [0.0, 0.2]}, base)
    a = grid_search(ds, points, k=2, seed=4)
    b = grid_search(ds, points, k=2, seed=4, pool=UnitPool(4))
    assert a.best_index == b.best_index
    assert a.outcomes == b.outcomes


def test_grid_search_divergent_point_error_is_the_same_under_a_pool():
    ds = make_dataset(n=80, p=3, seed=0)
    points = enumerate_grid({"learning_rate": [1e-1, 1e-3]}, DIVERGENT)
    errors = []
    for workers in (1, 2):
        result = grid_search(ds, points, k=2, seed=0, pool=UnitPool(workers))
        failed, survivor = result.outcomes
        assert isinstance(failed, DivergenceError) and isinstance(survivor, CVResult)
        errors.append(str(failed))
    assert errors == [DIVERGED_FOLD_0] * 2


def test_pool_restores_the_blas_environment(monkeypatch):
    # workers are forked under the units' OpenBLAS count and inherit it, one
    # or the user's OPENBLAS_NUM_THREADS, without a write to the environment
    get_threads = training._openblas("scipy_openblas_get_num_threads")
    if get_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread-count getter")
    # a unit is a call; forked workers inherit this lambda, which no pipe
    # could carry pickled
    units = [(lambda f: get_threads(), f) for f in range(2)]
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    for user_set in (None, "2"):   # a user-set value wins
        if user_set is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", user_set)
        pool = UnitPool(2)
        assert pool.blas_threads == (user_set or "1")
        with monkeypatch.context() as m:
            m.setattr(os, "putenv", _environment_written)
            m.setattr(os, "unsetenv", _environment_written)
            assert list(pool.map_units(units)) == [int(pool.blas_threads)] * 2
        assert os.environ.get("OPENBLAS_NUM_THREADS") == user_set


def _environment_written(*args):
    raise AssertionError("the environment was written")


def test_a_pool_trims_the_heap_before_it_forks_where_the_c_library_can(monkeypatch):
    # every worker starts with the parent's resident pages, so the pool
    # hands the heap's free pages back first, through glibc's malloc_trim; a
    # C library without it skips that step
    trims, real_cdll = [], training.ctypes.CDLL

    def malloc_trim(pad):
        trims.append(pad)
        return 1

    try:
        for libc in (SimpleNamespace(malloc_trim=malloc_trim), SimpleNamespace()):
            monkeypatch.setattr(training.ctypes, "CDLL",
                                lambda name, *args: libc if name is None
                                else real_cdll(name, *args))
            training._malloc_trim.cache_clear()
            assert list(UnitPool(2).map_units([(abs, -1), (abs, -2)])) == [1, 2]
            assert list(UnitPool(1).map_units([(abs, -3)])) == [3]
    finally:
        training._malloc_trim.cache_clear()
    assert trims == [0]


def test_in_process_units_run_under_the_workers_blas_count(monkeypatch):
    # the count a pool's workers start with holds while in-process units
    # run, and the previous count returns when the caller stops, early or not
    get_threads = training._openblas("scipy_openblas_get_num_threads")
    set_threads = training._openblas("scipy_openblas_set_num_threads")
    before = get_threads()
    if before is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread-count setter")
    seen = []

    def unit(*args):
        seen.append(get_threads())
        return real_unit(*args)

    real_unit = training.fold_unit
    plan = training.plan_folds(make_dataset(n=60, p=3, seed=1), 2, 0)
    units = [(unit, plan, TINY.replaced(max_epochs=2), True, f) for f in range(2)]
    set_threads(2)   # a count other than the workers'
    try:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        outcomes = UnitPool(1).map_units(units)
        next(outcomes)
        outcomes.close()
        assert seen == [1] and get_threads() == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")   # a user-set value wins
        list(UnitPool(1).map_units(units))
        assert seen == [1, 3, 3] and get_threads() == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "many")   # not a count: no change
        list(UnitPool(1).map_units(units))
        assert seen == [1, 3, 3, 2, 2] and get_threads() == 2
    finally:
        set_threads(before)


def test_the_plan_reaches_the_workers_unpickled(monkeypatch):
    # forked workers inherit the plan from the parent's memory
    def refuse(self, protocol):
        raise AssertionError("a fold plan was pickled")

    monkeypatch.setattr(training.FoldPlan, "__reduce_ex__", refuse)
    ds = make_dataset(n=3000, p=5, seed=4)
    hp = TINY.replaced(max_epochs=1)
    pooled = cross_validate(ds, hp, k=2, seed=0, pool=UnitPool(2))
    assert pooled == cross_validate(ds, hp, k=2, seed=0)


# fork hooks cannot be removed, so one hook serves every run of the test and
# records only while the test listens
_THREADS_AFTER_FORK: dict[str, list | None] = {"counts": None}


def _record_threads_after_fork():
    counts = _THREADS_AFTER_FORK["counts"]
    if counts is not None:
        with open("/proc/self/status", encoding="ascii") as fh:
            counts.extend(int(line.split()[1]) for line in fh if line.startswith("Threads:"))


@functools.cache
def _listen_to_forks():
    os.register_at_fork(after_in_parent=_record_threads_after_fork)


def test_the_parent_holds_one_thread_when_it_forks_a_worker():
    # a forked worker gets only the forking thread: a lock that any other
    # thread of the parent held (a leftover executor's, a BLAS pool's) would
    # stay locked in the worker for good
    _listen_to_forks()
    matrix = np.ones((400, 400))
    matrix @ matrix   # starts OpenBLAS's threads where it runs more than one
    ds = make_dataset(n=60, p=3, seed=1)
    _THREADS_AFTER_FORK["counts"] = counts = []
    try:
        cross_validate(ds, TINY.replaced(max_epochs=2), k=2, seed=0, pool=UnitPool(2))
    finally:
        _THREADS_AFTER_FORK["counts"] = None
    assert counts == [1, 1]


def test_an_open_pool_serves_several_plans(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    ds_a, ds_b = make_dataset(n=60, p=3, seed=1), make_dataset(n=50, p=4, seed=2)
    hp = TINY.replaced(max_epochs=3)
    pool = UnitPool(2)
    a = cross_validate(ds_a, hp, k=2, seed=0, pool=pool)
    b = cross_validate(ds_b, hp, k=2, seed=0, pool=pool)
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []
    assert a == cross_validate(ds_a, hp, k=2, seed=0)
    assert b == cross_validate(ds_b, hp, k=2, seed=0)


def test_a_default_pool_sizes_each_call_from_its_units(monkeypatch):
    # default_workers for the units of each call: 5 units on 2 cores get a
    # worker each, 2 units one per core
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    opened = []
    real_executor = training.ProcessPoolExecutor

    def executor(workers, **kwargs):
        opened.append(workers)
        return real_executor(workers, **kwargs)

    monkeypatch.setattr(training, "ProcessPoolExecutor", executor)
    pool = UnitPool()
    for units, workers in ((5, 5), (2, 2)):
        assert list(pool.map_units([(abs, f) for f in range(units)])) == list(range(units))
        assert pool.workers == workers
    assert opened == [5, 2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("size", [1, 2])
def test_no_units_map_to_nothing_and_write_no_plan(monkeypatch, size):
    # a pool would otherwise ask for an executor of min(size, 0) workers
    monkeypatch.setattr(training, "ProcessPoolExecutor", _forbidden)
    assert list(UnitPool(size).map_units([])) == []
    assert training._worker_units is None


def test_in_process_pool_starts_no_process_and_makes_no_file(monkeypatch):
    monkeypatch.setattr(training, "ProcessPoolExecutor", _forbidden)
    monkeypatch.setattr(tempfile, "mkdtemp", _forbidden)
    ds = make_dataset(n=60, p=3, seed=1)
    pool = UnitPool(1)
    result = cross_validate(ds, TINY.replaced(max_epochs=2), k=2, seed=0, pool=pool)
    assert pool.size == 1
    assert pool.blas_threads == os.environ.get("OPENBLAS_NUM_THREADS", "1")
    assert pool.first_unit_unix == pool.last_unit_end_unix == {}
    assert result == cross_validate(ds, TINY.replaced(max_epochs=2), k=2, seed=0)


def _forbidden(*args, **kwargs):
    raise AssertionError("a process was started or a file made")


def test_grid_search_ties_resolve_to_first_point():
    ds = make_dataset(n=60, p=3, seed=2)
    base = TINY.replaced(optimizer_kind="sgd", learning_rate=1e-300,
                         lr_decay=0.0, max_epochs=3, patience=3)
    # frozen weights: both points leave initialization untouched and the
    # sub-seeds differ, but identical hp values often tie on tiny folds;
    # equality of means is not guaranteed, so pin the semantics directly
    result = grid_search(ds, enumerate_grid({"l2_lambda": [0.0, 0.0]}, base), k=2, seed=5)
    means = [cv.mean_c_index for cv in result.outcomes]
    expected = int(np.argmax(means))
    assert result.best_index == expected
    if means[0] == means[1]:
        assert result.best_index == 0


def test_grid_search_validation():
    ds = make_dataset(n=60, p=3, seed=2)
    with pytest.raises(ValueError, match="k must be >= 2"):
        grid_search(ds, [TINY], k=1, seed=0)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        UnitPool(0)
