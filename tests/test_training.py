import dataclasses
import multiprocessing
import os
import tempfile
import tracemalloc

import numpy as np
import pytest

from conftest import make_dataset
from ressurv import training
from ressurv.cox import build_risk_index, neg_log_partial_likelihood
from ressurv.data import (
    SurvivalDataset,
    SyntheticSpec,
    generate_synthetic,
    stratified_holdout,
)
from ressurv.errors import DivergenceError, UnusableDatasetError
from ressurv.model import model_forward, to_flat
from ressurv.training import (
    GRID_DOMAINS,
    GRID_FIELDS,
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
# epoch count at which float64 gives out, so early stopping cannot rescue it
DIVERGENT = Hyperparameters(
    optimizer_kind="sgd", learning_rate=1e-1, l2_lambda=50.0,
    n_blocks=1, nodes=8, dense_layers_per_block=1,
    dropout_rate=0.0, lr_decay=0.0, max_epochs=400, patience=400,
)


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
    assert Hyperparameters.from_dict(hp.to_dict()) == hp
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
    state = init_optimizer_state(hp, np.ones(1, dtype=bool))
    w = np.array([1.0])
    sgd_step(w, np.array([2.0]), state, hp)
    assert np.isclose(w[0], 0.8)
    assert state.t == 1


def test_sgd_zero_gradient_leaves_weights():
    hp = Hyperparameters(optimizer_kind="sgd", learning_rate=0.1)
    state = init_optimizer_state(hp, np.ones(3, dtype=bool))
    w = np.array([1.0, -2.0, 0.5])
    sgd_step(w, np.zeros(3), state, hp)
    assert np.array_equal(w, np.array([1.0, -2.0, 0.5]))


def test_adam_first_step_is_signed_lr():
    # after bias correction the first step is lr * g / (|g| + eps)
    hp = Hyperparameters(optimizer_kind="adam", learning_rate=1e-2)
    state = init_optimizer_state(hp, np.ones(2, dtype=bool))
    w = np.zeros(2)
    adam_step(w, np.array([3.0, -0.25]), state, hp)
    assert np.allclose(w, [-1e-2, 1e-2], rtol=1e-6)


def test_adam_state_accumulates():
    hp = Hyperparameters(optimizer_kind="adam", learning_rate=1e-2)
    state = init_optimizer_state(hp, np.ones(1, dtype=bool))
    w = np.zeros(1)
    g = np.array([2.0])
    adam_step(w, g, state, hp)
    assert state.t == 1
    assert np.isclose(state.m[0], 0.1 * 2.0)
    assert np.isclose(state.v[0], 0.001 * 4.0)


def test_adamw_decay_is_decoupled_and_masked():
    # zero gradient: the adam update is exactly zero, so only decay moves
    # the weights, and only on masked coordinates
    hp = Hyperparameters(optimizer_kind="adamw", learning_rate=0.5, l2_lambda=8.0)
    mask = np.array([True, False])
    state = init_optimizer_state(hp, mask)
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
        w[ref["mask"]] -= ref["lr"] * wd * w[ref["mask"]]
    ref["m"] = 0.9 * ref["m"] + (1.0 - 0.9) * g
    ref["v"] = 0.999 * ref["v"] + (1.0 - 0.999) * g * g
    m_hat = ref["m"] / (1.0 - 0.9 ** ref["t"])
    v_hat = ref["v"] / (1.0 - 0.999 ** ref["t"])
    return w - ref["lr"] * m_hat / (np.sqrt(v_hat) + 1e-8)


@pytest.mark.parametrize("kind", ["sgd", "adam", "adamw"])
def test_steps_match_the_formulas_bit_for_bit(kind):
    # the steps compute in the state's work rows, allocating nothing
    rng = np.random.default_rng(3)
    hp = Hyperparameters(optimizer_kind=kind, learning_rate=0.05, l2_lambda=4.0)
    mask = rng.random(50) < 0.6
    state = init_optimizer_state(hp, mask)
    ref = {"t": 0, "lr": hp.learning_rate, "mask": mask,
           "m": np.zeros(50), "v": np.zeros(50)}
    w = rng.normal(size=50)
    want = w.copy()
    step = training._STEP_FUNCTIONS[kind]
    for _ in range(4):
        g = rng.normal(size=50) * 3.0
        assert step(w, g, state, hp) is w
        want = _step_reference(kind, want, g, ref, hp)
        assert w.tobytes() == want.tobytes()
        state.lr = ref["lr"] = state.lr * 0.9


def test_decay_learning_rate_hand_value():
    hp = Hyperparameters(learning_rate=1e-2, lr_decay=1e-2)
    state = init_optimizer_state(hp, np.ones(1, dtype=bool))
    decay_learning_rate(state, hp, 100)
    assert np.isclose(state.lr, 5e-3)


def test_decay_learning_rate_monotone_and_validated():
    hp = Hyperparameters(learning_rate=1e-2, lr_decay=1e-3)
    state = init_optimizer_state(hp, np.ones(1, dtype=bool))
    last = np.inf
    for epoch in range(1, 20):
        decay_learning_rate(state, hp, epoch)
        assert state.lr < last
        last = state.lr
    with pytest.raises(ValueError):
        decay_learning_rate(state, hp, 0)


def test_decay_zero_keeps_lr_constant():
    hp = Hyperparameters(learning_rate=1e-2, lr_decay=0.0)
    state = init_optimizer_state(hp, np.ones(1, dtype=bool))
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
        if np.isclose(r.val_loss, report.best_val_loss, atol=1e-12)
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
    assert len(a.epochs) == len(b.epochs)
    for ra, rb in zip(a.epochs, b.epochs):
        assert ra.to_dict() == rb.to_dict()
    assert np.array_equal(to_flat(a.params), to_flat(b.params))


def test_train_seed_changes_the_run():
    ds = make_dataset(n=120, p=3, seed=8)
    tr, va = _split(ds)
    a = train(tr, va, TINY, seed=0)
    b = train(tr, va, TINY, seed=1)
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
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError) as exc:
            train(tr, va, DIVERGENT)
    assert exc.value.epoch >= 1
    assert "learning rate" in str(exc.value)


def test_train_holds_one_epoch_of_activations():
    # the paper-default net on a cv-paper fold's shape; one epoch of the
    # train-mode cache, from the shapes: per dense layer xhat, activation and
    # dropout mask, per block the inputs of its later layers and its output
    hp = Hyperparameters(max_epochs=3, patience=5)
    beta = (1.0, -0.8, 0.6) + (0.0,) * 17
    ds, _ = generate_synthetic(SyntheticSpec(n=1600, p=20, true_coefficients=beta,
                                             target_censor_rate=0.3, seed=5))
    tr, va = ds.subset(np.arange(1280)), ds.subset(np.arange(1280, 1600))
    layers = hp.dense_layers_per_block
    per_row_and_node = hp.n_blocks * (layers * (8 + 8 + 1) + (layers - 1) * 8 + 8)
    cache_bytes = per_row_and_node * tr.n * hp.nodes
    tracemalloc.start()
    try:
        train(tr, va, hp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a new cache per epoch would hold two epochs at once (about 2.2x)
    assert peak <= 1.4 * cache_bytes, f"peak {peak / cache_bytes:.2f}x one epoch's cache"


def test_train_validates_splits():
    ds = make_dataset(n=40, p=3, seed=1)
    censored = SurvivalDataset(
        ds.sample_ids, ds.features, ds.feature_names,
        ds.times, np.zeros(ds.n, dtype=bool),
    )
    tr, va = _split(ds)
    with pytest.raises(UnusableDatasetError):
        train(censored, va, TINY)
    with pytest.raises(UnusableDatasetError):
        train(tr, censored, TINY)
    narrower = va.select_features(va.feature_names[:2])
    with pytest.raises(UnusableDatasetError):
        train(tr, narrower, TINY)


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
    ds = make_dataset(n=80, p=3, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError, match="fold 0"):
            cross_validate(ds, DIVERGENT, k=3, seed=0)


def test_cv_worker_count_is_invisible():
    ds = make_dataset(n=90, p=3, seed=5)
    serial = cross_validate(ds, TINY.replaced(max_epochs=10), k=3, seed=2)
    with UnitPool(2) as pool:
        pooled = cross_validate(ds, TINY.replaced(max_epochs=10), k=3, seed=2, pool=pool)
    assert pooled.summary() == serial.summary()
    assert pooled.fold_records() == serial.fold_records()


def test_cv_divergence_message_is_the_same_under_a_pool():
    ds = make_dataset(n=80, p=3, seed=0)
    messages = []
    for workers in (1, 2):
        with np.errstate(all="ignore"), UnitPool(workers) as pool:
            with pytest.raises(DivergenceError) as info:
                cross_validate(ds, DIVERGENT, k=3, seed=0, pool=pool)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "(fold 0)" in messages[0]


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
    with UnitPool(workers) as pool:
        with pytest.raises(UnusableDatasetError, match="fold 4: the held-out split"):
            grid_search(_four_event_dataset(), {"learning_rate": [1e-2, 1e-3]}, k=5,
                        seed=0, base_hp=TINY, pool=pool)
    assert calls == []


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
    result = grid_search(ds, {"learning_rate": [1e-2]}, k=3, seed=9, base_hp=base)
    assert result.total_runs == 1 and result.best_index == 0
    point = result.points[0]
    direct = cross_validate(
        ds, base.replaced(learning_rate=1e-2, seed=stable_seed(9, 17, 0)),
        k=3, seed=9,
    )
    assert abs(point.mean_c_index - direct.mean_c_index) < 1e-12
    assert result.fold_hash == direct.fold_hash


def test_grid_search_flags_divergent_point_and_picks_survivor():
    ds = make_dataset(n=80, p=3, seed=0)
    base = DIVERGENT
    grid = {"learning_rate": [1e-1, 1e-3]}
    with np.errstate(all="ignore"):
        result = grid_search(ds, grid, k=2, seed=0, base_hp=base)
    failed = result.points[0]
    assert failed.failed and failed.mean_c_index is None and failed.error
    survivor = result.points[1]
    assert not survivor.failed
    assert result.best_index == 1


def test_grid_search_worker_count_is_invisible():
    ds = make_dataset(n=70, p=3, seed=3)
    base = TINY.replaced(max_epochs=10)
    grid = {"learning_rate": [1e-2, 1e-3], "dropout_rate": [0.0, 0.2]}
    a = grid_search(ds, grid, k=2, seed=4, base_hp=base)
    with UnitPool(4) as pool:
        b = grid_search(ds, grid, k=2, seed=4, base_hp=base, pool=pool)
    assert a.best_index == b.best_index
    assert [p.to_dict() for p in a.points] == [p.to_dict() for p in b.points]


def test_grid_search_divergent_point_error_is_the_same_under_a_pool():
    ds = make_dataset(n=80, p=3, seed=0)
    grid = {"learning_rate": [1e-1, 1e-3]}
    errors = []
    for workers in (1, 2):
        with np.errstate(all="ignore"), UnitPool(workers) as pool:
            result = grid_search(ds, grid, k=2, seed=0, base_hp=DIVERGENT, pool=pool)
        assert result.points[0].failed and not result.points[1].failed
        errors.append(result.points[0].error)
    assert errors[0] == errors[1]
    assert "(fold 0)" in errors[0]


def test_pool_restores_the_blas_environment(monkeypatch):
    ds = make_dataset(n=60, p=3, seed=1)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert UnitPool(1).blas_threads == "1"
    with UnitPool(2) as pool:
        assert pool.blas_threads == "1"
        cross_validate(ds, TINY.replaced(max_epochs=2), k=2, seed=0, pool=pool)
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")   # a user-set value wins
    with UnitPool(2) as pool:
        assert pool.blas_threads == "2"
        cross_validate(ds, TINY.replaced(max_epochs=2), k=2, seed=0, pool=pool)
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


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
    monkeypatch.setattr(training, "fold_unit", unit)
    plan = training.plan_folds(make_dataset(n=60, p=3, seed=1), 2, 0)
    units = [(TINY.replaced(max_epochs=2), True, f) for f in range(2)]
    set_threads(2)   # a count other than the workers'
    try:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        outcomes = UnitPool(1).map_units(plan, units)
        next(outcomes)
        outcomes.close()
        assert seen == [1] and get_threads() == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")   # a user-set value wins
        list(UnitPool(1).map_units(plan, units))
        assert seen == [1, 3, 3] and get_threads() == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "many")   # not a count: no change
        list(UnitPool(1).map_units(plan, units))
        assert seen == [1, 3, 3, 2, 2] and get_threads() == 2
    finally:
        set_threads(before)


SPAWN_PIPE_BYTES = 64 * 1024


def test_spawned_workers_start_without_the_dataset(monkeypatch):
    # all a spawned worker receives at start goes through a 64 KiB pipe that
    # the parent fills before the child reads it; with the fold plan in it,
    # each start waited on the previous child's imports
    from multiprocessing import popen_spawn_posix, reduction

    payloads = []
    real_launch, real_dump = popen_spawn_posix.Popen._launch, reduction.dump

    def launch(self, process_obj):
        payloads.append(0)
        return real_launch(self, process_obj)

    def dump(obj, file, protocol=None):
        start = file.tell()
        real_dump(obj, file, protocol)
        payloads[-1] += file.tell() - start

    monkeypatch.setattr(popen_spawn_posix.Popen, "_launch", launch)
    monkeypatch.setattr(reduction, "dump", dump)
    ds = make_dataset(n=3000, p=5, seed=4)
    with UnitPool(2) as pool:
        result = cross_validate(ds, TINY.replaced(max_epochs=1), k=2, seed=0, pool=pool)
    assert len(result.folds) == 2
    assert len(payloads) == 2
    assert all(0 < size < SPAWN_PIPE_BYTES for size in payloads), payloads


def test_an_open_pool_serves_several_plans(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    ds_a, ds_b = make_dataset(n=60, p=3, seed=1), make_dataset(n=50, p=4, seed=2)
    hp = TINY.replaced(max_epochs=3)
    with UnitPool(2) as pool:
        a = cross_validate(ds_a, hp, k=2, seed=0, pool=pool)
        b = cross_validate(ds_b, hp, k=2, seed=0, pool=pool)
        assert 1 <= len(pool.first_unit_unix) <= 2
        assert [d.stat().st_mode & 0o777 for d in tmp_path.iterdir()] == [0o700]
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []
    assert a == cross_validate(ds_a, hp, k=2, seed=0)
    assert b == cross_validate(ds_b, hp, k=2, seed=0)


def test_in_process_pool_starts_no_process_and_makes_no_file(monkeypatch):
    monkeypatch.setattr(training, "ProcessPoolExecutor", _forbidden)
    monkeypatch.setattr(tempfile, "mkdtemp", _forbidden)
    ds = make_dataset(n=60, p=3, seed=1)
    with UnitPool(1) as pool:
        result = cross_validate(ds, TINY.replaced(max_epochs=2), k=2, seed=0, pool=pool)
        assert pool.size == 1
        assert pool.blas_threads == os.environ.get("OPENBLAS_NUM_THREADS", "1")
        assert pool.first_unit_unix == {}
    assert result == cross_validate(ds, TINY.replaced(max_epochs=2), k=2, seed=0)


def _forbidden(*args, **kwargs):
    raise AssertionError("an in-process pool started a process or made a file")


def test_grid_search_budget_caps_enumeration():
    ds = make_dataset(n=70, p=3, seed=3)
    base = TINY.replaced(max_epochs=8)
    grid = {"learning_rate": [1e-2, 1e-3, 1e-4], "dropout_rate": [0.0, 0.2]}
    result = grid_search(ds, grid, k=2, seed=1, base_hp=base, budget=2)
    assert result.total_runs == 2
    assert [p.index for p in result.points] == [0, 1]
    # budget keeps the enumeration prefix: both points are learning_rate=1e-2
    assert all(p.hp["learning_rate"] == 1e-2 for p in result.points)


def test_grid_search_ties_resolve_to_first_point():
    ds = make_dataset(n=60, p=3, seed=2)
    base = TINY.replaced(optimizer_kind="sgd", learning_rate=1e-300,
                         lr_decay=0.0, max_epochs=3, patience=3)
    # frozen weights: both points leave initialization untouched and the
    # sub-seeds differ, but identical hp values often tie on tiny folds;
    # equality of means is not guaranteed, so pin the semantics directly
    result = grid_search(ds, {"l2_lambda": [0.0, 0.0]}, k=2, seed=5, base_hp=base)
    means = [p.mean_c_index for p in result.points]
    expected = int(np.argmax(means))
    assert result.best_index == expected
    if means[0] == means[1]:
        assert result.best_index == 0


def test_grid_search_validation():
    ds = make_dataset(n=60, p=3, seed=2)
    with pytest.raises(ValueError):
        grid_search(ds, {"learning_rate": [1e-2]}, k=2, seed=0, budget=0)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        UnitPool(0)
