"""Training protocol: optimizers, learning-rate decay, the epoch loop with
early stopping, stratified k-fold cross-validation, and grid search.

Determinism contract: (dataset, hyperparameters, seed) fully determines every
reported number. Per-fold and per-grid-point sub-seeds are derived from
position in a deterministic enumeration, never from execution order, so
results are identical across reruns and worker counts. Wall-clock time is
carried separately and never enters deterministic report content.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import islice, product
from multiprocessing import get_context

import numpy as np

from . import cox
# the fold preparation looks its data functions up here, where
# perfbench/tracer.py patches them
from .data import (
    FoldAssignment,
    StandardizationParams,
    SurvivalDataset,
    check_field_types,
    filter_features,
    kfold_split,
    standardize_apply,
    standardize_fit,
    stratified_holdout,
)
from .errors import DivergenceError, UnusableDatasetError
from .metrics import concordance_fast
from .model import (
    ACTIVATION_KINDS,
    DropoutStream,
    ResSurvParams,
    init_params,
    model_backward,
    model_forward,
)
# imported only so that perfbench/tracer.py can patch them here
from .model import set_flat, to_flat  # noqa: F401

OPTIMIZER_KINDS = ("sgd", "adam", "adamw")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# l2_lambda is a loss-penalty magnitude; as decoupled AdamW decay it is scaled
# down so that one step cannot erase a weight (decay 2 would zero everything)
ADAMW_DECAY_SCALE = 1e-3

EARLY_STOP_MIN_IMPROVEMENT = 1e-6


def stable_seed(*parts: int) -> int:
    """Deterministic sub-seed from integer components, independent of
    platform hash randomization and execution order."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Hyperparameters
# ---------------------------------------------------------------------------

# Canonical sweep domains. Grid files may sweep any subset of these fields,
# and values outside the canonical domains are accepted anywhere a single
# Hyperparameters value is (tests and small benchmarks need off-grid values);
# the domains are the documented defaults for full sweeps. Their order is the
# deterministic grid-enumeration order.
GRID_DOMAINS = {
    "optimizer_kind": ("adam", "adamw", "sgd"),
    "activation_kind": ACTIVATION_KINDS,
    "n_blocks": (5, 6, 7),
    "dense_layers_per_block": (3, 4, 5, 6),
    "nodes": (64, 128, 512, 1024),
    "learning_rate": (1e-1, 1e-2, 1e-3, 1e-4),
    "l2_lambda": (2.0, 4.0, 6.0, 8.0),
    "dropout_rate": (0.2, 0.4, 0.6),
    "lr_decay": (1e-2, 1e-3, 1e-4, 1e-5),
}
GRID_FIELDS = tuple(GRID_DOMAINS)


@dataclass(frozen=True)
class Hyperparameters:
    """One training configuration.

    String fields are case-insensitive on input and stored lowercase.
    Integer fields take integers only (not bools, not 2.5) and float fields
    finite real numbers only (not bools, strings, None, NaN or infinity); a
    value of the wrong type raises ValueError naming its field. Numeric
    fields are then sanity-checked (positive, in range) rather than pinned
    to the canonical grid domains, so small test-scale configurations and
    off-grid values like lr_decay=0 are legal.
    """

    optimizer_kind: str = "adam"
    activation_kind: str = "tanh"
    n_blocks: int = 5
    dense_layers_per_block: int = 3
    nodes: int = 64
    learning_rate: float = 1e-2
    l2_lambda: float = 1e-2
    dropout_rate: float = 0.2
    lr_decay: float = 1e-3
    max_epochs: int = 500
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        object.__setattr__(self, "optimizer_kind", str(self.optimizer_kind).lower())
        object.__setattr__(self, "activation_kind", str(self.activation_kind).lower())
        if self.optimizer_kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer {self.optimizer_kind!r}")
        if self.activation_kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.activation_kind!r}")
        if self.n_blocks < 1 or self.dense_layers_per_block < 1 or self.nodes < 1:
            raise ValueError("network size fields must be positive integers")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.l2_lambda < 0 or self.lr_decay < 0:
            raise ValueError("l2_lambda and lr_decay must be nonnegative")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @classmethod
    def from_dict(cls, raw: dict) -> "Hyperparameters":
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown hyperparameter keys: {sorted(unknown)}")
        return cls(**raw)

    def replaced(self, **kwargs) -> "Hyperparameters":
        return replace(self, **kwargs)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """Mutable per-run optimizer state: step counter, current learning rate,
    `n_decayed`, the length of the parameter vector's leading slice that
    weight decay touches (the weight matrices), rows of `STEP_CHUNK` entries
    that a step computes in, chunk by chunk (so that a step allocates
    nothing), and (for Adam/AdamW) first/second moment accumulators."""

    t: int
    lr: float
    n_decayed: int
    work: np.ndarray = field(repr=False)
    m: np.ndarray | None = None
    v: np.ndarray | None = None


# entries a step computes at a time: its work rows are 128 KB, not vector-sized
STEP_CHUNK = 1 << 14


def init_optimizer_state(hp: Hyperparameters, size: int, n_decayed: int) -> OptimizerState:
    """Fresh state for a parameter vector of `size` entries, whose first
    `n_decayed` are the ones weight decay touches."""
    adam = hp.optimizer_kind != "sgd"
    return OptimizerState(
        t=0,
        lr=hp.learning_rate,
        n_decayed=n_decayed,
        work=np.empty((2 if adam else 1, min(size, STEP_CHUNK))),
        m=np.zeros(size) if adam else None,
        v=np.zeros(size) if adam else None,
    )


def _chunks(state: OptimizerState, size: int):
    """(slice, work rows cut to its length) per chunk of a vector's first `size` entries."""
    for start in range(0, size, STEP_CHUNK):
        stop = min(start + STEP_CHUNK, size)
        yield slice(start, stop), state.work[:, :stop - start]


# The steps compute chunk by chunk in `state.work` with the operations of
# their formulas, in order; every operation is elementwise, so they are
# bit-identical to the formulas written out over the whole vector.

def sgd_step(
    params: np.ndarray, grads: np.ndarray, state: OptimizerState, hp: Hyperparameters
) -> np.ndarray:
    """w <- w - lr g. Mutates params in place and returns it."""
    state.t += 1
    for s, (step,) in _chunks(state, params.size):
        w = params[s]
        w -= np.multiply(grads[s], state.lr, out=step)
    return params


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: OptimizerState, hp: Hyperparameters
) -> np.ndarray:
    """Bias-corrected Adam (beta1=0.9, beta2=0.999, eps=1e-8):
    m <- beta1 m + (1 - beta1) g, v <- beta2 v + (1 - beta2) g g, and
    w <- w - lr m_hat / (sqrt(v_hat) + eps) with the bias-corrected m_hat
    and v_hat. Mutates params in place and returns it."""
    state.t += 1
    for s, (denom, step) in _chunks(state, params.size):
        w, m, v, g = params[s], state.m[s], state.v[s], grads[s]
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=step)
        step *= g
        v += step
        np.divide(v, 1.0 - ADAM_BETA2 ** state.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, 1.0 - ADAM_BETA1 ** state.t, out=step)
        step *= state.lr
        step /= denom
        w -= step
    return params


def adamw_step(
    params: np.ndarray, grads: np.ndarray, state: OptimizerState, hp: Hyperparameters
) -> np.ndarray:
    """Adam with decoupled weight decay applied before the moment update.

    The decay coefficient is l2_lambda scaled by 1e-3 and touches only
    weight-matrix entries (`params[:state.n_decayed]`); with AdamW selected
    the loss carries no L2 term, so l2_lambda acts purely as decay.
    """
    wd = hp.l2_lambda * ADAMW_DECAY_SCALE
    if wd > 0.0:
        for s, (step, _) in _chunks(state, state.n_decayed):
            w = params[s]
            w -= np.multiply(w, state.lr * wd, out=step)
    return adam_step(params, grads, state, hp)


_STEP_FUNCTIONS = {"sgd": sgd_step, "adam": adam_step, "adamw": adamw_step}


def decay_learning_rate(
    state: OptimizerState, hp: Hyperparameters, epoch: int
) -> OptimizerState:
    """Inverse-time decay: lr(epoch) = learning_rate / (1 + lr_decay * epoch)."""
    if epoch < 1:
        raise ValueError("epoch must be >= 1")
    state.lr = hp.learning_rate / (1.0 + hp.lr_decay * epoch)
    return state


# ---------------------------------------------------------------------------
# The epoch loop
# ---------------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    learning_rate: float
    train_loss: float
    val_loss: float
    val_c_index: float


@dataclass
class TrainReport:
    """Everything a training run produced. `params` is the restored
    best-validation-loss snapshot of the float32 network `train` ran."""

    epochs: list[EpochRecord]
    best_epoch: int
    best_val_loss: float
    best_val_c_index: float
    stopped_early: bool
    epochs_run: int
    params: ResSurvParams = field(repr=False)


def train(
    train_ds: SurvivalDataset,
    val_ds: SurvivalDataset,
    hp: Hyperparameters,
    with_shortcut: bool = True,
    score_val_c_index: bool = True,
) -> TrainReport:
    """Run the epoch loop and return the report with best-epoch parameters.

    Each split must hold a comparable pair, checked before the network is
    made, with features standardized by training-split statistics; `hp.seed`
    alone seeds the initialization and the dropout masks. Training is
    full-batch: the Cox partial likelihood couples samples through risk sets,
    so only the full-batch gradient is the exact one.

    Each epoch: forward in train mode, the Cox NLL and its gradient from one
    pass over the sorted scores (`cox.loss_and_gradient`) plus the L2
    penalty (skipped for AdamW, which carries it as decoupled decay),
    backward, optimizer step, then inverse-time LR decay and a validation
    pass in eval mode: the validation NLL and, when `score_val_c_index` is
    true, the validation C-index. Stops when validation NLL has not improved
    by at least 1e-6 for `patience` consecutive epochs; the best-validation
    snapshot (weights and batch-norm running statistics) is restored into
    the report.

    The validation C-index decides nothing: it is only reported, in each
    `EpochRecord` and as `best_val_c_index`. A caller that reads neither
    (a cross-validation unit) passes `score_val_c_index=False` and skips
    its per-epoch cost; both fields are then NaN, and every other number
    of the report is unchanged.

    The layers compute in float32 and the rest in float64: the optimizer
    steps the float64 master weights, and the layers read `net`, a float32
    copy of them refreshed after every step, which also holds the batch-norm
    running statistics; the Cox loss and gradient, the L2 penalty and the
    validation loss are float64. The report's `params` is that float32
    network. Non-finite scores, training or validation, or a non-finite
    training loss abort with the offending epoch.

    The epochs read float32 copies of the two feature matrices and the
    splits' times and events, nothing else of the datasets: `train` lets go
    of both datasets before the network is made, so that a caller that
    hands them over without keeping them (as `fold_unit` does) holds no
    float64 copy of the rows while the epochs run.
    """
    for split, split_ds in (("training", train_ds), ("validation", val_ds)):
        split_ds.require_comparable_pair(slice(None), f"the {split} split")
    if val_ds.p != train_ds.p:
        raise UnusableDatasetError("train and validation feature counts differ")

    n_features = train_ds.p
    train_X, val_X = (ds.features.astype(np.float32) for ds in (train_ds, val_ds))
    train_index = cox.build_risk_index(train_ds.times, train_ds.events)
    val_index = cox.build_risk_index(val_ds.times, val_ds.events)
    val_times, val_events = val_ds.times, val_ds.events
    del train_ds, val_ds, split_ds   # the check loop's variable holds val_ds

    master = init_params(
        n_features=n_features,
        block_widths=[hp.nodes] * hp.n_blocks,
        dense_layers_per_block=hp.dense_layers_per_block,
        activation_kind=hp.activation_kind,
        dropout_rate=hp.dropout_rate,
        seed=stable_seed(hp.seed, 0),
        with_shortcut=with_shortcut,
    )
    net = master.copy(np.float32)
    state = init_optimizer_state(hp, master.flat.size, master.n_decayed)
    weights = master.flat[:master.n_decayed]
    step_fn = _STEP_FUNCTIONS[hp.optimizer_kind]
    # AdamW carries l2_lambda as decoupled decay; everyone else as a loss term
    loss_lambda = 0.0 if hp.optimizer_kind == "adamw" else hp.l2_lambda
    stream = DropoutStream(stable_seed(hp.seed, 1, 0))

    best_val = np.inf
    best_epoch = 0
    # the one snapshot network of the fit, written over on each improving epoch
    best_snapshot = net.copy()
    stopped_early = False
    records: list[EpochRecord] = []
    # each epoch's forward pass writes over the previous epoch's cache, the
    # fit's one workspace for activations and backward temporaries
    cache = None

    # the finite checks name the epoch where the numbers overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, hp.max_epochs + 1):
            lr_used = state.lr
            h, cache = model_forward(train_X, net, mode="train",
                                     stream=stream, epoch=epoch, cache=cache)
            if not np.isfinite(h).all():
                raise DivergenceError(epoch, "training loss")
            nll, grad_h = cox.loss_and_gradient(h, train_index)
            grads = model_backward(grad_h, net, cache)
            # the penalty's gradient goes into grads in place
            train_loss = nll + cox.l2_penalty(weights, loss_lambda, grads[:weights.size])
            if not np.isfinite(train_loss):
                raise DivergenceError(epoch, "training loss")
            step_fn(master.flat, grads, state, hp)
            net.flat[...] = master.flat
            decay_learning_rate(state, hp, epoch)

            h_val, _ = model_forward(val_X, net, mode="eval")
            if not np.isfinite(h_val).all():
                raise DivergenceError(epoch, "validation loss")
            # finite float32 scores give a finite float64 loss
            val_loss = cox.neg_log_partial_likelihood(h_val, val_index)
            val_c = (concordance_fast(val_times, val_events, h_val).c_index
                     if score_val_c_index else np.nan)

            records.append(EpochRecord(epoch, lr_used, float(train_loss),
                                       float(val_loss), float(val_c)))

            if val_loss <= best_val - EARLY_STOP_MIN_IMPROVEMENT:
                best_val = float(val_loss)
                best_epoch = epoch
                best_snapshot.flat[...] = net.flat
                best_snapshot.stats[...] = net.stats
                best_snapshot.n_updates = net.n_updates
            elif epoch - best_epoch >= hp.patience:
                stopped_early = True
                break

    return TrainReport(
        epochs=records,
        best_epoch=best_epoch,
        best_val_loss=best_val,
        best_val_c_index=records[best_epoch - 1].val_c_index,
        stopped_early=stopped_early,
        epochs_run=len(records),
        params=best_snapshot,
    )


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

@dataclass
class FoldRecord:
    fold: int
    n_train: int
    n_test: int
    n_test_events: int
    c_index: float
    best_epoch: int
    epochs_run: int
    stopped_early: bool
    best_val_loss: float


def held_out_fields(f: int, n_train: int, test_fold: SurvivalDataset,
                    scores: np.ndarray) -> dict:
    """The held-out fields of fold `f`'s record, for a model fit on its
    complement of `n_train` rows that gave the held-out fold `test_fold` the
    risk `scores`: the fold, the row counts and the held-out C-index."""
    return {
        "fold": f,
        "n_train": n_train,
        "n_test": test_fold.n,
        "n_test_events": test_fold.n_events,
        "c_index": float(concordance_fast(test_fold.times, test_fold.events, scores).c_index),
    }


@dataclass
class CVResult:
    """One model's k fold records (`FoldRecord`s of a network, or what
    another unit function such as the linear-Cox oracle's returns) and the
    mean and population standard deviation (ddof=0) of their held-out
    C-indexes."""

    k: int
    seed: int
    fold_hash: str
    folds: list
    mean_c_index: float
    std_c_index: float


# what each pool worker's OpenBLAS starts with unless the user set it: one
# BLAS thread per process, so that workers do not oversubscribe the cores;
# in-process units run under the same count, so that every pool computes
# the same bits
BLAS_THREADS_ENV = "OPENBLAS_NUM_THREADS"
WORKER_BLAS_THREADS = "1"


@dataclass(frozen=True)
class Preparation:
    """How a model sees the rows of `data`: the features that the rows it
    was fit on retain, standardized by those rows' statistics, so nothing
    leaks from the other rows. `fit` makes one, `apply` uses it."""

    data: SurvivalDataset
    retained: list[str]
    standardization: StandardizationParams

    @classmethod
    def fit(cls, ds: SurvivalDataset, rows: np.ndarray) -> "Preparation":
        """Drop the features with low variance on the rows `rows` of `ds`
        and fit the standardization of the rest on them. Raises
        `UnusableDatasetError` when no feature is retained, when the fit
        overflows, and when the standardization takes any row of `ds` out
        of float64's range: a column's values scale to values between its
        scaled extremes."""
        fitted, retained = filter_features(ds.subset(rows))
        std = standardize_fit(fitted)
        column = {name: j for j, name in enumerate(ds.feature_names)}
        cols = [column[name] for name in retained]
        with np.errstate(over="ignore"):
            extremes = (np.stack([ds.features.min(axis=0)[cols], ds.features.max(axis=0)[cols]])
                        - std.means) / std.stddevs
        bad = np.flatnonzero(~np.isfinite(extremes).all(axis=0))
        if bad.size:
            j = bad[0]
            raise UnusableDatasetError(
                f"feature {retained[j]!r} standardizes by mean {std.means[j]} and standard "
                f"deviation {std.stddevs[j]} to values beyond float64's range"
            )
        return cls(ds, retained, std)

    def apply(self, rows: np.ndarray) -> SurvivalDataset:
        """The rows `rows` of `data`, prepared."""
        ds = self.data.subset(rows)
        if len(self.retained) < ds.p:
            ds = ds.select_features(self.retained)
        return standardize_apply(ds, self.standardization)


@dataclass(frozen=True)
class FoldPlan:
    """Everything the folds of one run share, decided before any fold
    trains: the dataset in canonical (id-sorted) order, the fold assignment
    (which holds the run seed and gives each fold's rows of `data`), and per
    fold the (early-stop train, early-stop validation) rows of `data`, which
    split the fold's complement, and the `Preparation` fit on the complement."""

    data: SurvivalDataset
    folds: FoldAssignment
    splits: tuple[tuple[np.ndarray, np.ndarray], ...]
    preparations: tuple[Preparation, ...]


HOLDOUT_FRACTION = 0.2


def early_stop_split(ds: SurvivalDataset, rows: np.ndarray,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The 80/20 early-stop split of the rows `rows` of `ds`, stratified by
    event status: (training, validation) rows of `ds`, which partition
    `rows`. Each side must hold a comparable pair; a side without one raises
    `UnusableDatasetError` naming the side."""
    train_rows, val_rows = (rows[pos] for pos in
                            stratified_holdout(ds.events[rows], HOLDOUT_FRACTION, seed=seed))
    for split, side in (("training", train_rows), ("validation", val_rows)):
        ds.require_comparable_pair(side, f"the early-stop {split} split")
    return train_rows, val_rows


def plan_folds(ds: SurvivalDataset, k: int, seed: int) -> FoldPlan:
    """Canonicalize rows by sample id, assign folds from `seed`, carve each
    fold's 80/20 stratified early-stop split and prepare its features.

    Every held-out fold and both sides of every early-stop split are checked
    for at least one comparable pair (an event followed by a strictly later
    time). Each fold's complement drops its low-variance features and fits
    the standardization of the rest; a complement that retains no feature,
    or a standardization that overflows, on the complement or on any row,
    is refused too. Each refusal raises `UnusableDatasetError` naming the
    fold (and the split), before anything trains.
    """
    canon = ds.sorted_by_id()
    folds = kfold_split(canon, k, seed)

    splits, preparations = [], []
    for f in range(folds.k):
        try:
            canon.require_comparable_pair(folds.test_indices(f), "the held-out split")
            splits.append(early_stop_split(canon, folds.train_indices(f),
                                           stable_seed(seed, 11, f)))
            preparations.append(Preparation.fit(canon, folds.train_indices(f)))
        except UnusableDatasetError as err:
            raise UnusableDatasetError(f"fold {f}: {err}") from None
    return FoldPlan(canon, folds, tuple(splits), tuple(preparations))


def fold_unit(
    plan: FoldPlan, hp: Hyperparameters, with_shortcut: bool, f: int
) -> FoldRecord | DivergenceError:
    """Train fold `f` of `plan` under `hp` and measure its held-out C-index.

    The model trains on the early-stop split of the fold's complement,
    prepared by the fold's `Preparation`, under a fold-specific sub-seed of
    `hp.seed`, without the per-epoch validation C-index, which no fold
    record holds. Only the two early-stop sides are prepared before the fit,
    and `train` is their only holder, so the epochs run on their float32
    copies alone; the held-out rows are prepared once the fit is done. A
    diverging fold returns its `DivergenceError`, naming the fold, instead
    of raising it, so that the caller decides which fold's error to report.
    """
    (inner_train, inner_val), prep = plan.splits[f], plan.preparations[f]
    try:
        report = train(prep.apply(inner_train), prep.apply(inner_val),
                       hp.replaced(seed=stable_seed(hp.seed, 13, f)),
                       with_shortcut=with_shortcut, score_val_c_index=False)
    except DivergenceError as err:
        return DivergenceError(err.epoch, f"fold {f}: {err.message}")

    test_fold = prep.apply(plan.folds.test_indices(f))
    h_test, _ = model_forward(test_fold.features, report.params, mode="eval")
    n_train = inner_train.size + inner_val.size   # the complement's rows
    return FoldRecord(**held_out_fields(f, n_train, test_fold, h_test),
                      best_epoch=report.best_epoch, epochs_run=report.epochs_run,
                      stopped_early=report.stopped_early, best_val_loss=report.best_val_loss)


# The units `UnitPool.map_units` runs in forked workers: set in this
# process while they run, so that each worker inherits them, and every plan
# they name, from memory; only a unit's index crosses the pipe.
_worker_units: list | None = None


def _pooled_unit(i: int):
    """Unit `i` of the units this worker was forked with, called, beside the
    worker's pid and the wall clock (Unix seconds) at which the unit started
    and ended."""
    fn, *args = _worker_units[i]
    started = time.time()
    outcome = fn(*args)
    return os.getpid(), started, time.time(), outcome


@functools.cache
def _openblas(name: str):
    """Function `name` of the OpenBLAS that numpy bundles (its 64-bit-index
    build first); where numpy bundles none, a function that does nothing.
    Looked up on first use, so that importing this module loads nothing."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in (name + "64_", name):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return lambda *args: None


@functools.cache
def _malloc_trim():
    """glibc's `int malloc_trim(size_t pad)`, which hands the heap's free
    pages back to the system; where the C library has none, a function
    that does nothing. Looked up on first use."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is None:
        return lambda pad: 0
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def usable_cores() -> int:
    """The cores this process may run on."""
    return len(os.sched_getaffinity(0))


def default_workers(units: int, cores: int) -> int:
    """The pool size without --workers: one worker per unit when the units
    do not divide evenly over the cores and are fewer than three per core,
    so that no core idles through a last partial round (README, Parallel
    runs, gives each condition's reason); else one per core, at most one
    per unit."""
    if units % cores and units < 3 * cores:
        return units
    return min(cores, units)


class UnitPool:
    """What runs units. A unit is a call, a tuple `(fn, *args)`; the pool
    knows nothing of what it computes. Per `map_units` call, up to `size`
    forked worker processes run the units, at most one per unit, or without
    a `size` `default_workers` for the call's units and the usable cores. A
    call that comes to one worker runs its units in this process, one after
    another. Neither makes a file, and a pool starts no process until it
    has units to map. `workers` is the count the latest call used (1 before
    any).

    Units run under `blas_threads` OpenBLAS threads: OPENBLAS_NUM_THREADS
    if set, else one. In this process, `unit_blas` sets numpy's OpenBLAS to
    that count for the body of a `with` and restores the previous count
    after (where numpy's OpenBLAS exports no setter, the count stays as it
    is); in-process units run under it, and pool workers are forked under
    it, so they inherit it. A CLI process loads OpenBLAS at that count
    already (see `ressurv.cli`), so there it changes nothing.

    A call's workers are forked once its units exist, so each inherits the
    imported package, the units and every plan they name from this
    process's memory: nothing is re-imported, pickled or written, and only
    unit indexes and outcomes cross the pipes. Before it forks, the heap
    hands its free pages back to the system, so that no worker starts with
    them. Forking needs this process to hold no other thread at that
    moment; OpenBLAS stops its own threads before a fork.
    """

    def __init__(self, size: int | None = None):
        if size is not None and size < 1:
            raise ValueError("workers must be >= 1")
        self.size = size
        self.workers = 1
        self.blas_threads = os.environ.get(BLAS_THREADS_ENV, WORKER_BLAS_THREADS)
        # Unix time each worker (by pid) started its first unit and ended
        # its last one
        self.first_unit_unix: dict[int, float] = {}
        self.last_unit_end_unix: dict[int, float] = {}

    @contextlib.contextmanager
    def unit_blas(self):
        """Compute the body in this process under the units' OpenBLAS thread
        count, as a unit would."""
        before = _openblas("scipy_openblas_get_num_threads")()
        if self.blas_threads.isdigit():
            _openblas("scipy_openblas_set_num_threads")(int(self.blas_threads))
        try:
            yield
        finally:
            _openblas("scipy_openblas_set_num_threads")(before)

    def map_units(self, units: list):
        """`fn(*args)` for each unit `(fn, *args)` of `units`, in order;
        without units, none, and no process starts. The workers, forked for
        this call, exit when the units are done or the generator closes;
        closing it early cancels the units not yet started."""
        global _worker_units
        if not units:
            return
        self.workers = (default_workers(len(units), usable_cores()) if self.size is None
                        else min(self.size, len(units)))
        if self.workers == 1:
            with self.unit_blas():
                for fn, *args in units:
                    yield fn(*args)
            return
        # every worker starts with this process's resident pages: hand the
        # heap's free pages back first (the plan's preparation frees most
        # of what it made, and glibc keeps it)
        _malloc_trim()(0)
        executor = ProcessPoolExecutor(self.workers, mp_context=get_context("fork"))
        _worker_units = units
        try:
            # a fork executor forks every worker at the first submit, so all
            # of them inherit the units' OpenBLAS count
            with self.unit_blas():
                outcomes = executor.map(_pooled_unit, range(len(units)))
            for pid, started, ended, outcome in outcomes:
                # a worker takes its units in submission order
                self.first_unit_unix.setdefault(pid, started)
                self.last_unit_end_unix[pid] = ended
                yield outcome
        finally:
            _worker_units = None
            executor.shutdown(cancel_futures=True)


# the pool the library runs units with unless it is handed another
IN_PROCESS = UnitPool(1)


def cross_validate_configs(
    plan: FoldPlan,
    configs: list[tuple],
    pool: UnitPool = IN_PROCESS,
    raise_divergence: bool = True,
) -> list[CVResult | DivergenceError]:
    """Cross-validate each configuration on the plan's folds; results in
    configuration order.

    A configuration is a call prefix `(fn, *args)`: `(fold_unit, hp,
    with_shortcut)` trains a network, `(linear_cox_unit,)` (in the CLI)
    fits the oracle. Its unit for fold `f` is the call `(fn, plan, *args,
    f)`; `pool` runs every configuration's units in one pass, in this
    order: in-process by default, else in the pool's workers, under the
    same BLAS thread count. Every number depends only on the unit, never on
    which process ran it or when, so results are identical across pools.

    A configuration with a diverging fold gets the `DivergenceError` of its
    lowest-index diverging fold: raised at once when `raise_divergence`
    (units not started yet are then cancelled), else returned in its place.
    """
    k = plan.folds.k
    outcomes = pool.map_units([(fn, plan, *args, f) for fn, *args in configs for f in range(k)])
    results = []
    try:
        for _ in configs:
            fold_outcomes = []
            for outcome in islice(outcomes, k):
                if raise_divergence and isinstance(outcome, DivergenceError):
                    raise outcome
                fold_outcomes.append(outcome)
            errors = [o for o in fold_outcomes if isinstance(o, DivergenceError)]
            if errors:
                results.append(errors[0])
                continue
            c_index = np.array([o.c_index for o in fold_outcomes])
            results.append(CVResult(k, plan.folds.seed, plan.folds.content_hash(), fold_outcomes,
                                    float(c_index.mean()), float(c_index.std())))
    finally:
        outcomes.close()   # cancels the units not started when a divergence raised
    return results


def cross_validate(
    ds: SurvivalDataset,
    hp: Hyperparameters,
    k: int = 5,
    seed: int = 0,
    pool: UnitPool = IN_PROCESS,
) -> CVResult:
    """Stratified k-fold cross-validation of the held-out C-index.

    Rows are first canonicalized by sample id, so the result is invariant to
    the order samples arrive in. Per fold: low-variance features are dropped
    and standardization is fit on the training complement only (no leakage),
    an 80/20 stratified early-stop split is carved from the complement, the
    model trains with a fold-specific sub-seed, and the C-index is measured
    on the untouched held-out fold. The folds run through `pool`, with
    identical results in-process and in its workers.

    Before any fold trains, every held-out fold and both sides of every
    early-stop split are checked for at least one comparable pair (an event
    followed by a strictly later time); a split without one raises
    `UnusableDatasetError` naming the fold and the split. A training abort
    raises the `DivergenceError` of the lowest-index diverging fold, with
    the fold index attached.
    """
    plan = plan_folds(ds, k, seed)
    # the plan holds the canonical rows; a caller that handed `ds` over
    # leaves the pool's workers one copy of them to inherit
    del ds
    [result] = cross_validate_configs(plan, [(fold_unit, hp, True)], pool)
    return result


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

@dataclass
class GridSearchResult:
    """Per grid point in enumeration order, the hp it trained under (its
    seed included) and its outcome, a `CVResult` or the `DivergenceError` of
    its lowest-index diverging fold; the best point among those that did
    not diverge (None if all did); the fold assignment all points share."""

    hps: list[Hyperparameters]
    outcomes: list[CVResult | DivergenceError]
    best_index: int | None
    k: int
    seed: int
    fold_hash: str


def enumerate_grid(grid: dict, base_hp: Hyperparameters,
                   budget: int | None = None) -> list[Hyperparameters]:
    """Deterministic enumeration: the cartesian product over the swept fields
    taken in declared field order, values in the order the grid lists them.
    Fields absent from the grid keep the base configuration's value. With a
    `budget`, only the first `budget` points are built."""
    if not grid:
        raise ValueError("grid must sweep at least one field")
    unknown = set(grid) - set(GRID_FIELDS)
    if unknown:
        raise ValueError(f"unknown grid fields: {sorted(unknown)}")
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    swept = [f for f in GRID_FIELDS if f in grid]
    for f in swept:
        if not isinstance(grid[f], (list, tuple)) or len(grid[f]) == 0:
            raise ValueError(f"grid field {f!r} must list at least one value")
    combos = islice(product(*(grid[f] for f in swept)), budget)
    return [base_hp.replaced(**dict(zip(swept, combo))) for combo in combos]


def grid_search(
    ds: SurvivalDataset,
    points: list[Hyperparameters],
    k: int = 5,
    seed: int = 0,
    pool: UnitPool = IN_PROCESS,
) -> GridSearchResult:
    """Cross-validate each of the grid points `points` (as `enumerate_grid`
    lists them) and pick the argmax.

    All points share one fold assignment (built from `seed`), and point i
    trains under the sub-seed `stable_seed(seed, 17, i)` in place of its own
    seed, so the result is a pure function of (dataset, points, k, seed)
    whatever `pool` runs the units. A point whose training diverges keeps
    its error as its outcome instead of aborting the search; ties on mean
    C-index resolve to the earliest point.
    """
    plan = plan_folds(ds, k, seed)
    del ds   # as in `cross_validate`
    hps = [hp.replaced(seed=stable_seed(seed, 17, i)) for i, hp in enumerate(points)]
    outcomes = cross_validate_configs(plan, [(fold_unit, hp, True) for hp in hps], pool,
                                      raise_divergence=False)
    # max keeps the first of equal means: ties go to the earliest point
    best = max((i for i, cv in enumerate(outcomes) if isinstance(cv, CVResult)),
               key=lambda i: outcomes[i].mean_c_index, default=None)
    return GridSearchResult(hps, outcomes, best, k, seed, plan.folds.content_hash())
