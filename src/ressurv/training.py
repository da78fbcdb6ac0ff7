"""Training protocol: optimizers, learning-rate decay, the epoch loop with
early stopping, stratified k-fold cross-validation, and grid search.

Determinism contract: (dataset, hyperparameters, seed) fully determines every
reported number. Per-fold and per-grid-point sub-seeds are derived from
position in a deterministic enumeration, never from execution order, so
results are identical across reruns and worker counts. Wall-clock time is
carried separately and never enters deterministic report content.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import pickle
import shutil
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, replace
from itertools import islice, product, repeat
from multiprocessing import get_context

import numpy as np

from . import cox
from .data import (
    FoldAssignment,
    SurvivalDataset,
    check_field_types,
    kfold_split,
    prepare_fold,
    stratified_holdout,
)
# imported only so that perfbench/tracer.py can patch them here
from .data import filter_features, standardize_apply, standardize_fit  # noqa: F401
from .errors import DivergenceError, UnusableDatasetError
from .metrics import concordance_fast
from .model import (
    ACTIVATION_KINDS,
    DropoutStream,
    ResSurvParams,
    decay_mask,
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

    def to_dict(self) -> dict:
        return asdict(self)

    def replaced(self, **kwargs) -> "Hyperparameters":
        return replace(self, **kwargs)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """Mutable per-run optimizer state: step counter, current learning rate,
    the entries weight decay touches, rows of the parameter vector's size
    that a step computes in (so that a step allocates nothing), and (for
    Adam/AdamW) first/second moment accumulators."""

    t: int
    lr: float
    decay_mask: np.ndarray = field(repr=False)
    work: np.ndarray = field(repr=False)
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def init_optimizer_state(hp: Hyperparameters, mask: np.ndarray) -> OptimizerState:
    """Fresh state for a parameter vector of `mask`'s size, whose True
    entries are the ones weight decay touches."""
    adam = hp.optimizer_kind != "sgd"
    return OptimizerState(
        t=0,
        lr=hp.learning_rate,
        decay_mask=mask,
        work=np.empty((2 if adam else 1, mask.size)),
        m=np.zeros(mask.size) if adam else None,
        v=np.zeros(mask.size) if adam else None,
    )


# The steps compute in `state.work` with the operations of their formulas,
# in order, so they are bit-identical to the formulas written out.

def sgd_step(
    params: np.ndarray, grads: np.ndarray, state: OptimizerState, hp: Hyperparameters
) -> np.ndarray:
    """w <- w - lr g. Mutates params in place and returns it."""
    state.t += 1
    params -= np.multiply(grads, state.lr, out=state.work[0])
    return params


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: OptimizerState, hp: Hyperparameters
) -> np.ndarray:
    """Bias-corrected Adam (beta1=0.9, beta2=0.999, eps=1e-8):
    m <- beta1 m + (1 - beta1) g, v <- beta2 v + (1 - beta2) g g, and
    w <- w - lr m_hat / (sqrt(v_hat) + eps) with the bias-corrected m_hat
    and v_hat. Mutates params in place and returns it."""
    state.t += 1
    denom, step = state.work
    state.m *= ADAM_BETA1
    state.m += np.multiply(grads, 1.0 - ADAM_BETA1, out=step)
    state.v *= ADAM_BETA2
    np.multiply(grads, 1.0 - ADAM_BETA2, out=step)
    step *= grads
    state.v += step
    np.divide(state.v, 1.0 - ADAM_BETA2 ** state.t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(state.m, 1.0 - ADAM_BETA1 ** state.t, out=step)
    step *= state.lr
    step /= denom
    params -= step
    return params


def adamw_step(
    params: np.ndarray, grads: np.ndarray, state: OptimizerState, hp: Hyperparameters
) -> np.ndarray:
    """Adam with decoupled weight decay applied before the moment update.

    The decay coefficient is l2_lambda scaled by 1e-3 and touches only
    weight-matrix entries (state.decay_mask); with AdamW selected the loss
    carries no L2 term, so l2_lambda acts purely as decay.
    """
    wd = hp.l2_lambda * ADAMW_DECAY_SCALE
    if wd > 0.0:
        decay = np.multiply(params, state.lr * wd, out=state.work[0])
        np.subtract(params, decay, out=params, where=state.decay_mask)
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

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainReport:
    """Everything a training run produced. `params` is the restored
    best-validation-loss snapshot."""

    epochs: list[EpochRecord]
    best_epoch: int
    best_val_loss: float
    best_val_c_index: float
    stopped_early: bool
    epochs_run: int
    params: ResSurvParams = field(repr=False)

    def epoch_records(self) -> list[dict]:
        return [r.to_dict() for r in self.epochs]

    def summary(self) -> dict:
        return {
            "best_epoch": self.best_epoch,
            "best_val_loss": self.best_val_loss,
            "best_val_c_index": self.best_val_c_index,
            "stopped_early": self.stopped_early,
            "epochs_run": self.epochs_run,
        }


def train(
    train_ds: SurvivalDataset,
    val_ds: SurvivalDataset,
    hp: Hyperparameters,
    with_shortcut: bool = True,
    seed: int | None = None,
) -> TrainReport:
    """Run the epoch loop and return the report with best-epoch parameters.

    Both splits must be nonempty with at least one event each, and features
    must already be standardized with training-split statistics. Training is
    full-batch: the Cox partial likelihood couples samples through risk sets,
    so only the full-batch gradient is the exact one.

    Each epoch: forward in train mode, Cox NLL plus L2 penalty (penalty
    skipped for AdamW, which carries it as decoupled decay), backward,
    optimizer step, then inverse-time LR decay and a validation pass in eval
    mode. Stops when validation NLL has not improved by at least 1e-6 for
    `patience` consecutive epochs; the best-validation snapshot (weights and
    batch-norm running statistics) is restored into the report.

    A non-finite training or validation loss aborts with the offending epoch.
    """
    for split, split_ds in (("training", train_ds), ("validation", val_ds)):
        if split_ds.n < 2 or split_ds.n_events < 1:
            raise UnusableDatasetError(f"{split} split needs >= 2 samples and >= 1 event")
    if val_ds.p != train_ds.p:
        raise UnusableDatasetError("train and validation feature counts differ")

    run_seed = hp.seed if seed is None else seed
    params = init_params(
        n_features=train_ds.p,
        block_widths=[hp.nodes] * hp.n_blocks,
        dense_layers_per_block=hp.dense_layers_per_block,
        activation_kind=hp.activation_kind,
        dropout_rate=hp.dropout_rate,
        seed=stable_seed(run_seed, 0),
        with_shortcut=with_shortcut,
    )
    mask = decay_mask(params)
    state = init_optimizer_state(hp, mask)
    step_fn = _STEP_FUNCTIONS[hp.optimizer_kind]
    # AdamW carries l2_lambda as decoupled decay; everyone else as a loss term
    loss_lambda = 0.0 if hp.optimizer_kind == "adamw" else hp.l2_lambda

    train_index = cox.build_risk_index(train_ds.times, train_ds.events)
    stream = DropoutStream(stable_seed(run_seed, 1, 0))
    val_index = cox.build_risk_index(val_ds.times, val_ds.events)

    best_val = np.inf
    best_epoch = 0
    best_snapshot = params.copy()
    stopped_early = False
    records: list[EpochRecord] = []
    # each epoch's forward pass writes over the previous epoch's cache, the
    # fit's one workspace for activations and backward temporaries
    cache = None

    for epoch in range(1, hp.max_epochs + 1):
        lr_used = state.lr
        h, cache = model_forward(train_ds.features, params, mode="train",
                                 stream=stream, epoch=epoch, cache=cache)
        grads = model_backward(cox.nll_gradient(h, train_index), params, cache)
        # the penalty's gradient goes into grads in place
        train_loss = (cox.neg_log_partial_likelihood(h, train_index)
                      + cox.l2_penalty(params.flat, loss_lambda, mask, grads))
        if not np.isfinite(train_loss):
            raise DivergenceError(epoch, "training loss")
        step_fn(params.flat, grads, state, hp)
        decay_learning_rate(state, hp, epoch)

        h_val, _ = model_forward(val_ds.features, params, mode="eval")
        val_loss = cox.neg_log_partial_likelihood(h_val, val_index)
        if not np.isfinite(val_loss):
            raise DivergenceError(epoch, "validation loss")
        val_c = concordance_fast(val_ds.times, val_ds.events, h_val).c_index

        records.append(EpochRecord(epoch, lr_used, float(train_loss),
                                   float(val_loss), float(val_c)))

        if val_loss <= best_val - EARLY_STOP_MIN_IMPROVEMENT:
            best_val = float(val_loss)
            best_epoch = epoch
            best_snapshot = params.copy()
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

    def to_dict(self) -> dict:
        return asdict(self)


def fold_summary(c_indexes: list[float]) -> tuple[float, float]:
    """(mean, population standard deviation with ddof=0) of fold C-indexes:
    the summary every cross-validated model reports."""
    values = np.array(c_indexes)
    return float(values.mean()), float(values.std())


@dataclass
class CVResult:
    """Held-out C-index across k folds, summarized by `fold_summary`."""

    k: int
    seed: int
    fold_hash: str
    folds: list[FoldRecord]
    mean_c_index: float
    std_c_index: float

    def fold_records(self) -> list[dict]:
        return [r.to_dict() for r in self.folds]

    def summary(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "fold_hash": self.fold_hash,
            "mean_c_index": self.mean_c_index,
            "std_c_index": self.std_c_index,
        }


# what each pool worker's OpenBLAS starts with unless the user set it: one
# BLAS thread per process, so that workers do not oversubscribe the cores;
# in-process units run under the same count, so that every pool computes
# the same bits
BLAS_THREADS_ENV = "OPENBLAS_NUM_THREADS"
WORKER_BLAS_THREADS = "1"


@dataclass(frozen=True)
class FoldPlan:
    """Everything the folds of one run share, decided before any fold
    trains: the dataset in canonical (id-sorted) order, the fold assignment
    (which holds the run seed), and per fold the row indexes (train, test)
    into `data` and (early-stop train, early-stop validation) into the
    training side."""

    data: SurvivalDataset
    folds: FoldAssignment
    splits: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]

    def fold_data(self, f: int) -> tuple[SurvivalDataset, SurvivalDataset]:
        """Fold `f`'s (training complement, held-out fold): low-variance
        features dropped and standardization fit on the complement only, so
        nothing leaks from the held-out rows."""
        train_idx, test_idx, _, _ = self.splits[f]
        complement, test_fold, _ = prepare_fold(self.data.subset(train_idx),
                                                self.data.subset(test_idx))
        return complement, test_fold


def require_comparable_pair(ds: SurvivalDataset, rows: np.ndarray, split: str) -> None:
    """Raise `UnusableDatasetError` naming `split` unless the rows `rows` of
    `ds` hold a comparable pair: an event followed by a strictly later time."""
    times, events = ds.times[rows], ds.events[rows]
    if not (events.any() and times[events].min() < times.max()):
        raise UnusableDatasetError(
            f"{split} has no comparable pair (an event followed by a strictly later time)"
        )


HOLDOUT_FRACTION = 0.2


def early_stop_split(ds: SurvivalDataset, rows: np.ndarray, seed: int,
                     where: str = "") -> tuple[np.ndarray, np.ndarray]:
    """The 80/20 early-stop split of the rows `rows` of `ds`, stratified by
    event status: (training, validation) positions into `rows`. Each side
    must hold a comparable pair; a side without one raises
    `UnusableDatasetError` naming `where` and the side."""
    train_pos, val_pos = stratified_holdout(ds.events[rows], HOLDOUT_FRACTION, seed=seed)
    for split, pos in (("training", train_pos), ("validation", val_pos)):
        require_comparable_pair(ds, rows[pos], f"{where}the early-stop {split} split")
    return train_pos, val_pos


def plan_folds(ds: SurvivalDataset, k: int, seed: int) -> FoldPlan:
    """Canonicalize rows by sample id, assign folds from `seed` and carve
    each fold's 80/20 stratified early-stop split.

    Every held-out fold and both sides of every early-stop split are checked
    for at least one comparable pair (an event followed by a strictly later
    time); a split without one raises `UnusableDatasetError` naming the fold
    and the split, before anything trains.
    """
    canon = ds.sorted_by_id()
    folds = kfold_split(canon, k, seed)

    splits = []
    for f in range(folds.k):
        train_idx, test_idx = folds.train_indices(f), folds.test_indices(f)
        require_comparable_pair(canon, test_idx, f"fold {f}: the held-out split")
        splits.append((train_idx, test_idx,
                       *early_stop_split(canon, train_idx, stable_seed(seed, 11, f),
                                         where=f"fold {f}: ")))
    return FoldPlan(canon, folds, tuple(splits))


def fold_unit(
    plan: FoldPlan, hp: Hyperparameters, with_shortcut: bool, f: int
) -> FoldRecord | DivergenceError:
    """Train fold `f` of `plan` under `hp` and measure its held-out C-index.

    The model trains on the early-stop split of the fold's prepared
    complement (`FoldPlan.fold_data`) with a fold-specific sub-seed. A
    diverging fold returns its `DivergenceError`, naming the fold, instead of
    raising it, so that the caller decides which fold's error to report.
    """
    complement, test_fold = plan.fold_data(f)
    _, _, inner_train_idx, inner_val_idx = plan.splits[f]
    try:
        report = train(complement.subset(inner_train_idx),
                       complement.subset(inner_val_idx), hp,
                       with_shortcut=with_shortcut, seed=stable_seed(hp.seed, 13, f))
    except DivergenceError as err:
        return DivergenceError(err.epoch, f"fold {f}")

    h_test, _ = model_forward(test_fold.features, report.params, mode="eval")
    c = concordance_fast(test_fold.times, test_fold.events, h_test).c_index
    return FoldRecord(
        fold=f,
        n_train=complement.n,
        n_test=test_fold.n,
        n_test_events=test_fold.n_events,
        c_index=float(c),
        best_epoch=report.best_epoch,
        epochs_run=report.epochs_run,
        stopped_early=report.stopped_early,
        best_val_loss=report.best_val_loss,
    )


# The plan a pool worker last loaded, as (file path, plan): a worker reads
# each plan file once, on its first unit of that plan, and keeps it for the
# rest; never set in the parent.
_worker_plan: tuple[str, FoldPlan] | None = None


def _pooled_fold_unit(plan_path: str, hp: Hyperparameters, with_shortcut: bool, f: int):
    """`fold_unit` in a pool worker, beside the worker's pid and the wall
    clock (Unix seconds) at which the unit started."""
    global _worker_plan
    started = time.time()
    if _worker_plan is None or _worker_plan[0] != plan_path:
        with open(plan_path, "rb") as fh:
            _worker_plan = (plan_path, pickle.load(fh))
    return os.getpid(), started, fold_unit(_worker_plan[1], hp, with_shortcut, f)


def _check_spawn_can_import_main() -> None:
    """Raise `BrokenProcessPool` before any worker starts if spawned workers
    could not re-import the main program, as for one read from standard
    input: each such worker would die at start with its own traceback."""
    main = sys.modules["__main__"]
    if getattr(main.__spec__, "name", None) is not None:
        return   # run with -m: workers import the module by name
    path = getattr(main, "__file__", None)
    if path is not None and not os.path.isfile(path):
        raise BrokenProcessPool(f"spawned workers cannot re-import the main program {path!r}")


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


class UnitPool:
    """What runs (configuration, fold) units: with `size` 1, this process,
    one unit after another, starting no process and making no file;
    otherwise `size` spawned worker processes.

    Units run under `blas_threads` OpenBLAS threads: OPENBLAS_NUM_THREADS
    if set, else one. In-process, `map_units` sets numpy's OpenBLAS to that
    count while it runs units and restores the previous count after (where
    numpy's OpenBLAS exports no setter, the count stays as it is).

    Every worker starts when the pool opens, so their imports overlap
    whatever the opener does next (reading the CSV, planning the folds). A
    fold plan reaches the workers as a file: `map_units` pickles it once
    into the pool's temporary directory (under TMPDIR, mode 0700, so that
    no other user can replace what the workers unpickle), each unit names
    that file, and a worker loads it on its first unit. Closing the pool
    waits for its workers and deletes the directory.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("workers must be >= 1")
        self.size = size
        self.blas_threads = os.environ.get(BLAS_THREADS_ENV, WORKER_BLAS_THREADS)
        # Unix time each worker (by pid) started its first unit
        self.first_unit_unix: dict[int, float] = {}
        if size == 1:
            return
        _check_spawn_can_import_main()
        self._plans = 0
        self._dir = tempfile.mkdtemp(prefix="ressurv-pool-")
        # OpenBLAS reads OPENBLAS_NUM_THREADS as numpy loads, so it must be
        # in the environment while the workers start, and only then
        user_set = BLAS_THREADS_ENV in os.environ
        os.environ[BLAS_THREADS_ENV] = self.blas_threads
        try:
            self._executor = ProcessPoolExecutor(size, mp_context=get_context("spawn"))
            # spawn starts one worker per submit that finds none idle: these
            # no-op calls start all of them now, at once. Their futures go
            # unread: a worker that cannot start breaks the pool, and
            # `map_units` raises that.
            for _ in range(size):
                self._executor.submit(os.getpid)
        except BaseException:
            shutil.rmtree(self._dir, ignore_errors=True)
            raise
        finally:
            if not user_set:
                os.environ.pop(BLAS_THREADS_ENV, None)

    def map_units(self, plan: FoldPlan, units):
        """`fold_unit` outcomes of `plan` for each (hp, with_shortcut, fold)
        of `units`, in order. Closing the generator early cancels the units
        not yet started."""
        if self.size == 1:
            before = _openblas("scipy_openblas_get_num_threads")()
            if self.blas_threads.isdigit():
                _openblas("scipy_openblas_set_num_threads")(int(self.blas_threads))
            try:
                for unit in units:
                    yield fold_unit(plan, *unit)
            finally:
                _openblas("scipy_openblas_set_num_threads")(before)
            return
        path = os.path.join(self._dir, f"plan{self._plans}.pickle")
        self._plans += 1
        with open(path, "wb") as fh:
            pickle.dump(plan, fh, protocol=pickle.HIGHEST_PROTOCOL)
        outcomes = self._executor.map(_pooled_fold_unit, repeat(path), *zip(*units))
        try:
            for pid, started, outcome in outcomes:
                # a worker takes its units in submission order
                self.first_unit_unix.setdefault(pid, started)
                yield outcome
        finally:
            outcomes.close()

    def close(self) -> None:
        if self.size > 1:
            self._executor.shutdown(cancel_futures=True)
            shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "UnitPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# the pool the library runs units with unless it is handed another
IN_PROCESS = UnitPool(1)


def cross_validate_configs(
    plan: FoldPlan,
    configs: list[tuple[Hyperparameters, bool]],
    pool: UnitPool = IN_PROCESS,
    raise_divergence: bool = True,
) -> list[CVResult | DivergenceError]:
    """Cross-validate each (hp, with_shortcut) configuration on the plan's
    folds; results in configuration order.

    The unit of work is one (configuration, fold) pair, run by `fold_unit`
    in enumeration order through `pool`: in-process by default, else in
    the pool's workers, under the same BLAS thread count. Every number
    depends only on the unit, never on which process ran it or when, so
    results are identical across pools.

    A configuration with a diverging fold gets the `DivergenceError` of its
    lowest-index diverging fold: raised at once when `raise_divergence`
    (units not started yet are then cancelled), else returned in its place.
    """
    k = plan.folds.k
    outcomes = pool.map_units(plan, [(hp, with_shortcut, f)
                                     for hp, with_shortcut in configs for f in range(k)])
    results = []
    try:
        for _ in configs:
            fold_outcomes = []
            for outcome in islice(outcomes, k):
                if raise_divergence and isinstance(outcome, DivergenceError):
                    raise outcome
                fold_outcomes.append(outcome)
            errors = [o for o in fold_outcomes if isinstance(o, DivergenceError)]
            results.append(errors[0] if errors else CVResult(
                k, plan.folds.seed, plan.folds.content_hash(), fold_outcomes,
                *fold_summary([r.c_index for r in fold_outcomes])))
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
    [result] = cross_validate_configs(plan, [(hp, True)], pool)
    return result


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

@dataclass
class GridPointResult:
    index: int
    hp: dict
    mean_c_index: float | None
    std_c_index: float | None
    fold_c_indexes: list[float]
    failed: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class GridSearchResult:
    points: list[GridPointResult]
    best_index: int | None
    total_runs: int
    k: int
    seed: int
    fold_hash: str

    @property
    def best_point(self) -> GridPointResult | None:
        return None if self.best_index is None else self.points[self.best_index]

    def point_records(self) -> list[dict]:
        return [p.to_dict() for p in self.points]

    def summary(self) -> dict:
        best = self.best_point
        return {
            "total_runs": self.total_runs,
            "k": self.k,
            "seed": self.seed,
            "fold_hash": self.fold_hash,
            "best_index": self.best_index,
            "best_hp": None if best is None else best.hp,
            "best_mean_c_index": None if best is None else best.mean_c_index,
        }


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
    grid: dict,
    k: int = 5,
    seed: int = 0,
    budget: int | None = None,
    pool: UnitPool = IN_PROCESS,
    base_hp: Hyperparameters = Hyperparameters(),
) -> GridSearchResult:
    """Evaluate grid points by cross-validation and pick the argmax.

    All points share one fold assignment (built from `seed`), and each point
    trains under a sub-seed derived from its enumeration index, so the result
    is a pure function of (dataset, grid, k, seed, budget) whatever `pool`
    runs the units. A point whose training diverges is recorded with a
    failure flag instead of aborting the search; ties on mean C-index
    resolve to the earliest enumerated point.
    """
    all_points = enumerate_grid(grid, base_hp, budget)

    plan = plan_folds(ds, k, seed)
    hps = [hp.replaced(seed=stable_seed(seed, 17, i)) for i, hp in enumerate(all_points)]
    outcomes = cross_validate_configs(plan, [(hp, True) for hp in hps], pool,
                                      raise_divergence=False)
    points = []
    for index, (hp, cv) in enumerate(zip(hps, outcomes)):
        failed = isinstance(cv, DivergenceError)
        points.append(GridPointResult(
            index=index,
            hp=hp.to_dict(),
            mean_c_index=None if failed else cv.mean_c_index,
            std_c_index=None if failed else cv.std_c_index,
            fold_c_indexes=[] if failed else [r.c_index for r in cv.folds],
            failed=failed,
            error=str(cv) if failed else None,
        ))
    # max keeps the first of equal means: ties go to the earliest point
    best = max((p for p in points if not p.failed), key=lambda p: p.mean_c_index,
               default=None)

    return GridSearchResult(
        points=points,
        best_index=None if best is None else best.index,
        total_runs=len(points),
        k=k,
        seed=seed,
        fold_hash=plan.folds.content_hash(),
    )
