"""Epoch benchmark: `training.train`'s own epochs, stage by stage, at the
benchmark fold shapes.

It builds a training and a validation `SurvivalDataset` of each shape and
runs `training.train` on them, its patience above its epoch budget, so that
every epoch runs. It times each epoch through the callees `train` looks up,
wrapped for the run with `unittest.mock.patch`, which puts the originals
back however the run ends:

* ``forward_train``: `model_forward` in train mode (batch norm,
  activations and dropout masks), which writes over the previous epoch's
  cache;
* ``cox``: the Cox loss and gradient over the training rows
  (`cox.loss_and_gradient`) plus the Cox loss over the validation rows
  (`cox.neg_log_partial_likelihood`);
* ``backward``: `model_backward` to every parameter;
* ``step``: the L2 penalty (`cox.l2_penalty`) and the optimizer step;
* ``forward_eval``: `model_forward` in eval mode over the validation rows;
* ``val_c_index``: the validation C-index (`concordance_fast`), which
  `train` computes each epoch unless told not to, as cross-validation
  units do;
* ``other``: the rest of the epoch's wall time: the best-snapshot write,
  the learning-rate decay and the epoch record.

An epoch runs from one train-mode forward call to the next, and the last
one to `train`'s return, so the stages and ``other`` add up to its wall
time. Beside them it prints ``mask``, the time `DropoutStream.mask` took to
draw the epoch's dropout masks: a part of ``forward_train``, so not added
to the sum. The shapes are those one fold trains on in a `perfbench`
workload, with the default Adam optimizer, learning rate, L2 penalty, decay
and tanh:

* ``cv-paper``: 1,280 training and 320 validation rows x 20 features, the
  paper-default 5 blocks x 3 dense layers x 64 nodes, dropout 0.2;
* ``grid-cohort``: 10,666 and 2,667 rows x 8 features, 1 x 2 x 16,
  dropout 0.1;
* ``compare-wide``: 640 and 160 rows x 120 features, 2 x 2 x 32,
  dropout 0.2.

It prints the median milliseconds per stage and per epoch, the minor page
faults per timed epoch (``ru_minflt``), the peak MB that tracemalloc
traces over a further short run, inputs included, and the dtype of the
network the train-mode `model_forward` received (the precision the model
stages ran in), with the usable cores and OpenBLAS's thread count. The
features are standard normal; the survival times are drawn with ties and
30% censoring:

    PYTHONPATH=src python benchmarks/bench_epoch.py
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python benchmarks/bench_epoch.py --shapes cv-paper --repeats 40
"""

import argparse
import contextlib
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

from ressurv import cox, model, training
from ressurv.data import SurvivalDataset
from ressurv.training import Hyperparameters

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import blas_threads  # noqa: E402

SHAPES = {
    "cv-paper": dict(n_train=1280, n_val=320, p=20, net=dict(
        n_blocks=5, dense_layers_per_block=3, nodes=64, dropout_rate=0.2)),
    "grid-cohort": dict(n_train=10666, n_val=2667, p=8, net=dict(
        n_blocks=1, dense_layers_per_block=2, nodes=16, dropout_rate=0.1)),
    "compare-wide": dict(n_train=640, n_val=160, p=120, net=dict(
        n_blocks=2, dense_layers_per_block=2, nodes=32, dropout_rate=0.2)),
}
STAGES = ("forward_train", "cox", "backward", "step", "forward_eval", "val_c_index",
          "other")
# timed parts of a stage, which the stages' sum leaves out
PARTS = ("mask",)
# (module, attribute, stage) of each callee `train` looks up, beside the
# optimizer step in `training._STEP_FUNCTIONS`, and of the dropout masks
# model_forward draws; model_forward's stage follows its mode
WRAPPED = (
    (training, "model_forward", None),
    (training, "model_backward", "backward"),
    (cox, "loss_and_gradient", "cox"),
    (cox, "neg_log_partial_likelihood", "cox"),
    (cox, "l2_penalty", "step"),
    (training, "concordance_fast", "val_c_index"),
    (model.DropoutStream, "mask", "mask"),
)
WARMUP_EPOCHS = 3
TRACED_EPOCHS = 3


def survival(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n survival times on a coarse grid, so that many tie, with about 30%
    censored and at least one event."""
    times = np.round(rng.exponential(5.0, size=n), 1) + 0.1
    events = rng.random(n) >= 0.3
    events[0] = True
    return times, events


def datasets(shape: dict, seed: int) -> tuple[SurvivalDataset, SurvivalDataset]:
    """The (training, validation) datasets of `shape`."""
    rng = np.random.default_rng(seed)
    features = [rng.normal(size=(shape[n], shape["p"])) for n in ("n_train", "n_val")]
    names = [f"g{j}" for j in range(shape["p"])]
    return tuple(SurvivalDataset([f"s{i}" for i in range(len(X))], X, names,
                                 *survival(rng, len(X)))
                 for X in features)


class EpochClock:
    """Per epoch of the `train` run it wraps: the seconds of each stage and
    part, and the minor page faults and the clock at its start (each with
    one more entry, at the run's end); once `close`d, its wall seconds too.
    `dtype` names the dtype of the network the train-mode passes received."""

    def __init__(self):
        self.dtype = None
        self.epochs: list[dict[str, float]] = []
        self.starts: list[float] = []
        self.faults: list[int] = []
        self.walls: list[float] = []

    def mark(self) -> None:
        """An epoch boundary: the run's end, or with a new epoch its start."""
        self.faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        self.starts.append(time.perf_counter())

    def timed(self, stage: str, fn):
        def timed_call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.epochs[-1][stage] += time.perf_counter() - t0
        return timed_call

    def forward(self, fn):
        train_pass = self.timed("forward_train", fn)
        eval_pass = self.timed("forward_eval", fn)

        def forward_call(X, params, mode="eval", **kwargs):
            if mode != "train":
                return eval_pass(X, params, mode, **kwargs)
            self.mark()
            self.dtype = params.flat.dtype.name
            self.epochs.append(dict.fromkeys(STAGES + PARTS, 0.0))
            return train_pass(X, params, mode, **kwargs)
        return forward_call

    def patches(self, optimizer_kind: str) -> list:
        """The patches that wrap `WRAPPED` and the `optimizer_kind` step."""
        step = training._STEP_FUNCTIONS[optimizer_kind]
        patches = [mock.patch.dict(training._STEP_FUNCTIONS,
                                   {optimizer_kind: self.timed("step", step)})]
        for module, name, stage in WRAPPED:
            fn = getattr(module, name)
            wrapper = self.forward(fn) if stage is None else self.timed(stage, fn)
            patches.append(mock.patch.object(module, name, wrapper))
        return patches

    def close(self) -> None:
        """End the run: each epoch's wall time, and its ``other`` the share
        of it that no stage timed."""
        self.mark()
        self.walls = [end - start for start, end in zip(self.starts, self.starts[1:])]
        for epoch, wall in zip(self.epochs, self.walls):
            epoch["other"] = wall - sum(epoch[stage] for stage in STAGES)


def run_train(shape: dict, epochs: int, seed: int = 0) -> EpochClock:
    """The clock of one `train` run of `epochs` epochs on `shape`."""
    train_ds, val_ds = datasets(shape, seed)
    hp = Hyperparameters(**shape["net"], max_epochs=epochs, patience=epochs + 1, seed=seed)
    clock = EpochClock()
    with contextlib.ExitStack() as patched:
        for patch in clock.patches(hp.optimizer_kind):
            patched.enter_context(patch)
        training.train(train_ds, val_ds, hp)
        clock.close()
    return clock


def time_epochs(shape: dict,
                repeats: int) -> tuple[dict[str, list[float]], list[float], float, str]:
    """Seconds per stage and part and wall seconds of `repeats` epochs, after
    a few untimed ones, the minor page faults per timed epoch, and the dtype
    the layers computed in."""
    clock = run_train(shape, WARMUP_EPOCHS + repeats)
    timed = clock.epochs[WARMUP_EPOCHS:]
    times = {stage: [epoch[stage] for epoch in timed] for stage in STAGES + PARTS}
    faults = clock.faults[-1] - clock.faults[WARMUP_EPOCHS]
    return times, clock.walls[WARMUP_EPOCHS:], faults / repeats, clock.dtype


def traced_peak_mb(shape: dict) -> float:
    """Peak MB that tracemalloc traces over a few epochs, inputs included."""
    tracemalloc.start()
    try:
        run_train(shape, TRACED_EPOCHS)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shapes", nargs="+", choices=sorted(SHAPES), default=list(SHAPES))
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()

    print(f"usable cores {len(os.sched_getaffinity(0))}, OpenBLAS threads {blas_threads()}, "
          f"numpy {np.__version__}; median ms over {args.repeats} epochs")
    print(f"{'shape':<12} " + " ".join(f"{s:>13}" for s in STAGES + PARTS)
          + f" {'epoch':>9} {'minflt/epoch':>13} {'peak MB':>8} {'dtype':>8}")
    for name in args.shapes:
        times, walls, faults, dtype = time_epochs(SHAPES[name], args.repeats)
        cells = ([statistics.median(times[s]) for s in STAGES + PARTS]
                 + [statistics.median(walls)])
        print(f"{name:<12} " + " ".join(f"{c * 1e3:>13.2f}" for c in cells[:-1])
              + f" {cells[-1] * 1e3:>9.2f} {faults:>13.0f} "
              f"{traced_peak_mb(SHAPES[name]):>8.1f} {dtype:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
