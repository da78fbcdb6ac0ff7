"""Epoch benchmark: the network's layer kernels at the benchmark fold shapes.

One epoch here is what `train` runs per epoch minus the L2 penalty and the
optimizer step: a train-mode forward pass (batch norm, activations and
dropout masks) that writes over the previous epoch's cache, the Cox loss and
its gradient over the training rows plus the Cox loss over the validation
rows (``cox``), the backward pass to every parameter, an eval-mode forward
pass over the validation rows, and the validation C-index
(``val_c_index``, which `train` computes each epoch unless told not to, as
cross-validation units do), at the shape one fold trains on in a
`perfbench` workload:

* ``cv-paper``: 1,280 training and 320 validation rows x 20 features, the
  paper-default 5 blocks x 3 dense layers x 64 nodes, tanh, dropout 0.2;
* ``grid-cohort``: 10,666 and 2,667 rows x 8 features, 1 x 2 x 16, tanh,
  dropout 0.1;
* ``compare-wide``: 640 and 160 rows x 120 features, 2 x 2 x 32, tanh,
  dropout 0.2.

It prints the median milliseconds per stage and per epoch, the minor page
faults per timed epoch (``ru_minflt``), and the peak MB that tracemalloc
traces over a few further, untimed epochs, with the usable cores and
OpenBLAS's thread count. The survival times are drawn with ties and 30%
censoring. It uses only the public API, so the same script times any
checkout's ``src`` (one whose ``model_forward`` takes no ``cache``
allocates a new cache every epoch; one without ``cox.loss_and_gradient``
makes the two separate calls it fuses):

    PYTHONPATH=src python benchmarks/bench_epoch.py
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=/path/to/other/src \\
        python benchmarks/bench_epoch.py --shapes cv-paper --repeats 40
"""

import argparse
import inspect
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from ressurv import cox
from ressurv.metrics import concordance_fast
from ressurv.model import DropoutStream, init_params, model_backward, model_forward

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import blas_threads  # noqa: E402

SHAPES = {
    "cv-paper": dict(n_train=1280, n_val=320, p=20, widths=[64] * 5, layers=3,
                     activation="tanh", dropout=0.2),
    "grid-cohort": dict(n_train=10666, n_val=2667, p=8, widths=[16], layers=2,
                        activation="tanh", dropout=0.1),
    "compare-wide": dict(n_train=640, n_val=160, p=120, widths=[32] * 2, layers=2,
                         activation="tanh", dropout=0.2),
}
STAGES = ("forward_train", "cox", "backward", "forward_eval", "val_c_index")
WARMUP_EPOCHS = 3
TRACED_EPOCHS = 3
REUSES_CACHE = "cache" in inspect.signature(model_forward).parameters


def _separate_loss_and_gradient(h, index):
    return cox.neg_log_partial_likelihood(h, index), cox.nll_gradient(h, index)


LOSS_AND_GRADIENT = getattr(cox, "loss_and_gradient", _separate_loss_and_gradient)


def survival(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n survival times on a coarse grid, so that many tie, with about 30%
    censored and at least one event."""
    times = np.round(rng.exponential(5.0, size=n), 1) + 0.1
    events = rng.random(n) >= 0.3
    events[0] = True
    return times, events


def run_epochs(shape: dict, epochs: int, seed: int = 0):
    """Yield after each of `epochs` epochs its seconds per stage, in the
    order of STAGES."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(shape["n_train"], shape["p"]))
    X_val = rng.normal(size=(shape["n_val"], shape["p"]))
    index = cox.build_risk_index(*survival(rng, shape["n_train"]))
    val_times, val_events = survival(rng, shape["n_val"])
    val_index = cox.build_risk_index(val_times, val_events)
    params = init_params(shape["p"], shape["widths"], shape["layers"], shape["activation"],
                         shape["dropout"], seed)
    stream = DropoutStream(seed)
    cache = None
    for epoch in range(1, epochs + 1):
        reuse = {"cache": cache} if REUSES_CACHE else {}
        t0 = time.perf_counter()
        h, cache = model_forward(X, params, mode="train", stream=stream, epoch=epoch, **reuse)
        t1 = time.perf_counter()
        _, grad_h = LOSS_AND_GRADIENT(h, index)
        t2 = time.perf_counter()
        model_backward(grad_h, params, cache)
        t3 = time.perf_counter()
        h_val, _ = model_forward(X_val, params, mode="eval")
        t4 = time.perf_counter()
        cox.neg_log_partial_likelihood(h_val, val_index)
        t5 = time.perf_counter()
        concordance_fast(val_times, val_events, h_val)
        t6 = time.perf_counter()
        yield t1 - t0, (t2 - t1) + (t5 - t4), t3 - t2, t4 - t3, t6 - t5


def time_epochs(shape: dict, repeats: int) -> tuple[dict[str, list[float]], float]:
    """Seconds per stage of `repeats` epochs, after a few untimed ones, and
    the minor page faults per timed epoch."""
    times = {stage: [] for stage in STAGES}
    for epoch, seconds in enumerate(run_epochs(shape, WARMUP_EPOCHS + repeats), start=1):
        if epoch == WARMUP_EPOCHS:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        elif epoch > WARMUP_EPOCHS:
            for stage, s in zip(STAGES, seconds):
                times[stage].append(s)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return times, faults / repeats


def traced_peak_mb(shape: dict) -> float:
    """Peak MB that tracemalloc traces over a few epochs, inputs included."""
    tracemalloc.start()
    try:
        for _ in run_epochs(shape, TRACED_EPOCHS):
            pass
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
    print(f"{'shape':<12} " + " ".join(f"{s:>14}" for s in STAGES)
          + f" {'epoch':>10} {'minflt/epoch':>13} {'peak MB':>8}")
    for name in args.shapes:
        times, faults = time_epochs(SHAPES[name], args.repeats)
        epochs = [sum(parts) for parts in zip(*times.values())]
        cells = [statistics.median(times[s]) for s in STAGES] + [statistics.median(epochs)]
        print(f"{name:<12} " + " ".join(f"{c * 1e3:>14.2f}" for c in cells[:-1])
              + f" {cells[-1] * 1e3:>10.2f} {faults:>13.0f} "
              f"{traced_peak_mb(SHAPES[name]):>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
