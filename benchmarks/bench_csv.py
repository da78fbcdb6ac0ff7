"""CSV benchmark: `write_csv` and `load_csv` at the benchmark input shapes.

Each shape is a synth (`deep` hazard, 30% censoring) that `write_csv` writes
to a temporary directory, as `ressurv synth` does:

* ``cv-paper``: 2,000 rows x 20 features;
* ``grid-cohort``: 20,000 x 8;
* ``compare-wide``: 1,000 x 120;
* ``genomics``: 500 x 5,000, a TCGA-shaped expression table.

It checks once that `load_csv` reads back the written dataset bit for bit,
then prints per shape the median milliseconds of each call over
``--repeats`` calls, the peak MB that tracemalloc traces during one further
call of each, and the feature matrix's MB. It uses only the public data
API, so the same script times any checkout's ``src``:

    PYTHONPATH=src python benchmarks/bench_csv.py
    PYTHONPATH=/path/to/other/src python benchmarks/bench_csv.py \\
        --shapes genomics --repeats 3
"""

import argparse
import os
import statistics
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from ressurv.data import SyntheticSpec, generate_synthetic, load_csv, write_csv

SHAPES = {
    "cv-paper": (2000, 20),
    "grid-cohort": (20000, 8),
    "compare-wide": (1000, 120),
    "genomics": (500, 5000),
}
CALLS = ("write_csv", "load_csv")


def synth(n: int, p: int):
    ds, _ = generate_synthetic(SyntheticSpec(n=n, p=p, hazard_kind="deep",
                                             target_censor_rate=0.3, seed=0))
    return ds


def traced_peak_mb(call) -> float:
    """Peak MB that tracemalloc traces during `call()`."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def measure(ds, path, repeats: int) -> dict[str, tuple[float, float]]:
    """(median ms over `repeats` calls, traced peak MB of one more) of
    writing `ds` to `path` and of loading it back."""
    calls = {"write_csv": lambda: write_csv(ds, path), "load_csv": lambda: load_csv(path)}
    calls["write_csv"]()
    back = load_csv(path)
    for name in ("sample_ids", "feature_names", "times", "events", "features"):
        if not np.array_equal(getattr(back, name), getattr(ds, name)):
            raise AssertionError(f"load_csv read back other {name} than write_csv wrote")
    del back
    out = {}
    for name, call in calls.items():
        seconds = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            call()
            seconds.append(time.perf_counter() - t0)
        out[name] = (statistics.median(seconds) * 1e3, traced_peak_mb(call))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shapes", nargs="+", choices=list(SHAPES), default=list(SHAPES))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    print(f"usable cores {len(os.sched_getaffinity(0))}, numpy {np.__version__}; "
          f"median ms over {args.repeats} calls, traced peak MB of one")
    print(f"{'shape':<13} {'n x p':>12} {'matrix MB':>10} "
          + " ".join(f"{c + ' ms':>13} {c + ' MB':>13}" for c in CALLS))
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.shapes:
            n, p = SHAPES[name]
            ds = synth(n, p)
            cells = measure(ds, os.path.join(tmp, f"{name}.csv"), args.repeats)
            print(f"{name:<13} {f'{n} x {p}':>12} {ds.features.nbytes / 1e6:>10.1f} "
                  + " ".join(f"{cells[c][0]:>13.1f} {cells[c][1]:>13.1f}" for c in CALLS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
