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
call of each, and the feature matrix's MB. Last comes the growth of VmHWM
(the peak resident set) over one `load_csv` call in a fresh process that
has imported what a command imports (`ressurv.cli`): memory that
tracemalloc cannot see, such as freed heap that stays resident and
Python's own allocator's arenas. It uses only the public data API and the
CLI module, and the fresh process imports the same package, so the same
script times any checkout's ``src``:

    PYTHONPATH=src python benchmarks/bench_csv.py
    PYTHONPATH=/path/to/other/src python benchmarks/bench_csv.py \\
        --shapes genomics --repeats 3
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

import ressurv
from ressurv.data import SyntheticSpec, generate_synthetic, load_csv, write_csv

SHAPES = {
    "cv-paper": (2000, 20),
    "grid-cohort": (20000, 8),
    "compare-wide": (1000, 120),
    "genomics": (500, 5000),
}
CALLS = ("write_csv", "load_csv")

# `python -c FRESH_LOAD data.csv`: the growth of the process's VmHWM (kB)
# over one `load_csv` call, after the imports a command makes
FRESH_LOAD = """
import sys
import ressurv.cli
from ressurv.data import load_csv
def vm_hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
before = vm_hwm()
load_csv(sys.argv[1])
print(vm_hwm() - before)
"""


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


def fresh_load_mb(path) -> float:
    """VmHWM growth (MB) of a fresh process over one `load_csv` of `path`,
    with the package this script imported."""
    package_root = os.path.dirname(os.path.dirname(ressurv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", FRESH_LOAD, str(path)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return int(out) * 1024 / 1e6


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
          f"median ms over {args.repeats} calls, traced peak MB of one, "
          "VmHWM growth MB of a fresh process's load")
    print(f"{'shape':<13} {'n x p':>12} {'matrix MB':>10} "
          + " ".join(f"{c + ' ms':>13} {c + ' MB':>13}" for c in CALLS)
          + f" {'fresh load HWM MB':>18}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.shapes:
            n, p = SHAPES[name]
            ds = synth(n, p)
            path = os.path.join(tmp, f"{name}.csv")
            cells = measure(ds, path, args.repeats)
            print(f"{name:<13} {f'{n} x {p}':>12} {ds.features.nbytes / 1e6:>10.1f} "
                  + " ".join(f"{cells[c][0]:>13.1f} {cells[c][1]:>13.1f}" for c in CALLS)
                  + f" {fresh_load_mb(path):>18.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
