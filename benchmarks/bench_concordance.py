"""Concordance benchmark: the O(n log^2 n) sweep against the pairwise scan.

Times `concordance_fast` and, up to PAIRWISE_CAP samples, the normative
`concordance_index`, asserting identical counts before reporting.

Usage:
    PYTHONPATH=src python benchmarks/bench_concordance.py
    PYTHONPATH=src python benchmarks/bench_concordance.py --sizes 1000 10000 --repeats 5
"""

import argparse
import sys
import time

import numpy as np

from ressurv.metrics import concordance_fast, concordance_index

# pairwise is O(n^2); above this it stops being a benchmark and starts
# being a space heater
PAIRWISE_CAP = 20_000


def make_case(n: int, seed: int):
    rng = np.random.default_rng(seed)
    times = np.round(rng.exponential(scale=10.0, size=n), 1) + 0.1  # heavy ties
    events = rng.random(n) < 0.7
    if not events.any():
        events[0] = True
    scores = rng.normal(size=n)
    scores[rng.random(n) < 0.1] = 0.0  # tied scores
    return times, events, scores


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def fmt(seconds):
    return f"{seconds * 1e3:9.2f} ms" if seconds is not None else "        --"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[1_000, 5_000, 20_000, 100_000])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    print(f"{'n':>9}  {'sweep':>12}  {'pairwise':>12}")
    for n in args.sizes:
        case = make_case(n, seed=n)
        fast = concordance_fast(*case)
        pairwise_s = None
        if n <= PAIRWISE_CAP:
            slow = concordance_index(*case)
            assert (slow.concordant, slow.discordant, slow.tied_score) == \
                (fast.concordant, fast.discordant, fast.tied_score), f"count mismatch at n={n}"
            pairwise_s = best_of(lambda: concordance_index(*case), args.repeats)
        sweep_s = best_of(lambda: concordance_fast(*case), args.repeats)
        print(f"{n:>9}  {fmt(sweep_s)}  {fmt(pairwise_s)}")
    print(f"\ncounts verified identical up to n={PAIRWISE_CAP}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
