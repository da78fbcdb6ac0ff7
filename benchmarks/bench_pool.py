"""Pool-size benchmark: `cv --k K` at one worker per usable core against the
default pool size, or against ``--against N`` workers.

It makes the ``cv-paper`` workload's input with ``perfbench/run.py``'s own
setup (2,000 rows x 20 features, the paper-default net, 15 epochs; the
flags shrink it), then runs the CLI of this checkout as whole processes in
alternating pairs: one run with ``--workers <usable cores>`` and one
without ``--workers`` (with ``--workers N`` under ``--against N``), the
first of each pair alternating between the two. Wall time is taken around
each process, CPU seconds from ``wait4`` (the process and the workers it
waited for). Memory is read from /proc every 50 ms, summed over the
command and its workers: PSS (a page that n processes share counts 1/n in
each, so the pages the workers share with the command after the fork count
once) and RSS (every process counts every page it maps); a run's figure is
the largest sum seen. Per side it prints the pool size `meta.json`
records, the median and quartiles of wall time, and the medians of CPU
seconds, of the spread of `worker_end_s` (the last minus the first
worker's end) and of the peak summed PSS and RSS; then the pairs the
second side won, and whether every run wrote the same record and summary
bytes. It exits 1 if the bytes differ.

With ``--unit-memory`` it measures the memory of fold units on the same
input instead, in two fresh processes: the peak MB that tracemalloc traces
while one `fold_unit` (fold 0, the plan made before tracing) runs, and a
`cv --workers 2` run, for which it prints the command process's RSS when
it forks its workers (which every worker starts with), the largest
worker's ``ru_maxrss`` and the command's own:

    python benchmarks/bench_pool.py
    python benchmarks/bench_pool.py --k 7 --against 7 --pairs 4 --seed 3
    python benchmarks/bench_pool.py --unit-memory --n 500 --p 5000
"""

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import ROOT, WORKLOADS, Tally, child_env, cli_args, setup  # noqa: E402

REPORTS = ("folds.jsonl", "summary.json")
SAMPLE_S = 0.05
MB = 1e6
UNIT_MEMORY_WORKERS = 2

# `python -c UNIT_PEAK data.csv hp.json k seed`: the traced peak MB of fold
# 0's unit, its plan made before tracing starts
UNIT_PEAK = """
import json, sys, tracemalloc
from ressurv.data import load_csv
from ressurv.training import Hyperparameters, fold_unit, plan_folds
data, hp, k, seed = sys.argv[1:]
plan = plan_folds(load_csv(data), int(k), int(seed))
with open(hp) as fh:
    hp = Hyperparameters.from_dict(json.load(fh))
tracemalloc.start()
fold_unit(plan, hp, True, 0)
print(tracemalloc.get_traced_memory()[1] / 1e6)
"""

# `python -c FORK_PROBE out.json <cli args>`: the CLI command, writing to
# out.json the command process's VmRSS (kB) before each fork, and at its
# end the largest ru_maxrss (kB) of the workers it waited for and its own
FORK_PROBE = """
import json, os, resource, sys
from ressurv.cli import main
def vm_rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))
at_fork = []
os.register_at_fork(before=lambda: at_fork.append(vm_rss()))
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"at_fork": at_fork,
               "workers": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
               "command": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, fh)
sys.exit(code)
"""


def _kb(path: str, field: str) -> int:
    """A `<field> <n> kB` line of a /proc file; 0 if the line is missing (a
    process that has exited but is not yet reaped has none)."""
    for line in Path(path).read_text().splitlines():
        if line.startswith(field):
            return int(line.split()[1])
    return 0


def tree_memory_kb(root: int) -> tuple[int, int]:
    """Summed PSS and RSS, in kB, of process `root` and its descendants."""
    parent = {}
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                stat = Path("/proc", entry.name, "stat").read_text()
            except OSError:
                continue
            parent[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree = [root]
    for pid in tree:   # grows while it is walked: breadth first
        tree += [child for child, up in parent.items() if up == pid]
    pss = rss = 0
    for pid in tree:
        try:
            one = _kb(f"/proc/{pid}/smaps_rollup", "Pss:"), _kb(f"/proc/{pid}/status", "VmRSS:")
        except OSError:   # exited since the scan
            continue
        pss, rss = pss + one[0], rss + one[1]
    return pss, rss


def run_cv(w, seed: int, work: Path, out: Path, workers: int | None) -> dict:
    """One `cv` process: its wall and CPU seconds, the peak summed memory of
    it and its workers, its meta.json figures and its report bytes."""
    args = cli_args(w, seed, work, out, 0)
    if workers is not None:
        args += ["--workers", str(workers)]
    log, peak = out.with_suffix(".log"), [0, 0]
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ressurv.cli", *args], cwd=ROOT,
                                env=child_env(), stdin=subprocess.DEVNULL, stdout=fh,
                                stderr=subprocess.STDOUT)
        done = threading.Event()

        def sample():
            while not done.wait(SAMPLE_S):
                peak[:] = map(max, peak, tree_memory_kb(proc.pid))

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            done.set()
            sampler.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"cv exited {proc.returncode}; see {log}")
    meta = json.loads((out / "meta.json").read_text())
    ends = meta["worker_end_s"] or [0.0]
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime, "workers": meta["workers"],
            "blas": meta["worker_openblas_num_threads"], "end_spread": max(ends) - min(ends),
            "pss_mb": peak[0] / 1024, "rss_mb": peak[1] / 1024,
            "reports": [(out / name).read_bytes() for name in REPORTS]}


def unit_memory(w, seed: int, work: Path) -> None:
    """Print one fold unit's traced peak and a pooled `cv` run's RSS at the
    fork and peak RSS on the input in `work`."""
    data, hp = work / "data.csv", work / "hp.json"
    peak = subprocess.run([sys.executable, "-c", UNIT_PEAK, str(data), str(hp), str(w.k),
                           str(seed)], cwd=ROOT, env=child_env(), check=True,
                          capture_output=True, text=True).stdout
    probe, out = work / "fork.json", work / "out"
    args = cli_args(w, seed, work, out, 0) + ["--workers", str(UNIT_MEMORY_WORKERS)]
    subprocess.run([sys.executable, "-c", FORK_PROBE, str(probe), *args], cwd=ROOT,
                   env=child_env(), check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL)
    rss = json.loads(probe.read_text())
    print(f"cv --k {w.k} on {w.n} x {w.p}, {w.epochs} epochs, seed {seed}")
    print(f"one fold unit, traced in-process: peak {float(peak):.2f} MB")
    print(f"cv --workers {UNIT_MEMORY_WORKERS}: command RSS at the fork "
          f"{max(rss['at_fork']) * 1024 / MB:.2f} MB, largest worker ru_maxrss "
          f"{rss['workers'] * 1024 / MB:.2f} MB, command ru_maxrss "
          f"{rss['command'] * 1024 / MB:.2f} MB")


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv: list[str] | None = None) -> int:
    paper = WORKLOADS["cv-paper"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=paper.n)
    parser.add_argument("--p", type=int, default=paper.p)
    parser.add_argument("--k", type=int, default=paper.k)
    parser.add_argument("--epochs", type=int, default=paper.epochs)
    parser.add_argument("--against", type=int, help="workers of the second side "
                        "(default: no --workers, the default pool)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--unit-memory", action="store_true",
                        help="measure fold units' memory instead of timing pool sizes")
    args = parser.parse_args(argv)
    w = dataclasses.replace(paper, n=args.n, p=args.p, k=args.k, epochs=args.epochs,
                            coefficients=paper.coefficients[:args.p])
    if args.unit_memory:
        with tempfile.TemporaryDirectory() as tmp:
            setup(w, args.seed, Path(tmp), 1, Tally())
            unit_memory(w, args.seed, Path(tmp))
        return 0

    cores = len(os.sched_getaffinity(0))
    second = "default" if args.against is None else f"--workers {args.against}"
    sides = {f"--workers {cores}": cores, second: args.against}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        setup(w, args.seed, work, 1, Tally())
        for i in range(args.pairs):
            for side in list(sides)[::1 if i % 2 == 0 else -1]:
                out = work / f"{i}-{sides[side]}"
                runs[side].append(run_cv(w, args.seed, work, out, sides[side]))

    print(f"cv --k {w.k} on {w.n} x {w.p}, {w.epochs} epochs, seed {args.seed}; usable "
          f"cores {cores}, units' OpenBLAS threads {runs[second][0]['blas']}; "
          f"{args.pairs} alternating pairs")
    print(f"{'side':<12} {'workers':>7} {'wall s p50':>10} {'[q1':>7} {'q3]':>7} "
          f"{'cpu s p50':>9} {'end spread s':>12} {'PSS MB':>7} {'RSS MB':>7}")
    for side, rs in runs.items():
        walls = [r["wall"] for r in rs]
        q1, q3 = quartiles(walls)
        print(f"{side:<12} {rs[0]['workers']:>7} {statistics.median(walls):>10.3f} "
              f"{q1:>7.3f} {q3:>7.3f} {statistics.median(r['cpu'] for r in rs):>9.2f} "
              f"{statistics.median(r['end_spread'] for r in rs):>12.3f} "
              f"{statistics.median(r['pss_mb'] for r in rs):>7.1f} "
              f"{statistics.median(r['rss_mb'] for r in rs):>7.1f}")
    base, other = runs.values()
    wins = sum(o["wall"] < b["wall"] for b, o in zip(base, other))
    same = all(r["reports"] == base[0]["reports"] for rs in runs.values() for r in rs)
    print(f"{second} faster in {wins}/{args.pairs} pairs; report bytes "
          f"{'identical' if same else 'DIFFER'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
