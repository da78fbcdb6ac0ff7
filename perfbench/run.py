"""The ressurv benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cv-paper --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is used from ``src/`` exactly as
the tests use it: each command runs as ``python -m ressurv.cli`` with
``PYTHONPATH=src`` under the caller's environment (BLAS threading is left as
users get it; ``RESSURV_*`` variables are dropped so that only the generated
files drive the program). One command runs at a time.

Workloads (each pins ``patience`` above ``max_epochs``, so every fit runs a
fixed number of epochs and ``wall_s`` times fixed work):

* ``cv-paper``: ``cv --k 5``, 15 epochs, with the paper-default net (5
  blocks x 3 dense x 64, tanh, Adam, dropout 0.2) on 2,000 rows x 20
  features. The model layer does nearly all the work.
* ``grid-cohort``: ``gridsearch --workers 2 --k 3``, 5 epochs, over 4 points
  (learning rate x dropout) with a 1 x 2 x 16 net on 20,000 rows x 8
  features. Validation concordance over thousands of rows and the worker
  pool dominate.
* ``compare-wide``: ``compare --k 5``, 30 epochs, with a 2 x 2 x 32 net on
  1,000 rows x 120 features, 5 of them informative. The Newton oracle's
  (n, p, p) tensors dominate time and peak memory.

Every input comes from ``--seed``: the dataset (a linear Weibull model with
30% censoring), the fold split and the hyperparameter seed.

``--trace 0`` runs the command repeatedly for ``--seconds`` (at least three
times) and reports medians of the end-to-end metrics. ``--trace 1`` runs it
once untraced and once under `tracer.py` and reports the per-layer metrics
(busy seconds summed over threads); on ``grid-cohort`` it also runs
``--workers 1`` for ``training.speedup_2w``.

Every command's outputs are checked; a miss counts as a failed operation
(operations are commands, folds and grid points):

* the exit code is 0 and every synth run writes the same CSV;
* ``epochs_run`` in the records equals the pinned epoch count;
* no grid point failed, and every Newton fit converged;
* the held-out C-index lies within ``C_INDEX_TOLERANCE`` of the C-index of
  the true risk scores, and the linear-Cox C-index within
  ``ORACLE_TOLERANCE``;
* records and ``summary.json`` are byte-identical across every run of the
  same inputs, including ``--workers 1`` against ``--workers 2``.

``oracle_c_index`` is the linear-Cox Newton fit's mean held-out C-index on
the workload's folds. ``compare`` reports it itself; on the other two
workloads the benchmark fits it after the timed commands, with the package's
own fold preparation, and the ``cox.newton_*`` per-layer figures time that
fit.

The last line of standard output is the result as one JSON object, whose
``failed`` over ``attempted`` is the failed share; the lines before it list
every metric with its unit, the failed checks and the environment (cores,
BLAS and its threads, kernel backend, versions, commit, seed).
"""

from __future__ import annotations

import argparse
import bisect
import csv
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
MIN_REPEATS = 3
C_INDEX_TOLERANCE = 0.10   # the net's held-out C-index vs the true scores'
ORACLE_TOLERANCE = 0.05    # the linear-Cox C-index vs the true scores'
MB = 1e6


@dataclass(frozen=True)
class Workload:
    command: str
    n: int
    p: int
    coefficients: tuple[float, ...]   # leading true coefficients; the rest are 0
    k: int
    epochs: int
    net: dict
    records: str
    workers: int = 1
    sweep: dict | None = None

    def units(self) -> int:
        """Folds or grid points one command evaluates."""
        if self.sweep is not None:
            return len(self.sweep["learning_rate"]) * len(self.sweep["dropout_rate"])
        return 3 * self.k if self.command == "compare" else self.k


WORKLOADS = {
    "cv-paper": Workload(
        command="cv", n=2000, p=20,
        coefficients=(1.0, -0.8, 0.7, -0.6, 0.5, -0.4, 0.3, -0.2, 0.2, -0.1),
        k=5, epochs=15, net={}, records="folds.jsonl"),
    "grid-cohort": Workload(
        command="gridsearch", n=20000, p=8,
        coefficients=(1.0, -0.8, 0.6, -0.4, 0.3, -0.2, 0.1),
        k=3, epochs=5, net={"n_blocks": 1, "dense_layers_per_block": 2, "nodes": 16},
        records="points.jsonl", workers=2,
        sweep={"learning_rate": [3e-2, 1e-2], "dropout_rate": [0.1, 0.3]}),
    "compare-wide": Workload(
        command="compare", n=1000, p=120, coefficients=(1.0, -0.8, 0.6, -0.5, 0.4),
        k=5, epochs=30, net={"n_blocks": 2, "dense_layers_per_block": 2, "nodes": 32},
        records="models.jsonl"),
}


class SetupError(RuntimeError):
    """No result can be reported: the input could not be made or no command
    produced a usable report."""


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def op(self, ok: bool, problem: str, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            print(f"check failed: {problem}")
        return ok


# ---------------------------------------------------------------------------
# Inputs and commands
# ---------------------------------------------------------------------------

def write_inputs(w: Workload, seed: int, work: Path) -> None:
    beta = list(w.coefficients) + [0.0] * (w.p - len(w.coefficients))
    spec = {"n": w.n, "p": w.p, "hazard_kind": "linear", "true_coefficients": beta,
            "target_censor_rate": 0.3, "seed": seed}
    pinned = {**w.net, "max_epochs": w.epochs, "patience": w.epochs + 1}
    (work / "spec.json").write_text(json.dumps(spec))
    if w.sweep is None:
        (work / "hp.json").write_text(json.dumps({**pinned, "seed": seed}))
    else:
        (work / "grid.json").write_text(json.dumps({"sweep": w.sweep, "base": pinned}))


def cli_args(w: Workload, seed: int, work: Path, out: Path, workers: int) -> list[str]:
    args = [w.command, "--data", str(work / "data.csv"), "--k", str(w.k),
            "--seed", str(seed), "--out", str(out)]
    if w.sweep is None:
        return args + ["--hp", str(work / "hp.json")]
    return args + ["--grid", str(work / "grid.json"), "--workers", str(workers)]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RESSURV_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], log: Path) -> Run:
    """Run one process to completion; wall from here, CPU and peak RSS from
    wait4 (the process and the children it waited for)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-5:]
        print(f"exit code {proc.returncode} from {' '.join(argv[:4])}: {' | '.join(tail)}")
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / MB,
               proc.returncode)


def run_cli(args: list[str], log: Path) -> Run:
    return run_child(["-m", "ressurv.cli", *args], log)


def setup(w: Workload, seed: int, work: Path, repeats: int, tally: Tally) -> float:
    """Write the inputs and make the CSV with `ressurv synth`, `repeats`
    times; returns the median synth wall time."""
    write_inputs(w, seed, work)
    walls, digests = [], set()
    for i in range(repeats):
        run = run_cli(["synth", "--spec", str(work / "spec.json"),
                       "--out", str(work / "data.csv")], work / f"synth{i}.log")
        if not tally.op(run.code == 0, f"synth exited with {run.code}"):
            raise SetupError("ressurv synth failed")
        walls.append(run.wall_s)
        digests.add(hashlib.sha256((work / "data.csv").read_bytes()).hexdigest())
    tally.op(len(digests) == 1, "synth wrote different CSVs from one spec")
    return statistics.median(walls)


# ---------------------------------------------------------------------------
# Reference values and output checks
# ---------------------------------------------------------------------------

def harrell_c(times, events, scores) -> float:
    """Harrell's C-index (pairs with T_i < T_j and E_i = 1; score ties count
    one half), by a descending-time sweep over a sorted list of scores.
    Independent of the package's kernels."""
    order = sorted(range(len(times)), key=lambda i: -times[i])
    later: list[float] = []
    conc = tied = comparable = 0
    start = 0
    while start < len(order):
        end = start
        while end < len(order) and times[order[end]] == times[order[start]]:
            end += 1
        for i in order[start:end]:
            if events[i]:
                lo = bisect.bisect_left(later, scores[i])
                hi = bisect.bisect_right(later, scores[i])
                conc += lo
                tied += hi - lo
                comparable += len(later)
        for i in order[start:end]:
            bisect.insort(later, scores[i])
        start = end
    return (conc + 0.5 * tied) / comparable


def truth_c_index(work: Path) -> float:
    """C-index of the generating risk scores over the whole dataset."""
    truth = json.loads((work / "data.csv.truth.json").read_text())
    score = dict(zip(truth["sample_ids"], truth["true_scores"]))
    times, events, scores = [], [], []
    with open(work / "data.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            times.append(float(row["time"]))
            events.append(row["event"] == "1")
            scores.append(score[row["sample_id"]])
    return harrell_c(times, events, scores)


def linear_cox_oracle(w: Workload, seed: int, work: Path, truth_c: float,
                      tally: Tally) -> tuple[float, dict]:
    """Newton linear-Cox fit per fold with the package's own fold
    preparation (as `compare` does it), checked for convergence and against
    the true scores; mean held-out C-index and the cox.newton_* figures."""
    from ressurv import cox, data

    ds, _ = data.filter_patients(data.load_csv(work / "data.csv"))
    canon = ds.sorted_by_id()
    folds = data.kfold_split(canon, w.k, seed)
    values, fit_s, iters, tensor_bytes, converged = [], 0.0, 0, 0, True
    for f in range(folds.k):
        train, retained = data.filter_features(canon.subset(folds.train_indices(f)))
        test = canon.subset(folds.test_indices(f)).select_features(retained)
        std = data.standardize_fit(train)
        train, test = data.standardize_apply(train, std), data.standardize_apply(test, std)
        t0 = time.perf_counter()
        fit = cox.fit_linear_cox_newton(train)
        fit_s += time.perf_counter() - t0
        iters += fit.iterations
        tensor_bytes = max(tensor_bytes, train.n * train.p * train.p * 8)
        converged &= fit.converged
        values.append(harrell_c(test.times.tolist(), test.events.tolist(),
                                (test.features @ fit.beta).tolist()))
    oracle = statistics.fmean(values)
    tally.op(converged, "the oracle's Newton fit did not converge")
    tally.op(abs(oracle - truth_c) <= ORACLE_TOLERANCE,
             f"linear-Cox C-index {oracle:.4f} vs true scores' {truth_c:.4f}")
    return oracle, {"cox.newton_s": fit_s, "cox.newton_iters": iters,
                    "cox.newton_tensor_mb": tensor_bytes / MB}


def check_command(w: Workload, run: Run, out: Path, truth_c: float,
                  reference: dict[str, bytes], tally: Tally) -> dict | None:
    """Check one command's outputs against the pinned work, the true scores
    and the first run's report bytes; returns its summary when it ran."""
    if run.code != 0:
        tally.op(False, f"{w.command} exited with {run.code}", 1 + w.units())
        return None
    try:
        records = [json.loads(line) for line in (out / w.records).read_text().splitlines()]
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as err:
        tally.op(False, f"unreadable report: {err}", 1 + w.units())
        return None
    problems = []
    if len(records) != w.units():
        problems.append(f"{len(records)} records, expected {w.units()}")
    for rec in records:
        if rec.get("model") == "linear_cox":
            ok = rec["newton_converged"] is True
            tally.op(ok, f"Newton did not converge on fold {rec['fold']}")
        elif w.sweep is not None:
            tally.op(rec["failed"] is False, f"grid point {rec['index']} failed: {rec['error']}")
        else:
            tally.op(rec["epochs_run"] == w.epochs,
                     f"fold {rec['fold']} ran {rec['epochs_run']} epochs, pinned {w.epochs}")
    c_index, oracle = report_c_indexes(w, summary)
    if not abs(c_index - truth_c) <= C_INDEX_TOLERANCE:
        problems.append(f"C-index {c_index:.4f} vs true scores' {truth_c:.4f}")
    if oracle is not None and not abs(oracle - truth_c) <= ORACLE_TOLERANCE:
        problems.append(f"linear-Cox C-index {oracle:.4f} vs true scores' {truth_c:.4f}")
    for name in (w.records, "summary.json"):
        data = (out / name).read_bytes()
        if reference.setdefault(name, data) != data:
            problems.append(f"{name} differs from the first run's")
    tally.op(not problems, "; ".join(problems))
    return summary


def report_c_indexes(w: Workload, summary: dict) -> tuple[float, float | None]:
    """(the residual net's mean held-out C-index, the linear-Cox one if the
    command fits it)."""
    if w.command == "cv":
        return summary["mean_c_index"], None
    if w.command == "gridsearch":
        return summary["best_mean_c_index"], None
    models = summary["models"]
    return models["ressurv"]["mean_c_index"], models["linear_cox"]["mean_c_index"]


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def blas_threads() -> int | None:
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    from ressurv import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "kernel_backend": _kernels.backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def measure(w: Workload, seed: int, seconds: int, work: Path, tally: Tally) -> dict:
    """Untraced: repeat the command for `seconds`; medians of each metric."""
    setup_s = setup(w, seed, work, SETUP_REPEATS, tally)
    truth_c = truth_c_index(work)
    reference: dict[str, bytes] = {}
    runs, summary = [], None
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_REPEATS or time.perf_counter() < deadline:
        out = work / f"out{len(runs)}"
        run = run_cli(cli_args(w, seed, work, out, w.workers), work / f"{out.name}.log")
        summary = check_command(w, run, out, truth_c, reference, tally) or summary
        runs.append(run)
        shutil.rmtree(out)
    if summary is None:
        raise SetupError(f"every {w.command} run failed")
    c_index, oracle = report_c_indexes(w, summary)
    if oracle is None:
        oracle, _ = linear_cox_oracle(w, seed, work, truth_c, tally)
    ok = [r for r in runs if r.code == 0]
    print(f"{len(runs)} runs; wall_s per run: {' '.join(f'{r.wall_s:.3f}' for r in runs)}")
    print(f"true scores' C-index {truth_c:.4f}")
    return {
        "wall_s": statistics.median(r.wall_s for r in ok),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r.rss_mb for r in ok),
        "c_index": c_index,
        "oracle_c_index": oracle,
    }


def trace(w: Workload, seed: int, work: Path, tally: Tally) -> dict:
    """One untraced and one traced run (plus --workers 1 on a pooled
    workload); per-layer metrics from the traced run's spans."""
    setup(w, seed, work, 1, tally)
    truth_c = truth_c_index(work)
    reference: dict[str, bytes] = {}

    def command(name: str, workers: int, traced: bool) -> Run:
        out = work / name
        args = cli_args(w, seed, work, out, workers)
        if traced:
            args = [str(Path(tracer.__file__)), str(work / "spans.json"), "--", *args]
            run = run_child(args, work / f"{name}.log")
        else:
            run = run_cli(args, work / f"{name}.log")
        if check_command(w, run, out, truth_c, reference, tally) is None:
            raise SetupError(f"{name} run failed")
        return run

    base = command("untraced", w.workers, traced=False)
    traced = command("traced", w.workers, traced=True)
    metrics = tracer.summarize(json.loads((work / "spans.json").read_text()), traced.wall_s)
    metrics["trace.overhead_s"] = traced.wall_s - base.wall_s
    metrics["proc.cpu_per_wall"] = base.cpu_s / base.wall_s
    metrics["training.speedup_2w"] = 1.0   # one fit at a time: no pool to scale
    if w.workers == 2:
        single = command("workers1", 1, traced=False)
        metrics["training.speedup_2w"] = single.wall_s / base.wall_s
    if w.command != "compare":
        metrics.update(linear_cox_oracle(w, seed, work, truth_c, tally)[1])
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def declared_metrics(kind: str) -> dict[str, str]:
    """{name: unit} of the metrics BENCHMARK.json declares under `kind`."""
    declared = json.loads(BENCHMARK_FILE.read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "ressurv" / "cli.py").is_file():
        print(f"error: no ressurv sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = WORKLOADS[args.workload]
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        if args.trace:
            values = trace(w, args.seed, work, tally)
        else:
            values = measure(w, args.seed, args.seconds, work, tally)
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass   # another run still uses it
    if set(values) != set(units):
        print(f"error: measured {sorted(set(values) ^ set(units))} out of step with "
              f"{BENCHMARK_FILE.name}", file=sys.stderr)
        return 1

    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    for name, unit in units.items():
        print(f"{name:28s} {values[name]:14.6f} {unit}")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
