"""Command-line entry point.

Commands: synth, train, cv, gridsearch, compare. Every command is a pure
function of its inputs and seed; report files are byte-identical across
reruns. Timestamps and wall-clock measurements live in a separate meta.json
so they never contaminate deterministic content.

Report files are built here and only here: the library's result types
carry values, and each command turns them into its records and its whole
summary.json.

Exit codes: 0 success, 2 configuration or input error (including a file
that cannot be read or written, and a worker pool that broke), 3 numerical
divergence during training.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool

# Every unit computes under one OpenBLAS thread unless the user set
# OPENBLAS_NUM_THREADS (training.BLAS_THREADS_ENV, default
# training.WORKER_BLAS_THREADS), and OpenBLAS reads the variable when numpy
# loads it: set here, before the package imports numpy, a command starts no
# BLAS thread it never uses, and `synth` runs under the units' count too.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import training
from .cox import fit_linear_cox_newton
from .data import (
    SurvivalDataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    write_csv,
)
# imported only so that perfbench/tracer.py can patch them here
from .data import (  # noqa: F401
    filter_features,
    filter_patients,
    kfold_split,
    standardize_apply,
    standardize_fit,
)
from .errors import DivergenceError, RessurvError
from .model import save_checkpoint
from .training import (
    Hyperparameters,
    Preparation,
    UnitPool,
    cross_validate,
    cross_validate_configs,
    early_stop_split,
    enumerate_grid,
    fold_unit,
    grid_search,
    held_out_fields,
    plan_folds,
    stable_seed,
    usable_cores,
)

REPORT_SCHEMA = "ressurv-report-v1"
TRUTH_SCHEMA = "ressurv-synth-truth-v1"

ENV_PREFIX = "RESSURV_"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


# ---------------------------------------------------------------------------
# Options: explicit flag > RESSURV_<NAME> env var > default
# ---------------------------------------------------------------------------

def _flag(parser, name: str, help_text: str, type=None, default=None,
          required: bool = False) -> None:
    """Declare --name. RESSURV_<NAME> becomes the argparse default, which
    argparse passes through `type` only when the flag is absent, so an
    explicit flag wins and an env value is checked like a flag."""
    env = ENV_PREFIX + name.upper()
    default = os.environ.get(env, default)
    parser.add_argument(f"--{name}", type=type, default=default,
                        required=required and default is None,
                        help=f"{help_text} [env {env}]")


def _seed(v: str) -> int:
    # refused here, naming --seed, rather than by numpy's seeding
    with contextlib.suppress(ValueError):
        if int(v) >= 0:
            return int(v)
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {v!r}")


def _fmt(v: str) -> str:
    # checked here, not with choices=: argparse never checks a default
    # against choices, and the default may come from RESSURV_FORMAT
    v = v.lower()
    if v not in ("jsonl", "tsv"):
        raise argparse.ArgumentTypeError(f"format must be jsonl or tsv, not {v!r}")
    return v


# ---------------------------------------------------------------------------
# Report writing
# ---------------------------------------------------------------------------

def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def write_records(path: str, records: list[dict], fmt: str) -> None:
    """Line-delimited records: one JSON object or one TSV row per record."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if fmt == "jsonl":
            for rec in records:
                fh.write(_dump_json(rec) + "\n")
        else:
            keys = sorted({k for rec in records for k in rec})
            fh.write("\t".join(keys) + "\n")
            for rec in records:
                fh.write("\t".join(_cell(rec.get(k)) for k in keys) + "\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list)):
        return _dump_json(value)
    return str(value)


def write_json_report(path: str, content: dict) -> None:
    """One indented JSON report file: the schema tag beside `content`."""
    content = {"schema": REPORT_SCHEMA, **content}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(content, sort_keys=True, indent=2) + "\n")


def write_meta(path: str, wall_time_s: float, argv: list[str], pool: UnitPool) -> None:
    """The only report file allowed to differ between reruns. Records the
    parallel setup: the processes that ran units (the pool's `workers`,
    1 in-process), usable cores, the OpenBLAS thread count the units ran
    under (in-process too), and per pool worker that ran a unit the seconds
    from the command's start to the start of its first unit and to the end
    of its last unit, each list ascending (null in-process)."""
    now = time.time()
    started_unix = now - wall_time_s

    def since_start(stamps: dict[int, float]):
        return None if pool.workers == 1 else sorted(t - started_unix for t in stamps.values())

    write_json_report(path, {
        "created_unix": now,
        "wall_time_s": wall_time_s,
        "argv": argv,
        "workers": pool.workers,
        "usable_cores": usable_cores(),
        "worker_openblas_num_threads": pool.blas_threads,
        "worker_start_s": since_start(pool.first_unit_unix),
        "worker_end_s": since_start(pool.last_unit_end_unix),
    })


def write_reports(args, t0: float, name: str, records: list[dict], summary: dict,
                  pool: UnitPool) -> None:
    """A command's report files in args.out: `name`.<format> records,
    summary.json, and meta.json timed from `t0` with the argv main parsed
    and the units' start times from `pool`."""
    write_records(os.path.join(args.out, f"{name}.{args.format}"), records, args.format)
    write_json_report(os.path.join(args.out, "summary.json"), summary)
    write_meta(os.path.join(args.out, "meta.json"), time.perf_counter() - t0, args.argv,
               pool)


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------

def _read_json_file(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ValueError(f"cannot read {what} file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"{what} file {path} is not valid JSON: {err}") from err
    except UnicodeDecodeError as err:
        raise ValueError(f"{what} file {path} is not UTF-8 text: {err}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{what} file {path} must hold a JSON object")
    return raw


def load_hyperparameters(path: str | None) -> Hyperparameters:
    if path is None:
        return Hyperparameters()
    return Hyperparameters.from_dict(_read_json_file(path, "hyperparameter"))


def load_grid_file(path: str) -> tuple[dict, Hyperparameters]:
    """Grid file: either a flat {field: [values...]} mapping, or
    {"sweep": {...}, "base": {hp overrides}} when non-swept fields such as
    max_epochs need pinning. The base may not set `seed`, which each point
    takes from --seed and its index."""
    raw = _read_json_file(path, "grid")
    if "sweep" in raw:
        extra = set(raw) - {"sweep", "base"}
        if extra:
            raise ValueError(f"unknown grid file keys: {sorted(extra)}")
        for key, value in raw.items():
            if not isinstance(value, dict):
                raise ValueError(f"grid file {key!r} must be an object")
        if "seed" in raw.get("base", {}):
            raise ValueError("grid file 'base' sets seed, but each grid point's seed comes "
                             "from --seed and the point's index")
        return raw["sweep"], Hyperparameters.from_dict(raw.get("base", {}))
    return raw, Hyperparameters()


def load_synth_spec(path: str) -> SyntheticSpec:
    raw = _read_json_file(path, "synthetic-spec")
    known = {f.name for f in dataclasses.fields(SyntheticSpec)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown synthetic-spec keys: {sorted(unknown)}")
    missing = sorted(f.name for f in dataclasses.fields(SyntheticSpec)
                     if f.default is dataclasses.MISSING and f.name not in raw)
    if missing:
        raise ValueError(f"incomplete synthetic spec: missing {missing}")
    return SyntheticSpec(**raw)


def _load_dataset(path: str) -> SurvivalDataset:
    ds = load_csv(path)
    ds.require_comparable_pair(slice(None), f"the dataset {path}")
    return ds


def _fold_fields(result) -> dict:
    """The summary fields of a cross-validated result's fold assignment."""
    return {"k": result.k, "seed": result.seed, "fold_hash": result.fold_hash}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    out = args.out
    spec = load_synth_spec(args.spec)
    ds, true_scores = generate_synthetic(spec)
    write_csv(ds, out)
    sidecar = {
        "schema": TRUTH_SCHEMA,
        "spec": {
            **dataclasses.asdict(spec),
            "true_coefficients": (
                None if spec.true_coefficients is None
                else [float(b) for b in spec.true_coefficients]
            ),
        },
        "sample_ids": list(ds.sample_ids),
        "true_scores": true_scores.tolist(),
    }
    with open(out + ".truth.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True) + "\n")
    print(
        f"wrote {out} (n={ds.n}, events={ds.n_events}, "
        f"censored={ds.n - ds.n_events}) and {out}.truth.json "
        f"[{time.perf_counter() - t0:.2f}s]"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    hp = load_hyperparameters(args.hp).replaced(seed=args.seed)
    ds = _load_dataset(args.data)

    # leakage-free: fit on the training side only; `train` alone holds the prepared sides
    train_idx, val_idx = early_stop_split(ds, np.arange(ds.n), stable_seed(hp.seed, 1))
    prep = Preparation.fit(ds, train_idx)

    pool = UnitPool(1)
    with pool.unit_blas():
        # looked up in `training`, where perfbench/tracer.py wraps it
        report = training.train(prep.apply(train_idx), prep.apply(val_idx), hp)

    save_checkpoint(os.path.join(args.out, "model.ckpt"), report.params, prep.standardization,
                    extra={"hp": dataclasses.asdict(hp)})

    write_reports(args, t0, "epochs", [dataclasses.asdict(r) for r in report.epochs], {
        "command": "train",
        "checkpoint": "model.ckpt",
        "hp": dataclasses.asdict(hp),
        "n_train": train_idx.size,
        "n_val": val_idx.size,
        "n_features": len(prep.retained),
        "feature_names": list(prep.retained),
        "best_epoch": report.best_epoch,
        "best_val_loss": report.best_val_loss,
        "best_val_c_index": report.best_val_c_index,
        "stopped_early": report.stopped_early,
        "epochs_run": report.epochs_run,
    }, pool)
    print(
        f"trained {report.epochs_run} epochs (best {report.best_epoch}, "
        f"val C-index {report.best_val_c_index:.4f}) -> {args.out}"
    )
    return EXIT_OK


def cmd_cv(args) -> int:
    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    hp = load_hyperparameters(args.hp)
    pool = UnitPool(args.workers)
    result = cross_validate(_load_dataset(args.data), hp, k=args.k, seed=args.seed, pool=pool)

    write_reports(args, t0, "folds", [dataclasses.asdict(r) for r in result.folds], {
        "command": "cv",
        "hp": dataclasses.asdict(hp),
        **_fold_fields(result),
        "mean_c_index": result.mean_c_index,
        "std_c_index": result.std_c_index,
    }, pool)
    print(
        f"cv: mean C-index {result.mean_c_index:.4f} "
        f"+/- {result.std_c_index:.4f} over {result.k} folds -> {args.out}"
    )
    return EXIT_OK


def cmd_gridsearch(args) -> int:
    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    # a bad point fails before the CSV is read
    points = enumerate_grid(*load_grid_file(args.grid), args.budget)
    pool = UnitPool(args.workers)
    result = grid_search(_load_dataset(args.data), points, k=args.k, seed=args.seed, pool=pool)

    records = []
    for index, (hp, cv) in enumerate(zip(result.hps, result.outcomes)):
        failed = isinstance(cv, DivergenceError)
        records.append({"index": index, "hp": dataclasses.asdict(hp), "failed": failed,
                        "mean_c_index": None if failed else cv.mean_c_index,
                        "std_c_index": None if failed else cv.std_c_index,
                        "fold_c_indexes": [] if failed else [r.c_index for r in cv.folds],
                        "error": str(cv) if failed else None})
    best = None if result.best_index is None else records[result.best_index]
    write_reports(args, t0, "points", records, {
        "command": "gridsearch",
        **_fold_fields(result),
        "total_runs": len(records),
        "best_index": result.best_index,
        "best_hp": None if best is None else best["hp"],
        "best_mean_c_index": None if best is None else best["mean_c_index"],
    }, pool)
    print(f"gridsearch: all {len(records)} points failed -> {args.out}" if best is None else
          f"gridsearch: best point #{best['index']} mean C-index {best['mean_c_index']:.4f} "
          f"({len(records)} points) -> {args.out}")
    return EXIT_OK


@dataclasses.dataclass
class LinearCoxRecord:
    fold: int
    n_train: int
    n_test: int
    n_test_events: int
    c_index: float
    newton_converged: bool
    newton_iterations: int


def linear_cox_unit(plan, f: int) -> LinearCoxRecord:
    """The linear Cox oracle on fold `f` of `plan`: a Newton fit, looked up in
    this module (perfbench/tracer.py patches it here), scored held out."""
    prep, folds = plan.preparations[f], plan.folds
    complement, test_fold = prep.apply(folds.train_indices(f)), prep.apply(folds.test_indices(f))
    fit = fit_linear_cox_newton(complement)
    return LinearCoxRecord(**held_out_fields(f, complement.n, test_fold,
                                             test_fold.features @ fit.beta),
                           newton_converged=fit.converged, newton_iterations=fit.iterations)


def cmd_compare(args) -> int:
    """ResSurv vs the no-shortcut ablation vs the linear Cox oracle on one
    fold assignment: every model's folds are units of one --workers pool pass."""
    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    hp = load_hyperparameters(args.hp)
    models = {"ressurv": (fold_unit, hp, True), "mlp_ablation": (fold_unit, hp, False),
              "linear_cox": (linear_cox_unit,)}
    pool = UnitPool(args.workers)
    plan = plan_folds(_load_dataset(args.data), args.k, args.seed)
    cvs = dict(zip(models, cross_validate_configs(plan, list(models.values()), pool)))
    write_reports(args, t0, "models", [{"model": name, **dataclasses.asdict(rec)}
                                       for name, cv in cvs.items() for rec in cv.folds], {
        "command": "compare",
        **_fold_fields(cvs["ressurv"]),
        "hp": dataclasses.asdict(hp),
        "models": {name: {"mean_c_index": cv.mean_c_index, "std_c_index": cv.std_c_index}
                   for name, cv in cvs.items()},
    }, pool)
    line = "  ".join(f"{name}={cvs[name].mean_c_index:.4f}" for name in sorted(cvs))
    print(f"compare: {line} -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ressurv",
        description=(
            "Survival-risk prediction with a residual network trained on the "
            "Cox partial likelihood. Flags fall back to RESSURV_* environment "
            "variables (e.g. RESSURV_SEED)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups shared by several commands, each flag declared once
    out = argparse.ArgumentParser(add_help=False)
    _flag(out, "out", "output path (synth: CSV path; otherwise directory)", required=True)
    run = argparse.ArgumentParser(add_help=False)
    _flag(run, "data", "survival CSV (sample_id,time,event,features...)", required=True)
    _flag(run, "seed", "run seed (default 0)", _seed, 0)
    _flag(run, "format", "record format: jsonl (default) or tsv", _fmt, "jsonl")
    hp = argparse.ArgumentParser(add_help=False)
    _flag(hp, "hp", "hyperparameter JSON file (defaults if omitted)")
    folds = argparse.ArgumentParser(add_help=False)
    _flag(folds, "k", "number of folds (default 5)", int, 5)
    _flag(folds, "workers", "processes running units (a fold of a model or grid point), "
          "at most one per unit; 1 runs them in-process (default: one per unit if they split "
          "unevenly over the usable cores and are under three per core, else one per core)", int)

    def command(name, func, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=[*parents, out])
        p.set_defaults(func=func)
        return p

    synth = command("synth", cmd_synth, "generate a synthetic survival dataset")
    _flag(synth, "spec", "synthetic-spec JSON file", required=True)
    command("train", cmd_train, "train one model with an early-stop split", run, hp)
    command("cv", cmd_cv, "stratified k-fold cross-validation", run, hp, folds)
    grid = command("gridsearch", cmd_gridsearch, "grid search over hyperparameters",
                   run, folds)
    _flag(grid, "grid", "grid JSON file", required=True)
    _flag(grid, "budget", "max grid points to evaluate", int)
    command("compare", cmd_compare, "ResSurv vs no-shortcut ablation vs linear Cox",
            run, hp, folds)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # argv rides along on the namespace for meta.json
        args = build_parser().parse_args(argv, argparse.Namespace(argv=argv))
    except SystemExit as err:  # argparse reports bad or missing flags (code 2)
        return err.code
    try:
        return args.func(args)
    except (RessurvError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED if isinstance(err, DivergenceError) else EXIT_CONFIG
    except BrokenProcessPool as err:
        print(f"error: the worker pool broke ({str(err).rstrip('.')}). A pool worker "
              "was killed, for instance out of memory. --workers 1 trains in this "
              "process.", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
