"""Command-line entry point.

Commands: synth, train, cv, gridsearch, compare. Every command is a pure
function of its inputs and seed; report files are byte-identical across
reruns. Timestamps and wall-clock measurements live in a separate meta.json
so they never contaminate deterministic content.

Exit codes: 0 success, 2 configuration or input error (including a file
that cannot be read or written, and a worker pool that broke), 3 numerical
divergence during training.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .cox import fit_linear_cox_newton
from .data import (
    SurvivalDataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    prepare_fold,
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
from .metrics import concordance_fast
from .model import save_checkpoint
from .training import (
    IN_PROCESS,
    Hyperparameters,
    UnitPool,
    cross_validate,
    cross_validate_configs,
    early_stop_split,
    enumerate_grid,
    fold_summary,
    grid_search,
    plan_folds,
    stable_seed,
    train,
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


def usable_cores() -> int:
    """The cores this process may run on: the default --workers."""
    return len(os.sched_getaffinity(0))


def write_meta(path: str, wall_time_s: float, argv: list[str],
               pool: UnitPool = IN_PROCESS) -> None:
    """The only report file allowed to differ between reruns. Records the
    parallel setup: the processes that trained units (the pool's size, 1
    in-process), usable cores, the OpenBLAS thread count the units ran
    under (in-process too), and per pool worker the seconds from the
    command's start to the start of its first unit, ascending (null
    in-process)."""
    now = time.time()
    started_unix = now - wall_time_s
    write_json_report(path, {
        "created_unix": now,
        "wall_time_s": wall_time_s,
        "argv": argv,
        "workers": pool.size,
        "usable_cores": usable_cores(),
        "worker_openblas_num_threads": pool.blas_threads,
        "worker_start_s": None if pool.size == 1 else sorted(
            t - started_unix for t in pool.first_unit_unix.values()),
    })


def write_reports(args, t0: float, name: str, records: list[dict], summary: dict,
                  pool: UnitPool = IN_PROCESS) -> None:
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
        with open(path, "r", encoding="utf-8") as fh:
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
    max_epochs need pinning."""
    raw = _read_json_file(path, "grid")
    if "sweep" in raw:
        extra = set(raw) - {"sweep", "base"}
        if extra:
            raise ValueError(f"unknown grid file keys: {sorted(extra)}")
        for key, value in raw.items():
            if not isinstance(value, dict):
                raise ValueError(f"grid file {key!r} must be an object")
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
    ds.require_trainable()
    return ds


def _unit_pool(args, units: int) -> UnitPool:
    """--workers processes, at most one per unit (in-process without units,
    so that the fold split reports a --k below 1). Commands open it before
    reading the CSV, so that its workers start while the CSV loads."""
    return UnitPool(min(args.workers, max(units, 1)))


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
        "true_scores": [float(s) for s in true_scores],
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
    seed = args.seed
    hp = load_hyperparameters(args.hp)
    ds = _load_dataset(args.data)

    # leakage-free: standardization is fit on the training side only
    train_idx, val_idx = early_stop_split(ds, np.arange(ds.n), stable_seed(seed, 1))
    train_ds, val_ds, std = prepare_fold(ds.subset(train_idx), ds.subset(val_idx))

    report = train(train_ds, val_ds, hp, seed=seed)

    save_checkpoint(os.path.join(args.out, "model.ckpt"), report.params,
                    standardization=std, extra={"hp": hp.to_dict(), "seed": seed})

    write_reports(args, t0, "epochs", report.epoch_records(), {
        "command": "train",
        "checkpoint": "model.ckpt",
        "seed": seed,
        "hp": hp.to_dict(),
        "n_train": train_ds.n,
        "n_val": val_ds.n,
        "n_features": train_ds.p,
        "feature_names": list(train_ds.feature_names),
        **report.summary(),
    })
    print(
        f"trained {report.epochs_run} epochs (best {report.best_epoch}, "
        f"val C-index {report.best_val_c_index:.4f}) -> {args.out}"
    )
    return EXIT_OK


def cmd_cv(args) -> int:
    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    hp = load_hyperparameters(args.hp)
    with _unit_pool(args, args.k) as pool:
        result = cross_validate(_load_dataset(args.data), hp, k=args.k, seed=args.seed,
                                pool=pool)

    write_reports(args, t0, "folds", result.fold_records(),
                  {"command": "cv", "hp": hp.to_dict(), **result.summary()}, pool)
    print(
        f"cv: mean C-index {result.mean_c_index:.4f} "
        f"+/- {result.std_c_index:.4f} over {result.k} folds -> {args.out}"
    )
    return EXIT_OK


def cmd_gridsearch(args) -> int:
    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    grid, base_hp = load_grid_file(args.grid)
    points = len(enumerate_grid(grid, base_hp, args.budget))
    with _unit_pool(args, points * args.k) as pool:
        result = grid_search(_load_dataset(args.data), grid, k=args.k, seed=args.seed,
                             budget=args.budget, pool=pool, base_hp=base_hp)

    write_reports(args, t0, "points", result.point_records(),
                  {"command": "gridsearch", **result.summary()}, pool)
    best = result.best_point
    if best is None:
        print(f"gridsearch: all {result.total_runs} points failed -> {args.out}")
    else:
        print(
            f"gridsearch: best point #{best.index} "
            f"mean C-index {best.mean_c_index:.4f} "
            f"({result.total_runs} points) -> {args.out}"
        )
    return EXIT_OK


def cmd_compare(args) -> int:
    """ResSurv vs the no-shortcut ablation vs the linear Cox oracle, all
    evaluated on one shared fold assignment. The two networks' folds share
    one --workers pool; the oracle runs in this process."""
    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    seed = args.seed
    hp = load_hyperparameters(args.hp)
    networks = (("ressurv", True), ("mlp_ablation", False))
    with _unit_pool(args, len(networks) * args.k) as pool:
        plan = plan_folds(_load_dataset(args.data), args.k, seed)
        cvs = cross_validate_configs(plan, [(hp, shortcut) for _, shortcut in networks],
                                     pool)

    records = [{"model": model_name, **rec}
               for (model_name, _), cv in zip(networks, cvs) for rec in cv.fold_records()]
    for f in range(plan.folds.k):
        complement, test_fold = plan.fold_data(f)
        fit = fit_linear_cox_newton(complement)
        scores = test_fold.features @ fit.beta
        c = concordance_fast(test_fold.times, test_fold.events, scores).c_index
        records.append({
            "model": "linear_cox",
            "fold": f,
            "n_train": complement.n,
            "n_test": test_fold.n,
            "n_test_events": test_fold.n_events,
            "c_index": float(c),
            "newton_converged": fit.converged,
            "newton_iterations": fit.iterations,
        })
    summaries = {}
    for model_name in [name for name, _ in networks] + ["linear_cox"]:
        mean, std = fold_summary([r["c_index"] for r in records if r["model"] == model_name])
        summaries[model_name] = {"mean_c_index": mean, "std_c_index": std}

    write_reports(args, t0, "models", records, {
        "command": "compare",
        "k": plan.folds.k,
        "seed": seed,
        "fold_hash": plan.folds.content_hash(),
        "hp": hp.to_dict(),
        "models": summaries,
    }, pool)
    line = "  ".join(
        f"{name}={summaries[name]['mean_c_index']:.4f}" for name in sorted(summaries)
    )
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
    _flag(run, "seed", "run seed (default 0)", int, 0)
    _flag(run, "format", "record format: jsonl (default) or tsv", _fmt, "jsonl")
    hp = argparse.ArgumentParser(add_help=False)
    _flag(hp, "hp", "hyperparameter JSON file (defaults if omitted)")
    folds = argparse.ArgumentParser(add_help=False)
    _flag(folds, "k", "number of folds (default 5)", int, 5)
    _flag(folds, "workers", "worker processes training (configuration, fold) units "
          "(default: the usable cores, at most one per unit); 1 trains them in-process",
          int, usable_cores())

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
              "could not start or was killed, for instance out of memory; spawned "
              "workers re-import the main program, so a program read from standard "
              "input cannot start them. --workers 1 trains in this process.",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
