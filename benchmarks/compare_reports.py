"""Report-byte check: run the CLI of this checkout and of another source
tree on the same inputs, and diff every report file they write.

It makes each ``perfbench`` workload's input with ``perfbench/run.py``'s
own setup (the CSV from this checkout's ``ressurv synth``), then runs, as
``python -m ressurv.cli`` with ``PYTHONPATH`` set to each side's ``src``:

* each workload's command (``cv``, ``gridsearch``, ``compare``) under
  ``--workers 1``, ``--workers 2`` and the default pool size;
* ``train`` and ``cv`` on the ``cv-paper`` input under sgd, adam and
  adamw, each with a nonzero ``l2_lambda``;
* ``train`` and ``cv`` on a copy of the ``cv-paper`` input whose last
  feature is a constant, which every preparation drops;
* ``cv`` and ``compare`` on the ``cv-paper`` input with an hp file whose
  ``seed`` is not ``--seed``, so that a fold seeded from the wrong one
  shows (every workload's hp file holds ``--seed``);
* ``compare`` on the ``cv-paper`` input under each ``activation_kind``
  (tanh, relu, selu), each at ``dropout_rate`` 0 and 0.3, so that every
  way a fit keeps or rebuilds a layer's activation and input shows, the
  no-shortcut ablation's block outputs among them (the workloads run tanh
  with dropout only);
* ``gridsearch`` on the ``cv-paper`` input over two learning rates, of
  which the first diverges, so that a failed point's record shows.

Every file of each run's output directory but ``meta.json`` (the only file
allowed to vary between runs) must hold the same bytes on both sides, and
both sides must exit 0. It prints one line per run and exits 1 on any
difference or failure, keeping its temporary directory then, with every
input, both sides' outputs (``<run>-this`` and ``<run>-other``, numbered
in the printed order) and their logs, and printing its path; when every
run is the same it deletes it. ``--n``, ``--p`` and ``--epochs`` shrink every
workload, and ``--workers`` picks the pool sizes:

    python benchmarks/compare_reports.py --against ../parent/src
    python benchmarks/compare_reports.py --against src --n 120 --p 3 --epochs 2 --workers 1
"""

import argparse
import csv
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import ROOT, SRC, WORKLOADS, Tally, child_env, cli_args, setup  # noqa: E402

# l2_lambda of the train and cv runs under each optimizer: a loss penalty
# under sgd and adam, decoupled decay under adamw
OPTIMIZER_L2 = {"sgd": 0.5, "adam": 4.0, "adamw": 4.0}

# the activation runs: each kind at each dropout rate
ACTIVATION_KINDS = ("tanh", "relu", "selu")
DROPOUT_RATES = (0.0, 0.3)

# the base of the diverging grid: at learning rate 0.1 the loss-side L2
# gradient alone multiplies every weight matrix by -99 each sgd step, and
# patience outlasts the epochs the scores stay finite
DIVERGING_BASE = {"optimizer_kind": "sgd", "l2_lambda": 500.0, "n_blocks": 1, "nodes": 8,
                  "dense_layers_per_block": 1, "dropout_rate": 0.0, "lr_decay": 0.0,
                  "max_epochs": 100, "patience": 100}


def run_side(src: Path, args: list[str], out: Path) -> tuple[int, dict[str, bytes]]:
    """Exit code and report bytes (by file name, `meta.json` left out) of
    `python -m ressurv.cli *args` on the package under `src`."""
    with open(out.with_suffix(".log"), "wb") as log:
        code = subprocess.run([sys.executable, "-m", "ressurv.cli", *args], cwd=ROOT,
                              env={**child_env(), "PYTHONPATH": str(src)},
                              stdin=subprocess.DEVNULL, stdout=log, stderr=log).returncode
    files = sorted(out.rglob("*")) if out.is_dir() else []
    return code, {str(f.relative_to(out)): f.read_bytes() for f in files
                  if f.is_file() and f.name != "meta.json"}


def runs(workloads: dict, seed: int, work: Path, workers: list[int | None]):
    """(label, argv builder) of every run: argv for an output directory."""
    for name, w in workloads.items():
        for n in workers:
            def argv(out, w=w, name=name, n=n):
                # gridsearch's arguments always name a pool size; drop it
                args = cli_args(w, seed, work / name, out, 0)
                args = args[:-2] if w.sweep is not None else args
                return args + ([] if n is None else ["--workers", str(n)])
            yield f"{name} --workers {n or 'default'}", argv
    paper = work / "cv-paper"
    base = json.loads((paper / "hp.json").read_text())
    for kind, l2 in OPTIMIZER_L2.items():
        hp = paper / f"hp-{kind}.json"
        hp.write_text(json.dumps({**base, "optimizer_kind": kind, "l2_lambda": l2}))
        for command in ("train", "cv"):
            yield f"{command} {kind} l2 {l2}", lambda out, c=command, hp=hp: [
                c, "--data", str(paper / "data.csv"), "--hp", str(hp),
                "--seed", str(seed), "--out", str(out)]
    constant = paper / "constant.csv"
    with open(paper / "data.csv", newline="") as src, open(constant, "w", newline="") as dst:
        rows, copy = csv.reader(src), csv.writer(dst)
        header = next(rows)
        copy.writerow(header)
        copy.writerows(row[:-1] + ["1.0"] for row in rows)
    for command in ("train", "cv"):
        yield f"{command} {header[-1]} constant", lambda out, c=command: [
            c, "--data", str(constant), "--hp", str(paper / "hp.json"),
            "--seed", str(seed), "--out", str(out)]
    other_seed = paper / "hp-other-seed.json"
    other_seed.write_text(json.dumps({**base, "seed": seed + 6}))
    for command in ("cv", "compare"):
        yield f"{command} hp seed {seed + 6}", lambda out, c=command: [
            c, "--data", str(paper / "data.csv"), "--hp", str(other_seed),
            "--seed", str(seed), "--out", str(out)]
    for kind in ACTIVATION_KINDS:
        for rate in DROPOUT_RATES:
            hp = paper / f"hp-{kind}-{rate}.json"
            hp.write_text(json.dumps({**base, "activation_kind": kind, "dropout_rate": rate}))
            yield f"compare {kind} dropout {rate}", lambda out, hp=hp: [
                "compare", "--data", str(paper / "data.csv"), "--hp", str(hp),
                "--seed", str(seed), "--out", str(out)]
    diverging = paper / "grid-diverging.json"
    diverging.write_text(json.dumps({"sweep": {"learning_rate": [0.1, 1e-4]},
                                     "base": DIVERGING_BASE}))
    yield "gridsearch diverging point", lambda out: [
        "gridsearch", "--data", str(paper / "data.csv"), "--grid", str(diverging),
        "--seed", str(seed), "--out", str(out)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="the other tree's src directory")
    parser.add_argument("--n", type=int, help="rows of every workload's input")
    parser.add_argument("--p", type=int, help="features of every workload's input")
    parser.add_argument("--epochs", type=int, help="epochs of every workload")
    parser.add_argument("--workers", nargs="+", default=["1", "2", "default"],
                        help="pool sizes of the workload runs (default: 1 2 default)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    def shrunk(w):
        p = args.p or w.p
        return dataclasses.replace(w, n=args.n or w.n, p=p, epochs=args.epochs or w.epochs,
                                   coefficients=w.coefficients[:p])

    workloads = {name: shrunk(w) for name, w in WORKLOADS.items()}
    workers = [None if n == "default" else int(n) for n in args.workers]

    sides = {"this": SRC, "other": args.against.resolve()}
    problems = 0
    work = Path(tempfile.mkdtemp(prefix="compare_reports-"))
    try:
        for name, w in workloads.items():
            (work / name).mkdir()
            setup(w, args.seed, work / name, 1, Tally())
        for i, (label, argv_for) in enumerate(runs(workloads, args.seed, work, workers)):
            results = [run_side(src, argv_for(work / f"{i}-{side}"), work / f"{i}-{side}")
                       for side, src in sides.items()]
            codes = [code for code, _ in results]
            if codes != [0, 0]:
                verdict = f"FAILED (exit codes {codes[0]}, {codes[1]})"
            elif results[0] != results[1]:
                names = sorted(set(results[0][1]) | set(results[1][1]))
                verdict = "DIFFER: " + ", ".join(
                    f for f in names if results[0][1].get(f) != results[1][1].get(f))
            else:
                verdict = f"same ({', '.join(results[0][1])})"
            problems += not verdict.startswith("same")
            print(f"{label:<30} {verdict}", flush=True)
    finally:
        if problems:
            print(f"inputs, outputs and logs kept in {work}")
        else:
            shutil.rmtree(work)
    print(f"{problems} of {i + 1} runs differ or failed; other side: {sides['other']}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
