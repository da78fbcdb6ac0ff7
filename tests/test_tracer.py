"""The package surface that the benchmark reads.

`perfbench/tracer.py` patches functions and methods of the package by name
and reads the parameter tree (`params.blocks`, `block.dense_layers`,
`block.shortcut`, `params.output_head`) and the train-mode forward cache.
In a pooled run the training happens in worker processes, where nothing is
traced, so a break in that surface would go unnoticed there; these tests
trace small in-process (`--workers 1`) runs. `perfbench/run.py` also calls
the package directly, untraced, for its linear-Cox oracle and its
environment record, and checks every command's report files by their keys;
tests run both paths too.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ressurv.cli import main
from ressurv.data import SyntheticSpec, generate_synthetic, write_csv

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

MODEL_METRICS = ("model.forward_train_s", "model.matmul_gflop", "model.act_mb_per_epoch")


@pytest.mark.parametrize("command, nonzero", [
    ("cv", MODEL_METRICS),
    ("compare", MODEL_METRICS + ("cox.newton_s",)),
])
def test_tracer_reads_an_in_process_run(tmp_path, command, nonzero):
    ds, _ = generate_synthetic(SyntheticSpec(
        n=120, p=4, true_coefficients=(1.0, -0.5, 0.25, 0.0),
        target_censor_rate=0.3, seed=3,
    ))
    write_csv(ds, tmp_path / "data.csv")
    hp = {"n_blocks": 1, "dense_layers_per_block": 2, "nodes": 8,
          "max_epochs": 3, "patience": 4}
    (tmp_path / "hp.json").write_text(json.dumps(hp))
    spans = tmp_path / "spans.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("RESSURV_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))

    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "--", command,
         "--data", str(tmp_path / "data.csv"), "--hp", str(tmp_path / "hp.json"),
         "--k", "2", "--workers", "1", "--out", str(tmp_path / "out")],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    wall = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr

    summary = tracer.summarize(json.loads(spans.read_text()), wall)
    for metric in nonzero:
        assert summary[metric] > 0, metric


@pytest.fixture()
def run(monkeypatch):
    """perfbench/run.py, imported from its file. It imports its sibling as
    `tracer`, and its dataclasses need it in sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    monkeypatch.setitem(sys.modules, "perfbench_run", module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_oracle_and_environment_run_on_the_package(tmp_path, run):
    w = run.Workload(command="cv", n=200, p=4, coefficients=(1.0, -0.8, 0.5), k=3,
                     epochs=2, net={}, records="folds.jsonl")
    run.write_inputs(w, 3, tmp_path)
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "data.csv")]) == 0
    tally = run.Tally()
    oracle, figures = run.linear_cox_oracle(w, 3, tmp_path, run.truth_c_index(tmp_path), tally)
    assert tally.attempted == 2 and tally.failed == 0
    assert 0.5 < oracle <= 1.0
    assert figures["cox.newton_iters"] > 0
    env = run.environment("cv-paper", 3)
    assert env["workload"] == "cv-paper" and env["kernel_backend"]


FOLD_KEYS = {"fold", "n_train", "n_test", "n_test_events", "c_index", "best_epoch",
             "epochs_run", "stopped_early", "best_val_loss"}
FOLD_SUMMARY_KEYS = {"schema", "command", "k", "seed", "fold_hash"}
TINY_NET = {"n_blocks": 1, "dense_layers_per_block": 2, "nodes": 8}


@pytest.mark.parametrize("command, records, sweep, record_keys, summary_keys", [
    ("cv", "folds.jsonl", None, [FOLD_KEYS],
     FOLD_SUMMARY_KEYS | {"hp", "mean_c_index", "std_c_index"}),
    ("gridsearch", "points.jsonl", {"learning_rate": [3e-2, 1e-2], "dropout_rate": [0.1]},
     [{"index", "hp", "mean_c_index", "std_c_index", "fold_c_indexes", "failed", "error"}],
     FOLD_SUMMARY_KEYS | {"total_runs", "best_index", "best_hp", "best_mean_c_index"}),
    ("compare", "models.jsonl", None,
     [FOLD_KEYS | {"model"}, {"model", "fold", "n_train", "n_test", "n_test_events",
                              "c_index", "newton_converged", "newton_iterations"}],
     FOLD_SUMMARY_KEYS | {"hp", "models"}),
])
def test_benchmark_output_checks_pass_on_the_reports(tmp_path, run, command, records, sweep,
                                                     record_keys, summary_keys):
    # check_command reads epochs_run, failed, newton_converged, mean_c_index,
    # best_mean_c_index and models; a report without one fails the benchmark
    w = run.Workload(command=command, n=300, p=4, coefficients=(1.0, -0.8, 0.5), k=2,
                     epochs=40, net=TINY_NET, records=records, sweep=sweep)
    run.write_inputs(w, 3, tmp_path)
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "data.csv")]) == 0
    out = tmp_path / "out"
    code = main([*run.cli_args(w, 3, tmp_path, out, 1), "--workers", "1"])
    tally = run.Tally()
    summary = run.check_command(w, run.Run(0.0, 0.0, 0.0, code), out,
                                run.truth_c_index(tmp_path), {}, tally)
    assert summary is not None and tally.failed == 0 and tally.attempted == 1 + w.units()

    rows = [json.loads(line) for line in (out / records).read_text().splitlines()]
    assert {frozenset(r) for r in rows} == {frozenset(keys) for keys in record_keys}
    assert set(summary) == summary_keys
    if command == "compare":
        assert set(summary["models"]) == {"ressurv", "mlp_ablation", "linear_cox"}
        for stats in summary["models"].values():
            assert set(stats) == {"mean_c_index", "std_c_index"}
