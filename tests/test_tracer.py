"""The package surface that the benchmark reads.

`perfbench/tracer.py` patches functions and methods of the package by name
and reads the parameter tree (`params.blocks`, `block.dense_layers`,
`block.shortcut`, `params.output_head`) and the train-mode forward cache.
In a pooled run the training happens in worker processes, where nothing is
traced, so a break in that surface would go unnoticed there; these tests
trace small in-process (`--workers 1`) runs. `perfbench/run.py` also calls
the package directly, untraced, for its linear-Cox oracle and its
environment record; a test runs that path too.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

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


def test_benchmark_oracle_and_environment_run_on_the_package(tmp_path, monkeypatch):
    # run.py imports its sibling as `tracer`; its dataclasses need it in sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    monkeypatch.setitem(sys.modules, "perfbench_run", run)
    spec.loader.exec_module(run)
    w = run.Workload(command="cv", n=200, p=4, coefficients=(1.0, -0.8, 0.5), k=3,
                     epochs=2, net={}, records="folds.jsonl")
    run.write_inputs(w, 3, tmp_path)
    from ressurv.cli import main
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "data.csv")]) == 0
    tally = run.Tally()
    oracle, figures = run.linear_cox_oracle(w, 3, tmp_path, run.truth_c_index(tmp_path), tally)
    assert tally.attempted == 2 and tally.failed == 0
    assert 0.5 < oracle <= 1.0
    assert figures["cox.newton_iters"] > 0
    env = run.environment("cv-paper", 3)
    assert env["workload"] == "cv-paper" and env["kernel_backend"]
