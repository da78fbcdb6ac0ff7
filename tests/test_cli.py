import json
import multiprocessing
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import ressurv
from conftest import make_dataset
from ressurv import training
from ressurv.cli import REPORT_SCHEMA, TRUTH_SCHEMA, main
from ressurv.data import SurvivalDataset, load_csv, write_csv
from ressurv.model import load_checkpoint, model_forward

FAST_HP = {
    "n_blocks": 1, "nodes": 8, "dense_layers_per_block": 2,
    "dropout_rate": 0.0, "max_epochs": 20, "patience": 5,
}

# overflow-by-construction: loss-side L2 gradient alone inflates the weights
# every sgd step, and patience outlasts the epochs float64 survives
DIVERGENT_HP = {
    "optimizer_kind": "sgd", "learning_rate": 0.1, "l2_lambda": 50.0,
    "n_blocks": 1, "nodes": 8, "dense_layers_per_block": 1,
    "dropout_rate": 0.0, "lr_decay": 0.0, "max_epochs": 400, "patience": 400,
}

SYNTH_SPEC = {
    "n": 120, "p": 3, "hazard_kind": "linear",
    "true_coefficients": [1.0, -0.5, 0.25],
    "target_censor_rate": 0.3, "seed": 17,
}


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def data_csv(tmp_path):
    spec = _write_json(tmp_path / "spec.json", SYNTH_SPEC)
    out = tmp_path / "data.csv"
    assert main(["synth", "--spec", spec, "--out", str(out)]) == 0
    return str(out)


@pytest.fixture()
def hp_file(tmp_path):
    return _write_json(tmp_path / "hp.json", FAST_HP)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_csv_and_truth_sidecar(tmp_path):
    spec = _write_json(tmp_path / "spec.json", SYNTH_SPEC)
    out = tmp_path / "data.csv"
    assert main(["synth", "--spec", spec, "--out", str(out)]) == 0
    ds = load_csv(str(out))
    assert ds.n == 120 and ds.p == 3
    truth = json.loads((tmp_path / "data.csv.truth.json").read_text())
    assert truth["schema"] == TRUTH_SCHEMA
    assert truth["sample_ids"] == ds.sample_ids
    assert len(truth["true_scores"]) == 120
    # scores in the sidecar are exactly X @ beta for the linear hazard
    expected = ds.features @ np.array(SYNTH_SPEC["true_coefficients"])
    assert np.allclose(truth["true_scores"], expected)


def test_synth_is_byte_deterministic(tmp_path):
    spec = _write_json(tmp_path / "spec.json", SYNTH_SPEC)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["synth", "--spec", spec, "--out", str(a)]) == 0
    assert main(["synth", "--spec", spec, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.truth.json").read_bytes() == \
           (tmp_path / "b.csv.truth.json").read_bytes()


def test_synth_zero_censoring_means_all_events(tmp_path):
    spec = dict(SYNTH_SPEC, target_censor_rate=0.0)
    spec_path = _write_json(tmp_path / "spec.json", spec)
    out = tmp_path / "full.csv"
    assert main(["synth", "--spec", spec_path, "--out", str(out)]) == 0
    ds = load_csv(str(out))
    assert ds.n_events == ds.n


def test_synth_rejects_bad_spec(tmp_path):
    spec = _write_json(tmp_path / "spec.json", {"n": 10})  # p missing
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("field, value", [
    ("n", 2.5), ("n", True), ("p", "3"), ("seed", None),
    ("weibull_shape", True), ("target_censor_rate", "0.3"),
    ("true_coefficients", 5), ("true_coefficients", "ab"),
    ("true_coefficients", ["1", 2, 3]), ("true_coefficients", [True, 1.0, 0.5]),
    ("true_coefficients", [float("nan"), 1.0, 0.5]),
    pytest.param("weibull_shape", 10**400, id="weibull_shape-int-beyond-float64"),
    pytest.param("true_coefficients", [10**400, 1.0, 0.5],
                 id="true_coefficients-int-beyond-float64"),
])
def test_synth_mistyped_spec_field_exits_2_naming_it(tmp_path, capsys, field, value):
    # n = 2.5 ended in a TypeError traceback (exit 1); n = true made 1 row;
    # true_coefficients 5 was an "incomplete" spec, "ab" named no field,
    # ["1", 2, 3] and [true, 1.0, 0.5] were accepted, NaN failed as a bad time,
    # and an integer beyond float64 ended in an OverflowError traceback (exit 1)
    spec = _write_json(tmp_path / "spec.json", dict(SYNTH_SPEC, **{field: value}))
    out = tmp_path / "x.csv"
    assert main(["synth", "--spec", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ")
    assert not out.exists()


def test_synth_incomplete_spec_names_the_missing_fields(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json", {"hazard_kind": "deep"})
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: incomplete synthetic spec: missing ['n', 'p']\n"


@pytest.mark.parametrize("extra", [["--seed", "5"], ["--format", "tsv"]])
def test_synth_takes_only_spec_and_out(tmp_path, extra):
    spec = _write_json(tmp_path / "spec.json", SYNTH_SPEC)
    out = tmp_path / "data.csv"
    assert main(["synth", "--spec", spec, "--out", str(out), *extra]) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_reports_and_checkpoint(tmp_path, data_csv, hp_file):
    out = tmp_path / "run"
    code = main(["train", "--data", data_csv, "--hp", hp_file,
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    for name in ("epochs.jsonl", "summary.json", "meta.json", "model.ckpt"):
        assert (out / name).exists(), name

    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema"] == REPORT_SCHEMA
    assert summary["command"] == "train"
    assert summary["seed"] == 3
    assert summary["best_epoch"] >= 1
    assert summary["checkpoint"] == "model.ckpt"

    records = [json.loads(line) for line in
               (out / "epochs.jsonl").read_text().splitlines()]
    assert len(records) == summary["epochs_run"]
    assert records[0]["epoch"] == 1
    best = min(r["val_loss"] for r in records)
    assert abs(best - summary["best_val_loss"]) < 1e-12

    # the checkpoint carries hp, seed, and the training-side standardization
    params, std, extra = load_checkpoint(out / "model.ckpt")
    assert extra["seed"] == 3
    assert extra["hp"]["nodes"] == 8
    ds = load_csv(data_csv)
    scaled = (ds.features - std.means) / std.stddevs
    h, _ = model_forward(scaled, params, mode="eval")
    assert h.shape == (ds.n,) and np.all(np.isfinite(h))


def test_train_reports_are_rerun_identical(tmp_path, data_csv, hp_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["train", "--data", data_csv, "--hp", hp_file,
                     "--seed", "3", "--out", str(out)]) == 0
    for name in ("epochs.jsonl", "summary.json", "model.ckpt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_train_corrupt_csv_exits_2_naming_the_row(tmp_path, hp_file, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("sample_id,time,event,f0\ns1,5.0,1,0.3\ns2,-2.0,0,0.1\n")
    code = main(["train", "--data", str(bad), "--hp", hp_file,
                 "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "row 2" in err


def test_train_without_events_exits_2(tmp_path, hp_file, capsys):
    censored = tmp_path / "censored.csv"
    censored.write_text("sample_id,time,event,f0\ns1,5.0,0,0.3\ns2,2.0,0,0.1\n")
    assert main(["train", "--data", str(censored), "--hp", hp_file,
                 "--out", str(tmp_path / "run")]) == 2
    assert "error: dataset contains no observed events" in capsys.readouterr().err


def test_train_divergence_exits_3(tmp_path, data_csv):
    hp = _write_json(tmp_path / "boom.json", DIVERGENT_HP)
    with np.errstate(all="ignore"):
        code = main(["train", "--data", data_csv, "--hp", hp,
                     "--out", str(tmp_path / "run")])
    assert code == 3


def test_train_missing_data_flag_exits_2(tmp_path, hp_file):
    assert main(["train", "--hp", hp_file, "--out", str(tmp_path / "run")]) == 2


def test_train_bad_hp_key_exits_2(tmp_path, data_csv):
    hp = _write_json(tmp_path / "hp.json", {"momentum": 0.9})
    assert main(["train", "--data", data_csv, "--hp", hp,
                 "--out", str(tmp_path / "run")]) == 2


def test_train_checks_its_early_stop_split_before_training(tmp_path, hp_file, capsys,
                                                           monkeypatch):
    # all 6 events sit at the latest time: no event is followed by a later time
    ds = make_dataset(n=40, p=3, seed=0)
    times, events = ds.times.copy(), np.zeros(ds.n, dtype=bool)
    events[[0, 7, 14, 21, 28, 35]] = True
    times[events] = times.max()
    path = tmp_path / "late_events.csv"
    write_csv(SurvivalDataset(ds.sample_ids, ds.features, ds.feature_names, times, events),
              path)
    monkeypatch.setattr("ressurv.cli.train", lambda *a, **kw: pytest.fail("train ran"))
    out = tmp_path / "run"
    assert main(["train", "--data", str(path), "--hp", hp_file, "--out", str(out)]) == 2
    assert ("error: the early-stop training split has no comparable pair"
            in capsys.readouterr().err)
    for name in ("model.ckpt", "epochs.jsonl", "summary.json"):
        assert not (out / name).exists(), name


@pytest.mark.parametrize("command", ["cv", "compare"])
def test_repeated_feature_name_exits_2_before_any_unit_trains(tmp_path, hp_file, capsys,
                                                              monkeypatch, command):
    # two columns named x cannot be told apart: select_features(["x", "x"])
    # would score every held-out fold on the second column twice
    ds = make_dataset(n=40, p=2, seed=0)
    path = tmp_path / "repeat.csv"
    path.write_text("sample_id,time,event,x,x\n" + "".join(
        f"{sid},{t!r},{int(e)},{a!r},{b!r}\n"
        for sid, t, e, (a, b) in zip(ds.sample_ids, ds.times, ds.events, ds.features)))
    monkeypatch.setattr(training.UnitPool, "map_units", _no_pool)
    assert main([command, "--data", str(path), "--hp", hp_file, "--k", "2",
                 "--workers", "1", "--out", str(tmp_path / "out")]) == 2
    assert "error: column name 'x' repeats" in capsys.readouterr().err


# JSON text, so that NaN and Infinity reach the loader as Python's json reads them
@pytest.mark.parametrize("command, text, field", [
    ("cv", '{"nodes": "8"}', "nodes"),
    ("cv", '{"learning_rate": "0.01"}', "learning_rate"),
    ("cv", '{"dropout_rate": null}', "dropout_rate"),
    ("gridsearch", '{"nodes": ["16"]}', "nodes"),
    ("cv", '{"max_epochs": 2.5}', "max_epochs"),
    ("cv", '{"l2_lambda": NaN}', "l2_lambda"),
    ("cv", '{"lr_decay": NaN}', "lr_decay"),
    ("cv", '{"learning_rate": Infinity}', "learning_rate"),
    ("cv", '{"n_blocks": true}', "n_blocks"),
])
def test_mistyped_hyperparameter_exits_2_naming_the_field_before_the_pool_opens(
        tmp_path, data_csv, capsys, monkeypatch, command, text, field):
    def no_pool(self, size):
        raise AssertionError("the pool opened")

    monkeypatch.setattr(training.UnitPool, "__init__", no_pool)
    path = tmp_path / "config.json"
    path.write_text(text)
    flag = "--grid" if command == "gridsearch" else "--hp"
    assert main([command, "--data", data_csv, flag, str(path), "--k", "2",
                 "--workers", "2", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# cv
# ---------------------------------------------------------------------------

def test_cv_reports_fold_records(tmp_path, data_csv, hp_file):
    out = tmp_path / "cv"
    assert main(["cv", "--data", data_csv, "--hp", hp_file,
                 "--k", "3", "--seed", "5", "--out", str(out)]) == 0
    records = [json.loads(line) for line in
               (out / "folds.jsonl").read_text().splitlines()]
    assert [r["fold"] for r in records] == [0, 1, 2]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "cv" and summary["k"] == 3
    mean = np.mean([r["c_index"] for r in records])
    assert abs(summary["mean_c_index"] - mean) < 1e-12
    assert summary["fold_hash"]


def test_cv_tsv_format(tmp_path, data_csv, hp_file):
    out = tmp_path / "cv"
    assert main(["cv", "--data", data_csv, "--hp", hp_file, "--k", "2",
                 "--out", str(out), "--format", "tsv"]) == 0
    lines = (out / "folds.tsv").read_text().splitlines()
    assert len(lines) == 3  # header + 2 folds
    header = lines[0].split("\t")
    assert "c_index" in header and "fold" in header


def test_cv_bad_format_exits_2(tmp_path, data_csv, hp_file):
    assert main(["cv", "--data", data_csv, "--hp", hp_file,
                 "--out", str(tmp_path / "cv"), "--format", "xml"]) == 2
    assert not (tmp_path / "cv").exists()


def test_cv_missing_data_file_exits_2_naming_it(tmp_path, hp_file, capsys):
    missing = tmp_path / "nonexistent.csv"
    assert main(["cv", "--data", str(missing), "--hp", hp_file,
                 "--out", str(tmp_path / "cv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("bad", ["--data", "--hp"])
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, data_csv, hp_file, capsys, bad):
    # both exited 2 with only "'utf-8' codec can't decode byte 0xff in position ..."
    files = {"--data": data_csv, "--hp": hp_file}
    broken = tmp_path / "broken"
    raw = open(files[bad], "rb").read()
    broken.write_bytes(raw.replace(b"\n", b"\n\xff", 1) if bad == "--data" else b"\xff" + raw)
    files[bad] = str(broken)
    assert main(["cv", "--data", files["--data"], "--hp", files["--hp"], "--workers", "1",
                 "--out", str(tmp_path / "cv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{broken}" in err and "not UTF-8 text" in err


def test_cv_out_naming_a_file_exits_2_naming_it(tmp_path, data_csv, hp_file, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert main(["cv", "--data", data_csv, "--hp", hp_file, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


# ---------------------------------------------------------------------------
# gridsearch
# ---------------------------------------------------------------------------

def _grid_file(tmp_path, sweep, base=FAST_HP):
    return _write_json(tmp_path / "grid.json", {"sweep": sweep, "base": base})


def test_gridsearch_reports_points_and_best(tmp_path, data_csv):
    grid = _grid_file(tmp_path, {"learning_rate": [1e-2, 1e-3]})
    out = tmp_path / "gs"
    assert main(["gridsearch", "--data", data_csv, "--grid", grid,
                 "--k", "2", "--seed", "1", "--out", str(out)]) == 0
    points = [json.loads(line) for line in
              (out / "points.jsonl").read_text().splitlines()]
    assert [p["index"] for p in points] == [0, 1]
    assert all(not p["failed"] for p in points)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "gridsearch"
    assert summary["total_runs"] == 2
    assert summary["best_index"] in (0, 1)
    best = points[summary["best_index"]]
    assert summary["best_mean_c_index"] == best["mean_c_index"]
    assert summary["best_hp"] == best["hp"]


def test_gridsearch_budget(tmp_path, data_csv):
    grid = _grid_file(tmp_path, {"learning_rate": [1e-2, 1e-3, 1e-4]})
    out = tmp_path / "gs"
    assert main(["gridsearch", "--data", data_csv, "--grid", grid,
                 "--k", "2", "--budget", "1", "--out", str(out)]) == 0
    points = (out / "points.jsonl").read_text().splitlines()
    assert len(points) == 1


def test_gridsearch_worker_count_does_not_change_reports(tmp_path, data_csv):
    grid = _grid_file(tmp_path, {"learning_rate": [1e-2, 1e-3]})
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    for out, workers in ((out1, "1"), (out4, "4")):
        assert main(["gridsearch", "--data", data_csv, "--grid", grid,
                     "--k", "2", "--seed", "2", "--workers", workers,
                     "--out", str(out)]) == 0
    assert (out1 / "points.jsonl").read_bytes() == (out4 / "points.jsonl").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out4 / "summary.json").read_bytes()


@pytest.mark.parametrize("base", [5, None, [1]])
def test_grid_file_base_that_is_not_an_object_exits_2(tmp_path, data_csv, capsys, base):
    # a base of 5 or null ended in a TypeError traceback (exit 1)
    grid = _grid_file(tmp_path, {"learning_rate": [1e-2]}, base)
    assert main(["gridsearch", "--data", data_csv, "--grid", grid, "--k", "2",
                 "--workers", "1", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid file 'base' must be an object")
    assert "Traceback" not in err


def test_gridsearch_flat_grid_file_without_base(tmp_path, data_csv):
    # a bare sweep mapping is accepted; base hp stay at defaults except
    # the file's swept fields, so keep the net small via the sweep itself
    grid = _write_json(tmp_path / "grid.json", {
        "n_blocks": [1], "nodes": [8], "dense_layers_per_block": [2],
        "dropout_rate": [0.0], "learning_rate": [1e-2],
    })
    out = tmp_path / "gs"
    assert main(["gridsearch", "--data", data_csv, "--grid", grid,
                 "--k", "2", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_runs"] == 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_three_models_share_folds(tmp_path, data_csv, hp_file):
    out = tmp_path / "cmp"
    assert main(["compare", "--data", data_csv, "--hp", hp_file,
                 "--k", "2", "--seed", "4", "--out", str(out)]) == 0
    records = [json.loads(line) for line in
               (out / "models.jsonl").read_text().splitlines()]
    by_model = {}
    for r in records:
        by_model.setdefault(r["model"], []).append(r)
    assert set(by_model) == {"ressurv", "mlp_ablation", "linear_cox"}
    for model, recs in by_model.items():
        assert [r["fold"] for r in recs] == [0, 1], model
    # identical fold membership: the per-fold test counts agree across models
    for f in range(2):
        counts = {m: by_model[m][f]["n_test"] for m in by_model}
        assert len(set(counts.values())) == 1
    assert all("newton_converged" in r for r in by_model["linear_cox"])

    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "compare"
    assert set(summary["models"]) == {"ressurv", "mlp_ablation", "linear_cox"}
    assert summary["fold_hash"]
    # one fold summary for every model: the population mean and std (ddof 0)
    # of its fold C-indexes
    for model, stats in summary["models"].items():
        values = np.array([r["c_index"] for r in by_model[model]])
        assert stats["mean_c_index"] == values.mean(), model
        assert stats["std_c_index"] == values.std(), model
        assert 0.0 <= stats["mean_c_index"] <= 1.0


def test_compare_worker_count_does_not_change_reports(tmp_path, data_csv, hp_file):
    outs = {}
    for workers in ("1", "2"):
        outs[workers] = tmp_path / f"w{workers}"
        assert main(["compare", "--data", data_csv, "--hp", hp_file, "--k", "2",
                     "--seed", "4", "--workers", workers, "--out", str(outs[workers])]) == 0
    for name in ("models.jsonl", "summary.json"):
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name


def test_in_process_units_compute_the_bits_pool_workers_do(tmp_path):
    # OpenBLAS starts with a thread per core unless OPENBLAS_NUM_THREADS says
    # otherwise, and at p = 120 its threaded (width, n) x (n, p) product in the
    # first block's weight gradient rounds differently from the one-thread
    # product of a pool worker: in-process units run under the workers' count
    spec = {**SYNTH_SPEC, "n": 1000, "p": 120, "seed": 5,
            "true_coefficients": [1.0, -0.8, 0.6, -0.5, 0.4] + [0.0] * 115}
    hp = {"n_blocks": 2, "dense_layers_per_block": 2, "nodes": 16,
          "max_epochs": 4, "patience": 5, "seed": 5}
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS" and not k.startswith("RESSURV_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ressurv.__file__))

    def cli(*argv):
        subprocess.run([sys.executable, "-m", "ressurv.cli", *argv], env=env, check=True,
                       capture_output=True, cwd=tmp_path, timeout=300)

    data = str(tmp_path / "data.csv")
    cli("synth", "--spec", _write_json(tmp_path / "spec.json", spec), "--out", data)
    hp_path = _write_json(tmp_path / "hp.json", hp)
    for workers in ("1", "2"):
        cli("compare", "--data", data, "--hp", hp_path, "--k", "3", "--seed", "5",
            "--workers", workers, "--out", str(tmp_path / workers))
    for name in ("models.jsonl", "summary.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
    meta = json.loads((tmp_path / "1" / "meta.json").read_text())
    assert meta["worker_openblas_num_threads"] == "1"


# ---------------------------------------------------------------------------
# environment fallback
# ---------------------------------------------------------------------------

def test_env_var_supplies_missing_flag(tmp_path, data_csv, hp_file, monkeypatch):
    out = tmp_path / "cv"
    monkeypatch.setenv("RESSURV_SEED", "7")
    monkeypatch.setenv("RESSURV_K", "2")
    assert main(["cv", "--data", data_csv, "--hp", hp_file,
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 7 and summary["k"] == 2


def test_flag_beats_env_var(tmp_path, data_csv, hp_file, monkeypatch):
    out = tmp_path / "cv"
    monkeypatch.setenv("RESSURV_SEED", "7")
    assert main(["cv", "--data", data_csv, "--hp", hp_file,
                 "--k", "2", "--seed", "3", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 3


def test_meta_file_records_backend_and_argv(tmp_path, data_csv, hp_file, monkeypatch):
    # the argv main was given, not the host program's sys.argv
    monkeypatch.setattr(sys, "argv", ["host-program", "--host-flag"])
    out = tmp_path / "cv"
    argv = ["cv", "--data", data_csv, "--hp", hp_file, "--k", "2", "--out", str(out)]
    assert main(argv) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["schema"] == REPORT_SCHEMA
    assert "wall_time_s" in meta and "created_unix" in meta
    assert meta["argv"] == argv


# --k 2 makes 2 units, so a request for 6 workers opens a pool of 2
@pytest.mark.parametrize("workers, blas", [("1", "1"), ("2", "1"), ("6", "1")])
def test_meta_file_records_the_parallel_setup(tmp_path, data_csv, hp_file, monkeypatch,
                                              workers, blas):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    out = tmp_path / "cv"
    assert main(["cv", "--data", data_csv, "--hp", hp_file, "--k", "2",
                 "--workers", workers, "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["workers"] == min(int(workers), 2)
    assert meta["usable_cores"] == len(os.sched_getaffinity(0))
    assert meta["worker_openblas_num_threads"] == blas


def test_meta_file_records_when_each_pool_worker_started(tmp_path, data_csv, hp_file):
    _, serial = _cv_meta(tmp_path, data_csv, hp_file, "serial", "--workers", "1")
    assert serial["worker_start_s"] is None
    _, pooled = _cv_meta(tmp_path, data_csv, hp_file, "pooled", "--workers", "2")
    starts = pooled["worker_start_s"]
    assert 1 <= len(starts) <= 2 and starts == sorted(starts)
    assert all(0 <= s <= pooled["wall_time_s"] for s in starts)


def _degenerate_fold_csv(path):
    # events at rows 0, 5, 10, 15 only: with k=5 the held-out fold 4 gets none
    ds = make_dataset(n=40, p=3, seed=0)
    events = np.zeros(ds.n, dtype=bool)
    events[[0, 5, 10, 15]] = True
    write_csv(SurvivalDataset(ds.sample_ids, ds.features, ds.feature_names, ds.times,
                              events), path)


@pytest.mark.parametrize("command", ["cv", "gridsearch", "compare"])
@pytest.mark.parametrize("data, message", [
    ("bad_row", "error: row 3: time value 'abc' is not numeric"),
    ("degenerate_fold", "error: fold 4: the held-out split has no comparable pair"),
])
def test_pooled_commands_reject_bad_input_before_any_unit_trains(
        tmp_path, data_csv, hp_file, capsys, monkeypatch, command, data, message):
    csv_path = tmp_path / f"{data}.csv"
    if data == "bad_row":
        lines = open(data_csv).read().splitlines()
        cells = lines[3].split(",")
        cells[1] = "abc"   # the time of data row 3
        lines[3] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
    else:
        _degenerate_fold_csv(csv_path)
    pool_tmp = tmp_path / "pool_tmp"
    pool_tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(pool_tmp))
    opened = []
    monkeypatch.setattr(training.UnitPool, "map_units", _no_pool)
    real_init = training.UnitPool.__init__

    def init(self, size):
        real_init(self, size)
        opened.append(size)

    monkeypatch.setattr(training.UnitPool, "__init__", init)
    extra = (["--grid", _write_json(tmp_path / "grid.json", {"learning_rate": [1e-2]})]
             if command == "gridsearch" else ["--hp", hp_file])
    assert main([command, "--data", str(csv_path), *extra, "--k", "5",
                 "--workers", "2", "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert opened == [2]
    assert multiprocessing.active_children() == []
    assert list(pool_tmp.iterdir()) == []


def test_program_read_from_stdin_gets_an_error_line_not_a_traceback(tmp_path, data_csv,
                                                                   hp_file):
    argv = ["cv", "--data", data_csv, "--hp", hp_file, "--k", "2", "--workers", "2",
            "--out", str(tmp_path / "cv")]
    program = f"import sys\nfrom ressurv.cli import main\nsys.exit(main({argv!r}))\n"
    src = os.path.dirname(os.path.dirname(ressurv.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-"], input=program, capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: the worker pool broke")
    assert "--workers 1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "cv" / "folds.jsonl").exists()


def _cv_meta(tmp_path, data_csv, hp_file, name, *extra):
    out = tmp_path / name
    assert main(["cv", "--data", data_csv, "--hp", hp_file, "--k", "2",
                 *extra, "--out", str(out)]) == 0
    return out, json.loads((out / "meta.json").read_text())


def test_default_workers_is_the_usable_cores(tmp_path, data_csv, hp_file, monkeypatch):
    monkeypatch.delenv("RESSURV_WORKERS", raising=False)
    pooled, meta = _cv_meta(tmp_path, data_csv, hp_file, "default")
    # --k 2 makes 2 units: the pool is no larger
    assert meta["usable_cores"] == len(os.sched_getaffinity(0))
    assert meta["workers"] == min(meta["usable_cores"], 2)
    serial, _ = _cv_meta(tmp_path, data_csv, hp_file, "serial", "--workers", "1")
    for name in ("folds.jsonl", "summary.json"):
        assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def test_default_workers_on_one_core_run_in_process(tmp_path, data_csv, hp_file,
                                                    monkeypatch):
    monkeypatch.delenv("RESSURV_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr("ressurv.training.ProcessPoolExecutor", _no_pool)
    _, meta = _cv_meta(tmp_path, data_csv, hp_file, "cv")
    assert meta["workers"] == meta["usable_cores"] == 1
    assert meta["worker_openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS", "1")


def test_workers_env_var_beats_the_core_count(tmp_path, data_csv, hp_file, monkeypatch):
    monkeypatch.setenv("RESSURV_WORKERS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr("ressurv.training.ProcessPoolExecutor", _no_pool)
    _, meta = _cv_meta(tmp_path, data_csv, hp_file, "cv")
    assert meta["workers"] == 1 and meta["usable_cores"] == 4
    assert meta["worker_openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS", "1")


@pytest.mark.parametrize("name, value", [("RESSURV_FORMAT", "xml"), ("RESSURV_K", "abc")])
def test_bad_env_value_exits_2_writing_nothing(tmp_path, data_csv, hp_file, monkeypatch,
                                               name, value):
    # an env value is checked exactly like the flag it stands for (see
    # test_cv_bad_format_exits_2), before any work
    monkeypatch.setenv(name, value)
    out = tmp_path / "cv"
    assert main(["cv", "--data", data_csv, "--hp", hp_file, "--out", str(out)]) == 2
    assert not out.exists()
