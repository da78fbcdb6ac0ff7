import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import ressurv
from conftest import USER_BLAS_THREADS, fold_1_feature_dataset, make_dataset
from ressurv import cli, data, training
from ressurv.cli import REPORT_SCHEMA, TRUTH_SCHEMA, main
from ressurv.data import SurvivalDataset, load_csv, write_csv
from ressurv.model import load_checkpoint, model_forward
from ressurv.training import default_workers

FAST_HP = {
    "n_blocks": 1, "nodes": 8, "dense_layers_per_block": 2,
    "dropout_rate": 0.0, "max_epochs": 20, "patience": 5,
}

# overflow-by-construction: loss-side L2 gradient alone inflates the weights
# every sgd step, and patience outlasts the epochs the network survives
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


def test_synth_bytes_are_pinned_and_take_the_numpy_parse(tmp_path):
    # CRLF line ends, shortest-repr floats and a one-line sorted-key sidecar.
    # The values come from numpy's generator and its exp and log, so another
    # numpy build may need the digests recorded anew; a change to the writers
    # may not
    spec = _write_json(tmp_path / "spec.json", SYNTH_SPEC)
    out = tmp_path / "data.csv"
    assert main(["synth", "--spec", spec, "--out", str(out)]) == 0
    digests = [hashlib.sha256(f.read_bytes()).hexdigest()
               for f in (out, tmp_path / "data.csv.truth.json")]
    assert digests == ["36e4d14662eba0eecb5cf36df91c2ff5d554f36c30bdd18aa6c5059fefd98703",
                       "f2f4d9783d6822a2c0a8f37d33df7232efc6196d9711ffc4c6bb442286223595"]
    # every benchmark input is a synth file: numpy parses it, not the row scan
    with mock.patch.object(data, "_scan_rows", side_effect=AssertionError("row scan ran")):
        assert load_csv(out).n == SYNTH_SPEC["n"]


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
    ("seed", -1),
])
def test_synth_mistyped_spec_field_exits_2_naming_it(tmp_path, capsys, field, value):
    # n = 2.5 ended in a TypeError traceback (exit 1); n = true made 1 row;
    # true_coefficients 5 was an "incomplete" spec, "ab" named no field,
    # ["1", 2, 3] and [true, 1.0, 0.5] were accepted, NaN failed as a bad time,
    # an integer beyond float64 ended in an OverflowError traceback (exit 1),
    # and a negative seed in numpy's "expected non-negative integer"
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
    assert set(summary) == {"schema", "command", "checkpoint", "hp", "n_train",
                            "n_val", "n_features", "feature_names", "best_epoch",
                            "best_val_loss", "best_val_c_index", "stopped_early",
                            "epochs_run"}
    assert summary["schema"] == REPORT_SCHEMA
    assert summary["command"] == "train"
    assert summary["hp"]["seed"] == 3
    assert summary["best_epoch"] >= 1
    assert summary["checkpoint"] == "model.ckpt"

    records = [json.loads(line) for line in
               (out / "epochs.jsonl").read_text().splitlines()]
    assert len(records) == summary["epochs_run"]
    assert all(set(r) == {"epoch", "learning_rate", "train_loss", "val_loss", "val_c_index"}
               for r in records)
    assert records[0]["epoch"] == 1
    best = min(r["val_loss"] for r in records)
    assert abs(best - summary["best_val_loss"]) < 1e-12

    # the checkpoint carries hp, which holds the seed, and the training-side
    # standardization
    params, std, extra = load_checkpoint(out / "model.ckpt")
    assert extra == {"hp": summary["hp"]}
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


def test_train_seeds_the_fit_from_the_seed_flag_alone(tmp_path, data_csv):
    # an hp file's seed gives way to --seed: the run trains the same bits as
    # the one whose hp file holds that seed, and its summary and checkpoint
    # record the seed the fit used
    runs = {}
    for hp_seed in (7, 3):
        hp = _write_json(tmp_path / f"hp{hp_seed}.json",
                         {**FAST_HP, "dropout_rate": 0.2, "seed": hp_seed})
        runs[hp_seed] = tmp_path / f"hp-seed-{hp_seed}"
        assert main(["train", "--data", data_csv, "--hp", hp, "--seed", "3",
                     "--out", str(runs[hp_seed])]) == 0
    for name in ("epochs.jsonl", "summary.json", "model.ckpt"):
        assert (runs[7] / name).read_bytes() == (runs[3] / name).read_bytes(), name
    summary = json.loads((runs[7] / "summary.json").read_text())
    assert summary["hp"]["seed"] == 3
    _, _, extra = load_checkpoint(runs[7] / "model.ckpt")
    assert extra["hp"]["seed"] == 3


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
    assert f"error: the dataset {censored} has no comparable pair" in capsys.readouterr().err


def test_train_divergence_exits_3(tmp_path, data_csv):
    hp = _write_json(tmp_path / "boom.json", DIVERGENT_HP)
    code = main(["train", "--data", data_csv, "--hp", hp,
                 "--out", str(tmp_path / "run")])
    assert code == 3


def test_cv_divergence_writes_one_stderr_line(tmp_path, data_csv):
    # the error names the fold and the stage, and no numpy warning from the
    # pool's workers comes before it
    hp = _write_json(tmp_path / "boom.json", DIVERGENT_HP)
    env = {k: v for k, v in os.environ.items() if not k.startswith("RESSURV_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ressurv.__file__))
    proc = subprocess.run([sys.executable, "-m", "ressurv.cli", "cv", "--data", data_csv,
                           "--hp", hp, "--k", "3", "--out", str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert proc.returncode == 3
    assert proc.stderr == ("error: non-finite loss at epoch 20 (fold 0: validation loss); "
                           "the learning rate is likely too high\n")


def test_train_missing_data_flag_exits_2(tmp_path, hp_file):
    assert main(["train", "--hp", hp_file, "--out", str(tmp_path / "run")]) == 2


def test_train_bad_hp_key_exits_2(tmp_path, data_csv):
    hp = _write_json(tmp_path / "hp.json", {"momentum": 0.9})
    assert main(["train", "--data", data_csv, "--hp", hp,
                 "--out", str(tmp_path / "run")]) == 2


def _late_events_csv(path, late_rows, early_rows=()):
    """A CSV whose events are the rows `late_rows`, moved to the latest
    time, and the rows `early_rows`, at their own times."""
    ds = make_dataset(n=40, p=3, seed=0)
    times, events = ds.times.copy(), np.zeros(ds.n, dtype=bool)
    events[[*late_rows, *early_rows]] = True
    times[late_rows] = times.max()
    write_csv(SurvivalDataset(ds.sample_ids, ds.features, ds.feature_names, times, events),
              path)
    return str(path)


def test_train_checks_its_early_stop_split_before_training(tmp_path, hp_file, capsys,
                                                           monkeypatch):
    # two events, the second at the latest time: the dataset holds a
    # comparable pair, but the side of the split that --seed 1 gives the
    # second event has none
    path = _late_events_csv(tmp_path / "late_event.csv", [17], early_rows=[3])
    monkeypatch.setattr(training, "train", lambda *a, **kw: pytest.fail("train ran"))
    out = tmp_path / "run"
    assert main(["train", "--data", path, "--hp", hp_file, "--seed", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: the early-stop validation split has no "
                                       "comparable pair (an event followed by a strictly "
                                       "later time)\n")
    for name in ("model.ckpt", "epochs.jsonl", "summary.json"):
        assert not (out / name).exists(), name


@pytest.mark.parametrize("command", ["train", "cv", "gridsearch", "compare"])
def test_a_dataset_without_a_comparable_pair_exits_2_naming_it(tmp_path, hp_file, capsys,
                                                              monkeypatch, command):
    # all 6 events sit at the latest time: no event is followed by a later
    # time, so the load check refuses the dataset before any split or fold
    path = _late_events_csv(tmp_path / "late_events.csv", [0, 7, 14, 21, 28, 35])
    calls = []
    monkeypatch.setattr(training, "train", lambda *a, **kw: calls.append(1))
    monkeypatch.setattr(training, "ProcessPoolExecutor", _no_pool)
    extra = (["--grid", _write_json(tmp_path / "grid.json", {"learning_rate": [1e-2]})]
             if command == "gridsearch" else ["--hp", hp_file])
    extra += [] if command == "train" else ["--workers", "1"]
    out = tmp_path / "run"
    assert main([command, "--data", path, *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: the dataset {path} has no comparable pair "
                                       "(an event followed by a strictly later time)\n")
    assert calls == []
    assert not (out / "summary.json").exists()


def test_train_refuses_a_standardization_beyond_float64_before_training(
        tmp_path, hp_file, capsys, monkeypatch):
    # x0 alternates 0 and 1e-3, so its deviation is about 5e-4, and data
    # row 8 holds 1e305, which seed 3 puts on the validation side: scaled
    # by the training side's deviation it goes past float64's range. The
    # error named a validation row and a value the file does not hold
    ds = make_dataset(n=40, p=2, seed=1)
    x0 = np.tile([0.0, 1e-3], 20)
    x0[7] = 1e305
    path = tmp_path / "huge.csv"
    write_csv(SurvivalDataset(ds.sample_ids, np.column_stack([x0, ds.features[:, 1]]),
                              ds.feature_names, ds.times, ds.events), path)
    monkeypatch.setattr(training, "train", lambda *a, **kw: pytest.fail("train ran"))
    out = tmp_path / "run"
    assert main(["train", "--data", str(path), "--hp", hp_file, "--seed", "3",
                 "--out", str(out)]) == 2
    assert re.fullmatch(r"error: feature 'x0' standardizes by mean \S+ and standard "
                        r"deviation \S+ to values beyond float64's range\n",
                        capsys.readouterr().err)
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command, argv, env", [("train", ["--seed", "-1"], {}),
                                               ("cv", [], {"RESSURV_SEED": "-1"})])
def test_a_negative_seed_exits_2_naming_the_flag(tmp_path, data_csv, hp_file, capsys,
                                                 monkeypatch, command, argv, env):
    # numpy's seeding refused it, with "error: expected non-negative integer"
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "run"
    assert main([command, "--data", data_csv, "--hp", hp_file, *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --seed: must be a non-negative integer, not '-1'\n")
    assert not out.exists()


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


def test_hp_file_with_a_utf8_byte_order_mark_loads(tmp_path, hp_file):
    # it failed as "is not valid JSON: Unexpected UTF-8 BOM"
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + open(hp_file, "rb").read())
    assert cli.load_hyperparameters(str(marked)) == cli.load_hyperparameters(hp_file)


@pytest.mark.parametrize("line, where", [(0, "{path}: header row: "), (3, "row 3: ")])
def test_quoted_cell_over_the_csv_field_limit_exits_2_naming_where(
        tmp_path, data_csv, hp_file, capsys, line, where):
    # csv.reader's "field larger than field limit" escaped as a traceback (exit 1)
    lines = open(data_csv).read().splitlines()
    cells = lines[line].split(",")
    cells[-1] = '"' + "1" * 140_000 + '"'
    lines[line] = ",".join(cells)
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["cv", "--data", str(path), "--hp", hp_file, "--workers", "1",
                 "--out", str(tmp_path / "cv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + where.format(path=path) + "field larger than field limit")


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


def test_gridsearch_records_a_diverged_point(tmp_path, data_csv):
    base = {k: v for k, v in DIVERGENT_HP.items() if k != "learning_rate"}
    grid = _grid_file(tmp_path, {"learning_rate": [0.1, 1e-3]}, base)
    out = tmp_path / "gs"
    assert main(["gridsearch", "--data", data_csv, "--grid", grid, "--k", "2",
                 "--workers", "1", "--out", str(out)]) == 0
    failed, survivor = [json.loads(line) for line in
                        (out / "points.jsonl").read_text().splitlines()]
    assert {k: v for k, v in failed.items() if k != "hp"} == {
        "index": 0, "failed": True, "mean_c_index": None, "std_c_index": None,
        "fold_c_indexes": [],
        "error": ("non-finite loss at epoch 20 (fold 0: validation loss); "
                  "the learning rate is likely too high"),
    }
    assert failed["hp"]["learning_rate"] == 0.1
    assert not survivor["failed"] and survivor["error"] is None
    assert len(survivor["fold_c_indexes"]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["best_index"] == 1 and summary["total_runs"] == 2


def test_grid_file_base_seed_exits_2_before_the_csv_is_read(tmp_path, capsys):
    # every point's seed comes from --seed and its index, so a base seed
    # would be ignored
    grid = _grid_file(tmp_path, {"learning_rate": [1e-2]}, {**FAST_HP, "seed": 5})
    assert main(["gridsearch", "--data", str(tmp_path / "missing.csv"), "--grid", grid,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid file 'base' sets seed") and "--seed" in err
    assert "missing.csv" not in err


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


def test_pooled_compare_fits_the_oracle_in_the_workers(tmp_path, data_csv, hp_file,
                                                      monkeypatch):
    # every Newton fit is a unit of the pool's one pass, none is left to the
    # command's own process
    pids = tmp_path / "newton_pids"
    real_fit = cli.fit_linear_cox_newton

    def fit(*args, **kwargs):
        with open(pids, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_linear_cox_newton", fit)
    outs = {}
    for workers in ("2", "1"):
        outs[workers] = tmp_path / f"w{workers}"
        assert main(["compare", "--data", data_csv, "--hp", hp_file, "--k", "3",
                     "--seed", "4", "--workers", workers, "--out", str(outs[workers])]) == 0
        if workers == "2":
            pooled = pids.read_text().split()
    assert len(pooled) == 3 and str(os.getpid()) not in pooled
    assert pids.read_text().split()[3:] == [str(os.getpid())] * 3
    for name in ("models.jsonl", "summary.json"):
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name


@pytest.mark.parametrize("command", ["cv", "compare"])
def test_a_fold_left_without_features_exits_2_naming_it(tmp_path, hp_file, capsys, command):
    path = tmp_path / "fold_1_feature.csv"
    write_csv(fold_1_feature_dataset(), path)
    assert main([command, "--data", str(path), "--hp", hp_file, "--k", "2", "--seed", "0",
                 "--out", str(tmp_path / "out")]) == 2
    assert "error: fold 1: no features retained" in capsys.readouterr().err


def test_compare_worker_count_does_not_change_reports(tmp_path, data_csv, hp_file):
    outs = {}
    for workers in ("1", "2"):
        outs[workers] = tmp_path / f"w{workers}"
        assert main(["compare", "--data", data_csv, "--hp", hp_file, "--k", "2",
                     "--seed", "4", "--workers", workers, "--out", str(outs[workers])]) == 0
    for name in ("models.jsonl", "summary.json"):
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name


def _fresh_python(cwd, *args, blas_threads=None) -> str:
    """Run Python with `args` as a fresh process, with OPENBLAS_NUM_THREADS
    set to `blas_threads`, or unset for None, so that OpenBLAS starts as it
    would for a user; its standard output, stripped."""
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS" and not k.startswith("RESSURV_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ressurv.__file__))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True,
                          text=True, cwd=cwd, timeout=300).stdout.strip()


def _cli_process(cwd, *argv, blas_threads=None):
    """Run the CLI as a fresh process (see `_fresh_python`)."""
    _fresh_python(cwd, "-m", "ressurv.cli", *argv, blas_threads=blas_threads)


def test_importing_the_package_loads_no_numpy(tmp_path):
    # `python -m ressurv.cli` imports the package before the CLI module, and
    # the CLI must set OPENBLAS_NUM_THREADS before numpy loads
    out = _fresh_python(tmp_path, "-c", "import sys, ressurv\n"
                        "print('numpy' in sys.modules)\n"
                        "names = {}\n"
                        "exec('from ressurv import *', names)\n"
                        "print(sorted(set(ressurv.__all__) - set(names)))")
    assert out.splitlines() == ["False", "[]"]


@pytest.mark.parametrize("blas_threads", [None, "3"])
def test_the_cli_loads_openblas_at_the_units_count(tmp_path, blas_threads):
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it: the CLI
    # sets the units' default count unless the user set a count, which wins
    # (OpenBLAS caps it at the cores, as it does without the CLI)
    read = "print(ressurv.training._openblas('scipy_openblas_get_num_threads')())"
    cli_count = _fresh_python(tmp_path, "-c", f"import ressurv.cli\n{read}",
                              blas_threads=blas_threads)
    if cli_count == "None":
        pytest.skip("numpy bundles no OpenBLAS with a thread-count getter")
    user_count = _fresh_python(tmp_path, "-c", f"import numpy, ressurv.training\n{read}",
                               blas_threads=blas_threads)
    units_count = int(training.WORKER_BLAS_THREADS)
    assert int(cli_count) == (units_count if blas_threads is None else int(user_count))


def test_the_suite_computes_under_the_units_blas_count():
    # conftest.py sets the units' count before numpy loads, so the suite's
    # in-process fits run under the BLAS thread count of a pool unit, unless
    # the user set a count, which stands
    assert os.environ["OPENBLAS_NUM_THREADS"] == (
        training.WORKER_BLAS_THREADS if USER_BLAS_THREADS is None else USER_BLAS_THREADS)
    count = training._openblas("scipy_openblas_get_num_threads")()
    if count is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread-count getter")
    if USER_BLAS_THREADS is None:
        assert count == int(training.WORKER_BLAS_THREADS)


@pytest.mark.parametrize("n, p, informative", [
    # perfbench/run.py's three inputs (cv-paper, grid-cohort, compare-wide)
    (2000, 20, [1.0, -0.8, 0.7, -0.6, 0.5, -0.4, 0.3, -0.2, 0.2, -0.1]),
    (20000, 8, [1.0, -0.8, 0.6, -0.4, 0.3, -0.2, 0.1]),
    (1000, 120, [1.0, -0.8, 0.6, -0.5, 0.4]),
    # wide and long enough that OpenBLAS threads `X @ beta` where it may
    (20000, 120, [1.0, -0.8, 0.6, -0.5, 0.4]),
])
def test_synth_writes_the_same_bytes_under_the_units_blas_count(tmp_path, n, p, informative):
    # synth runs under the CLI's default count, one thread, like every unit
    spec = {"n": n, "p": p, "hazard_kind": "linear", "target_censor_rate": 0.3, "seed": 1,
            "true_coefficients": informative + [0.0] * (p - len(informative))}
    spec_path = _write_json(tmp_path / "spec.json", spec)
    for blas in (None, "1"):
        _cli_process(tmp_path, "synth", "--spec", spec_path, "--out",
                     str(tmp_path / f"{blas}.csv"), blas_threads=blas)
    for suffix in (".csv", ".csv.truth.json"):
        assert ((tmp_path / f"None{suffix}").read_bytes()
                == (tmp_path / f"1{suffix}").read_bytes())


def test_in_process_units_compute_the_bits_pool_workers_do(tmp_path):
    # OpenBLAS starts with a thread per core unless OPENBLAS_NUM_THREADS says
    # otherwise, and at p = 120 its threaded (width, n) x (n, p) product in the
    # first block's weight gradient rounds differently from the one-thread
    # product of a pool worker: in-process units run under the workers' count
    spec = {**SYNTH_SPEC, "n": 1000, "p": 120, "seed": 5,
            "true_coefficients": [1.0, -0.8, 0.6, -0.5, 0.4] + [0.0] * 115}
    hp = {"n_blocks": 2, "dense_layers_per_block": 2, "nodes": 16,
          "max_epochs": 4, "patience": 5, "seed": 5}
    data = str(tmp_path / "data.csv")
    _cli_process(tmp_path, "synth", "--spec", _write_json(tmp_path / "spec.json", spec),
                 "--out", data)
    hp_path = _write_json(tmp_path / "hp.json", hp)
    for workers in ("1", "2"):
        _cli_process(tmp_path, "compare", "--data", data, "--hp", hp_path, "--k", "3",
                     "--seed", "5", "--workers", workers, "--out", str(tmp_path / workers))
    for name in ("models.jsonl", "summary.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
    meta = json.loads((tmp_path / "1" / "meta.json").read_text())
    assert meta["worker_openblas_num_threads"] == "1"


def test_train_fits_under_the_units_blas_count(tmp_path):
    # on 2 or more cores, OpenBLAS's default thread per core rounds the
    # paper-default net's products on 800 training rows differently from one
    # thread: train fits under the units' count, so its records do not
    # depend on the machine's cores
    spec = {**SYNTH_SPEC, "n": 1000, "p": 20, "seed": 5,
            "true_coefficients": [1.0, -0.8, 0.6, -0.5, 0.4] + [0.0] * 15}
    data = str(tmp_path / "data.csv")
    _cli_process(tmp_path, "synth", "--spec", _write_json(tmp_path / "spec.json", spec),
                 "--out", data)
    hp_path = _write_json(tmp_path / "hp.json", {"max_epochs": 3, "patience": 4, "seed": 5})
    for blas in (None, "1"):
        _cli_process(tmp_path, "train", "--data", data, "--hp", hp_path, "--seed", "5",
                     "--out", str(tmp_path / str(blas)), blas_threads=blas)
    for name in ("epochs.jsonl", "summary.json", "model.ckpt"):
        assert (tmp_path / "None" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
    meta = json.loads((tmp_path / "None" / "meta.json").read_text())
    assert meta["workers"] == 1 and meta["worker_openblas_num_threads"] == "1"


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
    assert serial["worker_start_s"] is None and serial["worker_end_s"] is None
    _, pooled = _cv_meta(tmp_path, data_csv, hp_file, "pooled", "--workers", "2")
    starts, ends = pooled["worker_start_s"], pooled["worker_end_s"]
    assert 1 <= len(starts) <= 2 and starts == sorted(starts)
    assert all(0 <= s <= pooled["wall_time_s"] for s in starts)
    # one end per worker; every worker ends after it starts, so the i-th
    # earliest end follows the i-th earliest start
    assert len(ends) == len(starts) and ends == sorted(ends)
    assert all(s < e <= pooled["wall_time_s"] for s, e in zip(starts, ends))


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
    # a pool builds its executor, and so starts its workers, only to map units
    monkeypatch.setattr(training, "ProcessPoolExecutor", _no_pool)
    opened = []
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


def test_program_read_from_stdin_runs_a_pool(tmp_path, data_csv, hp_file):
    # forked workers import nothing, so a program that cannot be re-imported
    # (one read from standard input) runs a pool as any other does
    src = os.path.dirname(os.path.dirname(ressurv.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for workers in ("2", "1"):
        argv = ["cv", "--data", data_csv, "--hp", hp_file, "--k", "2", "--workers", workers,
                "--out", str(tmp_path / workers)]
        program = f"import sys\nfrom ressurv.cli import main\nsys.exit(main({argv!r}))\n"
        proc = subprocess.run([sys.executable, "-"], input=program, capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / workers / "meta.json").read_text())["workers"] == int(
            workers)
    for name in ("folds.jsonl", "summary.json"):
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


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


@pytest.mark.parametrize("units, cores, workers", [
    (5, 1, 1), (1, 4, 1),           # one core; fewer units than cores
    (4, 2, 2), (12, 4, 4),          # the units divide evenly over the cores
    (5, 2, 5), (10, 4, 10),         # they do not, and are under three per core
    (6, 2, 2), (7, 2, 2), (13, 4, 4),  # three or more per core
])
def test_default_workers_rule(units, cores, workers):
    assert default_workers(units, cores) == workers


def _two_core_cv(tmp_path, data_csv, hp_file, monkeypatch, name, *extra):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / name
    assert main(["cv", "--data", data_csv, "--hp", hp_file, "--k", "5", *extra,
                 "--out", str(out)]) == 0
    return out, json.loads((out / "meta.json").read_text())


def test_default_workers_start_every_unit_when_they_divide_unevenly(
        tmp_path, data_csv, hp_file, monkeypatch):
    # 5 folds on 2 cores would run 2 + 2 + 1, one core idle in the last round
    monkeypatch.delenv("RESSURV_WORKERS", raising=False)
    pooled, meta = _two_core_cv(tmp_path, data_csv, hp_file, monkeypatch, "default")
    assert meta["workers"] == 5 and meta["usable_cores"] == 2
    assert len(meta["worker_start_s"]) == len(meta["worker_end_s"]) <= 5
    serial, _ = _two_core_cv(tmp_path, data_csv, hp_file, monkeypatch, "serial",
                             "--workers", "1")
    for name in ("folds.jsonl", "summary.json"):
        assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name


@pytest.mark.parametrize("flag", [True, False])
def test_explicit_workers_stay_literal(tmp_path, data_csv, hp_file, monkeypatch, flag):
    monkeypatch.delenv("RESSURV_WORKERS", raising=False)
    if not flag:
        monkeypatch.setenv("RESSURV_WORKERS", "2")
    _, meta = _two_core_cv(tmp_path, data_csv, hp_file, monkeypatch, "cv",
                           *(["--workers", "2"] if flag else []))
    assert meta["workers"] == meta["usable_cores"] == 2


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
