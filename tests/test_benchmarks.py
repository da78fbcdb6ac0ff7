"""The scripts under `benchmarks/` run on the package.

`benchmarks/bench_epoch.py` times the stages of `train`'s own epochs by
wrapping the callees `train` looks up, `benchmarks/bench_concordance.py`
checks the concordance sweep's counts against the pairwise scan before it
times them, `benchmarks/bench_csv.py` times the CSV writer and reader, and
`benchmarks/bench_pool.py` times `cv` at one worker per core against the
default pool (or measures a fold unit's memory), and
`benchmarks/compare_reports.py` diffs the report bytes of
two source trees. Nothing else runs them, so these tests run all five on
tiny shapes: a change to the training, model, metrics, data or CLI API that
breaks a script fails here.
"""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TINY = dict(n_train=12, n_val=5, p=3, net=dict(n_blocks=2, dense_layers_per_block=2,
                                               nodes=4, activation_kind="selu",
                                               dropout_rate=0.2))


def _load(name: str):
    """Import benchmarks/<name>.py. bench_epoch, bench_pool and
    compare_reports put perfbench/ on sys.path to import `run` (which
    imports `tracer`); both are taken back after."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    path, modules = sys.path[:], {mod: sys.modules.get(mod) for mod in ("run", "tracer")}
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        for mod, old in modules.items():
            if old is None:
                sys.modules.pop(mod, None)
            else:
                sys.modules[mod] = old
    return module


def test_bench_epoch_runs_epochs_and_traces_their_memory(monkeypatch):
    bench = _load("bench_epoch")
    originals = [getattr(module, name) for module, name, _ in bench.WRAPPED]
    steps = dict(bench.training._STEP_FUNCTIONS)

    def unwrapped():
        return ([getattr(module, name) for module, name, _ in bench.WRAPPED] == originals
                and bench.training._STEP_FUNCTIONS == steps)

    assert bench.STAGES == ("forward_train", "cox", "backward", "step", "forward_eval",
                            "val_c_index", "other")
    assert bench.PARTS == ("mask",)
    assert (bench.model.DropoutStream, "mask", "mask") in bench.WRAPPED   # unwrapped after
    clock = bench.run_train(TINY, 3)
    assert unwrapped()
    assert len(clock.epochs) == len(clock.walls) == 3
    for epoch, wall in zip(clock.epochs, clock.walls):
        assert tuple(epoch) == bench.STAGES + bench.PARTS
        assert min(epoch.values()) >= 0 and epoch["forward_train"] > 0
        assert sum(epoch[stage] for stage in bench.STAGES if stage != "other") <= wall
        # `other` closes the sum; the masks are drawn within forward_train
        assert sum(epoch[stage] for stage in bench.STAGES) == pytest.approx(wall)
        assert 0 < epoch["mask"] <= epoch["forward_train"]
    times, walls, faults, dtype = bench.time_epochs(TINY, 2)
    assert set(times) == {*bench.STAGES, *bench.PARTS} and len(walls) == 2 and faults >= 0
    assert dtype == "float32" == clock.dtype
    assert all(len(seconds) == 2 for seconds in times.values())
    assert bench.traced_peak_mb(TINY) > 0
    assert unwrapped()

    def decay(*args):
        raise RuntimeError("a failing epoch")

    monkeypatch.setattr(bench.training, "decay_learning_rate", decay)
    with pytest.raises(RuntimeError, match="a failing epoch"):
        bench.run_train(TINY, 3)
    assert unwrapped()


def test_bench_concordance_counts_agree_at_small_n(monkeypatch, capsys):
    bench = _load("bench_concordance")
    monkeypatch.setattr(sys, "argv", ["bench_concordance.py", "--sizes", "40", "300",
                                      "--repeats", "1"])
    assert bench.main() == 0   # asserts identical counts before timing
    assert "counts verified identical up to" in capsys.readouterr().out


def test_bench_csv_writes_reads_back_and_traces_both(tmp_path):
    bench = _load("bench_csv")
    cells = bench.measure(bench.synth(30, 4), tmp_path / "tiny.csv", repeats=2)
    assert set(cells) == set(bench.CALLS)
    assert all(ms >= 0 and mb > 0 for ms, mb in cells.values())
    # a fresh process's load: its peak resident set may not grow at all
    assert bench.fresh_load_mb(tmp_path / "tiny.csv") >= 0
    with pytest.raises(subprocess.CalledProcessError):
        bench.fresh_load_mb(tmp_path / "missing.csv")


def test_bench_pool_runs_a_pair_and_compares_the_report_bytes(capsys):
    bench = _load("bench_pool")
    assert bench.main(["--n", "120", "--p", "3", "--k", "3", "--epochs", "2",
                       "--pairs", "1"]) == 0
    out = capsys.readouterr().out
    assert "report bytes identical" in out and "/1 pairs" in out


def test_bench_pool_measures_a_units_memory(capsys):
    bench = _load("bench_pool")
    assert bench.main(["--unit-memory", "--n", "120", "--p", "30", "--k", "3",
                       "--epochs", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("cv --k 3 on 120 x 30, 2 epochs, seed 1\n")
    # the unit's traced peak, and the RSS at the fork, the worker's and the command's
    figures = [float(mb) for mb in re.findall(r"(\d+\.\d+) MB", out)]
    assert len(figures) == 4 and all(mb > 0 for mb in figures)


def _made_dirs(bench, monkeypatch) -> list[Path]:
    """Record every temporary directory the loaded script makes."""
    made, mkdtemp = [], bench.tempfile.mkdtemp
    monkeypatch.setattr(bench.tempfile, "mkdtemp",
                        lambda **kw: made.append(Path(mkdtemp(**kw))) or str(made[-1]))
    return made


def test_compare_reports_finds_the_tree_the_same_as_itself(capsys, monkeypatch):
    bench = _load("compare_reports")
    made = _made_dirs(bench, monkeypatch)
    assert bench.main(["--against", str(ROOT / "src"), "--n", "120", "--p", "3",
                       "--epochs", "2", "--workers", "1", "default"]) == 0
    out = capsys.readouterr().out
    assert "0 of 17 runs differ or failed" in out
    assert "train adamw l2 4.0" in out and "same (epochs.jsonl, model.ckpt, summary.json)" in out
    assert "train x2 constant" in out and "cv x2 constant" in out
    assert "cv hp seed 7" in out and "compare hp seed 7" in out
    assert "gridsearch diverging point" in out
    # nothing differed, so nothing is kept
    assert len(made) == 1 and not made[0].exists() and "kept in" not in out


def test_compare_reports_keeps_the_outputs_when_a_run_fails(capsys, monkeypatch, tmp_path):
    bench = _load("compare_reports")
    made = _made_dirs(bench, monkeypatch)
    # the other side has no package, so each of its runs exits 1
    assert bench.main(["--against", str(tmp_path), "--n", "120", "--p", "3",
                       "--epochs", "2", "--workers", "1"]) == 1
    out = capsys.readouterr().out
    assert "14 of 14 runs differ or failed" in out
    assert f"inputs, outputs and logs kept in {made[0]}" in out
    assert (made[0] / "0-this" / "summary.json").is_file()
    assert "No module named" in (made[0] / "0-other.log").read_text()
    bench.shutil.rmtree(made[0])
