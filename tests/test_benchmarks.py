"""The scripts under `benchmarks/` run on the package.

`benchmarks/bench_epoch.py` times the layer kernels through the public
model API, `benchmarks/bench_concordance.py` checks the concordance sweep's
counts against the pairwise scan before it times them, and
`benchmarks/bench_csv.py` times the CSV writer and reader, and
`benchmarks/bench_pool.py` times `cv` at one worker per core against the
default pool. Nothing else runs them, so these tests run all four on tiny
shapes: a change to the model, metrics, data or CLI API that breaks a script
fails here.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TINY = dict(n_train=12, n_val=5, p=3, widths=[4, 4], layers=2, activation="selu",
            dropout=0.2)


def _load(name: str):
    """Import benchmarks/<name>.py. bench_epoch and bench_pool put
    perfbench/ on sys.path to import `run` (which imports `tracer`); both
    are taken back after."""
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
    assert bench.LOSS_AND_GRADIENT is bench.cox.loss_and_gradient
    stages = []
    concordance = bench.concordance_fast
    monkeypatch.setattr(bench, "concordance_fast",
                        lambda *args: stages.append("val_c_index") or concordance(*args))
    # the fused Cox function, then the two calls of a checkout without it
    for loss_and_gradient in (bench.LOSS_AND_GRADIENT, bench._separate_loss_and_gradient):
        monkeypatch.setattr(bench, "LOSS_AND_GRADIENT", lambda h, index, fn=loss_and_gradient:
                            stages.append("cox") or fn(h, index))
        seconds = list(bench.run_epochs(TINY, 2))
        assert len(seconds) == 2
        assert all(len(s) == len(bench.STAGES) and min(s) >= 0 for s in seconds)
    assert stages == ["cox", "val_c_index"] * 4
    assert bench.traced_peak_mb(TINY) > 0


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


def test_bench_pool_runs_a_pair_and_compares_the_report_bytes(capsys):
    bench = _load("bench_pool")
    assert bench.main(["--n", "120", "--p", "3", "--k", "3", "--epochs", "2",
                       "--pairs", "1"]) == 0
    out = capsys.readouterr().out
    assert "report bytes identical" in out and "/1 pairs" in out
