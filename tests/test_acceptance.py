"""End-to-end acceptance gate.

Each test pins one externally visible guarantee of the package and prints a
single [PASS]/[FAIL] line (with elapsed time) straight to the terminal, so a
full run reads as a checklist. Expected values come from hand computation or
from independent oracles (Newton-Raphson, the pairwise C-index definition,
finite differences), never from the implementation under test.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_survival_arrays
from ressurv import cox
from ressurv.cli import main
from ressurv.data import (
    SyntheticSpec,
    filter_features,
    filter_patients,
    generate_synthetic,
    standardize_apply,
    standardize_fit,
    stratified_holdout,
)
from ressurv.metrics import concordance_fast, concordance_index
from ressurv.model import (
    DropoutStream,
    batchnorm_forward,
    flat_layout,
    init_params,
    model_backward,
    model_forward,
    set_flat,
    to_flat,
)
from ressurv.training import (
    Hyperparameters,
    UnitPool,
    cross_validate_configs,
    decay_learning_rate,
    fold_unit,
    init_optimizer_state,
    plan_folds,
    sgd_step,
    stable_seed,
    train,
)


@contextmanager
def verdict(capsys, name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {name} ({time.perf_counter() - t0:.1f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"[PASS] {name} ({elapsed:.1f}s)", flush=True)
    assert elapsed < budget_s, f"{name} took {elapsed:.1f}s, budget {budget_s}s"


def test_cox_loss_hand_value_and_shift_invariance(capsys):
    with verdict(capsys, "cox loss: hand value and shift invariance", 1.0):
        # three samples, all events, all scores zero: risk sets shrink
        # 3 -> 2 -> 1, so the loss is (ln 3 + ln 2 + ln 1) / 3
        idx = cox.build_risk_index(np.array([1.0, 2.0, 3.0]), np.ones(3, dtype=bool))
        value = cox.neg_log_partial_likelihood(np.zeros(3), idx)
        assert abs(value - (np.log(3.0) + np.log(2.0)) / 3.0) < 1e-12

        rng = np.random.default_rng(0)
        for case in range(100):
            n = int(rng.integers(5, 120))
            times, events, _ = random_survival_arrays(n, 1000 + case)
            idx = cox.build_risk_index(times, events)
            h = rng.normal(size=n) * 3.0
            shift = float(rng.uniform(-50.0, 50.0))
            a = cox.neg_log_partial_likelihood(h, idx)
            b = cox.neg_log_partial_likelihood(h + shift, idx)
            assert abs(a - b) < 1e-12


def test_analytic_gradient_matches_finite_differences(capsys):
    with verdict(capsys, "analytic gradient matches finite differences", 30.0):
        n, p, width, lam, step = 32, 16, 8, 0.1, 1e-5
        worst = 0.0
        for kind in ("tanh", "selu", "relu"):
            for seed in (0, 1, 2):
                rng = np.random.default_rng(seed)
                X = rng.normal(size=(n, p))
                times, events, _ = random_survival_arrays(n, 500 + seed)
                idx = cox.build_risk_index(times, events)
                params = init_params(p, [width, width], 2, kind, 0.25, seed=seed)
                n_decayed = params.n_decayed
                stream = DropoutStream(seed)

                def loss(flat):
                    set_flat(params, flat)
                    h, _ = model_forward(X, params, mode="train", stream=stream, epoch=1)
                    nll = cox.neg_log_partial_likelihood(h, idx)
                    pen = cox.l2_penalty(flat[:n_decayed], lam, np.zeros(n_decayed))
                    return nll + pen

                theta = to_flat(params)
                set_flat(params, theta)
                h, cache = model_forward(X, params, mode="train", stream=stream, epoch=1)
                analytic = model_backward(cox.nll_gradient(h, idx), params, cache)
                cox.l2_penalty(theta[:n_decayed], lam, analytic[:n_decayed])

                fd = np.zeros_like(theta)
                for i in range(theta.size):
                    tp, tm = theta.copy(), theta.copy()
                    tp[i] += step
                    tm[i] -= step
                    fd[i] = (loss(tp) - loss(tm)) / (2 * step)
                set_flat(params, theta)

                scale = np.maximum(np.abs(fd), np.abs(analytic))
                tiny = scale < 1e-8
                assert np.max(np.abs(fd[tiny] - analytic[tiny]), initial=0.0) < 1e-8
                rel = np.abs(fd[~tiny] - analytic[~tiny]) / scale[~tiny]
                worst = max(worst, float(np.max(rel)))
        assert worst < 1e-4, f"worst relative error {worst:.3e}"


def test_fast_concordance_matches_pairwise_definition(capsys):
    with verdict(capsys, "fast concordance matches the pairwise definition", 10.0):
        for seed in range(20):
            times, events, scores = random_survival_arrays(
                2000, seed, censor_frac=0.3, tie_frac=0.2
            )
            fast = concordance_fast(times, events, scores)
            slow = concordance_index(times, events, scores)
            assert fast.concordant == slow.concordant
            assert fast.discordant == slow.discordant
            assert fast.tied_score == slow.tied_score
            assert fast.comparable_pairs == slow.comparable_pairs
            assert fast.c_index == slow.c_index


def test_sgd_linear_model_reaches_newton_optimum(capsys):
    with verdict(capsys, "sgd linear model reaches the newton optimum", 60.0):
        spec = SyntheticSpec(n=500, p=3, hazard_kind="linear",
                             true_coefficients=(1.0, -0.5, 0.25),
                             target_censor_rate=0.25, seed=2024)
        ds, _ = generate_synthetic(spec)
        ds = standardize_apply(ds, standardize_fit(ds))
        newton = cox.fit_linear_cox_newton(ds)
        assert newton.converged

        idx = cox.build_risk_index(ds.times, ds.events)
        X = ds.features
        hp = Hyperparameters(optimizer_kind="sgd", learning_rate=0.5,
                             lr_decay=0.0, l2_lambda=0.0)
        beta = np.zeros(3)
        state = init_optimizer_state(hp, 3, 0)
        for epoch in range(1, 4001):
            grad_h = cox.nll_gradient(X @ beta, idx)
            beta = sgd_step(beta, X.T @ grad_h, state, hp)
            decay_learning_rate(state, hp, epoch)
        assert np.max(np.abs(beta - newton.beta)) < 1e-3


def _holdout_protocol(ds, data_seed):
    """One shared recipe: 25% held-out test split, standardization fit on the
    75% side, linear Cox oracle on that side, and an inner 80/20 early-stop
    split for the network."""
    tr_idx, te_idx = stratified_holdout(ds.events, 0.25, seed=stable_seed(data_seed, 1))
    train_all, test = ds.subset(tr_idx), ds.subset(te_idx)
    std = standardize_fit(train_all)
    train_all = standardize_apply(train_all, std)
    test = standardize_apply(test, std)
    fit = cox.fit_linear_cox_newton(train_all)
    c_cox = concordance_fast(test.times, test.events, test.features @ fit.beta).c_index
    in_tr, in_va = stratified_holdout(train_all.events, 0.2, seed=stable_seed(data_seed, 2))
    return train_all.subset(in_tr), train_all.subset(in_va), test, float(c_cox), fit


def _test_c_index(test_ds, params):
    h, _ = model_forward(test_ds.features, params, mode="eval")
    return float(concordance_fast(test_ds.times, test_ds.events, h).c_index)


def test_network_matches_linear_oracle_on_linear_data(capsys):
    with verdict(capsys, "network matches the linear oracle on linear data", 180.0):
        spec = SyntheticSpec(n=2000, p=5, hazard_kind="linear",
                             true_coefficients=(1.0, -1.0, 0.5, 0.0, 0.0),
                             target_censor_rate=0.30, seed=42)
        ds, _ = generate_synthetic(spec)
        ds, _ = filter_patients(ds)
        ds, _ = filter_features(ds)
        inner_train, inner_val, test, c_cox, fit = _holdout_protocol(ds, 42)
        assert fit.converged

        hp = Hyperparameters(
            optimizer_kind="adam", activation_kind="tanh",
            n_blocks=5, dense_layers_per_block=3, nodes=64,
            learning_rate=1e-2, l2_lambda=1e-2, dropout_rate=0.2,
            lr_decay=1e-3, max_epochs=500, patience=10, seed=0,
        )
        report = train(inner_train, inner_val, hp)
        c_net = _test_c_index(test, report.params)
        assert abs(c_net - c_cox) <= 0.02, f"net {c_net:.4f} vs cox {c_cox:.4f}"


def test_network_beats_linear_oracle_on_interaction_data(capsys):
    with verdict(capsys, "network beats the linear oracle on interaction data", 300.0):
        spec = SyntheticSpec(n=2000, p=10, hazard_kind="interaction",
                             target_censor_rate=0.30, seed=1234)
        ds, _ = generate_synthetic(spec)
        inner_train, inner_val, test, c_cox, _ = _holdout_protocol(ds, 1234)

        hp = Hyperparameters(
            optimizer_kind="adam", activation_kind="relu",
            n_blocks=5, dense_layers_per_block=3, nodes=64,
            learning_rate=1e-3, l2_lambda=1e-2, dropout_rate=0.2,
            lr_decay=1e-3, max_epochs=500, patience=30, seed=0,
        )
        report = train(inner_train, inner_val, hp)
        c_net = _test_c_index(test, report.params)
        assert c_net - c_cox >= 0.05, f"net {c_net:.4f} vs cox {c_cox:.4f}"


def test_shortcut_blocks_hold_up_at_depth(capsys):
    with verdict(capsys, "shortcut blocks hold up at depth", 600.0):
        spec = SyntheticSpec(n=2000, p=10, hazard_kind="deep",
                             target_censor_rate=0.30, seed=777)
        ds, _ = generate_synthetic(spec)

        hp6 = Hyperparameters(
            optimizer_kind="adam", activation_kind="relu",
            n_blocks=6, dense_layers_per_block=3, nodes=64,
            learning_rate=1e-3, l2_lambda=1e-2, dropout_rate=0.2,
            lr_decay=1e-3, max_epochs=500, patience=30, seed=0,
        )
        # the 10 (configuration, fold) units of both CVs share one pool
        plan = plan_folds(ds, k=5, seed=777)
        pool = UnitPool(min(len(os.sched_getaffinity(0)), 10))
        cv_res, cv_abl = cross_validate_configs(
            plan, [(fold_unit, hp6, True), (fold_unit, hp6, False)], pool)
        assert cv_res.mean_c_index >= cv_abl.mean_c_index - 0.01, (
            f"shortcut {cv_res.mean_c_index:.4f} vs ablation {cv_abl.mean_c_index:.4f}"
        )

        # depth stability: a 7-block stack still trains with finite losses
        # and its first block sees a nonvanishing gradient at initialization
        tr_idx, va_idx = stratified_holdout(ds.events, 0.2, seed=stable_seed(777, 3))
        tr, va = ds.subset(tr_idx), ds.subset(va_idx)
        std = standardize_fit(tr)
        tr, va = standardize_apply(tr, std), standardize_apply(va, std)
        hp7 = hp6.replaced(n_blocks=7, max_epochs=120)

        params = init_params(tr.p, [hp7.nodes] * 7, hp7.dense_layers_per_block,
                             hp7.activation_kind, hp7.dropout_rate,
                             seed=stable_seed(hp7.seed, 0), with_shortcut=True)
        stream = DropoutStream(stable_seed(hp7.seed, 1))
        idx = cox.build_risk_index(tr.times, tr.events)
        h, cache = model_forward(tr.features, params, mode="train", stream=stream,
                                 epoch=1)
        grads = model_backward(cox.nll_gradient(h, idx), params, cache)
        first_block = max(
            float(np.max(np.abs(grads[sl])))
            for name, sl, _ in flat_layout(params) if name.startswith("block0.")
        )
        assert first_block > 1e-12

        report = train(tr, va, hp7)
        assert all(np.isfinite(r.train_loss) and np.isfinite(r.val_loss)
                   for r in report.epochs)


def test_reports_identical_across_reruns_and_workers(capsys, tmp_path):
    with verdict(capsys, "reports identical across reruns and worker counts", 120.0):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n": 150, "p": 3, "hazard_kind": "linear",
            "true_coefficients": [1.0, -0.5, 0.25],
            "target_censor_rate": 0.3, "seed": 9,
        }))
        data = tmp_path / "data.csv"
        assert main(["synth", "--spec", str(spec_path), "--out", str(data)]) == 0

        hp_path = tmp_path / "hp.json"
        hp_path.write_text(json.dumps({
            "n_blocks": 1, "nodes": 8, "dense_layers_per_block": 2,
            "dropout_rate": 0.0, "max_epochs": 15, "patience": 5,
        }))
        cv_a, cv_b = tmp_path / "cv_a", tmp_path / "cv_b"
        for out in (cv_a, cv_b):
            assert main(["cv", "--data", str(data), "--hp", str(hp_path),
                         "--k", "3", "--seed", "5", "--out", str(out)]) == 0
        for name in ("folds.jsonl", "summary.json"):
            assert (cv_a / name).read_bytes() == (cv_b / name).read_bytes(), name

        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "sweep": {"learning_rate": [1e-2, 1e-3]},
            "base": json.loads(hp_path.read_text()),
        }))
        outs = {}
        for label, workers in (("r1", "1"), ("r2", "1"), ("w4", "4")):
            out = tmp_path / f"gs_{label}"
            assert main(["gridsearch", "--data", str(data), "--grid", str(grid_path),
                         "--k", "2", "--seed", "5", "--workers", workers,
                         "--out", str(out)]) == 0
            outs[label] = out
        for name in ("points.jsonl", "summary.json"):
            ref = (outs["r1"] / name).read_bytes()
            assert (outs["r2"] / name).read_bytes() == ref, f"rerun {name}"
            assert (outs["w4"] / name).read_bytes() == ref, f"workers {name}"


def test_residual_identity_and_batchnorm_invariants(capsys):
    with verdict(capsys, "residual identity map and batch-norm invariants", 1.0):
        # zero main channel + identity shortcut => the block is the identity
        params = init_params(4, [4], 3, "tanh", 0.0, seed=0)
        block = params.blocks[0]
        for dense in block.dense_layers:
            dense.W[...] = 0.0
            dense.b[...] = 0.0
        block.shortcut.W[...] = np.eye(4)
        x = np.random.default_rng(1).normal(size=(32, 4))
        # so the network scores like its linear head alone
        head = params.output_head
        h, _ = model_forward(x, params, mode="eval")
        assert np.max(np.abs(h - (x @ head.W.T + head.b).ravel())) <= 1e-12

        # train-mode normalization at gamma=1, beta=0
        from ressurv.model import BN_EPSILON, BatchNormParams

        rng = np.random.default_rng(2)
        inputs = rng.normal(loc=-1.5, scale=3.0, size=(400, 6))
        bn = BatchNormParams.identity(6)
        out, _ = batchnorm_forward(inputs, bn, "train")
        assert np.max(np.abs(out.mean(axis=0))) < 1e-10
        sigma2 = inputs.var(axis=0)
        expected = sigma2 / (sigma2 + BN_EPSILON)
        assert np.max(np.abs(out.var(axis=0) - expected)) < 1e-6
