"""Span tracing of one ressurv command from outside the package.

The tracer replaces public functions of the package with wrappers at the
names their callers look up (for example ``ressurv.training.model_forward``
and ``ressurv.model.batchnorm_forward``), records one span per call in
memory, and writes every span at the end. Each span carries the per-layer
metric it is charged to; `summarize` turns spans into per-layer self times.

Run as a script, it executes ``ressurv.cli.main(argv)`` in-process with the
tracer installed and writes the spans to a JSON file:

    PYTHONPATH=src python perfbench/tracer.py SPANS.json -- cv --data d.csv ...
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time

MB = 1e6

# (module, attribute, metric charged). A name imported into several modules
# is listed once per module, because each caller looks it up in its own.
FUNCTION_PATCHES = [
    ("ressurv.cli", "load_csv", "data.load_csv_s"),
    ("ressurv.cli", "filter_patients", "data.load_csv_s"),
    ("ressurv.cli", "kfold_split", "data.fold_prep_s"),
    ("ressurv.cli", "filter_features", "data.fold_prep_s"),
    ("ressurv.cli", "standardize_fit", "data.fold_prep_s"),
    ("ressurv.cli", "standardize_apply", "data.fold_prep_s"),
    ("ressurv.training", "kfold_split", "data.fold_prep_s"),
    ("ressurv.training", "filter_features", "data.fold_prep_s"),
    ("ressurv.training", "standardize_fit", "data.fold_prep_s"),
    ("ressurv.training", "standardize_apply", "data.fold_prep_s"),
    ("ressurv.training", "stratified_holdout", "data.fold_prep_s"),
    ("ressurv.model", "batchnorm_forward", "model.batchnorm_fwd_s"),
    ("ressurv.model", "batchnorm_backward", "model.batchnorm_bwd_s"),
    ("ressurv.model", "activation_forward", "model.activation_s"),
    ("ressurv.model", "activation_backward", "model.activation_s"),
    ("ressurv.training", "set_flat", "model.param_copy_s"),
    ("ressurv.training", "to_flat", "model.param_copy_s"),
    ("ressurv.cox", "build_risk_index", "cox.loss_grad_s"),
    ("ressurv.cox", "neg_log_partial_likelihood", "cox.loss_grad_s"),
    ("ressurv.cox", "nll_gradient", "cox.loss_grad_s"),
    ("ressurv.cox", "l2_penalty", "cox.loss_grad_s"),
    ("ressurv.cli", "cross_validate", "training.self_s"),
    ("ressurv.training", "cross_validate", "training.self_s"),
    ("ressurv.cli", "grid_search", "training.self_s"),
]

# (module, class, method, metric charged)
METHOD_PATCHES = [
    ("ressurv.data", "SurvivalDataset", "subset", "data.fold_prep_s"),
    ("ressurv.data", "SurvivalDataset", "select_features", "data.fold_prep_s"),
    ("ressurv.data", "SurvivalDataset", "sorted_by_id", "data.fold_prep_s"),
    ("ressurv.model", "DropoutStream", "mask", "model.dropout_mask_s"),
    ("ressurv.model", "ResSurvParams", "copy", "model.param_copy_s"),
]

# Every per-layer time, in report order. cli.self_s is what the command
# spends outside the library calls: import, argument parsing, report writing.
LAYER_TIMES = [
    "data.load_csv_s", "data.fold_prep_s",
    "model.forward_train_s", "model.forward_eval_s", "model.backward_s",
    "model.batchnorm_fwd_s", "model.batchnorm_bwd_s", "model.activation_s",
    "model.dropout_mask_s", "model.param_copy_s",
    "cox.loss_grad_s", "cox.newton_s",
    "training.self_s", "training.opt_step_s",
    "metrics.concordance_s",
    "cli.self_s",
]


def _forward_flops(params, n: int) -> int:
    """Multiply-add FLOPs of one forward pass over n rows, from shapes."""
    flops = 0
    for block in params.blocks:
        for dense in block.dense_layers:
            flops += 2 * n * dense.W.size
        if block.shortcut is not None:
            flops += 2 * n * block.shortcut.W.size
    return flops + 2 * n * params.output_head.W.size


def _cache_bytes(cache) -> int:
    """Bytes of the activation arrays a train-mode forward keeps for backward."""
    seen = {}
    for block in cache.blocks:
        seen[id(block.x)] = block.x.nbytes
        for layer in block.layers:
            for arr in (layer.a_in, layer.bn.xhat, layer.act, layer.mask):
                if arr is not None:
                    seen[id(arr)] = arr.nbytes
    seen[id(cache.head_in)] = cache.head_in.nbytes
    return sum(seen.values())


class Tracer:
    """In-memory span recorder. Spans opened in a pool thread with nothing
    open in that thread take the main thread's innermost open span as parent
    (the main thread waits inside the call that started the pool)."""

    def __init__(self):
        self.spans: list[tuple] = []     # (id, metric, t0, t1, parent, tid)
        self.counts: list[tuple] = []    # (name, value)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_tid = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main_tid else []
            self._local.stack = stack
            self._local.opaque = 0
        return stack

    def call(self, metric: str, fn, args, kwargs, opaque: bool = False):
        stack = self._stack()
        if self._local.opaque:
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        stack.append(span_id)
        self._local.opaque += opaque
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._local.opaque -= opaque
            stack.pop()
            self.spans.append((span_id, metric, t0, t1, parent, threading.get_ident()))

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value))

    def wrap(self, metric: str, fn, opaque: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(metric, fn, args, kwargs, opaque)
        return traced

    def install(self) -> None:
        """Patch the package. Call once, after `ressurv.cli` is imported."""
        wrapped = {}

        def patch(owner, attr, metric):
            fn = getattr(owner, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.wrap(metric, fn)
            setattr(owner, attr, wrapped[id(fn)])

        for module, attr, metric in FUNCTION_PATCHES:
            patch(importlib.import_module(module), attr, metric)
        for module, cls, attr, metric in METHOD_PATCHES:
            patch(getattr(importlib.import_module(module), cls), attr, metric)

        cli = importlib.import_module("ressurv.cli")
        training = importlib.import_module("ressurv.training")
        for kind, fn in list(training._STEP_FUNCTIONS.items()):
            training._STEP_FUNCTIONS[kind] = self.wrap("training.opt_step_s", fn)
        training.model_forward = self._forward(training.model_forward)
        training.model_backward = self._backward(training.model_backward)
        training.train = self._train(training.train)
        concordance = self._concordance(training.concordance_fast)
        training.concordance_fast = cli.concordance_fast = concordance
        cli.fit_linear_cox_newton = self._newton(cli.fit_linear_cox_newton)

    def _forward(self, fn):
        def traced(X, params, mode="eval", *args, **kwargs):
            metric = "model.forward_train_s" if mode == "train" else "model.forward_eval_s"
            h, cache = self.call(metric, fn, (X, params, mode) + args, kwargs)
            self.count("model.flops", _forward_flops(params, h.shape[0]))
            if cache is not None:
                self.count("model.act_bytes", _cache_bytes(cache))
            return h, cache
        return traced

    def _backward(self, fn):
        def traced(grad_h, params, cache):
            grads = self.call("model.backward_s", fn, (grad_h, params, cache), {})
            # a grad-weight and a grad-input product for every forward matmul
            self.count("model.flops", 2 * _forward_flops(params, len(grad_h)))
            return grads
        return traced

    def _train(self, fn):
        def traced(*args, **kwargs):
            wall0, cpu0 = time.perf_counter(), time.thread_time()
            report = self.call("training.self_s", fn, args, kwargs)
            wall = time.perf_counter() - wall0
            self.count("training.fit_s", wall)
            self.count("training.fit_oncpu", (time.thread_time() - cpu0) / wall)
            self.count("training.epochs", report.epochs_run)
            return report
        return traced

    def _concordance(self, fn):
        def traced(*args, **kwargs):
            result = self.call("metrics.concordance_s", fn, args, kwargs)
            self.count("metrics.comparable_pairs", result.comparable_pairs)
            return result
        return traced

    def _newton(self, fn):
        def traced(ds, *args, **kwargs):
            fit = self.call("cox.newton_s", fn, (ds,) + args, kwargs, opaque=True)
            self.count("cox.newton_iters", fit.iterations)
            self.count("cox.newton_tensor_bytes", ds.n * ds.p * ds.p * 8)
            return fit
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def self_times(spans) -> dict[str, float]:
    """Per-metric self time: each span's duration minus the union of the
    intervals its children cover. Times from pool threads add up, so a
    layer's figure is its busy time and may exceed the wall time."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, t0, t1, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    totals: dict[str, float] = {}
    for span_id, metric, t0, t1, _, _ in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(span_id, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        totals[metric] = totals.get(metric, 0.0) + (t1 - t0) - covered
    return totals


def summarize(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced command that took `wall_s` (times in
    s, counts computed from array shapes or read from return values)."""
    spans = [tuple(s) for s in trace["spans"]]
    roots = sum(t1 - t0 for _, _, t0, t1, parent, _ in spans if parent is None)
    counts: dict[str, list[float]] = {}
    for name, value in trace["counts"]:
        counts.setdefault(name, []).append(value)
    times = self_times(spans)
    out = {name: times.get(name, 0.0) for name in LAYER_TIMES}
    fits = counts.get("training.fit_s", [])
    out.update({
        "model.matmul_gflop": sum(counts.get("model.flops", [])) / 1e9,
        "model.act_mb_per_epoch": statistics.fmean(counts.get("model.act_bytes", [0])) / MB,
        "cox.newton_iters": sum(counts.get("cox.newton_iters", [])),
        "cox.newton_tensor_mb": max(counts.get("cox.newton_tensor_bytes", [0])) / MB,
        "training.fits": len(fits),
        "training.epochs": sum(counts.get("training.epochs", [])),
        "training.fit_s_p50": statistics.median(fits) if fits else 0.0,
        "training.fit_s_max": max(fits, default=0.0),
        "training.fit_oncpu_share": statistics.median(counts.get("training.fit_oncpu", [0.0])),
        "metrics.concordance_calls": len(counts.get("metrics.comparable_pairs", [])),
        "metrics.comparable_pairs": statistics.fmean(
            counts.get("metrics.comparable_pairs", [0])),
        # share of the wall inside the import and main() spans
        "trace.coverage": roots / wall_s,
    })
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <ressurv cli arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    cli = tracer.call("cli.self_s", importlib.import_module, ("ressurv.cli",), {})
    tracer.install()
    code = tracer.call("cli.self_s", cli.main, (argv[2:],), {})
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
