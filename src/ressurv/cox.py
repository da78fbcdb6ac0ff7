"""Cox negative log partial likelihood over per-sample risk scores.

The loss for scores h and censored observations (T_i, E_i) is

    L(h) = -(1/N_E) * sum_{i: E_i=1} ( h_i - ln sum_{j: T_j >= T_i} e^{h_j} )

with N_E the number of observed events. Tied event times are handled with
the Breslow convention: all events in a tie group share one risk-set
denominator. All accumulation runs in log space (running log-sum-exp), so
the loss and gradient are finite for any finite scores.

Also provides a Newton-Raphson fitter for the classical linear Cox model,
used throughout the test suite as an independent optimum oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset
from .errors import UnusableDatasetError

# the Newton fit has converged once max|gradient| <= NEWTON_TOL, and gives up
# unconverged after NEWTON_MAX_ITER iterations
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 100
# a line-search step counts as progress only when it lowers the NLL by more
# than this many ulps of |NLL|: a smaller change is roundoff, not descent
# (the NLL, a sum over every event's risk set, carries several ulps of
# rounding: near the optimum, full and halved Newton steps on 1000 x 120
# synths lowered it by 0-9 ulps, all of it noise)
NEWTON_ROUNDOFF_ULPS = 16


@dataclass(frozen=True)
class RiskSetIndex:
    """Sorted view of (times, events) that makes risk sets prefix ranges.

    `order` sorts samples by descending time (stable), so the risk set of the
    sample at sorted position k is the prefix [0 .. tie_end[k]] where
    tie_end[k] is the inclusive end of k's group of equal times. This turns
    every risk-set sum into one pass of cumulative accumulation.
    """

    order: np.ndarray             # (n,) int64, permutation into descending time
    sorted_events: np.ndarray     # (n,) bool, events in sorted order
    tie_end: np.ndarray           # (n,) int64, inclusive end of each position's tie group
    event_positions: np.ndarray   # sorted positions where events occur
    n_events: int
    event_counts: np.ndarray      # (n,) float, events whose tie group ends here (else 0)
    log_event_counts: np.ndarray  # (n,) their log, -inf where there are none

    @property
    def n(self) -> int:
        return self.order.shape[0]


def build_risk_index(times, events) -> RiskSetIndex:
    """Precompute the sort and tie-group structure shared by loss and gradient.
    Times must be finite: a NaN or infinite time has no place in the sort."""
    times = np.asarray(times, dtype=np.float64).ravel()
    events = np.asarray(events).astype(bool).ravel()
    if times.shape != events.shape:
        raise ValueError("times and events must have equal length")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    n_events = int(events.sum())
    if n_events == 0:
        raise UnusableDatasetError("risk index requires at least one event")

    order = np.argsort(-times, kind="stable")
    st = times[order]
    if st.size > 1:
        group_id = np.concatenate([[0], np.cumsum(st[:-1] != st[1:])])
    else:
        group_id = np.zeros(1, dtype=np.int64)
    is_last = np.concatenate([group_id[1:] != group_id[:-1], [True]])
    last_of_group = np.flatnonzero(is_last)
    tie_end = last_of_group[group_id]

    sorted_events = events[order]
    event_positions = np.flatnonzero(sorted_events)
    event_counts = np.zeros(st.size)
    np.add.at(event_counts, tie_end[event_positions], 1.0)
    with np.errstate(divide="ignore"):
        log_event_counts = np.log(event_counts)
    return RiskSetIndex(
        order=order,
        sorted_events=sorted_events,
        tie_end=tie_end,
        event_positions=event_positions,
        n_events=n_events,
        event_counts=event_counts,
        log_event_counts=log_event_counts,
    )


def _check_scores(h: np.ndarray, idx: RiskSetIndex) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64).ravel()
    if h.shape[0] != idx.n:
        raise ValueError(f"got {h.shape[0]} scores for a {idx.n}-sample index")
    if not np.isfinite(h).all():
        raise ValueError("scores must be finite")
    return h


def _log_denominators(hs: np.ndarray, idx: RiskSetIndex) -> np.ndarray:
    """log D at each sorted position: the log of its risk set's sum of e^h
    (one running log-sum-exp over the sorted scores `hs`), which every
    member of a tie group shares."""
    return np.logaddexp.accumulate(hs)[idx.tie_end]


def _loss(hs: np.ndarray, log_denom: np.ndarray, idx: RiskSetIndex) -> float:
    ev = idx.event_positions
    return float((log_denom[ev] - hs[ev]).sum() / idx.n_events)


def _log_risk_weights(log_denom: np.ndarray, idx: RiskSetIndex) -> np.ndarray:
    """log A_q = log sum over events k with tie_end >= q of 1/D_k, in sorted
    order: a reverse cumulative log-sum-exp of the weights count/D placed at
    the tie-group ends (events within a tie group share one denominator),
    so it stays finite for any finite scores."""
    log_w = idx.log_event_counts - log_denom
    return np.logaddexp.accumulate(log_w[::-1])[::-1]


def _gradient(hs: np.ndarray, log_a: np.ndarray, idx: RiskSetIndex) -> np.ndarray:
    """The gradient of the loss in the caller's sample order, from the sorted
    scores and their `_log_risk_weights`."""
    grad_sorted = -(idx.sorted_events.astype(np.float64) - np.exp(hs + log_a)) / idx.n_events
    grad = np.empty(idx.n)
    grad[idx.order] = grad_sorted
    return grad


def neg_log_partial_likelihood(h, idx: RiskSetIndex) -> float:
    """Breslow-tied Cox negative log partial likelihood, averaged over events."""
    h = _check_scores(h, idx)
    hs = h[idx.order]
    return _loss(hs, _log_denominators(hs, idx), idx)


def nll_gradient(h, idx: RiskSetIndex) -> np.ndarray:
    """Exact gradient of `neg_log_partial_likelihood` with respect to h.

        dL/dh_i = -(1/N_E) [ 1{E_i=1} - sum_{k: E_k=1, i in risk(k)} e^{h_i} / D_k ]

    where D_k is event k's risk-set denominator. Computed in O(n) after the
    sort: the inner sum is e^{h_i} A_i from `_log_risk_weights`, so it stays
    finite for any finite h. Gradient entries sum to zero (shift invariance).
    """
    h = _check_scores(h, idx)
    hs = h[idx.order]
    return _gradient(hs, _log_risk_weights(_log_denominators(hs, idx), idx), idx)


def loss_and_gradient(h, idx: RiskSetIndex) -> tuple[float, np.ndarray]:
    """(`neg_log_partial_likelihood`, `nll_gradient`) at h, bit-identical to
    the two calls, from one sort of the scores and one running log-sum-exp
    of the risk-set denominators where the two calls make two of each."""
    h = _check_scores(h, idx)
    hs = h[idx.order]
    log_denom = _log_denominators(hs, idx)
    return _loss(hs, log_denom, idx), _gradient(hs, _log_risk_weights(log_denom, idx), idx)


# the L2 penalty adds its gradient this many entries at a time, so that its
# temporary is one chunk (128 KB), not a copy of the weights
L2_CHUNK = 1 << 14


def l2_penalty(weights: np.ndarray, lam: float, grad: np.ndarray) -> float:
    """Quadratic weight penalty lam * sum(w^2) over the vector `weights`;
    its gradient 2*lam*w is added into `grad`, of the same shape, in place
    (nothing at all when lam is 0), `L2_CHUNK` entries at a time. The
    model's weight matrices lead its parameter vector, so the caller passes
    `flat[:n_decayed]` and the same slice of the gradient: biases and
    batch-norm scale/shift are never penalized.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if grad.shape != weights.shape:
        raise ValueError("grad must match the weights' shape")
    if lam == 0:
        return 0.0
    scale = 2.0 * lam
    for start in range(0, weights.size, L2_CHUNK):
        grad[start:start + L2_CHUNK] += scale * weights[start:start + L2_CHUNK]
    return float(lam * np.dot(weights, weights))


@dataclass
class LinearCoxFit:
    """Newton-Raphson fit of the linear Cox model h(x) = beta . x."""

    beta: np.ndarray
    iterations: int
    final_gradient_norm: float
    converged: bool


def _nll_beta(X: np.ndarray, beta: np.ndarray, idx: RiskSetIndex) -> float:
    return neg_log_partial_likelihood(X @ beta, idx)


def _grad_hessian(X: np.ndarray, beta: np.ndarray, idx: RiskSetIndex):
    """Gradient and Hessian of the NLL in beta: O(n p^2) time, O(n p + p^2) memory.

    With the rows of X in descending-time order, r_j = e^{h_j}, and for each
    tie-group end e holding c_e events, S0_e = sum_{j<=e} r_j and
    mu_e = sum_{j<=e} r_j x_j / S0_e, the Breslow information matrix is

        H = [ X^T diag(r A) X - sum_e c_e mu_e mu_e^T ] / N_E

    where r_j A_j = e^{h_j + log A_j} comes from `_log_risk_weights`, which
    the gradient shares. That is two matrix products and no (n, p, p)
    tensor. The mu_e prefix sums use a global max shift; once the linear
    predictor spans more than float64's exponent range (separable data), a
    risk set's shifted sum underflows to zero and the Hessian comes out NaN,
    which `fit_linear_cox_newton` treats as the end of the fit.
    """
    h = _check_scores(X @ beta, idx)
    hs = h[idx.order]
    log_a = _log_risk_weights(_log_denominators(hs, idx), idx)
    grad = X.T @ _gradient(hs, log_a, idx)

    Xs = X[idx.order]
    r = np.exp(hs - hs.max())
    ends = np.flatnonzero(idx.event_counts)
    s0 = np.cumsum(r)[ends]
    s1 = np.cumsum(r[:, None] * Xs, axis=0)[ends]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = s1 / s0[:, None]
    weighted = Xs * np.exp(hs + log_a)[:, None]
    hess = (weighted.T @ Xs - mu.T @ (idx.event_counts[ends, None] * mu)) / idx.n_events
    return grad, hess


def fit_linear_cox_newton(ds: SurvivalDataset) -> LinearCoxFit:
    """Maximize the partial likelihood over beta by damped Newton-Raphson.

    Converged means max|gradient| <= NEWTON_TOL. Step-halving (up to 30
    halvings) enforces an NLL decrease larger than NEWTON_ROUNDOFF_ULPS ulps
    of |NLL|; when no halving achieves one, the change is lost in roundoff
    and the fit stops, at the full Newton step if the gradient there meets
    NEWTON_TOL and unconverged otherwise. A singular Hessian falls back to a
    diagonally damped gradient step. When neither step is finite (separable
    data, whose likelihood keeps rising as beta grows without bound), the
    fit stops at the current beta with converged=False.
    Non-convergence within NEWTON_MAX_ITER iterations returns
    converged=False rather than raising. Each iteration costs O(n p^2) time
    and O(n p + p^2) memory. Expects standardized features.
    """
    ds.require_comparable_pair(slice(None), "the linear Cox fit's data")
    X = ds.features
    idx = build_risk_index(ds.times, ds.events)
    beta = np.zeros(ds.p)
    nll = _nll_beta(X, beta, idx)

    grad_norm = np.inf
    for it in range(1, NEWTON_MAX_ITER + 1):
        grad, hess = _grad_hessian(X, beta, idx)
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= NEWTON_TOL:
            return LinearCoxFit(beta, it - 1, grad_norm, True)
        try:
            direction = -np.linalg.solve(hess, grad)
            if not np.isfinite(direction).all():
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            damping = np.abs(np.diag(hess)).max() * 1e-8 + 1e-12
            direction = -grad / (np.diag(hess) + damping)
            if not np.isfinite(direction).all():
                # separable data: the likelihood has no finite optimum
                return LinearCoxFit(beta, it, grad_norm, False)

        step = 1.0
        roundoff = NEWTON_ROUNDOFF_ULPS * np.spacing(abs(nll))
        for _ in range(30):
            candidate = beta + step * direction
            new_nll = _nll_beta(X, candidate, idx)
            if nll - new_nll > roundoff:
                break
            step *= 0.5
        else:
            # near the optimum the NLL change drowns in float64 roundoff
            full = beta + direction
            full_norm = float(np.abs(X.T @ nll_gradient(X @ full, idx)).max())
            if full_norm <= NEWTON_TOL:
                return LinearCoxFit(full, it, full_norm, True)
            return LinearCoxFit(beta, it, grad_norm, False)
        beta = candidate
        nll = new_nll

    grad, _ = _grad_hessian(X, beta, idx)
    grad_norm = float(np.abs(grad).max())
    return LinearCoxFit(beta, NEWTON_MAX_ITER, grad_norm, grad_norm <= NEWTON_TOL)
