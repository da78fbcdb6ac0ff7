import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ressurv.cox import (
    _grad_hessian,
    build_risk_index,
    fit_linear_cox_newton,
    l2_penalty,
    loss_and_gradient,
    neg_log_partial_likelihood,
    nll_gradient,
)
from ressurv.data import (
    SurvivalDataset,
    SyntheticSpec,
    filter_features,
    filter_patients,
    generate_synthetic,
    kfold_split,
    standardize_apply,
    standardize_fit,
)
from ressurv.errors import UnusableDatasetError
from ressurv.metrics import concordance_fast

from conftest import make_dataset, random_survival_arrays


def nll_reference(h, times, events):
    """Direct O(n^2) transcription of the mean negative log partial
    likelihood with Breslow ties: one risk-set denominator per event, risk
    set = {j : T_j >= T_i}."""
    h = np.asarray(h, dtype=np.float64)
    total = 0.0
    n_events = 0
    for i in range(len(times)):
        if not events[i]:
            continue
        risk = times >= times[i]
        total += np.log(np.exp(h[risk]).sum()) - h[i]
        n_events += 1
    return total / n_events


def test_hand_value_three_events():
    # times (1,2,3), all events, h = 0:
    # denominators 3, 2, 1 -> (ln 3 + ln 2 + ln 1) / 3
    idx = build_risk_index(np.array([1.0, 2.0, 3.0]),
                           np.array([True, True, True]))
    value = neg_log_partial_likelihood(np.zeros(3), idx)
    assert abs(value - (np.log(3.0) + np.log(2.0)) / 3.0) < 1e-12


def test_matches_reference_on_random_data():
    for seed in range(10):
        times, events, _ = random_survival_arrays(60, seed)
        rng = np.random.default_rng(seed + 100)
        h = rng.normal(scale=2.0, size=60)
        idx = build_risk_index(times, events)
        fast = neg_log_partial_likelihood(h, idx)
        slow = nll_reference(h, times, events)
        assert abs(fast - slow) < 1e-10


def test_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        times = rng.exponential(5.0, size=n) + 0.01
        events = rng.random(n) < 0.7
        if not events.any():
            events[0] = True
        h = rng.normal(size=n)
        idx = build_risk_index(times, events)
        base = neg_log_partial_likelihood(h, idx)
        shifted = neg_log_partial_likelihood(h + 123.456, idx)
        assert abs(base - shifted) < 1e-12


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 60), distinct=st.integers(1, 6),
       censored=st.sampled_from([0.0, 0.3, 0.7, 0.95]),
       scale=st.sampled_from([0.1, 1.0, 10.0]), seed=st.integers(0, 2**32 - 1))
def test_loss_and_gradient_follow_a_joint_permutation(n, distinct, censored, scale, seed):
    # a few distinct times make heavy Breslow tie groups; reordering rows
    # inside a tie group changes the log-sum-exp rounding, hence rtol 1e-12.
    # Values near zero keep an absolute rounding of a few ulps of the log
    # terms they come from (ln D_k - h_k in the loss, h_i + ln A_i in the
    # gradient's exponent), which are of size max|h| + ln n
    rng = np.random.default_rng(seed)
    times = rng.integers(1, distinct + 1, size=n).astype(np.float64)
    events = rng.random(n) >= censored
    events[rng.integers(n)] = True
    h = rng.normal(scale=scale, size=n)
    perm = rng.permutation(n)
    idx = build_risk_index(times, events)
    moved = build_risk_index(times[perm], events[perm])
    atol = 1e-14 * (np.abs(h).max() + np.log(n))
    np.testing.assert_allclose(neg_log_partial_likelihood(h[perm], moved),
                               neg_log_partial_likelihood(h, idx), rtol=1e-12, atol=atol)
    np.testing.assert_allclose(nll_gradient(h[perm], moved), nll_gradient(h, idx)[perm],
                               rtol=1e-12, atol=atol)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 400), distinct=st.integers(1, 8),
       censored=st.sampled_from([0.0, 0.5, 0.9, 0.99]),
       scale=st.sampled_from([0.0, 1.0, 30.0, 700.0]), seed=st.integers(0, 2**32 - 1))
def test_loss_and_gradient_is_the_two_functions_bit_for_bit(n, distinct, censored, scale,
                                                             seed):
    # few distinct times make large tie groups; heavy censoring leaves most
    # tie groups without an event
    rng = np.random.default_rng(seed)
    times = rng.integers(1, distinct + 1, size=n).astype(np.float64)
    events = rng.random(n) >= censored
    events[rng.integers(n)] = True
    h = rng.normal(scale=scale, size=n)
    idx = build_risk_index(times, events)
    loss, grad = loss_and_gradient(h, idx)
    assert loss == neg_log_partial_likelihood(h, idx)
    assert grad.tobytes() == nll_gradient(h, idx).tobytes()


def test_risk_index_holds_the_event_counts_per_tie_end():
    times = np.array([3.0, 1.0, 3.0, 2.0, 1.0, 5.0, 2.0])
    events = np.array([True, True, True, False, False, False, False])
    idx = build_risk_index(times, events)
    # descending time: 5 | 3 3 | 2 2 | 1 1, so the groups end at 0, 2, 4, 6
    assert idx.event_counts.tolist() == [0, 0, 2, 0, 0, 0, 1]
    assert idx.log_event_counts.tolist() == [-np.inf, -np.inf, np.log(2.0),
                                             -np.inf, -np.inf, -np.inf, 0.0]


def test_breslow_ties_hand_value():
    # two events tied at t=1 share the full 3-sample denominator
    idx = build_risk_index(np.array([1.0, 1.0, 2.0]),
                           np.array([True, True, True]))
    value = neg_log_partial_likelihood(np.zeros(3), idx)
    expected = (np.log(3.0) + np.log(3.0) + 0.0) / 3.0
    assert abs(value - expected) < 1e-12


def test_censored_only_raises():
    with pytest.raises(UnusableDatasetError):
        build_risk_index(np.array([1.0, 2.0]), np.array([False, False]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_times_raise_as_concordance_does(bad):
    # a NaN time used to sort somewhere and give a Cox loss (0.905 here)
    times, events = [1.0, bad, 2.0, 3.0], [1, 1, 0, 1]
    with pytest.raises(ValueError, match="times must be finite"):
        build_risk_index(times, events)
    with pytest.raises(ValueError, match="times must be finite"):
        concordance_fast(times, events, np.zeros(4))


def test_extreme_scores_stay_finite():
    times, events, _ = random_survival_arrays(50, 3)
    idx = build_risk_index(times, events)
    for scale in (1e2, 1e5, 1e8):
        h = np.linspace(-scale, scale, 50)
        assert np.isfinite(neg_log_partial_likelihood(h, idx))
        assert np.isfinite(nll_gradient(h, idx)).all()


# ---------------------------------------------------------------------------
# Gradient
# ---------------------------------------------------------------------------

def test_gradient_sums_to_zero():
    # consequence of shift invariance
    for seed in range(5):
        times, events, _ = random_survival_arrays(80, seed)
        rng = np.random.default_rng(seed)
        h = rng.normal(size=80)
        idx = build_risk_index(times, events)
        assert abs(nll_gradient(h, idx).sum()) < 1e-12


def test_gradient_matches_finite_differences():
    times, events, _ = random_survival_arrays(50, 11)
    rng = np.random.default_rng(11)
    h = rng.normal(size=50)
    idx = build_risk_index(times, events)
    grad = nll_gradient(h, idx)
    step = 1e-6
    for i in range(50):
        hp = h.copy(); hp[i] += step
        hm = h.copy(); hm[i] -= step
        fd = (neg_log_partial_likelihood(hp, idx)
              - neg_log_partial_likelihood(hm, idx)) / (2 * step)
        assert abs(fd - grad[i]) < 1e-7


def test_gradient_with_ties_matches_fd():
    times = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0])
    events = np.array([True, True, False, True, True, False])
    h = np.array([0.3, -0.2, 0.9, -1.1, 0.4, 0.0])
    idx = build_risk_index(times, events)
    grad = nll_gradient(h, idx)
    step = 1e-6
    for i in range(6):
        hp = h.copy(); hp[i] += step
        hm = h.copy(); hm[i] -= step
        fd = (neg_log_partial_likelihood(hp, idx)
              - neg_log_partial_likelihood(hm, idx)) / (2 * step)
        assert abs(fd - grad[i]) < 1e-8


# ---------------------------------------------------------------------------
# L2 penalty
# ---------------------------------------------------------------------------

def test_l2_penalty_value_and_gradient():
    w = np.array([1.0, -2.0, 3.0])
    grad = np.full(3, 0.5)
    value = l2_penalty(w, 0.5, grad)
    assert abs(value - 0.5 * 14.0) < 1e-12
    np.testing.assert_allclose(grad, 0.5 + w)  # 2 * 0.5 * w, added in place


def test_l2_penalty_acts_on_the_slice_it_is_given():
    # the decayed entries lead the vector: the rest of it is never read or written
    w = np.array([1.0, 3.0, np.nan])
    grad = np.ones(3)
    value = l2_penalty(w[:2], 1.0, grad[:2])
    assert abs(value - 10.0) < 1e-12
    np.testing.assert_allclose(grad, [3.0, 7.0, 1.0])
    with pytest.raises(ValueError, match="shape"):
        l2_penalty(w[:2], 1.0, grad)


def test_l2_penalty_zero_lambda():
    w = np.ones(4)
    grad = np.arange(4.0)
    assert l2_penalty(w, 0.0, grad) == 0.0
    assert np.array_equal(grad, np.arange(4.0))


def test_l2_penalty_matches_the_allocating_formula_bit_for_bit():
    # on the leading slice, the in-place add gives the bits of
    # g + where(mask, 2 lam w, 0) and the value lam * dot(w[mask], w[mask])
    # for the mask of that slice
    rng = np.random.default_rng(4)
    w, g = rng.normal(size=500), rng.normal(size=500)
    mask = np.arange(500) < 350
    lam = 0.037
    grad = g.copy()
    value = l2_penalty(w[:350], lam, grad[:350])
    assert value == float(lam * np.dot(w[mask], w[mask]))
    assert np.array_equal(grad, g + np.where(mask, 2.0 * lam * w, 0.0))
    # a call allocates one row of the slice's size, none of the vector's
    tracemalloc.start()
    try:
        l2_penalty(w[:350], lam, grad[:350])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < w.nbytes


# ---------------------------------------------------------------------------
# Newton-Raphson linear fitter
# ---------------------------------------------------------------------------

def test_newton_recovers_coefficients():
    spec = SyntheticSpec(n=4000, p=3, hazard_kind="linear",
                         true_coefficients=np.array([1.0, -0.5, 0.25]),
                         target_censor_rate=0.2, seed=77)
    ds, _ = generate_synthetic(spec)
    fit = fit_linear_cox_newton(ds)
    assert fit.converged
    assert fit.final_gradient_norm < 1e-8
    # partial-likelihood estimates concentrate around the truth at this n
    np.testing.assert_allclose(fit.beta, [1.0, -0.5, 0.25], atol=0.12)


def test_newton_gradient_zero_at_optimum():
    ds = make_dataset(n=120, p=4, seed=5, censor_frac=0.25)
    std = standardize_fit(ds)
    ds = standardize_apply(ds, std)
    fit = fit_linear_cox_newton(ds)
    idx = build_risk_index(ds.times, ds.events)
    grad_h = nll_gradient(ds.features @ fit.beta, idx)
    grad_beta = ds.features.T @ grad_h
    assert np.abs(grad_beta).max() < 1e-8


def test_newton_beats_zero_model():
    ds = make_dataset(n=150, p=3, seed=6, censor_frac=0.3)
    fit = fit_linear_cox_newton(ds)
    idx = build_risk_index(ds.times, ds.events)
    nll_fit = neg_log_partial_likelihood(ds.features @ fit.beta, idx)
    nll_zero = neg_log_partial_likelihood(np.zeros(ds.n), idx)
    assert nll_fit <= nll_zero + 1e-12


def test_newton_handles_collinear_features():
    # duplicate column makes the Hessian singular; fitter must not crash
    rng = np.random.default_rng(9)
    X = rng.normal(size=(80, 2))
    X = np.column_stack([X, X[:, 0]])
    times = rng.exponential(5.0, size=80) + 0.01
    events = rng.random(80) < 0.7
    ds = SurvivalDataset([f"s{i}" for i in range(80)], X,
                         ["a", "b", "a_copy"], times, events)
    fit = fit_linear_cox_newton(ds)
    assert np.isfinite(fit.beta).all()


@pytest.mark.parametrize("seed, fold, iterations", [
    pytest.param(2043283354, 3, 5, id="seed2043283354-fold3"),
    pytest.param(4, 4, 5, id="seed4-fold4"),
])
def test_newton_converges_when_roundoff_blocks_the_line_search(seed, fold, iterations):
    # Folds of a 1000 x 120 synth whose fits end where the NLL change of a
    # Newton step drowns in float64 roundoff. On fold 4 of seed 4, from
    # iteration 5 a full step brings max|grad| from ~1e-8 to ~1e-15 but
    # raises the NLL by a few ulp, so no step-halving gives a strict
    # decrease and the fit must take the full step. On fold 3 of seed
    # 2043283354 the half step of iteration 5 lowers the NLL by one ulp;
    # that is roundoff, not progress, so this fit too must end on the full
    # step rather than on the half step at max|grad| ~ 6e-9.
    coefficients = (1.0, -0.8, 0.6, -0.5, 0.4) + (0.0,) * 115
    ds, _ = generate_synthetic(SyntheticSpec(
        n=1000, p=120, true_coefficients=coefficients,
        target_censor_rate=0.3, seed=seed,
    ))
    canon = filter_patients(ds)[0].sorted_by_id()
    folds = kfold_split(canon, 5, seed)
    train, _ = filter_features(canon.subset(folds.train_indices(fold)))
    train = standardize_apply(train, standardize_fit(train))
    fit = fit_linear_cox_newton(train)
    assert fit.converged
    assert fit.iterations == iterations
    idx = build_risk_index(train.times, train.events)
    grad_beta = train.features.T @ nll_gradient(train.features @ fit.beta, idx)
    assert np.abs(grad_beta).max() == fit.final_gradient_norm
    assert fit.final_gradient_norm <= 1e-12


def test_newton_stops_on_separable_data():
    # x orders the times perfectly, so the likelihood rises without bound in
    # beta[0]; once the linear predictor outruns float64 the Hessian is NaN
    # and the fit must stop there, unconverged, without warnings
    rng = np.random.default_rng(0)
    n = 200
    x = rng.normal(size=n)
    X = np.column_stack([x, rng.normal(size=n)])
    events = np.arange(n) % 5 != 0
    ds = SurvivalDataset([f"s{i}" for i in range(n)], X, ["x", "noise"],
                         np.exp(-3.0 * x), events)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_linear_cox_newton(ds)
    assert not fit.converged
    assert np.isfinite(fit.beta).all()
    assert fit.beta[0] > 100.0 and abs(fit.beta[1]) < 1.0


# ---------------------------------------------------------------------------
# Newton Hessian
# ---------------------------------------------------------------------------

def hessian_reference(X, beta, idx):
    """The Breslow information matrix from (n, p, p) prefix sums of
    r_j x_j x_j^T over the descending-time order, one tie-group end at a
    time: sum_e c_e (S2_e / S0_e - mu_e mu_e^T) / N_E."""
    h = X @ beta
    Xs = X[idx.order]
    hs = h[idx.order]
    r = np.exp(hs - hs.max())
    s0 = np.cumsum(r)
    s1 = np.cumsum(r[:, None] * Xs, axis=0)
    s2 = np.cumsum(r[:, None, None] * (Xs[:, :, None] * Xs[:, None, :]), axis=0)
    ends, counts = np.unique(idx.tie_end[idx.event_positions], return_counts=True)
    hess = np.zeros((X.shape[1], X.shape[1]))
    for e, c in zip(ends, counts):
        mu = s1[e] / s0[e]
        hess += c * (s2[e] / s0[e] - np.outer(mu, mu))
    return hess / idx.n_events


@st.composite
def _cox_problems(draw):
    """Small (X, beta, idx) with many tied times and some censoring."""
    n = draw(st.integers(2, 30))
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p))
    times = rng.integers(1, max(2, n // 3) + 1, size=n).astype(np.float64)
    events = rng.random(n) >= 0.3
    events[rng.integers(n)] = True
    beta = rng.normal(scale=draw(st.sampled_from([0.0, 0.5, 3.0])), size=p)
    return X, beta, build_risk_index(times, events)


@settings(max_examples=60, deadline=None)
@given(_cox_problems())
def test_hessian_matches_reference_and_finite_differences(problem):
    X, beta, idx = problem
    grad, hess = _grad_hessian(X, beta, idx)
    assert np.array_equal(grad, X.T @ nll_gradient(X @ beta, idx))

    # absolute floor: where every risk set is flat in x the Hessian is
    # exactly zero and only the cancellation roundoff remains
    ref = hessian_reference(X, beta, idx)
    assert np.abs(hess - ref).max() <= 1e-10 * np.abs(ref).max() + 1e-13

    step = 1e-6
    for j in range(X.shape[1]):
        e = np.zeros(X.shape[1])
        e[j] = step
        fd = (X.T @ nll_gradient(X @ (beta + e), idx)
              - X.T @ nll_gradient(X @ (beta - e), idx)) / (2 * step)
        np.testing.assert_allclose(hess[:, j], fd, rtol=0, atol=1e-6)


def test_hessian_memory_is_linear_in_n():
    n, p = 4000, 60
    rng = np.random.default_rng(3)
    X = rng.normal(size=(n, p))
    times = np.round(rng.exponential(5.0, size=n), 1) + 0.1
    idx = build_risk_index(times, rng.random(n) < 0.7)
    beta = rng.normal(scale=0.1, size=p)
    tracemalloc.start()
    try:
        _grad_hessian(X, beta, idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an (n, p, p) prefix-sum tensor alone would take n * p * p * 8 = 115 MB
    assert peak < 10 * (n * p + p * p) * 8
