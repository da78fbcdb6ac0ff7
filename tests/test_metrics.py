import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ressurv.errors import UndefinedMetricError
from ressurv.metrics import concordance_fast, concordance_index

from conftest import random_survival_arrays


def test_perfect_ranking():
    result = concordance_index(np.array([1.0, 2.0, 3.0]),
                               np.array([True, True, True]),
                               np.array([3.0, 2.0, 1.0]))
    assert result.c_index == 1.0
    assert result.comparable_pairs == 3


def test_inverted_ranking():
    result = concordance_index(np.array([1.0, 2.0, 3.0]),
                               np.array([True, True, True]),
                               np.array([1.0, 2.0, 3.0]))
    assert result.c_index == 0.0


def test_censoring_and_tied_scores_hand_case():
    times = np.array([1.0, 2.0, 3.0, 4.0])
    events = np.array([True, False, True, False])
    # comparable: (1,2),(1,3),(1,4),(3,4); all concordant
    result = concordance_index(times, events, np.array([4.0, 1.0, 3.0, 2.0]))
    assert result.comparable_pairs == 4
    assert result.c_index == 1.0
    # tie between samples 3 and 4 -> (3 + 0.5) / 4
    result = concordance_index(times, events, np.array([4.0, 1.0, 2.0, 2.0]))
    assert result.tied_score == 1
    assert result.c_index == 0.875


def test_counts_add_up(small_counts=None):
    times, events, scores = random_survival_arrays(300, 5)
    r = concordance_index(times, events, scores)
    assert r.concordant + r.discordant + r.tied_score == r.comparable_pairs
    assert abs(r.c_index - (r.concordant + 0.5 * r.tied_score) / r.comparable_pairs) < 1e-15


def test_tied_event_times_not_comparable():
    times = np.array([1.0, 1.0, 2.0])
    events = np.array([True, True, True])
    r = concordance_index(times, events, np.array([3.0, 1.0, 2.0]))
    # only (1,3) and (2,3) are comparable; the tied pair is excluded
    assert r.comparable_pairs == 2


def test_monotone_transform_invariance():
    times, events, scores = random_survival_arrays(500, 6)
    a = concordance_index(times, events, scores)
    b = concordance_index(times, events, np.exp(scores * 0.5) + 3.0)
    assert (a.concordant, a.discordant, a.tied_score) == \
           (b.concordant, b.discordant, b.tied_score)


def test_negation_antisymmetry():
    rng = np.random.default_rng(7)
    times = rng.exponential(5.0, size=200) + 0.01
    events = rng.random(200) < 0.7
    events[0] = True
    scores = rng.normal(size=200)  # continuous, no tied scores
    a = concordance_index(times, events, scores)
    b = concordance_index(times, events, -scores)
    assert a.tied_score == 0
    assert abs(a.c_index - (1.0 - b.c_index)) < 1e-15


def test_censoring_never_adds_pairs():
    times, events, scores = random_survival_arrays(200, 8)
    base = concordance_index(times, events, scores).comparable_pairs
    ev = events.copy()
    ev[np.flatnonzero(ev)[0]] = False
    flipped = concordance_index(times, ev, scores).comparable_pairs
    assert flipped <= base


def test_random_scores_near_half():
    rng = np.random.default_rng(12345)
    times = rng.exponential(10.0, size=5000) + 0.01
    events = rng.random(5000) < 0.7
    scores = rng.normal(size=5000)
    r = concordance_fast(times, events, scores)
    assert abs(r.c_index - 0.5) < 0.03


def test_all_censored_undefined():
    times = np.array([1.0, 2.0, 3.0])
    events = np.array([False, False, False])
    scores = np.array([1.0, 2.0, 3.0])
    with pytest.raises(UndefinedMetricError):
        concordance_index(times, events, scores)
    with pytest.raises(UndefinedMetricError):
        concordance_fast(times, events, scores)


def test_single_event_last_undefined():
    # the only event has the latest time: no comparable pairs
    times = np.array([1.0, 2.0, 3.0])
    events = np.array([False, False, True])
    with pytest.raises(UndefinedMetricError):
        concordance_index(times, events, np.array([1.0, 2.0, 3.0]))


def test_non_finite_scores_rejected():
    with pytest.raises(ValueError):
        concordance_index(np.array([1.0, 2.0]), np.array([True, True]),
                          np.array([np.nan, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_times_rejected(bad):
    times = np.array([1.0, 2.0, bad, 3.0, 4.0])
    events = np.ones(5, dtype=bool)
    scores = np.array([0.4, 0.1, 0.3, 0.5, 0.2])
    for fn in (concordance_index, concordance_fast):
        with pytest.raises(ValueError, match="times must be finite"):
            fn(times, events, scores)


# ---------------------------------------------------------------------------
# fast == pairwise definition, exactly
# ---------------------------------------------------------------------------

def test_fast_equals_pairwise_on_random_data():
    for seed in range(12):
        times, events, scores = random_survival_arrays(400, seed, tie_frac=0.25)
        a = concordance_index(times, events, scores)
        b = concordance_fast(times, events, scores)
        assert (a.concordant, a.discordant, a.tied_score, a.comparable_pairs) == \
               (b.concordant, b.discordant, b.tied_score, b.comparable_pairs)


def test_fast_equals_pairwise_two_sample_cases():
    # every 2-sample combination of event flags and time order
    for e0 in (False, True):
        for e1 in (False, True):
            for t0, t1 in ((1.0, 2.0), (2.0, 1.0)):
                times = np.array([t0, t1])
                events = np.array([e0, e1])
                scores = np.array([0.7, -0.4])
                try:
                    a = concordance_index(times, events, scores)
                except UndefinedMetricError:
                    with pytest.raises(UndefinedMetricError):
                        concordance_fast(times, events, scores)
                    continue
                b = concordance_fast(times, events, scores)
                assert (a.concordant, a.discordant, a.tied_score) == \
                       (b.concordant, b.discordant, b.tied_score)


def test_fast_equals_pairwise_heavy_ties():
    rng = np.random.default_rng(77)
    # integer-valued times and quantized scores: tie-dense input
    times = rng.integers(1, 8, size=300).astype(np.float64)
    events = rng.random(300) < 0.6
    events[0] = True
    scores = np.round(rng.normal(size=300), 1)
    a = concordance_index(times, events, scores)
    b = concordance_fast(times, events, scores)
    assert (a.concordant, a.discordant, a.tied_score, a.comparable_pairs) == \
           (b.concordant, b.discordant, b.tied_score, b.comparable_pairs)


def _counts_or_undefined(fn, times, events, scores):
    try:
        r = fn(times, events, scores)
    except UndefinedMetricError:
        return None
    return r.concordant, r.discordant, r.tied_score


@st.composite
def survival_cases(draw):
    # n crosses the sweep's block edges 2^k - 1, 2^k, 2^k + 1; rounding to
    # few decimals makes ties in times and in scores common
    n = draw(st.integers(1, 70))
    decimals = draw(st.integers(0, 2))
    values = st.floats(0.0, 5.0).map(lambda x: round(x, decimals))
    times = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    scores = np.array(draw(st.lists(values, min_size=n, max_size=n))) - 2.5
    censoring = draw(st.sampled_from(["random", "all", "one_event"]))
    if censoring == "random":
        events = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        events = np.zeros(n, dtype=bool)
        if censoring == "one_event":
            events[draw(st.integers(0, n - 1))] = True
    return times, events, scores


@settings(max_examples=300, deadline=None)
@given(survival_cases())
def test_fast_equals_pairwise_property(case):
    assert _counts_or_undefined(concordance_fast, *case) == \
        _counts_or_undefined(concordance_index, *case)
