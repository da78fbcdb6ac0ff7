import os

# OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it. Set here,
# before numpy loads, the in-process fits of the suite (the linear and
# interaction gates, the depth check, the gradient checks) compute under
# the one BLAS thread of a pool unit, and two numpy processes beside each
# other do not oversubscribe the cores. A count the user sets stands.
USER_BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from ressurv.data import SurvivalDataset
from ressurv.training import plan_folds


def random_survival_arrays(n, seed, censor_frac=0.3, tie_frac=0.15):
    """Random times/events/scores with injected ties for metric tests."""
    rng = np.random.default_rng(seed)
    times = rng.exponential(10.0, size=n) + 0.01
    # force duplicate event times
    n_ties = int(n * tie_frac)
    if n_ties >= 2:
        donors = rng.choice(n, size=n_ties, replace=False)
        receivers = rng.choice(n, size=n_ties, replace=True)
        times[donors] = times[receivers]
    events = rng.random(n) >= censor_frac
    if not events.any():
        events[0] = True
    scores = rng.normal(size=n)
    # tied scores too
    if n >= 10:
        scores[1] = scores[0]
        scores[5] = scores[4]
    return times, events, scores


def make_dataset(n=40, p=3, seed=0, censor_frac=0.3) -> SurvivalDataset:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    times = rng.exponential(5.0, size=n) + 0.01
    events = rng.random(n) >= censor_frac
    if not events.any():
        events[0] = True
    ids = [f"s{i:04d}" for i in range(n)]
    names = [f"x{j}" for j in range(p)]
    return SurvivalDataset(ids, X, names, times, events)


def fold_1_feature_dataset() -> SurvivalDataset:
    """40 rows of one feature that is nonzero only on the rows fold 1 holds
    out at k=2, seed 0: fold 0's complement keeps it, fold 1's retains no
    feature."""
    ds = make_dataset(n=40, p=1, seed=0)
    held_out = plan_folds(ds, 2, 0).folds.test_indices(1)
    features = np.zeros_like(ds.features)
    features[held_out] = ds.features[held_out]
    return SurvivalDataset(ds.sample_ids, features, ds.feature_names, ds.times, ds.events)


@pytest.fixture
def small_ds():
    return make_dataset()
