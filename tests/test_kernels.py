"""The two concordance counting routes, `pair_counts` and `sweep_counts`,
must produce identical integer counts."""

import numpy as np

from ressurv import _kernels
from ressurv.metrics import concordance_fast, concordance_index

from conftest import random_survival_arrays


def test_backend_reports_a_known_name():
    assert _kernels.backend() == "numpy"


def test_fallback_sweep_matches_pairwise():
    times, events, scores = random_survival_arrays(250, 2, tie_frac=0.3)
    ranks = np.unique(scores, return_inverse=True)[1]
    assert _kernels.sweep_counts(times, events, ranks) == \
        _kernels.pair_counts(times, events, ranks)


def test_metric_results_backend_independent():
    times, events, scores = random_survival_arrays(800, 9, tie_frac=0.25)
    a = concordance_index(times, events, scores)
    b = concordance_fast(times, events, scores)
    assert (a.concordant, a.discordant, a.tied_score) == \
           (b.concordant, b.discordant, b.tied_score)
