"""Harrell's concordance index for censored survival data.

Conventions (these decide the sign of everything downstream):

  * higher score = higher predicted risk = earlier expected event;
  * a pair (i, j) is comparable iff T_i < T_j and sample i experienced the
    event; pairs with tied times are not comparable;
  * a comparable pair is concordant when score_i > score_j, counts 0.5 when
    the scores tie, and is discordant otherwise.

`concordance_index` is the normative O(n^2) pairwise definition;
`concordance_fast` is an O(n log^2 n) sweep that produces bit-identical
counts. Keep both: the slow one is the oracle the fast one is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import UndefinedMetricError


@dataclass(frozen=True)
class ConcordanceResult:
    c_index: float
    concordant: int
    discordant: int
    tied_score: int
    comparable_pairs: int


def _prepare(times, events, scores):
    times = np.asarray(times, dtype=np.float64).ravel()
    events = np.asarray(events).astype(bool).ravel()
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if not (times.shape == events.shape == scores.shape):
        raise ValueError("times, events, and scores must have equal length")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    # dense integer ranks make score equality exact inside the kernels
    return times, events, np.unique(scores, return_inverse=True)[1]


def _result(conc: int, disc: int, tied: int) -> ConcordanceResult:
    comparable = conc + disc + tied
    if comparable == 0:
        raise UndefinedMetricError(
            "no comparable pairs (no event is followed by a strictly later time)"
        )
    return ConcordanceResult(
        c_index=(conc + 0.5 * tied) / comparable,
        concordant=conc,
        discordant=disc,
        tied_score=tied,
        comparable_pairs=comparable,
    )


def concordance_index(times, events, scores) -> ConcordanceResult:
    """Reference O(n^2) concordance index; the normative definition."""
    return _result(*_kernels.pair_counts(*_prepare(times, events, scores)))


def concordance_fast(times, events, scores) -> ConcordanceResult:
    """O(n log^2 n) concordance index; counts bit-identical to
    `concordance_index` on every input."""
    return _result(*_kernels.sweep_counts(*_prepare(times, events, scores)))
