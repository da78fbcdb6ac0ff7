"""Concordance pair counting.

Two independent routes count the same pair statistics, with one signature
`(times, events, ranks) -> (concordant, discordant, tied)`:

  * pair_counts  - the normative O(n^2) scan over all comparable pairs
  * sweep_counts - an O(n log^2 n) merge-sort-tree prefix count

Both take score *ranks* (dense integers from np.unique) so equality is exact,
and both return integer counts, so the two routes agree bit for bit.
"""

from __future__ import annotations

import numpy as np


def pair_counts(times, events, ranks):
    """Chunked-broadcast scan: every event against every strictly later time."""
    n = times.shape[0]
    conc = disc = tied = 0
    ev_idx = np.flatnonzero(events)
    if ev_idx.size == 0:
        return 0, 0, 0
    chunk = max(1, 4_000_000 // max(n, 1))
    for start in range(0, ev_idx.size, chunk):
        ii = ev_idx[start : start + chunk]
        later = times[None, :] > times[ii, None]
        ri = ranks[ii, None]
        rj = ranks[None, :]
        conc += int(np.count_nonzero(later & (ri > rj)))
        disc += int(np.count_nonzero(later & (ri < rj)))
        tied += int(np.count_nonzero(later & (ri == rj)))
    return conc, disc, tied


def sweep_counts(times, events, ranks):
    """With samples sorted by descending time, an event's comparable partners
    are exactly the first g positions, g = the number of strictly later
    times. The prefix [0, g) splits into one aligned block of 2^L positions
    per set bit L of g; sorting `(position >> L) * R + rank` per level makes
    every block a sorted run, so two searchsorted calls count the ranks below
    and equal to the event's inside its block."""
    order = np.argsort(-times, kind="stable")
    neg_times = -times[order]
    ranks = ranks[order]
    ev = np.flatnonzero(events[order])
    g = np.searchsorted(neg_times, neg_times[ev], side="left")
    r = ranks[ev]
    n_ranks = int(ranks.max(initial=0)) + 1
    pos = np.arange(times.shape[0])
    conc = tied = 0
    for level in range(int(g.max(initial=0)).bit_length()):
        keys = np.sort((pos >> level) * n_ranks + ranks)
        hit = ((g >> level) & 1).astype(bool)
        block = (g[hit] >> level) - 1
        key = block * n_ranks + r[hit]
        lo = np.searchsorted(keys, key, side="left")
        hi = np.searchsorted(keys, key, side="right")
        conc += int((lo - (block << level)).sum())
        tied += int((hi - lo).sum())
    return conc, int(g.sum()) - conc - tied, tied


def backend() -> str:
    # Kept only because perfbench/run.py records it in its environment line.
    return "numpy"
