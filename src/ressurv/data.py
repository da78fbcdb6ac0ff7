"""Censored survival datasets: CSV ingestion, filtering, standardization,
fold assignment, and a Weibull proportional-hazards synthetic generator.

A dataset is an immutable bundle of a dense feature matrix plus per-sample
survival time and event indicator. Times are continuous and may contain
duplicates; tie handling is the loss module's concern.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from .errors import (
    DataRowError,
    SchemaError,
    StratificationError,
    UnusableDatasetError,
)

HAZARD_KINDS = ("linear", "interaction", "deep")

# Feature columns whose variance falls at or below this are dropped.
MIN_VARIANCE = 1e-8


def _finite_number(value) -> bool:
    """A real number, not a bool, that float64 holds as a finite value."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond float64's range
        return False


def check_field_types(obj) -> None:
    """Refuse a dataclass field value of the wrong type with a ValueError
    naming the field: int fields take integers only (not bools, not 2.5),
    float fields finite real numbers only (not bools, strings, None, NaN or
    infinity), bool fields bools only (not 1)."""
    for f in fields(obj):
        if f.type not in ("int", "float", "bool"):
            continue
        value = getattr(obj, f.name)
        # bool is an Integral; JSON true must not pass for 1
        if f.type == "int" and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise ValueError(f"{f.name} must be an integer, not {value!r}")
        if f.type == "float" and not _finite_number(value):
            raise ValueError(f"{f.name} must be a finite number, not {value!r}")
        if f.type == "bool" and not isinstance(value, bool):
            raise ValueError(f"{f.name} must be true or false, not {value!r}")


@dataclass(frozen=True)
class SurvivalDataset:
    """Feature matrix with per-sample survival time and event indicator.

    `events[i]` is True when the event (death) was observed, False when the
    sample is censored. Arrays are locked read-only after construction, so a
    dataset can be shared freely across threads; derived datasets are new
    objects.

    Every dataset is one that `load_csv` accepts and `write_csv` round-trips
    unchanged: the constructor raises `SchemaError` for a column name with
    surrounding whitespace or one that repeats (the id, time and event
    columns included), and `DataRowError` naming the 1-based row for an id
    that is empty, has surrounding whitespace or repeats, a time that is not
    positive and finite, or a non-finite feature, checked in that order.
    """

    sample_ids: list[str]
    features: np.ndarray       # (n, p) float64
    feature_names: list[str]
    times: np.ndarray          # (n,) float64
    events: np.ndarray         # (n,) bool

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        times = np.asarray(self.times, dtype=np.float64).ravel()
        events = np.asarray(self.events).astype(bool).ravel()
        ids = [str(s) for s in self.sample_ids]
        names = [str(s) for s in self.feature_names]
        n, p = feats.shape
        if not (len(ids) == len(times) == len(events) == n):
            raise ValueError(
                f"inconsistent sample counts: {len(ids)} ids, {n} feature rows, "
                f"{len(times)} times, {len(events)} events"
            )
        if len(names) != p:
            raise ValueError(f"{len(names)} feature names for {p} columns")
        _check_columns([ID_COL, TIME_COL, EVENT_COL, *names])
        _check_ids(ids)
        _check_times(times)
        _check_features(feats, names)
        self._settle(ids, feats, names, times, events)

    def _settle(self, ids, features, names, times, events) -> None:
        for arr in (features, times, events):
            arr.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "feature_names", names)

    def _derive(self, ids: list[str], features: np.ndarray, names: list[str],
                times: np.ndarray, events: np.ndarray) -> "SurvivalDataset":
        """A dataset of parts cut or computed from this one, with the types
        and shapes the constructor gives them, built without its checks: the
        caller runs the rules its derivation can break."""
        ds = object.__new__(type(self))
        ds._settle(ids, np.ascontiguousarray(features), names, times, events)
        return ds

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @property
    def n_events(self) -> int:
        return int(self.events.sum())

    def subset(self, indices) -> "SurvivalDataset":
        """New dataset containing the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        ids = list(map(self.sample_ids.__getitem__, idx.tolist()))
        # distinct rows of a valid dataset break no rule; a repeated row
        # repeats its id
        taken = np.zeros(self.n, dtype=bool)
        taken[idx] = True
        if np.count_nonzero(taken) != idx.size:
            _check_ids(ids)
        return self._derive(ids, self.features[idx], list(self.feature_names),
                            self.times[idx], self.events[idx])

    def select_features(self, names: list[str]) -> "SurvivalDataset":
        """New dataset keeping only the named feature columns, in the given order."""
        pos = {name: j for j, name in enumerate(self.feature_names)}
        missing = [name for name in names if name not in pos]
        if missing:
            raise ValueError(f"unknown feature names: {missing[:5]}")
        names = [str(name) for name in names]
        _check_columns([ID_COL, TIME_COL, EVENT_COL, *names])
        cols = np.array([pos[name] for name in names], dtype=np.intp)
        return self._derive(list(self.sample_ids), self.features[:, cols], names,
                            self.times, self.events)

    def sorted_by_id(self) -> "SurvivalDataset":
        """Rows reordered into canonical (lexicographic sample id) order."""
        order = sorted(range(self.n), key=self.sample_ids.__getitem__)
        return self.subset(order)

    def require_trainable(self) -> None:
        """Check the invariants training relies on; raise if violated."""
        if self.n < 2:
            raise UnusableDatasetError(f"need at least 2 samples, got {self.n}")
        if self.n_events < 1:
            raise UnusableDatasetError("dataset contains no observed events")


def _check_columns(columns: list[str]) -> None:
    """The header rules: no column name has surrounding whitespace, and none
    repeats. `columns` is the whole header, reserved columns included."""
    seen: set[str] = set()
    for name in columns:
        if name != name.strip():
            raise SchemaError(f"column name {name!r} has surrounding whitespace")
        if name in seen:
            raise SchemaError(f"column name {name!r} repeats: the id, time, event and "
                              "feature columns need distinct names")
        seen.add(name)


# The row rules, each tested at once over all rows; the offending row is
# looked for only when one fails. The constructor runs them in this order.

def _check_ids(ids: list[str]) -> None:
    # cheap when all pass: str.strip returns an unchanged id as the same object
    if len(set(ids)) == len(ids) and all(ids) and list(map(str.strip, ids)) == ids:
        return
    seen: set[str] = set()
    for row, sid in enumerate(ids, start=1):
        if not sid or sid != sid.strip():
            raise DataRowError(row, f"sample id {sid!r} is empty or has surrounding "
                                    "whitespace")
        if sid in seen:
            # ids canonicalize row order downstream, so they must be unique
            raise DataRowError(row, f"duplicate sample id {sid!r}")
        seen.add(sid)


def _check_times(times: np.ndarray) -> None:
    bad = np.flatnonzero(~(np.isfinite(times) & (times > 0)))
    if bad.size:
        i = int(bad[0])
        raise DataRowError(i + 1, f"time must be positive and finite, got "
                                  f"{float(times[i])!r}")


def _check_features(features: np.ndarray, names: list[str]) -> None:
    if not np.isfinite(features).all():
        i, j = (int(v) for v in np.argwhere(~np.isfinite(features))[0])
        raise DataRowError(i + 1, f"non-finite value {float(features[i, j])!r} "
                                  f"in column {names[j]!r}")


@dataclass(frozen=True)
class StandardizationParams:
    """Per-feature mean and population standard deviation: finite, and the
    deviations positive."""

    means: np.ndarray
    stddevs: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64).ravel()
        stds = np.asarray(self.stddevs, dtype=np.float64).ravel()
        if means.shape != stds.shape:
            raise ValueError("means and stddevs must have the same length")
        if not (np.isfinite(means).all() and np.isfinite(stds).all()):
            raise ValueError("means and stddevs must be finite")
        if not (stds > 0).all():
            raise ValueError("all stddevs must be strictly positive")
        means.flags.writeable = False
        stds.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stddevs", stds)


@dataclass(frozen=True)
class FoldAssignment:
    """Partition of samples into k folds, stratified by event indicator."""

    fold_of_sample: np.ndarray   # (n,) int in [0, k)
    k: int
    seed: int

    def __post_init__(self):
        fos = np.asarray(self.fold_of_sample, dtype=np.int64).ravel()
        fos.flags.writeable = False
        object.__setattr__(self, "fold_of_sample", fos)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_sample == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_sample != fold)

    def content_hash(self) -> str:
        """Stable hex digest of the assignment, recorded in reports so runs
        on 'identical folds' can be verified."""
        import hashlib

        raw = self.fold_of_sample.astype("<i8").tobytes() + f"|k={self.k}".encode()
        return hashlib.sha256(raw).hexdigest()[:16]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic censored survival dataset.

    Event times follow a Weibull proportional-hazards model: with true risk
    score s and U ~ uniform(0,1),

        T = (-ln U / (baseline_scale * exp(s)))**(1 / weibull_shape)

    Censoring times are uniform on [0, c_max] with c_max solved by bisection
    so the realized censored fraction lands on the target (the realized rate
    is within 1/n of the target, well inside +/-0.05 for n >= 20).
    """

    n: int
    p: int
    hazard_kind: str = "linear"
    true_coefficients: tuple[float, ...] | None = None
    weibull_shape: float = 1.0
    baseline_scale: float = 0.1
    target_censor_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be >= 1")
        if self.hazard_kind not in HAZARD_KINDS:
            raise ValueError(
                f"hazard_kind must be one of {HAZARD_KINDS}, got {self.hazard_kind!r}"
            )
        if not 0.0 <= self.target_censor_rate < 1.0:
            raise ValueError("target_censor_rate must lie in [0, 1)")
        if self.weibull_shape <= 0 or self.baseline_scale <= 0:
            raise ValueError("weibull_shape and baseline_scale must be positive")
        coefs = self.true_coefficients
        if isinstance(coefs, np.ndarray):
            coefs = coefs.tolist()   # a 0-d array becomes a number
        if coefs is not None:
            if (isinstance(coefs, (str, bytes)) or not isinstance(coefs, Sequence)
                    or not all(_finite_number(c) for c in coefs)):
                raise ValueError(f"true_coefficients must be a list of finite numbers, "
                                 f"not {coefs!r}")
            object.__setattr__(self, "true_coefficients", tuple(float(c) for c in coefs))
        if self.hazard_kind == "linear":
            if coefs is None:
                raise ValueError("linear hazard requires true_coefficients")
            if len(coefs) != self.p:
                raise ValueError(f"true_coefficients has length {len(coefs)}, expected p={self.p}")
        elif self.hazard_kind == "interaction" and self.p < 2:
            raise ValueError("interaction hazard requires p >= 2")
        elif self.hazard_kind == "deep" and self.p < 3:
            raise ValueError("deep hazard requires p >= 3")


# The CSV columns of the id/time/event triple; all other columns are features.
ID_COL = "sample_id"
TIME_COL = "time"
EVENT_COL = "event"


_TRUE_TOKENS = {"1", "true"}
_FALSE_TOKENS = {"0", "false"}


def _parse_event(token: str, row: int) -> bool:
    t = token.strip().lower()
    if t in _TRUE_TOKENS:
        return True
    if t in _FALSE_TOKENS:
        return False
    raise DataRowError(row, f"event value {token!r} is not one of 0/1/true/false")


def _utf8_lines(fh, path):
    try:
        yield from fh
    except UnicodeDecodeError as err:
        raise SchemaError(f"{path}: not UTF-8 text ({err.reason}: byte "
                          f"0x{err.object[err.start]:02x})") from None


def load_csv(path) -> SurvivalDataset:
    """Load a survival dataset from CSV.

    The header row is required and must name the ID_COL, TIME_COL and
    EVENT_COL columns, each once; every remaining column is a numeric
    feature. Parsing is fail-fast: a wrong cell count, a missing or
    non-numeric time or feature, or a bad event token raises `DataRowError`
    naming the 1-based data row. The values are then checked by the
    `SurvivalDataset` constructor, which names the row too. A file that is
    not UTF-8 text raises `SchemaError` naming the file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        _check_columns(header)
        col_of = {name: i for i, name in enumerate(header)}
        for col in (ID_COL, TIME_COL, EVENT_COL):
            if col not in col_of:
                raise SchemaError(f"{path}: missing required column {col!r}")
        special = {col_of[ID_COL], col_of[TIME_COL], col_of[EVENT_COL]}
        feature_cols = [i for i in range(len(header)) if i not in special]
        feature_names = [header[i] for i in feature_cols]

        ids: list[str] = []
        times: list[float] = []
        events: list[bool] = []
        rows: list[list[float]] = []
        for rownum, record in enumerate(reader, start=1):
            if len(record) != len(header):
                raise DataRowError(
                    rownum, f"expected {len(header)} cells, got {len(record)}"
                )
            raw_time = record[col_of[TIME_COL]].strip()
            if not raw_time:
                raise DataRowError(rownum, "missing time value")
            try:
                t = float(raw_time)
            except ValueError:
                raise DataRowError(rownum, f"time value {raw_time!r} is not numeric") from None
            ev = _parse_event(record[col_of[EVENT_COL]], rownum)
            feats = []
            for ci in feature_cols:
                cell = record[ci].strip()
                if not cell:
                    raise DataRowError(rownum, f"missing value in column {header[ci]!r}")
                try:
                    feats.append(float(cell))
                except ValueError:
                    raise DataRowError(
                        rownum, f"non-numeric value {cell!r} in column {header[ci]!r}"
                    ) from None
            ids.append(record[col_of[ID_COL]].strip())
            times.append(t)
            events.append(ev)
            rows.append(feats)

    if not ids:
        raise SchemaError(f"{path}: no data rows")
    features = np.array(rows, dtype=np.float64).reshape(len(ids), len(feature_cols))
    return SurvivalDataset(ids, features, feature_names, np.array(times), np.array(events))


def write_csv(ds: SurvivalDataset, path) -> None:
    """Write a dataset to the same CSV format `load_csv` reads.

    Floats are written with shortest round-trip repr, so load(write(ds))
    reproduces the dataset exactly: the `SurvivalDataset` constructor already
    refused every dataset that `load_csv` would reject or read back changed.
    An empty dataset raises `SchemaError` before the file is opened.
    """
    if ds.n == 0:
        raise SchemaError("no data rows to write")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([ID_COL, TIME_COL, EVENT_COL, *ds.feature_names])
        for i in range(ds.n):
            row = [
                ds.sample_ids[i],
                repr(float(ds.times[i])),
                "1" if ds.events[i] else "0",
            ]
            row.extend(repr(float(v)) for v in ds.features[i])
            writer.writerow(row)


def filter_patients(ds: SurvivalDataset) -> tuple[SurvivalDataset, int]:
    """Check that the dataset has an observed event, else raise
    `UnusableDatasetError`. Returns the dataset unchanged and 0 removed
    samples: the constructor refuses nonpositive and non-finite times, so
    no patient is left to drop."""
    if ds.n_events == 0:
        raise UnusableDatasetError("dataset contains no observed events")
    return ds, 0


def filter_features(ds: SurvivalDataset) -> tuple[SurvivalDataset, list[str]]:
    """Drop feature columns whose population variance is <= MIN_VARIANCE.

    Returns the filtered dataset and the retained feature names. Idempotent.
    Raises `UnusableDatasetError` if nothing survives.
    """
    # an overflowing column reads var inf, which standardize_fit then names
    with np.errstate(over="ignore"):
        keep = ds.features.var(axis=0) > MIN_VARIANCE
    retained = [name for name, k in zip(ds.feature_names, keep) if k]
    if not retained:
        raise UnusableDatasetError(
            f"no features retained at min_variance={MIN_VARIANCE!r}"
        )
    if keep.all():
        return ds, retained
    return ds.select_features(retained), retained


def standardize_fit(ds: SurvivalDataset) -> StandardizationParams:
    """Per-feature mean and population (divide-by-n) standard deviation.

    Raises on zero-variance features, naming the first offender (run
    `filter_features` first), and on features whose mean or deviation
    overflows float64 (values near ±1e308).
    """
    # an overflow is reported below, naming the feature, not as a warning
    with np.errstate(over="ignore"):
        means = ds.features.mean(axis=0)
        stds = ds.features.std(axis=0)   # population convention
    bad = np.flatnonzero(stds == 0)
    if bad.size:
        raise UnusableDatasetError(
            f"feature {ds.feature_names[bad[0]]!r} has zero variance; "
            "run filter_features first"
        )
    bad = np.flatnonzero(~(np.isfinite(means) & np.isfinite(stds)))
    if bad.size:
        j = bad[0]
        raise UnusableDatasetError(
            f"feature {ds.feature_names[j]!r} has mean {means[j]} and standard deviation "
            f"{stds[j]}; its values overflow float64"
        )
    return StandardizationParams(means, stds)


def standardize_apply(ds: SurvivalDataset, params: StandardizationParams) -> SurvivalDataset:
    """Center and scale features by the given parameters; times and events
    pass through untouched."""
    if params.means.shape[0] != ds.p:
        raise ValueError(
            f"standardization params have {params.means.shape[0]} features, dataset has {ds.p}"
        )
    scaled = (ds.features - params.means) / params.stddevs
    # the scaling can overflow; nothing else changes
    _check_features(scaled, ds.feature_names)
    return ds._derive(list(ds.sample_ids), scaled, list(ds.feature_names),
                      ds.times, ds.events)


def prepare_fold(
    train: SurvivalDataset, test: SurvivalDataset
) -> tuple[SurvivalDataset, SurvivalDataset, StandardizationParams]:
    """Leakage-free fold preparation: drop low-variance features and fit
    standardization on the training side only, then apply both to each side.
    Returns (train, test, standardization)."""
    train, retained = filter_features(train)
    test = test.select_features(retained)
    std = standardize_fit(train)
    return standardize_apply(train, std), standardize_apply(test, std), std


def _dealt_assignment(events: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Round-robin deal of shuffled events then shuffled censored samples.

    Guarantees overall fold sizes differ by at most 1 and per-fold event
    counts differ by at most 1.
    """
    ev_idx = rng.permutation(np.flatnonzero(events))
    cen_idx = rng.permutation(np.flatnonzero(~events))
    dealt = np.concatenate([ev_idx, cen_idx])
    fold = np.empty(len(events), dtype=np.int64)
    fold[dealt] = np.arange(len(dealt)) % k
    return fold


def kfold_split(ds: SurvivalDataset, k: int, seed: int) -> FoldAssignment:
    """Deterministic event-stratified k-fold assignment.

    Raises `StratificationError` if any fold's training complement would
    contain zero events (possible only when the dataset has a single event).
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if ds.n < k:
        raise ValueError(f"need at least k={k} samples, got {ds.n}")
    fold = _dealt_assignment(ds.events, k, np.random.default_rng(seed))
    for f in range(k):
        if ds.events[fold != f].sum() == 0:
            raise StratificationError(
                f"training complement of fold {f} has no events "
                f"(dataset has {ds.n_events} event(s) for k={k})"
            )
    return FoldAssignment(fold, k, seed)


def stratified_holdout(
    events: np.ndarray, holdout_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split the indices of `events` (one event indicator per row) into
    (train, holdout), stratified by event indicator.

    The holdout receives round(fraction * count) samples from each stratum,
    at least one event in each side when there are >= 2 events.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must lie in (0, 1)")
    events = np.asarray(events, dtype=bool)
    if events.ndim != 1:
        raise ValueError(f"events must be 1-D, got shape {events.shape}")
    rng = np.random.default_rng(seed)
    ev_idx = rng.permutation(np.flatnonzero(events))
    cen_idx = rng.permutation(np.flatnonzero(~events))
    n_ev_hold = int(round(holdout_fraction * len(ev_idx)))
    if len(ev_idx) >= 2:
        n_ev_hold = min(max(n_ev_hold, 1), len(ev_idx) - 1)
    n_cen_hold = int(round(holdout_fraction * len(cen_idx)))
    hold = np.concatenate([ev_idx[:n_ev_hold], cen_idx[:n_cen_hold]])
    train = np.concatenate([ev_idx[n_ev_hold:], cen_idx[n_cen_hold:]])
    return np.sort(train), np.sort(hold)


def _true_scores(spec: SyntheticSpec, X: np.ndarray) -> np.ndarray:
    if spec.hazard_kind == "linear":
        return X @ np.asarray(spec.true_coefficients, dtype=np.float64)
    if spec.hazard_kind == "interaction":
        return X[:, 0] * X[:, 1]
    # deep: a smooth/nonsmooth mix no linear or single-interaction model captures
    return np.sin(X[:, 0]) + X[:, 1] ** 2 * np.sign(X[:, 2])


def _solve_censor_scale(
    event_times: np.ndarray, unit_censor: np.ndarray, target: float
) -> float:
    """Bisect on the censoring horizon c so that mean(c * unit_censor < T)
    lands on the target censored fraction.

    The realized fraction is a step function of c with steps of 1/n, so
    bisection converges to the jump closest to the target.
    """
    ratio = event_times / unit_censor

    def censored_frac(c: float) -> float:
        return float((ratio > c).mean())

    lo = 0.0
    hi = float(ratio.max()) * 2.0 + 1.0
    while censored_frac(hi) > target:
        hi *= 2.0
        if hi > 1e300:
            break
    best_c, best_err = hi, abs(censored_frac(hi) - target)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        frac = censored_frac(mid)
        err = abs(frac - target)
        if err < best_err:
            best_c, best_err = mid, err
        if frac > target:
            lo = mid
        else:
            hi = mid
    return best_c


def generate_synthetic(spec: SyntheticSpec) -> tuple[SurvivalDataset, np.ndarray]:
    """Draw a censored survival dataset under a Weibull proportional-hazards
    model. Returns (dataset, true risk scores); higher score means earlier
    expected event. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.n, spec.p))
    s = _true_scores(spec, X)
    tiny = np.finfo(np.float64).tiny
    u = rng.uniform(tiny, 1.0, size=spec.n)
    event_times = (-np.log(u) / (spec.baseline_scale * np.exp(s))) ** (1.0 / spec.weibull_shape)

    if spec.target_censor_rate == 0.0:
        times = event_times
        events = np.ones(spec.n, dtype=bool)
    else:
        unit_censor = rng.uniform(tiny, 1.0, size=spec.n)
        c_max = _solve_censor_scale(event_times, unit_censor, spec.target_censor_rate)
        censor_times = unit_censor * c_max
        events = event_times <= censor_times
        times = np.where(events, event_times, censor_times)

    width = len(str(spec.n - 1))
    ids = [f"synth-{i:0{width}d}" for i in range(spec.n)]
    names = [f"x{j}" for j in range(spec.p)]
    return SurvivalDataset(ids, X, names, times, events), s
