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
from itertools import count, islice
from numbers import Integral, Real
from types import SimpleNamespace

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

# The column variances and deviations are reduced a block of columns of
# about this many bytes at a time, so that their temporaries stay small;
# a block of fewer columns would make short, slow inner loops.
STATS_BLOCK_BYTES = 1 << 17
STATS_MIN_COLUMNS = 16


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
        """Rows reordered into canonical (lexicographic sample id) order: the
        dataset itself, not a copy, when its rows are in that order already."""
        ids = self.sample_ids
        if all(map(str.__lt__, ids, islice(ids, 1, None))):
            return self
        return self.subset(sorted(range(self.n), key=ids.__getitem__))

    def require_comparable_pair(self, rows, what: str) -> None:
        """The one trainability rule: raise `UnusableDatasetError` naming
        `what` unless the rows `rows` (an index array or a slice) hold a
        comparable pair, an event followed by a strictly later time."""
        times, events = self.times[rows], self.events[rows]
        if not (events.any() and times.min(where=events, initial=np.inf) < times.max()):
            raise UnusableDatasetError(f"{what} has no comparable pair (an event followed "
                                       "by a strictly later time)")


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
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
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

# `load_csv` checks a file for the numpy parse, and cuts its id, time and
# event cells, in blocks of lines read this many bytes at a time, so that no
# line becomes an object. Below glibc's initial mmap threshold (128 KiB), a
# block's buffers are reused from the heap: at 256 KiB, the command's peak
# RSS on a 20,000 x 8 input was 0.6 MB higher.
PLAIN_BLOCK_BYTES = 1 << 16


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
    `SurvivalDataset` constructor, which names the row too. A UTF-8
    byte-order mark, which Excel's "CSV UTF-8" export writes, is skipped. A
    file that is not UTF-8 text raises `SchemaError` naming the file, and so
    does a header that `csv.reader` refuses (a cell longer than
    `csv.field_size_limit()`); in a data row, that is a `DataRowError`.

    numpy parses a plain file (see `_plain_cells`); every other file, and
    every file numpy refuses, goes through the row scan, which alone words
    the parse errors. Both routes give the same dataset.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row required") from None
        except csv.Error as err:   # such as a cell over csv.field_size_limit()
            raise SchemaError(f"{path}: header row: {err}") from None
        header = [h.strip() for h in header]
        _check_columns(header)
        col_of = {name: i for i, name in enumerate(header)}
        for col in (ID_COL, TIME_COL, EVENT_COL):
            if col not in col_of:
                raise SchemaError(f"{path}: missing required column {col!r}")
        special = [col_of[ID_COL], col_of[TIME_COL], col_of[EVENT_COL]]
        feature_cols = [i for i in range(len(header)) if i not in special]
        parsed = _parse_plain(path, len(header), special, feature_cols)
        if parsed is None:
            parsed = _scan_rows(reader, header, special, feature_cols)

    ids, times, events, features = parsed
    if not ids:
        raise SchemaError(f"{path}: no data rows")
    return SurvivalDataset(ids, features, [header[i] for i in feature_cols], times, events)


def _line_blocks(fh):
    """The bytes of binary file `fh` in blocks of whole lines, each read
    PLAIN_BLOCK_BYTES at a time, so that a line longer than that makes a
    longer block; every block ends in a line feed but a last line without
    one."""
    parts = []
    while block := fh.read(PLAIN_BLOCK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            yield b"".join([*parts, block[:cut]])
            parts = [block[cut:]]
        else:
            parts.append(block)
    if tail := b"".join(parts):
        yield tail


def _plain_cells(path, width: int, special: list[int]):
    """(ids, times, events) of a plain file with data rows, or None where
    the row scan must run: the file is not plain, or a time or event cell
    does not parse.

    A plain file is UTF-8 text with no `"` or NUL byte, a CR only in CRLF,
    `width` - 1 commas on every line, and no cell longer than
    `csv.field_size_limit()`, which the row scan refuses. On such a file
    numpy's tokenizer and `csv.reader` cut the same cells, and no line is
    blank, short or long. Each block of lines is checked with numpy, and
    the cells of the columns `special` (id, time, event) are cut from its
    text by the offsets of its commas and line feeds, then read by the row
    scan's own calls: `str.strip` for the id, `float` for the time (numpy's
    float parse refuses the `1_000` and non-ASCII digits that `float`
    reads) and `_parse_event` for the event. Only the ids are kept as
    Python objects.
    """
    limit = csv.field_size_limit()
    ids, times, events = [], [], []
    skip = 1   # the header line, which the first block holds
    with open(path, "rb") as fh:
        for block in _line_blocks(fh):
            if not block.endswith(b"\n"):   # the last line, without a line end
                if block.endswith(b"\r"):
                    return None
                block += b"\n"
            arr = np.frombuffer(block, np.uint8)
            if (b'"' in block or b"\0" in block
                    or ((arr[:-1] == ord("\r")) & (arr[1:] != ord("\n"))).any()):
                return None
            ends = np.flatnonzero((arr == ord(",")) | (arr == ord("\n")))
            line_ends = arr[ends] == ord("\n")
            lines = np.count_nonzero(line_ends)
            if len(ends) != width * lines or not line_ends[width - 1::width].all():
                return None
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError:
                return None
            if len(text) < len(block):   # byte offsets to character offsets
                continuation = np.flatnonzero((arr & 0xC0) == 0x80)
                ends -= np.searchsorted(continuation, ends)
            starts = np.concatenate(([0], ends[:-1] + 1))
            long = (ends - starts) > limit   # counting a line's CR in its last cell
            if long.any() and any(len(text[a:b].rstrip("\r")) > limit
                                  for a, b in zip(starts[long], ends[long])):
                return None
            first = skip * width
            id_cells, time_cells, event_cells = (
                zip(starts[first + j::width].tolist(), ends[first + j::width].tolist())
                for j in special)
            rows = lines - skip
            ids += [text[a:b].strip() for a, b in id_cells]
            try:
                times.append(np.fromiter((float(text[a:b]) for a, b in time_cells),
                                         np.float64, rows))
                events.append(np.fromiter((_parse_event(text[a:b], 0) for a, b in event_cells),
                                          bool, rows))
            except (ValueError, DataRowError):
                return None
            skip = 0
    if not ids:
        return None
    return ids, np.concatenate(times), np.concatenate(events)


def _parse_plain(path, width: int, special: list[int], feature_cols: list[int]):
    """(ids, times, events, features) of a plain file with data rows, each
    cell read by the row scan's rule, or None where the row scan must run:
    the file is not plain, or numpy or the row scan's calls refuse a cell.
    The features are float64 straight from `np.loadtxt`, which runs once
    `_plain_cells` has returned and let go of its blocks.
    """
    cells = _plain_cells(path, width, special)
    if cells is None:
        return None
    try:
        features = np.loadtxt(path, usecols=feature_cols, delimiter=",", comments=None,
                              encoding="utf-8", skiprows=1, ndmin=2)
    except ValueError:
        return None
    return (*cells, features)


def _scan_rows(reader, header: list[str], special: list[int], feature_cols: list[int]):
    """(ids, times, events, features) of the data rows of `reader`, read
    cell by cell; the first row `reader` refuses or cell that does not
    parse raises `DataRowError` naming its row."""
    id_col, time_col, event_col = special
    ids: list[str] = []
    times: list[float] = []
    events: list[bool] = []
    rows: list[list[float]] = []
    for rownum in count(1):
        try:
            record = next(reader, None)
        except csv.Error as err:   # such as a cell over csv.field_size_limit()
            raise DataRowError(rownum, str(err)) from None
        if record is None:
            break
        if len(record) != len(header):
            raise DataRowError(
                rownum, f"expected {len(header)} cells, got {len(record)}"
            )
        raw_time = record[time_col].strip()
        if not raw_time:
            raise DataRowError(rownum, "missing time value")
        try:
            t = float(raw_time)
        except ValueError:
            raise DataRowError(rownum, f"time value {raw_time!r} is not numeric") from None
        ev = _parse_event(record[event_col], rownum)
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
        ids.append(record[id_col].strip())
        times.append(t)
        events.append(ev)
        rows.append(feats)
    features = np.array(rows, dtype=np.float64).reshape(len(ids), len(feature_cols))
    return ids, np.array(times), np.array(events), features


def write_csv(ds: SurvivalDataset, path) -> None:
    """Write a dataset to the same CSV format `load_csv` reads.

    Floats are written with shortest round-trip repr, so load(write(ds))
    reproduces the dataset exactly: the `SurvivalDataset` constructor already
    refused every dataset that `load_csv` would reject or read back changed.
    An empty dataset raises `SchemaError` before the file is opened.
    """
    if ds.n == 0:
        raise SchemaError("no data rows to write")
    # csv.writer quotes each id that needs it, handing write() one row
    # `id,` + "\r\n" at a time; no other cell holds a character to quote
    ids: list[str] = []
    csv.writer(SimpleNamespace(write=ids.append)).writerows([sid, ""] for sid in ds.sample_ids)
    lead = "," if ds.p else ""
    lines = (
        f"{sid[:-2]}{t!r},{'1' if e else '0'}{lead}{','.join(map(repr, feats))}\r\n"
        for sid, t, e, feats in zip(ids, ds.times.tolist(), ds.events.tolist(),
                                    map(np.ndarray.tolist, ds.features))
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([ID_COL, TIME_COL, EVENT_COL, *ds.feature_names])
        fh.writelines(lines)


def filter_patients(ds: SurvivalDataset) -> tuple[SurvivalDataset, int]:
    """Check that the dataset holds a comparable pair, else raise
    `UnusableDatasetError`. Returns the dataset unchanged and 0 removed
    samples: the constructor refuses nonpositive and non-finite times, so
    no patient is left to drop."""
    ds.require_comparable_pair(slice(None), "the dataset")
    return ds, 0


def _column_stat(X: np.ndarray, stat: str) -> np.ndarray:
    """`X.var(axis=0)` or `X.std(axis=0)` bit for bit, reduced over blocks
    of about `STATS_BLOCK_BYTES`, at least `STATS_MIN_COLUMNS` wide: numpy's
    axis-0 reduce adds the rows one after another for any block at least
    two columns wide (at width 1 it sums pairwise, so no block is one
    column wide unless `X` is)."""
    n, p = X.shape
    width = max(STATS_MIN_COLUMNS, STATS_BLOCK_BYTES // (8 * max(n, 1)))
    starts = list(range(0, p, width)) or [0]
    if len(starts) > 1 and p - starts[-1] == 1:
        starts.pop()   # the last column joins the block before
    return np.concatenate([getattr(X[:, a:b], stat)(axis=0)
                           for a, b in zip(starts, starts[1:] + [p])])


def filter_features(ds: SurvivalDataset) -> tuple[SurvivalDataset, list[str]]:
    """Drop feature columns whose population variance is <= MIN_VARIANCE.

    Returns the filtered dataset and the retained feature names. Idempotent.
    Raises `UnusableDatasetError` if nothing survives.
    """
    # an overflowing column reads var inf, which standardize_fit then names
    with np.errstate(over="ignore"):
        keep = _column_stat(ds.features, "var") > MIN_VARIANCE
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
        stds = _column_stat(ds.features, "std")   # population convention
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
    scaled = np.subtract(ds.features, params.means)
    scaled /= params.stddevs
    # the scaling can overflow; nothing else changes
    _check_features(scaled, ds.feature_names)
    return ds._derive(list(ds.sample_ids), scaled, list(ds.feature_names),
                      ds.times, ds.events)


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
