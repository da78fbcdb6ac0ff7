import csv
import io
import os
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ressurv import data
from ressurv.data import (
    StandardizationParams,
    SurvivalDataset,
    SyntheticSpec,
    filter_features,
    filter_patients,
    generate_synthetic,
    kfold_split,
    load_csv,
    standardize_apply,
    standardize_fit,
    stratified_holdout,
    write_csv,
)
from ressurv.errors import (
    DataRowError,
    SchemaError,
    StratificationError,
    UnusableDatasetError,
)
from ressurv.metrics import concordance_fast

from conftest import make_dataset


# ---------------------------------------------------------------------------
# SurvivalDataset
# ---------------------------------------------------------------------------

def test_dataset_shape_validation():
    with pytest.raises(ValueError):
        SurvivalDataset(["a", "b"], np.zeros((3, 2)), ["x0", "x1"],
                        np.ones(3), np.ones(3, dtype=bool))
    with pytest.raises(ValueError):
        SurvivalDataset(["a", "b"], np.zeros((2, 2)), ["x0"],
                        np.ones(2), np.ones(2, dtype=bool))


def test_dataset_arrays_are_read_only(small_ds):
    with pytest.raises(ValueError):
        small_ds.features[0, 0] = 99.0
    with pytest.raises(ValueError):
        small_ds.times[0] = 1.0


def test_subset_and_select_features(small_ds):
    sub = small_ds.subset(np.array([3, 1, 5]))
    assert sub.n == 3
    assert sub.sample_ids == [small_ds.sample_ids[i] for i in (3, 1, 5)]
    np.testing.assert_array_equal(sub.features, small_ds.features[[3, 1, 5]])

    two = small_ds.select_features(["x2", "x0"])
    assert two.feature_names == ["x2", "x0"]
    np.testing.assert_array_equal(two.features[:, 0], small_ds.features[:, 2])
    with pytest.raises(ValueError):
        small_ds.select_features(["nope"])
    with pytest.raises(SchemaError, match="column name 'x0' repeats"):
        small_ds.select_features(["x0", "x0"])


def test_sorted_by_id_canonicalizes(small_ds):
    rng = np.random.default_rng(7)
    perm = rng.permutation(small_ds.n)
    shuffled = small_ds.subset(perm)
    a = small_ds.sorted_by_id()
    b = shuffled.sorted_by_id()
    assert a.sample_ids == b.sample_ids
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.events, b.events)


def test_require_comparable_pair():
    # the one trainability rule: an event followed by a strictly later time,
    # among the rows asked about; it implies two rows and an event
    ds = make_dataset(n=10)
    ds.require_comparable_pair(slice(None), "the dataset")
    first, last = np.argmin(ds.times), np.argmax(ds.times)
    times, events = ds.times.copy(), np.zeros(ds.n, dtype=bool)
    events[[first, last]] = True
    ds = SurvivalDataset(ds.sample_ids, ds.features, ds.feature_names, times, events)
    ds.require_comparable_pair(np.array([first, last]), "two rows")
    for rows in ([first], [last], [last, np.argsort(ds.times)[1]]):
        with pytest.raises(UnusableDatasetError, match=r"^the split has no comparable pair "
                                                       r"\(an event followed by a strictly "
                                                       r"later time\)$"):
            ds.require_comparable_pair(np.array(rows), "the split")
    times[last] = times[first]   # tied with the other event: no strictly later time
    tied = SurvivalDataset(ds.sample_ids, ds.features, ds.feature_names, times, events)
    with pytest.raises(UnusableDatasetError, match="^the dataset has no comparable pair"):
        tied.require_comparable_pair(np.array([first, last]), "the dataset")
    no_events = SurvivalDataset(ds.sample_ids, ds.features, ds.feature_names, ds.times,
                                np.zeros(ds.n, dtype=bool))
    with pytest.raises(UnusableDatasetError, match="^the dataset has no comparable pair"):
        no_events.require_comparable_pair(slice(None), "the dataset")


@given(cells=st.lists(st.tuples(st.integers(1, 4), st.booleans()), min_size=1, max_size=8),
       picks=st.lists(st.integers(0, 7), max_size=8))
def test_require_comparable_pair_matches_the_pairwise_definition(cells, picks):
    # tied times and any subset of rows, against a scan of every pair
    times, events = (np.array(col) for col in zip(*cells))
    ds = SurvivalDataset([f"s{i}" for i in range(len(cells))], np.zeros((len(cells), 0)), [],
                         times.astype(float), events)
    rows = np.unique([i for i in picks if i < ds.n]).astype(np.intp)
    pair = any(events[i] and times[j] > times[i] for i in rows for j in rows)
    try:
        ds.require_comparable_pair(rows, "the rows")
    except UnusableDatasetError:
        assert not pair
    else:
        assert pair


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return path


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "sample_id,time,event,g1,g2\n"
                            "a,1.5,1,0.1,2.0\n"
                            "b,2.5,0,-0.3,1e-2\n"
                            "c,3.5,true,4,5\n")
    ds = load_csv(path)
    assert ds.n == 3 and ds.p == 2
    assert ds.feature_names == ["g1", "g2"]
    np.testing.assert_allclose(ds.times, [1.5, 2.5, 3.5])
    np.testing.assert_array_equal(ds.events, [True, False, True])
    assert ds.features[1, 1] == 0.01


def test_load_csv_missing_column(tmp_path):
    path = _write(tmp_path, "sample_id,time,g1\na,1.0,0.5\n")
    with pytest.raises(SchemaError):
        load_csv(path)


def test_load_csv_bad_rows_name_the_row(tmp_path):
    cases = [
        ("sample_id,time,event,g1\na,0,1,0.5\n", "row 1"),          # time zero
        ("sample_id,time,event,g1\na,1,1,0.5\nb,-2,0,0.1\n", "row 2"),
        ("sample_id,time,event,g1\na,1,1,abc\n", "row 1"),          # non-numeric
        ("sample_id,time,event,g1\na,1,2,0.5\n", "row 1"),          # bad event
        ("sample_id,time,event,g1\na,1,1,\n", "row 1"),             # missing value
        ("sample_id,time,event,g1\na,1,1,nan\n", "row 1"),          # non-finite
        ("sample_id,time,event,g1\na,1,1,0.5\na,2,1,0.1\n", "row 2"),  # dup id
        # values are checked after every row parsed: the parse error wins
        ("sample_id,time,event,g1\na,0,1,0.5\nb,1,1,abc\n", "row 2"),
    ]
    for text, fragment in cases:
        with pytest.raises(DataRowError) as err:
            load_csv(_write(tmp_path, text))
        assert fragment in str(err.value)


@pytest.mark.parametrize("raw", [
    b"sample_id,time,event,g1\n\xff,1,1,0.5\n",
    b"\xffsample_id,time,event,g1\na,1,1,0.5\n",
], ids=["in-a-row", "in-the-header"])
def test_load_csv_refuses_non_utf8_naming_the_file(tmp_path, raw):
    # the UnicodeDecodeError named neither the file nor the format
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    with pytest.raises(SchemaError, match=f"^{path}: not UTF-8 text .*byte 0xff"):
        load_csv(path)


def test_csv_round_trip_exact(tmp_path):
    ds = make_dataset(n=25, p=4, seed=3)
    path = tmp_path / "rt.csv"
    write_csv(ds, path)
    back = load_csv(path)
    # repr round-trip keeps every float bit-exact
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.times, ds.times)
    np.testing.assert_array_equal(back.events, ds.events)
    assert back.sample_ids == ds.sample_ids
    assert back.feature_names == ds.feature_names


@pytest.mark.parametrize("ids, times, features, fragment", [
    ([" a", "b"], [1.0, 2.0], [0.0, 1.0], "row 1: sample id ' a'"),
    (["a", "a "], [1.0, 2.0], [0.0, 1.0], "row 2: sample id 'a '"),
    (["a", ""], [1.0, 2.0], [0.0, 1.0], "row 2: sample id ''"),
    (["a", "b", "a"], [1.0, 2.0, 3.0], [0.0, 1.0, 2.0], "row 3: duplicate sample id 'a'"),
    (["a", "b"], [1.0, 0.0], [0.0, 1.0], "row 2: time must be positive"),
    (["a", "b"], [-1.0, 2.0], [0.0, 1.0], "row 1: time must be positive"),
    (["a", "b"], [1.0, np.inf], [0.0, 1.0], "row 2: time must be positive"),
    (["a", "b"], [np.nan, 2.0], [0.0, 1.0], "row 1: time must be positive"),
    (["a", "b"], [1.0, 2.0], [0.0, np.nan], "row 2: non-finite value nan in column 'x'"),
    (["a", "b"], [1.0, 2.0], [-np.inf, 1.0], "row 1: non-finite value -inf"),
])
def test_write_csv_refuses_rows_load_csv_would_reject_or_change(tmp_path, ids, times,
                                                                features, fragment):
    # the constructor refuses them, so that write_csv never meets one
    with pytest.raises(DataRowError) as err:
        SurvivalDataset(ids, np.array(features)[:, None], ["x"], times,
                        np.ones(len(ids), dtype=bool))
    assert fragment in str(err.value)


@pytest.mark.parametrize("names", [[" x"], ["x\t"], ["time"], ["sample_id", "x"],
                                   ["x", "x"]])
def test_write_csv_refuses_header_names_load_csv_would_change(tmp_path, names):
    for n in (1, 0):
        with pytest.raises(SchemaError):
            SurvivalDataset(["a"][:n], np.zeros((n, len(names))), names, [1.0][:n],
                            [True][:n])
    with pytest.raises(SchemaError, match="no data rows to write"):
        write_csv(make_dataset(n=3).subset([]), tmp_path / "empty.csv")
    assert not (tmp_path / "empty.csv").exists()


@pytest.mark.parametrize("header, name", [
    ("sample_id,time,event,time", "time"),
    ("sample_id,time,event,x, x", "x"),
    ("sample_id,sample_id,time,event,x", "sample_id"),
])
def test_load_csv_refuses_a_repeated_column_before_any_row(tmp_path, header, name):
    # the first time column holds 1-5, the repeat 100-104: neither may be read
    # silently; the bad cell of row 1 shows that no row is read
    cells = len(header.split(","))
    rows = "".join(f"s{i},{i},1" + f",{99 + i}" * (cells - 3) + "\n" for i in range(1, 6))
    path = _write(tmp_path, header + "\n" + rows.replace("s1,1,1", "s1,abc,1", 1))
    with pytest.raises(SchemaError, match=f"column name '{name}' repeats"):
        load_csv(path)


@pytest.mark.parametrize("defect, fragment", [
    ("duplicate id", "row 8: duplicate sample id 's0002'"),
    ("nan feature", "row 5: non-finite value nan in column 'x1'"),
    ("nonpositive time", "row 7: time must be positive and finite, got 0.0"),
])
def test_constructor_refuses_what_cross_validate_once_received(defect, fragment):
    ds = make_dataset(n=40, seed=2)
    ids, times, X = list(ds.sample_ids), ds.times.copy(), ds.features.copy()
    if defect == "duplicate id":
        ids[7] = ids[2]
    elif defect == "nan feature":
        X[4, 1] = np.nan
    else:
        times[6] = 0.0
    with pytest.raises(DataRowError) as err:
        SurvivalDataset(ids, X, ds.feature_names, times, ds.events)
    assert fragment in str(err.value)


def _assert_reads_back(ds, back):
    assert back.sample_ids == ds.sample_ids
    assert back.feature_names == ds.feature_names
    assert back.events.tolist() == ds.events.tolist()
    assert back.times.tobytes() == ds.times.tobytes()
    assert back.features.tobytes() == ds.features.tobytes()


@st.composite
def _csv_datasets(draw, valid: bool):
    """SurvivalDataset arguments with any text ids and feature names and any
    floats, or (`valid`) only those `load_csv` accepts unchanged."""
    n, p = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    text = st.text(max_size=4)
    floats = st.floats(allow_nan=not valid, allow_infinity=not valid)
    if valid:
        text = text.filter(lambda s: s and s == s.strip())
        times = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    else:
        times = floats
    ids = draw(st.lists(text, min_size=n, max_size=n, unique=valid))
    if valid:
        text = text.filter(lambda s: s not in ("sample_id", "time", "event"))
    names = draw(st.lists(text, min_size=p, max_size=p, unique=valid))
    return (
        ids,
        np.array(draw(st.lists(floats, min_size=n * p, max_size=n * p))).reshape(n, p),
        names,
        draw(st.lists(times, min_size=n, max_size=n)),
        draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    )


@settings(max_examples=150, deadline=None)
@given(_csv_datasets(valid=True))
def test_write_csv_load_csv_round_trip_is_exact(args):
    ds = SurvivalDataset(*args)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rt.csv")
        write_csv(ds, path)
        _assert_reads_back(ds, load_csv(path))


@settings(max_examples=300, deadline=None)
@given(_csv_datasets(valid=False))
def test_write_csv_refuses_or_reads_back_identical(args):
    # the constructor refuses the dataset, or write_csv/load_csv keep it
    try:
        ds = SurvivalDataset(*args)
    except (DataRowError, SchemaError):
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "any.csv")
        write_csv(ds, path)
        _assert_reads_back(ds, load_csv(path))


def _csv_writer_bytes(ds: SurvivalDataset) -> bytes:
    """The reference bytes of `ds`: every row, header and data alike,
    through `csv.writer` with the default dialect."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([data.ID_COL, data.TIME_COL, data.EVENT_COL, *ds.feature_names])
    writer.writerows([sid, repr(t), "1" if e else "0", *map(repr, feats)]
                     for sid, t, e, feats in zip(ds.sample_ids, ds.times.tolist(),
                                                 ds.events.tolist(), ds.features.tolist()))
    return buf.getvalue().encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(_csv_datasets(valid=True))
def test_write_csv_bytes_are_the_csv_writer_bytes(args):
    ds = SurvivalDataset(*args)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.csv")
        write_csv(ds, path)
        with open(path, "rb") as fh:
            assert fh.read() == _csv_writer_bytes(ds)


def test_write_csv_bytes_quote_what_needs_it():
    ds = SurvivalDataset(["a,b", 'say "hi"', "two\nlines", "plain"],
                         np.array([[-0.0, 1e308, 0.1], [5e-324, -2.5, 1 / 3],
                                   [1e-7, 123456789.0, -1e22], [0.3, 2.0 ** 0.5, 7.0]]),
                         ["g,1", 'q"', "x"], [1.5, 1e-300, 1e16, 3.25],
                         [True, False, True, False])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "q.csv")
        write_csv(ds, path)
        with open(path, "rb") as fh:
            raw = fh.read()
        _assert_reads_back(ds, load_csv(path))
    assert raw == (b'sample_id,time,event,"g,1","q""",x\r\n'
                   b'"a,b",1.5,1,-0.0,1e+308,0.1\r\n'
                   b'"say ""hi""",1e-300,0,5e-324,-2.5,0.3333333333333333\r\n'
                   b'"two\nlines",1e+16,1,1e-07,123456789.0,-1e+22\r\n'
                   b'plain,3.25,0,0.3,1.4142135623730951,7.0\r\n')


# ---------------------------------------------------------------------------
# load_csv's two routes: numpy's parse of a plain file, and the row scan
# ---------------------------------------------------------------------------

def _outcome(path):
    """The bits of the dataset `load_csv` reads from `path`, or the type and
    text of the error it raises."""
    try:
        ds = load_csv(path)
    except Exception as err:
        return type(err), str(err)
    return (ds.sample_ids, ds.feature_names,
            *((a.dtype, a.shape, a.tobytes()) for a in (ds.times, ds.events, ds.features)))


def _both_routes(path):
    """(load_csv's outcome, whether it ran the row scan, the row scan's
    outcome with the numpy parse switched off)."""
    with mock.patch.object(data, "_scan_rows", wraps=data._scan_rows) as scan:
        got = _outcome(path)
    with mock.patch.object(data, "_parse_plain", return_value=None):
        want = _outcome(path)
    return got, scan.called, want


_HEAD = "sample_id,time,event,g1,g2\n"
_NBSP, _EMSP, _ARABIC_12 = "\u00a0", "\u2003", "\u0661\u0662"


_ROUTES = [
    pytest.param(_HEAD + "a,1.5,1,0.1,2\nb,2.5,0,-3,1e-2\n", "numpy", id="lf"),
    pytest.param(_HEAD.replace("\n", "\r\n") + "a,1.5,1,0.1,2\r\nb,2.5,0,-3,1e-2\r\n",
                 "numpy", id="crlf"),
    pytest.param(_HEAD + "a,1.5,1,0.1,2\nb,2.5,0,-3,1e-2", "numpy", id="no-final-newline"),
    pytest.param(_HEAD + "a,1,1,0,0\n\nb,2,0,1,1\n", "row scan", id="blank-line"),
    pytest.param(_HEAD + "a,1,1,0,0\n\n", "row scan", id="blank-last-line"),
    pytest.param(_HEAD + "a,1,1,0,0\n   \n", "row scan", id="whitespace-line"),
    pytest.param(_HEAD + "a,1,1,0\n", "row scan", id="short-row"),
    pytest.param(_HEAD + "a,1,1,0,0,9\n", "row scan", id="long-row"),
    pytest.param(_HEAD + "a,1,1,0,0,\n", "row scan", id="trailing-comma"),
    pytest.param(_HEAD + 'a,"1.5",1,0,0\n"b,c",2,0,1,1\n', "row scan", id="quoted-cells"),
    pytest.param(_HEAD + "a,1,1,0,0\rb,2,0,1,1\n", "row scan", id="lone-cr"),
    pytest.param(_HEAD + "a,1\r5,1,0,0\n", "row scan", id="cr-in-a-cell"),
    pytest.param(_HEAD + "a\x00,1,1,0,0\nb,2,0,1,1\n", "row scan", id="nul-byte"),
    pytest.param(_HEAD + "#a,1,1,0,0\nb,2,0,1,1\n", "numpy", id="hash-in-an-id"),
    pytest.param(_HEAD + "a,1,1,0,0\nb,2,0,#1,1\n", "row scan", id="hash-in-a-feature"),
    # the time goes through float, as in the row scan; numpy refuses a feature's
    pytest.param(_HEAD + "a,1_000,1,0,0\nb,2,0,1,1\n", "numpy", id="underscore-time"),
    pytest.param(_HEAD + "a,1,1,1_000,0\nb,2,0,1,1\n", "row scan", id="underscore-feature"),
    pytest.param(_HEAD + f"a,{_ARABIC_12},1,0,0\nb,2,0,1,1\n", "numpy",
                 id="arabic-digits-time"),
    pytest.param(_HEAD + f"a,1,1,{_ARABIC_12},0\nb,2,0,1,1\n", "row scan",
                 id="arabic-digits-feature"),
    pytest.param(_HEAD + f"{_NBSP}a{_EMSP},{_EMSP}1.5,1,{_NBSP}0.5{_EMSP},2\nb,2,0,1,1\n",
                 "numpy", id="unicode-spaces"),
    # accepted by both parses, then refused by the constructor
    pytest.param(_HEAD + "a,1,1,nan,0\nb,2,0,1,1\n", "numpy", id="nan-feature"),
    pytest.param(_HEAD + "a,1,1,0,-Infinity\nb,2,0,1,1\n", "numpy", id="infinity-feature"),
    pytest.param(_HEAD + "a,1,1,0,1e999\nb,2,0,1,1\n", "numpy", id="overflowing-feature"),
    pytest.param(_HEAD + "a,inf,1,0,0\nb,2,0,1,1\n", "numpy", id="inf-time"),
    pytest.param(_HEAD + "a,nan,1,0,0\nb,2,0,1,1\n", "numpy", id="nan-time"),
    pytest.param(_HEAD + ",1,1,0,0\nb,2,0,1,1\n", "numpy", id="empty-id"),
    pytest.param(_HEAD + "a,1,1,0,0\na,2,0,1,1\n", "numpy", id="repeated-id"),
    pytest.param(_HEAD + "a,1, TRUE ,0,0\nb,2,False,1,1\nc,3, tRuE,2,2\nd,4, 0 ,3,3\n",
                 "numpy", id="event-case-and-spaces"),
    pytest.param(_HEAD + "a,1,yes,0,0\nb,2,0,1,1\n", "row scan", id="bad-event"),
    pytest.param(_HEAD + "a,1,,0,0\n", "row scan", id="empty-event"),
    pytest.param(_HEAD + "a,,1,0,0\n", "row scan", id="missing-time"),
    pytest.param(_HEAD + "a,x,1,0,0\n", "row scan", id="text-time"),
    pytest.param(_HEAD + "a,1,1,,0\n", "row scan", id="missing-feature"),
    pytest.param(_HEAD + "a,0,1,0,0\nb,2,0,1,x\n", "row scan", id="parse-error-first"),
    pytest.param(_HEAD, "row scan", id="header-only"),
    pytest.param(_HEAD.rstrip("\n"), "row scan", id="header-only-no-newline"),
    pytest.param("", "header", id="empty-file"),
    pytest.param("sample_id,time,event,g1,g1\na,1,1,0,0\n", "header", id="repeated-name"),
    # a bad byte within the text reader's first buffer fails with the header;
    # past it, numpy meets it first and hands the file to the row scan
    pytest.param(_HEAD + "a,1,1,0,0\nb,2,0,1,1\n\udcff", "header", id="not-utf8-early"),
    pytest.param(_HEAD + "".join(f"s{i},1,1,0,{i}\n" for i in range(2000))
                 + "\udcff,1,1,0,0\n", "row scan", id="not-utf8-late"),
    pytest.param("g1,event,g2,sample_id,time\n0,1,0.5,a,1\n1,0,1.5,b,2\n", "numpy",
                 id="reserved-columns-last"),
    pytest.param("sample_id,time,event\na,1,1\nb,2,0\n", "numpy", id="no-features"),
    pytest.param("sample_id , time,event, g1\na,1,1,0\nb,2,0,1\n", "numpy",
                 id="spaces-in-header"),
    # a cell over csv.field_size_limit() fails the row scan, plain or quoted;
    # one at the limit, or a line over it of short cells, takes the numpy parse
    pytest.param(_HEAD + "a,1,1,0," + "1" * 140_000 + "\nb,2,0,1,1\n", "row scan",
                 id="long-plain-cell"),
    pytest.param(_HEAD + 'a,1,1,0,"' + "1" * 140_000 + '"\nb,2,0,1,1\n', "row scan",
                 id="long-quoted-cell"),
    pytest.param(_HEAD + "a,1,1,0," + "1" * 131_072 + "\nb,2,0,1,1\n", "numpy",
                 id="cell-at-the-limit"),
    pytest.param("sample_id,time,event," + ",".join(f"g{j}" for j in range(30_000)) + "\n"
                 + "a,1,1," + ",".join(["1.5"] * 30_000) + "\n", "numpy",
                 id="long-line-of-short-cells"),
]


@pytest.mark.parametrize("text, route", _ROUTES)
def test_load_csv_numpy_parse_matches_the_row_scan(tmp_path, text, route):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    got, scanned, want = _both_routes(path)
    assert got == want
    assert scanned == (route == "row scan")


@pytest.mark.parametrize("text, route", _ROUTES)
def test_load_csv_routes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, text, route):
    # the plain check reads a file in blocks of whole lines: at 3 bytes a
    # read, every line, and every cell over the field size limit, spans
    # several reads
    monkeypatch.setattr(data, "PLAIN_BLOCK_BYTES", 3)
    test_load_csv_numpy_parse_matches_the_row_scan(tmp_path, text, route)


@pytest.mark.parametrize("text, cut", [
    pytest.param(_HEAD + "a,1,1,0,0\r\nb,2,0,1,1\r\n", len(_HEAD) + 10, id="crlf"),
    pytest.param(_HEAD + "\u00fca,1,1,0,0\nb,2,0,1,1\n", len(_HEAD) + 1, id="utf8-id"),
])
def test_load_csv_reads_a_line_split_by_a_block_boundary(tmp_path, monkeypatch, text, cut):
    # the first read ends between a CR and its LF, or inside the two bytes
    # of an id's u-umlaut
    raw = text.encode("utf-8")
    assert raw[cut - 1:cut + 1] in (b"\r\n", "\u00fc".encode("utf-8"))
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    monkeypatch.setattr(data, "PLAIN_BLOCK_BYTES", cut)
    got, scanned, want = _both_routes(path)
    assert not scanned and got == want


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" export starts with one: it failed as a missing
    # 'sample_id' column, on both routes
    text = b"sample_id,time,event,g1\r\na,1.5,1,0.1\r\nb,2.5,0,-0.3\r\n"
    bare, marked = tmp_path / "bare.csv", tmp_path / "marked.csv"
    bare.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    got, scanned, want = _both_routes(marked)
    assert not scanned and got == want == _outcome(bare)


# Cells the row scan and the constructor accept, per column kind (numpy
# refuses `1_0` and non-ASCII digits in a feature; an id gets its row number
# appended, so ids repeat only by a defect), and cells that one of them refuses.
_GOOD = {
    "id": ["", " ", "#", "\u00fc", _NBSP, "h i "],
    "time": ["1", "2.5", "1e-3", " 4 ", "1_000", _ARABIC_12, _EMSP + "5", "7"],
    "event": ["1", "0", "true", " FALSE ", "TrUe", _NBSP + "1"],
    "feature": ["0", "1", "-0.0", "2.5", "1e-300", " 7 ", "1_0", "\u0663", _EMSP + "8"],
}
_BAD = ["", "x", "nan", "inf", "-Infinity", "1e999", "0", "-1", "yes", "2", "#9", "0x1", "1j",
        '"1"', '"a,b"', 'q"', "1\r2", "\x00", ",", " ", "\u3000", "\x0c"]
_RESERVED = {"id": "sample_id", "time": "time", "event": "event"}
_DEFECTS = ["cell", "repeated id", "short", "long", "trailing comma", "blank", "spaces",
            "lone CR"]


@st.composite
def _csv_texts(draw):
    """CSV texts of valid rows with 0-3 defects: a bad cell, a repeated id,
    a malformed line or a lone CR."""
    kinds = draw(st.permutations(["id", "time", "event"] + ["feature"] * draw(st.integers(0, 2))))
    rows = [[draw(st.sampled_from(_GOOD[kind])) + (f"s{i}" if kind == "id" else "")
             for kind in kinds] for i in range(draw(st.integers(0, 4)))]
    ends = ["\n" if draw(st.booleans()) else "\r\n"] * (len(rows) + 1)
    lines = [",".join(_RESERVED.get(kind, f"g{j}") for j, kind in enumerate(kinds))]
    lines += [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        i = draw(st.integers(1, len(lines) - 1)) if rows else 0
        defect = draw(st.sampled_from(_DEFECTS))
        if defect == "cell" and rows:
            row = rows[i - 1]
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_BAD))
            lines[i] = ",".join(row)
        elif defect == "repeated id" and i > 1:
            col = kinds.index("id")
            rows[i - 1][col] = rows[i - 2][col]
            lines[i] = ",".join(rows[i - 1])
        elif defect == "lone CR":
            ends[i] = "\r"
        else:
            lines[i] = {"short": lines[i].rpartition(",")[0], "long": lines[i] + ",1",
                        "trailing comma": lines[i] + ",", "blank": "",
                        "spaces": "  "}.get(defect, lines[i])
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.removesuffix(ends[-1]) if draw(st.booleans()) else text


@settings(max_examples=400, deadline=None)
@given(_csv_texts())
def test_load_csv_numpy_parse_matches_the_row_scan_on_generated_texts(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        got, _, want = _both_routes(path)
    assert got == want


def test_load_csv_peak_memory_stays_near_the_matrix(tmp_path):
    # the row scan held every cell as a Python float in a list of lists: a
    # traced peak of 5.2 times the matrix at this shape
    ds, _ = generate_synthetic(SyntheticSpec(n=2000, p=500, hazard_kind="deep", seed=0))
    path = tmp_path / "wide.csv"
    write_csv(ds, path)
    del ds
    tracemalloc.start()
    try:
        back = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * back.features.nbytes


def _assert_same_dataset(got, want):
    assert got.sample_ids == want.sample_ids
    assert got.feature_names == want.feature_names
    for name in ("features", "times", "events"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g.dtype, g.shape) == (w.dtype, w.shape) and g.tobytes() == w.tobytes()
        assert g.flags.c_contiguous and not g.flags.writeable


def _same_as_constructor(derive, *args):
    """`derive()` builds the dataset `SurvivalDataset(*args)` builds, or
    raises the error the constructor raises."""
    try:
        want = SurvivalDataset(*args)
    except (DataRowError, SchemaError) as err:
        with pytest.raises(type(err)) as got:
            derive()
        assert str(got.value) == str(err)
        return
    _assert_same_dataset(derive(), want)


@st.composite
def _derivations(draw):
    """A valid dataset, a row selection (repeats and negative indexes
    included), a column selection (repeats included) and a standardization
    whose scaling may overflow."""
    ds = SurvivalDataset(*draw(_csv_datasets(valid=True)))
    rows = draw(st.lists(st.integers(-ds.n, ds.n - 1), max_size=8))
    names = draw(st.lists(st.sampled_from(ds.feature_names), max_size=4)) if ds.p else []
    finite = st.floats(allow_nan=False, allow_infinity=False)
    means = draw(st.lists(finite, min_size=ds.p, max_size=ds.p))
    stds = draw(st.lists(st.floats(min_value=1e-300, max_value=1e300),
                         min_size=ds.p, max_size=ds.p))
    return ds, rows, names, StandardizationParams(means, stds)


@settings(max_examples=200, deadline=None)
@given(_derivations())
def test_derived_datasets_match_the_constructor(args):
    ds, rows, names, std = args
    X, ids = ds.features, ds.sample_ids
    _same_as_constructor(lambda: ds.subset(rows), [ids[i] for i in rows], X[rows],
                         ds.feature_names, ds.times[rows], ds.events[rows])
    cols = [ds.feature_names.index(name) for name in names]
    _same_as_constructor(lambda: ds.select_features(names), ids, X[:, cols], names,
                         ds.times, ds.events)
    order = sorted(range(ds.n), key=ids.__getitem__)
    _same_as_constructor(ds.sorted_by_id, [ids[i] for i in order], X[order],
                         ds.feature_names, ds.times[order], ds.events[order])
    with np.errstate(over="ignore"):
        _same_as_constructor(lambda: standardize_apply(ds, std), ids,
                             (X - std.means) / std.stddevs, ds.feature_names,
                             ds.times, ds.events)


def test_derived_datasets_refuse_what_they_can_break(small_ds):
    with pytest.raises(DataRowError, match="row 3: duplicate sample id 's0001'"):
        small_ds.subset([1, 2, 1])
    with pytest.raises(DataRowError, match="row 2: duplicate sample id 's0039'"):
        small_ds.subset([-1, small_ds.n - 1])
    huge = StandardizationParams(np.zeros(small_ds.p), np.full(small_ds.p, 1e-320))
    with np.errstate(over="ignore"), pytest.raises(DataRowError, match="non-finite value"):
        standardize_apply(small_ds, huge)


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

def test_filter_patients_removes_bad_times():
    # the constructor refuses the bad time, naming its row
    ds = make_dataset(n=5, seed=1)
    times = ds.times.copy()
    times[2] = -1.0
    with pytest.raises(DataRowError, match="row 3: time must be positive and finite"):
        SurvivalDataset(ds.sample_ids, ds.features, ds.feature_names, times, ds.events)


def test_filter_patients_identity_on_valid(small_ds):
    out, removed = filter_patients(small_ds)
    assert removed == 0
    assert out is small_ds


def test_filter_patients_injected_rows():
    # the constructor names the first of the injected rows
    ds = make_dataset(n=50, seed=2)
    rng = np.random.default_rng(0)
    bad_rows = rng.choice(50, size=5, replace=False)
    times = ds.times.copy()
    times[bad_rows] = np.nan
    with pytest.raises(DataRowError) as err:
        SurvivalDataset(ds.sample_ids, ds.features, ds.feature_names, times, ds.events)
    assert err.value.row == bad_rows.min() + 1
    assert "time must be positive and finite, got nan" in str(err.value)


def test_filter_patients_no_events_left():
    ds = make_dataset(n=6, seed=3)
    with pytest.raises(UnusableDatasetError):
        filter_patients(SurvivalDataset(ds.sample_ids, ds.features,
                                        ds.feature_names, ds.times,
                                        np.zeros(ds.n, dtype=bool)))


def test_filter_features_drops_constant_and_matches_oracle():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 5))
    X[:, 1] = 7.0                      # constant
    X[:, 3] = 1.0 + 1e-6 * rng.normal(size=30)  # tiny variance
    ds = SurvivalDataset([f"s{i}" for i in range(30)], X,
                         [f"x{j}" for j in range(5)],
                         np.ones(30) + rng.random(30),
                         np.ones(30, dtype=bool))
    out, retained = filter_features(ds)
    oracle = [f"x{j}" for j in range(5) if np.var(X[:, j]) > 1e-8]
    assert retained == oracle
    assert "x1" not in retained
    assert out.p == len(oracle)

    # idempotent
    again, retained2 = filter_features(out)
    assert retained2 == retained
    np.testing.assert_array_equal(again.features, out.features)


def test_filter_features_identity_when_all_vary(small_ds):
    out, retained = filter_features(small_ds)
    assert retained == small_ds.feature_names
    np.testing.assert_array_equal(out.features, small_ds.features)


def test_filter_features_all_dropped():
    X = np.ones((10, 2))
    ds = SurvivalDataset([f"s{i}" for i in range(10)], X, ["a", "b"],
                         np.arange(1.0, 11.0), np.ones(10, dtype=bool))
    with pytest.raises(UnusableDatasetError):
        filter_features(ds)


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

def test_standardize_hand_values():
    X = np.array([[1.0], [3.0]])
    ds = SurvivalDataset(["a", "b"], X, ["x0"], np.array([1.0, 2.0]),
                         np.array([True, True]))
    params = standardize_fit(ds)
    assert params.means[0] == 2.0
    assert params.stddevs[0] == 1.0  # population convention


def test_standardize_zero_variance_names_feature():
    X = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
    ds = SurvivalDataset([f"s{i}" for i in range(5)], X, ["ok", "flat"],
                         np.arange(1.0, 6.0), np.ones(5, dtype=bool))
    with pytest.raises(UnusableDatasetError, match="flat"):
        standardize_fit(ds)


def test_standardize_overflowing_feature_names_it():
    # stddev inf: the fold preparation scaled the column to zeros on both
    # sides. The named error is all the caller sees: numpy's overflow
    # warning, which the "error" filter would raise ahead of it, stays silent
    for huge, mean in (([1e308, -1e308, 1e308, -1e308], "0.0"), ([1e308] * 4, "inf")):
        X = np.column_stack([np.arange(4.0), huge])
        ds = SurvivalDataset([f"s{i}" for i in range(4)], X, ["ok", "huge"],
                             np.arange(1.0, 5.0), np.ones(4, dtype=bool))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnusableDatasetError, match=f"feature 'huge' has mean {mean} "
                                                           "and standard deviation inf"):
                standardize_fit(ds)
            with pytest.raises(UnusableDatasetError, match="feature 'huge'"):
                standardize_fit(filter_features(ds)[0])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 80), p=st.integers(0, 50), seed=st.integers(0, 2**32 - 1),
       block_bytes=st.sampled_from([1, 100, 1000, data.STATS_BLOCK_BYTES]),
       min_columns=st.sampled_from([2, 3, data.STATS_MIN_COLUMNS]))
def test_blocked_column_statistics_have_numpys_bits(n, p, seed, block_bytes, min_columns):
    # the feature filter and the standardization reduce their variances and
    # deviations a block of columns at a time; each has the bits of numpy's
    # reduce over the whole array, whose blocks of one column differ
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) * rng.choice([1e-3, 1.0, 1e6]) + rng.normal() * 100
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "STATS_BLOCK_BYTES", block_bytes)
        mp.setattr(data, "STATS_MIN_COLUMNS", min_columns)
        for stat in ("var", "std"):
            assert data._column_stat(X, stat).tobytes() == getattr(X, stat)(axis=0).tobytes()


@pytest.mark.parametrize("means, stddevs", [
    ([np.nan, 0.0], [1.0, 1.0]),
    ([0.0, -np.inf], [1.0, 1.0]),
    ([0.0, 0.0], [np.inf, 1.0]),
    ([0.0, 0.0], [1.0, np.nan]),
])
def test_standardization_refuses_non_finite_values(means, stddevs):
    with pytest.raises(ValueError, match="means and stddevs must be finite"):
        StandardizationParams(np.array(means), np.array(stddevs))


def test_standardize_fit_apply_self_consistency():
    ds = make_dataset(n=60, p=4, seed=5)
    params = standardize_fit(ds)
    out = standardize_apply(ds, params)
    means = out.features.mean(axis=0)
    variances = out.features.var(axis=0)
    assert np.abs(means).max() < 1e-10
    assert np.abs(variances - 1.0).max() < 1e-10
    # times/events untouched
    np.testing.assert_array_equal(out.times, ds.times)
    np.testing.assert_array_equal(out.events, ds.events)


def test_standardize_apply_identity_and_mismatch(small_ds):
    ident = StandardizationParams(np.zeros(small_ds.p), np.ones(small_ds.p))
    out = standardize_apply(small_ds, ident)
    np.testing.assert_array_equal(out.features, small_ds.features)
    with pytest.raises(ValueError):
        standardize_apply(small_ds, StandardizationParams(np.zeros(99), np.ones(99)))


def test_standardize_apply_disjoint_split():
    train = make_dataset(n=40, seed=6)
    val = make_dataset(n=20, seed=7)
    params = standardize_fit(train)
    out = standardize_apply(val, params)
    assert np.isfinite(out.features).all()


# ---------------------------------------------------------------------------
# Folds and holdouts
# ---------------------------------------------------------------------------

def test_kfold_sizes_and_partition():
    ds = make_dataset(n=10, seed=8)
    folds = kfold_split(ds, k=5, seed=0)
    sizes = [folds.test_indices(f).size for f in range(5)]
    assert sizes == [2, 2, 2, 2, 2]
    all_idx = np.sort(np.concatenate([folds.test_indices(f) for f in range(5)]))
    np.testing.assert_array_equal(all_idx, np.arange(10))


def test_kfold_deterministic_and_seed_sensitive():
    ds = make_dataset(n=37, seed=9)
    a = kfold_split(ds, k=5, seed=3)
    b = kfold_split(ds, k=5, seed=3)
    c = kfold_split(ds, k=5, seed=4)
    np.testing.assert_array_equal(a.fold_of_sample, b.fold_of_sample)
    assert a.content_hash() == b.content_hash()
    assert not np.array_equal(a.fold_of_sample, c.fold_of_sample)


def test_kfold_event_stratification():
    # 100 samples, exactly 30 events -> every fold gets exactly 6
    rng = np.random.default_rng(10)
    events = np.zeros(100, dtype=bool)
    events[rng.choice(100, size=30, replace=False)] = True
    ds = make_dataset(n=100, seed=10)
    ds = SurvivalDataset(ds.sample_ids, ds.features, ds.feature_names,
                         ds.times, events)
    folds = kfold_split(ds, k=5, seed=1)
    per_fold = [int(events[folds.test_indices(f)].sum()) for f in range(5)]
    assert all(5 <= c <= 7 for c in per_fold)
    assert sum(per_fold) == 30


def test_kfold_fold_sizes_differ_by_at_most_one():
    ds = make_dataset(n=47, seed=11)
    folds = kfold_split(ds, k=5, seed=2)
    sizes = [folds.test_indices(f).size for f in range(5)]
    assert max(sizes) - min(sizes) <= 1


def test_kfold_eventless_complement_rejected():
    ds = make_dataset(n=10, seed=12)
    events = np.zeros(10, dtype=bool)
    events[0] = True  # single event: its complement folds lack events
    bad = SurvivalDataset(ds.sample_ids, ds.features, ds.feature_names,
                          ds.times, events)
    with pytest.raises(StratificationError):
        kfold_split(bad, k=2, seed=0)


def test_stratified_holdout():
    ds = make_dataset(n=50, seed=13)
    train_idx, hold_idx = stratified_holdout(ds.events, 0.2, seed=5)
    assert hold_idx.size == 10 and train_idx.size == 40
    assert np.intersect1d(train_idx, hold_idx).size == 0
    np.testing.assert_array_equal(np.sort(np.concatenate([train_idx, hold_idx])),
                                  np.arange(50))
    # both sides keep events
    assert ds.events[train_idx].sum() >= 1
    assert ds.events[hold_idx].sum() >= 1
    # deterministic
    t2, h2 = stratified_holdout(ds.events, 0.2, seed=5)
    np.testing.assert_array_equal(train_idx, t2)
    np.testing.assert_array_equal(hold_idx, h2)


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

def test_synthetic_deterministic():
    spec = SyntheticSpec(n=200, p=4, hazard_kind="linear",
                         true_coefficients=np.array([1.0, -1.0, 0.5, 0.0]),
                         target_censor_rate=0.3, seed=21)
    a, sa = generate_synthetic(spec)
    b, sb = generate_synthetic(spec)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.events, b.events)
    np.testing.assert_array_equal(sa, sb)


def test_synthetic_zero_censoring_all_events():
    spec = SyntheticSpec(n=150, p=3, hazard_kind="linear",
                         true_coefficients=np.array([1.0, 0.0, 0.0]),
                         target_censor_rate=0.0, seed=22)
    ds, _ = generate_synthetic(spec)
    assert ds.events.all()


def test_synthetic_censor_rate_near_target():
    spec = SyntheticSpec(n=5000, p=3, hazard_kind="linear",
                         true_coefficients=np.array([1.0, -0.5, 0.25]),
                         target_censor_rate=0.3, seed=23)
    ds, _ = generate_synthetic(spec)
    realized = 1.0 - ds.events.mean()
    assert abs(realized - 0.3) <= 0.05


def test_synthetic_linear_scores_are_linear():
    beta = np.array([2.0, -1.0, 0.5])
    spec = SyntheticSpec(n=100, p=3, hazard_kind="linear",
                         true_coefficients=beta,
                         target_censor_rate=0.2, seed=24)
    ds, scores = generate_synthetic(spec)
    np.testing.assert_allclose(scores, ds.features @ beta, rtol=0, atol=1e-12)


def test_synthetic_true_scores_rank_event_times():
    # strong coefficients: true scores nearly perfectly rank the outcomes.
    # Sampling noise (unit-Gumbel on the log scale) bounds the reachable
    # C-index; coefficient norm 8 clears 0.95, norm 2 sits near 0.84.
    spec = SyntheticSpec(n=10000, p=3, hazard_kind="linear",
                         true_coefficients=np.array([8.0, 0.0, 0.0]),
                         target_censor_rate=0.3, seed=31)
    ds, scores = generate_synthetic(spec)
    c_strong = concordance_fast(ds.times, ds.events, scores).c_index
    assert c_strong >= 0.95

    spec2 = SyntheticSpec(n=10000, p=3, hazard_kind="linear",
                          true_coefficients=np.array([2.0, 0.0, 0.0]),
                          target_censor_rate=0.3, seed=31)
    ds2, scores2 = generate_synthetic(spec2)
    c_norm2 = concordance_fast(ds2.times, ds2.events, scores2).c_index
    assert c_norm2 >= 0.80


def test_synthetic_rank_correlation_negative():
    spec = SyntheticSpec(n=4000, p=3, hazard_kind="linear",
                         true_coefficients=np.array([2.0, -1.0, 0.5]),
                         target_censor_rate=0.2, seed=8)
    ds, scores = generate_synthetic(spec)
    ev = ds.events
    s_rank = np.argsort(np.argsort(scores[ev]))
    t_rank = np.argsort(np.argsort(ds.times[ev]))
    rho = np.corrcoef(s_rank, t_rank)[0, 1]
    assert rho < -0.5  # higher risk -> earlier event


def test_synthetic_hazard_kinds():
    for kind in ("interaction", "deep"):
        spec = SyntheticSpec(n=300, p=5, hazard_kind=kind,
                             true_coefficients=None,
                             target_censor_rate=0.25, seed=26)
        ds, scores = generate_synthetic(spec)
        assert ds.n == 300 and np.isfinite(scores).all()
    X = ds.features
    expected = np.sin(X[:, 0]) + X[:, 1] ** 2 * np.sign(X[:, 2])
    np.testing.assert_allclose(scores, expected, atol=1e-12)


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n=0, p=3, hazard_kind="linear",
                      true_coefficients=np.array([1.0, 0.0, 0.0]),
                      target_censor_rate=0.3, seed=1)
    with pytest.raises(ValueError):
        SyntheticSpec(n=10, p=3, hazard_kind="nope", true_coefficients=None,
                      target_censor_rate=0.3, seed=1)
    with pytest.raises(ValueError):
        SyntheticSpec(n=10, p=3, hazard_kind="linear",
                      true_coefficients=np.array([1.0, 0.0, 0.0]),
                      target_censor_rate=1.0, seed=1)
    with pytest.raises(ValueError):
        # coefficient length must match p
        SyntheticSpec(n=10, p=3, hazard_kind="linear",
                      true_coefficients=np.array([1.0]),
                      target_censor_rate=0.3, seed=1)
    # coefficients must be a list (a tuple or a 1-d array) of finite numbers
    for coefs in (np.array(1.0), np.array([[1.0, 0.0, 0.0]]), [1.0, np.nan, 0.0]):
        with pytest.raises(ValueError, match="true_coefficients must be a list of finite"):
            SyntheticSpec(n=10, p=3, hazard_kind="deep", true_coefficients=coefs)
