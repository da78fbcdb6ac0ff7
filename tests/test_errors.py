import pickle

import pytest

from ressurv import errors
from ressurv.errors import DataRowError, DivergenceError, RessurvError

# one instance of every package error, built the way the package raises it
INSTANCES = [
    RessurvError("generic"),
    errors.SchemaError("data.csv: missing required column 'time'"),
    DataRowError(3, "missing time value"),
    errors.UnusableDatasetError("no events"),
    errors.StratificationError("fold 1 has no events"),
    errors.UndefinedMetricError("no comparable pairs"),
    DivergenceError(7, "fold 2"),
    DivergenceError(4),
]


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_every_error_class_is_covered():
    assert {type(e) for e in INSTANCES} == {RessurvError, *_all_subclasses(RessurvError)}


@pytest.mark.parametrize("err", INSTANCES, ids=lambda e: type(e).__name__)
def test_errors_survive_a_pickle_round_trip(err):
    # pool workers send errors back to the parent pickled
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert str(back) == str(err)
    assert vars(back) == vars(err)


def test_error_messages():
    assert str(DataRowError(3, "missing time value")) == "row 3: missing time value"
    assert DataRowError(3, "x").row == 3
    assert str(DivergenceError(7, "fold 2")) == (
        "non-finite loss at epoch 7 (fold 2); the learning rate is likely too high")
    assert str(DivergenceError(4)) == (
        "non-finite loss at epoch 4; the learning rate is likely too high")
    assert DivergenceError(7, "fold 2").epoch == 7
