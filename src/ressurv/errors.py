"""Exception types shared across the package.

The CLI maps these onto stable exit codes: configuration / input problems
(schema, bad rows, unusable datasets) exit with 2, numerical divergence
during training exits with 3.

Errors cross process boundaries (pool workers send them back pickled), so a
class whose constructor takes anything but the message passes its
constructor arguments to `Exception.__init__`, which is what pickling
replays, and formats the message in `__str__`.
"""


class RessurvError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(RessurvError):
    """A file (CSV header, hyperparameter file, grid file) does not match
    the documented schema."""


class DataRowError(RessurvError):
    """A CSV data row failed to parse. Carries the 1-based data row index."""

    def __init__(self, row: int, message: str):
        super().__init__(row, message)
        self.row = row
        self.message = message

    def __str__(self) -> str:
        return f"row {self.row}: {self.message}"


class UnusableDatasetError(RessurvError):
    """A dataset cannot support training (no events, or no features left)."""


class StratificationError(RessurvError):
    """A fold layout would leave some training complement without events."""


class UndefinedMetricError(RessurvError):
    """The concordance index is undefined (no comparable pairs)."""


class DivergenceError(RessurvError):
    """Training produced a non-finite loss. Carries the offending epoch."""

    def __init__(self, epoch: int, message: str = ""):
        super().__init__(epoch, message)
        self.epoch = epoch
        self.message = message

    def __str__(self) -> str:
        detail = f" ({self.message})" if self.message else ""
        return (f"non-finite loss at epoch {self.epoch}{detail}; "
                "the learning rate is likely too high")
