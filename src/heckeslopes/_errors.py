"""The data errors of the library, which the CLI reports with exit 2.

They live apart from ``pipeline`` and ``galois``, which raise them and
re-export them, so that ``cli`` can catch them without loading either.
"""


class SchemaError(ValueError):
    """Malformed input record; the message names the record and field."""


class DataError(ValueError):
    """Well-formed but internally inconsistent data."""


class ClosureCapExceeded(RuntimeError):
    """Raised when listing a group's elements would enumerate more
    than the configured cap."""
