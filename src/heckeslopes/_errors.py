"""The data errors of the library, which the CLI reports with exit 2.

They live apart from ``pipeline`` and ``galois``, which raise them and
re-export them, so that ``cli`` can catch them without loading either.
"""


class SchemaError(ValueError):
    """Malformed input record; the message names the record and field."""


class DataError(ValueError):
    """Well-formed but internally inconsistent data."""


class ClosureCapExceeded(RuntimeError):
    """Raised when an invariant needs a walk over a group's elements, or
    their list, and the group has more elements than the configured cap.
    The closed forms of S_n and A_n, and lambda and lambda_min decided by
    a full-cycle generator, need neither."""
