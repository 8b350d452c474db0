"""Exceptions shared across the package, and the integer check of the entry points.

Precondition violations are user-facing (bad arguments, out-of-range inputs)
and map to CLI exit code 2. Anything else that escapes is an internal bug and
exits 1 like any uncaught Python error.
"""

import operator


class PreconditionError(ValueError):
    """An input violated a documented precondition."""


def _as_int(value, what: str) -> int:
    """value as a Python int (numpy integers included), else PreconditionError."""
    try:
        return operator.index(value)
    except TypeError:
        raise PreconditionError(f"{what} must be an integer, got {value!r}") from None


class NoRepresentativeFound(PreconditionError):
    """A progression class contained no prime within the search bound.

    Carries enough context to tell the caller which class ran dry, so the
    usual fix (raise x_max) is obvious from the message.
    """

    def __init__(self, D: int, r: int, k: int, x_max: int):
        self.D = D
        self.r = r
        self.k = k
        self.x_max = x_max
        super().__init__(
            f"no prime representative for class k={k} of (D={D}, r={r}) "
            f"within x <= {x_max}; raise x_max"
        )
