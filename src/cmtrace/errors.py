"""Exceptions shared across the package, and the integer checks of the entry points.

Precondition violations are user-facing (bad arguments, out-of-range inputs)
and map to CLI exit code 2. Anything else that escapes is an internal bug and
exits 1 like any uncaught Python error. A rejection begins "<entry>: <arg>",
the function the caller called and its argument at fault, and shows its
values through _show, so no rejection fails on a value Python refuses to print.
"""

import operator


class PreconditionError(ValueError):
    """An input violated a documented precondition."""


def _show(value, show=str) -> str:
    """show(value), or a placeholder naming the type (and an int's bit length) where
    Python refuses to print it: an int of over 4300 digits, or an object holding one."""
    try:
        return show(value)
    except ValueError:
        if isinstance(value, int):
            return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} too large to print>"


def _as_int(value, what: str, lo=None, hi=None) -> int:
    """value as a Python int (numpy integers included) in [lo, hi], else PreconditionError.

    Its message is what ("sweep: N") and "must be an integer", "must be at
    least <lo>" or "must be at most <hi>", then ", got <value>".
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise PreconditionError(f"{what} must be an integer, got {_show(value, repr)}") from None
    if lo is not None and n < lo:
        raise PreconditionError(f"{what} must be at least {_show(lo)}, got {_show(n)}")
    if hi is not None and n > hi:
        raise PreconditionError(f"{what} must be at most {_show(hi)}, got {_show(n)}")
    return n


def _nonzero_int(value, what: str, lo=None, hi=None) -> int:
    """_as_int, and a 0 is rejected as "<what> must be nonzero, got 0"."""
    if (n := _as_int(value, what, lo, hi)) == 0:
        raise PreconditionError(f"{what} must be nonzero, got 0")
    return n


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
            f"x_max = {_show(x_max)} finds no prime representative for class k={k} "
            f"of (D={_show(D)}, r={r}); raise x_max"
        )
