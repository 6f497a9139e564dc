"""Exception types shared across the package, and the deadline check every
long-running step calls."""

import time


class InputError(ValueError):
    """An argument violates a documented requirement (bad vertex id, s == t,
    malformed structure, unknown edge, ...)."""


class PreconditionError(ValueError):
    """The instance does not satisfy an algorithm's precondition (non-unit
    lengths, diameter too large, budget not below the cut size, ...)."""


class ParseError(ValueError):
    """Instance text could not be parsed.  Carries a machine-readable code and
    the 1-based line number where the problem was found (0 = whole file)."""

    def __init__(self, code: str, line: int, message: str):
        super().__init__(f"line {line}: {code}: {message}")
        self.code = code
        self.line = line


class DeadlineExceeded(RuntimeError):
    """Cooperative timeout: a solver ran past its deadline."""


def check_deadline(deadline):
    """Raise DeadlineExceeded once ``deadline`` (a time.monotonic() value, or
    None for no limit) has passed."""
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded("solver deadline exceeded")
