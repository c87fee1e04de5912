"""Exception types shared across the package."""


class ChanSbgmError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(ChanSbgmError, ValueError):
    """Input the program rejects: a bad value, a dimension or domain
    mismatch, a size over a limit, or degenerate data."""


class NumericError(ChanSbgmError, RuntimeError):
    """A numerical routine failed on input that should have been valid."""
