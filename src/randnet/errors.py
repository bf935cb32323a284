"""Exception types shared across the package, and ``config_value``, which
reports a malformed config value as a ConfigError.

The CLI maps these onto exit codes: configuration problems exit 2, data
problems exit 3, numeric failures exit 4.
"""


class InvalidInputError(ValueError):
    """An operation received arrays with bad shapes, sizes or values."""


class ConfigError(ValueError):
    """A configuration object or file is inconsistent or incomplete."""


class DataFormatError(ValueError):
    """A data file could not be parsed; the message carries the location."""


class NumericFailureError(RuntimeError):
    """A numerical routine (e.g. the SVD) failed to converge."""


class DegenerateNodeError(ValueError):
    """A hidden node has a zero weight vector and no inflection hyperplane."""


def config_value(kind: type, value, what: str):
    """``kind(value)``; a value that does not convert raises ConfigError, and
    so do a bool and, for an int, a float that is not integral."""
    try:
        if isinstance(value, bool) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}") from None
