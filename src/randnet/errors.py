"""Exception types shared across the package, and the config reader:
``config_from_dict`` turns every config section into its typed dataclass,
``read_value`` reads one value as its annotated type, and ``config_value``
reports a malformed value as a ConfigError.

The CLI maps these onto exit codes: configuration problems exit 2, data
problems exit 3, numeric failures exit 4. ``numpy_sized`` and
``check_distinct`` are the config checks that more than one module makes.
"""

from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from typing import Literal, Union, get_args, get_origin, get_type_hints


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


@contextmanager
def numpy_sized(failure: str):
    """Run one numpy call whose array a config count sizes: the ValueError
    numpy raises for a size it cannot index or address (2^63 or more
    elements or bytes) becomes ConfigError ``"{failure}: {numpy's text}"``.
    Only numpy's plain ValueError is caught, never one of the subclasses
    above."""
    try:
        yield
    except ValueError as exc:
        if type(exc) is not ValueError:
            raise
        raise ConfigError(f"{failure}: {exc}") from exc


def check_distinct(values, what: str) -> None:
    """Raise ConfigError if ``values`` holds one value twice."""
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"{what} must not repeat a value, got {value!r} twice")
        seen.add(value)


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


def read_value(kind, value, what: str):
    """``value`` as the annotated type ``kind``, or ConfigError."""
    origin = get_origin(kind)
    if origin is Union:  # Optional[...], and Union[int, str] for a column
        if value is None and type(None) in get_args(kind):
            return None
        kinds = [k for k in get_args(kind) if k is not type(None)]
        # a string is read as the str member, if any; anything else as the first
        return read_value(str if isinstance(value, str) and str in kinds else kinds[0], value,
                          what)
    if origin in (tuple, Sequence):  # a sequence of numbers, read as a tuple
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{what} must be a list, got {value!r}")
        return tuple(config_value(get_args(kind)[0], v, what) for v in value)
    if is_dataclass(kind):
        return config_from_dict(kind, value, what)
    if kind in (int, float):
        return config_value(kind, value, what)
    if origin is Literal:  # a choice of strings
        if value not in get_args(kind):
            raise ConfigError(f"{what} must be one of {list(get_args(kind))}, got {value!r}")
        return value
    if not isinstance(value, kind):  # bool (a JSON bool only) and str
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}")
    return value


def config_from_dict(cls: type, d, what: str, skip: frozenset = frozenset()):
    """Build the dataclass ``cls`` from the config object ``d``, reading each
    key as its field's annotated type with ``read_value``: numbers through
    ``config_value``, bools and strings as themselves, a ``Literal`` as one
    of its members, sequences of numbers as tuples and nested dataclasses
    (a config's grid section) the same way. A key that names no field, other
    than those in ``skip``, a missing key that has no default and a value of
    the wrong type or outside its ``Literal`` raise ConfigError, and so does
    a ``d`` that is not an object."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be an object, got {d!r}")
    names = {f.name for f in fields(cls)}
    extra = set(d) - names - skip
    if extra:
        raise ConfigError(f"{what} has unknown keys {sorted(extra)}; "
                          f"its keys are {sorted(names | skip)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name in d:
            kwargs[f.name] = read_value(hints[f.name], d[f.name], f"{what} key {f.name!r}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{what} needs key {f.name!r}")
    return cls(**kwargs)
