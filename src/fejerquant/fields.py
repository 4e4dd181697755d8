"""JSON config fields read with strict types.

Every parser of a serialized object reads its fields through ``field``, so a
missing field or a value of the wrong type is a ConfigError that names the
field (exit code 2 in the CLI), never a bare ValueError, a KeyError or a
silent truncation such as ``int(10.7)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import ConfigError

_REQUIRED = object()
# the largest decimal exponent read exactly; the default overflow cap is 10**10000
MAX_EXPONENT = 10_000


def field(obj, key: str, convert: Callable, default=_REQUIRED):
    """``convert(obj[key])``, or ``default`` as given when the key is absent.

    Errors of nested fields carry the whole path, e.g. ``quant: theta: p: ...``.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"expected a JSON object, got {obj!r}")
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"missing field {key!r}")
        return default
    try:
        return convert(obj[key])
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def only(obj: dict, allowed, what: str) -> None:
    """Reject the keys of ``obj`` outside ``allowed``: ``unknown <what> [...]``."""
    extra = set(obj) - set(allowed)
    if extra:
        raise ConfigError(f"unknown {what} {sorted(extra)}")


def integer(value) -> int:
    """A JSON integer; booleans, floats and numeric strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}")
    return value


def natural(value) -> int:
    """A JSON integer >= 0, such as a step or index count."""
    if integer(value) < 0:
        raise ConfigError(f"expected an integer >= 0, got {value!r}")
    return value


def number(value) -> float:
    """A JSON number, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"number out of float range: {value!r}") from None


def string(value) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}")
    return value


def rational(value) -> Fraction:
    """An exact rational from a JSON number or a string such as "3/2".

    A decimal exponent beyond +-MAX_EXPONENT is rejected before Fraction
    expands it: "1e999999999" would otherwise build a 10**999999999 integer.
    """
    text = str(value)
    _, marker, exponent = text.lower().rpartition("e")
    try:
        if marker and abs(int(exponent)) > MAX_EXPONENT:
            raise ConfigError(f"exponent out of range: {value!r}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected a rational number, got {value!r}") from None


def floats(value) -> np.ndarray:
    """A float array from a JSON number or nested lists of JSON numbers."""
    if not _numbers(value):
        raise ConfigError(f"expected numbers, got {value!r}")
    try:
        return np.array(value, dtype=float)
    except ValueError:
        raise ConfigError(f"expected a rectangular array, got {value!r}") from None
    except OverflowError:
        raise ConfigError(f"number out of float range: {value!r}") from None


def list_of(convert: Callable) -> Callable:
    """A converter for a JSON list whose items ``convert`` reads."""

    def convert_items(value) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"expected a list, got {value!r}")
        return [convert(v) for v in value]

    return convert_items


def _numbers(value) -> bool:
    if isinstance(value, list):
        return all(_numbers(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)
