"""JSON config fields read with strict types, and the JSON forms built of them.

Every parser of a serialized object reads its fields through ``field``, so a
missing field or a value of the wrong type is a ConfigError that names the
field (exit code 2 in the CLI), never a bare ValueError, a KeyError or a
silent truncation such as ``int(10.7)``.

A serialized class declares its JSON form once, as a dict ``json_fields``
from each JSON key to a ``Field``. ``read_form`` reads a form, ``read_kind``
reads a tagged one (an operator, a schedule rule, a modulus kind) as the
record of the class its tag names, and ``Record.to_json`` writes every form.

The package's immutable classes are ``Record`` subclasses: frozen records
whose methods are shared functions that read the field declarations, in
place of code generated for each class at import (README, "What each task
loads").
"""

from __future__ import annotations

from fractions import Fraction
from operator import methodcaller
from typing import TYPE_CHECKING, Callable

from .errors import ConfigError

if TYPE_CHECKING:
    import numpy as np

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


class Record:
    """A frozen record.

    Its fields are its annotated class attributes, in order, after those of
    the record classes it derives from. An annotated value is the field's
    default, shared by every record that takes it. Each record class
    has the methods of the standard library's frozen data classes, as shared
    functions that read the class's ``_fields`` and ``_defaults``:

    - ``__init__`` takes the fields by position or keyword, fills in the
      defaults, and then calls ``__post_init__``, which may normalize a field
      or keep a derived value by writing to ``vars(self)``;
    - ``__setattr__`` and ``__delattr__`` raise ``AttributeError``;
    - ``__repr__`` is ``Name(field=value!r, ...)``, the standard library's text;
    - equality is identity, unless the class is declared with ``eq=True``:
      then records of one class are equal when their tuples of fields are,
      and hash as that tuple. A subclass keeps the equality it inherits;
    - ``to_json`` writes the form ``json_fields``, after the key ``tag`` (such
      as ``kind``) valued as the attribute of that name, where there is one.
      A class with a ``tag`` but no value for it is the shared base of the
      kinds, and building one is a ``TypeError``.
    """

    _fields: tuple = ()
    _defaults: dict = {}
    json_fields, tag = {}, None  # not annotated: no fields

    def __init_subclass__(cls, eq: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        # read as names only: under ``from __future__ import annotations`` the
        # annotations are strings, never evaluated
        own = vars(cls).get("__annotations__", {})
        cls._fields = (*cls._fields, *(name for name in own if name not in cls._fields))
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        if eq:
            cls.__eq__, cls.__hash__ = _fields_equal, _fields_hash

    def __init__(self, *args, **kwargs):
        if self.tag is not None and not hasattr(self, self.tag):
            raise TypeError(f"{type(self).__qualname__} is a base: it has no {self.tag}")
        names = self._fields
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__qualname__}() takes {len(names)} fields, got {len(args)} positional"
            )
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{type(self).__qualname__}() got an unexpected or repeated "
                                f"argument {name!r}")
            values[name] = value
        state, defaults = vars(self), self._defaults
        for name in names:
            if name in values:
                state[name] = values[name]
            elif name in defaults:
                state[name] = defaults[name]
            else:
                raise TypeError(f"{type(self).__qualname__}() missing field {name!r}")
        self.__post_init__()

    def __post_init__(self):
        """Check and normalize the fields; records without checks keep this."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def to_json(self) -> dict:
        """The JSON object of the record; an optional field that is None is not written."""
        form = {key: f.write(v) for key, f in self.json_fields.items()
                if (v := getattr(self, f.attr or key)) is not None}
        return form if self.tag is None else {self.tag: getattr(self, self.tag), **form}


def _field_values(record: Record) -> tuple:
    return tuple([getattr(record, name) for name in record._fields])


def _fields_equal(self, other):
    """The ``__eq__`` of a record class declared with ``eq=True``."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _field_values(self) == _field_values(other)


def _fields_hash(self) -> int:
    """The ``__hash__`` of a record class declared with ``eq=True``."""
    return hash(_field_values(self))


class Field(Record, eq=True):
    """One key of a JSON form: ``read`` converts the JSON value with a strict
    type, ``write`` turns the attribute back into JSON, and ``default`` is
    taken when the key is absent (the key is required without one). ``attr``
    names the attribute when it is not the key. A field whose default is None
    is optional: JSON null reads as absent, and None is not written.
    """

    read: Callable
    write: Callable = lambda value: value
    default: object = _REQUIRED
    attr: str | None = None


def read_form(obj, form: dict, what: str, *tags: str) -> dict:
    """The attributes of ``form`` read from the JSON object ``obj``, by
    attribute name. A key outside the form and the ``tags`` (keys such as
    ``kind`` that the caller has read) is an ``unknown <what>`` error."""
    if not isinstance(obj, dict):
        raise ConfigError(f"expected a JSON object, got {obj!r}")
    only(obj, {*tags, *form}, what)
    values = {}
    for key, f in form.items():
        absent = f.default is None and obj.get(key) is None
        values[f.attr or key] = None if absent else field(obj, key, f.read, f.default)
    return values


def read_kind(obj, catalog: dict, what: str, tag: str = "kind", error=ConfigError):
    """The record of class ``catalog[obj[tag]]`` read through its form. An unknown
    tag value is ``error("unknown <what> <tag> 'x'")``, and a key outside the form
    ``unknown <what> fields`` (``unknown <tag> fields`` when the tag is not kind)."""
    name = field(obj, tag, string)
    if name not in catalog:
        raise error(f"unknown {what} {tag} {name!r}")
    cls = catalog[name]
    return cls(**read_form(obj, cls.json_fields, f"{what if tag == 'kind' else tag} fields", tag))


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


def positive(value) -> int:
    """A JSON integer >= 1, such as a dimension or a norm bound."""
    if integer(value) < 1:
        raise ConfigError(f"expected an integer >= 1, got {value!r}")
    return value


def boolean(value) -> bool:
    """JSON true or false; a truthy string such as "false" is rejected."""
    if not isinstance(value, bool):
        raise ConfigError(f"must be true or false, got {value!r}")
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
    """A float array from a JSON number, a list of them or a list of such lists."""
    if not _numbers(value, 2):
        raise ConfigError(f"expected numbers, got {value!r}")
    import numpy as np  # here, not at the top: moduli-eval loads no numpy

    try:
        return np.array(value, dtype=float)
    except ValueError:
        raise ConfigError(f"expected a rectangular array, got {value!r}") from None
    except OverflowError:
        raise ConfigError(f"number out of float range: {value!r}") from None


def list_of(convert: Callable) -> Callable:
    """A converter for a JSON list whose items ``convert`` reads, as a tuple."""

    def convert_items(value) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"expected a list, got {value!r}")
        return tuple(convert(v) for v in value)

    return convert_items


def _numbers(value, depth: int) -> bool:
    """Whether value is a JSON number or lists of them nested at most depth deep."""
    if isinstance(value, list):
        return depth > 0 and all(_numbers(v, depth - 1) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def tolist(value) -> list:
    """An array written as nested JSON lists, signed zeros kept."""
    import numpy as np

    return np.asarray(value).tolist()


#: the writer of a nested serialized object
json_of = methodcaller("to_json")

# the fields most forms share
INTEGER = Field(integer)
RATIONAL = Field(rational, str)
FLOATS = Field(floats, tolist)
