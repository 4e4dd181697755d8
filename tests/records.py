"""Helpers for the package's frozen records (``fejerquant.fields.Record``)
in tests, in place of ``dataclasses.replace`` and ``dataclasses.fields``."""

from __future__ import annotations


def replace(record, **changes):
    """A copy of ``record`` with the fields in ``changes`` changed. It is
    built through the class's ``__init__``, so ``__post_init__`` checks the
    new fields as it checks any record's; an unknown field is a TypeError."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


def field_names(cls) -> list:
    """The names of a record class's fields, in ``__init__`` order."""
    return list(cls._fields)
