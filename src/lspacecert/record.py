"""Immutable records: namedtuples that are equal only to their own class.

A plain namedtuple compares as a tuple, so ``Citation(a, q) == (a, q)``
holds and two record classes with equal fields compare equal.  The base
that ``record`` builds compares the class first and hashes as the tuple
of its fields.  Its ``_make``, and so ``_replace``, goes through the
class's constructor, so a record whose ``__new__`` checks its fields
checks them on replacement too.
"""
from collections import namedtuple


def _eq(self, other):
    return type(self) is type(other) and tuple.__eq__(self, other)


def _ne(self, other):
    return not _eq(self, other)


def record(typename, field_names, defaults=()):
    """A namedtuple base class whose ``==`` and ``!=`` check the class."""
    base = namedtuple(typename, field_names, defaults=defaults)
    base.__eq__ = _eq
    base.__ne__ = _ne
    base.__hash__ = tuple.__hash__
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base
