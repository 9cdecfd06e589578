"""Immutable records, cheap to define at import.

Every value type of the package but Presentation derives from a class
that record() makes: a collections.namedtuple whose equality asks for
the same class as well as equal fields.  A bare namedtuple is equal to
any tuple with the same items, so Distinct('x') would equal Unknown('x')
and a fieldless record would equal ().  Every field takes part in
equality, the hash and the repr: a record hashes as the tuple of its
fields, so one that holds a dict is unhashable, its repr names its
class and every field, and setting a field raises AttributeError.
"""

from __future__ import annotations

from collections import namedtuple


_tuple_eq, _tuple_ne = tuple.__eq__, tuple.__ne__


def _eq(self, other) -> bool:
    return type(other) is type(self) and _tuple_eq(self, other)


def _ne(self, other) -> bool:
    return type(other) is not type(self) or _tuple_ne(self, other)


def record(name: str, fields: str, defaults: tuple = ()) -> type:
    """The namedtuple class to derive the record class name from, with
    its fields (space-separated) and the defaults of its last fields.
    A subclass sets __slots__ = () unless it keeps an instance dict, and
    may validate its fields in __new__, which _replace and _make go
    through as well."""
    base = namedtuple(name, fields, defaults=defaults)
    # _replace builds its copy through _make: through the class, so that
    # a subclass that validates in __new__ validates the copy too
    base._make = classmethod(lambda cls, items: cls(*items))
    base.__eq__, base.__ne__ = _eq, _ne
    return base
