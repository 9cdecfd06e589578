"""Immutable records, cheap to define at import.

Every value type of the package but Presentation derives from a class
that record() makes: a collections.namedtuple whose equality asks for
the same class as well as equal fields.  A bare namedtuple is equal to
any tuple with the same items, so Distinct('x') would equal Unknown('x')
and a fieldless record would equal ().  A record hashes as the tuple of
its fields, its repr names its class and fields, and setting a field
raises AttributeError.
"""

from __future__ import annotations

from collections import namedtuple


_tuple_eq, _tuple_ne = tuple.__eq__, tuple.__ne__


def _eq(self, other) -> bool:
    return type(other) is type(self) and _tuple_eq(self, other)


def _ne(self, other) -> bool:
    return type(other) is not type(self) or _tuple_ne(self, other)


def record(name: str, fields: str, defaults: tuple = (),
           hidden: int = 0) -> type:
    """The namedtuple class to derive the record class name from, with
    its fields (space-separated) and the defaults of its last fields.
    The last hidden fields take no part in equality, hashing or the
    repr.  A subclass sets __slots__ = () unless it keeps an instance
    dict, and may validate its fields in __new__, which _replace and
    _make go through as well."""
    base = namedtuple(name, fields, defaults=defaults)
    # _replace builds its copy through _make: through the class, so that
    # a subclass that validates in __new__ validates the copy too
    base._make = classmethod(lambda cls, items: cls(*items))
    if not hidden:
        base.__eq__, base.__ne__, base.__hash__ = _eq, _ne, tuple.__hash__
        return base
    shown = len(base._fields) - hidden

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self[:shown] == other[:shown]

    def __ne__(self, other) -> bool:
        return not __eq__(self, other)

    def __hash__(self) -> int:
        return hash(self[:shown])

    def __repr__(self) -> str:
        items = zip(base._fields, self[:shown])
        return f"{type(self).__name__}({', '.join(f'{f}={x!r}' for f, x in items)})"

    base.__eq__, base.__ne__, base.__hash__ = __eq__, __ne__, __hash__
    base.__repr__ = __repr__
    return base
