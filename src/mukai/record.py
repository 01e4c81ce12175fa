"""Immutable value records: the package's replacement for frozen dataclasses.

A subclass of `Record` lists its fields as class annotations, in order,
and gets value equality (same class only), a hash of the field values,
the `Name(field=value, ...)` repr and immutability: assigning or deleting
any attribute raises `AttributeError`.  Nothing is generated at class
creation, so defining a record costs no more than defining a class.

Each record writes its own `__init__`, with the fields as parameters in
field order (defaults go there too), and stores the values with
`vars(self).update(...)`; a record that coerces or validates its input
does so there.  Attributes that are not annotated (caches, derived
values) are stored the same way and take no part in `==`, `hash` or
`repr`.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A subclass of a record keeps its base's fields first, as dataclasses do.
        cls._fields += tuple(name for name in cls.__annotations__ if name not in cls._fields)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
