"""Immutable value records: the package's replacement for frozen dataclasses.

A subclass of `Record` declares its fields once, as class annotations in
order, and a field's default as the class attribute of the same name.  It
gets a constructor taking the fields by position or keyword, value
equality (same class only), a hash of the field values, the
`Name(field=value, ...)` repr and immutability: assigning or deleting any
attribute raises `AttributeError`.  Nothing is generated at class
creation, so defining a record costs no more than defining a class.

The constructor stores the values, then calls `__post_init__`, where a
record checks its fields or coerces them with `vars(self).update(...)`.
Attributes that are not annotated (caches, derived values) are stored the
same way and take no part in `==`, `hash`, `repr` or `as_dict()`, which
maps the fields to their values in declaration order.  Only `GradedClass`
keeps its own `__init__`, because its fields are properties over integers.

`Record._exact(**fields)` is the one trusted constructor: it stores the
given attributes as they are and runs neither `__init__` nor
`__post_init__`.  Only the library calls it, and only on values it has
just made itself in the checked form (a result computed from records that
passed their own checks, such as a twisted `ChernData` or a restricted
`K3Vector`), so that a result is not coerced and checked a second time.
Anything that comes from a caller goes through the public constructor.

>>> class Interval(Record):
...     low: int
...     high: int = 0
...     def __post_init__(self):
...         if self.low > self.high:
...             raise ValueError("empty interval")
>>> Interval(-1), Interval(1, high=2) == Interval(high=2, low=1)
(Interval(low=-1, high=0), True)
>>> Interval(1)
Traceback (most recent call last):
ValueError: empty interval
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A subclass of a record keeps its base's fields first, as dataclasses do.
        cls._fields += tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._field_set = frozenset(cls._fields)

    def __init__(self, *args, **values):
        fields = self._fields
        if args:
            if len(args) > len(fields):
                raise TypeError(f"{type(self).__name__}() takes at most {len(fields)} positional arguments")
            for name in fields[:len(args)] if values else ():
                if name in values:
                    raise TypeError(f"{type(self).__name__}() got multiple values for argument {name!r}")
            values.update(zip(fields, args))
        if values.keys() != self._field_set:
            cls = type(self)
            for name in values:
                if name not in cls._field_set:
                    raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            # A missing field takes its default, the class attribute of the same name.
            for name in fields:
                if name not in values:
                    if not hasattr(cls, name):
                        raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
                    values[name] = getattr(cls, name)
        vars(self).update(values)
        self.__post_init__()

    @classmethod
    def _exact(cls, **fields):
        """A record holding `fields` as given, unchecked: for values the library already checked."""
        x = object.__new__(cls)
        vars(x).update(fields)
        return x

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def as_dict(self) -> dict:
        """The fields and their values, in declaration order."""
        return dict(zip(self._fields, self._values()))

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
