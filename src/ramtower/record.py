"""Plain `__slots__` records: what ramtower's value types share.

A record names its fields in `__slots__` and writes its own `__init__`; a
slot whose name starts with an underscore is a private cache, not a field.
`Record` supplies the rest:

- equality only with an instance of the same class whose fields are equal,
  compared as one tuple, and the hash of that tuple;
- the repr `Name(field=value, ...)`;
- immutability: assignment and deletion raise AttributeError, so
  `__init__` stores the fields with `_store`, and a private cache slot is
  set with `object.__setattr__`;
- pickling through the constructor, which the blocked `__setattr__` would
  otherwise refuse.

`MutableRecord` is the same with assignment allowed and no hash.

One exception: `polygon.Side` and `polygon.NewtonPolygon` set their fields
with `object.__setattr__` directly.  A towers benchmark pass builds about
6,300 of each, and `_store`'s call and loop would add 0.15-0.4 µs to each
construction (Side 0.58 -> 1.00 µs, NewtonPolygon 0.54 -> 0.69 µs on
CPython 3.11); with direct stores, building a polygon and reading its sides
takes 3.1 µs, as it did before the records were `__slots__` classes.

This module imports nothing.  Every CLI command is a fresh interpreter, and
the standard library's record decorator costs it 8-12 ms to import (most of
it `inspect`), plus about 1 ms to build each frozen class.
"""


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(s for s in own if s[0] != "_")

    def _store(self, *values):
        """Set the fields, in `__slots__` order, past the blocked __setattr__."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class MutableRecord(Record):
    __slots__ = ()
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
