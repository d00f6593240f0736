"""Value records, built without a class decorator.

The standard library's record decorator would load ``inspect`` and ``ast``
and compile six methods per class at every cold start.  A plain record is a
``typing.NamedTuple`` (``_replace`` gives a changed copy).  A record that
checks its fields in ``__init__``, or inherits behaviour, subclasses
``Record``: a ``__slots__`` class that equals an instance of the same class
whose fields are equal, hashes over its fields, shows as
``Name(field=value, ...)``, refuses assignment after ``__init__`` and
pickles.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()   # compared, hashed and shown, in __init__'s order

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()
