"""Base of the package's value records.

A record class names its fields, in order, in ``__slots__`` and sets them
in an ``__init__`` written out with its defaults.  Records compare field by
field, print as ``Name(field=value, ...)`` and pickle by their constructor
arguments.  A class declared ``frozen=True`` refuses assignment after
``__init__`` and hashes as the tuple of its fields; the others are mutable
and unhashable.  This is what ``dataclasses`` would generate, without the
cost of importing it and building the methods at import time.
"""

from itertools import repeat
from operator import attrgetter

_setattr = object.__setattr__


def _refuse(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of a frozen record."""
    verb = "assign to" if value else "delete"
    raise AttributeError(f"cannot {verb} field {name!r} of a frozen "
                         f"{type(self).__name__}")


class Record:
    __slots__ = ()

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # the tuple of field values; attrgetter of one name gives the value
        cls._values = staticmethod(get if len(cls.__slots__) > 1
                                   else lambda obj: (get(obj),))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
            if cls.__dict__.get("__hash__") is None:  # none of its own
                cls.__hash__ = lambda self: hash(self._values(self))

    def _set(self, *values):
        """Set every field, in ``__slots__`` order (bypasses frozen)."""
        # each call returns None, so ``any`` makes them all, in C
        any(map(_setattr, repeat(self), self.__slots__, values))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)
