"""Immutable records: the base of tdlab's value classes.

A record class names its fields, in order, in `_fields` (and in
`__slots__`, unless it needs a `__dict__`) and writes its own `__init__`,
which stores each field with `setfield` (`object.__setattr__`).  The base
makes the instances immutable, equal and hashed by their fields, copied
and pickled through `__init__`, and printed as ``Name(field=value, ...)``.
No code is generated, so defining a record costs no more than defining a
class.
"""

# Stores a field from a record's __init__, past the raising __setattr__.
setfield = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
