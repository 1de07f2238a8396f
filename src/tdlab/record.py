"""Immutable records: the base of tdlab's value classes.

A record class names its fields, in order, in `_fields` (and in
`__slots__`, unless it needs a `__dict__`), and the defaults of omitted
fields in `_defaults`.  The one constructor, `Record.__init__`, binds
positional and keyword arguments to the fields and raises TypeError for a
missing, unknown or repeated field; a call giving every field by position
takes a short path.  A class writes its own `__init__` only to validate,
after `super().__init__` has stored the fields.  The base makes the
instances immutable, equal and hashed by their fields, copied and pickled
through the constructor, and printed as ``Name(field=value, ...)``.  No
code is generated, so defining a record costs no more than a class.
"""

# Stores a field past the raising __setattr__.
setfield = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            setfield(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values, in order, of a call that is not all positional."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{name} has no field {field!r}")
            if field in fields[:len(args)]:
                raise TypeError(f"{name} got field {field!r} twice")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name} is missing field(s) {', '.join(missing)}")
        return tuple(values[f] for f in fields)

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

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
