"""The base of vseq's immutable records that are not tuples.

Most records subclass a ``collections.namedtuple`` with empty
``__slots__``.  A record that checks or converts its fields, caches a
derived table, or has a length of its own (an automaton, a sequence table,
a rule table) subclasses Record instead.  Neither needs the dataclasses
module, whose import loads inspect and ast and whose generated methods are
compiled at import time, nor the typing module.
"""


class Record:
    """Fields named by ``_fields``, set once by __init__ in that order and
    never assigned again: assignment raises AttributeError.  Equal fields
    make equal records of one class, hashed alike where the fields are
    hashable; the repr is ``Name(field=value, ...)``."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
