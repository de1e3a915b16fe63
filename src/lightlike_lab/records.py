"""Read-only records whose constructors validate their fields.

The records without validation are typing.NamedTuple classes.  The
ones here are built without dataclass code generation, which keeps
`dataclasses` and `inspect` off the import path of the runtime.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Tuple


class Record:
    """Fields named by __slots__, in order; a subclass that keeps
    cached_property values adds "__dict__" to them.  __init__ stores the
    fields once through _set and may then validate them; afterwards a
    field cannot be assigned or deleted.  Equality, hash, repr and
    pickling go by the field values, as for a frozen dataclass."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._values = property(attrgetter(*cls._fields))

    def _set(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return (type(self), self._values)
