"""The base of the value objects built per decoded item or per APDU.

A frozen dataclass sets every field through ``object.__setattr__``
(an ``OpenEvent`` cost 402 ns against 153 ns for a plain class), so
these are plain ``__slots__`` classes with their own ``__init__``, and
immutable by convention: nothing assigns to a field after construction.
"""

from __future__ import annotations


class ValueObject:
    """Equal, hashed and shown by the fields named in ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
