"""Equality, hashing and repr of a class from a per-class tuple of field names."""

from __future__ import annotations


class Record:
    """Equal to an instance of the same class with equal ``_fields``; hashed and shown by them.

    Attributes that ``_fields`` does not name take no part.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"
