"""The base of mpart's value types: each is a ``tuple`` of its fields, named
once in ``_fields``.  A type's checked ``__new__`` validates outside input
and hands its fields to ``unchecked``, which mpart calls directly for the
values it derives."""

from operator import itemgetter


class Frozen(tuple):
    """A tuple of the fields named in ``_fields``, each read through a
    read-only property, that equals only instances of its own class.

    The tuple builds, hashes and compares the fields in C.  A subclass sets
    ``__slots__ = ()`` so that it has no ``__dict__`` and refuses assignment
    and deletion.  As for a ``namedtuple``, ``len``, iteration, indexing and
    ordering act on the field tuple."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    @classmethod
    def unchecked(cls, *fields):
        """An instance of ``fields`` in ``_fields`` order, with no check:
        for values whose maker guarantees their canonical form."""
        return tuple.__new__(cls, fields)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(self)
