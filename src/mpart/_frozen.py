"""The base of mpart's value types; their ``__init__`` sets fields by ``object.__setattr__``."""

from operator import attrgetter


class Frozen:
    """Equality, hash, repr, read-only fields and pickling from ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # one C getter per class: through a generator over the names == is 4x slower
        get = attrgetter(*cls.__slots__)
        cls._astuple = staticmethod(get if len(cls.__slots__) > 1 else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._astuple(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple(self)
