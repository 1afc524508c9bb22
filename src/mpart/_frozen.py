"""The base of mpart's value types, one setter per class: a type's checked
``__new__`` validates outside input and hands its fields to the generated
``unchecked``, which mpart calls directly for the values it derives."""

from operator import attrgetter


class _Unchecked:
    """``cls.unchecked(*fields)``: an instance with ``fields`` set in
    ``__slots__`` order and no check.  It makes one slot setter call per
    field, written out for cls's fields as ``namedtuple`` writes its
    ``__new__``: a loop over the setters is 2.5x slower (CPython 3.11), and
    the enumerations build millions of objects.  It is built at the first
    lookup on cls and kept there, so a caller may bind it before its first
    call, and importing compiles none (five compiled at class creation
    added 11% to the import of ``mpart.cli``)."""

    def __get__(self, instance, cls):
        fields = [f"f{i}" for i in range(len(cls.__slots__))]
        source = (f"def unchecked({', '.join(fields)}):\n    self = new(cls)\n"
                  + "".join(f"    set_{f}(self, {f})\n" for f in fields)
                  + "    return self\n")
        scope = {"new": object.__new__, "cls": cls}
        scope.update((f"set_{f}", getattr(cls, name).__set__)
                     for f, name in zip(fields, cls.__slots__))
        exec(source, scope)
        cls.unchecked = staticmethod(scope["unchecked"])
        return scope["unchecked"]


class Frozen:
    """Equality, hash, repr, read-only fields and pickling from ``__slots__``,
    and ``unchecked`` construction for values whose maker guarantees their
    canonical form."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # one C getter per class: through a generator over the names == is 4x slower
        get = attrgetter(*cls.__slots__)
        cls._astuple = staticmethod(get if len(cls.__slots__) > 1 else lambda x: (get(x),))
        cls.unchecked = _Unchecked()  # each class its own, subclasses too

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
