"""Record: the base of faultlint's plain data classes.

A record class declares its fields, in constructor order, as `__slots__`,
which `Record` also publishes as the class's `_fields` tuple, and writes
its own `__init__`. Record supplies the rest, in the manner of a frozen
dataclass: `repr` as `Name(field=value, ...)`, equality between instances
of the same class with equal fields, a hash over the fields, and
instances that refuse assignment and deletion. `__init__` stores the
fields with `_set`, which goes around that refusal. The classes are
written out in the source, not generated: the `dataclasses` module would
compile about six functions for each class at every start-up.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as assignment is refused
        return type(self), self._values()
