"""Record: the base of faultlint's plain data classes.

A record class declares its fields, in constructor order, as `__slots__`,
which `Record` also publishes as the class's `_fields` tuple, and writes
its own `__init__`, which stores each field once with `self.field = value`.
Record supplies the rest, in the manner of a frozen dataclass: `repr` as
`Name(field=value, ...)`, equality between instances of the same class with
equal fields, and a hash over the fields. The fields are not changed after
`__init__`; that is a rule of the source, checked over it by a test, not a
refusal at run time. A Python-level `__setattr__` on this base would make
every field store in every subclass a generic attribute call instead of a
direct slot write, which cost about 18% of the parse. The classes are
written out in the source, not generated: the `dataclasses` module would
compile about six functions for each class at every start-up.
"""


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
