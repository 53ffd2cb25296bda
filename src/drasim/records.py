"""Frozen records: every value type of drasim, built by one decorator at little cost.

drasim's value types (the messages, events, views and ledger entries of a run;
configs, strategies and distribution families; estimates, rows and reports) are
frozen, slotted dataclasses that record makes. The dataclass decorator writes
each method it adds as source and compiles it, five or six per class, and for
these classes that took most of import drasim. record asks it only to register
the fields and to give the class its slots, so fields, replace, is_dataclass
and __match_args__ work as for any dataclass, and adds the methods itself:

- one compiled __init__ per class, which stores each field through its slot's
  descriptor (cheaper than the object.__setattr__ call per field of a frozen
  dataclass) and then runs the class's _validate hook, if it has one;
- __eq__ and __hash__ over the tuple of the compared fields, and the frozen
  guards __setattr__ and __delattr__, as closures over the class's fields;
- __repr__ and pickling, shared by every record; a class that inherits a
  __repr__ of its own (the distribution families) keeps it.

Each method behaves as the one a frozen dataclass on the same fields has. A
record has no __post_init__: a class whose fields have to be checked defines
_validate(self), which raises on a bad value, and so refuses replace as it
refuses its constructor.
"""

from __future__ import annotations

import reprlib
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter

__all__ = ["record"]


def record(cls: type) -> type:
    """cls as a frozen, slotted dataclass with record's methods and one compiled
    __init__. Every field is an __init__ parameter, positional or with a default."""
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__}: a record has no __post_init__")
    declared = cls
    cls = dataclass(init=False, repr=False, eq=False, slots=True)(cls)
    _rebind_class_cells(cls, declared)
    params = cls.__dataclass_params__  # what the class is, for dataclasses' own checks
    params.init = params.eq = params.frozen = True
    record_fields = fields(cls)
    names = frozenset(f.name for f in record_fields)
    cls.__init__ = _init(cls, record_fields)
    cls.__eq__, cls.__hash__ = _equality(
        _values([f.name for f in record_fields if f.compare]),
        _values([f.name for f in record_fields if (f.compare if f.hash is None else f.hash)]))
    cls.__setattr__, cls.__delattr__ = _frozen(cls, names)
    cls.__getstate__, cls.__setstate__ = _getstate, _setstate
    if cls.__repr__ in (object.__repr__, _repr):
        cls.__repr__ = _repr
    return cls


def _init(cls: type, record_fields: tuple):
    """The __init__ that stores each field through its slot's descriptor, then
    calls self._validate() where the class has that hook."""
    params, stores, namespace = ["self"], [], {}
    for f in record_fields:
        if not f.init or f.kw_only or f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: a record field is a plain parameter")
        namespace[f"_set_{f.name}"] = vars(cls)[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        stores.append(f"    _set_{f.name}(self, {f.name})\n")
    if hasattr(cls, "_validate"):
        stores.append("    self._validate()\n")
    body = "".join(stores) or "    pass\n"
    exec(f"def __init__({', '.join(params)}):\n{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


def _rebind_class_cells(cls: type, declared: type) -> None:
    """Point the __class__ cell that zero-argument super() reads, in each method of
    cls, from the class as declared to cls, the copy with slots that replaced it."""
    for member in vars(cls).values():
        code = getattr(member, "__code__", None)
        if code is not None and "__class__" in code.co_freevars:
            cell = member.__closure__[code.co_freevars.index("__class__")]
            if cell.cell_contents is declared:
                cell.cell_contents = cls


def _values(names: list):
    """The function of a record to the tuple of its named fields' values."""
    if len(names) == 1:
        value = attrgetter(names[0])
        return lambda obj: (value(obj),)
    return attrgetter(*names) if names else lambda obj: ()


def _equality(compared, hashed):
    """__eq__ and __hash__ of a frozen dataclass: field tuples, which take a field
    that holds one object (a NaN, say) as equal to itself."""
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(hashed(self))

    return __eq__, __hash__


def _frozen(cls: type, names: frozenset):
    """__setattr__ and __delattr__ that refuse every name on cls's instances, and
    the fields' names on a subclass's."""
    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    return __setattr__, __delattr__


@reprlib.recursive_repr()
def _repr(self) -> str:
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
    return f"{self.__class__.__qualname__}({shown})"


def _getstate(self) -> list:
    return [getattr(self, f.name) for f in fields(self)]


def _setstate(self, state: list) -> None:
    for f, value in zip(fields(self), state):
        object.__setattr__(self, f.name, value)
