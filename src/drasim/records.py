"""Frozen records: the message engine's immutable value types, cheap to build.

An audited run builds some thirty records (events, payloads, openings, ledger
entries, view summaries). The __init__ that dataclasses writes for a frozen
class stores every field through object.__setattr__, as the class's own
__setattr__ refuses assignment, and with it the records take about a fifth of
the run; slots alone do not change that. record keeps the dataclass as
declared (fields, defaults, equality, hash, repr, and FrozenInstanceError on
assignment) and replaces only __init__ by one that stores each field through
its slot's descriptor, which costs about two thirds as much.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

__all__ = ["record"]


def record(cls: type) -> type:
    """cls as a frozen, slotted dataclass whose __init__ fills the slots directly.

    For plain records: every field is an __init__ parameter, positional or with
    a default, and there is no __post_init__ to run.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__}: a record has no __post_init__")
    params, stores, namespace = ["self"], [], {}
    for f in fields(cls):
        if not f.init or f.kw_only or f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: a record field is a plain parameter")
        namespace[f"_set_{f.name}"] = vars(cls)[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        stores.append(f"    _set_{f.name}(self, {f.name})\n")
    body = "".join(stores) or "    pass\n"
    exec(f"def __init__({', '.join(params)}):\n{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls
