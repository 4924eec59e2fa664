"""Frozen records: what dataclass(frozen=True) gave this package, without
importing dataclasses, which loads inspect, ast and dis on every start."""


def _refuse(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def frozen(cls):
    """Make cls an immutable record of its annotated names, in order (a
    class-level value is a default), as dataclass(frozen=True) would."""
    fields = cls._fields = tuple(cls.__annotations__)
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    params = "".join(f", {f}=_d[{f!r}]" if f in defaults else f", {f}" for f in fields)
    sets = "".join(f"\n _set(self, {f!r}, {f})" for f in fields)
    post = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    mine, theirs = ("".join(f"{o}.{f}, " for f in fields) for o in ("self", "other"))
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
    ns = {"_set": object.__setattr__, "_d": defaults}
    exec(f"def __init__(self{params}):{sets}{post}\n return\n"
         f"def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
         f"  return ({mine}) == ({theirs})\n return NotImplemented\n"
         f"def __hash__(self):\n return hash(({mine}))\n"
         f"def __repr__(self):\n return f'{cls.__qualname__}({shown})'\n", ns)
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        setattr(cls, name, ns[name])
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


def replace(record, **changes):
    """A new record of the same class, with the named fields changed."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})
