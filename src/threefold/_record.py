"""Frozen value records, the package's stand-in for ``dataclass(frozen=True)``.

`record` turns a class with annotated fields into an immutable value with
the constructor, repr, == and hash of ``dataclass(frozen=True)``: keyword or
positional arguments with defaults, `field(default_factory=...)`,
`__post_init__`, an explicit `__hash__` kept, and assignment or deletion
raising `FrozenInstanceError` (an AttributeError).  Instances keep a
`__dict__`, so `cached_property` works and `object.__setattr__` can seed it.
`replace` copies a record with some fields changed.

Only `__init__` is generated, one `exec` per class, with the defaults as
default arguments; the other methods are shared and read the field values
with one `attrgetter`.  The standard dataclass module imports `inspect` and
`ast` on every start, and compiles six methods for each frozen class.
`__init__` sets the instance dict whole: filled key by key through
`self.__dict__`, it would stay a split dict, whose attribute reads CPython
3.11 does not specialise (about three times slower).
"""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Assignment to or deletion of an attribute of a record."""


class _Factory:
    """The class-body default of a factory field; as the default argument
    of __init__ it stands for a fresh make()."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def field(*, default_factory):
    """A field whose default is a fresh default_factory() per instance."""
    return _Factory(default_factory)


def _repr(self):
    pairs = zip(self._record_fields, self._record_values(self))
    return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        get = self._record_values
        return get(self) == get(other)
    return NotImplemented


def _hash(self):
    return hash(self._record_values(self))


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_SHARED = {"__repr__": _repr, "__eq__": _eq, "__hash__": _hash, "__setattr__": _setattr, "__delattr__": _delattr}
_NO_DEFAULT = object()


def record(cls):
    """Make cls a frozen record of its annotated fields, in their order."""
    names = tuple(cls.__annotations__)
    if len(names) < 2:
        raise TypeError(f"record {cls.__qualname__} needs two fields or more")
    ns = {"__name__": cls.__module__, "_set_dict": vars(cls)["__dict__"].__set__}
    params, values = ["self"], []
    for name in names:
        default = vars(cls).get(name, _NO_DEFAULT)
        if default is _NO_DEFAULT:
            params.append(name)
            values.append(f"{name!r}: {name}")
            continue
        ns[f"_default_{name}"] = default
        params.append(f"{name}=_default_{name}")
        if isinstance(default, _Factory):
            values.append(f"{name!r}: _default_{name}.make() if {name} is _default_{name} else {name}")
            delattr(cls, name)
        else:
            values.append(f"{name!r}: {name}")
    body = f"_set_dict(self, {{{', '.join(values)}}})"
    if hasattr(cls, "__post_init__"):
        body += "\n self.__post_init__()"
    exec(f"def __init__({', '.join(params)}):\n {body}", ns)
    cls.__init__ = ns["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls._record_fields = names
    cls._record_values = staticmethod(attrgetter(*names))  # a tuple, for two names or more
    for attr, fn in _SHARED.items():
        if attr not in vars(cls):
            setattr(cls, attr, fn)
    return cls


def replace(obj, /, **changes):
    """A copy of the record obj with the given fields changed, built (and
    checked by __post_init__) through its constructor."""
    for name in obj._record_fields:
        if name not in changes:
            changes[name] = obj.__dict__[name]
    return obj.__class__(**changes)
