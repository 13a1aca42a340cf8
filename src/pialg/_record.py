"""Immutable value classes, built without generating code.

``record`` gives a class with annotated fields what ``dataclass(frozen=True)``
gives it: an ``__init__`` that fills in defaults and calls ``__post_init__``,
and the value methods of ``frozen``. Every method is a closure over the field
spec, so defining a record executes no source text and imports nothing.
"""

from operator import attrgetter

_MISSING = object()
_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting an attribute of a frozen value."""


class field:
    """A field's spec, as in ``dataclasses.field``."""

    def __init__(self, *, default=_MISSING, default_factory=None, init=True, repr=True,
                 compare=True):
        self.default, self.factory = default, default_factory
        self.init, self.repr, self.compare = init, repr, compare


def _frozen(self, name, *_):
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


def frozen(compared: tuple, shown: tuple = None):
    """Class decorator: instances refuse assignment and deletion, compare and hash
    as the tuple of their ``compared`` attributes, and show ``shown`` (default
    ``compared``) as ``Name(a=..., b=...)``."""
    key = attrgetter(*compared) if len(compared) > 1 else lambda s: tuple(
        getattr(s, n) for n in compared)
    shown = compared if shown is None else shown
    methods = {
        "__setattr__": _frozen, "__delattr__": _frozen,
        "__eq__": lambda self, other: self is other or (
            key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented),
        "__hash__": lambda self: hash(key(self)),
        "__repr__": lambda self: f"{self.__class__.__qualname__}("
                                 f"{', '.join(f'{n}={getattr(self, n)!r}' for n in shown)})",
    }

    def decorate(cls):
        for name, fn in methods.items():
            setattr(cls, name, fn)
        return cls
    return decorate


class lazy:
    """``functools.cached_property`` without the lock CPython < 3.12 takes on each first
    read: the value goes into ``vars(obj)``, where later reads find it first."""

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls=None):
        return self if obj is None else vars(obj).setdefault(self.name, self.fn(obj))


def record(cls):
    """Class decorator: the annotated fields of ``cls`` make it a frozen record."""
    fields = {n: f if isinstance(f := vars(cls).get(n, _MISSING), field) else field(default=f)
              for n in vars(cls).get("__annotations__", ())}
    names = tuple(n for n, f in fields.items() if f.init)
    later = tuple(n for n, f in fields.items()
                  if not f.init and (f.factory or f.default is not _MISSING))
    rest = [names[i:] for i in range(len(names) + 1)]  # the fields after i positionals
    free = [frozenset(r) for r in rest]
    need = [frozenset(n for n in r if fields[n].default is _MISSING and not fields[n].factory)
            for r in rest]
    fills = [tuple((n, fields[n].default, fields[n].factory) for n in r + later) for r in rest]
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kw):
        i = len(args)
        if i > len(names) or (kw or need[i]) and not need[i] <= kw.keys() <= free[i]:
            raise TypeError(f"{cls.__qualname__}() takes the arguments {names}, "
                            f"got {i} positional and the keywords {sorted(kw)}")
        # Fields are set in declaration order, whatever the keyword order of the
        # call: CPython shares one attribute layout among instances set alike.
        for j, v in enumerate(args):
            _set(self, names[j], v)
        for n, v, make in fills[i]:
            _set(self, n, kw[n] if n in kw else make() if make else v)
        if post_init:
            self.__post_init__()

    # Every instance sets every field, so no default stays on the class. A field
    # spec left there would make each read of the field about 3x slower: CPython
    # does not specialize an attribute load shadowing an instance of a Python class.
    for n in fields.keys() & vars(cls).keys():
        delattr(cls, n)
    cls.__init__, cls.__record_fields__ = __init__, fields
    return frozen(tuple(n for n, f in fields.items() if f.compare),
                  tuple(n for n, f in fields.items() if f.repr))(cls)
