"""Record classes: the part of dataclasses this package uses, built without exec.

`dataclass(frozen=, eq=, init=)` adds to a class the methods the standard
library's decorator would add for the same options, with the same
behaviour: `__init__` (defaults, a fresh `default_factory` value per
instance, then `__post_init__`), `__repr__` as `Name(f=...)`, `__eq__`
between instances of one class, `__hash__` as hash((f1, ..., fn)) for a
frozen record and None for a mutable one, unless the class defines its
own, `__match_args__`, and for a frozen record a `__setattr__` and
`__delattr__` that raise FrozenInstanceError.  The methods are closures,
with `operator.attrgetter` reading the field tuples and one general
`__init__` binding, so making a class compiles nothing; the standard
decorator execs source text for each method and imports inspect, which
together cost more than the rest of the package's import, paid again by
every CLI call.  The field names, in order, are the class attribute
`_fields`.
"""

from operator import attrgetter

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


class Field:
    __slots__ = ("default_factory", "compare", "repr")

    def __init__(self, default_factory, compare, repr):
        self.default_factory, self.compare, self.repr = default_factory, compare, repr


def field(*, default_factory=_MISSING, compare=True, repr=True):
    return Field(default_factory, compare, repr)


def replace(obj, /, **changes):
    for name in obj._fields:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)


def dataclass(cls=None, /, *, init=True, eq=True, frozen=False):
    if cls is None:
        return lambda cls: _record(cls, init, eq, frozen)
    return _record(cls, init, eq, frozen)


def _tuple_of(names):
    """self -> (self.n1, ..., self.nk)."""
    if len(names) == 1:
        one = attrgetter(names[0])
        return lambda self: (one(self),)
    return attrgetter(*names) if names else lambda self: ()


def _record(cls, init, eq, frozen):
    if any("_fields" in base.__dict__ for base in cls.__mro__[1:]):
        raise TypeError(f"record {cls.__name__} cannot inherit fields")
    names, defaults, factories, compared, shown = [], {}, {}, [], []
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if isinstance(spec, Field):
            delattr(cls, name)
            if spec.default_factory is not _MISSING:
                factories[name] = spec.default_factory
        else:
            if spec is not _MISSING:
                if type(spec).__hash__ is None:
                    raise ValueError(f"mutable default {type(spec)} for field {name} "
                                     "is not allowed: use default_factory")
                defaults[name] = spec
            spec = Field(_MISSING, True, True)
        if name not in defaults and name not in factories and (defaults or factories):
            raise TypeError(f"non-default argument {name!r} follows default argument")
        names.append(name)
        if spec.compare:
            compared.append(name)
        if spec.repr:
            shown.append(name)
    names = cls._fields = tuple(names)
    n = len(names)
    # A call with positional arguments only, at least the required ones and
    # no default_factory field left out, takes the omitted defaults from tail.
    tail = tuple(defaults.values())
    first_default = n if factories else n - len(tail)
    post_init = hasattr(cls, "__post_init__")
    # Not through self.__dict__: that would turn the instance's inline
    # attribute values into a dict, which makes every attribute read slower.
    set_field = object.__setattr__ if frozen else setattr
    values = _tuple_of(compared)

    def __init__(self, *args, **kwargs):
        k = len(args)
        if kwargs or not first_default <= k <= n:
            args = _bind(names, defaults, factories, args, kwargs)
        elif k < n:
            args += tail[k - first_default:]
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in shown)
        return f"{self.__class__.__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    own_hash = cls.__dict__.get("__hash__", _MISSING)
    explicit_hash = not (own_hash is _MISSING or (own_hash is None and "__eq__" in cls.__dict__))
    for fn in (init and __init__, __repr__, eq and __eq__):
        if fn and fn.__name__ not in cls.__dict__:
            _add(cls, fn)
    if frozen:
        for fn in (__setattr__, __delattr__):
            if fn.__name__ in cls.__dict__:
                raise TypeError(f"Cannot overwrite attribute {fn.__name__} in class {cls.__name__}")
            _add(cls, fn)
    if eq and not explicit_hash:
        if frozen:
            _add(cls, __hash__)
        else:
            cls.__hash__ = None
    if "__match_args__" not in cls.__dict__:
        cls.__match_args__ = names
    return cls


def _add(cls, fn):
    fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
    setattr(cls, fn.__name__, fn)


def _bind(names, defaults, factories, args, kwargs):
    """The field values of a call record(*args, **kwargs), in field order."""
    if len(args) > len(names):
        raise TypeError(f"__init__() takes {len(names) + 1} positional arguments "
                        f"but {len(args) + 1} were given")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in factories:
            values.append(factories[name]())
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"__init__() missing required argument: {name!r}")
    if kwargs:
        raise TypeError(f"__init__() got an unexpected keyword argument {next(iter(kwargs))!r}")
    return values
