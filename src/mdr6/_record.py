"""Immutable value records, built from a class's own field annotations.

``record`` turns a class whose body annotates its fields into a frozen
value type: the fields, in the order they are annotated, are taken by
position or keyword, a field assigned in the class body has that value as
its default, and ``__post_init__``, where the class has one, checks the
values once they are set.  Instances compare equal only to instances of
the same class with equal fields, hash by their fields, repr as
``Name(field=value, ...)`` and refuse attribute assignment and deletion;
the class's ``__match_args__`` names the fields in order.  Methods can
still be set on the class, and ``functools.cached_property`` still
caches in each instance's ``__dict__``.

The methods are closures over the field names: defining a record
compiles no generated source, and importing ``mdr6`` loads no
introspection module such as ``inspect``.
"""

from __future__ import annotations

from operator import attrgetter


def record(cls: type) -> type:
    """Give cls an initializer, equality, hashing, a repr and immutability
    over the fields its body annotates."""
    name = cls.__qualname__
    names = tuple(cls.__annotations__)  # the class's own, in order
    defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
    arity = len(names)
    positions = range(arity)
    post_init = cls.__dict__.get("__post_init__")
    # one C-level getter of every field serves both equality and hashing,
    # which lru_cache lookups keyed by a record run on every call
    values = attrgetter(*names)
    set_field = object.__setattr__

    def bind(args: tuple, kwargs: dict) -> tuple:
        if len(args) > arity:
            raise TypeError(f"{name}() takes {arity} positional arguments but {len(args)} were given")
        given = dict(zip(names, args))
        for key, value in kwargs.items():
            if key not in names:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            given[key] = value
        missing = [f for f in names if f not in given and f not in defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
        return tuple(given[f] if f in given else defaults[f] for f in names)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        # field by field, not through self.__dict__: making the dict a real
        # object would slow every later attribute read of the instance (and
        # indexing runs faster here than a zip of names and values)
        for i in positions:
            set_field(self, names[i], args[i])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in names)
        return f"{name}({fields})"

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"{name} is immutable: cannot assign {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"{name} is immutable: cannot delete {attr!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{name}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
