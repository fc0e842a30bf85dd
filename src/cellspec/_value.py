"""Immutable value classes: a subclass's fields are its own annotations, in
order, with class attributes as defaults; instances keep a __dict__."""


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = fields = tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {f: vars(cls)[f] for f in fields if f in vars(cls)}
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args)) | kwargs  # loses surplus or repeated args
        values = self._defaults | given
        if len(given) < len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for f in self._fields:  # set in order, so instances share one key table
            object.__setattr__(self, f, values[f])
        if self._post_init:
            self._post_init()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__
