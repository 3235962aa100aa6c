"""Record: the base class of the package's report types.

A subclass lists its fields as class annotations, each with an optional
default, as a dataclass would. It gets the same positional and keyword
``__init__``, ``__repr__`` and field-wise ``__eq__``, and is unhashable like
a mutable dataclass. Nothing is generated with ``exec`` at import: the
fields are read once, when the subclass is defined. A ``dict`` default is
copied for each instance, so no two records share one.
"""


class Record:
    # field name -> annotation string, in declaration order
    _fields = {}
    # field name -> default, for the fields that have one
    _defaults = {}
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = {**cls._fields, **own}
        cls._defaults = {
            **cls._defaults,
            **{name: cls.__dict__[name] for name in own if name in cls.__dict__},
        }

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = tuple(cls._fields)
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in cls._fields:
                raise TypeError(f"{cls.__name__}() got an unexpected argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for {name!r}")
            values[name] = value
        for name in names:
            if name in values:
                setattr(self, name, values[name])
            elif name in cls._defaults:
                default = cls._defaults[name]
                setattr(self, name, dict(default) if type(default) is dict else default)
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()
