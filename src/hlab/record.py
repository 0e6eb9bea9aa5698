"""Immutable value records: the one base class of hlab's result and input types.

A subclass lists its fields as class annotations, optionally with a default:

    class Interval(Record):
        lo: Fraction
        hi: Fraction

and gets a constructor taking them positionally or by keyword (then calling
``__post_init__``, if defined, which may normalise a field through
``object.__setattr__``), frozen attributes, ``==`` and ``hash`` over the
field values, and the repr ``Interval(lo=..., hi=...)``.  A
``functools.cached_property`` member lives in the instance ``__dict__`` and
takes no part in equality or hashing.

It reads the annotations once per class and generates no code at import,
unlike ``dataclasses``.
"""

from __future__ import annotations

from fractions import Fraction


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__annotations__", ()) if name not in cls._fields]
        cls._fields = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults, **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} arguments but {len(args)} were given")
        values = dict(zip(self._fields, args))
        for key, value in kwargs.items():
            if key not in self._fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        for key in self._fields:
            if key not in values:
                if key not in self._defaults:
                    raise TypeError(f"{name}() missing required argument {key!r}")
                values[key] = self._defaults[key]
        self.__dict__.update(values)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(self.__dict__[key] for key in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{key}={self.__dict__[key]!r}" for key in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Interval(Record):
    """Certified rational enclosure lo <= value <= hi.

    A report prints it by the one rule of ``hlab.cli._plain``; ``str``
    gives the repr."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("empty enclosure")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo
