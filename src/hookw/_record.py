"""One frozen base for the package's value types.

``Frozen`` is the package's one immutability mechanism.  It refuses
assignment and deletion with ``FrozenRecordError``; ``copy.copy`` returns
the value itself; pickle and ``copy.deepcopy`` set the stored fields,
``_record_fields``, on a bare instance, so no constructor,
canonicalization or gcd runs.  The exact formulas set ``_record_fields =
__slots__``; every other value type is a ``Record``.

A subclass of ``Record`` declares its fields as class annotations, in
order; a class attribute of the same name is that field's default:

    class Point(Record):
        x: int
        y: int = 0

It behaves as a ``@dataclass(frozen=True)`` does in everything the package
relies on: construction by position or keyword, ``__post_init__``,
equality and hashing on the tuple of fields, the dataclass repr
``Point(x=1, y=0)``, and frozen instances that keep a ``__dict__``, so
``functools.cached_property`` works.
``replace(obj, **changes)`` does what ``dataclasses.replace`` does.

``dataclasses`` is not used on purpose.  Importing it imports ``inspect``
and with it ``ast`` and ``dis``, and each decorated class compiles and
``exec``s its generated methods at import: together more than the rest of
``import hookw``, which every ``hookw`` command pays, since each starts a
fresh interpreter.  ``Record`` reads the fields, their defaults and
``__post_init__`` once per class, in ``__init_subclass__``, and gives the
class an ``__init__`` closed over them; it generates no code.
"""

__all__ = ["Frozen", "FrozenRecordError", "Record", "replace"]

_set = object.__setattr__


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen value."""


class Frozen:
    """Immutable value whose stored fields are ``_record_fields``."""

    __slots__ = ()
    _record_fields = ()

    def _record_values(self):
        # getattr, not __dict__: reading __dict__ turns the instance's
        # inline attribute values into a dict and slows later reads.
        return tuple([getattr(self, name) for name in self._record_fields])

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __copy__(self):
        return self

    def __reduce__(self):
        return _rebuilt, (type(self), self._record_values())


def _rebuilt(cls, values):
    """An instance of cls with the stored field values, set as they were."""
    self = cls.__new__(cls)
    for name, value in zip(cls._record_fields, values):
        _set(self, name, value)
    return self


class Record(Frozen):
    """Frozen value type whose fields are its class annotations."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._record_fields + tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        cls._record_fields = fields
        cls.__init__ = _init(fields, defaults, getattr(cls, "__post_init__", None))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._record_values() == other._record_values()
        return NotImplemented

    def __hash__(self):
        return hash(self._record_values())

    def __repr__(self):
        body = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._record_fields, self._record_values())
        )
        return f"{type(self).__qualname__}({body})"


def _init(fields, defaults, post_init):
    """The ``__init__`` of a record class, closed over what the class declares.

    Each field is set by ``object.__setattr__``, in field order, so the
    instance keeps its values inline; a write to ``__dict__`` would slow
    every later attribute read.
    """
    size = len(fields)

    def __init__(self, *args, **kwargs):
        if args and (kwargs or len(args) != size):
            kwargs = _with_positional(type(self), args, kwargs)
            args = ()
        if args:
            for name, value in zip(fields, args):
                _set(self, name, value)
        else:
            if defaults:
                kwargs = defaults | kwargs
            if len(kwargs) != size:
                raise _argument_error(type(self), kwargs)
            try:
                for name in fields:
                    _set(self, name, kwargs[name])
            except KeyError:
                raise _argument_error(type(self), kwargs) from None
        if post_init is not None:
            post_init(self)

    return __init__


def _with_positional(cls, args, kwargs):
    """The keyword form of a call that passes some fields by position."""
    fields = cls._record_fields
    if len(args) > len(fields):
        raise TypeError(
            f"{cls.__qualname__}() takes {len(fields)} positional "
            f"arguments but {len(args)} were given"
        )
    given = dict(zip(fields, args))
    for name in kwargs:
        if name in given:
            raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
    given.update(kwargs)
    return given


def _argument_error(cls, values):
    """The TypeError for arguments naming an unknown field or leaving one out."""
    fields = cls._record_fields
    for name in values:
        if name not in fields:
            return TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
    missing = ", ".join(repr(name) for name in fields if name not in values)
    return TypeError(f"{cls.__qualname__}() missing required argument(s): {missing}")


def replace(obj, /, **changes):
    """A new record like ``obj``, with the fields named in ``changes`` replaced.

    The new record is constructed, so ``__post_init__`` runs on it, and an
    unknown field raises TypeError.
    """
    values = dict(zip(obj._record_fields, obj._record_values()))
    values.update(changes)
    return type(obj)(**values)
