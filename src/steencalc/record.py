"""One base for the package's plain record types: syntax-tree nodes,
generator specs, reports and query results.

A subclass of Record lists its fields as annotations, in order, each with an
optional default.  The base reads them once, when the class is created, into
the field table _fields and the table _defaults, and generates no code.  Each
record gets construction by position or keyword with the defaults filled in
(TypeError for a bad argument list; a list or dict default is copied for each
instance), equality of its fields, and the repr Name(field=value, ...).
Fields named span or ending in _span take no part in equality or hashing, so
a node equals its twin from elsewhere in the source.  A FrozenRecord is also
hashed by its fields and refuses assignment.  A type that writes its own
__eq__ keeps it, and its own __hash__ or none.  Fields live in the instance
__dict__, so a type built often may write its own __init__ over the same
fields, and code that has checked its values may build a record with
_from(values), which checks none.
"""

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a FrozenRecord."""


class Record:
    _fields = ()  # the field names, in order
    _defaults = {}  # name -> default, for the fields that have one
    _hashed = False  # True for FrozenRecord: hashed by its compared fields

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._names = frozenset(cls._fields)
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        cls._fresh = frozenset(n for n, v in cls._defaults.items() if type(v) in (list, dict))
        for name in cls._fresh.intersection(own):  # no shared mutable class attribute
            delattr(cls, name)
        compared = [n for n in cls._fields if n != "span" and not n.endswith("_span")]
        key = attrgetter(*compared) if compared else (lambda record: ())

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return key(self) == key(other)

        def __hash__(self):
            return hash(key(self))

        if "__eq__" not in vars(cls):
            cls.__eq__ = __eq__
            cls.__hash__ = __hash__ if cls._hashed else None

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            values = _arguments(type(self), args, kwargs)
        else:
            values = dict(zip(names, args))
        self.__dict__.update(values)  # in one piece: a dict filled key by key reads slower

    @classmethod
    def _from(cls, values):
        """A record of field values already checked, the defaults filling in
        the rest (shared, so for a type with no list or dict default)."""
        record = object.__new__(cls)
        record.__dict__.update(cls._defaults, **values)
        return record

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


class FrozenRecord(Record):
    _hashed = True

    def __setattr__(self, name, value):
        raise FrozenRecordError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenRecordError("cannot delete field %r" % name)


def _arguments(cls, args, kwargs):
    """The field values of cls(*args, **kwargs), defaults filled in;
    TypeError for a bad argument list."""
    fields = cls._fields
    values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
    if len(args) > len(fields) or values.keys() != cls._names or not kwargs.keys().isdisjoint(
            fields[:len(args)]):
        signature = ", ".join("%s=%r" % (f, cls._defaults[f]) if f in cls._defaults else f
                              for f in fields)
        raise TypeError("%s(%s) does not take %d positional arguments and the keywords %s"
                        % (cls.__qualname__, signature, len(args), sorted(kwargs)))
    for name in cls._fresh:
        if values[name] is cls._defaults[name]:
            values[name] = values[name].copy()
    return values
