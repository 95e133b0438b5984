"""Basic sets of variable labels and integer subset masks.

A basic set is an ordered collection of distinct variable labels.  Subsets
of it are represented throughout the library as integer bitmasks: bit ``i``
of a mask corresponds to position ``i`` in the label order.  All set
algebra on masks is plain integer arithmetic (``|``, ``&``, ``~`` against
the full mask).  The module also holds the one record base, and the
``Report`` that every named check returns.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator

# Sets a field of a record; only the records' __init__ methods do so.
set_field = object.__setattr__


class Record:
    """Base of the library's record types; every record is frozen.

    The fields are the names a class annotates, after those of its record
    bases; no field has a default, so every caller passes every value.  The
    shared ``__init__`` binds positional and keyword arguments to the fields
    in declaration order and raises ``TypeError`` for a missing, unknown,
    repeated or surplus argument.  The records that check or convert their
    arguments (``BasicSet``, ``SampleSpace``, ``ElementaryTriplet``,
    ``CIStructure`` and ``SetFunction``) write their own ``__init__``
    instead.  Fields are set once, through :data:`set_field`; assigning to
    or deleting one raises ``AttributeError``.  Instances are equal when
    they have the same class and equal fields, the hash is that of the
    field tuple, and the repr is ``Name(field=value, ...)``.  The outcome
    of a named check is a :class:`Report`: name, rows, seconds and value.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = fields = cls._fields + own
        if fields:
            get = attrgetter(*fields)
            cls._key = property(get if len(fields) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        positional = dict(zip(fields, args))
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if field in positional:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
        values = {**positional, **kwargs}
        for field in fields:
            if field not in values:
                raise TypeError(f"{name}() missing argument {field!r}")
            set_field(self, field, values[field])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"


class Report(Record):
    """Outcome of one named check: the ``(part, ok, detail)`` row of every
    claim it tested, the seconds it took, and the number it computed (a
    counterexample's Ingleton value; None elsewhere)."""

    name: str
    rows: tuple[tuple[str, bool, str], ...]
    seconds: float
    value: float | None

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.rows)

    @property
    def detail(self) -> str:
        return "; ".join(detail for _, _, detail in self.rows)

    def failures(self) -> list[str]:
        return [f"{part}: {detail}" for part, ok, detail in self.rows if not ok]


def replace(record: Record, /, **changes) -> Record:
    """A new record of the same class with some fields changed, built
    through its ``__init__``, so validation runs again."""
    return type(record)(**dict(zip(record._fields, record._key), **changes))


class BasicSet(Record):
    """Ordered, duplicate-free, non-empty collection of variable labels.

    A single variable is allowed: its structure is empty (it admits no
    elementary triplet), but its entropy and marginals are defined.
    """

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("a basic set needs at least one variable")
        if not all(isinstance(n, str) and n for n in names):
            raise ValueError("variable labels must be non-empty strings")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable labels in {quoted(names)}")
        set_field(self, "names", names)

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        """Mask with every variable present."""
        return (1 << self.size) - 1

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {quoted(name)}") from None

    def mask(self, names: int | Iterable[str] | str) -> int:
        """Mask for a collection of labels (a string is split per character
        only when every character is itself a label; otherwise it is treated
        as a single label), or an integer mask checked for range."""
        if isinstance(names, int):
            return self.check_mask(names)
        if isinstance(names, str):
            if names in self.names:
                names = [names]
            else:
                names = list(names)
        m = 0
        for n in names:
            m |= 1 << self.index(n)
        return m

    def labels(self, mask: int) -> tuple[str, ...]:
        """Labels of a mask, in base order."""
        self.check_mask(mask)
        return tuple(n for i, n in enumerate(self.names) if mask >> i & 1)

    def label_string(self, mask: int) -> str:
        """Concatenated labels of a mask (empty string for the empty set)."""
        return "".join(self.labels(mask))

    def subset_keys(self) -> dict[str, int]:
        """Each subset's concatenated labels, mapped to its mask in ascending
        order; ValueError when two subsets concatenate to the same key."""
        keys: dict[str, int] = {}
        for m in self.subsets():
            key = self.label_string(m)
            if key in keys:
                raise ValueError(f"subsets of {quoted(self.names)} share the key {quoted(key)}")
            keys[key] = m
        return keys

    def check_mask(self, mask: int) -> int:
        if not 0 <= mask < 1 << len(self.names):
            raise ValueError(f"mask {mask:#x} out of range for {self.size} variables")
        return mask

    def subsets(self) -> Iterator[int]:
        """All subset masks, ascending (the empty set first)."""
        return iter(range(1 << self.size))

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"BasicSet({', '.join(self.names)})"


# The file loaders accept at most this many variables: a structure over n
# variables has C(n,2) * 2**(n-2) elementary triplets (11,520 at n = 10), and
# inducing one tests each of them.
MAX_VARIABLES = 10


# An error message quotes at most this many characters of an input value.
MAX_QUOTED = 60


def quoted(value) -> str:
    """The repr of an input value for an error message, cut to MAX_QUOTED
    characters."""
    text = repr(value)
    return text if len(text) <= MAX_QUOTED else text[: MAX_QUOTED - 3] + "..."


def check_variable_count(variables: list) -> None:
    """Reject a loaded variable list longer than MAX_VARIABLES."""
    if len(variables) > MAX_VARIABLES:
        raise ValueError(f"at most {MAX_VARIABLES} variables are supported, got {len(variables)}")


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """All submasks of a mask (including 0 and the mask itself)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def pairwise_disjoint(*masks: int) -> bool:
    union = 0
    for m in masks:
        if union & m:
            return False
        union |= m
    return True
