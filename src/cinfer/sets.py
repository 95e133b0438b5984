"""Basic sets of variable labels and integer subset masks.

A basic set is an ordered collection of distinct variable labels.  Subsets
of it are represented throughout the library as integer bitmasks: bit ``i``
of a mask corresponds to position ``i`` in the label order.  All set
algebra on masks is plain integer arithmetic (``|``, ``&``, ``~`` against
the full mask).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class BasicSet:
    """Ordered, duplicate-free collection of variable labels.

    At least two variables are required; a single variable admits no
    non-trivial independence statement.
    """

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(names) < 2:
            raise ValueError("a basic set needs at least 2 variables")
        object.__setattr__(self, "names", checked_labels(names))

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
            raise KeyError(f"unknown variable {name!r}") from None

    def mask(self, names: Iterable[str] | str) -> int:
        """Mask for a collection of labels (a string is split per character
        only when every character is itself a label; otherwise it is treated
        as a single label)."""
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

    def parse_label_string(self, s: str) -> int:
        """Inverse of :meth:`label_string`; greedy longest-label matching."""
        by_len = sorted(self.names, key=len, reverse=True)
        mask, i = 0, 0
        while i < len(s):
            for n in by_len:
                if s.startswith(n, i):
                    bit = 1 << self.index(n)
                    if mask & bit:
                        raise ValueError(f"label {n!r} repeated in {s!r}")
                    mask |= bit
                    i += len(n)
                    break
            else:
                raise ValueError(f"cannot parse subset key {s!r} over {self.names}")
        return mask

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


def check_variable_count(variables: list) -> None:
    """Reject a loaded variable list longer than MAX_VARIABLES."""
    if len(variables) > MAX_VARIABLES:
        raise ValueError(f"at most {MAX_VARIABLES} variables are supported, got {len(variables)}")


def checked_labels(names: tuple) -> tuple[str, ...]:
    """The labels, once checked to be distinct non-empty strings."""
    if not all(isinstance(n, str) and n for n in names):
        raise ValueError("variable labels must be non-empty strings")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable labels in {names!r}")
    return names


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
