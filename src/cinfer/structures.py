"""Elementary conditional-independence triplets and CI structures.

An elementary triplet (i, j | K) pairs two distinct variables with a
conditioning set disjoint from both; (j, i | K) is identified with it, so
triplets are stored with ``i < j`` in base order.  Over ``n`` variables
there are ``C(n,2) * 2**(n-2)`` canonical triplets (24 for n = 4), each with
a frozen bit position: triplets sorted lexicographically by (i, j,
K-as-integer).

A CI structure is a set of such triplets over a fixed basic set, stored as
one integer whose bit ``b`` marks the triplet at position ``b``; set algebra
on structures is integer arithmetic, and triplet objects are made only when
a structure is iterated (bit order equals sorted order).  A permutation of
the variables moves each set bit to the bit of its image triplet; over four
variables, :func:`relabelings` moves a bitmask under all 24 permutations at
once, one OR of packed :func:`image_words` per set bit (orbits and the
relabeled ground rules).

The rule tables, rewritings and derivation records write statements as
patterns over the placeholders X, Y, Z, U; :func:`substitute_pattern` is
the one reader of those letters.
"""

from __future__ import annotations

import itertools
import struct
from functools import lru_cache, total_ordering
from typing import Callable, Iterable, Iterator

from .sets import (
    BasicSet,
    Record,
    bit_indices,
    check_variable_count,
    pairwise_disjoint,
    set_field,
    submasks,
)


@total_ordering
class ElementaryTriplet(Record):
    """Canonical elementary CI statement (i, j | K) with i < j.

    ``i`` and ``j`` are variable positions, ``K`` a conditioning mask
    disjoint from both.  Triplets are ordered by (i, j, K).
    """

    i: int
    j: int
    K: int

    def __init__(self, i: int, j: int, K: int):
        if i == j:
            raise ValueError("elementary triplet needs two distinct variables")
        if i > j:
            raise ValueError("triplet not canonical: require i < j")
        if K & (1 << i | 1 << j):
            raise ValueError("conditioning set must avoid both variables")
        set_field(self, "i", i)
        set_field(self, "j", j)
        set_field(self, "K", K)

    def __lt__(self, other):
        return self._key < other._key if other.__class__ is self.__class__ else NotImplemented

    @staticmethod
    def canonical(i: int, j: int, K: int) -> "ElementaryTriplet":
        """Build a triplet from an unordered pair, normalizing (j,i|K) to (i,j|K)."""
        if i > j:
            i, j = j, i
        return ElementaryTriplet(i, j, K)

    def permuted(self, perm: tuple[int, ...]) -> "ElementaryTriplet":
        """Image under a relabeling of variable positions."""
        K = 0
        for b in bit_indices(self.K):
            K |= 1 << perm[b]
        return ElementaryTriplet.canonical(perm[self.i], perm[self.j], K)

    def render(self, base: BasicSet) -> str:
        """``(i,j|K)`` in the base's labels; the ValueError of
        ``base.subset_keys()`` when two conditioning sets would print alike."""
        return f"({base.names[self.i]},{base.names[self.j]}|{_subset_labels(base)[self.K]})"


# Bounded: callers choose the bases.  A ten-variable base's labels take about
# 64 kB, so a full cache holds about 8 MB.
@lru_cache(maxsize=128)
def _subset_labels(base: BasicSet) -> tuple[str, ...]:
    """Each subset's concatenated labels, indexed by its mask: the keys of
    ``base.subset_keys()``, checked once per base."""
    return tuple(base.subset_keys())


@lru_cache(maxsize=None)
def canonical_triplets(n: int) -> tuple[ElementaryTriplet, ...]:
    """All canonical triplets over n variables in frozen bit order."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            others = ((1 << n) - 1) & ~(1 << i) & ~(1 << j)
            for K in sorted(submasks(others)):
                out.append(ElementaryTriplet(i, j, K))
    return tuple(out)


@lru_cache(maxsize=None)
def triplet_index(n: int) -> dict[ElementaryTriplet, int]:
    return {t: b for b, t in enumerate(canonical_triplets(n))}


def bit_count_for(n: int) -> int:
    return len(canonical_triplets(n))


def expand_to_elementary(X: int, Y: int, Z: int) -> frozenset[ElementaryTriplet]:
    """Elementary content of a compound statement over disjoint masks.

    Returns { (i, j | K) : i in X, j in Y, Z <= K <= (X|Y|Z) minus {i,j} }.
    Empty X or Y yields the empty set (the statement carries no content).
    """
    if not pairwise_disjoint(X, Y, Z):
        raise ValueError("expansion requires pairwise disjoint sets")
    out = set()
    union = X | Y | Z
    for i in bit_indices(X):
        for j in bit_indices(Y):
            free = union & ~(1 << i) & ~(1 << j) & ~Z
            for extra in submasks(free):
                out.add(ElementaryTriplet.canonical(i, j, Z | extra))
    return frozenset(out)


Pattern = tuple[str, str, str]  # (first, second, conditioning) placeholder strings


def substitute_pattern(pattern: Pattern, X: int, Y: int, Z: int, U: int) -> tuple[int, int, int]:
    """Replace the placeholder letters X, Y, Z, U of a pattern by masks,
    uniting the masks of a multi-letter component."""
    assignment = {"X": X, "Y": Y, "Z": Z, "U": U}

    def part(letters: str) -> int:
        m = 0
        for ch in letters:
            m |= assignment[ch]
        return m

    return part(pattern[0]), part(pattern[1]), part(pattern[2])


@lru_cache(maxsize=None)
def image_words() -> tuple[tuple[int, ...], struct.Struct]:
    """Word b holds the image of four-variable triplet bit b under each of
    the 24 permutations of x, y, z, u, a 3-byte lane per permutation in
    :func:`itertools.permutations` order; the struct splits a word into its
    lanes.  Built on first use."""
    table, idx = canonical_triplets(4), triplet_index(4)
    perms = list(itertools.permutations(range(4)))
    words = []
    for t in table:
        word = bytearray(3 * len(perms))  # big-endian, lane 0 first
        for end, perm in enumerate(perms, 1):
            image = idx[t.permuted(perm)]
            word[end * 3 - 1 - image // 8] |= 1 << image % 8
        words.append(int.from_bytes(word, "big"))
    return tuple(words), struct.Struct(">" + "3s" * len(perms))


def relabelings(bits: int) -> Iterator[int]:
    """Images of a four-variable triplet bitmask under every permutation of
    the variables, in :func:`image_words` lane order: the OR of the words of
    its set bits, read lane by lane."""
    words, unpacker = image_words()
    packed = 0
    for b in bit_indices(bits):
        packed |= words[b]
    lanes = unpacker.unpack(packed.to_bytes(unpacker.size, "big"))
    return map(int.from_bytes, lanes, itertools.repeat("big"))


class CIStructure(Record):
    """Set of canonical elementary triplets over a basic set, stored as the
    bitmask of their frozen bit positions."""

    base: BasicSet
    bits: int

    def __init__(self, base: BasicSet, bits: int):
        if not 0 <= bits < 1 << bit_count_for(base.size):
            raise ValueError("bitmask has bits beyond the triplet table")
        set_field(self, "base", base)
        set_field(self, "bits", bits)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def where(base: BasicSet, holds: Callable[[int, int, int], bool]) -> "CIStructure":
        """The canonical triplets (i, j | K) over the base for which
        ``holds(1 << i, 1 << j, K)`` is true."""
        bits = 0
        for b, t in enumerate(canonical_triplets(base.size)):
            if holds(1 << t.i, 1 << t.j, t.K):
                bits |= 1 << b
        return CIStructure(base, bits)

    @staticmethod
    def from_statements(
        base: BasicSet, statements: Iterable[tuple[str, str, Iterable[str]]]
    ) -> "CIStructure":
        """Build from (i-label, j-label, K-labels) statements."""
        idx = triplet_index(base.size)
        bits = 0
        for i, j, K in statements:
            t = ElementaryTriplet.canonical(base.index(i), base.index(j), base.mask(K))
            bits |= 1 << idx[t]
        return CIStructure(base, bits)

    # -- set algebra ---------------------------------------------------------

    def to_bits(self) -> int:
        return self.bits

    @property
    def members(self) -> frozenset[ElementaryTriplet]:
        return frozenset(self)

    def __contains__(self, t: ElementaryTriplet) -> bool:
        b = triplet_index(self.base.size).get(t)
        return b is not None and self.bits >> b & 1 == 1

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[ElementaryTriplet]:
        """Members in bit order, which is their sorted order."""
        table = canonical_triplets(self.base.size)
        return (table[b] for b in bit_indices(self.bits))

    def _other_bits(self, other: "CIStructure") -> int:
        """The other structure's bits, once its base is checked to be ours."""
        if self.base != other.base:
            raise ValueError("CI structures over different basic sets")
        return other.bits

    def __and__(self, other: "CIStructure") -> "CIStructure":
        return CIStructure(self.base, self.bits & self._other_bits(other))

    def __or__(self, other: "CIStructure") -> "CIStructure":
        return CIStructure(self.base, self.bits | self._other_bits(other))

    # -- rendering and serialization ----------------------------------------

    def to_hex(self) -> str:
        width = (bit_count_for(self.base.size) + 3) // 4
        return format(self.bits, f"0{width}x")

    def render(self) -> str:
        """The members' renderings, or ``(empty)``; the ValueError of
        ``base.subset_keys()`` when two conditioning sets would print alike."""
        _subset_labels(self.base)
        if not self.bits:
            return "(empty)"
        return " ".join(t.render(self.base) for t in self)

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.base.names),
            "statements": [
                {
                    "i": self.base.names[t.i],
                    "j": self.base.names[t.j],
                    "K": list(self.base.labels(t.K)),
                }
                for t in self
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "CIStructure":
        if not (
            isinstance(data, dict)
            and isinstance(data.get("variables"), list)
            and isinstance(data.get("statements"), list)
            and all(
                isinstance(s, dict)
                and isinstance(s.get("i"), str)
                and isinstance(s.get("j"), str)
                and isinstance(s.get("K", []), (list, str))
                for s in data["statements"]
            )
        ):
            raise ValueError(
                'a CI structure is a JSON object whose "variables" is a list and '
                'whose "statements" is a list of objects with string "i" and "j" '
                'and a "K" that is a list or string of labels, or absent'
            )
        check_variable_count(data["variables"])
        base = BasicSet(data["variables"])
        stmts = [(s["i"], s["j"], s.get("K", [])) for s in data["statements"]]
        return CIStructure.from_statements(base, stmts)
