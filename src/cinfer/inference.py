"""Rule-based CI inference over elementary triplets, and full enumeration
of the closed structures on four variables.

Twenty-seven abstract properties drive the engine: the three semi-graphoid
properties, five two-way equivalences valid for every polymatroid-induced
structure, and nineteen one-way implications valid for every structure
induced by four discrete random variables.  Rules are instantiated to
"ground rules" over a concrete basic set: the semi-graphoid exchange is
emitted in elementary form over all (i, j, k, K), while the equivalences
and implications take the four placeholders to the 4! orderings of a
four-variable base (elementary reduction makes singleton instantiation
sufficient; the brute-force scan of the test oracles confirms it).  The
nineteen implications are built from the :class:`DerivationSchema`
records of ``data/derivation_schemas.json``, which this module alone parses
and whose derivations :func:`cinfer.inequalities.verify_derivation` checks,
so each implication is stated once.

Over four variables the closed structures are listed directly instead of
being sought among the 2**24 candidates: every exchange instance touches the
triplets of two variable pairs only, so a join of per-pair blocks lists the
26,424 semi-graphoids, and filtering them bit-sliced through the remaining
rules leaves the 18,478 closed structures, which also arise as the
meet-closure of 92 irreducible members (see :mod:`cinfer.catalog`).
"""

from __future__ import annotations

import itertools
import json
import struct
from functools import lru_cache, reduce
from importlib import resources
from operator import and_, or_
from typing import Iterable, Sequence

from .sets import BasicSet, Record, bit_indices, submasks
from .structures import (
    CIStructure,
    ElementaryTriplet,
    bit_count_for,
    expand_to_elementary,
    relabelings,
    triplet_index,
)

Pattern = tuple[str, str, str]  # (first, second, conditioning) placeholder strings


class InferenceRule(Record):
    """Abstract CI property over placeholders X, Y, Z, U.

    ``premises`` and ``conclusions`` are triplet patterns; a multi-letter
    component denotes a union.  Bidirectional rules assert an equivalence
    of the two pattern lists.
    """

    id: str
    premises: tuple[Pattern, ...]
    conclusions: tuple[Pattern, ...]
    bidirectional: bool


# The rule table.  S1 is built into triplet canonicalization and S0 has no
# elementary content, so neither produces ground instances; S2 is grounded
# separately in elementary exchange form.  I1-I19 are built from their
# derivation records, below.
RULES: dict[str, InferenceRule] = {
    "S0": InferenceRule("S0", (), (("", "Y", "Z"),), False),
    "S1": InferenceRule("S1", (("X", "Y", "Z"),), (("Y", "X", "Z"),), True),
    "S2": InferenceRule(
        "S2", (("X", "YZ", "U"),), (("X", "Y", "ZU"), ("X", "Z", "U")), True
    ),
    "E1": InferenceRule(
        "E1",
        (("X", "Y", "Z"), ("X", "Z", "U"), ("X", "U", "Y")),
        (("X", "Y", "U"), ("X", "Z", "Y"), ("X", "U", "Z")),
        True,
    ),
    "E2": InferenceRule(
        "E2",
        (("X", "Y", "Z"), ("X", "U", "Y"), ("Y", "Z", "U"), ("Z", "U", "X")),
        (("X", "Y", "U"), ("X", "U", "Z"), ("Y", "Z", "X"), ("Z", "U", "Y")),
        True,
    ),
    "E3": InferenceRule(
        "E3",
        (("X", "Y", "ZU"), ("X", "Z", ""), ("Y", "U", ""), ("Z", "U", "XY")),
        (("X", "Y", ""), ("X", "Z", "YU"), ("Y", "U", "XZ"), ("Z", "U", "")),
        True,
    ),
    "E4": InferenceRule(
        "E4",
        (("X", "Y", ""), ("X", "Y", "ZU"), ("Z", "U", "X"), ("Z", "U", "Y")),
        (("X", "Y", "Z"), ("X", "Y", "U"), ("Z", "U", ""), ("Z", "U", "XY")),
        True,
    ),
    "E5": InferenceRule(
        "E5",
        (("X", "Y", "ZU"), ("X", "U", "Y"), ("Y", "Z", ""), ("Z", "U", "X")),
        (("X", "Y", "U"), ("X", "U", "YZ"), ("Y", "Z", "X"), ("Z", "U", "")),
        True,
    ),
}


class DerivationSchema(Record):
    """Record of one implication's derivation: rule (possibly swapped),
    rewriting index, the four vanishing premise terms, the two of them
    instantiating the rule, the forced conclusion, and an optional
    strengthening identity delta(conclusion) + delta(addend) = delta(result)."""

    target: str
    rule: int
    swapped: bool
    mask: int
    premises: tuple[Pattern, ...]
    rule_premises: tuple[Pattern, Pattern]
    conclusion: Pattern
    extension: tuple[Pattern, Pattern] | None  # (addend, result)

    @property
    def result(self) -> Pattern:
        """What the four premises force: the strengthened result where the
        record has one, else the conclusion."""
        return self.extension[1] if self.extension else self.conclusion


def _pattern(raw) -> Pattern:
    first, second, cond = raw
    return (str(first), str(second), str(cond))


@lru_cache(maxsize=None)
def _schemas() -> tuple[DerivationSchema, ...]:
    """The records of ``data/derivation_schemas.json``, read once per process."""
    ref = resources.files("cinfer") / "data" / "derivation_schemas.json"
    out = []
    for rec in json.loads(ref.read_text())["schemas"]:
        ext = rec.get("extension")
        out.append(DerivationSchema(
            rec["id"], int(rec["rule"]), bool(rec["swapped"]), int(rec["mask"]),
            tuple(map(_pattern, rec["premises"])), tuple(map(_pattern, rec["rule_premises"])),
            _pattern(rec["conclusion"]),
            (_pattern(ext["addend"]), _pattern(ext["result"])) if ext else None,
        ))
    return tuple(out)


def load_derivation_schemas() -> list[DerivationSchema]:
    """The nineteen derivation records, I1 to I19."""
    return list(_schemas())


RULES.update(
    (s.target, InferenceRule(s.target, s.premises, (s.result,), False)) for s in _schemas()
)

RULESETS = ("sg", "all")


class GroundRule(Record):
    """One instance of a rule over concrete variables, as triplet bitsets."""

    premise_bits: int
    conclusion_bits: int


def _pattern_bits(patterns: Sequence[Pattern]) -> int:
    """Triplet bits of the patterns at X, Y, Z, U = x, y, z, u."""
    idx = triplet_index(4)
    bits = 0
    for pattern in patterns:
        masks = (sum(1 << "XYZU".index(ch) for ch in part) for part in pattern)
        for t in expand_to_elementary(*masks):
            bits |= 1 << idx[t]
    return bits


def _exchange_instances(n: int) -> list[tuple[int, int]]:
    """Semi-graphoid exchange {(i,j|kK), (i,k|K)} => {(i,j|K), (i,k|jK)} for
    all ordered (i, j, k) and K; the converse is the (i, k, j) instance."""
    idx = triplet_index(n)
    full = (1 << n) - 1
    out = []
    for i, j, k in itertools.permutations(range(n), 3):
        if j > k:
            continue  # the (i,k,j) instance is the reverse direction, emitted below
        for K in submasks(full & ~(1 << i) & ~(1 << j) & ~(1 << k)):
            a = 1 << idx[ElementaryTriplet.canonical(i, j, K | 1 << k)]
            b = 1 << idx[ElementaryTriplet.canonical(i, k, K)]
            c = 1 << idx[ElementaryTriplet.canonical(i, j, K)]
            d = 1 << idx[ElementaryTriplet.canonical(i, k, K | 1 << j)]
            out += [(a | b, c | d), (c | d, a | b)]
    return out


# Ground rules and closures grow with the C(n,2) * 2**(n-2) triplets: the
# exchange closure of one triplet takes about 0.1 s and 23 MB at n = 8, and
# 2.7 s and 326 MB at n = 10.
MAX_RULE_ENGINE_VARIABLES = 8


@lru_cache(maxsize=None)
def _ground_rules_cached(n: int, ruleset: str) -> tuple[GroundRule, ...]:
    """Exchange instances, plus for ``"all"`` each equivalence and
    implication under the 24 assignments of X, Y, Z, U to the variables:
    grounded once at x, y, z, u and moved through :func:`relabelings`,
    since relabeling commutes with :func:`expand_to_elementary`."""
    if ruleset not in RULESETS:
        raise ValueError(f"ruleset must be one of {RULESETS}")
    if n > MAX_RULE_ENGINE_VARIABLES:
        limit = MAX_RULE_ENGINE_VARIABLES
        raise ValueError(f"rule closures cover at most {limit} variables, got {n}")
    rules = _exchange_instances(n)
    if ruleset == "all":
        if n != 4:
            raise ValueError(
                "equivalence/implication ground rules are only available over 4 variables"
            )
        for rule in RULES.values():
            if rule.id in ("S0", "S1", "S2"):
                continue
            pre, con = _pattern_bits(rule.premises), _pattern_bits(rule.conclusions)
            for p, c in zip(relabelings(pre, 4), relabelings(con, 4)):
                rules += [(p, c), (c, p)] if rule.bidirectional else [(p, c)]
    # drop no-op instances, dedup, freeze order
    pairs = {(p, c) for p, c in rules if c & ~p}
    return tuple(GroundRule(p, c) for p, c in sorted(pairs))


def ground_rules(base: BasicSet, ruleset: str) -> tuple[GroundRule, ...]:
    """All ground instances over the base, duplicates and no-ops removed.

    ``ruleset="sg"`` emits only the semi-graphoid exchange (any base size);
    ``"all"`` adds the equivalence and implication instances and requires
    exactly four variables.
    """
    return _ground_rules_cached(base.size, ruleset)


@lru_cache(maxsize=None)
class _Engine:
    """Ground rules of one (size, ruleset) pair and, per triplet bit ``b``,
    the bitset ``blocking[b]`` of the rules that have ``b`` among their premises."""

    def __init__(self, n: int, ruleset: str):
        self.rules = _ground_rules_cached(n, ruleset)
        self.conclusions = tuple(r.conclusion_bits for r in self.rules)
        blocking = [0] * bit_count_for(n)
        for ri, r in enumerate(self.rules):
            for b in bit_indices(r.premise_bits):
                blocking[b] |= 1 << ri
        self.blocking = tuple(blocking)
        self.triplet_mask = (1 << len(blocking)) - 1
        self.rule_mask = (1 << len(self.rules)) - 1


def closure_bits(bits: int, n: int, ruleset: str) -> int:
    """Least superset of a triplet bitset closed under every ground rule.

    Round by round: the rules ready to fire are those blocked by no missing
    bit and not fired yet; a round adds all their conclusions at once, until
    no rule is ready or the set stops growing.  Both scans take the highest
    set bit of an integer until none is left.
    """
    engine = _Engine(n, ruleset)
    blocking, conclusions = engine.blocking, engine.conclusions
    s, fired = bits, 0
    while True:
        blocked, missing = fired, engine.triplet_mask & ~s
        while missing:
            b = missing.bit_length() - 1
            blocked |= blocking[b]
            missing ^= 1 << b
        ready = engine.rule_mask & ~blocked
        if not ready:
            return s
        fired |= ready
        grown = s
        while ready:
            r = ready.bit_length() - 1
            grown |= conclusions[r]
            ready ^= 1 << r
        if grown == s:
            return s
        s = grown


def closure(s: CIStructure) -> CIStructure:
    """CI closure of a structure: the least superset closed under the rules.

    Extensive, monotone and idempotent.  Uses all 27 properties on a
    four-variable base and the semi-graphoid rules otherwise.
    """
    ruleset = "all" if s.base.size == 4 else "sg"
    return CIStructure(s.base, closure_bits(s.bits, s.base.size, ruleset))


def is_closed(s: CIStructure) -> bool:
    """True when every ground rule with satisfied premises has its
    conclusions inside the structure: the closure adds nothing."""
    return closure(s) == s


# ---------------------------------------------------------------------------
# Enumeration of the closed structures on four variables
# ---------------------------------------------------------------------------


def _block_join(n: int, ruleset: str) -> list[int]:
    """Every closed structure of the ruleset, each once, in no particular
    order.  The triplet bits form one block of ``2**(n-2)`` bits per variable
    pair (bit order is pair-major), and an exchange instance touches only the
    blocks of {i,j} and {i,k}.  Each block keeps the states that pass the
    rules inside it, each pair of blocks gets a table from a state of the
    earlier block to the fitting states of the later one, and structures grow
    block by block through the tables of the blocks already set.  ValueError
    when a rule touches more than two blocks."""
    width = 1 << (n - 2)
    states = range(1 << width)
    block = states[-1]  # the bits of one block's state
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for r in _ground_rules_cached(n, ruleset):
        blocks = {b // width for b in bit_indices(r.premise_bits | r.conclusion_bits)}
        if len(blocks) > 2:
            raise ValueError(f"the {ruleset!r} rules touch more than two variable pairs at once")
        groups.setdefault(tuple(sorted(blocks)), []).append((r.premise_bits, r.conclusion_bits))

    def fitting(group: list[tuple[int, int]], s: int, shift: int) -> int:
        # bit y is set when s | y << shift is closed under the group
        fits = 0
        for y in states:
            t = s | y << shift
            if all(p & ~t or c & t == c for p, c in group):
                fits |= 1 << y
        return fits
    found = [0]
    for b in range(bit_count_for(n) // width):
        shift = b * width
        own = fitting(groups.get((b,), []), 0, shift)
        tables = [
            (a * width, [fitting(groups[a, b], x << a * width, shift) for x in states])
            for a in range(b) if (a, b) in groups
        ]
        # the shifted states of each fitting mask, listed once per mask
        choices: dict[int, list[int]] = {}
        grown: list[int] = []
        for s in found:
            fits = own
            for at, table in tables:
                fits &= table[s >> at & block]
            if fits not in choices:
                choices[fits] = [y << shift for y in bit_indices(fits)]
            grown += map(s.__or__, choices[fits])
        found = grown
    return found


@lru_cache(maxsize=None)
def _semigraphoids() -> tuple[int, ...]:
    return tuple(sorted(_block_join(4, "sg")))


# Members per chunk of the bit-sliced filter; it bounds the transient packed
# integer, column string and planes (about 0.1 MB at 2,048).
_CHUNK = 2048


@lru_cache(maxsize=None)
def _ci_structures() -> tuple[int, ...]:
    # Every CI structure is a semi-graphoid, so only the rules of "all" that
    # are not exchange rules are tested, on the family bit-sliced in chunks:
    # reading plane t of a chunk in binary from the left gives triplet bit t
    # of each member in order.  A member breaks rule (p, c) when it holds
    # every premise bit and misses a conclusion bit outside p, so the
    # members that break it are the AND of the premise planes with the OR
    # of the complemented conclusion planes.
    exchange = set(_ground_rules_cached(4, "sg"))
    rules = []
    for r in _ground_rules_cached(4, "all"):
        if r not in exchange:
            p = r.premise_bits
            rules.append((tuple(bit_indices(p)), tuple(bit_indices(r.conclusion_bits & ~p))))
    family = _semigraphoids()

    def closed_members(chunk: tuple[int, ...]) -> Iterable[int]:
        # the members as 32-bit lanes of one integer, the first on the left
        packed = int.from_bytes(struct.pack(f">{len(chunk)}I", *chunk), "big")
        columns = f"{packed:0{32 * len(chunk)}b}"
        ones = (1 << len(chunk)) - 1
        planes = [int(columns[31 - t :: 32], 2) for t in range(bit_count_for(4))]
        missing = [ones ^ plane for plane in planes]
        broken = 0
        for premise, conclusion in rules:
            broken |= reduce(and_, map(planes.__getitem__, premise)) & reduce(
                or_, map(missing.__getitem__, conclusion)
            )
        return itertools.compress(chunk, map("1".__eq__, f"{ones & ~broken:0{len(chunk)}b}"))

    chunks = (family[start : start + _CHUNK] for start in range(0, len(family), _CHUNK))
    return tuple(itertools.chain.from_iterable(map(closed_members, chunks)))


# The public families are plain functions over the cached helpers: callers
# and call tracers see ordinary functions, and the CI family reads the cached
# semi-graphoid family instead of calling semigraphoid_family again.


def semigraphoid_family() -> tuple[int, ...]:
    """Sorted bitmasks of all semi-graphoids over four variables, enumerated
    once per process."""
    return _semigraphoids()


def ci_structure_family() -> tuple[int, ...]:
    """Sorted bitmasks of all structures closed under the full rule set,
    computed once per process from the semi-graphoid family."""
    return _ci_structures()


def dump_family(path: str, family: Iterable[int], base: BasicSet, human: bool) -> None:
    """Write one structure per line as a 6-hex-digit bitmask; with
    ``human`` true append the triplet list over the base."""
    with open(path, "w") as f:
        for bits in family:
            if human:
                f.write(f"{bits:06x}  {CIStructure(base, bits).render()}\n")
            else:
                f.write(f"{bits:06x}\n")


# ---------------------------------------------------------------------------
# Meet-closure and permutation orbits
# ---------------------------------------------------------------------------


def meet_closure_bits(seed_bits: Iterable[int]) -> set[int]:
    """Least intersection-closed family of four-variable triplet bitsets
    containing the seeds and the full structure.  It is the set of meets of
    all subsets of the seeds (the empty subset giving the full structure), so
    each distinct seed ``s`` in turn adds the meet with ``s`` of every member
    so far."""
    family = {(1 << bit_count_for(4)) - 1}
    for s in {int(b) for b in seed_bits}:
        for w in tuple(family):
            family.add(w & s)
    return family


def orbit(s: CIStructure) -> list[CIStructure]:
    """Distinct images of a structure under all permutations of its
    variables, sorted by bitmask."""
    return [CIStructure(s.base, b) for b in sorted(orbit_bits(s.bits, s.base.size))]


def orbit_bits(bits: int, n: int = 4) -> set[int]:
    """Distinct images of a triplet bitmask under all permutations of the
    n variables."""
    return set(relabelings(bits, n))
