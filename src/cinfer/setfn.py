"""Set-function calculus: difference expressions, the Ingleton expression
and its four-term rewritings, polymatroid/matroid/tightness predicates, and
the CI structure induced by a rank function.

A set function assigns a value to every subset of a basic set.  Values are
either exact (int / Fraction, used for rank functions) or floats (used for
entropy functions).  The linear forms below are written once and evaluated
over either kind: an exact function is read as integer numerators over one
common denominator, cached on first use, and divided once at the end; a
float function is read as it is.  The central quantity is the difference
expression

    delta(h, X, Y, Z) = h(XZ) + h(YZ) - h(XYZ) - h(Z)

which for entropy functions is the conditional mutual information, and the
ten-term Ingleton expression ``ingleton(h, X, Y, Z, U)`` whose sign is the
subject of the conditional inequality checkers in :mod:`cinfer.inequalities`.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from numbers import Rational
from typing import Callable

from .sets import (
    BasicSet,
    Record,
    bit_indices,
    check_variable_count,
    pairwise_disjoint,
    quoted,
    set_field,
    submasks,
)
from .structures import CIStructure

Value = Fraction | int | float

# The one tolerance policy: exact set functions (ints and Fractions, used for
# rank functions) compare exactly; float ones (entropy functions) compare at
# this tolerance.
FLOAT_TOL = 1e-9


def _is_exact(v: Value) -> bool:
    return isinstance(v, Rational)


class SetFunction(Record):
    """Real-valued function on all subsets of a basic set.

    ``values[m]`` is the value at the subset with mask ``m``; the tuple has
    one entry per subset, the empty set included.
    """

    base: BasicSet
    values: tuple[Value, ...]

    def __init__(self, base: BasicSet, values: tuple[Value, ...]):
        if len(values) != 1 << base.size:
            raise ValueError(f"need {1 << base.size} values, got {len(values)}")
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ValueError("set-function values must be finite")
        set_field(self, "base", base)
        set_field(self, "values", values)

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(v) for v in self.values)

    def __call__(self, mask: int) -> Value:
        self.base.check_mask(mask)
        return self.values[mask]

    @cached_property
    def _linear_values(self) -> tuple[tuple, int | None]:
        """Values to evaluate a linear form on, and the denominator to divide
        its result by (None: no division).  Ints and Fractions with at least
        one Fraction become integer numerators over their least common
        denominator; other tables (all int, or with a float, a bool or
        another number type) are used as they are.  Cached outside the
        record fields, so equality, hash and repr do not see it."""
        values = self.values
        if set(map(type, values)) - {int} != {Fraction}:
            return values, None
        ratios = [v.as_integer_ratio() for v in values]
        D = math.lcm(*[d for _, d in ratios])
        return tuple([n * (D // d) for n, d in ratios]), D

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_callable(base: BasicSet, fn: Callable[[int], Value]) -> "SetFunction":
        return SetFunction(base, tuple(fn(m) for m in base.subsets()))

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON form keyed by each subset's concatenated labels; ValueError
        when two subsets concatenate to the same key."""
        vals = {}
        for key, m in self.base.subset_keys().items():
            v = self.values[m]
            vals[key] = str(Fraction(v)) if _is_exact(v) else repr(float(v))
        return {"base": list(self.base.names), "values": vals}

    @staticmethod
    def from_json_dict(data: dict) -> "SetFunction":
        if not (
            isinstance(data, dict)
            and isinstance(data.get("base"), list)
            and isinstance(data.get("values"), dict)
            and all(
                isinstance(v, (str, int, float)) and not isinstance(v, bool)
                for v in data["values"].values()
            )
        ):
            raise ValueError(
                'a set function is a JSON object whose "base" is a list and whose '
                '"values" maps subset keys to strings or numbers'
            )
        check_variable_count(data["base"])
        base = BasicSet(data["base"])
        masks = base.subset_keys()
        values: dict[int, Value] = {}
        for key, s in data["values"].items():
            if key not in masks:
                raise ValueError(f"unknown subset key {quoted(key)} over {quoted(base.names)}")
            values[masks[key]] = _parse_value(s)
        missing = [m for m in base.subsets() if m not in values]
        if missing:
            raise ValueError(f"missing value for subset mask {missing[0]:#x}")
        return SetFunction(base, tuple(values[m] for m in base.subsets()))


def _parse_value(s: str | int | float) -> Value:
    if isinstance(s, str):
        s = s.strip()
        try:
            s = Fraction(s) if ("/" in s or "." not in s and "e" not in s.lower()) else float(s)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse set-function value {quoted(s)}") from None
    return s


def upper_indicator(base: BasicSet, i: int) -> SetFunction:
    """Indicator of supersets of variable position i: 1 on S containing i."""
    if not 0 <= i < base.size:
        raise ValueError(f"variable position {i} out of range")
    return SetFunction.from_callable(
        base, lambda m: Fraction(1) if m >> i & 1 else Fraction(0)
    )


# ---------------------------------------------------------------------------
# Difference and Ingleton expressions
# ---------------------------------------------------------------------------


def delta(h: SetFunction, X: int, Y: int, Z: int) -> Value:
    """Difference expression h(XZ) + h(YZ) - h(XYZ) - h(Z).

    Defined for arbitrary (not necessarily disjoint) subsets.
    """
    for m in (X, Y, Z):
        h.base.check_mask(m)
    v, D = h._linear_values
    value = v[X | Z] + v[Y | Z] - v[X | Y | Z] - v[Z]
    return value if D is None else Fraction(value, D)


def ingleton(h: SetFunction, X: int, Y: int, Z: int, U: int) -> Value:
    """Ten-term Ingleton expression for pairwise disjoint X, Y, Z, U.

    Invariant under the swaps X <-> Y and Z <-> U; entropy functions may
    take negative values here, rank functions of linearly representable
    matroids may not.
    """
    for m in (X, Y, Z, U):
        h.base.check_mask(m)
    if not pairwise_disjoint(X, Y, Z, U):
        raise ValueError("Ingleton expression requires pairwise disjoint sets")
    v, D = h._linear_values
    value = (
        -v[X | Y]
        + v[X | Z]
        + v[X | U]
        + v[Y | Z]
        + v[Y | U]
        + v[Z | U]
        - v[Z]
        - v[U]
        - v[X | Z | U]
        - v[Y | Z | U]
    )
    return value if D is None else Fraction(value, D)


# The five four-term rewritings of the Ingleton expression.  Each term is a
# (sign, (first, second, conditioning)) pattern over the placeholders
# X, Y, Z, U; a multi-letter component means the union of those sets.  In
# every form the single negative term is the one a conditional derivation
# forces to vanish.
MASK_TERMS: dict[int, tuple[tuple[int, tuple[str, str, str]], ...]] = {
    1: ((+1, ("Z", "U", "X")), (+1, ("Z", "U", "Y")), (+1, ("X", "Y", "")), (-1, ("Z", "U", ""))),
    2: ((+1, ("Z", "U", "Y")), (+1, ("X", "Z", "U")), (+1, ("X", "Y", "")), (-1, ("X", "Z", ""))),
    3: ((+1, ("X", "Y", "Z")), (+1, ("X", "Z", "U")), (+1, ("Z", "U", "Y")), (-1, ("X", "Z", "Y"))),
    4: ((+1, ("X", "Y", "Z")), (+1, ("X", "Y", "U")), (+1, ("Z", "U", "XY")), (-1, ("X", "Y", "ZU"))),
    5: ((+1, ("X", "Y", "Z")), (+1, ("X", "Z", "U")), (+1, ("Z", "U", "XY")), (-1, ("X", "Z", "YU"))),
}


def substitute_pattern(
    pattern: tuple[str, str, str], X: int, Y: int, Z: int, U: int
) -> tuple[int, int, int]:
    """Replace placeholder letters by masks, uniting multi-letter components."""
    assignment = {"X": X, "Y": Y, "Z": Z, "U": U}

    def part(letters: str) -> int:
        m = 0
        for ch in letters:
            m |= assignment[ch]
        return m

    return part(pattern[0]), part(pattern[1]), part(pattern[2])


# Bounded: callers choose the masks.
@lru_cache(maxsize=4096)
def _compiled_mask_form(
    k: int, X: int, Y: int, Z: int, U: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rewriting k at X, Y, Z, U as the masks whose values it adds and
    subtracts once its sixteen terms cancel.  The terms cancel over the
    placeholder sets (bit 0 for X .. bit 3 for U), which are mapped to
    masks afterwards."""
    coefficient: Counter = Counter()
    for sign, pattern in MASK_TERMS[k]:
        a, b, c = substitute_pattern(pattern, 1, 2, 4, 8)
        for m, s in ((a | c, sign), (b | c, sign), (a | b | c, -sign), (c, -sign)):
            coefficient[m] += s
    unions = [0]
    for m in (X, Y, Z, U):
        unions += [w | m for w in unions]
    return (
        tuple(unions[t] for t in coefficient.elements()),
        tuple(unions[t] for t in (-coefficient).elements()),
    )


def mask_form(h: SetFunction, k: int, X: int, Y: int, Z: int, U: int) -> Value:
    """Evaluate rewriting k (1..5) of the Ingleton expression, a signed sum of
    four difference expressions.  Each is linear in the values of h, so the
    sum is compiled once per rewriting and masks into values added and
    subtracted.  Equals :func:`ingleton` on exact set functions; on float
    ones it adds the values in another order, so it agrees up to rounding."""
    if k not in MASK_TERMS:
        raise ValueError(f"mask form index must be 1..5, got {k}")
    for m in (X, Y, Z, U):
        h.base.check_mask(m)
    if not pairwise_disjoint(X, Y, Z, U):
        raise ValueError("mask forms require pairwise disjoint sets")
    added, subtracted = _compiled_mask_form(k, X, Y, Z, U)
    v, D = h._linear_values
    value = sum(map(v.__getitem__, added)) - sum(map(v.__getitem__, subtracted))
    return value if D is None else Fraction(value, D)


# ---------------------------------------------------------------------------
# Polymatroid predicates
# ---------------------------------------------------------------------------


class CheckWitness(Record):
    """Outcome of a polymatroid check; on failure carries the first
    violating triplet of masks and the (negative) offending value."""

    ok: bool
    violating_triplet: tuple[int, int, int] | None
    value: Value


def _tol(h: SetFunction) -> Value:
    return 0 if h.is_exact else FLOAT_TOL


def is_polymatroid(h: SetFunction) -> CheckWitness:
    """Check h(empty) = 0 and non-negativity of all difference expressions.

    Only the elementary inequalities delta(i, j | K) >= 0 plus the n
    one-variable inequalities delta(i, i | N-i) >= 0 are evaluated; these
    imply the rest because a general difference expression decomposes into
    a sum of elementary ones.
    """
    eps = _tol(h)
    base = h.base
    n = base.size
    if abs(h.values[0]) > eps:
        return CheckWitness(False, (0, 0, 0), -abs(h.values[0]))
    full_mask = base.full_mask
    for i in range(n):
        si = 1 << i
        rest = full_mask & ~si
        d = h.values[full_mask] - h.values[rest]
        if d < -eps:
            return CheckWitness(False, (si, si, rest), d)
        for j in range(i + 1, n):
            sj = 1 << j
            for K in submasks(full_mask & ~si & ~sj):
                d = delta(h, si, sj, K)
                if d < -eps:
                    return CheckWitness(False, (si, sj, K), d)
    return CheckWitness(True, None, 0)


def is_matroid(h: SetFunction) -> bool:
    """Rank function of a matroid: a polymatroid, integer-valued, with
    0 <= h(I) <= |I| on every subset."""
    if not is_polymatroid(h).ok:
        return False
    eps = _tol(h)
    for m in h.base.subsets():
        v = h.values[m]
        if _is_exact(v):
            if Fraction(v).denominator != 1:
                return False
        elif abs(v - round(v)) > eps:
            return False
        if v < -eps or v > m.bit_count() + eps:
            return False
    return True


def _tight_corrections(h: SetFunction) -> list[Value]:
    full_mask = h.base.full_mask
    return [
        h.values[full_mask] - h.values[full_mask & ~(1 << i)]
        for i in range(h.base.size)
    ]


def is_tight(h: SetFunction) -> bool:
    """A polymatroid is tight when h(N) = h(N - i) for every variable i."""
    _require_polymatroid(h)
    eps = _tol(h)
    return all(abs(c) <= eps for c in _tight_corrections(h))


def tighten(h: SetFunction) -> SetFunction:
    """Tightened version: subtract delta(i, i | N-i) times the indicator of
    supersets of i, for every i.  Idempotent; the result is a tight
    polymatroid with the same difference expressions on pairs of distinct
    variables."""
    _require_polymatroid(h)
    corrections = _tight_corrections(h)
    values = list(h.values)
    for m in h.base.subsets():
        for i in bit_indices(m):
            values[m] = values[m] - corrections[i]
    return SetFunction(h.base, tuple(values))


def _require_polymatroid(h: SetFunction) -> None:
    w = is_polymatroid(h)
    if not w.ok:
        raise ValueError(
            f"not a polymatroid rank function (violation {w.violating_triplet}, value {w.value})"
        )


def induced_ci_structure_of_rank(h: SetFunction) -> CIStructure:
    """Canonical elementary triplets whose difference expression vanishes.

    On exact functions the test is exact; on float functions a triplet
    counts as independent when |delta| <= FLOAT_TOL.  The result is always
    a semi-graphoid.
    """
    _require_polymatroid(h)
    eps = _tol(h)
    return CIStructure.where(h.base, lambda X, Y, Z: abs(delta(h, X, Y, Z)) <= eps)


def rank_functions_equal_upto_scale(h: SetFunction, r: SetFunction) -> tuple[bool, float]:
    """Test h = c * r for a single constant c > 0 (c from the full set), and
    return (ok, c).  Requires r(N) > 0.  The scaled values are floats, so
    they compare at FLOAT_TOL."""
    if h.base != r.base:
        raise ValueError("set functions over different basic sets")
    full = h.base.full_mask
    if not r.values[full] > 0:
        raise ValueError("scale reference requires a positive value on the full set")
    c = float(h.values[full]) / float(r.values[full])
    if c <= 0:
        return False, c
    ok = all(
        abs(float(h.values[m]) - c * float(r.values[m])) <= FLOAT_TOL for m in h.base.subsets()
    )
    return ok, c


def ingleton_of_singletons(h: SetFunction) -> Value:
    """Ingleton expression with the four variables of a 4-element base taken
    as singletons in base order."""
    if h.base.size != 4:
        raise ValueError("singleton shorthand needs exactly 4 variables")
    return ingleton(h, 1, 2, 4, 8)
