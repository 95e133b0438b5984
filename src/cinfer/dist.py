"""Exact discrete probability distributions over named variables.

A density is held as positive integer weights on its support over one
common denominator D (probability w / D), reduced so that equal
distributions store equal weights.  Marginals, the factorization test
behind the independence relation, conditional products of consonant
distributions and lattice products (whose induced CI structure is the
intersection of the factors' structures) are integer arithmetic; fractions
appear only at the boundary (input densities, ``prob``, ``items``,
``marginal_density``, JSON), decoded from the integer rows on each read and
never kept.  Entropy functions and Kullback-Leibler
divergence are the only float outputs.  The module also builds the
intersection variable of double-Markov pairs.

Each configuration is one integer code: variable k's value sits in a field
of ``(card_k - 1).bit_length()`` bits, variable 0 in the most significant
one, so integer order is configuration order.  Each distribution caches its
integer marginals by variable mask; a marginal keeps the parent's layout,
its keys being ``code & fields[mask]``, so summing and the factorization
test are AND masks.  Entropy and the induced structure fill all 2**n
marginals top-down, each summed from the mask one variable up, for at most
MAX_MARGINAL_FILL entries in all; a one-off marginal comes from the smallest
cached superset.  A lattice product keeps its factors' rows in its own
layout and keeps its own rows only once a computation reads them; a
boundary read pairs them for that read alone.  Each of its
marginal weights at a code a + b is the product of its factors' at a and
at b, so its structure is tested on their transient fills, pair by pair,
and, since it pairs them independently, its entropy function is the sum of
theirs, H_L(A) = H_Q(A) + H_R(A).  Codes are repacked only where a new
sample space is made, and decoded to tuples only at the boundary.  The
space derived from a source space at a variable order, and the layout of
a conditional product of two spaces, are built once per key and cached;
a reorder to a distribution's own order returns the distribution.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Iterable, Mapping, Sequence

from .sets import BasicSet, Record, check_variable_count, quoted, set_field
from .setfn import SetFunction
from .structures import CIStructure

MaskLike = int | str | Iterable[str]

# Input bound: Fraction builds 10**e for a decimal exponent e, so a JSON
# "prob" literal may carry one within +-MAX_EXPONENT only, and the common
# denominator of an input density is at most 10**MAX_EXPONENT.
MAX_EXPONENT = 100
_MAX_DENOMINATOR = 10**MAX_EXPONENT
_EXPONENT = re.compile(r"e[-+]?([\d_]*)", re.IGNORECASE)

# Entropy and the induced structure fill all 2**n marginals, each of at most
# min(rows, product of its cardinalities) entries of about 120 bytes; at this
# bound that peaks near 75 MB (512 rows over ten variables, no two rows
# sharing a marginal code).  A distribution caches its fill.  A lattice
# product fills each factor's rows instead, under the same bound, and frees
# the fill once its structure is tested or its entropy summed; what it
# builds is those fills plus, once read, its own rows.  A conditional or
# lattice product holds at most this many rows.
MAX_MARGINAL_FILL = 2**19


class SampleSpace(BasicSet):
    """A basic set whose variables carry finite sample-space sizes."""

    cardinalities: tuple[int, ...]

    def __init__(self, names: Iterable[str], cardinalities: Iterable[int]):
        super().__init__(names)
        cards = tuple(cardinalities)
        if len(cards) != len(self.names):
            raise ValueError("one cardinality per variable required")
        if any(type(c) is not int or c < 1 for c in cards):
            raise ValueError(f"cardinalities must be positive integers, got {quoted(cards)}")
        set_field(self, "cardinalities", cards)

    __repr__ = Record.__repr__

    def base_set(self) -> BasicSet:
        return BasicSet(self.names)


def _is_int(value) -> bool:
    """A JSON integer; JSON's true and false are Python ints but not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _probability(value) -> Fraction:
    """A JSON "prob" value: an integer, "a/b", or a decimal whose exponent
    is checked against MAX_EXPONENT before any Fraction is built."""
    text = str(value)
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > 3 or int(digits or 0) > MAX_EXPONENT:
            raise ValueError(
                f"probability {quoted(text)} has a decimal exponent beyond +-{MAX_EXPONENT}"
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid probability {quoted(value)}") from None


# Bounded: callers choose the cardinalities.
@lru_cache(maxsize=4096)
def _layout(cards: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The (shift, value mask) of each variable's field, and the fields of
    every variable mask."""
    parts, shift, fields = [], 0, [0]
    for c in reversed(cards):
        parts.insert(0, (shift, (1 << (c - 1).bit_length()) - 1))
        shift += (c - 1).bit_length()
    for s, m in parts:
        fields += [f | m << s for f in fields]
    return tuple(parts), tuple(fields)


# Bounded: callers choose the cardinalities.
@lru_cache(maxsize=4096)
def _grid(cards: tuple[int, ...]) -> tuple[int, ...]:
    """The codes of every configuration, in configuration order."""
    codes = [0]
    for c in cards:
        codes = [code << (c - 1).bit_length() | v for code in codes for v in range(c)]
    return tuple(codes)


@lru_cache(maxsize=4096)
def _packer(parts: tuple, order: tuple, targets: tuple):
    """Function moving the field of variable order[j] to the place of the
    field targets[j] (parts as in _layout)."""
    moves = [(*parts[k], t) for k, (t, _) in zip(order, targets) if parts[k][1]]

    def move(code: int) -> int:
        out = 0
        for s, m, t in moves:
            out |= (code >> s & m) << t
        return out

    return move


def _config(P: "JointDistribution", code: int) -> tuple[int, ...]:
    """The configuration of a code of P."""
    return tuple([code >> s & m for s, m in P._parts])


def _summed(rows: dict, keep: int) -> dict:
    """Weights of rows added up over their codes masked by keep."""
    out = {}
    get = out.get
    for code, w in rows.items():
        code &= keep
        out[code] = get(code, 0) + w
    return out


def _filled(cache: dict, fields: tuple) -> dict:
    """A cache of marginals by mask with every mask filled, in descending
    mask order: each missing mask is summed from the marginal one variable
    up, ``mask | (mask + 1)`` (its lowest missing bit set)."""
    for mask in range(len(fields) - 2, -1, -1):
        if mask not in cache:
            cache[mask] = _summed(cache[mask | (mask + 1)], fields[mask])
    return cache


def _check_fill(rows: int, cards: tuple[int, ...]) -> None:
    """ValueError when the 2**n marginals of rows configurations over cards
    may hold more than MAX_MARGINAL_FILL entries: the sum over masks of
    min(rows, product of the mask's cardinalities), counted only when
    rows * 2**n is over the bound."""
    if rows << len(cards) > MAX_MARGINAL_FILL:
        sizes = [1]
        for c in cards:
            sizes += [s * c for s in sizes]
        fill = sum(min(rows, s) for s in sizes)
        if fill > MAX_MARGINAL_FILL:
            raise ValueError(
                f"{rows} rows over {len(cards)} variables need {fill:,} marginal entries; "
                f"at most {MAX_MARGINAL_FILL:,} are supported"
            )


def _check_product(kind: str, Q: "JointDistribution", R: "JointDistribution", rows: int) -> None:
    """ValueError when a product of Q and R would hold more than
    MAX_MARGINAL_FILL rows."""
    if rows > MAX_MARGINAL_FILL:
        raise ValueError(
            f"a {kind} product of {len(Q._weights):,} and {len(R._weights):,} rows "
            f"has {rows:,} rows; at most {MAX_MARGINAL_FILL:,} are supported"
        )


def _paired(q: dict, r: dict) -> dict:
    """Rows of a lattice product from its two factors' rows (both in the
    product's layout): all products of their weights.  A field of a product
    code is q * card_R + r with r < card_R, so masking a sum masks each
    part, and distinct pairs of parts have distinct sums."""
    pairs = r.items()
    return {a + b: wa * wb for a, wa in q.items() for b, wb in pairs}


# Bounded: callers choose the spaces.
@lru_cache(maxsize=4096)
def _derived(space: SampleSpace, order: tuple) -> tuple:
    """The space of the variables of space at order, and the packer moving
    a code of space into it."""
    sub = SampleSpace([space.names[k] for k in order], [space.cardinalities[k] for k in order])
    return sub, _packer(_layout(space.cardinalities)[0], order, _layout(sub.cardinalities)[0])


def _moved(P: "JointDistribution", order: tuple, rows: dict) -> "JointDistribution":
    """Distribution over the variables of P at order, from weights over P's
    denominator keyed by codes of P."""
    space, move = _derived(P.space, order)
    return JointDistribution._from_weights(space, {move(c): w for c, w in rows.items()}, P._D)


class JointDistribution:
    """Immutable sparse rational density over a sample space.

    Absent configurations carry probability zero; stored probabilities are
    strictly positive and sum to exactly 1.  They are held as integer
    weights over one common denominator, keyed by configuration codes (see
    the module docstring).
    """

    # unset until known: a lattice product's factors, ((rows, D) of each,
    # its rows in the product's layout), and the induced CI structure
    _factors = _structure = None

    def __init__(self, space: SampleSpace, density: Mapping[tuple, object]):
        parts = _layout(space.cardinalities)[0]
        rows = {}
        D = 1
        for cfg, p in density.items():
            if len(cfg) != space.size:
                raise ValueError(f"configuration {quoted(cfg)} has wrong length")
            code = 0
            for v, c, (s, _) in zip(cfg, space.cardinalities, parts):
                if type(v) is not int:
                    raise ValueError(
                        f"configuration {quoted(cfg)} holds a non-integer value {quoted(v)}"
                    )
                if not 0 <= v < c:
                    raise ValueError(
                        f"value {quoted(v)} out of range in configuration {quoted(cfg)}"
                    )
                code |= v << s
            num, den = (p if isinstance(p, Fraction) else Fraction(p)).as_integer_ratio()
            if num < 0:
                raise ValueError(f"negative probability at {quoted(cfg)}")
            if num:
                if code in rows:
                    raise ValueError(f"duplicate configuration {quoted(cfg)}")
                rows[code] = num, den
                if D % den:
                    D = math.lcm(D, den)
                    if D > _MAX_DENOMINATOR:
                        raise ValueError(f"common denominator exceeds 10**{MAX_EXPONENT}")
        weights = {code: num * (D // den) for code, (num, den) in rows.items()}
        if sum(weights.values()) != D:
            raise ValueError("probabilities must sum to exactly 1")
        self._assign(space, weights, D)

    @classmethod
    def _from_weights(cls, space: SampleSpace, weights: dict, D: int) -> "JointDistribution":
        """Distribution from positive integer weights, keyed by codes, that
        sum to D."""
        P = cls.__new__(cls)
        P._assign(space, weights, D)
        return P

    def _assign(self, space: SampleSpace, weights: dict, D: int) -> None:
        g = math.gcd(D, *weights.values())
        if g > 1:
            weights = {code: w // g for code, w in weights.items()}
        self.space = space
        self._parts, self._fields = _layout(space.cardinalities)
        self._D = D // g
        self._weights = {code: weights[code] for code in sorted(weights)}
        self._marginals = {space.full_mask: self._weights}

    @cached_property
    def _weights(self) -> dict[int, int]:
        """A lattice product's rows, paired and kept on first read (_assign
        sets every other distribution's)."""
        return dict(self._rows())

    def _rows(self):
        """(code, weight) pairs in code order, for a read that keeps
        nothing: a lattice product whose rows are not kept pairs its
        factors' rows for this read alone."""
        kept = vars(self).get("_weights")
        if kept is not None:
            return kept.items()
        (q, _), (r, _) = self._factors
        return sorted(_paired(q, r).items())

    @cached_property
    def _marginals(self) -> dict[int, dict[int, int]]:
        """Integer marginal weights over _D, by variable mask."""
        return {self.space.full_mask: self._weights}

    # -- basic access --------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return self.space.names

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return self.space.cardinalities

    def support(self) -> list[tuple]:
        """The configurations of positive probability in configuration
        order, decoded from the codes on each call."""
        return [_config(self, code) for code, _ in self._rows()]

    def items(self) -> list[tuple[tuple, Fraction]]:
        """A fresh list of (configuration, probability) pairs in
        configuration order, decoded on each call; nothing is kept."""
        D = self._D
        return [(_config(self, code), Fraction(w, D)) for code, w in self._rows()]

    def mask(self, names: MaskLike) -> int:
        return self.space.mask(names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JointDistribution)
            and self.space == other.space
            and self._D == other._D
            and self._weights == other._weights
        )

    def __repr__(self) -> str:
        # every pair of a lattice product's factor rows is one of its rows
        f = self._factors
        rows = len(f[0][0]) * len(f[1][0]) if f else len(self._weights)
        return f"JointDistribution({'/'.join(self.names)}, {rows} rows)"

    # -- marginal densities ----------------------------------------------------

    def _marginal(self, mask: int) -> dict[int, int]:
        """Marginal weights over the common denominator, keyed by the codes
        masked by the fields of mask.

        Cached; a one-off marginal is summed from its smallest cached
        superset (the full mask is always cached), so a query on a wide
        sparse table touches no intermediate marginal.
        :meth:`_all_marginals` fills the whole lattice when every mask is
        needed.
        """
        cache = self._marginals
        if mask not in cache:
            source = min((m for m in cache if m & mask == mask), key=lambda m: len(cache[m]))
            cache[mask] = _summed(cache[source], self._fields[mask])
        return cache[mask]

    def _all_marginals(self) -> dict[int, dict[int, int]]:
        """The marginal weights of every mask, filled and kept.  ValueError
        from :func:`_check_fill` before any marginal is summed."""
        cache, fields = self._marginals, self._fields
        if len(cache) < len(fields):
            _check_fill(len(self._weights), self.cardinalities)
            _filled(cache, fields)
        return cache

    def _factor_fill(self, rows: dict) -> dict[int, dict[int, int]]:
        """Every marginal of one factor of a lattice product, from its rows
        in the product's layout.  The fill is bounded with the product's
        cardinalities, an upper bound on the factor's."""
        _check_fill(len(rows), self.cardinalities)
        return _filled({len(self._fields) - 1: rows}, self._fields)

    def marginal_density(self, A: MaskLike) -> dict[tuple, Fraction]:
        """Marginal density keyed by configurations of the variables in A,
        in base order and sorted.  The empty mask yields {(): 1}."""
        mask = self.space.mask(A)
        return dict(marginal(self, mask).items()) if mask else {(): Fraction(1)}

    def reordered(self, names: Sequence[str]) -> "JointDistribution":
        """Same distribution with variables listed in another order; the
        distribution itself in its own order, since it is immutable."""
        if tuple(names) == self.names:
            return self
        if set(names) != set(self.names) or len(names) != len(self.names):
            raise ValueError("reordering must carry exactly the same labels")
        return _moved(self, tuple(map(self.space.index, names)), self._weights)

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "variables": [
                {"name": n, "cardinality": c}
                for n, c in zip(self.names, self.cardinalities)
            ],
            "density": [
                {"config": list(cfg), "prob": str(p)}
                for cfg, p in self.items()
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "JointDistribution":
        if not (
            isinstance(data, dict)
            and isinstance(data.get("variables"), list)
            and isinstance(data.get("density"), list)
            and all(isinstance(v, dict) for v in data["variables"] + data["density"])
        ):
            raise ValueError(
                'a distribution is a JSON object whose "variables" and "density" '
                "are lists of objects"
            )
        check_variable_count(data["variables"])
        if not all(_is_int(v.get("cardinality")) for v in data["variables"]):
            raise ValueError('every variable needs an integer "cardinality"')
        if not all(
            isinstance(row.get("config"), list) and all(_is_int(v) for v in row["config"])
            for row in data["density"]
        ):
            raise ValueError('every density row needs a "config" list of integers')
        space = SampleSpace(
            [v["name"] for v in data["variables"]],
            [v["cardinality"] for v in data["variables"]],
        )
        density = {}
        for row in data["density"]:
            cfg = tuple(row["config"])
            if cfg in density:
                raise ValueError(f"duplicate configuration {quoted(cfg)}")
            density[cfg] = _probability(row["prob"])
        return JointDistribution(space, density)


# ---------------------------------------------------------------------------
# Marginals and conditional independence
# ---------------------------------------------------------------------------


def marginal(P: JointDistribution, A: MaskLike) -> JointDistribution:
    """Marginal distribution for the non-empty variable set A."""
    mask = P.space.mask(A)
    if mask == 0:
        raise ValueError("marginal onto the empty set is the constant 1")
    return _moved(P, tuple(k for k in range(P.space.size) if mask >> k & 1), P._marginal(mask))


def is_ci(P: JointDistribution, X: MaskLike, Y: MaskLike, Z: MaskLike) -> bool:
    """Exact factorization test p_XYZ * p_Z = p_XZ * p_YZ at every
    configuration.

    The sets need not be disjoint; with Y = X the test reads as functional
    dependence of X on Z.  Only the support of the XYZ-marginal is scanned.
    That suffices: for fixed z with p(z) > 0, the terms p(xz) p(yz) / p(z)
    over all consistent (x, y) are non-negative and sum to at most p(z).
    Where the test holds on the support, the terms there equal p(xyz) and
    already sum to p(z), so every term off the support, where p(xyz) = 0,
    vanishes as well.
    """
    return _factorizes(P._marginal, P._fields, *map(P.space.mask, (X, Y, Z)))


def _factorizes(marginal, fields, X: int, Y: int, Z: int) -> bool:
    """The factorization test of :func:`is_ci` on variable masks;
    ``marginal`` maps a mask to its marginal weights, ``fields`` to its
    fields."""
    xz, yz = X | Z, Y | Z
    f_xz, f_yz, f_z = fields[xz], fields[yz], fields[Z]
    d_xz, d_yz, d_z = marginal(xz), marginal(yz), marginal(Z)
    for code, w in marginal(xz | Y).items():
        if w * d_z[code & f_z] != d_xz[code & f_xz] * d_yz[code & f_yz]:
            return False
    return True


def _pairs_factorize(q, r, fields, X: int, Y: int, Z: int) -> bool:
    """:func:`_factorizes` on a lattice product at every pair (a, b) of its
    factors' XYZ-support codes: with q and r their fills, its weight at
    a + b over any mask M is q[M][a] * r[M][b]."""
    xz, yz = X | Z, Y | Z
    f_xz, f_yz, f_z = fields[xz], fields[yz], fields[Z]
    qxz, qyz, qz, rxz, ryz, rz = q[xz], q[yz], q[Z], r[xz], r[yz], r[Z]
    r_xyz = r[xz | Y].items()
    for a, wa in q[xz | Y].items():
        left, right = wa * qz[a & f_z], qxz[a & f_xz] * qyz[a & f_yz]
        for b, wb in r_xyz:
            if left * (wb * rz[b & f_z]) != right * (rxz[b & f_xz] * ryz[b & f_yz]):
                return False
    return True


def induced_ci_structure(P: JointDistribution) -> CIStructure:
    """Exact CI structure of the distribution: all canonical elementary
    triplets (i, j | K) passing the factorization test, read for a lattice
    product off its factors' fills (not its rows, not their structures)."""
    if P._structure is None:
        if P._factors:
            fills = [P._factor_fill(rows) for rows, _ in P._factors]
            holds = partial(_pairs_factorize, *fills, P._fields)
        else:
            holds = partial(_factorizes, P._all_marginals().__getitem__, P._fields)
        P._structure = CIStructure.where(P.space.base_set(), holds)
    return P._structure


# ---------------------------------------------------------------------------
# Conditional and lattice products
# ---------------------------------------------------------------------------


class ConsonanceError(ValueError):
    """The shared-variable marginals of two factors do not coincide."""


# Bounded: callers choose the spaces.
@lru_cache(maxsize=4096)
def _glued(qs: SampleSpace, rs: SampleSpace, C: frozenset) -> tuple:
    """The layout of a conditional product of factors over qs and rs that
    share the variables C: its space, the shift of a Q code into it, its
    C-fields, Q's C-mask and the packer of an R code into it.
    ConsonanceError, raised on every call since exceptions are not cached,
    when a shared variable's cardinalities differ."""
    q_c = tuple(k for k, n in enumerate(qs.names) if n in C)
    r_c = tuple(rs.index(qs.names[k]) for k in q_c)
    extra = tuple(k for k, n in enumerate(rs.names) if n not in C)
    if [qs.cardinalities[k] for k in q_c] != [rs.cardinalities[k] for k in r_c]:
        raise ConsonanceError("shared variables must have equal sample spaces")
    space = SampleSpace(
        qs.names + tuple(rs.names[k] for k in extra),
        qs.cardinalities + tuple(rs.cardinalities[k] for k in extra),
    )
    # a row of Q lands in the result shifted up; a row of R lands with its
    # C-fields where Q's sit and its other fields below them
    parts, fields = _layout(space.cardinalities)
    to_result = _packer(
        _layout(rs.cardinalities)[0], r_c + extra, tuple(parts[k] for k in q_c) + parts[qs.size:]
    )
    return space, parts[qs.size - 1][0], fields[space.mask(C)], qs.mask(C), to_result


def conditional_product(
    Q: JointDistribution,
    R: JointDistribution,
    A: Iterable[str],
    B: Iterable[str],
    C: Iterable[str],
) -> JointDistribution:
    """Glue consonant distributions Q over A+C and R over B+C into a
    distribution over A+B+C with density q(a,c) * r(b,c) / m(c).

    The result recovers Q and R as marginals and makes A independent of B
    given C.  A, B, C are label collections; A and B must be non-empty and
    the C-marginals of Q and R must agree exactly.
    """
    A, B, C = set(A), set(B), set(C)
    if not A or not B:
        raise ValueError("conditional product needs non-empty A and B")
    if A & B or A & C or B & C:
        raise ValueError("A, B, C must be pairwise disjoint")
    if set(Q.names) != A | C:
        raise ValueError("first factor must be a distribution over A + C")
    if set(R.names) != B | C:
        raise ValueError("second factor must be a distribution over B + C")

    space, up, c_fields, q_mask, to_result = _glued(Q.space, R.space, frozenset(C))
    # C-marginal weights of Q and R over their own denominators
    mq = {c << up: w for c, w in Q._marginal(q_mask).items()}
    mr, r_by_c = defaultdict(int), defaultdict(list)
    for code, w in R._weights.items():
        code = to_result(code)
        mr[code & c_fields] += w
        r_by_c[code & c_fields].append((code, w))
    Dq, Dr = Q._D, R._D
    if {c: w * Dr for c, w in mq.items()} != {c: w * Dq for c, w in mr.items()}:
        raise ConsonanceError("factors disagree on the shared marginal")
    _check_product(
        "conditional", Q, R, sum(len(r_by_c[code << up & c_fields]) for code in Q._weights)
    )

    # q r / m = wq wr (L / mq(c)) / (Dr L), with L the lcm of the mq(c)
    L = math.lcm(*mq.values())
    density = {}
    for code, wq in Q._weights.items():
        code <<= up
        scale = wq * (L // mq[code & c_fields])
        for r, wr in r_by_c[code & c_fields]:
            density[code | r] = scale * wr
    return JointDistribution._from_weights(space, density, Dr * L)


def lattice_product(Q: JointDistribution, R: JointDistribution) -> JointDistribution:
    """Independent pairing of two distributions over the same variables.

    Variable i of the result ranges over pairs (Q-value, R-value), encoded
    as q * card_R(i) + r.  The induced CI structure is exactly the
    intersection of the factors' structures.  The result keeps both
    factors' rows in its own layout, which its structure and entropy read.
    Its own rows are paired and kept when a computation first reads them
    (``is_ci``, ``marginal``, equality, divergence, ``reordered``, a further
    product); ``items``, ``support`` and ``to_json_dict`` pair them for that
    read alone.
    """
    if Q.names != R.names:
        raise ValueError("lattice product needs the same variables in the same order")
    _check_product("lattice", Q, R, len(Q._weights) * len(R._weights))
    space = SampleSpace(Q.names, [a * b for a, b in zip(Q.cardinalities, R.cardinalities)])
    parts = _layout(space.cardinalities)[0]
    # a row of Q puts q * card_R in each field and a row of R puts r there;
    # q * card_R + r fits in its field, so the two parts add without carries
    scaled = [(s, m, b, t) for (s, m), b, (t, _) in zip(Q._parts, R.cardinalities, parts) if m]
    q = {}
    for code, wq in Q._weights.items():
        c = 0
        for s, m, b, t in scaled:
            c |= (code >> s & m) * b << t
        q[c] = wq
    move = _packer(R._parts, tuple(range(len(parts))), parts)
    r = {move(code): wr for code, wr in R._weights.items()}
    # Reduced weights have gcd 1, and so do their pairwise products (the gcd
    # of all a * b is gcd(a) * gcd(b)), so the product's denominator is
    # Q._D * R._D and its paired rows need no reduction.
    L = JointDistribution.__new__(JointDistribution)
    L.space, L._D, L._factors = space, Q._D * R._D, ((q, Q._D), (r, R._D))
    L._parts, L._fields = _layout(space.cardinalities)
    return L


# ---------------------------------------------------------------------------
# Entropy and divergence
# ---------------------------------------------------------------------------


def entropy_function(P: JointDistribution) -> SetFunction:
    """Entropy (natural log) of every sub-vector, as a float set function.

    The value at the empty set is exactly 0; the result is always a
    polymatroid rank function and its vanishing difference expressions
    match the exact CI structure of P.  A lattice product's is the sum of
    its factors' entropy functions, mask by mask, each read off a fill of
    that factor's rows that is dropped once summed.
    """
    if P._factors:
        hq, hr = (_entropies(P._factor_fill(rows), D) for rows, D in P._factors)
        values = [a + b for a, b in zip(hq, hr)]
    else:
        values = _entropies(P._all_marginals(), P._D)
    return SetFunction(P.space.base_set(), tuple(values))


def _entropies(marginals: dict, D: int) -> list[float]:
    """The entropy of the marginal weights over D of every mask, each
    summed in code order, so equal weights give equal floats."""
    log = math.log
    values = [0.0] * len(marginals)
    for m in range(1, len(marginals)):
        weights = marginals[m]
        h = 0.0
        for code in sorted(weights):
            fp = weights[code] / D
            h -= fp * log(fp)
        values[m] = h
    return values


class DominanceError(ValueError):
    """Divergence undefined: the second argument vanishes somewhere the
    first does not."""

    def __init__(self, config: tuple):
        super().__init__(f"dominance violated at configuration {config}")
        self.config = config


def kl_divergence(Q: JointDistribution, R: JointDistribution) -> float:
    """Kullback-Leibler divergence sum(q * ln(q/r)) over the support of Q.

    Requires identical sample spaces and R dominating Q; non-negative, and
    zero exactly when Q = R.
    """
    if Q.space != R.space:
        raise ValueError("divergence needs a shared sample space")
    Dq, Dr = Q._D, R._D
    total = 0.0
    for code, wq in Q._weights.items():
        wr = R._weights.get(code)
        if wr is None:
            raise DominanceError(_config(Q, code))
        q = wq / Dq
        total += q * math.log(q / (wr / Dr))
    return total


# ---------------------------------------------------------------------------
# Intersection variable for double-Markov pairs
# ---------------------------------------------------------------------------


def double_markov_extend(
    P: JointDistribution, A: MaskLike, B: MaskLike, C: MaskLike
) -> JointDistribution:
    """Extend P by a variable W that is a function of the B-part and of the
    C-part separately, with the A-part independent of B+C given W.

    Requires pairwise disjoint A, B, C with both (A indep B | C) and
    (A indep C | B) holding exactly; variables outside A+B+C are summed
    out first.  W's sample space is the set of connected components of the
    support of the BC-marginal under "equal B-part or equal C-part"; it is
    appended as the last variable under a fresh label, and the result is a
    distribution over A+B+C+{W}.
    """
    A, B, C = P.space.mask(A), P.space.mask(B), P.space.mask(C)
    if A & B or A & C or B & C:
        raise ValueError("A, B, C must be pairwise disjoint")
    if (A | B | C) != P.space.full_mask:
        sub = marginal(P, A | B | C)
        return double_markov_extend(sub, *(sub.space.mask(P.space.labels(M)) for M in (A, B, C)))
    if not (is_ci(P, A, B, C) and is_ci(P, A, C, B)):
        raise ValueError("premises violated: need A indep B | C and A indep C | B")

    f_b, f_c, f_bc = P._fields[B], P._fields[C], P._fields[B | C]
    # W's classes: the components of the graph that links the B-part and the
    # C-part of each BC-support row (a B-part as a negative node), numbered
    # by first appearance
    parent: dict[int, int] = {}

    def find(node: int) -> int:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = node = parent[parent[node]]
        return node

    support = sorted(P._marginal(B | C))
    for code in support:
        parent[find(~(code & f_b))] = find(code & f_c)
    classes: dict[int, int] = {}
    class_of = {code: classes.setdefault(find(code & f_c), len(classes)) for code in support}

    w_name, serial = "w", 1
    while w_name in P.names:
        serial += 1
        w_name = f"w{serial}"
    space = SampleSpace(P.names + (w_name,), P.cardinalities + (len(classes),))
    w = (len(classes) - 1).bit_length()
    density = {code << w | class_of[code & f_bc]: wt for code, wt in P._weights.items()}
    return JointDistribution._from_weights(space, density, P._D)
