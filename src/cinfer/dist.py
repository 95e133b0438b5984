"""Exact discrete probability distributions over named variables.

A density is held as positive integer weights on its support over one
common denominator D (probability w / D), reduced so that equal
distributions store equal weights.  Marginals, the factorization test
behind the independence relation, conditional products of consonant
distributions and lattice products (whose induced CI structure is the
intersection of the factors' structures) are integer arithmetic; fractions
appear only at the boundary (input densities, ``prob``, ``items``,
``marginal_density``, JSON).  Entropy functions and Kullback-Leibler
divergence are the only float outputs.  The module also builds the
intersection variable of double-Markov pairs.

Each distribution caches its integer marginals by mask.  Entropy and the
induced structure fill all 2**n of them top-down, each summed from the mask
one variable up; a one-off marginal comes from the smallest cached superset.
Projectors and factorization-test plans depend only on the shape of a query
and are compiled once per variable count and masks.
"""

from __future__ import annotations

import json
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter
from typing import Iterable, Mapping, Sequence

from .sets import BasicSet, check_variable_count, checked_labels, positions
from .setfn import SetFunction
from .structures import CIStructure, canonical_triplets

MaskLike = int | str | Iterable[str]

# Input bound: Fraction builds 10**e for a decimal exponent e, so a JSON
# "prob" literal may carry one within +-MAX_EXPONENT only, and the common
# denominator of an input density is at most 10**MAX_EXPONENT.
MAX_EXPONENT = 100
_MAX_DENOMINATOR = 10**MAX_EXPONENT
_EXPONENT = re.compile(r"e[-+]?([\d_]*)", re.IGNORECASE)


@dataclass(frozen=True)
class SampleSpace(BasicSet):
    """A basic set whose variables carry finite sample-space sizes.

    Unlike a plain basic set, a sample space may consist of a single
    variable; marginals and conditional-product factors need that.
    """

    cardinalities: tuple[int, ...]

    def __init__(self, names: Iterable[str], cardinalities: Iterable[int]):
        names = tuple(names)
        cards = tuple(int(c) for c in cardinalities)
        if not names:
            raise ValueError("a sample space needs at least one variable")
        if len(cards) != len(names):
            raise ValueError("one cardinality per variable required")
        if any(c < 1 for c in cards):
            raise ValueError("cardinalities must be positive")
        object.__setattr__(self, "names", checked_labels(names))
        object.__setattr__(self, "cardinalities", cards)

    def base_set(self) -> BasicSet:
        return BasicSet(self.names)

    def mask(self, names: MaskLike) -> int:
        """Mask of a label collection, or an integer mask checked for range."""
        return self.check_mask(names) if isinstance(names, int) else super().mask(names)


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
                f"probability {text[:40]!r} has a decimal exponent beyond +-{MAX_EXPONENT}"
            )
    return Fraction(text)


def _projector(idx: Sequence[int]):
    """Function from a configuration to the tuple of its entries at idx."""
    if len(idx) == 1:
        k = idx[0]
        return lambda cfg: (cfg[k],)
    return itemgetter(*idx) if idx else lambda cfg: ()


# The projector and plan caches are bounded: their keys include masks that
# callers of the public functions choose.
@lru_cache(maxsize=4096)
def _sub_projector(n: int, source: int, mask: int):
    """Projector from configurations of the variables in source (in base
    order, out of n) to configurations of its subset mask."""
    return _projector([k for k, v in enumerate(positions(source, n)) if mask >> v & 1])


def _summed(rows: dict[tuple, int], project) -> dict[tuple, int]:
    """Weights of rows added up over their projections."""
    out: dict[tuple, int] = {}
    for key, w in zip(map(project, rows), rows.values()):
        out[key] = out.get(key, 0) + w
    return out


class JointDistribution:
    """Immutable sparse rational density over a sample space.

    Absent configurations carry probability zero; stored probabilities are
    strictly positive and sum to exactly 1.  They are held as integer
    weights over one common denominator (see the module docstring).
    """

    def __init__(self, space: SampleSpace, density: Mapping[tuple, object]):
        rows = {}
        D = 1
        for cfg, p in density.items():
            cfg = tuple(int(v) for v in cfg)
            if len(cfg) != space.size:
                raise ValueError(f"configuration {cfg} has wrong length")
            for v, c in zip(cfg, space.cardinalities):
                if not 0 <= v < c:
                    raise ValueError(f"value {v} out of range in configuration {cfg}")
            p = p if isinstance(p, Fraction) else Fraction(p)
            if p.numerator < 0:
                raise ValueError(f"negative probability at {cfg}")
            if p.numerator:
                if cfg in rows:
                    raise ValueError(f"duplicate configuration {cfg}")
                rows[cfg] = p
                if D % p.denominator:
                    D = math.lcm(D, p.denominator)
                    if D > _MAX_DENOMINATOR:
                        raise ValueError(f"common denominator exceeds 10**{MAX_EXPONENT}")
        weights = {cfg: p.numerator * (D // p.denominator) for cfg, p in rows.items()}
        if sum(weights.values()) != D:
            raise ValueError("probabilities must sum to exactly 1")
        self._assign(space, weights, D)

    @classmethod
    def _from_weights(cls, space: SampleSpace, weights: dict, D: int) -> "JointDistribution":
        """Distribution from positive integer weights that sum to D."""
        P = cls.__new__(cls)
        P._assign(space, weights, D)
        return P

    def _assign(self, space: SampleSpace, weights: dict, D: int) -> None:
        g = math.gcd(D, *weights.values())
        if g > 1:
            weights = {cfg: w // g for cfg, w in weights.items()}
        self.space = space
        self._D = D // g
        self._weights: dict[tuple, int] = dict(sorted(weights.items()))
        # integer marginal weights over _D, by variable mask
        self._marginals = {space.full_mask: self._weights}
        self._probs: dict[tuple, Fraction] | None = None
        self._structure: CIStructure | None = None

    # -- basic access --------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return self.space.names

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return self.space.cardinalities

    def support(self) -> list[tuple]:
        return list(self._weights)

    def items(self):
        """(configuration, probability) pairs in configuration order."""
        if self._probs is None:
            D = self._D
            self._probs = {cfg: Fraction(w, D) for cfg, w in self._weights.items()}
        return self._probs.items()

    def prob(self, cfg: tuple) -> Fraction:
        return Fraction(self._weights.get(tuple(cfg), 0), self._D)

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
        return f"JointDistribution({'/'.join(self.names)}, {len(self._weights)} rows)"

    # -- marginal densities ----------------------------------------------------

    def _marginal(self, mask: int) -> dict[tuple, int]:
        """Marginal weights over the common denominator, keyed by
        configurations of the variables in mask in base order.

        Cached.  A one-off marginal is summed from the smallest cached
        marginal of a superset, so a query on a wide sparse distribution
        touches no intermediate marginal; :meth:`_all_marginals` fills the
        whole lattice when every mask is needed.
        """
        cache = self._marginals
        if mask not in cache:
            source = min((m for m in cache if m & mask == mask), key=lambda m: len(cache[m]))
            cache[mask] = _summed(cache[source], _sub_projector(self.space.size, source, mask))
        return cache[mask]

    def _all_marginals(self) -> dict[int, dict[tuple, int]]:
        """The marginal weights of every mask, filled in descending mask
        order: each missing mask is summed from the marginal one variable up,
        ``mask | (mask + 1)`` (its lowest missing bit set)."""
        cache, n = self._marginals, self.space.size
        for mask in range((1 << n) - 2, -1, -1):
            if mask not in cache:
                source = mask | (mask + 1)
                cache[mask] = _summed(cache[source], _sub_projector(n, source, mask))
        return cache

    def marginal_density(self, A: MaskLike) -> dict[tuple, Fraction]:
        """Marginal density keyed by configurations of the variables in A,
        in base order and sorted.  The empty mask yields {(): 1}."""
        weights, D = self._marginal(self.space.mask(A)), self._D
        return {cfg: Fraction(weights[cfg], D) for cfg in sorted(weights)}

    def reordered(self, names: Sequence[str]) -> "JointDistribution":
        """Same distribution with variables listed in another order."""
        if set(names) != set(self.names) or len(names) != len(self.names):
            raise ValueError("reordering must carry exactly the same labels")
        perm = [self.space.index(n) for n in names]
        space = SampleSpace(names, [self.cardinalities[k] for k in perm])
        project = _projector(perm)
        return JointDistribution._from_weights(
            space, {project(cfg): w for cfg, w in self._weights.items()}, self._D
        )

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
                raise ValueError(f"duplicate configuration {cfg}")
            density[cfg] = _probability(row["prob"])
        return JointDistribution(space, density)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @staticmethod
    def loads(text: str) -> "JointDistribution":
        return JointDistribution.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Marginals and conditional independence
# ---------------------------------------------------------------------------


def marginal(P: JointDistribution, A: MaskLike) -> JointDistribution:
    """Marginal distribution for the non-empty variable set A."""
    mask = P.space.mask(A)
    if mask == 0:
        raise ValueError("marginal onto the empty set is the constant 1")
    keep = _projector(positions(mask, P.space.size))
    space = SampleSpace(keep(P.names), keep(P.cardinalities))
    return JointDistribution._from_weights(space, P._marginal(mask), P._D)


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
    space = P.space
    plan = _ci_plan(space.size, space.mask(X), space.mask(Y), space.mask(Z))
    return _factorizes(P._marginal, plan)


@lru_cache(maxsize=4096)
def _ci_plan(n: int, X: int, Y: int, Z: int) -> tuple:
    """The masks XYZ, XZ, YZ, Z of a factorization test over n variables and
    the projectors from XYZ-configurations onto the last three."""
    xyz = X | Y | Z
    return (xyz, X | Z, Y | Z, Z, *(_sub_projector(n, xyz, M) for M in (X | Z, Y | Z, Z)))


def _factorizes(marginal, plan: tuple) -> bool:
    """The factorization test of :func:`is_ci` under a plan; ``marginal``
    maps a mask to its marginal weights."""
    xyz, xz, yz, z, p_xz, p_yz, p_z = plan
    d_xyz = marginal(xyz)
    d_xz, d_yz, d_z = marginal(xz), marginal(yz), marginal(z)
    for cfg, w in d_xyz.items():
        if w * d_z[p_z(cfg)] != d_xz[p_xz(cfg)] * d_yz[p_yz(cfg)]:
            return False
    return True


@lru_cache(maxsize=None)
def _structure_plan(n: int) -> tuple[tuple, ...]:
    """The factorization plan of every canonical triplet over n variables,
    in bit order."""
    return tuple(_ci_plan(n, 1 << t.i, 1 << t.j, t.K) for t in canonical_triplets(n))


def induced_ci_structure(P: JointDistribution) -> CIStructure:
    """Exact CI structure of the distribution: all canonical elementary
    triplets (i, j | K) passing the factorization test."""
    if P._structure is None:
        base = P.space.base_set()
        marginal = P._all_marginals().__getitem__
        bits = 0
        for b, plan in enumerate(_structure_plan(base.size)):
            if _factorizes(marginal, plan):
                bits |= 1 << b
        P._structure = CIStructure(base, bits)
    return P._structure


# ---------------------------------------------------------------------------
# Conditional and lattice products
# ---------------------------------------------------------------------------


class ConsonanceError(ValueError):
    """The shared-variable marginals of two factors do not coincide."""


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

    c_order = tuple(n for n in Q.names if n in C)
    q_c = _projector([Q.space.index(n) for n in c_order])
    r_c = _projector([R.space.index(n) for n in c_order])
    r_extra = _projector([k for k, n in enumerate(R.names) if n not in C])
    if q_c(Q.cardinalities) != r_c(R.cardinalities):
        raise ConsonanceError("shared variables must have equal sample spaces")
    # C-marginal weights of Q and R over their own denominators, in Q's order
    mq = Q._marginal(Q.space.mask(c_order))
    mr: dict[tuple, int] = defaultdict(int)
    r_by_c: dict[tuple, list] = defaultdict(list)
    for cfg, w in R._weights.items():
        c = r_c(cfg)
        mr[c] += w
        r_by_c[c].append((r_extra(cfg), w))
    Dq, Dr = Q._D, R._D
    if {c: w * Dr for c, w in mq.items()} != {c: w * Dq for c, w in mr.items()}:
        raise ConsonanceError("factors disagree on the shared marginal")

    space = SampleSpace(Q.names + r_extra(R.names), Q.cardinalities + r_extra(R.cardinalities))
    # q r / m = wq wr (L / mq(c)) / (Dr L), with L the lcm of the mq(c)
    L = math.lcm(*mq.values())
    density = {}
    for qcfg, wq in Q._weights.items():
        c = q_c(qcfg)
        scale = wq * (L // mq[c])
        for extra, wr in r_by_c[c]:
            density[qcfg + extra] = scale * wr
    return JointDistribution._from_weights(space, density, Dr * L)


def lattice_product(Q: JointDistribution, R: JointDistribution) -> JointDistribution:
    """Independent pairing of two distributions over the same variables.

    Variable i of the result ranges over pairs (Q-value, R-value), encoded
    as q * card_R(i) + r.  The induced CI structure is exactly the
    intersection of the factors' structures.
    """
    if Q.names != R.names:
        raise ValueError("lattice product needs the same variables in the same order")
    cards = tuple(qc * rc for qc, rc in zip(Q.cardinalities, R.cardinalities))
    shifted = [
        (tuple(qv * rc for qv, rc in zip(qcfg, R.cardinalities)), wq)
        for qcfg, wq in Q._weights.items()
    ]
    density = {
        tuple(map(add, qpart, rcfg)): wq * wr
        for qpart, wq in shifted
        for rcfg, wr in R._weights.items()
    }
    return JointDistribution._from_weights(SampleSpace(Q.names, cards), density, Q._D * R._D)


# ---------------------------------------------------------------------------
# Entropy and divergence
# ---------------------------------------------------------------------------


def entropy_function(P: JointDistribution) -> SetFunction:
    """Entropy (natural log) of every sub-vector, as a float set function.

    The value at the empty set is exactly 0; the result is always a
    polymatroid rank function and its vanishing difference expressions
    match the exact CI structure of P.
    """
    D, full, marginals = P._D, P.space.full_mask, P._all_marginals()
    values = [0.0] * (full + 1)
    for m in range(1, full + 1):
        weights = marginals[m]
        h = 0.0
        for cfg in sorted(weights):
            fp = weights[cfg] / D
            h -= fp * math.log(fp)
        values[m] = h
    return SetFunction(P.space.base_set(), tuple(values))


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
    for cfg, wq in Q._weights.items():
        wr = R._weights.get(cfg)
        if wr is None:
            raise DominanceError(cfg)
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

    n = P.space.size
    b_part, c_part = _sub_projector(n, B | C, B), _sub_projector(n, B | C, C)
    # W's classes: the components of the graph that links the B-part and the
    # C-part of each BC-support row, numbered by first appearance
    parent: dict[tuple, tuple] = {}

    def find(node: tuple) -> tuple:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = node = parent[parent[node]]
        return node

    support = sorted(P._marginal(B | C))
    for cfg in support:
        parent[find((0,) + b_part(cfg))] = find((1,) + c_part(cfg))
    classes: dict[tuple, int] = {}
    class_of = {cfg: classes.setdefault(find((1,) + c_part(cfg)), len(classes)) for cfg in support}

    w_name, serial = "w", 1
    while w_name in P.names:
        serial += 1
        w_name = f"w{serial}"
    space = SampleSpace(P.names + (w_name,), P.cardinalities + (len(classes),))
    bc = _sub_projector(n, P.space.full_mask, B | C)
    density = {cfg + (class_of[bc(cfg)],): w for cfg, w in P._weights.items()}
    return JointDistribution._from_weights(space, density, P._D)
