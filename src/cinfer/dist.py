"""Exact discrete probability distributions over named variables.

Densities are sparse maps from full configurations (one value index per
variable) to rational probabilities that sum to exactly 1, so conditional
independence is decided by exact rational arithmetic; entropy and
Kullback-Leibler divergence are the only float-valued outputs.

The module provides marginals, the factorization test behind the
independence relation, conditional products of consonant distributions,
entropy functions, lattice products (whose induced CI structure is the
intersection of the factors' structures), and the intersection-variable
extension for double-Markov pairs.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .sets import BasicSet, positions
from .setfn import SetFunction
from .structures import CIStructure, canonical_triplets

MaskLike = int | str | Iterable[str]


@dataclass(frozen=True)
class SampleSpace:
    """Named variables with finite per-variable sample-space sizes.

    Unlike a basic set, a sample space may consist of a single variable;
    marginals and conditional-product factors need that.
    """

    names: tuple[str, ...]
    cardinalities: tuple[int, ...]

    def __init__(self, names: Iterable[str], cardinalities: Iterable[int]):
        names = tuple(names)
        cards = tuple(int(c) for c in cardinalities)
        if not names:
            raise ValueError("a sample space needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable labels in {names!r}")
        if len(cards) != len(names):
            raise ValueError("one cardinality per variable required")
        if any(c < 1 for c in cards):
            raise ValueError("cardinalities must be positive")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "cardinalities", cards)

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def base_set(self) -> BasicSet:
        return BasicSet(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def mask(self, names: MaskLike) -> int:
        if isinstance(names, int):
            if not 0 <= names <= self.full_mask:
                raise ValueError(f"mask {names:#x} out of range")
            return names
        if isinstance(names, str):
            names = [names] if names in self.names else list(names)
        m = 0
        for n in names:
            m |= 1 << self.index(n)
        return m

    def labels(self, mask: int) -> tuple[str, ...]:
        return tuple(n for i, n in enumerate(self.names) if mask >> i & 1)


def _as_fraction(p) -> Fraction:
    return p if isinstance(p, Fraction) else Fraction(p)


class JointDistribution:
    """Immutable sparse rational density over a sample space.

    Absent configurations carry probability zero; stored probabilities are
    strictly positive and sum to exactly 1.
    """

    def __init__(self, space: SampleSpace, density: Mapping[tuple, object]):
        rows = {}
        for cfg, p in density.items():
            cfg = tuple(int(v) for v in cfg)
            if len(cfg) != space.size:
                raise ValueError(f"configuration {cfg} has wrong length")
            for v, c in zip(cfg, space.cardinalities):
                if not 0 <= v < c:
                    raise ValueError(f"value {v} out of range in configuration {cfg}")
            p = _as_fraction(p)
            if p < 0:
                raise ValueError(f"negative probability at {cfg}")
            if p > 0:
                if cfg in rows:
                    raise ValueError(f"duplicate configuration {cfg}")
                rows[cfg] = p
        if sum(rows.values()) != 1:
            raise ValueError("probabilities must sum to exactly 1")
        self.space = space
        self._density = dict(sorted(rows.items()))
        self._marginals: dict[int, dict[tuple, Fraction]] = {}
        self._structure: CIStructure | None = None

    # -- basic access --------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return self.space.names

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return self.space.cardinalities

    def support(self) -> list[tuple]:
        return list(self._density)

    def items(self):
        return self._density.items()

    def prob(self, cfg: tuple) -> Fraction:
        return self._density.get(tuple(cfg), Fraction(0))

    def mask(self, names: MaskLike) -> int:
        return self.space.mask(names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JointDistribution)
            and self.space == other.space
            and self._density == other._density
        )

    def __repr__(self) -> str:
        return f"JointDistribution({'/'.join(self.names)}, {len(self._density)} rows)"

    # -- marginal densities ----------------------------------------------------

    def marginal_density(self, A: MaskLike) -> dict[tuple, Fraction]:
        """Marginal density keyed by configurations of the variables in A,
        in base order.  The empty mask yields {(): 1}."""
        mask = self.space.mask(A)
        cached = self._marginals.get(mask)
        if cached is not None:
            return cached
        pos = positions(mask, self.space.size)
        out: dict[tuple, Fraction] = defaultdict(Fraction)
        for cfg, p in self._density.items():
            out[tuple(cfg[k] for k in pos)] += p
        result = dict(sorted(out.items()))
        self._marginals[mask] = result
        return result

    def reordered(self, names: Sequence[str]) -> "JointDistribution":
        """Same distribution with variables listed in another order."""
        if set(names) != set(self.names) or len(names) != len(self.names):
            raise ValueError("reordering must carry exactly the same labels")
        perm = [self.space.index(n) for n in names]
        space = SampleSpace(names, [self.cardinalities[k] for k in perm])
        return JointDistribution(
            space, {tuple(cfg[k] for k in perm): p for cfg, p in self._density.items()}
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
                for cfg, p in self._density.items()
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
        if not all(isinstance(v.get("cardinality"), int) for v in data["variables"]):
            raise ValueError('every variable needs an integer "cardinality"')
        if not all(
            isinstance(row.get("config"), list)
            and all(isinstance(v, int) for v in row["config"])
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
            density[cfg] = Fraction(str(row["prob"]))
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
    pos = positions(mask, P.space.size)
    space = SampleSpace(
        [P.names[k] for k in pos], [P.cardinalities[k] for k in pos]
    )
    return JointDistribution(space, P.marginal_density(mask))


def is_ci(P: JointDistribution, X: MaskLike, Y: MaskLike, Z: MaskLike) -> bool:
    """Exact factorization test p_XYZ * p_Z = p_XZ * p_YZ at every
    configuration.

    The sets need not be disjoint; with Y = X the test reads as functional
    dependence of X on Z.  Configurations where p_XZ or p_YZ vanishes hold
    automatically, so only the join of the two marginal supports is scanned.
    """
    X, Y, Z = P.space.mask(X), P.space.mask(Y), P.space.mask(Z)
    XZ, YZ, XYZ = X | Z, Y | Z, X | Y | Z
    common = XZ & YZ
    n = P.space.size
    d_xyz = P.marginal_density(XYZ)
    d_xz = P.marginal_density(XZ)
    d_yz = P.marginal_density(YZ)
    d_z = P.marginal_density(Z)

    pos_xz, pos_yz, pos_xyz = positions(XZ, n), positions(YZ, n), positions(XYZ, n)
    common_in_xz = [pos_xz.index(v) for v in positions(common, n)]
    common_in_yz = [pos_yz.index(v) for v in positions(common, n)]
    # assemble an XYZ-configuration from an XZ-part and a YZ-part
    pick = [
        (0, pos_xz.index(v)) if XZ >> v & 1 else (1, pos_yz.index(v))
        for v in pos_xyz
    ]
    z_in_xyz = [pos_xyz.index(v) for v in positions(Z, n)]

    grouped: dict[tuple, list] = defaultdict(list)
    for a, pa in d_xz.items():
        grouped[tuple(a[k] for k in common_in_xz)].append((a, pa))
    zero = Fraction(0)
    for b, pb in d_yz.items():
        key = tuple(b[k] for k in common_in_yz)
        for a, pa in grouped.get(key, ()):
            parts = (a, b)
            cfg = tuple(parts[s][k] for s, k in pick)
            zcfg = tuple(cfg[k] for k in z_in_xyz)
            if d_xyz.get(cfg, zero) * d_z.get(zcfg, zero) != pa * pb:
                return False
    return True


def induced_ci_structure(P: JointDistribution) -> CIStructure:
    """Exact CI structure of the distribution: all canonical elementary
    triplets (i, j | K) passing the factorization test."""
    if P._structure is not None:
        return P._structure
    base = P.space.base_set()
    bits = 0
    for b, t in enumerate(canonical_triplets(base.size)):
        if is_ci(P, 1 << t.i, 1 << t.j, t.K):
            bits |= 1 << b
    structure = CIStructure(base, bits)
    P._structure = structure
    return structure


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
    if any(
        Q.cardinalities[Q.space.index(n)] != R.cardinalities[R.space.index(n)]
        for n in C
    ):
        raise ConsonanceError("shared variables must have equal sample spaces")
    mq = _density_over(Q, c_order)
    mr = _density_over(R, c_order)
    if mq != mr:
        raise ConsonanceError("factors disagree on the shared marginal")

    names = Q.names + tuple(n for n in R.names if n not in C)
    cards = Q.cardinalities + tuple(
        R.cardinalities[R.space.index(n)] for n in R.names if n not in C
    )
    q_pos = list(range(Q.space.size))
    r_extra = [k for k, n in enumerate(R.names) if n not in C]
    r_c_pos = [R.space.index(n) for n in c_order]

    r_by_c: dict[tuple, list] = defaultdict(list)
    for cfg, p in R.items():
        r_by_c[tuple(cfg[k] for k in r_c_pos)].append((tuple(cfg[k] for k in r_extra), p))

    q_c_pos = [Q.space.index(n) for n in c_order]
    density = {}
    for qcfg, qp in Q.items():
        ckey = tuple(qcfg[k] for k in q_c_pos)
        norm = mq[ckey]
        for extra, rp in r_by_c.get(ckey, ()):
            density[tuple(qcfg[k] for k in q_pos) + extra] = qp * rp / norm
    return JointDistribution(SampleSpace(names, cards), density)


def _density_over(P: JointDistribution, labels: Sequence[str]) -> dict[tuple, Fraction]:
    """Marginal density keyed by configurations in the given label order."""
    mask = P.space.mask(labels)
    pos = positions(mask, P.space.size)
    ordered = [P.names[k] for k in pos]
    base_keyed = P.marginal_density(mask)
    if tuple(labels) == tuple(ordered):
        return base_keyed
    perm = [ordered.index(n) for n in labels]
    return {tuple(cfg[k] for k in perm): p for cfg, p in base_keyed.items()}


def lattice_product(Q: JointDistribution, R: JointDistribution) -> JointDistribution:
    """Independent pairing of two distributions over the same variables.

    Variable i of the result ranges over pairs (Q-value, R-value), encoded
    as q * card_R(i) + r.  The induced CI structure is exactly the
    intersection of the factors' structures.
    """
    if Q.names != R.names:
        raise ValueError("lattice product needs the same variables in the same order")
    cards = tuple(qc * rc for qc, rc in zip(Q.cardinalities, R.cardinalities))
    space = SampleSpace(Q.names, cards)
    density = {}
    for qcfg, qp in Q.items():
        for rcfg, rp in R.items():
            cfg = tuple(
                qv * rc + rv for qv, rv, rc in zip(qcfg, rcfg, R.cardinalities)
            )
            density[cfg] = qp * rp
    return JointDistribution(space, density)


# ---------------------------------------------------------------------------
# Entropy and divergence
# ---------------------------------------------------------------------------


def entropy_function(P: JointDistribution) -> SetFunction:
    """Entropy (natural log) of every sub-vector, as a float set function.

    The value at the empty set is exactly 0; the result is always a
    polymatroid rank function and its vanishing difference expressions
    match the exact CI structure of P.
    """
    base = P.space.base_set()
    values = []
    for m in base.subsets():
        if m == 0:
            values.append(0.0)
            continue
        h = 0.0
        for p in P.marginal_density(m).values():
            fp = float(p)
            h -= fp * math.log(fp)
        values.append(h)
    return SetFunction(base, tuple(values))


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
    total = 0.0
    for cfg, q in Q.items():
        r = R.prob(cfg)
        if r == 0:
            raise DominanceError(cfg)
        total += float(q) * math.log(float(q) / float(r))
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
        return double_markov_extend(
            sub, sub.space.mask(P.space.labels(A)), sub.space.mask(P.space.labels(B)),
            sub.space.mask(P.space.labels(C)),
        )
    if not (is_ci(P, A, B, C) and is_ci(P, A, C, B)):
        raise ValueError("premises violated: need A indep B | C and A indep C | B")

    n = P.space.size
    bc = B | C
    support = list(P.marginal_density(bc))
    pos_bc = positions(bc, n)
    b_in_bc = [pos_bc.index(v) for v in positions(B, n)]
    c_in_bc = [pos_bc.index(v) for v in positions(C, n)]

    parent = list(range(len(support)))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def union(k, l):
        rk, rl = find(k), find(l)
        if rk != rl:
            parent[max(rk, rl)] = min(rk, rl)

    for proj in (b_in_bc, c_in_bc):
        first_seen: dict[tuple, int] = {}
        for k, cfg in enumerate(support):
            key = tuple(cfg[t] for t in proj)
            if key in first_seen:
                union(first_seen[key], k)
            else:
                first_seen[key] = k

    class_of: dict[tuple, int] = {}
    class_ids: dict[int, int] = {}
    for k, cfg in enumerate(support):
        root = find(k)
        if root not in class_ids:
            class_ids[root] = len(class_ids)
        class_of[cfg] = class_ids[root]

    w_name = "w"
    serial = 1
    while w_name in P.names:
        serial += 1
        w_name = f"w{serial}"
    space = SampleSpace(
        P.names + (w_name,), P.cardinalities + (len(class_ids),)
    )
    density = {}
    for cfg, p in P.items():
        w = class_of[tuple(cfg[k] for k in pos_bc)]
        density[cfg + (w,)] = p
    return JointDistribution(space, density)
