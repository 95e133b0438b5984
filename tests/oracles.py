"""Independent reference implementations used to cross-check the library.

Everything here recomputes results from first principles with the most
direct (and slowest) method available: full-grid scans for the CI
factorization, direct summation for marginals and entropies, repeated
whole-table passes and a rule worklist for rule closure, a test of every
one of the 2**24 candidate structures for the enumerated families,
permutation orbits relabeled triplet by triplet, rules grounded afresh under
every assignment of their placeholders, and a worklist meet-closure.  None
of it shares code paths with the implementations under test, except the
reference random distribution, which pins the random stream of a sampler
and so builds its result through the public constructor.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque
from fractions import Fraction


def grid(cards):
    return itertools.product(*(range(c) for c in cards))


def marginal_table(density, cards, keep):
    """Marginal of a config->prob dict onto the positions in `keep`."""
    out = defaultdict(Fraction)
    for cfg in grid(cards):
        p = density.get(cfg, Fraction(0))
        if p:
            out[tuple(cfg[k] for k in keep)] += p
    return dict(out)


def packed_value(code, cards, k):
    """Value of variable k in a configuration code: variable k holds a field
    of (card - 1).bit_length() bits, variable 0 the most significant one."""
    widths = [(c - 1).bit_length() for c in cards]
    return code >> sum(widths[k + 1:]) & (1 << widths[k]) - 1


def packed_fields(cards, keep):
    """Bits of the fields of the variables at the positions in `keep`."""
    return sum(((1 << (cards[k] - 1).bit_length()) - 1) << sum(
        (c - 1).bit_length() for c in cards[k + 1:]) for k in keep)


def conditional_product_table(q, q_names, r, r_names, shared):
    """Density q(a,c) r(b,c) / m(c) of two config->prob dicts, over q's
    variables followed by r's unshared ones, with m the shared marginal of q;
    returns the names and the density in configuration order."""
    c_names = [n for n in q_names if n in shared]
    qc = [q_names.index(n) for n in c_names]
    rc = [r_names.index(n) for n in c_names]
    extra = [k for k, n in enumerate(r_names) if n not in shared]
    m = defaultdict(Fraction)
    for cfg, p in q.items():
        m[tuple(cfg[k] for k in qc)] += p
    out = {}
    for qcfg, pq in q.items():
        c = tuple(qcfg[k] for k in qc)
        for rcfg, pr in r.items():
            if tuple(rcfg[k] for k in rc) == c:
                out[qcfg + tuple(rcfg[k] for k in extra)] = pq * pr / m[c]
    return tuple(q_names) + tuple(r_names[k] for k in extra), dict(sorted(out.items()))


def lattice_product_table(q, r, r_cards):
    """Independent pairing of two config->prob dicts over the same
    variables, value pair (a, b) of variable i encoded as a * r_cards[i] + b;
    the density in configuration order."""
    out = {}
    for qcfg, pq in q.items():
        for rcfg, pr in r.items():
            out[tuple(a * rc + b for a, b, rc in zip(qcfg, rcfg, r_cards))] = pq * pr
    return dict(sorted(out.items()))


def brute_force_is_ci(density, cards, X, Y, Z):
    """Factorization test scanned over the entire configuration grid."""
    n = len(cards)
    pos = lambda mask: [k for k in range(n) if mask >> k & 1]
    m_xyz = marginal_table(density, cards, pos(X | Y | Z))
    m_xz = marginal_table(density, cards, pos(X | Z))
    m_yz = marginal_table(density, cards, pos(Y | Z))
    m_z = marginal_table(density, cards, pos(Z))
    zero = Fraction(0)
    for cfg in grid(cards):
        lhs = m_xyz.get(tuple(cfg[k] for k in pos(X | Y | Z)), zero) * m_z.get(
            tuple(cfg[k] for k in pos(Z)), zero
        )
        rhs = m_xz.get(tuple(cfg[k] for k in pos(X | Z)), zero) * m_yz.get(
            tuple(cfg[k] for k in pos(Y | Z)), zero
        )
        if lhs != rhs:
            return False
    return True


def entropy_of_subset(density, cards, keep):
    """Shannon entropy (natural log) of the marginal on `keep`."""
    table = marginal_table(density, cards, keep)
    return -sum(float(p) * math.log(float(p)) for p in table.values() if p > 0)


def delta_from_table(values, X, Y, Z):
    """Difference expression read off a subset-indexed value table."""
    return values[X | Z] + values[Y | Z] - values[X | Y | Z] - values[Z]


def ingleton_from_table(values, X, Y, Z, U):
    """Ten-term Ingleton expression read off a subset-indexed value table."""
    return (
        -values[X | Y]
        + values[X | Z]
        + values[X | U]
        + values[Y | Z]
        + values[Y | U]
        + values[Z | U]
        - values[Z]
        - values[U]
        - values[X | Z | U]
        - values[Y | Z | U]
    )


def all_pairs_polymatroid(values, n=4):
    """Polymatroid test from the definition on an exact value table:
    h(empty) = 0, monotone on every subset and one more variable, and
    submodular on every pair of subsets."""
    subsets = range(1 << n)
    return (
        values[0] == 0
        and all(values[I | 1 << i] >= values[I] for I in subsets for i in range(n))
        and all(
            values[I] + values[J] >= values[I | J] + values[I & J]
            for I in subsets
            for J in subsets
        )
    )


def naive_closure(bits, rules):
    """Fixpoint by repeated full passes over the rule list."""
    s = bits
    changed = True
    while changed:
        changed = False
        for r in rules:
            if r.premise_bits & ~s == 0 and r.conclusion_bits & ~s != 0:
                s |= r.conclusion_bits
                changed = True
    return s


def worklist_closure(bits, rules):
    """Fixpoint by a rule worklist: every rule is queued once, and a rule
    that adds triplets queues again each rule with one of them as a
    premise."""
    buckets = defaultdict(list)
    for ri, r in enumerate(rules):
        for b in range(r.premise_bits.bit_length()):
            if r.premise_bits >> b & 1:
                buckets[b].append(ri)
    pending = deque(range(len(rules)))
    queued = [True] * len(rules)
    s = bits
    while pending:
        ri = pending.popleft()
        queued[ri] = False
        r = rules[ri]
        new = r.conclusion_bits & ~s
        if r.premise_bits & ~s == 0 and new:
            s |= new
            for b in range(new.bit_length()):
                if new >> b & 1:
                    for rj in buckets[b]:
                        if not queued[rj]:
                            queued[rj] = True
                            pending.append(rj)
    return s


def closed_members(candidates, rules):
    """The candidates (a numpy integer array) closed under every
    (premise, conclusion) pair, in their given order."""
    import numpy as np

    ok = np.ones(candidates.shape, dtype=bool)
    for p, c in rules:
        ok &= ~(((candidates & p) == p) & ((candidates & c) != c))
    return candidates[ok]


def brute_force_closed_family(rules):
    """Every 24-bit mask closed under the (premise, conclusion) pairs,
    ascending, found by testing all 2**24 candidates in chunks of 2**21."""
    import numpy as np

    chunk = 1 << 21
    parts = [
        closed_members(np.arange(start, start + chunk, dtype=np.uint32), rules)
        for start in range(0, 1 << 24, chunk)
    ]
    return np.concatenate(parts)


def triplet_positions(n):
    """The frozen bit order rebuilt as the sorted list of (i, j, K) with
    i < j and K avoiding both, as a map from tuple to bit."""
    triplets = sorted(
        (i, j, K)
        for i, j in itertools.combinations(range(n), 2)
        for K in range(1 << n)
        if not K & (1 << i | 1 << j)
    )
    return {t: b for b, t in enumerate(triplets)}


def naive_image(bits, perm, n=4):
    """Image of a triplet bitmask under one relabeling of the variables,
    computed on explicit (i, j, K) tuples."""
    position = triplet_positions(n)
    image = 0
    for (i, j, K), b in position.items():
        if bits >> b & 1:
            pi, pj = sorted((perm[i], perm[j]))
            pK = sum(1 << perm[k] for k in range(n) if K >> k & 1)
            image |= 1 << position[(pi, pj, pK)]
    return image


def naive_orbit(bits, n=4):
    """Images of a triplet bitmask under all n! relabelings of the variables."""
    return {naive_image(bits, perm, n) for perm in itertools.permutations(range(n))}


def random_rational_setfn(rng, n=4, lo=-60, hi=60, max_den=12):
    """Random exact set-function table indexed by subset mask."""
    return tuple(
        Fraction(rng.randint(lo, hi), rng.randint(1, max_den)) for _ in range(1 << n)
    )


def naive_ground_rules(rules, n=4):
    """(premise, conclusion) bit pairs of abstract rules under each of the n!
    assignments of the placeholders X, Y, Z, U to the variables, no-ops
    dropped.  ``rules`` holds (premises, conclusions, bidirectional) with
    patterns of placeholder strings; every pattern (A, B | C) is expanded
    afresh for each assignment into the (i, j, K) with i in A, j in B and
    C <= K <= (A | B | C) minus {i, j}."""
    position = triplet_positions(n)

    def bits(patterns, assign):
        out = 0
        for pattern in patterns:
            A, B, C = (sum(1 << assign[ch] for ch in part) for part in pattern)
            for i, j in itertools.product(range(n), repeat=2):
                if A >> i & 1 and B >> j & 1:
                    free = (A | B | C) & ~(1 << i | 1 << j)
                    for K in range(1 << n):
                        if K & C == C and K & ~free == 0:
                            out |= 1 << position[(min(i, j), max(i, j), K)]
        return out

    pairs = set()
    for premises, conclusions, bidirectional in rules:
        for perm in itertools.permutations(range(n)):
            assign = dict(zip("XYZU", perm))
            p, c = bits(premises, assign), bits(conclusions, assign)
            pairs.add((p, c))
            if bidirectional:
                pairs.add((c, p))
    return {(p, c) for p, c in pairs if c & ~p}


def worklist_meet_closure(seeds, full=(1 << 24) - 1):
    """Meet-closure by a worklist: each new member is met with every seed
    until no meet is new.  The full structure is always a member."""
    seeds = sorted(set(seeds))
    family = set(seeds) | {full}
    queue = list(family)
    while queue:
        w = queue.pop()
        for s in seeds:
            c = w & s
            if c not in family:
                family.add(c)
                queue.append(c)
    return family


def fraction_random_distribution(
    rng, names=("x", "y", "z", "u"), cards=None, max_support=10, max_weight=9
):
    """The random sparse distribution of the property-test sampler, built
    from a Fraction density through the public constructor, with the same
    draws from rng in the same order."""
    from cinfer.dist import JointDistribution, SampleSpace

    if cards is None:
        cards = tuple(rng.choice((2, 2, 3)) for _ in names)
    configurations = list(grid(cards))
    size = rng.randint(2, min(max_support, len(configurations)))
    support = rng.sample(configurations, size)
    weights = [rng.randint(1, max_weight) for _ in support]
    total = sum(weights)
    density = {cfg: Fraction(w, total) for cfg, w in zip(support, weights)}
    return JointDistribution(SampleSpace(names, cards), density)
