"""Named verification checks aggregating every built-in reference result.

Each check re-derives one family of documented values from scratch: the
enumeration counts, the lattice equivalence, the irreducible census, the
counterexample certificates, the catalog claims, the rewriting identities,
the derivation schemas, the conditional inequalities on the catalog
distributions, and the exact distribution-algebra identities.  The
`verify-paper` CLI verb runs them all; the acceptance test suite asserts
them one by one.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import catalog, inequalities
from .dist import (
    JointDistribution,
    SampleSpace,
    _grid,
    conditional_product,
    double_markov_extend,
    entropy_function,
    induced_ci_structure,
    is_ci,
    kl_divergence,
    lattice_product,
    marginal,
)
from .inference import ci_structure_family, meet_closure_bits, semigraphoid_family
from .sets import BasicSet, Report, quoted
from .setfn import (
    FLOAT_TOL,
    SetFunction,
    delta,
    ingleton,
    ingleton_of_singletons,
    is_matroid,
    is_polymatroid,
    is_tight,
    mask_form,
)

SEMIGRAPHOID_COUNT = 26_424
CI_STRUCTURE_COUNT = 18_478
IRREDUCIBLE_COUNT = 92
ORBIT_TYPE_COUNT = 14
CONSTRUCTION_ORBITS = (6, 4, 1, 4, 1, 6, 1, 4, 4)
COUNTEREXAMPLE_ORBITS = (6, 24, 24, 6)
CLAIMED_STATEMENT_COUNTS = (20, 18, 18, 18, 18, 14, 12, 12, 12)

_BASE4 = BasicSet(("x", "y", "z", "u"))


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def check_semigraphoid_count() -> tuple[bool, str]:
    count = len(semigraphoid_family())
    return count == SEMIGRAPHOID_COUNT, f"count = {count:,} (expected {SEMIGRAPHOID_COUNT:,})"


def check_ci_structure_count() -> tuple[bool, str]:
    count = len(ci_structure_family())
    return count == CI_STRUCTURE_COUNT, f"count = {count:,} (expected {CI_STRUCTURE_COUNT:,})"


def check_lattice_equivalence() -> tuple[bool, str]:
    seeds = [s.to_bits() for s in catalog.all_irreducibles()]
    closed = meet_closure_bits(seeds)
    family = ci_structure_family()
    return len(closed) == len(family) and closed.issuperset(family), (
        f"meet closure has {len(closed):,} members, rule-closed family {len(family):,}"
    )


def check_irreducible_census() -> tuple[bool, str]:
    members = catalog.all_irreducibles()
    sizes = catalog.irreducible_orbit_sizes()
    expected = list(CONSTRUCTION_ORBITS + COUNTEREXAMPLE_ORBITS + (1,))
    ok = (
        len(members) == IRREDUCIBLE_COUNT
        and len({s.to_bits() for s in members}) == IRREDUCIBLE_COUNT
        and len(sizes) == ORBIT_TYPE_COUNT
        and sizes == expected
        and sum(sizes) == IRREDUCIBLE_COUNT
    )
    return ok, f"{len(members)} members in {len(sizes)} orbit types of sizes {sizes}"


def check_example5_closed_form() -> tuple[bool, str]:
    report = inequalities.verify_counterexample(5)
    return report.ok, (
        f"16 * ingleton = {16 * report.value:.9f}"
        + ("" if report.ok else "; " + "; ".join(report.failures()))
    )


def check_counterexamples() -> tuple[bool, str]:
    reports = [inequalities.verify_counterexample(k) for k in range(1, 5)]
    ok = all(r.ok for r in reports)
    values = ", ".join(f"{r.name}: {r.value:.6f}" for r in reports)
    failures = "; ".join(f for r in reports for f in r.failures())
    return ok, values + (f"; {failures}" if failures else "")


def check_catalog() -> tuple[bool, str]:
    reports = catalog.verify_all()
    ok = all(r.ok for r in reports)
    counts = [
        len(catalog.get(eid).claimed_statements)
        for eid in catalog.CONSTRUCTION_IDS
    ]
    ok = ok and tuple(counts) == CLAIMED_STATEMENT_COUNTS
    failures = "; ".join(f"{r.name} {f}" for r in reports for f in r.failures())
    return ok, f"statement counts {counts}" + (f"; {failures}" if failures else "")


# The (numerator, denominator) pairs a random rational table draws from.
_RATIONALS = tuple(itertools.product(range(-60, 61), range(1, 13)))


def check_mask_identities() -> tuple[bool, str]:
    rng = random.Random(414213)
    x, y, z, u = 1, 2, 4, 8
    for _ in range(1000):
        # the random rational table times its common denominator: every
        # identity is linear, so it holds on h exactly when on D * h
        pairs = rng.choices(_RATIONALS, k=16)
        D = math.lcm(*[d for _, d in pairs])
        h = SetFunction(_BASE4, tuple([n * (D // d) for n, d in pairs]))
        direct = ingleton(h, x, y, z, u)
        for k in range(1, 6):
            if mask_form(h, k, x, y, z, u) != direct:
                return False, f"rewriting {k} differs on a random rational function"
    # symbolic equality on the indicator basis
    for k in range(1, 6):
        if not inequalities._functionals_equal(
            lambda h: ingleton(h, x, y, z, u), lambda h: mask_form(h, k, x, y, z, u)
        ):
            return False, f"rewriting {k} differs on an indicator function"
    return True, "5 rewritings exact on 1,000 random rational functions and the indicator basis"


def check_hxy() -> tuple[bool, str]:
    h = catalog.get("HXY").rank_function
    poly = is_polymatroid(h).ok
    tight = is_tight(h)
    matroid = is_matroid(h)
    value = ingleton_of_singletons(h)
    ok = poly and tight and not matroid and value == Fraction(-1)
    return ok, f"polymatroid={poly}, tight={tight}, matroid={matroid}, ingleton={value}"


def check_derivations() -> tuple[bool, str]:
    schemas = inequalities.load_derivation_schemas()
    if len(schemas) != 19:
        return False, f"expected 19 schemas, found {len(schemas)}"
    good = all(inequalities.verify_derivation(s) for s in schemas)
    mutations = [
        inequalities.verify_derivation(m)
        for s in schemas
        for m in inequalities.schema_mutations(s)
    ]
    ok = good and not any(mutations) and len(mutations) == 57
    return ok, (
        f"19 schemas verify: {good}; {len(mutations)} single-field mutations all fail: "
        f"{not any(mutations)}"
    )


def check_conditional_inequalities() -> tuple[bool, str]:
    worst = 0.0
    for rule in range(1, 6):
        report = inequalities.verify_conditional_inequality(rule)
        if not report.ok:
            return False, f"{report.name}: {'; '.join(report.failures())}"
        worst = min(worst, report.value)
    witnesses = sum(e.distribution is not None for e in catalog.entries())
    sixth = inequalities.check_sixth_failure()
    if not sixth.ok:
        return False, f"{sixth.name}: {'; '.join(sixth.failures())}"
    return True, (
        f"5 rules on {witnesses} catalog distributions x 24 assignments, minimum "
        f"ingleton {worst:.3e}; sixth premise pair refuted with value {sixth.value:.6f}"
    )


def _partitions(names, blocks: int, nonempty: tuple[int, ...]):
    """Ordered assignments of names into `blocks` groups, with the listed
    block indices required non-empty."""
    for labels in itertools.product(range(blocks), repeat=len(names)):
        groups = tuple(
            tuple(n for n, g in zip(names, labels) if g == b) for b in range(blocks)
        )
        if all(groups[b] for b in nonempty):
            yield groups


@lru_cache(maxsize=None)
def _space(cards: tuple[int, ...]) -> SampleSpace:
    """The sample space over x, y, z, u with these cardinalities, built once
    for each of the 16 tuples that random distributions draw."""
    return SampleSpace(("x", "y", "z", "u"), cards)


def random_distribution(rng: random.Random) -> JointDistribution:
    """Random sparse rational distribution on x, y, z, u, each of
    cardinality 2 or 3: integer weights from 1 to 9 on 2 to 10 random
    configurations, over their sum."""
    cards = tuple(rng.choice((2, 2, 3)) for _ in range(4))
    support = rng.sample(_grid(cards), rng.randint(2, 10))
    weights = [rng.randint(1, 9) for _ in support]
    return JointDistribution._from_weights(
        _space(cards), dict(zip(support, weights)), sum(weights)
    )


@lru_cache(maxsize=None)
def _masks(names: tuple[str, ...], groups: tuple[tuple[str, ...], ...]) -> tuple[int, ...]:
    """The mask of each label group in the variable order ``names``: a
    partition's masks are converted once per order, not once per use."""
    return tuple(map(BasicSet(names).mask, groups))


def check_distribution_algebra() -> tuple[bool, str]:
    rng = random.Random(577215)
    names = ("x", "y", "z", "u")

    # conditional product: marginal recovery and independence, exact
    partitions = list(_partitions(names, 3, (0, 1)))
    for _ in range(500):
        A, B, C = partitions[rng.randrange(len(partitions))]
        source = random_distribution(rng)
        Q = marginal(source, A + C)
        R = marginal(source, B + C)
        P = conditional_product(Q, R, A, B, C)
        if (
            marginal(P, A + C).reordered(Q.names) != Q
            or marginal(P, B + C).reordered(R.names) != R
        ):
            return False, "conditional product failed to recover a factor marginal"
        if not is_ci(P, *_masks(P.names, (A, B, C))):
            return False, "conditional product failed the independence postcondition"

    # divergence from the conditional product of own marginals equals the
    # difference expression of the entropy function
    dist_entries = [e for e in catalog.entries() if e.distribution is not None]
    for entry in dist_entries:
        P = entry.distribution
        h = entropy_function(P)
        # each factor marginal once per entry, keeping its C-marginals for reuse
        factors = {m: marginal(P, m) for m in range(1, P.space.full_mask)}
        for A, B, C in partitions:
            mA, mB, mC = _masks(P.names, (A, B, C))
            Pbar = conditional_product(factors[mA | mC], factors[mB | mC], A, B, C)
            div = kl_divergence(P, Pbar.reordered(P.names))
            dd = float(delta(h, mA, mB, mC))
            if abs(div - dd) > FLOAT_TOL:
                return False, (
                    f"{entry.id}: divergence {div!r} vs difference {dd!r} at {(A, B, C)}"
                )

    # intersection-variable extension wherever the double-Markov premises hold
    triggered = 0
    for entry in dist_entries:
        P = entry.distribution
        for A, B, C in _partitions(names, 3, (0, 1, 2)):
            mA, mB, mC = _masks(P.names, (A, B, C))
            if not (is_ci(P, mA, mB, mC) and is_ci(P, mA, mC, mB)):
                continue
            triggered += 1
            ext = double_markov_extend(P, mA, mB, mC)
            # W is appended as the last variable, so P's masks hold in ext
            w = ext.mask(ext.names[-1])
            if not is_ci(ext, w, w, mB):
                return False, f"{entry.id}: extension variable not a function of {B}"
            if not is_ci(ext, w, w, mC):
                return False, f"{entry.id}: extension variable not a function of {C}"
            if not is_ci(ext, mA, mB | mC, w):
                return False, f"{entry.id}: extension failed the independence conclusion"

    # lattice products intersect CI structures, on all catalog pairs
    for i, e1 in enumerate(dist_entries):
        for e2 in dist_entries[i:]:
            Q, R = e1.distribution, e2.distribution
            product = lattice_product(Q, R)
            rhs = induced_ci_structure(Q) & induced_ci_structure(R)
            if induced_ci_structure(product) != rhs:
                return False, f"lattice product {e1.id} x {e2.id} structure mismatch"

    pair_count = len(dist_entries) * (len(dist_entries) + 1) // 2
    return True, (
        f"500 conditional products exact; divergence identity on {len(dist_entries)} "
        f"entries x {len(partitions)} partitions; {triggered} double-Markov extensions; "
        f"{pair_count} lattice products"
    )


CHECKS: dict[str, Callable[[], tuple[bool, str]]] = {
    "semigraphoid-count": check_semigraphoid_count,
    "ci-structure-count": check_ci_structure_count,
    "lattice-equivalence": check_lattice_equivalence,
    "irreducible-census": check_irreducible_census,
    "example5-closed-form": check_example5_closed_form,
    "counterexamples": check_counterexamples,
    "catalog": check_catalog,
    "mask-identities": check_mask_identities,
    "hxy": check_hxy,
    "derivations": check_derivations,
    "conditional-inequalities": check_conditional_inequalities,
    "distribution-algebra": check_distribution_algebra,
}


def run_check(name: str) -> Report:
    """One check as a report with one row, named after the check."""
    if name not in CHECKS:
        raise KeyError(f"unknown check {quoted(name)}; known: {', '.join(CHECKS)}")
    start = time.perf_counter()
    ok, detail = CHECKS[name]()
    return Report(name, ((name, ok, detail),), time.perf_counter() - start, None)


def run_all(only: str | None = None) -> list[Report]:
    names = list(CHECKS) if only is None else [only]
    return [run_check(name) for name in names]
