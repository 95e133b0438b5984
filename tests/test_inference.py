"""Ground rules, closure, enumeration, meets, and orbits."""

import hashlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from cinfer import catalog, inference
from cinfer.dist import induced_ci_structure
from cinfer.inference import (
    GroundRule,
    RULES,
    ci_structure_family,
    closure,
    closure_bits,
    dump_family,
    ground_rules,
    is_closed,
    meet_closure_bits,
    orbit_bits,
    semigraphoid_family,
)
from cinfer.sets import BasicSet, bit_indices
from cinfer.structures import CIStructure, bit_count_for, triplet_index

from oracles import (
    brute_force_closed_family,
    closed_members,
    naive_closure,
    naive_ground_rules,
    naive_orbit,
    worklist_closure,
    worklist_meet_closure,
)

BASE = BasicSet(("x", "y", "z", "u"))
FULL = CIStructure(BASE, (1 << bit_count_for(4)) - 1)
IDX = triplet_index(4)


def bits_of(*statements):
    s = CIStructure.from_statements(BASE, statements)
    return s.to_bits()


# ground-rule census, generated once and frozen as a regression guard
SG_RULE_COUNT = 48
ALL_RULE_COUNT = 500

# sha256 of repr(relabeling_outputs()), computed with the per-permutation
# image tuples that preceded the packed image words
RELABELING_DIGEST = "1ae2ba234b1585d8991bf684824b5560035526f4949757ef8e4182d38602c4f6"


def relabeling_outputs() -> list:
    """Both ground-rule tuples and the sorted permutation-type
    representatives (orbit minima) of the semi-graphoids and CI structures."""
    return [
        ground_rules(BASE, "sg"),
        ground_rules(BASE, "all"),
        sorted({min(orbit_bits(b)) for b in semigraphoid_family()}),
        sorted({min(orbit_bits(b)) for b in ci_structure_family()}),
    ]


class TestGroundRules:
    def test_frozen_counts(self):
        assert len(ground_rules(BASE, "sg")) == SG_RULE_COUNT
        assert len(ground_rules(BASE, "all")) == ALL_RULE_COUNT

    def test_rules_deduplicated(self):
        rules = ground_rules(BASE, "all")
        assert len({(r.premise_bits, r.conclusion_bits) for r in rules}) == len(rules)

    def test_first_implication_instance(self):
        # premises {(x,y|),(x,y|z),(z,u|x),(z,u|y)} force (z,u|)
        premise = bits_of(
            ("x", "y", ""), ("x", "y", "z"), ("z", "u", "x"), ("z", "u", "y")
        )
        conclusion = bits_of(("z", "u", ""))
        assert GroundRule(premise, conclusion) in ground_rules(BASE, "all")

    def test_equivalence_emits_both_directions(self):
        lhs = bits_of(
            ("x", "y", ""), ("x", "y", "zu"), ("z", "u", "x"), ("z", "u", "y")
        )
        rhs = bits_of(
            ("x", "y", "z"), ("x", "y", "u"), ("z", "u", ""), ("z", "u", "xy")
        )
        rules = set(ground_rules(BASE, "all"))
        assert GroundRule(lhs, rhs) in rules
        assert GroundRule(rhs, lhs) in rules

    def test_compound_conclusions_expand(self):
        # the second implication concludes (z, x+u | ): four elementary bits
        premise = bits_of(
            ("x", "y", ""), ("x", "z", "u"), ("z", "u", "x"), ("z", "u", "y")
        )
        conclusion = bits_of(
            ("x", "z", ""), ("x", "z", "u"), ("z", "u", ""), ("z", "u", "x")
        )
        assert GroundRule(premise, conclusion) in ground_rules(BASE, "all")

    def test_exchange_rules_respect_any_base_size(self):
        five = BasicSet(("a", "b", "c", "d", "e"))
        rules = ground_rules(five, "sg")
        assert all(
            r.premise_bits.bit_count() == 2 and r.conclusion_bits.bit_count() == 2
            for r in rules
        )
        with pytest.raises(ValueError):
            ground_rules(five, "all")

    def test_matches_per_permutation_oracle(self):
        abstract = [
            (r.premises, r.conclusions, r.bidirectional)
            for r in RULES.values()
            if r.id[0] in "EI"
        ]
        assert len(abstract) == 24
        exchange = {(r.premise_bits, r.conclusion_bits) for r in ground_rules(BASE, "sg")}
        expected = naive_ground_rules(abstract) | exchange
        assert len(expected) == ALL_RULE_COUNT
        assert {(r.premise_bits, r.conclusion_bits) for r in ground_rules(BASE, "all")} == expected

    def test_rule_table_ids(self):
        assert set(RULES) == (
            {"S0", "S1", "S2"}
            | {f"E{k}" for k in range(1, 6)}
            | {f"I{k}" for k in range(1, 20)}
        )
        assert all(RULES[f"E{k}"].bidirectional for k in range(1, 6))
        assert RULES["S2"].bidirectional
        assert not any(RULES[f"I{k}"].bidirectional for k in range(1, 20))


class TestClosure:
    def test_exchange_block(self):
        s = CIStructure.from_statements(BASE, [("x", "y", ""), ("x", "z", "y")])
        closed = closure(s)
        expected = CIStructure.from_statements(
            BASE, [("x", "y", ""), ("x", "z", "y"), ("x", "z", ""), ("x", "y", "z")]
        )
        assert closed == expected

    def test_fixed_points(self):
        assert closure(CIStructure(BASE, 0)) == CIStructure(BASE, 0)
        assert closure(FULL) == FULL

    def test_matches_naive_fixpoint(self):
        rng = random.Random(101)
        for ruleset in ("sg", "all"):
            rules = ground_rules(BASE, ruleset)
            for _ in range(150):
                seed = rng.getrandbits(24)
                assert closure_bits(seed, 4, ruleset) == naive_closure(seed, rules)

    @pytest.mark.parametrize("n, ruleset", [(4, "all"), (3, "sg"), (4, "sg"), (5, "sg"), (6, "sg")])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sparse_seeds_match_both_oracles(self, n, ruleset, data):
        # a few seed triplets leave most rules blocked and take the longest
        # chains of rounds to close
        positions = data.draw(st.sets(st.integers(0, bit_count_for(n) - 1), max_size=8))
        seed = sum(1 << b for b in positions)
        rules = ground_rules(BasicSet(tuple("abcdef"[:n])), ruleset)
        assert closure_bits(seed, n, ruleset) == worklist_closure(seed, rules)
        assert worklist_closure(seed, rules) == naive_closure(seed, rules)

    @pytest.mark.parametrize("ruleset", ["sg", "all"])
    @settings(max_examples=60, deadline=None)
    @given(positions=st.sets(st.integers(0, 23), min_size=9, max_size=24))
    def test_dense_seeds_match_worklist(self, ruleset, positions):
        # many seed triplets leave many rules ready and few missing bits to
        # scan; uniform 24-bit seeds rarely hold more than 18
        seed = sum(1 << b for b in positions)
        assert closure_bits(seed, 4, ruleset) == worklist_closure(seed, ground_rules(BASE, ruleset))

    def test_extensive_monotone_idempotent(self):
        rng = random.Random(103)
        for _ in range(10_000):
            seed = rng.getrandbits(24)
            c = closure_bits(seed, 4, "all")
            assert seed & ~c == 0  # extensive
            assert closure_bits(c, 4, "all") == c  # idempotent
            bigger = seed | rng.getrandbits(24)
            assert c & ~closure_bits(bigger, 4, "all") == 0  # monotone

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, (1 << 24) - 1),
        st.integers(0, (1 << 24) - 1),
        st.sampled_from(("sg", "all")),
    )
    def test_closure_operator_laws(self, seed, extra, ruleset):
        c = closure_bits(seed, 4, ruleset)
        assert seed & ~c == 0  # extensive
        assert closure_bits(c, 4, ruleset) == c  # idempotent
        assert c & ~closure_bits(seed | extra, 4, ruleset) == 0  # monotone

    def test_is_closed_examples(self):
        assert is_closed(induced_ci_structure(catalog.get("EX1").distribution))
        assert not is_closed(
            CIStructure.from_statements(BASE, [("x", "y", ""), ("x", "z", "y")])
        )
        assert is_closed(FULL)

    def test_closed_iff_closure_is_identity(self):
        rng = random.Random(107)
        for _ in range(300):
            seed = rng.getrandbits(24)
            assert (closure_bits(seed, 4, "all") == seed) == is_closed(CIStructure(BASE, seed))

    def test_catalog_structures_are_closed(self, catalog_entries):
        for entry in catalog_entries:
            if entry.distribution is None:
                continue
            assert is_closed(induced_ci_structure(entry.distribution)), entry.id

    def test_exchange_closure_on_five_variables(self):
        five = BasicSet(("a", "b", "c", "d", "e"))
        seed = CIStructure.from_statements(five, [("a", "b", ""), ("a", "c", "b")])
        closed = closure(seed)  # defaults to the exchange rules off a 4-base
        expected = CIStructure.from_statements(
            five, [("a", "b", ""), ("a", "c", "b"), ("a", "c", ""), ("a", "b", "c")]
        )
        assert closed == expected
        assert is_closed(closed)


class TestEngineBound:
    @pytest.mark.parametrize("n", [9, 10])
    def test_entry_points_reject_large_bases(self, n):
        base = BasicSet(tuple("abcdefghij"[:n]))
        for call in (
            lambda: closure(CIStructure(base, 0)),
            lambda: is_closed(CIStructure(base, 0)),
            lambda: ground_rules(base, "sg"),
        ):
            with pytest.raises(ValueError, match=f"at most 8 variables, got {n}$"):
                call()

    def test_rejected_before_grounding(self):
        caches = (inference._ground_rules_cached, inference._Engine)
        before = [c.cache_info().currsize for c in caches]
        start = time.perf_counter()
        with pytest.raises(ValueError):
            closure_bits(1, 9, "all")
        assert time.perf_counter() - start < 0.5
        assert [c.cache_info().currsize for c in caches] == before


class TestEnumeration:
    def test_semigraphoid_family_membership(self, sg_family):
        assert len(sg_family) == 26_424
        for bits in sg_family[::500]:
            assert closure_bits(bits, 4, "sg") == bits
        assert 0 in sg_family  # the empty structure
        assert (1 << 24) - 1 in sg_family  # the full structure

    def test_ci_family_contained_in_semigraphoids(self, sg_family, ci_family):
        assert len(ci_family) == 18_478
        sg = set(sg_family)
        assert all(b in sg for b in ci_family[::250])
        for bits in ci_family[::250]:
            assert closure_bits(bits, 4, "all") == bits

    def test_families_match_brute_force_scan(self, sg_family, ci_family):
        # every one of the 2**24 candidates tested against the rule pairs,
        # sharing no code with the block join or the CI filter
        def pairs(ruleset):
            return [(r.premise_bits, r.conclusion_bits) for r in ground_rules(BASE, ruleset)]

        scanned = brute_force_closed_family(pairs("sg"))
        assert sg_family == tuple(scanned.tolist())
        assert ci_family == tuple(closed_members(scanned, pairs("all")).tolist())

    def test_semigraphoids_over_three_variables(self):
        # the 22 semi-graphoids over three variables: the closure engine's
        # fixed points against a scan of all 2**6 triplet sets with the
        # oracle's fixpoint
        rules = ground_rules(BasicSet(("a", "b", "c")), "sg")
        scanned = [bits for bits in range(1 << 6) if naive_closure(bits, rules) == bits]
        assert len(scanned) == 22
        assert [bits for bits in range(1 << 6) if closure_bits(bits, 3, "sg") == bits] == scanned

    def test_block_join_takes_rules_over_two_pairs_only(self):
        # the join reads each exchange instance as a rule over two blocks of
        # 2**(n-2) triplet bits, one per variable pair; it runs at n = 4 only,
        # and the instances span exactly two pairs at n = 3 and 5 as well
        for n in (3, 4, 5):
            width = 1 << (n - 2)
            spans = {
                len({b // width for b in bit_indices(p | c)})
                for p, c in inference._exchange_instances(n)
            }
            assert spans == {2}, n

    def test_non_members_fail_the_scalar_check(self, sg_family, ci_family):
        # the enumerated families and the scalar closedness test agree on
        # candidates outside the families too
        rng = random.Random(113)
        sg = set(sg_family)
        ci = set(ci_family)
        for _ in range(2000):
            bits = rng.getrandbits(24)
            assert (bits in sg) == (closure_bits(bits, 4, "sg") == bits)
            assert (bits in ci) == (closure_bits(bits, 4, "all") == bits)

    def test_family_is_intersection_closed(self, ci_family):
        rng = random.Random(109)
        members = set(ci_family)
        pool = list(members)
        for _ in range(10_000):
            a, b = rng.choice(pool), rng.choice(pool)
            assert a & b in members

    def test_dump_format(self, tmp_path):
        path = tmp_path / "sg.txt"
        family = semigraphoid_family()
        dump_family(str(path), family, False)
        lines = path.read_text().splitlines()
        assert len(lines) == len(family) == 26_424
        assert lines[0] == "000000"
        assert lines[-1] == "ffffff"
        assert all(len(line) == 6 for line in lines[:100])

    def test_human_dump(self, tmp_path):
        path = tmp_path / "family.txt"
        dump_family(str(path), [0b1, 0], human=True)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("000001  ")
        assert "(x,y|)" in lines[0]


class TestMeets:
    def test_meet_is_intersection(self):
        s1 = CIStructure.from_statements(BASE, [("x", "y", ""), ("z", "u", "")])
        s2 = CIStructure.from_statements(BASE, [("x", "y", ""), ("x", "u", "z")])
        assert s1 & s2 == CIStructure.from_statements(BASE, [("x", "y", "")])
        assert s1 & s1 == s1

    def test_meet_closure_contains_pairwise_meets(self):
        seeds = [
            induced_ci_structure(catalog.get(eid).distribution).to_bits()
            for eid in ("EX1", "CON1", "CON6")
        ]
        family = meet_closure_bits(seeds)
        assert FULL.to_bits() in family
        for a in seeds:
            for b in seeds:
                assert a & b in family

    def test_meet_closure_bits_of_single_seed(self):
        seed = bits_of(("x", "y", ""))
        assert meet_closure_bits([seed]) == {seed, (1 << 24) - 1}

    def test_meet_closure_bits_matches_worklist_oracle(self):
        irreducibles = [m.to_bits() for m in catalog.all_irreducibles()]
        rng = random.Random(9292)
        for _ in range(50):
            seeds = rng.sample(irreducibles, rng.randint(1, len(irreducibles)))
            assert meet_closure_bits(seeds) == worklist_meet_closure(seeds)
        assert meet_closure_bits([]) == worklist_meet_closure([]) == {(1 << 24) - 1}
        doubled = irreducibles[:20] * 2 + irreducibles[5:15]
        assert meet_closure_bits(doubled) == worklist_meet_closure(irreducibles[:20])


class TestOrbits:
    def test_counterexample_orbit_sizes(self):
        assert len(orbit_bits(induced_ci_structure(catalog.get("EX1").distribution).bits)) == 6
        assert len(orbit_bits(induced_ci_structure(catalog.get("EX2").distribution).bits)) == 24
        assert orbit_bits(FULL.bits) == {FULL.bits}

    def test_orbit_bits_agrees(self, ci_family):
        ex3 = induced_ci_structure(catalog.get("EX3").distribution).bits
        irreducibles = [m.to_bits() for m in catalog.all_irreducibles()]
        sample = random.Random(1098).sample(ci_family, 500)
        for bits in [ex3] + irreducibles + sample:
            assert orbit_bits(bits) == naive_orbit(bits)

    def test_permutation_type_counts(self, sg_family, ci_family):
        # permutation types of four-variable semi-graphoids and CI structures
        assert len({min(orbit_bits(b)) for b in sg_family}) == 1_512
        assert len({min(orbit_bits(b)) for b in ci_family}) == 1_098

    def test_ci_type_count_recounted_naively(self, ci_family):
        # the 1,098 CI types again, one naive orbit per type, with each orbit
        # inside the family.  The semi-graphoids' 1,512 are counted through
        # orbit_bits alone: with their naive walk as well this test took
        # 1.7-2.4 s, as long as the slowest test in the suite
        members, seen, types = set(ci_family), set(), 0
        for bits in ci_family:
            if bits not in seen:
                images = naive_orbit(bits)
                assert images <= members
                seen |= images
                types += 1
        assert types == 1_098

    def test_outputs_match_pinned_digest(self):
        digest = hashlib.sha256(repr(relabeling_outputs()).encode()).hexdigest()
        assert digest == RELABELING_DIGEST

    def test_orbit_of_closed_structure_is_closed(self):
        s = induced_ci_structure(catalog.get("CON4").distribution)
        assert all(is_closed(CIStructure(s.base, b)) for b in orbit_bits(s.bits))
