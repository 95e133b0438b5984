"""Catalog entries, claim verification, and the irreducible census."""

import math
from fractions import Fraction

import pytest

from cinfer import catalog
from cinfer.dist import entropy_function, induced_ci_structure
from cinfer.inference import closure_bits, meet_closure_bits, orbit
from cinfer.setfn import rank_functions_equal_upto_scale


class TestEntries:
    def test_entry_ids(self):
        assert len(catalog.ENTRY_IDS) == 16
        assert catalog.get("EX1").id == "EX1"
        with pytest.raises(KeyError):
            catalog.get("EX9")

    def test_fifth_counterexample_rows(self):
        P = catalog.get("EX5").distribution
        rows = dict(P.items())
        assert len(rows) == 10
        assert sum(rows.values()) == 1
        assert rows[(0, 0, 0, 0)] == Fraction(18, 64)
        assert rows[(0, 1, 1, 0)] == Fraction(7, 64)

    def test_ternary_construction_rows(self):
        P = catalog.get("CON7").distribution
        assert P.cardinalities == (3, 3, 3, 3)
        assert len(P.support()) == 9
        assert all(p == Fraction(1, 9) for _, p in P.items())

    def test_independent_bits(self):
        P = catalog.get("FULL").distribution
        assert len(P.support()) == 16
        assert len(induced_ci_structure(P)) == 24

    def test_rank_only_entry(self):
        e = catalog.get("HXY")
        assert e.distribution is None
        assert e.rank_function is not None
        assert e.rank_function.values[0b0011] == 4


class TestVerification:
    def test_every_entry_verifies(self, catalog_entries):
        for entry in catalog_entries:
            report = catalog.verify(entry)
            assert report.ok, (entry.id, report.failures())

    def test_claimed_statement_counts(self):
        counts = [len(catalog.get(eid).claimed_statements) for eid in catalog.CONSTRUCTION_IDS]
        assert counts == [20, 18, 18, 18, 18, 14, 12, 12, 12]

    def test_proportionality_constants(self):
        for eid, base in [("CON1", 2), ("CON7", 3), ("CON8", 2), ("CON9", 2)]:
            entry = catalog.get(eid)
            h = entropy_function(entry.distribution)
            ok, c = rank_functions_equal_upto_scale(h, entry.rank_function)
            assert ok
            assert c == pytest.approx(math.log(base), abs=1e-12)

    def test_broken_claim_is_reported(self):
        from cinfer.sets import replace

        entry = catalog.get("CON1")
        broken = replace(entry, claimed_orbit_size=5)
        report = catalog.verify(broken)
        assert not report.ok
        assert any("orbit" in f for f in report.failures())


class TestIrreducibles:
    def test_census(self):
        members = catalog.all_irreducibles()
        assert len(members) == 92
        assert len({m.to_bits() for m in members}) == 92
        sizes = catalog.irreducible_orbit_sizes()
        assert sizes == [6, 4, 1, 4, 1, 6, 1, 4, 4, 6, 24, 24, 6, 1]
        assert sum(sizes) == 92

    def test_full_structure_included(self):
        bits = {m.to_bits() for m in catalog.all_irreducibles()}
        assert (1 << 24) - 1 in bits

    def test_members_are_closed(self):
        assert all(closure_bits(m.bits, 4, "all") == m.bits for m in catalog.all_irreducibles())

    def test_submaximal_structures_are_coatoms(self, ci_family):
        # the only closed strict superset of each construction's structure
        # is the full structure
        full = (1 << 24) - 1
        for eid in catalog.CONSTRUCTION_IDS:
            bits = catalog.get(eid).claimed_statements.to_bits()
            supersets = {f for f in ci_family if f & bits == bits and f != bits}
            assert supersets == {full}, eid

    def test_counterexample_structures_are_meet_irreducible(self):
        # dropping any single counterexample structure from the seed list
        # shrinks the meet-closure: it is not an intersection of others
        seeds = [m.to_bits() for m in catalog.all_irreducibles()]
        whole = len(meet_closure_bits(seeds))
        assert whole == 18_478
        for eid in ("EX1", "EX2", "EX3", "EX4"):
            dropped = catalog.get(eid).claimed_statements.to_bits()
            rest = [b for b in seeds if b != dropped]
            assert len(meet_closure_bits(rest)) < whole, eid

    def test_orbits_of_types_are_disjoint(self):
        reps = [catalog.get(eid).claimed_statements for eid in catalog.CONSTRUCTION_IDS]
        reps += [catalog.get(f"EX{k}").claimed_statements for k in range(1, 5)]
        seen = set()
        for rep in reps:
            members = {m.to_bits() for m in orbit(rep)}
            assert not members & seen
            seen |= members
