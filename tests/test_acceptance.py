"""Acceptance suite: every documented reference result at its stated
tolerance, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Budgets are wall-clock upper bounds; the enumerations
actually finish in under a second.
"""

import itertools
import json
import math
import time
from pathlib import Path

from cinfer import catalog, checks, dist, inequalities, inference, setfn
from cinfer.cli import main
from cinfer.inference import ci_structure_family, meet_closure_bits
from cinfer.sets import Report, replace

# The detail line of every verify-paper check, without its time: a change that
# only speeds the battery up must leave each one byte-identical.
DETAILS = json.loads((Path(__file__).parent / "verify_paper_details.json").read_text())


def _report(number: int, name: str, ok: bool, seconds: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} {name} ({seconds:.1f}s): {detail}")


def run_criterion(number: int, name: str, budget: float) -> Report:
    result = checks.run_check(name)
    _report(number, name, result.ok, result.seconds, result.detail)
    assert result.ok, f"criterion {number} ({name}): {result.detail}"
    assert result.seconds <= budget, f"criterion {number} exceeded {budget}s budget"
    assert result.detail == DETAILS[name]
    return result


# what a plant in the ground rules must reach: the rules, the closure
# engines and both families are cached per process
_RULE_CACHES = (
    inference._ground_rules_cached,
    inference._Engine,
    inference._semigraphoids,
    inference._ci_structures,
)


def _check_regrounded(monkeypatch, check):
    """The check's result from rules grounded afresh under the plant in
    place; the plant is undone and the real rules re-grounded afterwards."""
    for cache in _RULE_CACHES:
        cache.cache_clear()
    try:
        return check()
    finally:
        monkeypatch.undo()
        for cache in _RULE_CACHES:
            cache.cache_clear()


class TestCountCriteria:
    def test_criterion_1_semigraphoid_count(self, capsys):
        # the CLI contract: `enumerate --rules sg` prints exactly 26424
        start = time.perf_counter()
        code = main(["enumerate", "--rules", "sg", "--json"])
        elapsed = time.perf_counter() - start
        out = json.loads(capsys.readouterr().out)
        ok = code == 0 and out["count"] == 26_424
        with capsys.disabled():
            _report(1, "semigraphoid-count", ok, elapsed, f"CLI count = {out['count']:,}")
        assert ok
        assert elapsed <= 300, "semi-graphoid enumeration exceeded 5 minutes"

    def test_criterion_2_ci_structure_count(self, capsys):
        start = time.perf_counter()
        code = main(["enumerate", "--rules", "all", "--json"])
        elapsed = time.perf_counter() - start
        out = json.loads(capsys.readouterr().out)
        ok = code == 0 and out["count"] == 18_478
        with capsys.disabled():
            _report(2, "ci-structure-count", ok, elapsed, f"CLI count = {out['count']:,}")
        assert ok
        assert elapsed <= 900, "full-rule enumeration exceeded 15 minutes"

    def test_semigraphoid_count_fails_without_one_exchange_instance(self, monkeypatch):
        # the enumerator reads its rules from the grounding: one exchange
        # direction fewer admits more structures
        real = inference._exchange_instances
        monkeypatch.setattr(inference, "_exchange_instances", lambda n: real(n)[1:])
        assert _check_regrounded(monkeypatch, checks.check_semigraphoid_count) == (
            False, "count = 28,171 (expected 26,424)"
        )
        assert checks.check_semigraphoid_count() == (True, DETAILS["semigraphoid-count"])

    def test_ci_structure_count_fails_without_rule_i7(self, monkeypatch):
        # a copy without I7, so the real table keeps its order
        without = {k: r for k, r in inference.RULES.items() if k != "I7"}
        monkeypatch.setattr(inference, "RULES", without)
        assert _check_regrounded(monkeypatch, checks.check_ci_structure_count) == (
            False, "count = 18,502 (expected 18,478)"
        )
        assert checks.check_ci_structure_count() == (True, DETAILS["ci-structure-count"])


class TestLatticeCriteria:
    def test_criterion_3_lattice_equivalence(self):
        run_criterion(3, "lattice-equivalence", budget=900)

    def test_lattice_equivalence_fails_on_a_wrong_closure(self, monkeypatch):
        # a closure of the family's size with one member swapped for a
        # non-member, or with one member too many, must fail the check
        closed = meet_closure_bits(s.to_bits() for s in catalog.all_irreducibles())
        family = set(ci_structure_family())
        outsider = next(b for b in itertools.count() if b not in family)
        swapped = closed - {min(closed)} | {outsider}
        assert len(swapped) == len(family)
        for wrong in (swapped, closed | {outsider}):
            monkeypatch.setattr(checks, "meet_closure_bits", lambda seeds: set(wrong))
            ok, detail = checks.check_lattice_equivalence()
            assert not ok, detail
        monkeypatch.setattr(checks, "meet_closure_bits", lambda seeds: set(closed))
        assert checks.check_lattice_equivalence() == (True, DETAILS["lattice-equivalence"])

    def test_criterion_4_irreducible_census(self):
        run_criterion(4, "irreducible-census", budget=60)

    def test_irreducible_census_fails_without_relabelings(self, monkeypatch):
        # an orbit that holds only its representative leaves one member per
        # type: 14 irreducibles, each type of size 1
        monkeypatch.setattr(catalog, "orbit_bits", lambda bits, n=4: {bits})
        assert checks.check_irreducible_census() == (
            False, f"14 members in 14 orbit types of sizes {[1] * 14}"
        )
        monkeypatch.undo()
        assert checks.check_irreducible_census() == (True, DETAILS["irreducible-census"])


def _entropies_in_bits(monkeypatch):
    """Plant entropies in bits, not nats, under every entropy function."""
    nats = dist._entropies
    monkeypatch.setattr(
        dist, "_entropies", lambda marginals, D: [h / math.log(2) for h in nats(marginals, D)]
    )


class TestIngletonCriteria:
    def test_criterion_5_example5_closed_form(self):
        run_criterion(5, "example5-closed-form", budget=1)

    def test_example5_closed_form_fails_in_bits(self, monkeypatch):
        _entropies_in_bits(monkeypatch)
        assert not checks.check_example5_closed_form()[0]
        monkeypatch.undo()
        assert checks.check_example5_closed_form() == (True, DETAILS["example5-closed-form"])

    def test_criterion_6_counterexamples(self):
        run_criterion(6, "counterexamples", budget=4)

    def test_counterexamples_fail_on_a_flipped_ingleton(self, monkeypatch):
        # every certificate's Ingleton value turns positive
        real = inequalities.ingleton
        monkeypatch.setattr(inequalities, "ingleton", lambda h, *masks: -real(h, *masks))
        assert not checks.check_counterexamples()[0]
        monkeypatch.undo()
        assert checks.check_counterexamples() == (True, DETAILS["counterexamples"])

    def test_criterion_8_mask_identities(self):
        run_criterion(8, "mask-identities", budget=5)

    def test_mask_identities_fail_on_a_swapped_rewriting(self, monkeypatch):
        # rewriting 3 with its added and subtracted masks exchanged is the
        # negated expression
        real = setfn._compiled_mask_form

        def swapped(k, *masks):
            added, subtracted = real(k, *masks)
            return (subtracted, added) if k == 3 else (added, subtracted)

        monkeypatch.setattr(setfn, "_compiled_mask_form", swapped)
        assert checks.check_mask_identities() == (
            False, "rewriting 3 differs on a random rational function"
        )
        monkeypatch.undo()
        assert checks.check_mask_identities() == (True, DETAILS["mask-identities"])

    def test_criterion_9_hxy(self):
        run_criterion(9, "hxy", budget=1)

    def test_hxy_fails_when_not_tight(self, monkeypatch):
        monkeypatch.setattr(checks, "is_tight", lambda h: False)
        assert checks.check_hxy() == (
            False, "polymatroid=True, tight=False, matroid=False, ingleton=-1"
        )
        monkeypatch.undo()
        assert checks.check_hxy() == (True, DETAILS["hxy"])


class TestCatalogCriteria:
    def test_criterion_7_catalog(self):
        run_criterion(7, "catalog", budget=5)

    def test_catalog_fails_in_bits(self, monkeypatch):
        # a construction's entropy is ln k times its rank function
        _entropies_in_bits(monkeypatch)
        assert not checks.check_catalog()[0]
        monkeypatch.undo()
        assert checks.check_catalog() == (True, DETAILS["catalog"])


class TestDerivationCriteria:
    def test_criterion_10_derivations(self):
        run_criterion(10, "derivations", budget=5)

    def test_derivations_fail_when_every_record_verifies(self, monkeypatch):
        # a verifier that accepts everything accepts the 57 mutations too
        monkeypatch.setattr(inequalities, "verify_derivation", lambda schema: True)
        assert checks.check_derivations() == (
            False, "19 schemas verify: True; 57 single-field mutations all fail: False"
        )
        monkeypatch.undo()
        assert checks.check_derivations() == (True, DETAILS["derivations"])

    def test_criterion_11_conditional_inequalities(self):
        run_criterion(11, "conditional-inequalities", budget=60)

    def test_conditional_inequalities_fail_on_a_false_rule(self, monkeypatch):
        # rule 1 with (X,Y|Z) as both premises is false: catalog distributions
        # meet that premise with a negative Ingleton value
        rules = inequalities.CONDITIONAL_INGLETON_RULES
        monkeypatch.setitem(rules, 1, replace(rules[1], premises=(("X", "Y", "Z"),) * 2))
        ok, detail = checks.check_conditional_inequalities()
        assert not ok and detail.startswith("rule 1: ingleton: minimum ingleton -"), detail
        monkeypatch.undo()
        assert checks.check_conditional_inequalities() == (
            True, DETAILS["conditional-inequalities"]
        )

    def test_conditional_inequalities_fail_with_nothing_tested(self, monkeypatch):
        monkeypatch.setattr(inequalities, "is_ci", lambda P, A, B, C: False)
        failure = "premises: 0 instances meet both premises"
        assert inequalities.verify_conditional_inequality(1).failures() == [failure]
        assert checks.check_conditional_inequalities() == (False, f"rule 1: {failure}")

    def test_every_premise_of_every_rule_is_needed(self, monkeypatch):
        # dropping either premise of a rule admits a clearly negative value
        # on some catalog distribution
        rules = inequalities.CONDITIONAL_INGLETON_RULES
        for rule_id, rule in list(rules.items()):
            for kept in rule.premises:
                monkeypatch.setitem(rules, rule_id, replace(rule, premises=(kept,)))
                report = inequalities.verify_conditional_inequality(rule_id)
                assert report.value < -inequalities.NEGATIVE_MARGIN, (rule_id, kept)


class TestAlgebraCriteria:
    def test_criterion_12_distribution_algebra(self):
        run_criterion(12, "distribution-algebra", budget=120)

    def test_distribution_algebra_fails_on_a_wrong_product_structure(self, monkeypatch):
        # a lattice product whose every factorization test passes has the
        # full structure, not the meet of its factors' structures
        monkeypatch.setattr(dist, "_pairs_factorize", lambda *args: True)
        assert checks.check_distribution_algebra() == (
            False, "lattice product EX1 x EX1 structure mismatch"
        )
        monkeypatch.undo()
        assert checks.check_distribution_algebra() == (True, DETAILS["distribution-algebra"])
