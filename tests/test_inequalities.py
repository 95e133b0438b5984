"""Conditional Ingleton inequality checkers, counterexample certificates,
and the symbolic derivation verifier."""

import math
import random

import pytest

from cinfer import catalog
from cinfer.dist import entropy_function, is_ci
from cinfer.inequalities import (
    CONDITIONAL_INGLETON_RULES,
    FLOAT_TOL,
    PREMISE_ENFORCERS,
    check_conditional_ingleton,
    check_sixth_failure,
    ex5_closed_form,
    load_derivation_schemas,
    random_distribution,
    random_premise_enforcing_distribution,
    sample_conditional_inequality,
    schema_mutations,
    verify_counterexample,
    verify_derivation,
)
from cinfer.sets import BasicSet, replace
from cinfer.setfn import ingleton, substitute_pattern
from cinfer.structures import expand_to_elementary

from oracles import fraction_random_distribution

ASSIGNMENT = {"X": "x", "Y": "y", "Z": "z", "U": "u"}


def final_conclusion(schema):
    """The strengthened result where a schema has one, else its conclusion."""
    return schema.extension[1] if schema.extension else schema.conclusion


class TestCheckConditionalIngleton:
    def test_enforced_premises_give_nonnegative_values(self):
        rng = random.Random(211)
        for rule_id in range(1, 6):
            for _ in range(20):
                P = random_premise_enforcing_distribution(rule_id, rng)
                report = check_conditional_ingleton(P, rule_id, ASSIGNMENT)
                assert report.premises_hold
                assert report.ingleton_value >= -1e-9

    def test_partial_premises_do_not_trigger(self):
        # the third counterexample satisfies (x,y|z) but not (x,y|)
        P = catalog.get("EX3").distribution
        report = check_conditional_ingleton(P, 1, ASSIGNMENT)
        assert not report.premises_hold
        assert is_ci(P, "x", "y", "z") and not is_ci(P, "x", "y", "")

    def test_independent_bits_vanish(self):
        P = catalog.get("FULL").distribution
        for rule_id in range(1, 6):
            report = check_conditional_ingleton(P, rule_id, ASSIGNMENT)
            assert report.premises_hold
            assert report.ingleton_value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_overlapping_assignment(self):
        P = catalog.get("FULL").distribution
        with pytest.raises(ValueError):
            check_conditional_ingleton(P, 1, {"X": "x", "Y": "x", "Z": "z", "U": "u"})

    @pytest.mark.parametrize("rule_id", range(1, 6))
    def test_premise_enforcer_holds_both_premises(self, rule_id):
        # the sampler's conditional product makes A independent of B given
        # C; the elementary content of that statement contains the
        # elementary content of both premises at X, Y, Z, U = x, y, z, u
        base = BasicSet(("x", "y", "z", "u"))
        enforced = expand_to_elementary(*map(base.mask, PREMISE_ENFORCERS[rule_id]))
        masks = [base.mask(ASSIGNMENT[k]) for k in "XYZU"]
        for premise in CONDITIONAL_INGLETON_RULES[rule_id].premises:
            content = expand_to_elementary(*substitute_pattern(premise, *masks))
            assert content and content <= enforced, (rule_id, premise)

    def test_rule_premise_tables(self):
        assert CONDITIONAL_INGLETON_RULES[1].premises == (("X", "Y", ""), ("X", "Y", "Z"))
        assert CONDITIONAL_INGLETON_RULES[5].premises == (("X", "Z", "U"), ("Y", "Z", "U"))
        # the swapped second rule reads (X,Y|U), (X,Z|U)
        swapped = CONDITIONAL_INGLETON_RULES[2].substituted_premises(swapped=True)
        assert {tuple(sorted(p[:2])) + (p[2],) for p in swapped} == {
            ("X", "Y", "U"),
            ("X", "Z", "U"),
        }


class TestCounterexamples:
    def test_all_five_verify(self):
        for k in range(1, 6):
            report = verify_counterexample(k)
            assert report.ok, (k, report.failures())
            assert report.value < 0

    def test_first_example_value(self):
        # ingleton = -delta(z,u|) with the (z,u)-marginal (1/4, 1/2, 1/4),
        # giving (5/2) ln 2 - (3/2) ln 3
        report = verify_counterexample(1)
        expected = -(2.5 * math.log(2) - 1.5 * math.log(3))
        assert report.value == pytest.approx(expected, abs=1e-12)

    def test_third_example_uses_two_rewritings(self):
        report = verify_counterexample(3)
        names = [name for name, _, _ in report.rows]
        assert "mask-3-agrees" in names and "mask-5-agrees" in names

    def test_fifth_example_closed_form(self):
        report = verify_counterexample(5)
        sixteenfold = 16 * report.value
        assert sixteenfold == pytest.approx(ex5_closed_form(), abs=1e-9)
        assert sixteenfold == pytest.approx(-0.0876256, abs=1e-6)

    def test_margins(self):
        for k in range(1, 5):
            assert verify_counterexample(k).value < -1e-3
        assert verify_counterexample(5).value < -1e-3 / 16

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            verify_counterexample(7)


class TestSixthFailure:
    def test_premise_pair_refuted(self):
        report = check_sixth_failure()
        assert report.premises_hold
        assert report.ingleton_value < -1e-3 / 16

    def test_independent_bits_consistent(self):
        P = catalog.get("FULL").distribution
        assert is_ci(P, "x", "z", "u") and is_ci(P, "y", "u", "z")
        h = entropy_function(P)
        assert float(ingleton(h, 1, 2, 4, 8)) == pytest.approx(0.0, abs=1e-12)

    def test_three_wise_uniform_consistent(self):
        # the rank-3 uniform construction satisfies the premise pair with a
        # vanishing Ingleton expression: -2+2+2+2+2+2-1-1-3-3 = 0 (times ln 2)
        P = catalog.get("CON5").distribution
        assert is_ci(P, "x", "z", "u") and is_ci(P, "y", "u", "z")
        h = entropy_function(P)
        assert float(ingleton(h, 1, 2, 4, 8)) == pytest.approx(0.0, abs=1e-12)


class TestDerivations:
    def test_all_nineteen_verify(self):
        schemas = load_derivation_schemas()
        assert len(schemas) == 19
        assert [s.target for s in schemas] == [f"I{k}" for k in range(1, 20)]
        for s in schemas:
            assert verify_derivation(s), s.target

    def test_corrupted_rewriting_fails(self):
        first = load_derivation_schemas()[0]
        assert not verify_derivation(replace(first, mask=2))

    def test_all_single_field_mutations_fail(self):
        for s in load_derivation_schemas():
            mutations = schema_mutations(s)
            assert len(mutations) == 3
            for m in mutations:
                assert not verify_derivation(m), (s.target, m)

    def test_swapped_rule_mismatch_fails(self):
        schemas = {s.target: s for s in load_derivation_schemas()}
        assert not verify_derivation(replace(schemas["I3"], swapped=False))
        assert not verify_derivation(replace(schemas["I1"], swapped=True))

    def test_malformed_schema_raises(self):
        first = load_derivation_schemas()[0]
        with pytest.raises(ValueError):
            verify_derivation(replace(first, mask=9))
        with pytest.raises(ValueError):
            verify_derivation(replace(first, rule=0))
        with pytest.raises(ValueError):
            verify_derivation(replace(first, premises=first.premises[:3]))

    def test_extensions_strengthen_conclusions(self):
        schemas = {s.target: s for s in load_derivation_schemas()}
        assert final_conclusion(schemas["I2"]) == ("Z", "XU", "")
        assert final_conclusion(schemas["I19"]) == ("Z", "XY", "U")
        assert final_conclusion(schemas["I1"]) == ("Z", "U", "")


class TestSampling:
    def test_random_distribution_deterministic(self):
        a = random_distribution(random.Random(5))
        b = random_distribution(random.Random(5))
        assert a == b

    @pytest.mark.parametrize("kwargs", [{}])
    def test_matches_the_fraction_construction(self, kwargs):
        # same distribution, same representation, and the same rng state
        # after the call, so every later draw of a sampler is unchanged
        for seed in range(300):
            rng, reference_rng = random.Random(seed), random.Random(seed)
            P = random_distribution(rng, **kwargs)
            Q = fraction_random_distribution(reference_rng, **kwargs)
            assert P == Q and P._weights == Q._weights and P._D == Q._D
            assert rng.getstate() == reference_rng.getstate()

    def test_distributions_are_normalized(self):
        rng = random.Random(7)
        for _ in range(50):
            P = random_distribution(rng)
            assert sum(p for _, p in P.items()) == 1

    def test_sample_reports_consistent(self):
        for rule_id in range(1, 6):
            reports = sample_conditional_inequality(rule_id, samples=30)
            assert len(reports) == 30
            assert all(r.premises_hold and r.ingleton_value >= -FLOAT_TOL for r in reports)
