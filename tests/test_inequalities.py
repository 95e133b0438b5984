"""Conditional Ingleton inequality checkers, counterexample certificates,
and the symbolic derivation verifier."""

import itertools
import math

import pytest

from cinfer import catalog, inequalities
from cinfer.dist import entropy_function, is_ci
from cinfer.inequalities import (
    CONDITIONAL_INGLETON_RULES,
    FLOAT_TOL,
    check_conditional_ingleton,
    check_sixth_failure,
    ex5_closed_form,
    load_derivation_schemas,
    schema_mutations,
    verify_conditional_inequality,
    verify_counterexample,
    verify_derivation,
    _statements,
)
from cinfer.inference import RULES, InferenceRule
from cinfer.sets import Report, replace
from cinfer.setfn import ingleton

ASSIGNMENT = {"X": "x", "Y": "y", "Z": "z", "U": "u"}


def _catalog_instances(rule_id):
    """The rule checked one by one on every catalog distribution under all
    24 assignments of X, Y, Z, U."""
    return [
        check_conditional_ingleton(entry.distribution, rule_id, dict(zip("XYZU", names)))
        for entry in catalog.entries()
        if entry.distribution is not None
        for names in itertools.permutations("xyzu")
    ]


class TestCheckConditionalIngleton:
    def test_enforced_premises_give_nonnegative_values(self):
        # every catalog instance that meets both premises of a rule has a
        # non-negative Ingleton value, up to float noise
        for rule_id, count in zip(range(1, 6), (118, 128, 128, 128, 128)):
            met = [r for r in _catalog_instances(rule_id) if r.premises_hold]
            assert len(met) == count
            assert all(r.ingleton_value >= -1e-9 for r in met)

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

    def test_rule_premise_tables(self):
        assert CONDITIONAL_INGLETON_RULES[1].premises == (("X", "Y", ""), ("X", "Y", "Z"))
        assert CONDITIONAL_INGLETON_RULES[5].premises == (("X", "Z", "U"), ("Y", "Z", "U"))
        # the swapped second rule, (Y,X|U) and (X,Z|U) at X, Y, Z, U = 1, 2, 4, 8,
        # is the pair (X,Y|U), (X,Z|U) as mask keys
        swapped = _statements(CONDITIONAL_INGLETON_RULES[2].premises, 2, 1, 8, 4)
        assert swapped == {(1, 2, 8), (1, 4, 8)}
        assert swapped == _statements((("X", "Y", "U"), ("X", "Z", "U")), 1, 2, 4, 8)


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
        assert schemas["I2"].result == ("Z", "XU", "")
        assert schemas["I19"].result == ("Z", "XY", "U")
        assert schemas["I1"].result == schemas["I1"].conclusion == ("Z", "U", "")

    def test_each_implication_is_its_record(self):
        # I_k of the rule table has its record's four premises and the
        # strengthened conclusion where the record has one
        schemas = load_derivation_schemas()
        assert [r for r in RULES if r.startswith("I")] == [s.target for s in schemas]
        for s in schemas:
            final = s.extension[1] if s.extension else s.conclusion
            assert RULES[s.target] == InferenceRule(s.target, s.premises, (final,), False)
        assert RULES["I7"].conclusions == (("X", "YZ", ""),)
        assert RULES["I8"].conclusions == (("X", "Z", "Y"),)

    def test_records_are_read_once(self):
        assert load_derivation_schemas() == load_derivation_schemas()
        assert load_derivation_schemas() is not load_derivation_schemas()
        assert all(a is b for a, b in zip(load_derivation_schemas(), load_derivation_schemas()))


class TestVerdict:
    def test_verdict_agrees_with_the_instances(self):
        # one verdict per rule: the report agrees with the catalog instances
        # checked one by one
        for rule_id in range(1, 6):
            report = verify_conditional_inequality(rule_id)
            met = [r.ingleton_value for r in _catalog_instances(rule_id) if r.premises_hold]
            assert type(report) is Report and report.name == f"rule {rule_id}"
            assert [part for part, _, _ in report.rows] == ["premises", "ingleton"]
            assert report.ok and report.value == min(met) >= -FLOAT_TOL
            assert report.detail == (
                f"{len(met)} instances meet both premises; minimum ingleton {min(met)!r}"
            )

    def test_verdict_fails_below_the_tolerance(self, monkeypatch):
        # every instance meets the premises, and the second Ingleton value
        # the verdict computes is just past -FLOAT_TOL
        values = itertools.chain([0.0, -2 * FLOAT_TOL], itertools.repeat(0.0))
        monkeypatch.setattr(inequalities, "is_ci", lambda P, A, B, C: True)
        monkeypatch.setattr(inequalities, "ingleton", lambda h, X, Y, Z, U: next(values))
        report = verify_conditional_inequality(3)
        assert not report.ok and report.value == -2 * FLOAT_TOL
        assert report.failures() == [f"ingleton: minimum ingleton {-2 * FLOAT_TOL!r}"]

    def test_a_verdict_needs_an_instance(self, monkeypatch):
        # with no instance meeting the premises the verdict is a failure,
        # not a vacuous pass, and no Ingleton value is computed
        monkeypatch.setattr(inequalities, "is_ci", lambda P, A, B, C: False)
        monkeypatch.setattr(
            inequalities, "ingleton", lambda *args: pytest.fail("an Ingleton value was computed")
        )
        report = verify_conditional_inequality(3)
        assert not report.ok and report.value is None
        assert report.failures() == ["premises: 0 instances meet both premises"]

    @pytest.mark.parametrize("rule_id, met", zip(range(1, 6), (118, 128, 128, 128, 128)))
    def test_each_entropy_function_is_computed_once(self, monkeypatch, rule_id, met):
        # one entropy function per catalog distribution, and one Ingleton
        # value per instance that meets both premises
        calls = {"entropy_function": 0, "ingleton": 0}

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        for name in calls:
            monkeypatch.setattr(inequalities, name, counted(name, getattr(inequalities, name)))
        report = verify_conditional_inequality(rule_id)
        assert report.ok and report.detail.startswith(f"{met} instances")
        assert calls == {"entropy_function": 15, "ingleton": met}
