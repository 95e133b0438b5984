"""Conditional Ingleton inequalities, their counterexample certificates,
and the symbolic checker for the nineteen schematic derivations.

Five conditional inequalities guarantee a non-negative Ingleton expression
for entropy functions once two difference terms vanish:

    rule 1:  (X,Y | empty) and (X,Y | Z)
    rule 2:  (X,Y | Z)     and (Y,U | Z)
    rule 3:  (X,Z | U)     and (X,U | Z)
    rule 4:  (X,Z | U)     and (Z,U | X)
    rule 5:  (X,Z | U)     and (Y,Z | U)

Rules 2 and 4 are also used in the variant obtained by exchanging
[X, Z] <-> [Y, U], under which the Ingleton expression is invariant.  The
catalog's five counterexamples certify the premises are minimal: dropping
either one admits a strictly negative Ingleton value, and the sixth
premise pair {(X,Z|U), (Y,U|Z)} admits one too.

Each of the nineteen implications is recorded as a schema combining one
rule with one four-term rewriting of the Ingleton expression; the records
are read by :mod:`cinfer.inference`.  ``verify_derivation`` re-checks the
defining identities symbolically by evaluating the functionals on the
indicator basis of set functions.  Each rule gets one verdict, a
``Report`` decided at ``FLOAT_TOL`` on the catalog distributions under
every assignment of its placeholders.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction
from functools import lru_cache

from . import catalog
from .dist import JointDistribution, entropy_function, is_ci
from .inference import DerivationSchema, Pattern, load_derivation_schemas
from .sets import BasicSet, Record, Report, pairwise_disjoint, replace
from .setfn import (
    FLOAT_TOL,
    MASK_TERMS,
    SetFunction,
    delta,
    ingleton,
    mask_form,
    substitute_pattern,
)

NEGATIVE_MARGIN = 1e-3


class ConditionalIngletonRule(Record):
    """Premise pair under which the Ingleton expression is non-negative
    for entropy functions."""

    id: int
    premises: tuple[Pattern, Pattern]


CONDITIONAL_INGLETON_RULES: dict[int, ConditionalIngletonRule] = {
    1: ConditionalIngletonRule(1, (("X", "Y", ""), ("X", "Y", "Z"))),
    2: ConditionalIngletonRule(2, (("X", "Y", "Z"), ("Y", "U", "Z"))),
    3: ConditionalIngletonRule(3, (("X", "Z", "U"), ("X", "U", "Z"))),
    4: ConditionalIngletonRule(4, (("X", "Z", "U"), ("Z", "U", "X"))),
    5: ConditionalIngletonRule(5, (("X", "Z", "U"), ("Y", "Z", "U"))),
}


class InequalityReport(Record):
    """CI-premise status and Ingleton value of one rule on one distribution."""

    rule_id: int
    premises_hold: bool
    ingleton_value: float


def _premises_hold(rule: ConditionalIngletonRule, P: JointDistribution, *masks: int) -> bool:
    """Both premises of a rule hold exactly on P at the masks X, Y, Z, U."""
    return all(is_ci(P, *substitute_pattern(p, *masks)) for p in rule.premises)


def check_conditional_ingleton(
    P: JointDistribution, rule_id: int, assignment: dict[str, object]
) -> InequalityReport:
    """Evaluate conditional inequality ``rule_id`` (1..5) on a distribution.

    ``assignment`` maps the placeholders X, Y, Z, U to pairwise disjoint
    non-empty variable groups of P (masks or label collections).  Premises
    are tested exactly; the Ingleton value is computed on the entropy
    function.
    """
    rule = CONDITIONAL_INGLETON_RULES[rule_id]
    masks = {k: P.space.mask(v) for k, v in assignment.items()}
    if set(masks) != {"X", "Y", "Z", "U"}:
        raise ValueError("assignment must cover exactly X, Y, Z, U")
    if any(m == 0 for m in masks.values()) or not pairwise_disjoint(*masks.values()):
        raise ValueError("assignment must be pairwise disjoint and non-empty")
    ordered = [masks[k] for k in "XYZU"]
    premises_hold = _premises_hold(rule, P, *ordered)
    return InequalityReport(rule.id, premises_hold, float(ingleton(entropy_function(P), *ordered)))


def verify_conditional_inequality(rule_id: int) -> Report:
    """Evaluate one rule on every catalog distribution under all 24
    assignments of X, Y, Z, U to its variables, as one report named ``rule k``.
    Its ``premises`` row holds when some instance meets both premises, its
    ``ingleton`` row when no premise-meeting instance has an Ingleton value
    below -FLOAT_TOL, and its value is the least such value (``None`` when
    no instance meets the premises).  Entropy functions are computed once per
    distribution, Ingleton values only where both premises hold."""
    start = time.perf_counter()
    rule = CONDITIONAL_INGLETON_RULES[rule_id]
    values = []
    for P in (entry.distribution for entry in catalog.entries()):
        if P is None:
            continue
        h = entropy_function(P)
        for masks in itertools.permutations((1, 2, 4, 8)):
            if _premises_hold(rule, P, *masks):
                values.append(float(ingleton(h, *masks)))
    low = min(values, default=None)
    rows = (
        ("premises", bool(values), f"{len(values)} instances meet both premises"),
        ("ingleton", all(v >= -FLOAT_TOL for v in values), f"minimum ingleton {low!r}"),
    )
    return Report(f"rule {rule_id}", rows, time.perf_counter() - start, low)


# ---------------------------------------------------------------------------
# Counterexample certificates
# ---------------------------------------------------------------------------

# Which rewriting exhibits negativity for each counterexample: the three
# positive terms vanish on the entry's CI structure, leaving the negated
# difference term.
_COUNTEREXAMPLE_MASKS: dict[str, tuple[tuple[int, Pattern], ...]] = {
    "EX1": ((1, ("Z", "U", "")),),
    "EX2": ((2, ("X", "Z", "")),),
    "EX3": ((3, ("X", "Z", "Y")), (5, ("X", "Z", "YU"))),
    "EX4": ((4, ("X", "Y", "ZU")),),
}

# 16 * Ingleton value of the fifth counterexample, in exact ln terms.
EX5_CLOSED_FORM_COEFFS = ((32, 2), (30, 3), (-10, 5), (7, 7), (-22, 11))
EX5_APPROX = -0.0876256


def ex5_closed_form() -> float:
    return sum(c * math.log(b) for c, b in EX5_CLOSED_FORM_COEFFS)


def verify_counterexample(example_id: int | str) -> Report:
    """Re-derive one counterexample certificate from its catalog density:
    every claimed CI statement holds exactly, and the Ingleton expression
    is strictly negative via the recorded rewriting (for the fifth entry,
    via its closed form in logarithms of primes)."""
    start = time.perf_counter()
    eid = f"EX{example_id}" if isinstance(example_id, int) else example_id
    if eid not in catalog.COUNTEREXAMPLE_IDS:
        raise ValueError(f"counterexample id must be one of {catalog.COUNTEREXAMPLE_IDS}")
    entry = catalog.get(eid)
    P = entry.distribution
    stmts_ok = all(is_ci(P, 1 << t.i, 1 << t.j, t.K) for t in entry.claimed_statements)
    h = entropy_function(P)
    X, Y, Z, U = (P.space.mask(n) for n in ("x", "y", "z", "u"))
    value = float(ingleton(h, X, Y, Z, U))
    rows = [("claimed-statements", stmts_ok, "a claimed CI statement fails")]

    if eid == "EX5":
        sixteenfold = 16.0 * value
        target = ex5_closed_form()
        rows.append((
            "closed-form",
            abs(sixteenfold - target) <= FLOAT_TOL,
            f"16*ingleton = {sixteenfold!r} vs {target!r}",
        ))
        rows.append((
            "approximation",
            abs(sixteenfold - EX5_APPROX) <= 1e-6,
            f"16*ingleton = {sixteenfold!r} vs {EX5_APPROX}",
        ))
        rows.append((
            "negative",
            value < -NEGATIVE_MARGIN / 16.0,
            f"ingleton = {value!r} not below {-NEGATIVE_MARGIN / 16.0}",
        ))
    else:
        for k, neg in _COUNTEREXAMPLE_MASKS[eid]:
            via_mask = float(mask_form(h, k, X, Y, Z, U))
            rows.append((
                f"mask-{k}-agrees",
                abs(via_mask - value) <= FLOAT_TOL,
                f"rewriting {k} gives {via_mask!r}, direct {value!r}",
            ))
            positives = [
                float(delta(h, *substitute_pattern(pat, X, Y, Z, U)))
                for sign, pat in MASK_TERMS[k]
                if sign > 0
            ]
            rows.append((
                f"mask-{k}-positives-vanish",
                max(abs(v) for v in positives) <= FLOAT_TOL,
                f"positive terms {positives}",
            ))
            neg_value = float(delta(h, *substitute_pattern(neg, X, Y, Z, U)))
            rows.append((
                f"mask-{k}-negated-term",
                abs(value + neg_value) <= FLOAT_TOL,
                f"ingleton {value!r} vs -delta {-neg_value!r}",
            ))
        rows.append((
            "negative",
            value < -NEGATIVE_MARGIN,
            f"ingleton = {value!r} not below {-NEGATIVE_MARGIN}",
        ))
    return Report(eid, tuple(rows), time.perf_counter() - start, value)


def check_sixth_failure() -> InequalityReport:
    """The premise pair {(X,Z|U), (Y,U|Z)} admits a strictly negative
    Ingleton value: both premises hold on the fifth counterexample while
    the expression is negative, so no sixth conditional inequality with
    these premises exists."""
    P = catalog.get("EX5").distribution
    X, Y, Z, U = (P.space.mask(n) for n in ("x", "y", "z", "u"))
    premises_hold = is_ci(P, X, Z, U) and is_ci(P, Y, U, Z)
    value = float(ingleton(entropy_function(P), X, Y, Z, U))
    return InequalityReport(0, premises_hold, value)


# ---------------------------------------------------------------------------
# Schematic derivations
# ---------------------------------------------------------------------------


_FORMAL_BASE = BasicSet(("X", "Y", "Z", "U"))
_FORMAL_MASKS = (1, 2, 4, 8)


def _statements(patterns, X: int, Y: int, Z: int, U: int) -> set[tuple[int, int, int]]:
    """The patterns at the masks X, Y, Z, U, each as the masks of its
    unordered pair, smaller first, and its conditioning mask."""
    out = set()
    for pattern in patterns:
        a, b, c = substitute_pattern(pattern, X, Y, Z, U)
        out.add((min(a, b), max(a, b), c))
    return out


@lru_cache(maxsize=None)
def _indicator_functions() -> tuple[SetFunction, ...]:
    out = []
    for T in _FORMAL_BASE.subsets():
        values = tuple(Fraction(1) if m == T else Fraction(0) for m in _FORMAL_BASE.subsets())
        out.append(SetFunction(_FORMAL_BASE, values))
    return tuple(out)


def _functionals_equal(lhs, rhs) -> bool:
    """Equality of two linear functionals on set functions, decided exactly
    on the indicator basis of the 16-dimensional space."""
    return all(lhs(e) == rhs(e) for e in _indicator_functions())


def verify_derivation(schema: DerivationSchema) -> bool:
    """Check one derivation record symbolically.

    (a) the rewriting reproduces the Ingleton expression as a functional;
    (b) the recorded rule premises match the rule's premises, read with
        [X, Z] <-> [Y, U] exchanged when the record is swapped, and occur
        among the four premise terms;
    (c) vanishing premises force the conclusion: the rewriting's positive
        terms all occur among the premises and its negated term is the
        conclusion;
    (d) any strengthening identity holds as a functional and its addend is
        a premise.
    """
    if schema.mask not in MASK_TERMS:
        raise ValueError(f"malformed schema: rewriting index {schema.mask}")
    if schema.rule not in CONDITIONAL_INGLETON_RULES:
        raise ValueError(f"malformed schema: rule id {schema.rule}")
    if len(schema.premises) != 4 or len(schema.rule_premises) != 2:
        raise ValueError("malformed schema: need four premises and two rule premises")
    X, Y, Z, U = _FORMAL_MASKS

    def mask_functional(h):
        return mask_form(h, schema.mask, X, Y, Z, U)

    if not _functionals_equal(lambda h: ingleton(h, X, Y, Z, U), mask_functional):
        return False

    premise_keys = _statements(schema.premises, X, Y, Z, U)
    rule_at = (Y, X, U, Z) if schema.swapped else (X, Y, Z, U)
    expected = _statements(CONDITIONAL_INGLETON_RULES[schema.rule].premises, *rule_at)
    recorded = _statements(schema.rule_premises, X, Y, Z, U)
    if recorded != expected or not recorded <= premise_keys:
        return False

    terms = MASK_TERMS[schema.mask]
    positives = _statements([pat for sign, pat in terms if sign > 0], X, Y, Z, U)
    negative = _statements([pat for sign, pat in terms if sign < 0], X, Y, Z, U)
    if not positives <= premise_keys:
        return False
    if negative != _statements([schema.conclusion], X, Y, Z, U):
        return False

    if schema.extension is not None:
        addend, result = schema.extension
        if not _statements([addend], X, Y, Z, U) <= premise_keys:
            return False
        conc = substitute_pattern(schema.conclusion, X, Y, Z, U)
        add = substitute_pattern(addend, X, Y, Z, U)
        res = substitute_pattern(result, X, Y, Z, U)
        if not _functionals_equal(
            lambda h: delta(h, *conc) + delta(h, *add), lambda h: delta(h, *res)
        ):
            return False
    return True


def schema_mutations(schema: DerivationSchema) -> list[DerivationSchema]:
    """Three single-field corruptions of a schema, each of which must fail
    verification: the rewriting index, the rule id, and one premise."""
    mutated_mask = replace(schema, mask=schema.mask % 5 + 1)
    mutated_rule = replace(schema, rule=schema.rule % 5 + 1)
    # replace the first premise by a triplet pattern absent from the record
    present = _statements(schema.premises, *_FORMAL_MASKS)
    spare = next(
        p
        for p in (
            ("Y", "U", "X"), ("Y", "Z", "X"), ("X", "U", "Y"), ("Y", "U", ""),
            ("X", "U", ""), ("Y", "Z", ""),
        )
        if not _statements([p], *_FORMAL_MASKS) <= present
    )
    mutated_premise = replace(
        schema, premises=(spare,) + tuple(schema.premises[1:])
    )
    return [mutated_mask, mutated_rule, mutated_premise]
