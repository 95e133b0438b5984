"""Conditional Ingleton inequalities, their counterexample certificates,
and the checker for the nineteen schematic derivations.

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
are read by :mod:`cinfer.inference`.  ``verify_derivation`` recomputes a
record's implication in ground triplet bits, the rewriting's three positive
terms and the rule's two premises implying its negated term, and checks any
strengthening identity on the indicator basis of set functions.  Each rule
gets one verdict, a ``Report`` decided at ``FLOAT_TOL`` on the catalog
distributions under every assignment of its placeholders; the refutation
of the sixth premise pair is a ``Report`` with the same two rows.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction
from functools import lru_cache

from . import catalog
from .dist import entropy_function, is_ci
from .inference import DerivationSchema, _pattern_bits, load_derivation_schemas
from .sets import BasicSet, Record, Report, replace
from .setfn import FLOAT_TOL, MASK_TERMS, SetFunction, delta, ingleton, mask_form
from .structures import Pattern, substitute_pattern

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
            if all(is_ci(P, *substitute_pattern(p, *masks)) for p in rule.premises):
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

# Which rewritings exhibit negativity for each counterexample: the three
# positive terms vanish on the entry's CI structure, leaving the negated
# difference term.
_COUNTEREXAMPLE_REWRITINGS: dict[str, tuple[int, ...]] = {
    "EX1": (1,), "EX2": (2,), "EX3": (3, 5), "EX4": (4,),
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
        for k in _COUNTEREXAMPLE_REWRITINGS[eid]:
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
            (neg,) = [pat for sign, pat in MASK_TERMS[k] if sign < 0]
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


def check_sixth_failure() -> Report:
    """The premise pair {(X,Z|U), (Y,U|Z)} admits a strictly negative
    Ingleton value: both premises hold on the fifth counterexample while
    the expression is negative, so no sixth conditional inequality with
    these premises exists.  One report named ``sixth premise pair``, with a
    ``premises`` and an ``ingleton`` row like a rule's verdict, and the
    Ingleton value on the fifth counterexample as its value."""
    start = time.perf_counter()
    P = catalog.get("EX5").distribution
    X, Y, Z, U = (P.space.mask(n) for n in ("x", "y", "z", "u"))
    value = float(ingleton(entropy_function(P), X, Y, Z, U))
    rows = (
        ("premises", is_ci(P, X, Z, U) and is_ci(P, Y, U, Z), "a premise fails on EX5"),
        ("ingleton", value < 0, f"ingleton {value!r} on EX5 is not negative"),
    )
    return Report("sixth premise pair", rows, time.perf_counter() - start, value)


# ---------------------------------------------------------------------------
# Schematic derivations
# ---------------------------------------------------------------------------


_FORMAL_BASE = BasicSet(("X", "Y", "Z", "U"))


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


def _implication(mask: int, rule: int, letters: str) -> tuple[int, int]:
    """Premise and conclusion triplet bits, at x, y, z, u, of rewriting
    ``mask`` combined with rule ``rule`` read with its placeholders X, Y, Z,
    U renamed to ``letters`` (``"YXUZ"`` for the [X, Z] <-> [Y, U] swap).
    When the rewriting's three positive terms and the rule's two premises
    vanish, the rewriting gives Ingleton <= 0 and the rule Ingleton >= 0, so
    the negated term vanishes too."""
    rename = str.maketrans("XYZU", letters)
    premises = [pattern for sign, pattern in MASK_TERMS[mask] if sign > 0]
    premises += [
        tuple(part.translate(rename) for part in pattern)
        for pattern in CONDITIONAL_INGLETON_RULES[rule].premises
    ]
    negated = [pattern for sign, pattern in MASK_TERMS[mask] if sign < 0]
    return _pattern_bits(premises), _pattern_bits(negated)


def verify_derivation(schema: DerivationSchema) -> bool:
    """Check one derivation record in ground triplet bits at x, y, z, u.

    The record's four premises must be exactly the premises of its
    rewriting combined with its rule (swapped when the record is), and its
    conclusion that implication's conclusion; any strengthening identity
    delta(conclusion) + delta(addend) = delta(result) must hold as a
    functional on the indicator basis, with its addend among the premises.
    """
    if schema.mask not in MASK_TERMS:
        raise ValueError(f"malformed schema: rewriting index {schema.mask}")
    if schema.rule not in CONDITIONAL_INGLETON_RULES:
        raise ValueError(f"malformed schema: rule id {schema.rule}")
    if len(schema.premises) != 4:
        raise ValueError("malformed schema: need four premises")
    premise_bits = _pattern_bits(schema.premises)
    implication = _implication(schema.mask, schema.rule, "YXUZ" if schema.swapped else "XYZU")
    if (premise_bits, _pattern_bits([schema.conclusion])) != implication:
        return False

    if schema.extension is not None:
        addend, result = schema.extension
        if _pattern_bits([addend]) & ~premise_bits:
            return False
        conc, add, res = (
            substitute_pattern(p, 1, 2, 4, 8) for p in (schema.conclusion, addend, result)
        )
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
    present = _pattern_bits(schema.premises)
    spare = next(
        p
        for p in (
            ("Y", "U", "X"), ("Y", "Z", "X"), ("X", "U", "Y"), ("Y", "U", ""),
            ("X", "U", ""), ("Y", "Z", ""),
        )
        if _pattern_bits([p]) & ~present
    )
    mutated_premise = replace(
        schema, premises=(spare,) + tuple(schema.premises[1:])
    )
    return [mutated_mask, mutated_rule, mutated_premise]
