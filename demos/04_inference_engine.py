#!/usr/bin/env python3
"""The 27-rule inference engine.

Shows the rule table, ground instantiation, closure of small statement
sets, and the symbolic verification of the nineteen derivation records
(including why corrupting any single field breaks them).
"""

from cinfer import (
    BasicSet,
    CIStructure,
    RULES,
    closure,
    ground_rules,
    is_closed,
    load_derivation_schemas,
    verify_derivation,
)
from cinfer.inequalities import schema_mutations
from cinfer.sets import replace

base = BasicSet(("x", "y", "z", "u"))

print("rule table:")
s_rules = [r for r in RULES.values() if r.id.startswith("S")]
e_rules = [r for r in RULES.values() if r.id.startswith("E")]
i_rules = [r for r in RULES.values() if r.id.startswith("I")]
print(f"  {len(s_rules)} structural rules, {len(e_rules)} equivalences, "
      f"{len(i_rules)} implications")

for ruleset in ("sg", "all"):
    print(f"  ground instances ({ruleset}): {len(ground_rules(base, ruleset))}")

print("\nclosure of {(x,y|), (x,z|y)}:")
seed = CIStructure.from_statements(base, [("x", "y", ""), ("x", "z", "y")])
print(f"  closed under the rules already: {is_closed(seed)}")
closed = closure(seed)
print(f"  closure: {closed.render()}")
print(f"  (that is the elementary content of x _||_ y z)")

print("\nclosure of a single implication's premises:")
seed = CIStructure.from_statements(
    base, [("x", "y", ""), ("x", "y", "z"), ("z", "u", "x"), ("z", "u", "y")]
)
closed = closure(seed)
gained = closed.members - seed.members
print(f"  gained: {' '.join(t.render(base) for t in sorted(gained))}")

print("\nderivation records:")
schemas = load_derivation_schemas()
print(f"  all {len(schemas)} verify: {all(verify_derivation(s) for s in schemas)}")

first = schemas[0]
print(f"  corrupting the rewriting index of {first.target}: "
      f"{verify_derivation(replace(first, mask=2))}")
print(f"  single-field mutations all fail: "
      f"{all(not verify_derivation(m) for s in schemas for m in schema_mutations(s))}")
