#!/usr/bin/env python3
"""Set-function calculus walkthrough.

Builds the classic four-variable rank function that fails the Ingleton
inequality, evaluates difference expressions and all five rewritings of
the Ingleton expression on it, and shows the polymatroid / matroid /
tightness predicates and the CI structure the function induces.
"""

from fractions import Fraction

from cinfer import (
    BasicSet,
    SetFunction,
    delta,
    induced_ci_structure_of_rank,
    ingleton,
    is_matroid,
    is_polymatroid,
    is_tight,
    mask_form,
    tighten,
    upper_indicator,
)

base = BasicSet(("x", "y", "z", "u"))
x, y, z, u = (base.mask(n) for n in "xyzu")

# Rank table: 0 on the empty set, 4 on {x,y} and on everything, |S| + 1
# elsewhere.  Equivalently: every single variable carries 2 units, any two
# of them 3 -- except x and y together, which already exhaust 4.
h = SetFunction.from_callable(
    base,
    lambda m: Fraction(0)
    if m == 0
    else Fraction(4)
    if m in (x | y, base.full_mask)
    else Fraction(bin(m).count("1") + 1),
)

print("rank table:")
for m in base.subsets():
    print(f"  h({base.label_string(m) or '{}':>4}) = {h(m)}")

print("\ndifference expressions (conditional-information analogues):")
print(f"  delta(z, u | {{}})  = {delta(h, z, u, 0)}")
print(f"  delta(x, y | {{}})  = {delta(h, x, y, 0)}   -> x, y 'independent' here")
print(f"  delta(z, u | xy) = {delta(h, z, u, x | y)}")

print("\nIngleton expression and its five rewritings:")
print(f"  ingleton(x, y, z, u) = {ingleton(h, x, y, z, u)}")
for k in range(1, 6):
    print(f"  rewriting {k}: {mask_form(h, k, x, y, z, u)}")

print("\npredicates:")
print(f"  polymatroid rank function: {is_polymatroid(h).ok}")
print(f"  tight:                     {is_tight(h)}")
print(f"  matroid rank function:     {is_matroid(h)}  (h({{x}}) = 2 breaks the cardinality bound)")

print("\ninduced CI structure (vanishing difference expressions):")
print(" ", induced_ci_structure_of_rank(h).render())

print("\ntightening a non-tight function:")
up = upper_indicator(base, 0)
print(f"  the superset indicator of x tightens to the zero function: "
      f"{all(v == 0 for v in tighten(up).values)}")
print(f"  a tight function is its own tightening: {tighten(h) == h}")
