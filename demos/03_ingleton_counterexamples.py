#!/usr/bin/env python3
"""The five Ingleton counterexamples and the missing sixth inequality.

Each bundled counterexample is a small rational distribution whose CI
statements make three of the four terms of one rewriting vanish, leaving
the Ingleton expression equal to minus a strictly positive conditional
information.  The fifth one also certifies that the premise pair
{(x,z|u), (y,u|z)} supports no conditional inequality of the same shape.
"""

from cinfer import catalog, check_sixth_failure, verify_counterexample
from cinfer.dist import induced_ci_structure
from cinfer.inequalities import ex5_closed_form

for k in range(1, 6):
    report = verify_counterexample(k)
    entry = catalog.get(f"EX{k}")
    structure = induced_ci_structure(entry.distribution)
    print(f"counterexample {k}:")
    print(f"  support rows:      {len(entry.distribution.support())}")
    print(f"  CI structure:      {structure.render()}")
    print(f"  ingleton value:    {report.value:.7f}")
    print(f"  certificate:       {'PASS' if report.ok else 'FAIL'}")
    for name, ok, _ in report.rows:
        print(f"    - {name}: {ok}")
    print()

print("closed form for the fifth value (x 16):")
print(f"  32 ln 2 + 30 ln 3 - 10 ln 5 + 7 ln 7 - 22 ln 11 = {ex5_closed_form():.9f}")

sixth = check_sixth_failure()
print("\nsixth premise pair {(x,z|u), (y,u|z)}:")
print(f"  ingleton value: {sixth.value:.7f}  (negative, so no such inequality)")
print(f"  refutation:     {'PASS' if sixth.ok else 'FAIL'}")
for name, ok, _ in sixth.rows:
    print(f"    - {name}: {ok}")
