"""Command-line front end.

Verbs map one-to-one onto library operations: entropy computation, exact
CI queries, induced structures, Ingleton values, rule closure, the
enumeration of the closed structures, the irreducible census, and the
bundled verification batteries.  Exit status: 0 on success or verification
pass, 1 on a failed check or a false query, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog, checks, inequalities
from .dist import JointDistribution, entropy_function, induced_ci_structure, is_ci
from .inference import ci_structure_family, closure, dump_family, semigraphoid_family
from .sets import BasicSet, quoted
from .setfn import ingleton
from .structures import CIStructure

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _load(path: str, from_json_dict):
    """Read a JSON file and build an object from it with ``from_json_dict``;
    nesting too deep for the decoder is malformed input like any other."""
    with open(path) as f:
        try:
            data = json.load(f)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return from_json_dict(data)


def parse_statement(text: str, space) -> tuple[int, int, int]:
    """Parse "<vars> _||_ <vars> | <vars>" into three masks; variable names
    are space-separated and the conditioning part may be empty."""
    if "_||_" not in text:
        raise ValueError(f"statement {quoted(text)} lacks the _||_ separator")
    left, rest = text.split("_||_", 1)
    if "|" in rest:
        mid, cond = rest.split("|", 1)
    else:
        mid, cond = rest, ""

    def group(s: str) -> int:
        return space.mask(s.split())

    return group(left), group(mid), group(cond)


def _parse_groups(spec: str, space) -> list[int]:
    """Comma-separated variable groups; within a group, names joined by +.
    An empty group denotes the empty set."""
    return [
        space.mask([n for n in part.split("+") if n]) for part in spec.split(",")
    ]


# ---------------------------------------------------------------------------
# Verb implementations
# ---------------------------------------------------------------------------


def cmd_entropy(args) -> int:
    P = _load(args.distribution, JointDistribution.from_json_dict)
    h = entropy_function(P)
    if args.json:
        print(json.dumps(h.to_json_dict(), indent=2))
    else:
        for label, m in h.base.subset_keys().items():
            print(f"H({label or '{}'}) = {float(h.values[m]):.12f}")
    return EXIT_OK


def cmd_check_ci(args) -> int:
    P = _load(args.distribution, JointDistribution.from_json_dict)
    X, Y, Z = parse_statement(args.statement, P.space)
    result = is_ci(P, X, Y, Z)
    print(json.dumps({"holds": result}) if args.json else str(result).lower())
    return EXIT_OK if result else EXIT_FAIL


def cmd_structure(args) -> int:
    P = _load(args.distribution, JointDistribution.from_json_dict)
    s = induced_ci_structure(P)
    if args.json:
        print(json.dumps(s.to_json_dict(), indent=2))
    else:
        print(s.render())
    return EXIT_OK


def cmd_ingleton(args) -> int:
    P = _load(args.distribution, JointDistribution.from_json_dict)
    groups = _parse_groups(args.xyzu, P.space)
    if len(groups) != 4:
        raise ValueError("--xyzu needs four comma-separated variable groups")
    value = float(ingleton(entropy_function(P), *groups))
    print(json.dumps({"ingleton": value}) if args.json else f"{value:.12f}")
    return EXIT_OK


def cmd_closure(args) -> int:
    s = _load(args.structure, CIStructure.from_json_dict)
    closed = closure(s)
    if args.json:
        print(json.dumps(closed.to_json_dict(), indent=2))
    else:
        print(closed.render())
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.dump_human and not args.dump:
        raise ValueError("--dump-human needs --dump")
    family = semigraphoid_family() if args.rules == "sg" else ci_structure_family()
    if args.dump:
        dump_family(args.dump, family, BasicSet(("x", "y", "z", "u")), args.dump_human)
    count = len(family)
    print(json.dumps({"rules": args.rules, "count": count}) if args.json else count)
    return EXIT_OK


def cmd_irreducibles(args) -> int:
    members = catalog.all_irreducibles()
    if args.json:
        print(json.dumps([s.to_json_dict() for s in members], indent=1))
    else:
        for s in members:
            print(f"{s.to_hex()}  {s.render()}")
        print(f"total {len(members)}", file=sys.stderr)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    results = checks.run_all(only=args.only)
    if args.json:
        print(
            json.dumps(
                [
                    {"check": r.name, "ok": r.ok, "detail": r.detail, "seconds": r.seconds}
                    for r in results
                ],
                indent=1,
            )
        )
    else:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            print(f"[{status}] {r.name} ({r.seconds:.1f}s): {r.detail}")
    return EXIT_OK if all(r.ok for r in results) else EXIT_FAIL


def cmd_verify_inequality(args) -> int:
    if not 1 <= args.rule <= 5:
        raise ValueError("rule id must be 1..5")
    report = inequalities.verify_conditional_inequality(args.rule)
    if args.json:
        # the premises row's detail opens with the instance count
        instances = int(report.rows[0][2].split()[0])
        print(json.dumps({
            "rule": args.rule, "instances": instances, "min_ingleton": report.value, "ok": report.ok,
        }))
    else:
        status = "PASS" if report.ok else "FAIL"
        print(f"[{status}] {report.name}: {report.detail}")
    return EXIT_OK if report.ok else EXIT_FAIL


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(
        prog="cinfer",
        description="Exact conditional-independence toolkit over discrete variables",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("entropy", parents=[common], help="entropy of every sub-vector")
    p.add_argument("distribution", help="distribution JSON file")
    p.set_defaults(fn=cmd_entropy)

    p = sub.add_parser("check-ci", parents=[common], help="exact CI query")
    p.add_argument("distribution")
    p.add_argument("statement", help='e.g. "x _||_ y | z u" (empty conditioning allowed)')
    p.set_defaults(fn=cmd_check_ci)

    p = sub.add_parser("structure", parents=[common], help="induced CI structure")
    p.add_argument("distribution")
    p.set_defaults(fn=cmd_structure)

    p = sub.add_parser("ingleton", parents=[common], help="Ingleton expression value")
    p.add_argument("distribution")
    p.add_argument(
        "--xyzu",
        required=True,
        help="four comma-separated variable groups, names joined by + (e.g. x,y,z,u)",
    )
    p.set_defaults(fn=cmd_ingleton)

    p = sub.add_parser("closure", parents=[common], help="CI closure of a structure")
    p.add_argument("structure", help="structure JSON file")
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("enumerate", parents=[common], help="count closed structures")
    p.add_argument("--rules", choices=("sg", "all"), default="all")
    p.add_argument("--dump", default=None, help="write one hex bitmask per line")
    p.add_argument(
        "--dump-human", action="store_true", help="append triplet lists to the dump"
    )
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser(
        "irreducibles", parents=[common], help="the 92 irreducible structures"
    )
    p.set_defaults(fn=cmd_irreducibles)

    p = sub.add_parser(
        "verify-paper", parents=[common], help="run every built-in verification"
    )
    p.add_argument("--only", default=None, help="run a single named check")
    p.set_defaults(fn=cmd_verify_paper)

    p = sub.add_parser(
        "verify-inequality",
        parents=[common],
        help="one conditional inequality on the catalog distributions",
    )
    p.add_argument("rule", type=int, help="rule id 1..5")
    p.set_defaults(fn=cmd_verify_inequality)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
