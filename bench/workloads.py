"""The benchmark's workloads: seeded corpora, one query at a time, and the
correctness gate for every answer.

Each loop workload (`structure`, `dist`, `cli`) is a closed loop with one
client: a pass runs the corpus once, one query after the other, and the
worker repeats passes.  Corpora come from the stdlib ``random`` seeded with
the run's ``--seed``; the library only ever sees the generated inputs.
Library functions are always reached through their module attributes
(``inference.closure_bits``), so a traced run sees every call.

Cache hygiene, per workload:

* ``paper``     -- a fresh interpreter per battery, because the family cache
  of ``cinfer.checks``, the catalog cache and the rule engine would hide the
  scans and file loads on a repeat, and a CLI user pays them on every run.
* ``structure`` -- only the ground rules and the closure engine are warm (built
  in set-up, as a long-lived library user has them); every query is a new
  seed, so no answer is reused.
* ``dist``      -- every query builds fresh distribution objects, because the
  marginal and structure caches live on the distribution object.
* ``cli``       -- a fresh ``cinfer`` process per query.

No workload clears a private cache; freshness comes from new objects and
new processes only.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

NAMES = ("x", "y", "z", "u")
FULL_BITS = (1 << 24) - 1

STRUCTURE_QUERIES = 2000  # per pass
STRUCTURE_POPCOUNTS = range(1, 17)
DIST_QUERIES = 200  # per pass
LATTICE_FACTOR_ROWS = 16  # every lattice product has 256 support rows
CLI_VERBS = ("check-ci", "structure", "closure", "entropy", "ingleton")
CLI_QUERIES = 5  # per pass, one per verb

# Digest of every answer of one `structure` pass at seed 0.
STRUCTURE_DIGEST_SEED = 0
STRUCTURE_DIGEST = "1e5b274fa62fe947be1b23c068c5010aebc06cb6e5e7e85925ed0634a458a1bd"

PAPER_CHECKS = 12
PAPER_COUNTS = {
    "semigraphoid-count": ("count = ", 26_424),
    "ci-structure-count": ("count = ", 18_478),
    "irreducible-census": ("", 92),
}


def _closed(bits: int, rules: list[tuple[int, int]]) -> bool:
    """The benchmark's own closedness test over (premise, conclusion) pairs."""
    missing = ~bits
    for premise, conclusion in rules:
        if premise & missing == 0 and conclusion & missing:
            return False
    return True


def _rule_pairs(ruleset: str) -> list[tuple[int, int]]:
    from cinfer import inference
    from cinfer.sets import BasicSet

    return [
        (r.premise_bits, r.conclusion_bits)
        for r in inference.ground_rules(BasicSet(NAMES), ruleset)
    ]


def _log2_histogram(values) -> dict[str, int]:
    """Counts per power-of-two bucket, keyed "lo-hi"."""
    out: Counter = Counter()
    for v in values:
        lo = 1 << (max(v, 1).bit_length() - 1)
        out[f"{lo}-{2 * lo - 1}"] += 1
    return dict(sorted(out.items(), key=lambda kv: int(kv[0].split("-")[0])))


# ---------------------------------------------------------------------------
# structure: closure and orbit queries on 24-bit triplet sets
# ---------------------------------------------------------------------------


class StructureWorkload:
    """Closure of seeded triplet sets under the semi-graphoid rules and under
    all 27 rules; every fourth query also types its closure by orbit minimum.

    Seed popcounts are spread uniformly over 1..16 (each value equally often,
    in seeded order), because popcount is what varies the fixpoint length.
    """

    def __init__(self, seed: int):
        from cinfer import inference
        from cinfer.sets import BasicSet

        self.inference = inference
        rng = random.Random(seed)
        counts = [STRUCTURE_POPCOUNTS[i % len(STRUCTURE_POPCOUNTS)] for i in range(STRUCTURE_QUERIES)]
        rng.shuffle(counts)
        self.seeds = []
        for k in counts:
            bits = 0
            for b in rng.sample(range(24), k):
                bits |= 1 << b
            self.seeds.append(bits)
        self.seed = seed
        # Ground rules and the closure engine are built once, here.
        base = BasicSet(NAMES)
        for ruleset in ("sg", "all"):
            inference.ground_rules(base, ruleset)
            inference.closure_bits(0, 4, ruleset)

    def query(self, i: int):
        inference = self.inference
        seed = self.seeds[i]
        sg = inference.closure_bits(seed, 4, "sg")
        full = inference.closure_bits(seed, 4, "all")
        typed = min(inference.orbit_bits(full)) if i % 4 == 3 else None
        return sg, full, typed

    def __len__(self) -> int:
        return len(self.seeds)

    def check(self, answers) -> list[str]:
        sg_rules, all_rules = _rule_pairs("sg"), _rule_pairs("all")
        failures = []
        for i, (seed, (sg, full, typed)) in enumerate(zip(self.seeds, answers)):
            if sg & seed != seed or full & seed != seed or sg & ~full:
                failures.append(f"query {i}: closure misses its seed or sg is not below all")
            elif not _closed(sg, sg_rules) or not _closed(full, all_rules):
                failures.append(f"query {i}: closure is not closed")
            elif typed is not None and (
                typed > full or typed.bit_count() != full.bit_count() or not _closed(typed, all_rules)
            ):
                failures.append(f"query {i}: orbit type is not a closed image of the closure")
        if self.seed == STRUCTURE_DIGEST_SEED and digest(answers) != STRUCTURE_DIGEST:
            failures.append(f"answer digest {digest(answers)} differs from the recorded one")
        return failures

    def stats(self, answers) -> dict:
        added = [full.bit_count() - seed.bit_count() for seed, (_, full, _) in zip(self.seeds, answers)]
        return {
            "seed_popcount": dict(sorted(Counter(s.bit_count() for s in self.seeds).items())),
            "added_bits_all": dict(sorted(Counter(added).items())),
            "share_closing_to_full": sum(full == FULL_BITS for _, full, _ in answers) / len(answers),
            "typed_queries": sum(t is not None for _, _, t in answers),
        }


def digest(answers) -> str:
    return hashlib.sha256(repr(answers).encode()).hexdigest()


# ---------------------------------------------------------------------------
# dist: exact four-variable distributions
# ---------------------------------------------------------------------------


def _splits() -> list[tuple[tuple[str, ...], ...]]:
    """Ordered (A, B, C) splits of the four names with A and B non-empty."""
    out = []
    for labels in itertools.product(range(4), repeat=4):  # 3 = left out
        groups = tuple(tuple(n for n, g in zip(NAMES, labels) if g == b) for b in range(3))
        if groups[0] and groups[1]:
            out.append(groups)
    return out


class DistWorkload:
    """Fresh exact distributions from integer weights: induced structure,
    entropy and Ingleton, and one conditional product with its CI
    postcondition.  Every fourth query adds a lattice product of two fresh
    factors over the previous and this query's sample spaces, each with
    ``LATTICE_FACTOR_ROWS`` rows (no grid is smaller), so every product has
    256 rows; the query computes its induced structure and entropy.

    Support sizes are log-uniform from 2 rows to the full grid; support size
    is what the cost of ``is_ci`` depends on.
    """

    def __init__(self, seed: int):
        from cinfer import dist, inequalities, setfn

        self.dist, self.setfn = dist, setfn
        self.tol = inequalities.FLOAT_TOL
        rng = random.Random(seed)
        splits = _splits()
        # Stratified so that every seed has the same mix: query i has i % 5
        # three-valued variables, and within each of those classes the k-th
        # query takes the log-uniform support-size stratum 17k mod m (a fixed
        # order, so the lattice pairs see the same sizes for every seed); the
        # seed picks the rows, the weights and which variables are three-valued;
        # the (A, B, C) splits are dealt in a fixed order.
        classes = len(NAMES) + 1
        per_class = -(-DIST_QUERIES // classes)
        self.items = []
        for i in range(DIST_QUERIES):
            n3 = i % classes
            three = set(rng.sample(range(len(NAMES)), n3))
            cards = tuple(3 if v in three else 2 for v in range(len(NAMES)))
            grid = list(itertools.product(*(range(c) for c in cards)))
            u = ((17 * (i // classes)) % per_class + rng.random()) / per_class
            size = min(len(grid), round(2 * (len(grid) / 2) ** u))
            rows = [(cfg, rng.randint(1, 9)) for cfg in rng.sample(grid, size)]
            lattice_rows = None
            if i % 4 == 3:
                lattice_rows = [
                    [(cfg, rng.randint(1, 9)) for cfg in rng.sample(g, LATTICE_FACTOR_ROWS)]
                    for g in (prev_grid, grid)
                ]
            self.items.append((cards, rows, splits[7 * i % len(splits)], lattice_rows))
            prev_grid = grid

    def __len__(self) -> int:
        return len(self.items)

    def _build(self, cards, rows):
        dist = self.dist
        total = sum(w for _, w in rows)
        return dist.JointDistribution(
            dist.SampleSpace(NAMES, cards), {cfg: Fraction(w, total) for cfg, w in rows}
        )

    def _lattice_factors(self, i: int):
        cards = (self.items[i - 1][0], self.items[i][0])
        return [self._build(c, rows) for c, rows in zip(cards, self.items[i][3])]

    def query(self, i: int) -> dict:
        dist, setfn = self.dist, self.setfn
        cards, rows, (A, B, C), lattice_rows = self.items[i]
        P = self._build(cards, rows)
        h = dist.entropy_function(P)
        Q = dist.marginal(P, A + C)
        R = dist.marginal(P, B + C)
        product = dist.conditional_product(Q, R, A, B, C)
        out = {
            "P": P,
            "structure": dist.induced_ci_structure(P),
            "h": h,
            "ingleton": float(setfn.ingleton(h, 1, 2, 4, 8)),
            "factors": (Q, R),
            "product": product,
            "independent": dist.is_ci(product, product.mask(A), product.mask(B), product.mask(C)),
        }
        if lattice_rows is not None:
            L = dist.lattice_product(*self._lattice_factors(i))
            out.update(L=L, L_structure=dist.induced_ci_structure(L), L_h=dist.entropy_function(L))
        return out

    @staticmethod
    def key(answer: dict) -> tuple:
        """The comparable part of an answer, for checking repeated passes."""
        L_structure = answer.get("L_structure")
        return (
            answer["structure"].to_bits(),
            answer["ingleton"],
            answer["independent"],
            tuple(answer["product"].items()),
            L_structure.to_bits() if L_structure is not None else None,
        )

    def _entropy_structure(self, h) -> set:
        """Triplets (i, j, K) whose difference expression of h is within
        FLOAT_TOL of zero, computed here from the values of h."""
        v = h.values
        out = set()
        for i, j in itertools.combinations(range(4), 2):
            rest = 15 & ~(1 << i | 1 << j)
            for K in range(16):
                if K & ~rest == 0 and abs(v[1 << i | K] + v[1 << j | K] - v[1 << i | 1 << j | K] - v[K]) <= self.tol:
                    out.add((i, j, K))
        return out

    def check(self, answers) -> list[str]:
        all_rules = _rule_pairs("all")
        failures = []
        for i, a in enumerate(answers):
            v = a["h"].values
            own_ingleton = -v[3] + v[5] + v[9] + v[6] + v[10] + v[12] - v[4] - v[8] - v[13] - v[14]
            Q, R = a["factors"]
            pairs = [(a["structure"], a["h"])]
            if "L" in a:
                pairs.append((a["L_structure"], a["L_h"]))
            for structure, h in pairs:
                members = {(t.i, t.j, t.K) for t in structure.members}
                if members != self._entropy_structure(h):
                    failures.append(f"query {i}: exact structure differs from the entropy structure")
                elif not _closed(structure.to_bits(), all_rules):
                    failures.append(f"query {i}: induced structure is not closed under the 27 rules")
            if abs(a["ingleton"] - own_ingleton) > self.tol:
                failures.append(f"query {i}: ingleton {a['ingleton']} differs from {own_ingleton}")
            if not a["independent"]:
                failures.append(f"query {i}: conditional product fails its CI postcondition")
            if _project(a["product"], Q.names) != dict(Q.items()) or _project(a["product"], R.names) != dict(R.items()):
                failures.append(f"query {i}: conditional product does not recover a factor")
            if "L" in a:
                F1, F2 = (self.dist.induced_ci_structure(F) for F in self._lattice_factors(i))
                if a["L_structure"].members != F1.members & F2.members:
                    failures.append(f"query {i}: lattice product structure is not the meet of its factors'")
        return failures

    def stats(self, answers) -> dict:
        return {
            "support_rows": _log2_histogram(len(a["P"].items()) for a in answers),
            "lattice_support_rows": _log2_histogram(len(a["L"].items()) for a in answers if "L" in a),
            "conditional_product_rows": _log2_histogram(len(a["product"].items()) for a in answers),
        }


def _project(P, names) -> dict:
    """Marginal density of P onto the named variables, in that order."""
    pos = [P.names.index(n) for n in names]
    out: dict = {}
    for cfg, p in P.items():
        key = tuple(cfg[k] for k in pos)
        out[key] = out.get(key, 0) + p
    return out


# ---------------------------------------------------------------------------
# cli: one cold cinfer process per query
# ---------------------------------------------------------------------------


class CliWorkload:
    """Cold ``python -m cinfer.cli`` processes cycling through five verbs on
    the bundled catalog files; each answer is compared with the in-process
    library answer."""

    def __init__(self, seed: int, root: str, child: list[str] | None = None):
        import cinfer.cli  # noqa: F401  (the layer a cold query pays for)

        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.child = child or [sys.executable, "-m", "cinfer.cli"]
        catalog_dir = os.path.join("src", "cinfer", "data", "catalog")
        files = sorted(os.listdir(os.path.join(root, catalog_dir)))
        dists = [os.path.join(catalog_dir, f) for f in files if f.endswith(".dist.json")]
        structures = [os.path.join(catalog_dir, f) for f in files if f.endswith(".structure.json")]
        rng = random.Random(seed)
        self.items = []
        for i in range(CLI_QUERIES):
            verb = CLI_VERBS[i % len(CLI_VERBS)]
            if verb == "closure":
                args = [rng.choice(structures)]
            else:
                args = [rng.choice(dists)]
            if verb == "check-ci":
                a, b = rng.sample(NAMES, 2)
                cond = [n for n in NAMES if n not in (a, b) and rng.random() < 0.5]
                args.append(f"{a} _||_ {b} | {' '.join(cond)}")
            elif verb == "ingleton":
                args += ["--xyzu", ",".join(rng.sample(NAMES, 4))]
            self.items.append((verb, args))

    def __len__(self) -> int:
        return len(self.items)

    def query(self, i: int):
        verb, args = self.items[i]
        proc = subprocess.run(
            self.child + [verb, *args, "--json"],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def key(answer) -> tuple:
        return answer[0], answer[1]

    def expected(self, i: int):
        """(exit code, parsed JSON output) from the library, in process."""
        from cinfer import dist, inference, setfn
        from cinfer.structures import CIStructure

        verb, args = self.items[i]
        path = os.path.join(self.root, args[0])
        with open(path) as f:
            data = json.load(f)
        if verb == "closure":
            return 0, inference.closure(CIStructure.from_json_dict(data)).to_json_dict()
        P = dist.JointDistribution.from_json_dict(data)
        if verb == "check-ci":
            left, rest = args[1].split("_||_")
            mid, cond = rest.split("|")
            holds = dist.is_ci(P, left.split(), mid.split(), cond.split())
            return (0 if holds else 1), {"holds": holds}
        if verb == "structure":
            return 0, dist.induced_ci_structure(P).to_json_dict()
        h = dist.entropy_function(P)
        if verb == "entropy":
            return 0, h.to_json_dict()
        groups = [P.mask([n]) for n in args[2].split(",")]
        return 0, {"ingleton": float(setfn.ingleton(h, *groups))}

    def check(self, answers) -> list[str]:
        failures = []
        for i, (code, out, err) in enumerate(answers):
            want_code, want = self.expected(i)
            verb = self.items[i][0]
            try:
                got = json.loads(out)
            except json.JSONDecodeError:
                got = None
            if code != want_code or got != want:
                failures.append(f"query {i} ({verb}): exit {code}, output differs: {err.strip()[-200:]}")
        return failures

    def stats(self, answers) -> dict:
        return {"queries": [" ".join([verb, *args]) for verb, args in self.items]}


# ---------------------------------------------------------------------------
# paper: the verify-paper battery
# ---------------------------------------------------------------------------


def run_battery() -> list[tuple[str, bool, str, float]]:
    """All twelve checks of ``verify-paper``, as (name, ok, detail, seconds)."""
    from cinfer import checks

    return [(r.name, r.ok, r.detail, r.seconds) for r in checks.run_all()]


def check_battery(results) -> list[str]:
    """One failure per check that fails or reports a wrong count, and one
    for a battery that did not run all twelve."""
    failures = []
    for name, ok, detail, _ in results:
        prefix, count = PAPER_COUNTS.get(name, ("", None))
        if not ok:
            failures.append(f"{name}: {detail}")
        elif count is not None and not detail.startswith(f"{prefix}{count:,}"):
            failures.append(f"{name}: expected {count:,}, got {detail!r}")
    if len(results) != PAPER_CHECKS:
        failures.append(f"battery ran {len(results)} checks, expected {PAPER_CHECKS}")
    return failures


WORKLOADS = {"structure": StructureWorkload, "dist": DistWorkload, "cli": CliWorkload}

# The highest percentile of a corpus that leaves at least ten queries beyond
# it; where the corpus is too small for that (`paper`, one battery, and
# `cli`, five queries) it is the maximum.
TAIL_PERCENTILE = {"paper": 100.0, "structure": 99.5, "dist": 95.0, "cli": 100.0}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]
