"""Built-in catalog of reference distributions and rank functions.

Entries EX1..EX5 are the five counterexample distributions whose entropy
functions violate the Ingleton inequality, CON1..CON9 the nine tight
sub-maximal constructions (each a strong probabilistic representation of
an explicit rank function), HXY the four-variable rank function with
Ingleton value -1 that admits no such representation, and FULL the product
of independent uniform bits.

Every entry ships as data files (distribution / rank / claimed-structure
JSON), so a transcription error is a data fix; ``verify`` re-derives each
claim from the density.  The 92 irreducible CI structures are the
permutation orbits of the thirteen catalog structures together with the
full structure.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .dist import JointDistribution, entropy_function, induced_ci_structure
from .inference import orbit_bits
from .setfn import (
    FLOAT_TOL,
    SetFunction,
    induced_ci_structure_of_rank,
    ingleton_of_singletons,
    is_matroid,
    is_polymatroid,
    is_tight,
    rank_functions_equal_upto_scale,
)
from .sets import Record, Report
from .structures import CIStructure

ENTRY_IDS = (
    "EX1", "EX2", "EX3", "EX4", "EX5",
    "HXY",
    "CON1", "CON2", "CON3", "CON4", "CON5", "CON6", "CON7", "CON8", "CON9",
    "FULL",
)

COUNTEREXAMPLE_IDS = ("EX1", "EX2", "EX3", "EX4", "EX5")
CONSTRUCTION_IDS = tuple(f"CON{k}" for k in range(1, 10))


class CatalogEntry(Record):
    """One catalog item with whatever data and claims it carries."""

    id: str
    distribution: JointDistribution | None
    rank_function: SetFunction | None
    claimed_statements: CIStructure | None
    claimed_orbit_size: int | None
    entropy_scale_ln_of: int | None
    claimed_matroid: bool | None
    claimed_tight: bool | None
    claimed_ingleton: str | None


def _load_json(name: str) -> dict:
    ref = resources.files("cinfer") / "data" / "catalog" / name
    return json.loads(ref.read_text())


@lru_cache(maxsize=None)
def _claims() -> dict:
    return _load_json("claims.json")


_CACHE: dict[str, CatalogEntry] = {}


def get(entry_id: str) -> CatalogEntry:
    """Catalog entry by id (EX1..EX5, HXY, CON1..CON9, FULL)."""
    if entry_id in _CACHE:
        return _CACHE[entry_id]
    claims = _claims()
    if entry_id not in claims:
        raise KeyError(f"unknown catalog entry {entry_id!r}; known: {ENTRY_IDS}")
    c = claims[entry_id]
    entry = CatalogEntry(
        id=entry_id,
        distribution=(
            JointDistribution.from_json_dict(_load_json(c["distribution"]))
            if "distribution" in c
            else None
        ),
        rank_function=(
            SetFunction.from_json_dict(_load_json(c["rank_function"]))
            if "rank_function" in c
            else None
        ),
        claimed_statements=(
            CIStructure.from_json_dict(_load_json(c["statements"]))
            if "statements" in c
            else None
        ),
        claimed_orbit_size=c.get("orbit_size"),
        entropy_scale_ln_of=c.get("entropy_scale_ln_of"),
        claimed_matroid=c.get("is_matroid"),
        claimed_tight=c.get("is_tight"),
        claimed_ingleton=c.get("ingleton_singletons"),
    )
    _CACHE[entry_id] = entry
    return entry


def entries() -> list[CatalogEntry]:
    return [get(eid) for eid in ENTRY_IDS]


def verify(entry: CatalogEntry) -> Report:
    """Re-derive every claim of an entry: induced structure, entropy-rank
    proportionality, orbit size, and the rank-function predicates."""
    start, rows = time.perf_counter(), []
    induced = None
    if entry.distribution is not None:
        induced = induced_ci_structure(entry.distribution)
    if entry.claimed_statements is not None and induced is not None:
        rows.append((
            "statements",
            induced == entry.claimed_statements,
            f"induced {len(induced)} vs claimed {len(entry.claimed_statements)}",
        ))
    if entry.distribution is not None and entry.rank_function is not None:
        h = entropy_function(entry.distribution)
        ok, c = rank_functions_equal_upto_scale(h, entry.rank_function)
        rows.append(("proportionality", ok, f"c = {c:.9f}"))
        if entry.entropy_scale_ln_of is not None:
            rows.append((
                "scale-constant",
                abs(c - math.log(entry.entropy_scale_ln_of)) <= FLOAT_TOL,
                f"c = {c:.9f} vs ln({entry.entropy_scale_ln_of})",
            ))
        if entry.claimed_statements is not None:
            rank_structure = induced_ci_structure_of_rank(entry.rank_function)
            rows.append((
                "rank-structure",
                rank_structure == entry.claimed_statements,
                "rank function induces a different structure",
            ))
    if entry.claimed_orbit_size is not None:
        target = entry.claimed_statements if entry.claimed_statements is not None else induced
        if target is not None:
            size = len(orbit_bits(target.bits, target.base.size))
            rows.append((
                "orbit",
                size == entry.claimed_orbit_size,
                f"orbit {size} vs claimed {entry.claimed_orbit_size}",
            ))
    if entry.rank_function is not None:
        rows.append(("polymatroid", is_polymatroid(entry.rank_function).ok, "not a polymatroid"))
        if entry.claimed_tight is not None:
            rows.append((
                "tight",
                is_tight(entry.rank_function) == entry.claimed_tight,
                f"tightness != {entry.claimed_tight}",
            ))
        if entry.claimed_matroid is not None:
            rows.append((
                "matroid",
                is_matroid(entry.rank_function) == entry.claimed_matroid,
                f"matroid predicate != {entry.claimed_matroid}",
            ))
        if entry.claimed_ingleton is not None:
            value = ingleton_of_singletons(entry.rank_function)
            rows.append((
                "ingleton",
                value == Fraction(entry.claimed_ingleton),
                f"ingleton {value} vs claimed {entry.claimed_ingleton}",
            ))
    return Report(entry.id, tuple(rows), time.perf_counter() - start, None)


def verify_all() -> list[Report]:
    return [verify(e) for e in entries()]


def _irreducible_orbits() -> list[set[int]]:
    """The orbits of the 14 permutational types of the irreducibles: the
    nine constructions, EX1..EX4 (EX5's structure is not irreducible) and
    the full structure."""
    ids = CONSTRUCTION_IDS + ("EX1", "EX2", "EX3", "EX4", "FULL")
    return [orbit_bits(get(eid).claimed_statements.bits) for eid in ids]


def all_irreducibles() -> list[CIStructure]:
    """The 92 irreducible CI structures over four variables: the orbits of
    the nine sub-maximal structures (31 members), the orbits of the four
    counterexample structures (60 members), and the full structure."""
    base = get("FULL").claimed_statements.base
    return [CIStructure(base, b) for b in sorted(set().union(*_irreducible_orbits()))]


def irreducible_orbit_sizes() -> list[int]:
    """Orbit sizes of the 14 permutational types, constructions first, then
    counterexamples, then the full structure."""
    return [len(orbit) for orbit in _irreducible_orbits()]
