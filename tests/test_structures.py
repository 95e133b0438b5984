"""Canonical triplets, elementary expansion, and CI-structure containers."""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cinfer.inference import orbit_bits
from cinfer.sets import BasicSet
from cinfer.structures import (
    CIStructure,
    ElementaryTriplet,
    bit_count_for,
    canonical_triplets,
    expand_to_elementary,
    image_words,
    relabelings,
    triplet_index,
    _subset_labels,
)

from oracles import naive_image, naive_orbit

ROOT = Path(__file__).resolve().parent.parent

BASE = BasicSet(("x", "y", "z", "u"))
X, Y, Z, U = 1, 2, 4, 8


class TestTriplets:
    def test_count_and_frozen_order(self):
        table = canonical_triplets(4)
        assert len(table) == 24
        # lexicographic by (i, j, K-as-integer): the first pair block is
        # (x,y|·) with conditioning 0, {z}, {u}, {z,u}
        assert table[0] == ElementaryTriplet(0, 1, 0)
        assert table[1] == ElementaryTriplet(0, 1, 4)
        assert table[2] == ElementaryTriplet(0, 1, 8)
        assert table[3] == ElementaryTriplet(0, 1, 12)
        assert table[4] == ElementaryTriplet(0, 2, 0)
        assert table[23] == ElementaryTriplet(2, 3, 3)

    def test_general_size_count(self):
        assert len(canonical_triplets(2)) == 1
        assert len(canonical_triplets(3)) == 6
        assert len(canonical_triplets(5)) == 80

    def test_canonicalization(self):
        assert ElementaryTriplet.canonical(2, 0, 8) == ElementaryTriplet(0, 2, 8)

    def test_invalid_triplets(self):
        with pytest.raises(ValueError):
            ElementaryTriplet(1, 1, 0)
        with pytest.raises(ValueError):
            ElementaryTriplet(2, 1, 0)
        with pytest.raises(ValueError):
            ElementaryTriplet(0, 1, 1)  # conditioning overlaps {x}

    def test_permutation_action(self):
        t = ElementaryTriplet(0, 1, 4)  # (x,y|z)
        # swap x and z
        assert t.permuted((2, 1, 0, 3)) == ElementaryTriplet(1, 2, 1)


class TestExpansion:
    def test_compound_pair(self):
        # (z, xu | {}) unfolds into four elementary statements
        got = expand_to_elementary(Z, X | U, 0)
        expected = {
            ElementaryTriplet(0, 2, 0),
            ElementaryTriplet(0, 2, 8),
            ElementaryTriplet(2, 3, 0),
            ElementaryTriplet(2, 3, 1),
        }
        assert got == expected

    def test_singletons_give_one_triplet(self):
        assert expand_to_elementary(X, Y, Z | U) == {ElementaryTriplet(0, 1, 12)}

    def test_empty_side_is_empty(self):
        assert expand_to_elementary(0, Y | Z, U) == frozenset()

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            expand_to_elementary(X | Y, Y, 0)

    def test_count_matches_product_formula(self):
        # |X| * |Y| * 2^(|X|+|Y|-2) conditioning choices above Z
        got = expand_to_elementary(X | Y, Z | U, 0)
        assert len(got) == 2 * 2 * 4


class TestCIStructure:
    def test_bits_round_trip(self):
        s = CIStructure.from_statements(BASE, [("x", "y", ""), ("z", "u", "xy")])
        assert CIStructure(BASE, s.to_bits()) == s

    def test_hex_round_trip(self):
        s = CIStructure(BASE, (1 << bit_count_for(4)) - 1)
        assert s.to_hex() == "ffffff"
        assert int(s.to_hex(), 16) == s.bits
        assert CIStructure(BASE, 0).to_hex() == "000000"

    def test_json_round_trip(self):
        s = CIStructure.from_statements(
            BASE, [("x", "y", "zu"), ("y", "u", ""), ("z", "u", "x")]
        )
        again = CIStructure.from_json_dict(json.loads(json.dumps(s.to_json_dict())))
        assert again == s
        data = s.to_json_dict()
        assert data["variables"] == ["x", "y", "z", "u"]
        assert {"i": "x", "j": "y", "K": ["z", "u"]} in data["statements"]

    def test_json_k_as_a_string_or_absent(self):
        data = {
            "variables": list(BASE.names),
            "statements": [{"i": "x", "j": "y", "K": "zu"}, {"i": "x", "j": "y"}],
        }
        assert CIStructure.from_json_dict(data).render() == "(x,y|) (x,y|zu)"

    def test_json_shape_error_names_what_k_may_be(self):
        data = {"variables": list(BASE.names), "statements": [{"i": "x", "j": "y", "K": 1}]}
        with pytest.raises(ValueError, match="a list or string of labels, or absent$"):
            CIStructure.from_json_dict(data)

    def test_symmetric_statement_normalized(self):
        s = CIStructure.from_statements(BASE, [("y", "x", "z")])
        assert ElementaryTriplet(0, 1, 4) in s

    def test_render(self):
        s = CIStructure.from_statements(BASE, [("x", "y", ""), ("z", "u", "xy")])
        assert s.render() == "(x,y|) (z,u|xy)"
        assert CIStructure(BASE, 0).render() == "(empty)"

    def test_colliding_labels_refuse_to_render(self):
        # (c,d|{a,b}) and (c,d|{ab}) would both render as (c,d|ab)
        base = BasicSet(("a", "b", "ab", "c", "d"))
        s = CIStructure.from_statements(base, [("c", "d", ["a", "b"]), ("c", "d", ["ab"])])
        for render in (s.render, CIStructure(base, 0).render, lambda: next(iter(s)).render(base)):
            with pytest.raises(ValueError, match="share the key 'ab'"):
                render()

    def test_label_cache_is_bounded(self):
        # rendering over more distinct bases than the cache holds keeps it full
        bound = _subset_labels.cache_info().maxsize
        assert bound is not None
        for k in range(bound + 10):
            s = CIStructure(BasicSet((f"a{k}", "b", "c")), 1)
            assert s.render() == f"(a{k},b|)"
        assert _subset_labels.cache_info().currsize == bound

    def test_meet_requires_same_base(self):
        other = BasicSet(("a", "b", "c", "d"))
        full = (1 << bit_count_for(4)) - 1
        with pytest.raises(ValueError):
            CIStructure(BASE, full) & CIStructure(other, full)

    def test_bit_positions_documented_order(self):
        idx = triplet_index(4)
        s = CIStructure.from_statements(BASE, [("x", "y", "")])
        assert s.to_bits() == 1 << idx[ElementaryTriplet(0, 1, 0)] == 1


class TestImageWords:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, (1 << 24) - 1))
    def test_orbit_bits_matches_naive_orbit(self, bits):
        assert orbit_bits(bits) == naive_orbit(bits)

    def test_lanes_follow_permutation_order(self):
        rng = random.Random(13)
        perms = list(itertools.permutations(range(4)))
        for bits in [0, (1 << 24) - 1] + [rng.getrandbits(24) for _ in range(20)]:
            assert list(relabelings(bits)) == [naive_image(bits, p, 4) for p in perms]

    def test_four_variable_words_fit_the_stated_size(self):
        # 24 words of 24 lanes of 3 bytes: 1,728 bytes of bits, held by
        # CPython in 30-bit digits of 4 bytes each behind a 24-byte header
        words, lanes = image_words()
        assert len(words) == bit_count_for(4) == 24 and lanes.size == 24 * 3
        assert sum(map(sys.getsizeof, words)) + sys.getsizeof(words) < 2_800

    def test_import_builds_no_image_words(self):
        env = dict(os.environ)
        paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        code = "import cinfer, cinfer.cli; print(cinfer.structures.image_words.cache_info())"
        command = [sys.executable, "-c", code]
        result = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert "currsize=0)" in result.stdout
