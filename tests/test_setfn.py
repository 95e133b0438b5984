"""Set-function calculus: difference/Ingleton expressions, rewritings,
polymatroid predicates, tightening, and induced structures."""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cinfer import catalog, inequalities, setfn
from cinfer.sets import BasicSet
from cinfer.checks import random_distribution
from cinfer.inequalities import FLOAT_TOL
from cinfer.setfn import (
    MASK_TERMS,
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
from cinfer.structures import CIStructure, canonical_triplets, substitute_pattern
from cinfer.dist import entropy_function

from oracles import (
    all_pairs_polymatroid,
    delta_from_table,
    ingleton_from_table,
    random_rational_setfn,
)

BASE = BasicSet(("x", "y", "z", "u"))
X, Y, Z, U = 1, 2, 4, 8

# Rank table: 0 on the empty set, 4 on {x,y} and on the full set, |S|+1
# elsewhere.  Its vanishing difference expressions, found by scanning all
# 24 elementary triplets, are frozen below.
HXY = catalog.get("HXY").rank_function
HXY_INDUCED = {
    ("x", "y", ""), ("x", "y", "z"), ("x", "y", "u"),
    ("x", "z", "u"), ("x", "u", "z"), ("y", "z", "u"), ("y", "u", "z"),
    ("z", "u", "x"), ("z", "u", "y"), ("z", "u", "xy"),
}
ZERO = SetFunction(BASE, (Fraction(0),) * 16)
CARDINALITY = SetFunction.from_callable(BASE, lambda m: Fraction(m.bit_count()))


def random_setfn(rng):
    return SetFunction(BASE, random_rational_setfn(rng))


def random_polymatroid(rng):
    """Random non-negative rational combination of the catalog rank
    functions and the superset indicators (all polymatroids, so any such
    mixture is one)."""
    parts = [catalog.get(f"CON{k}").rank_function for k in range(1, 10)]
    parts.append(HXY)
    parts.append(CARDINALITY)
    parts += [upper_indicator(BASE, i) for i in range(4)]
    values = ZERO.values
    for part in parts:
        if rng.random() < 0.45:
            c = Fraction(rng.randint(1, 5), rng.randint(1, 4))
            values = tuple(a + c * b for a, b in zip(values, part.values))
    return SetFunction(BASE, values)


class TestDelta:
    def test_hxy_z_u_unconditioned(self):
        # 2 + 2 - 3 - 0, straight from the table
        assert delta(HXY, Z, U, 0) == 1
        assert delta_from_table(HXY.values, Z, U, 0) == 1

    def test_matches_table_oracle_on_random_functions(self):
        rng = random.Random(7)
        for _ in range(200):
            h = random_setfn(rng)
            a, b, c = rng.randrange(16), rng.randrange(16), rng.randrange(16)
            assert delta(h, a, b, c) == delta_from_table(h.values, a, b, c)

    def test_empty_first_argument_vanishes(self):
        rng = random.Random(11)
        for _ in range(50):
            h = random_setfn(rng)
            assert delta(h, 0, rng.randrange(16), rng.randrange(16)) == 0

    def test_entropy_of_duplicated_bit(self):
        h = entropy_function(catalog.get("CON1").distribution)
        assert float(delta(h, X, Y, 0)) == pytest.approx(math.log(2), abs=1e-12)

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            delta(HXY, 1 << 5, 0, 0)


class TestIngleton:
    def test_hxy_is_minus_one(self):
        assert ingleton(HXY, X, Y, Z, U) == Fraction(-1)
        assert ingleton_from_table(HXY.values, X, Y, Z, U) == -1

    def test_zero_function(self):
        assert ingleton(ZERO, X, Y, Z, U) == 0

    def test_swap_invariance(self):
        rng = random.Random(13)
        for _ in range(100):
            h = random_setfn(rng)
            v = ingleton(h, X, Y, Z, U)
            assert ingleton(h, Y, X, Z, U) == v
            assert ingleton(h, X, Y, U, Z) == v
            assert ingleton(h, Y, X, U, Z) == v

    def test_rejects_overlapping_arguments(self):
        with pytest.raises(ValueError):
            ingleton(HXY, X, X, Z, U)


class TestMaskForms:
    def test_all_forms_match_on_random_rational_functions(self):
        rng = random.Random(17)
        for _ in range(300):
            h = random_setfn(rng)
            direct = ingleton(h, X, Y, Z, U)
            for k in range(1, 6):
                assert mask_form(h, k, X, Y, Z, U) == direct

    def test_forms_match_on_indicator_basis(self):
        # exact agreement on a basis decides equality of the functionals
        for T in BASE.subsets():
            e = SetFunction.from_callable(
                BASE, lambda m, T=T: Fraction(1) if m == T else Fraction(0)
            )
            direct = ingleton(e, X, Y, Z, U)
            for k in range(1, 6):
                assert mask_form(e, k, X, Y, Z, U) == direct

    def test_forms_match_under_compound_assignments(self):
        rng = random.Random(19)
        big = BasicSet(("a", "b", "c", "d", "e"))
        for _ in range(100):
            h = SetFunction(big, random_rational_setfn(rng, n=5))
            groups = [0, 0, 0, 0]
            for v in range(5):
                slot = rng.randrange(5)
                if slot < 4:
                    groups[slot] |= 1 << v
            direct = ingleton(h, *groups)
            for k in range(1, 6):
                assert mask_form(h, k, *groups) == direct

    def test_forms_match_four_delta_sum_on_entropy_functions(self):
        # the uncompiled formula: each rewriting as its four signed
        # difference expressions, summed in table order
        rng = random.Random(23)
        dists = [e.distribution for e in catalog.entries() if e.distribution is not None]
        assert len(dists) == 15
        dists += [random_distribution(rng) for _ in range(50)]
        for P in dists:
            h = entropy_function(P)
            masks = [P.space.mask(n) for n in ("x", "y", "z", "u")]
            for k in range(1, 6):
                reference = sum(
                    sign * delta_from_table(h.values, *substitute_pattern(pattern, *masks))
                    for sign, pattern in MASK_TERMS[k]
                )
                assert abs(mask_form(h, k, *masks) - reference) <= FLOAT_TOL

    def test_hxy_first_form(self):
        assert mask_form(HXY, 1, X, Y, Z, U) == Fraction(-1)

    def test_zero_function_all_forms(self):
        assert all(mask_form(ZERO, k, X, Y, Z, U) == 0 for k in range(1, 6))

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            mask_form(HXY, 6, X, Y, Z, U)


@st.composite
def tables_and_masks(draw, values):
    """A set function over 2-5 variables with values from the strategy, a
    triplet of arbitrary masks, and four pairwise disjoint (possibly empty)
    masks."""
    n = draw(st.integers(2, 5))
    table = draw(st.lists(values, min_size=1 << n, max_size=1 << n))
    h = SetFunction(BasicSet("abcde"[:n]), tuple(table))
    triplet = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(3))
    groups = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    quad = tuple(sum(1 << i for i, g in enumerate(groups) if g == k) for k in range(4))
    return h, triplet, quad


def four_delta_sum(values, k, quad):
    """Rewriting k as the signed sum of its four oracle difference terms."""
    return sum(
        sign * delta_from_table(values, *substitute_pattern(pattern, *quad))
        for sign, pattern in MASK_TERMS[k]
    )


INTS = st.integers(-(10**12), 10**12)
FRACTIONS = st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**6))
EXACT_VALUES = {"int": INTS, "fraction": FRACTIONS, "mixed": st.one_of(INTS, FRACTIONS)}


class TestExactLinearForms:
    """delta, ingleton and the mask forms against the table oracles: exact
    tables are read as integers over one denominator, float tables as
    they are."""

    @pytest.mark.parametrize("kind", sorted(EXACT_VALUES))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_exact_tables(self, kind, data):
        h, triplet, quad = data.draw(tables_and_masks(EXACT_VALUES[kind]))
        v = h.values
        expected = int if all(type(x) is int for x in v) else Fraction
        results = [(delta(h, *triplet), delta_from_table(v, *triplet))]
        results.append((ingleton(h, *quad), ingleton_from_table(v, *quad)))
        results += [(mask_form(h, k, *quad), four_delta_sum(v, k, quad)) for k in range(1, 6)]
        for got, want in results:
            assert got == want
            assert type(got) is expected

    @settings(max_examples=200, deadline=None)
    @given(tables_and_masks(st.floats(-1e6, 1e6, allow_nan=False)))
    def test_float_tables(self, case):
        # the ordered expressions give bit-identical floats; the mask forms
        # add the same values in another order
        h, triplet, quad = case
        v = h.values
        assert repr(delta(h, *triplet)) == repr(delta_from_table(v, *triplet))
        assert repr(ingleton(h, *quad)) == repr(ingleton_from_table(v, *quad))
        scale = 1 + max(abs(x) for x in v)
        for k in range(1, 6):
            assert abs(mask_form(h, k, *quad) - four_delta_sum(v, k, quad)) <= 1e-12 * scale

    def test_bool_table_takes_the_plain_expression(self):
        h = SetFunction(BASE, tuple(bool(m % 3) for m in range(16)))
        assert h._linear_values == (h.values, None)
        assert delta(h, X, Y, Z) == delta_from_table(h.values, X, Y, Z)
        assert type(ingleton(h, X, Y, Z, U)) is int

    def test_cached_numerators_stay_outside_equality_hash_and_repr(self):
        values = random_rational_setfn(random.Random(29))
        h, fresh = SetFunction(BASE, values), SetFunction(BASE, values)
        ingleton(h, X, Y, Z, U)
        nums, D = h._linear_values
        assert all(Fraction(a, D) == b for a, b in zip(nums, values))
        assert h == fresh and hash(h) == hash(fresh) and repr(h) == repr(fresh)


class TestPolymatroid:
    def test_hxy(self):
        assert is_polymatroid(HXY).ok
        assert all_pairs_polymatroid(HXY.values)

    def test_nonzero_at_empty_set(self):
        h = SetFunction(BASE, (Fraction(1),) + HXY.values[1:])
        w = is_polymatroid(h)
        assert not w.ok
        assert w.violating_triplet is not None
        assert w.value < 0

    def test_catalog_entropies_are_polymatroids(self, catalog_entries):
        for entry in catalog_entries:
            if entry.distribution is None:
                continue
            assert is_polymatroid(entropy_function(entry.distribution)).ok, entry.id

    def test_witness_on_submodularity_violation(self):
        values = [Fraction(0)] * 16
        values[X | Y] = Fraction(-2)  # h({x,y}) < h({x}) + h({y}) fails delta >= 0
        w = is_polymatroid(SetFunction(BASE, tuple(values)))
        assert not w.ok and w.value < 0 and w.violating_triplet is not None

    def test_elementary_check_agrees_with_full_check(self):
        rng = random.Random(23)
        for _ in range(200):
            h = random_setfn(rng)
            values = (Fraction(0),) + h.values[1:]  # force h(empty) = 0
            h = SetFunction(BASE, values)
            assert is_polymatroid(h).ok == all_pairs_polymatroid(values)
        # random tables are almost never polymatroids, so also take
        # polymatroids with one value lowered, which sit on both sides
        verdicts = set()
        for _ in range(200):
            values = list(random_polymatroid(rng).values)
            values[rng.randrange(1, 16)] -= 1
            h = SetFunction(BASE, tuple(values))
            ok = is_polymatroid(h).ok
            assert ok == all_pairs_polymatroid(values)
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_random_mixtures_are_polymatroids(self):
        rng = random.Random(29)
        for _ in range(100):
            assert is_polymatroid(random_polymatroid(rng)).ok

    def test_nonnegative_difference_for_arbitrary_triplets(self):
        # includes overlapping and nested arguments
        rng = random.Random(31)
        for _ in range(50):
            h = random_polymatroid(rng)
            for _ in range(40):
                a, b, c = rng.randrange(16), rng.randrange(16), rng.randrange(16)
                assert delta(h, a, b, c) >= 0


class TestMatroid:
    def test_catalog_claims(self):
        assert is_matroid(catalog.get("CON1").rank_function)
        assert is_matroid(catalog.get("CON7").rank_function)
        assert not is_matroid(catalog.get("CON8").rank_function)
        assert not is_matroid(HXY)  # h({x}) = 2 exceeds the cardinality bound

    def test_zero_and_cardinality(self):
        assert is_matroid(ZERO)
        assert is_matroid(CARDINALITY)

    def test_rejects_fractional_values(self):
        h = SetFunction.from_callable(BASE, lambda m: Fraction(m.bit_count(), 2))
        assert is_polymatroid(h).ok and not is_matroid(h)


class TestTighten:
    def test_superset_indicator_tightens_to_zero(self):
        for i in range(4):
            assert all(v == 0 for v in tighten(upper_indicator(BASE, i)).values)

    def test_hxy_already_tight(self):
        assert is_tight(HXY)
        assert tighten(HXY) == HXY

    def test_idempotent_and_tight(self):
        rng = random.Random(37)
        for _ in range(100):
            h = random_polymatroid(rng)
            t = tighten(h)
            assert is_polymatroid(t).ok
            assert is_tight(t)
            assert tighten(t) == t

    def test_preserves_elementary_differences(self):
        # the correction is a combination of superset indicators, each of
        # which has vanishing difference on every pair of distinct
        # variables; verify the literal identity both ways
        rng = random.Random(41)
        for _ in range(50):
            h = random_polymatroid(rng)
            t = tighten(h)
            corrections = [
                h.values[15] - h.values[15 & ~(1 << i)] for i in range(4)
            ]
            for tr in canonical_triplets(4):
                i, j, K = 1 << tr.i, 1 << tr.j, tr.K
                correction = sum(
                    c * delta(upper_indicator(BASE, m), i, j, K)
                    for m, c in enumerate(corrections)
                )
                assert delta(t, i, j, K) == delta(h, i, j, K) - correction
                assert correction == 0
            # the one-variable terms absorb the whole correction
            for m in range(4):
                assert t.values[15] - t.values[15 & ~(1 << m)] == 0

    def test_rejects_non_polymatroid(self):
        bad = SetFunction(BASE, (Fraction(1),) * 16)
        with pytest.raises(ValueError):
            tighten(bad)
        with pytest.raises(ValueError):
            is_tight(bad)


class TestInducedStructure:
    def test_hxy_frozen_scan(self):
        expected = CIStructure.from_statements(BASE, [(a, b, k) for a, b, k in HXY_INDUCED])
        # independent scan straight off the value table
        scanned = {
            t
            for t in canonical_triplets(4)
            if delta_from_table(HXY.values, 1 << t.i, 1 << t.j, t.K) == 0
        }
        assert scanned == expected.members
        assert induced_ci_structure_of_rank(HXY).members == expected.members

    def test_modular_function_gives_everything(self):
        s = induced_ci_structure_of_rank(CARDINALITY)
        assert len(s) == 24

    def test_duplicated_bit_entropy_matches_claim(self):
        h = entropy_function(catalog.get("CON1").distribution)
        s = induced_ci_structure_of_rank(h)
        assert s.members == catalog.get("CON1").claimed_statements.members

    def test_exchange_identity_for_any_function(self):
        # delta(X, Y+Z | U) = delta(X, Y | Z+U) + delta(X, Z | U) holds as a
        # linear identity regardless of the function
        rng = random.Random(43)
        for _ in range(100):
            h = random_setfn(rng)
            a, b, c, d = (rng.randrange(16) for _ in range(4))
            assert delta(h, a, b | c, d) == delta(h, a, b, c | d) + delta(h, a, c, d)


TWO = BasicSet(("x", "y"))


def modular_pair(delta_xy):
    """h(empty) = 0, h(x) = h(y) = 1 and h(xy) = 2 - delta_xy, so that
    delta(x, y | empty) = delta_xy and every other elementary inequality
    holds with room to spare."""
    zero, one = type(delta_xy)(0), type(delta_xy)(1)
    return SetFunction(TWO, (zero, one, one, 2 * one - delta_xy))


class TestTolerancePolicy:
    def test_one_tolerance(self):
        assert setfn.FLOAT_TOL == 1e-9
        assert inequalities.FLOAT_TOL is setfn.FLOAT_TOL

    def test_float_difference_inside_the_tolerance_passes(self):
        h = modular_pair(-0.5e-9)
        assert -setfn.FLOAT_TOL < delta(h, X, Y, 0) < 0
        assert is_polymatroid(h).ok

    def test_float_difference_beyond_the_tolerance_fails(self):
        h = modular_pair(-2e-9)
        w = is_polymatroid(h)
        assert not w.ok and w.violating_triplet == (X, Y, 0) and w.value < -setfn.FLOAT_TOL

    def test_exact_difference_below_zero_fails(self):
        w = is_polymatroid(modular_pair(Fraction(-1, 10**12)))
        assert not w.ok and w.violating_triplet == (X, Y, 0)
        assert w.value == Fraction(-1, 10**12)

    def test_near_zero_counts_as_independent_on_float_tables_only(self):
        assert induced_ci_structure_of_rank(modular_pair(0.5e-9)).bits == 1
        assert induced_ci_structure_of_rank(modular_pair(2e-9)).bits == 0
        assert induced_ci_structure_of_rank(modular_pair(Fraction(1, 2 * 10**9))).bits == 0
        assert induced_ci_structure_of_rank(modular_pair(Fraction(0))).bits == 1

    @pytest.mark.parametrize(
        "values",
        [(0, math.nan, math.nan, math.nan), (0, math.nan, 1, math.inf)],
        ids=["nan", "nan-inf"],
    )
    def test_non_finite_values_are_rejected(self, values):
        with pytest.raises(ValueError, match="^set-function values must be finite$"):
            SetFunction(TWO, values)

    def test_huge_fractions_are_finite(self):
        # float() of this Fraction overflows; only floats are tested
        big = Fraction(10**400)
        assert SetFunction(TWO, (0, big, big, 2 * big)).values[3] == 2 * big


XY_VALUES ={"": "0", "x": "1", "y": "1", "xy": "2"}


def round_trip(h):
    return SetFunction.from_json_dict(json.loads(json.dumps(h.to_json_dict())))


class TestSerialization:
    def test_rational_round_trip(self):
        again = round_trip(HXY)
        assert again == HXY
        assert again.is_exact

    def test_float_round_trip(self):
        h = entropy_function(catalog.get("EX5").distribution)
        again = round_trip(h)
        assert not again.is_exact
        assert all(
            float(a) == pytest.approx(float(b), abs=0)
            for a, b in zip(again.values, h.values)
        )

    def test_rational_strings(self):
        data = HXY.to_json_dict()
        assert data["values"][""] == "0"
        assert data["values"]["xy"] == "4"
        assert data["values"]["x"] == "2"

    def test_round_trip_over_overlapping_labels(self):
        # "ab" is a label and also the key of {a, b}: every base drawn from
        # these labels either round-trips or refuses to be written
        rng = random.Random(18)
        for n in (2, 3, 4):
            for labels in itertools.permutations(("a", "b", "ab", "ba"), n):
                base = BasicSet(labels)
                h = SetFunction(base, tuple(Fraction(rng.randint(0, 9), 7) for _ in range(1 << n)))
                if len({base.label_string(m) for m in base.subsets()}) < 1 << n:
                    with pytest.raises(ValueError, match="share the key"):
                        h.to_json_dict()
                else:
                    assert round_trip(h) == h

    def test_missing_subset_rejected(self):
        data = HXY.to_json_dict()
        del data["values"]["xy"]
        with pytest.raises(ValueError):
            SetFunction.from_json_dict(data)

    def test_unknown_label_rejected(self):
        data = HXY.to_json_dict()
        data["values"]["q"] = "1"
        with pytest.raises(ValueError):
            SetFunction.from_json_dict(data)

    @pytest.mark.parametrize(
        "document",
        [
            pytest.param([["x", "y"], XY_VALUES], id="not-an-object"),
            pytest.param({"values": XY_VALUES}, id="base-missing"),
            pytest.param({"base": "xy", "values": XY_VALUES}, id="base-not-list"),
            pytest.param({"base": ["x", "y"], "values": ["0", "1", "1", "2"]}, id="values-list"),
            pytest.param({"base": ["x", "y"], "values": {**XY_VALUES, "x": [1]}}, id="value-list"),
            pytest.param({"base": ["x", "y"], "values": {**XY_VALUES, "x": None}}, id="value-null"),
            pytest.param({"base": ["x", "y"], "values": {**XY_VALUES, "x": True}}, id="value-true"),
            pytest.param({"base": ["x", "y"], "values": {**XY_VALUES, "": False}}, id="value-false"),
            pytest.param({"base": ["x", "y"], "values": {**XY_VALUES, "x": math.nan}}, id="nan"),
            pytest.param({"base": ["x", "y"], "values": {**XY_VALUES, "xy": "1e999"}}, id="inf"),
            pytest.param({"base": ["x", "y"], "values": {**XY_VALUES, "x": "1/0"}}, id="zero-denominator"),
            # 2**40 subsets: rejected by its size before any is listed
            pytest.param({"base": [f"v{k}" for k in range(40)], "values": {}}, id="forty"),
        ],
    )
    def test_wrong_shape_is_a_value_error(self, document):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            SetFunction.from_json_dict(json.loads(json.dumps(document)))
        assert time.perf_counter() - start < 1
        assert "\n" not in str(info.value)
