"""Exact distribution algebra: marginals, CI tests, products, entropy,
divergence, and the intersection-variable extension."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cinfer import catalog, checks, dist
from cinfer.dist import (
    ConsonanceError,
    DominanceError,
    JointDistribution,
    SampleSpace,
    conditional_product,
    double_markov_extend,
    entropy_function,
    induced_ci_structure,
    is_ci,
    kl_divergence,
    lattice_product,
    marginal,
)
from cinfer.checks import random_distribution
from cinfer.inference import ground_rules
from cinfer.sets import BasicSet
from cinfer.setfn import delta, induced_ci_structure_of_rank

from oracles import (
    brute_force_is_ci,
    conditional_product_table,
    entropy_of_subset,
    fraction_random_distribution,
    lattice_product_table,
    marginal_table,
    naive_closure,
    packed_fields,
    packed_value,
)

EX1 = catalog.get("EX1").distribution
EX5 = catalog.get("EX5").distribution
CON1 = catalog.get("CON1").distribution
FULL = catalog.get("FULL").distribution

NAMES = ("x", "y", "z", "u")
ALL_RULES = ground_rules(BasicSet(NAMES), "all")
# (A, B, C) splits of the four variables for conditional products
SPLITS = [(("x",), ("y",), ("z", "u")), (("z",), ("x", "u"), ("y",)), (("x", "y"), ("z", "u"), ())]

# the three-variable marginal of the fifth counterexample onto (x, z, u),
# as printed: eight rows over sixty-fourths
EX5_XZU_ROWS = {
    (0, 0, 0): Fraction(21, 64),
    (0, 0, 1): Fraction(1, 64),
    (0, 1, 0): Fraction(7, 64),
    (0, 1, 1): Fraction(3, 64),
    (1, 0, 0): Fraction(3, 64),
    (1, 0, 1): Fraction(7, 64),
    (1, 1, 0): Fraction(1, 64),
    (1, 1, 1): Fraction(21, 64),
}
EX5_YZU_ROWS = {
    (0, 0, 0): Fraction(21, 64),
    (0, 0, 1): Fraction(7, 64),
    (0, 1, 0): Fraction(1, 64),
    (0, 1, 1): Fraction(3, 64),
    (1, 0, 0): Fraction(3, 64),
    (1, 0, 1): Fraction(1, 64),
    (1, 1, 0): Fraction(7, 64),
    (1, 1, 1): Fraction(21, 64),
}


class TestConstruction:
    def test_rows_must_normalize(self):
        space = SampleSpace(("a", "b"), (2, 2))
        with pytest.raises(ValueError):
            JointDistribution(space, {(0, 0): Fraction(1, 2)})

    def test_negative_probability_rejected(self):
        space = SampleSpace(("a", "b"), (2, 2))
        with pytest.raises(ValueError):
            JointDistribution(
                space, {(0, 0): Fraction(3, 2), (1, 1): Fraction(-1, 2)}
            )

    def test_zero_rows_dropped(self):
        space = SampleSpace(("a", "b"), (2, 2))
        P = JointDistribution(space, {(0, 0): 1, (1, 1): 0})
        assert P.support() == [(0, 0)]

    def test_out_of_range_value_rejected(self):
        space = SampleSpace(("a", "b"), (2, 2))
        with pytest.raises(ValueError):
            JointDistribution(space, {(0, 2): 1})

    @pytest.mark.parametrize("value", [0.7, 1.0, "1", True, False])
    def test_non_integer_value_rejected(self, value):
        # int() would truncate 0.7 to 0 and read "1" as 1
        space = SampleSpace(("a", "b"), (2, 2))
        with pytest.raises(ValueError, match="non-integer value") as error:
            JointDistribution(space, {(value, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)})
        assert "\n" not in str(error.value)

    @pytest.mark.parametrize("card", [2.9, 2.0, "3", True])
    def test_non_integer_cardinality_rejected(self, card):
        with pytest.raises(ValueError, match="cardinalities must be positive integers") as error:
            SampleSpace(("a", "b"), (card, 2))
        assert "\n" not in str(error.value)

    def test_json_round_trip(self):
        again = JointDistribution.from_json_dict(json.loads(json.dumps(EX5.to_json_dict())))
        assert again == EX5
        data = EX5.to_json_dict()
        assert data["variables"][0] == {"name": "x", "cardinality": 2}
        assert {"config": [0, 0, 0, 0], "prob": "9/32"} in data["density"]


class TestRandomDistribution:
    def test_random_distribution_deterministic(self):
        a = random_distribution(random.Random(5))
        b = random_distribution(random.Random(5))
        assert a == b

    def test_matches_the_fraction_construction(self):
        # same distribution, same representation, and the same rng state
        # after the call, so every later draw from the generator is unchanged
        for seed in range(300):
            rng, reference_rng = random.Random(seed), random.Random(seed)
            P = random_distribution(rng)
            Q = fraction_random_distribution(reference_rng)
            assert P == Q and P._weights == Q._weights and P._D == Q._D
            assert rng.getstate() == reference_rng.getstate()

    def test_distributions_are_normalized(self):
        rng = random.Random(7)
        for _ in range(50):
            P = random_distribution(rng)
            assert sum(p for _, p in P.items()) == 1


class TestMarginal:
    def test_ex5_xzu_table(self):
        assert marginal(EX5, "xzu").marginal_density(7) == EX5_XZU_ROWS
        assert EX5.marginal_density(EX5.mask("xzu")) == EX5_XZU_ROWS

    def test_ex5_yzu_table(self):
        assert EX5.marginal_density(EX5.mask("yzu")) == EX5_YZU_ROWS

    def test_marginal_of_everything_is_identity(self):
        assert marginal(EX5, EX5.space.full_mask) == EX5

    def test_point_mass_marginal(self):
        m = marginal(CON1, "zu")
        assert m.support() == [(0, 0)]
        assert dict(m.items()).get((0, 0), 0) == 1

    def test_matches_direct_summation(self):
        rng = random.Random(3)
        for _ in range(25):
            P = random_distribution(rng)
            mask = rng.randrange(1, 16)
            keep = [k for k in range(4) if mask >> k & 1]
            assert P.marginal_density(mask) == marginal_table(
                dict(P.items()), P.cardinalities, keep
            )

    def test_empty_marginal_rejected(self):
        with pytest.raises(ValueError):
            marginal(EX5, 0)


class TestIsCI:
    def test_first_counterexample_statements(self):
        assert is_ci(EX1, "x", "y", "")
        assert not is_ci(EX1, "z", "u", "")
        assert is_ci(EX1, "z", "u", "x")
        assert is_ci(EX1, "z", "u", "xy")

    def test_functional_dependence_reading(self):
        # a constant variable is a function of anything, including nothing
        assert is_ci(CON1, "u", "u", "")
        # the duplicated bit is a function of its copy but not of a constant
        assert is_ci(CON1, "x", "x", "y")
        assert not is_ci(CON1, "x", "x", "z")

    def test_empty_side_always_holds(self):
        rng = random.Random(5)
        for _ in range(20):
            P = random_distribution(rng)
            assert is_ci(P, 0, rng.randrange(16), rng.randrange(16))

    def test_agrees_with_full_grid_oracle(self):
        rng = random.Random(7)
        for _ in range(120):
            P = random_distribution(rng)
            X, Y, Z = rng.randrange(16), rng.randrange(16), rng.randrange(16)
            assert is_ci(P, X, Y, Z) == brute_force_is_ci(
                dict(P.items()), P.cardinalities, X, Y, Z
            ), (P.support(), X, Y, Z)
        # conditional products (A independent of B given C by construction)
        # and lattice products of two binary factors, with X == Y queries too
        binary = (2, 2, 2, 2)
        for k in range(60):
            A, B, C = SPLITS[k % 3]
            source = random_distribution(rng)
            glued = conditional_product(marginal(source, A + C), marginal(source, B + C), A, B, C)
            pair = (
                fraction_random_distribution(rng, cards=binary),
                fraction_random_distribution(rng, cards=binary),
            )
            for P in (glued, lattice_product(*pair)):
                X, Y, Z = rng.randrange(16), rng.randrange(16), rng.randrange(16)
                for Y in (Y, X):
                    assert is_ci(P, X, Y, Z) == brute_force_is_ci(
                        dict(P.items()), P.cardinalities, X, Y, Z
                    ), (P.support(), X, Y, Z)


class TestConditionalProduct:
    def test_unconditioned_product(self):
        Q = marginal(EX1, "x")
        R = marginal(EX1, "yz")
        P = conditional_product(Q, R, ("x",), ("y", "z"), ())
        assert is_ci(P, P.mask("x"), P.mask("yz"), 0)
        assert marginal(P, "x") == Q

    def test_glues_ex5_marginals(self):
        Q = marginal(EX5, "xzu")
        R = marginal(EX5, "yzu")
        P = conditional_product(Q, R, ("x",), ("y",), ("z", "u"))
        assert is_ci(P, P.mask("x"), P.mask("y"), P.mask("zu"))
        assert marginal(P, "xzu").reordered(Q.names) == Q
        assert marginal(P, "yzu").reordered(R.names) == R
        # the glued distribution differs from the original, which is not
        # conditionally independent there
        assert not is_ci(EX5, "x", "y", "zu")

    def test_factorization_identity_on_catalog(self, catalog_entries):
        # wherever A _||_ B | C holds, regluing the two marginals gives back
        # the distribution itself
        for entry in catalog_entries:
            P = entry.distribution
            if P is None:
                continue
            for A, B, C in ((("x",), ("y",), ("z", "u")), (("z",), ("u",), ("x", "y"))):
                if not is_ci(P, P.mask(A), P.mask(B), P.mask(C)):
                    continue
                glued = conditional_product(
                    marginal(P, A + C), marginal(P, B + C), A, B, C
                )
                assert glued.reordered(P.names) == P, entry.id

    def test_rejects_non_consonant_factors(self):
        Q = marginal(EX1, "xz")
        R = marginal(EX5, "yz")  # different z-marginal
        with pytest.raises(ValueError):
            conditional_product(Q, R, ("x",), ("y",), ("z",))

    def test_rejects_empty_sides(self):
        Q = marginal(EX1, "z")
        R = marginal(EX1, "yz")
        with pytest.raises(ValueError):
            conditional_product(Q, R, (), ("y",), ("z",))


class TestDerivedSpaces:
    def test_distribution_algebra_builds_each_derived_space_once(self, monkeypatch):
        # one space per cardinality tuple of the random distributions (16),
        # one per lattice product (120) and extension (130), and one per
        # distinct key of the marginals and reorderings (750) and of the
        # conditional products (481); 5,960 when every call built its own
        catalog.entries()
        checks._space.cache_clear()
        dist._derived.cache_clear()
        dist._glued.cache_clear()
        calls = 0
        real = SampleSpace.__init__

        def counted(self, *args):
            nonlocal calls
            calls += 1
            real(self, *args)

        monkeypatch.setattr(SampleSpace, "__init__", counted)
        assert checks.check_distribution_algebra()[0]
        assert calls == 1497

    def test_reorder_to_its_own_order_is_the_distribution(self):
        for P in (EX1, marginal(EX5, "zx"), lattice_product(EX1, CON1)):
            assert P.reordered(P.names) is P
            assert P.reordered(list(P.names)) is P
        with pytest.raises(ValueError, match="exactly the same labels"):
            EX1.reordered(EX1.names + ("x",))

    def test_same_names_with_other_cardinalities_get_their_own_spaces(self):
        half = Fraction(1, 2)
        Q = JointDistribution(SampleSpace(("x", "z"), (2, 2)), {(0, 0): half, (1, 1): half})
        for card in (2, 3, 2):
            R = JointDistribution(
                SampleSpace(("y", "z"), (card, 2)), {(card - 1, 0): half, (0, 1): half}
            )
            assert marginal(R, "y").cardinalities == (card,)
            assert marginal(R, "y").items() == [((0,), half), ((card - 1,), half)]
            assert R.reordered(("z", "y")).cardinalities == (2, card)
            P = conditional_product(Q, R, ("x",), ("y",), ("z",))
            assert P.cardinalities == (2, 2, card)
            assert marginal(P, "yz").reordered(R.names) == R

    def test_non_consonant_cardinalities_raise_on_every_call(self):
        # the cached layout of a conditional product caches no exception
        Q = JointDistribution(SampleSpace(("x", "z"), (2, 2)), {(0, 0): 1})
        R = JointDistribution(SampleSpace(("y", "z"), (2, 3)), {(0, 0): 1})
        for _ in range(2):
            with pytest.raises(ConsonanceError, match="shared variables must have equal"):
                conditional_product(Q, R, ("x",), ("y",), ("z",))


class TestEntropy:
    def test_duplicated_bit_pattern(self):
        h = entropy_function(CON1)
        for m in h.base.subsets():
            rank = min(bin(m & 0b0011).count("1"), 1)
            assert float(h.values[m]) == pytest.approx(rank * math.log(2), abs=1e-12)

    def test_ternary_two_wise_uniform(self):
        h = entropy_function(catalog.get("CON7").distribution)
        for m in h.base.subsets():
            rank = min(bin(m).count("1"), 2)
            assert float(h.values[m]) == pytest.approx(rank * math.log(3), abs=1e-12)

    def test_ex5_pair_correlation_value(self):
        # the (x,y)-marginal puts (1 + a)/4 on agreement with a = 1/8, so
        # the shared information is ((1+a)ln(1+a) + (1-a)ln(1-a))/2
        h = entropy_function(EX5)
        a = 1 / 8
        expected = ((1 + a) * math.log(1 + a) + (1 - a) * math.log(1 - a)) / 2
        assert float(delta(h, 1, 2, 0)) == pytest.approx(expected, abs=1e-12)

    def test_matches_summation_oracle(self):
        rng = random.Random(11)
        for _ in range(10):
            P = random_distribution(rng)
            h = entropy_function(P)
            for m in range(16):
                keep = [k for k in range(4) if m >> k & 1]
                assert float(h.values[m]) == pytest.approx(
                    entropy_of_subset(dict(P.items()), P.cardinalities, keep), abs=1e-11
                )

    def test_vanishing_difference_iff_independent(self, catalog_entries):
        from cinfer.structures import canonical_triplets

        for entry in catalog_entries:
            P = entry.distribution
            if P is None:
                continue
            h = entropy_function(P)
            for t in canonical_triplets(4):
                exact = is_ci(P, 1 << t.i, 1 << t.j, t.K)
                near_zero = abs(float(delta(h, 1 << t.i, 1 << t.j, t.K))) <= 1e-9
                assert exact == near_zero, (entry.id, t)

    def test_vanishing_difference_iff_independent_compound(self):
        # the equivalence also covers compound and overlapping triplets
        rng = random.Random(19)
        for eid in ("EX5", "CON7", "CON9", "FULL"):
            P = catalog.get(eid).distribution
            h = entropy_function(P)
            for _ in range(60):
                X, Y, Z = rng.randrange(16), rng.randrange(16), rng.randrange(16)
                exact = is_ci(P, X, Y, Z)
                near_zero = abs(float(delta(h, X, Y, Z))) <= 1e-9
                assert exact == near_zero, (eid, X, Y, Z)


class TestDivergence:
    def test_self_divergence_is_zero(self):
        assert kl_divergence(EX5, EX5) == 0.0

    def test_two_point_value(self):
        space = SampleSpace(("a",), (2,))
        Q = JointDistribution(space, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
        R = JointDistribution(space, {(0,): Fraction(1, 4), (1,): Fraction(3, 4)})
        expected = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert kl_divergence(Q, R) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = random.Random(13)
        for _ in range(50):
            cards = (2, 2, 2, 2)
            Q = fraction_random_distribution(rng, cards=cards)
            R = fraction_random_distribution(rng, cards=cards, max_support=16)
            try:
                d = kl_divergence(Q, R)
            except DominanceError:
                continue
            assert d >= -1e-12
            assert (d == 0) == (Q == R) or d > 0

    def test_dominance_error_carries_configuration(self):
        space = SampleSpace(("a",), (2,))
        Q = JointDistribution(space, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
        R = JointDistribution(space, {(0,): 1})
        with pytest.raises(DominanceError) as err:
            kl_divergence(Q, R)
        assert err.value.config == (1,)

    def test_divergence_from_own_conditional_product(self):
        # equals the difference expression of the entropy function
        h = entropy_function(EX5)
        Pbar = conditional_product(
            marginal(EX5, "xzu"), marginal(EX5, "yzu"), ("x",), ("y",), ("z", "u")
        )
        div = kl_divergence(EX5, Pbar.reordered(EX5.names))
        assert div == pytest.approx(float(delta(h, 1, 2, 12)), abs=1e-12)


class TestLatticeProduct:
    def test_point_mass_keeps_structure(self):
        space = SampleSpace(("x", "y", "z", "u"), (1, 1, 1, 1))
        point = JointDistribution(space, {(0, 0, 0, 0): 1})
        prod = lattice_product(EX1, point)
        assert induced_ci_structure(prod).members == induced_ci_structure(EX1).members

    def test_permuted_factor_intersection(self):
        permuted = EX1.reordered(("z", "u", "x", "y"))
        # relabel back so both factors share the same variable names
        renamed = JointDistribution(
            SampleSpace(EX1.names, permuted.cardinalities),
            dict(permuted.items()),
        )
        prod = lattice_product(EX1, renamed)
        expected = induced_ci_structure(EX1).members & induced_ci_structure(renamed).members
        assert induced_ci_structure(prod).members == expected

    def test_self_product_idempotent_structure(self):
        for eid in ("EX1", "EX3", "CON6"):
            P = catalog.get(eid).distribution
            prod = lattice_product(P, P)
            assert induced_ci_structure(prod).members == induced_ci_structure(P).members

    def test_requires_matching_variables(self):
        with pytest.raises(ValueError):
            lattice_product(EX1, marginal(EX1, "xyz"))

    def test_fill_never_sums_the_product_rows(self, monkeypatch):
        # the structure and the entropy of a lattice product read its
        # factors' tables only: nothing summed is larger than a factor, and
        # the 256 rows of the product itself are not even paired
        rng = random.Random(18)
        grid = list(itertools.product((0, 1), repeat=4))
        space = SampleSpace(NAMES, (2, 2, 2, 2))
        Q, R = (
            JointDistribution(space, {cfg: Fraction(w, sum(ws)) for cfg, w in zip(grid, ws)})
            for ws in ([rng.randint(1, 9) for _ in grid] for _ in range(2))
        )
        L = lattice_product(Q, R)
        sizes, summed = [], dist._summed

        def spy(rows, keep):
            sizes.append(len(rows))
            return summed(rows, keep)

        monkeypatch.setattr(dist, "_summed", spy)
        monkeypatch.setattr(dist, "_paired", None)
        assert induced_ci_structure(L) == induced_ci_structure(Q) & induced_ci_structure(R)
        entropy_function(L)
        assert sizes and max(sizes) <= max(len(Q._weights), len(R._weights))
        assert "_weights" not in vars(L)
        monkeypatch.undo()
        assert len(L._weights) == 256

    def test_repr_counts_the_rows_without_pairing_them(self, monkeypatch):
        EX3 = catalog.get("EX3").distribution
        L = lattice_product(EX1, EX3)
        rows = len(EX1.items()) * len(EX3.items())
        monkeypatch.setattr(dist, "_paired", None)
        assert repr(L) == f"JointDistribution(x/y/z/u, {rows} rows)"
        assert "_weights" not in vars(L)
        monkeypatch.undo()
        assert len(L._weights) == rows and repr(L) == f"JointDistribution(x/y/z/u, {rows} rows)"

    def test_one_off_queries_before_the_fill(self, monkeypatch):
        # one-off marginals of a lattice product are summed from its rows;
        # the later fill pairs the factors' marginals for the rest
        Q, R = EX1, catalog.get("EX3").distribution
        L = lattice_product(Q, R)
        plain = JointDistribution(L.space, dict(L.items()))
        for X, Y, Z in [("x", "y", ""), ("x", "y", "zu"), ("z", "u", "x"), ("xy", "zu", "")]:
            assert is_ci(L, X, Y, Z) == is_ci(plain, X, Y, Z)
        for A in ("x", "yz", "xzu"):
            assert marginal(L, A) == marginal(plain, A)
        assert L._factors is not None
        assert induced_ci_structure(L) == induced_ci_structure(plain)
        assert induced_ci_structure(L) == induced_ci_structure(Q) & induced_ci_structure(R)
        assert L._all_marginals() == plain._all_marginals()
        # the structure is cached, so asking again sums and pairs nothing
        monkeypatch.setattr(dist, "_summed", None)
        monkeypatch.setattr(dist, "_paired", None)
        assert induced_ci_structure(L) == induced_ci_structure(plain)


class TestLatticeEntropy:
    """The entropy function of a lattice product is the sum of its factors'."""

    PAIRS = [("EX1", "EX3"), ("EX5", "CON1"), ("CON6", "CON6"), ("FULL", "EX5")]

    @staticmethod
    def _random_pairs():
        rng = random.Random(25)
        return [(random_distribution(rng), random_distribution(rng)) for _ in range(10)]

    @classmethod
    def _pairs(cls):
        named = [tuple(catalog.get(e).distribution for e in p) for p in cls.PAIRS]
        return named + cls._random_pairs()

    def test_sum_of_factor_entropies_bit_for_bit(self):
        for Q, R in self._pairs():
            hq, hr = entropy_function(Q).values, entropy_function(R).values
            assert entropy_function(lattice_product(Q, R)).values == tuple(
                a + b for a, b in zip(hq, hr)
            )

    def test_matches_summation_oracle_on_the_product_rows(self):
        for Q, R in self._pairs():
            L = lattice_product(Q, R)
            h, rows = entropy_function(L), dict(L.items())
            for m in range(16):
                keep = [k for k in range(4) if m >> k & 1]
                assert float(h.values[m]) == pytest.approx(
                    entropy_of_subset(rows, L.cardinalities, keep), abs=1e-11
                )

    def test_product_of_a_product(self):
        (Q, R), (S, _) = self._random_pairs()[:2]
        inner = lattice_product(Q, R)
        L = lattice_product(inner, S)
        assert len(L._weights) == len(Q._weights) * len(R._weights) * len(S._weights)
        h, rows = entropy_function(L).values, dict(L.items())
        # the outer product reads the inner one's rows, not its factors
        plain = JointDistribution(inner.space, dict(inner.items()))
        h_inner, hq, hr, hs = (entropy_function(F).values for F in (plain, Q, R, S))
        assert h == tuple(a + b for a, b in zip(h_inner, hs))
        for m, value in enumerate(h):
            assert value == pytest.approx(hq[m] + hr[m] + hs[m], abs=1e-12)
            keep = [k for k in range(4) if m >> k & 1]
            assert value == pytest.approx(entropy_of_subset(rows, L.cardinalities, keep), abs=1e-11)

    def test_caches_no_marginal_of_the_product(self, monkeypatch):
        # the entropy and the induced structure read the factors' fills and
        # keep none of them; the product's rows are never paired
        L = lattice_product(EX5, CON1)
        monkeypatch.setattr(dist, "_paired", None)
        entropy_function(L)
        assert induced_ci_structure(L) == induced_ci_structure(EX5) & induced_ci_structure(CON1)
        assert "_weights" not in vars(L) and "_marginals" not in vars(L)


class TestLatticeFill:
    """A lattice product's structure and entropy read transient fills of
    its factors' rows, its one kept copy; its own rows are paired only when
    they are read."""

    @staticmethod
    def _plain(L):
        return JointDistribution(L.space, dict(L.items()))

    def test_keeps_only_its_rows_in_either_order(self, monkeypatch):
        for Q, R in TestLatticeEntropy._pairs():
            for first, second in (
                (induced_ci_structure, entropy_function),
                (entropy_function, induced_ci_structure),
            ):
                L = lattice_product(Q, R)
                with monkeypatch.context() as m:
                    m.setattr(dist, "_paired", None)
                    first(L)
                    second(L)
                assert "_weights" not in vars(L)
                assert induced_ci_structure(L) == induced_ci_structure(self._plain(L))

    def test_cached_one_off_marginals_are_not_paired_again(self, monkeypatch):
        # one-off marginals pair the product's rows and sum from them; the
        # structure test then reads the factors' tables, and neither pairs
        # nor sums the product's rows again, nor extends its cache
        EX3 = catalog.get("EX3").distribution
        L = lattice_product(EX1, EX3)
        for A in ("x", "yz", "xzu"):
            marginal(L, A)
        cached = dict(L._marginals)
        assert len(cached) == 4
        expected = induced_ci_structure(self._plain(L))
        sizes, summed = [], dist._summed

        def spy(rows, keep):
            sizes.append(len(rows))
            return summed(rows, keep)

        monkeypatch.setattr(dist, "_summed", spy)
        monkeypatch.setattr(dist, "_paired", None)
        assert induced_ci_structure(L) == expected
        assert sizes and max(sizes) <= max(len(EX1.items()), len(EX3.items()))
        assert L._marginals == cached

    def test_holding_triplets_match_a_plain_copy(self):
        # the test of a product stops at its first failing pair of rows, so
        # only triplets that hold walk every pair; these products hold many
        sources = [e.distribution for e in catalog.entries() if e.distribution is not None]
        named = [tuple(catalog.get(e).distribution for e in p) for p in TestLatticeEntropy.PAIRS]
        products = [lattice_product(Q, R) for Q, R in named + [(P, P) for P in sources]]
        products.append(lattice_product(lattice_product(EX1, EX1), EX1))
        held = 0
        for L in products:
            structure = induced_ci_structure(L)
            assert structure == induced_ci_structure(self._plain(L))
            held += len(structure)
        assert held == 209

    def test_product_of_a_product(self):
        (Q, R), (S, _) = TestLatticeEntropy._random_pairs()[:2]
        L = lattice_product(lattice_product(Q, R), S)
        assert induced_ci_structure(L) == induced_ci_structure(self._plain(L))
        assert induced_ci_structure(L) == (
            induced_ci_structure(Q) & induced_ci_structure(R) & induced_ci_structure(S)
        )


class TestBoundaryReads:
    """items, support, to_json_dict and marginal_density decode the integer
    rows on each call and keep nothing they decode; a lattice product read
    only through the first three keeps none of its own rows."""

    @staticmethod
    def _products():
        named = [tuple(catalog.get(e).distribution for e in p) for p in TestLatticeEntropy.PAIRS]
        return [lattice_product(Q, R) for Q, R in named] + [
            lattice_product(lattice_product(EX1, CON1), EX5)
        ]

    @classmethod
    def _distributions(cls):
        sources = [e.distribution for e in catalog.entries() if e.distribution is not None]
        assert len(sources) == 15
        return sources + cls._products()

    READS = (
        JointDistribution.items,
        JointDistribution.support,
        JointDistribution.to_json_dict,
    )

    def test_reads_keep_nothing_they_decode(self):
        for P in self._distributions():
            kept = set(vars(P))
            for read in self.READS:
                read(P)
            assert set(vars(P)) == kept
            # a marginal keeps only what marginal() keeps: the marginal
            # weights, and a lattice product's rows
            P.marginal_density(P.names[0])
            P.marginal_density(P.space.full_mask)
            assert set(vars(P)) - kept <= {"_weights", "_marginals"}
            assert "_probs" not in vars(P)

    def test_lattice_reads_pair_its_rows_for_the_read_alone(self):
        for structure_first in (True, False):
            for L in self._products():
                if structure_first:
                    induced_ci_structure(L)
                    entropy_function(L)
                for read in self.READS:
                    read(L)
                if not structure_first:
                    induced_ci_structure(L)
                    entropy_function(L)
                assert "_weights" not in vars(L)

    def test_reads_repeat_and_match_a_plain_copy(self):
        for P in self._distributions():
            plain = JointDistribution(P.space, dict(P.items()))
            for read in self.READS:
                first, second = read(P), read(P)
                assert first is not second
                assert first == second == read(plain)
            assert isinstance(P.items(), list)
            assert P.support() == [cfg for cfg, _ in P.items()]
            # a lattice product's kept rows read the same as its pairing
            assert len(P._weights) == len(plain._weights)
            assert P.items() == plain.items() and P.support() == plain.support()


class TestOneVariable:
    def test_fair_bit(self):
        half = Fraction(1, 2)
        P = JointDistribution(SampleSpace(("x",), (2,)), {(0,): half, (1,): half})
        assert entropy_function(P).values == (0.0, math.log(2))
        assert induced_ci_structure(P).bits == 0


class TestMarginalFillBound:
    def _uniform(self, rows, card):
        """The first rows configurations of ten card-valued variables."""
        space = SampleSpace(tuple("xyzuabcdef"), (card,) * 10)
        grid = itertools.islice(itertools.product(range(card), repeat=10), rows)
        return JointDistribution(space, {cfg: Fraction(1, rows) for cfg in grid})

    def test_marginal_entries_are_counted_per_mask(self):
        # the full binary grid: rows * 2**10 = 2**20 is over the bound, but a
        # mask of k variables holds at most 2**k entries, 3**10 in all
        P = self._uniform(1024, 2)
        assert len(induced_ci_structure(P).base) == 10
        assert sum(map(len, P._marginals.values())) == 3**10 < dist.MAX_MARGINAL_FILL

    def test_fill_just_over_the_bound_sums_nothing(self, monkeypatch):
        # ten four-valued variables: the sum over k of C(10,k) * min(rows, 4**k)
        # is 524,751 entries at 725 rows, one row more than the bound allows
        P = self._uniform(725, 4)
        summed = []
        monkeypatch.setattr(dist, "_summed", lambda rows, keep: summed.append(keep))
        for fill in (induced_ci_structure, entropy_function):
            with pytest.raises(
                ValueError, match="need 524,751 marginal entries; at most 524,288 are supported$"
            ):
                fill(P)
        assert summed == [] and list(P._marginals) == [P.space.full_mask]

    def test_factor_fill_just_over_the_bound_sums_nothing(self, monkeypatch):
        # a point mass leaves the 725 rows of the table above as they are;
        # the product's entropy fills its factors' rows, bounded the same way
        Q = self._uniform(725, 4)
        point = JointDistribution(SampleSpace(Q.names, (1,) * 10), {(0,) * 10: 1})
        L = lattice_product(Q, point)
        summed = []
        monkeypatch.setattr(dist, "_summed", lambda rows, keep: summed.append(keep))
        with pytest.raises(
            ValueError, match="^725 rows over 10 variables need 524,751 marginal entries; "
            "at most 524,288 are supported$"
        ):
            entropy_function(L)
        assert summed == [] and list(L._marginals) == [L.space.full_mask]

    @staticmethod
    def _grid(names, cards):
        """The uniform distribution on every configuration of cards."""
        grid = list(itertools.product(*map(range, cards)))
        return JointDistribution(
            SampleSpace(names, cards), {cfg: Fraction(1, len(grid)) for cfg in grid}
        )

    def test_lattice_product_at_the_bound(self):
        L = lattice_product(self._grid("x", (1024,)), self._grid("x", (512,)))
        assert len(L._weights) == dist.MAX_MARGINAL_FILL

    def test_structure_and_entropy_at_the_row_cap(self, monkeypatch):
        # 2**19 rows over four variables: a fill of the product's own rows
        # would pass the bound, its factors' fills (1,024 and 512 rows) do
        # not, and neither answer pairs the rows
        rng = random.Random(28)
        Q, R = (
            JointDistribution(
                SampleSpace(NAMES, cards),
                {
                    cfg: Fraction(w, sum(ws))
                    for cfg, w in zip(itertools.product(*map(range, cards)), ws)
                },
            )
            for cards in ((8, 8, 4, 4), (8, 4, 4, 4))
            for ws in [[rng.randint(1, 9) for _ in range(math.prod(cards))]]
        )
        L = lattice_product(Q, R)
        monkeypatch.setattr(dist, "_paired", None)
        assert induced_ci_structure(L) == induced_ci_structure(Q) & induced_ci_structure(R)
        hq, hr = entropy_function(Q).values, entropy_function(R).values
        assert entropy_function(L).values == tuple(a + b for a, b in zip(hq, hr))
        assert repr(L) == f"JointDistribution(x/y/z/u, {dist.MAX_MARGINAL_FILL} rows)"
        assert "_weights" not in vars(L)

    def test_lattice_product_over_the_bound_builds_nothing(self, monkeypatch):
        Q, R = self._grid("x", (1024,)), self._grid("x", (513,))
        monkeypatch.setattr(dist, "_paired", None)
        with pytest.raises(
            ValueError, match="^a lattice product of 1,024 and 513 rows has 525,312 rows; "
            "at most 524,288 are supported$"
        ):
            lattice_product(Q, R)

    def test_conditional_product_at_the_bound(self):
        # counted per value of the shared variable: 2 * 512 * 512 rows,
        # although the factors hold 1,024 rows each
        Q, R = self._grid("ac", (512, 2)), self._grid("bc", (512, 2))
        glued = conditional_product(Q, R, "a", "b", "c")
        assert len(glued._weights) == dist.MAX_MARGINAL_FILL

    def test_conditional_product_over_the_bound(self):
        Q, R = self._grid("ac", (512, 2)), self._grid("bc", (513, 2))
        with pytest.raises(
            ValueError, match="^a conditional product of 1,024 and 1,026 rows has 525,312 rows; "
            "at most 524,288 are supported$"
        ):
            conditional_product(Q, R, "a", "b", "c")


class TestDoubleMarkov:
    def test_duplicated_variable_classes(self):
        # B and C carry the same value always: one class per shared value
        space = SampleSpace(("a", "b", "c"), (2, 3, 3))
        P = JointDistribution(
            space,
            {
                (0, 0, 0): Fraction(1, 4),
                (1, 0, 0): Fraction(1, 4),
                (0, 1, 1): Fraction(1, 4),
                (1, 2, 2): Fraction(1, 4),
            },
        )
        ext = double_markov_extend(P, "a", "b", "c")
        assert ext.cardinalities[-1] == 3
        w = ext.mask(ext.names[-1])
        assert is_ci(ext, w, w, ext.mask("b"))
        assert is_ci(ext, w, w, ext.mask("c"))
        assert is_ci(ext, ext.mask("a"), ext.mask("bc"), w)

    def test_full_support_collapses_to_constant(self):
        rng = random.Random(17)
        space = SampleSpace(("a", "b", "c"), (2, 2, 2))
        # independent full-support pair (b, c), a independent of both
        P = JointDistribution(
            space,
            {
                (i, j, k): Fraction(1, 8)
                for i in (0, 1)
                for j in (0, 1)
                for k in (0, 1)
            },
        )
        ext = double_markov_extend(P, "a", "b", "c")
        assert ext.cardinalities[-1] == 1

    def test_catalog_case(self):
        P = marginal(CON1, "xzu")
        assert is_ci(P, P.mask("x"), P.mask("z"), P.mask("u"))
        assert is_ci(P, P.mask("x"), P.mask("u"), P.mask("z"))
        ext = double_markov_extend(P, "x", "z", "u")
        w = ext.mask(ext.names[-1])
        assert is_ci(ext, w, w, ext.mask("z"))
        assert is_ci(ext, w, w, ext.mask("u"))
        assert is_ci(ext, ext.mask("x"), ext.mask("zu"), w)
        assert marginal(ext, "xzu") == P

    def test_rejects_violated_premises(self):
        P = marginal(EX5, "xzu")
        # x _||_ z | u holds but x _||_ u | z does not
        with pytest.raises(ValueError):
            double_markov_extend(P, "x", "u", "z")

    def test_extra_variables_summed_out(self):
        # handing over the full four-variable distribution marginalizes to
        # the named triple before extending
        ext = double_markov_extend(CON1, "x", "z", "u")
        assert set(ext.names) == {"x", "z", "u", ext.names[-1]}
        assert marginal(ext, "xzu") == marginal(CON1, "xzu")

    def test_fresh_label_avoids_collision(self):
        space = SampleSpace(("a", "w", "c"), (2, 2, 2))
        P = JointDistribution(
            space,
            {(i, j, j): Fraction(1, 4) for i in (0, 1) for j in (0, 1)},
        )
        ext = double_markov_extend(P, "a", "w", "c")
        assert ext.names[-1] == "w2"


class TestInducedStructure:
    def test_first_counterexample(self):
        s = induced_ci_structure(EX1)
        assert s.members == catalog.get("EX1").claimed_statements.members
        assert len(s) == 4

    def test_independent_bits_full(self):
        assert len(induced_ci_structure(FULL)) == 24

    def test_fifth_counterexample_two_statements(self):
        s = induced_ci_structure(EX5)
        assert {t.render(s.base) for t in s} == {"(x,z|u)", "(y,u|z)"}


@st.composite
def distributions(draw, cards=None, names=NAMES):
    """Exact distribution over the names (x, y, z, u by default) from up to
    twelve integer weights."""
    if cards is None:
        cards = tuple(draw(st.sampled_from((1, 2, 3))) for _ in names)
    grid = list(itertools.product(*(range(c) for c in cards)))
    rows = draw(st.dictionaries(st.sampled_from(grid), st.integers(1, 9), min_size=1, max_size=12))
    total = sum(rows.values())
    return JointDistribution(
        SampleSpace(names, cards), {cfg: Fraction(w, total) for cfg, w in rows.items()}
    )


def over(sizes):
    """Distributions over the first n of a, b, c, d, e, for n drawn from sizes."""
    return st.sampled_from(sizes).flatmap(lambda n: distributions(names=tuple("abcde"[:n])))


class TestStructureProperties:
    @settings(max_examples=80, deadline=None)
    @given(distributions(), st.sampled_from(SPLITS))
    def test_induced_structures_are_closed(self, P, split):
        A, B, C = split
        glued = conditional_product(marginal(P, A + C), marginal(P, B + C), A, B, C)
        for Q in (P, glued):
            bits = induced_ci_structure(Q).bits
            assert naive_closure(bits, ALL_RULES) == bits

    @settings(max_examples=50, deadline=None)
    @given(distributions(cards=(2, 2, 2, 2)), distributions())
    def test_lattice_product_structure_is_the_meet(self, Q, R):
        bits = induced_ci_structure(lattice_product(Q, R)).bits
        assert bits == (induced_ci_structure(Q) & induced_ci_structure(R)).bits
        assert naive_closure(bits, ALL_RULES) == bits


class TestLatticeProperties:
    @settings(max_examples=100, deadline=None)
    @given(over((1, 2, 3, 4, 5)), st.lists(st.integers(0, 31), max_size=3))
    def test_filled_lattice_matches_direct_summation(self, P, queried):
        # one-off marginals cached first must not disturb the top-down fill
        n = P.space.size
        for mask in queried:
            P.marginal_density(mask % (1 << n))
        lattice = P._all_marginals()
        assert sorted(lattice) == list(range(1 << n))
        density, cards = dict(P.items()), P.cardinalities
        for mask, weights in lattice.items():
            keep = [k for k in range(n) if mask >> k & 1]
            # keys are codes masked to the kept fields, one per configuration
            assert all(code & ~packed_fields(cards, keep) == 0 for code in weights)
            decoded = {
                tuple(packed_value(code, cards, k) for k in keep): Fraction(w, P._D)
                for code, w in weights.items()
            }
            assert len(decoded) == len(weights)
            assert decoded == marginal_table(density, cards, keep)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5).flatmap(lambda n: st.tuples(packed(n), packed(n))),
        st.lists(
            st.tuples(st.booleans(), st.lists(st.integers(0, 31), min_size=3, max_size=3)),
            max_size=6,
        ),
    )
    def test_factor_marginals_match_direct_summation(self, pair, queries):
        (Q, _), (R, _) = pair
        R = JointDistribution(SampleSpace(Q.names, R.cardinalities), dict(R.items()))
        L = lattice_product(Q, R)
        # one-off marginals and CI tests, in drawn order, before the fill
        for density, masks in queries:
            X, Y, Z = (m % (1 << L.space.size) for m in masks)
            if density:
                L.marginal_density(X)
            else:
                is_ci(L, X, Y, Z)
        # the factors' fills, which the structure test reads pair by pair,
        # pair to the product's marginals summed from its rows
        q, r = (L._factor_fill(rows) for rows, _ in L._factors)
        for mask, weights in L._all_marginals().items():
            assert weights == dist._summed(L._weights, L._fields[mask])
            assert dist._paired(q[mask], r[mask]) == weights
        # no gcd reduction: the factors' weights have gcd 1, so their products do
        assert L._D == Q._D * R._D

    @settings(max_examples=100, deadline=None)
    @given(over((2, 3, 4, 5)))
    def test_entropy_structure_matches_exact_structure(self, P):
        h = entropy_function(P)
        assert induced_ci_structure_of_rank(h) == induced_ci_structure(P)


@st.composite
def packed(draw, n=None):
    """A distribution over 1-5 variables with cardinalities 1-9 (fields of
    zero to four bits), with the density it was built from; grids hold at
    most 4,096 configurations, so the full-grid oracles stay quick."""
    if n is None:
        n = draw(st.integers(1, 5))
    cards = draw(
        st.lists(st.integers(1, 9), min_size=n, max_size=n).filter(lambda c: math.prod(c) <= 4096)
    )
    config = st.tuples(*(st.integers(0, c - 1) for c in cards))
    rows = draw(st.dictionaries(config, st.integers(1, 9), min_size=1, max_size=12))
    total = sum(rows.values())
    density = {cfg: Fraction(w, total) for cfg, w in rows.items()}
    return JointDistribution(SampleSpace("abcde"[:n], cards), density), density


class TestPackedCodes:
    @settings(max_examples=60, deadline=None)
    @given(packed())
    def test_items_are_the_input_in_configuration_order(self, drawn):
        P, density = drawn
        assert list(P.items()) == sorted(density.items())
        assert P.support() == sorted(density)
        assert JointDistribution.from_json_dict(P.to_json_dict()) == P

    @settings(max_examples=60, deadline=None)
    @given(packed(), st.integers(0, 31))
    def test_marginal_density_matches_summation(self, drawn, mask):
        P, density = drawn
        mask %= 1 << P.space.size
        keep = [k for k in range(P.space.size) if mask >> k & 1]
        assert P.marginal_density(mask) == marginal_table(density, P.cardinalities, keep)

    @settings(max_examples=40, deadline=None)
    @given(packed(), st.lists(st.integers(0, 31), min_size=3, max_size=3))
    def test_is_ci_matches_full_grid(self, drawn, masks):
        P, density = drawn
        X, Y, Z = (m % (1 << P.space.size) for m in masks)
        for Y in (Y, X):
            assert is_ci(P, X, Y, Z) == brute_force_is_ci(density, P.cardinalities, X, Y, Z)

    @settings(max_examples=60, deadline=None)
    @given(packed(), st.randoms(use_true_random=False))
    def test_reordered_round_trip(self, drawn, rng):
        P, density = drawn
        perm = rng.sample(range(P.space.size), P.space.size)
        Q = P.reordered([P.names[k] for k in perm])
        assert list(Q.items()) == sorted(
            (tuple(cfg[k] for k in perm), p) for cfg, p in density.items()
        )
        assert Q.reordered(P.names) == P

    @settings(max_examples=60, deadline=None)
    @given(packed(), st.randoms(use_true_random=False))
    def test_conditional_product_matches_oracle(self, drawn, rng):
        P, _ = drawn
        n = P.space.size
        if n < 2:
            return
        # a random split with A and B non-empty, variables left out allowed,
        # and each factor's variables in a random order
        groups = [rng.randrange(4) for _ in range(n)]
        groups[0], groups[-1] = 0, 1
        rng.shuffle(groups)
        A, B, C = (tuple(v for v, g in zip(P.names, groups) if g == b) for b in range(3))
        Q, R = (marginal(P, S + C) for S in (A, B))
        Q, R = (F.reordered(rng.sample(F.names, len(F.names))) for F in (Q, R))
        glued = conditional_product(Q, R, A, B, C)
        names, table = conditional_product_table(
            dict(Q.items()), Q.names, dict(R.items()), R.names, C
        )
        assert glued.names == names
        assert list(glued.items()) == list(table.items())
        assert is_ci(glued, glued.mask(A), glued.mask(B), glued.mask(C))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(packed(n), packed(n))))
    def test_lattice_product_matches_oracle(self, pair):
        (Q, q), (R, r) = pair
        R = JointDistribution(SampleSpace(Q.names, R.cardinalities), dict(R.items()))
        L = lattice_product(Q, R)
        assert L.cardinalities == tuple(a * b for a, b in zip(Q.cardinalities, R.cardinalities))
        assert list(L.items()) == list(lattice_product_table(q, r, R.cardinalities).items())

    @settings(max_examples=60, deadline=None)
    @given(packed(), st.lists(st.integers(-2, 20), min_size=0, max_size=6))
    def test_prob_is_zero_off_the_sample_space(self, drawn, values):
        P, density = drawn
        rows = dict(P.items())
        assert rows.get(tuple(values), 0) == density.get(tuple(values), 0)
        for cfg, p in density.items():
            assert rows.get(cfg, 0) == p
            assert rows.get(cfg + (0,), 0) == 0 and rows.get(cfg[:-1], 0) == 0
            for k, c in enumerate(P.cardinalities):
                # values past the cardinality, including those that carry
                # into the next field, never alias another row
                for v in (-1, *range(c, 2 << (c - 1).bit_length())):
                    assert rows.get(cfg[:k] + (v,) + cfg[k + 1:], 0) == 0


# sha256 of repr(pinned_outputs()).  Before a lattice product's entropy was
# the sum of its factors' the outputs hashed to 74edadf1...532d, and they
# still do with each product's entropy taken on a plain copy of its rows:
# only the last bits of the lattice entropies moved.
PINNED_DIGEST = "38e961e5ca9a40afe9ecd622a97e858826569687140f62b25c591d2fe230569a"


def pinned_outputs() -> list:
    """Outputs of the public dist functions on the 15 catalog distributions
    and 200 seeded random ones: entropy values, induced structure bits, the
    rows of conditional and lattice products, is_ci answers, divergences,
    marginal densities and double-Markov extensions."""
    rng = random.Random(4242)
    sources = [e.distribution for e in catalog.entries() if e.distribution is not None]
    sources += [random_distribution(rng) for _ in range(200)]
    out = []
    for i, P in enumerate(sources):
        A, B, C = SPLITS[i % 3]
        glued = conditional_product(marginal(P, A + C), marginal(P, B + C), A, B, C)
        back = glued.reordered(P.names)
        L = lattice_product(P, sources[i - 1])
        queries = [(rng.randrange(16), rng.randrange(16), rng.randrange(16)) for _ in range(6)]
        row = [
            entropy_function(P).values,
            entropy_function(L).values,
            induced_ci_structure(P).bits,
            induced_ci_structure(glued).bits,
            induced_ci_structure(L).bits,
            glued.names,
            glued.cardinalities,
            tuple(glued.items()),
            tuple(back.items()),
            L.cardinalities,
            tuple(L.items()),
            [is_ci(Q, X, Y, Z) for Q in (P, glued, L) for X, Y, Z in queries],
            P.marginal_density(queries[0][0]),
            kl_divergence(P, back),
        ]
        try:
            row.append(kl_divergence(back, P))
        except DominanceError as err:
            row.append(("dominance", err.config))
        try:
            ext = double_markov_extend(P, "x", "z", "u")
            row.append((ext.names, ext.cardinalities, tuple(ext.items())))
        except ValueError as err:
            row.append(str(err))
        out.append(row)
    return out


def test_outputs_match_pinned_digest():
    # any change in a float's bits, a row's order or an answer changes it
    digest = hashlib.sha256(repr(pinned_outputs()).encode()).hexdigest()
    assert digest == PINNED_DIGEST
