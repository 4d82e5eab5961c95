"""Product rule, coincidence classes, and the second-moment cross-check."""

from fractions import Fraction

import numpy as np
import pytest

from hyperhaar import coincidence, grid, hyperbolic, riesz
from hyperhaar.grid import Resolution, rectangle
from hyperhaar.hyperbolic import CoefficientField

import oracles


# ---------------------------------------------------------------------------
# strong distinctness and the product rule
# ---------------------------------------------------------------------------


class TestStronglyDistinct:
    def test_pairwise_distinct_everywhere(self):
        assert coincidence.strongly_distinct([(3, 1, 0), (1, 2, 1), (0, 0, 4)])

    def test_tie_in_second_coordinate(self):
        assert not coincidence.strongly_distinct([(3, 1, 0), (1, 1, 2)])

    def test_singleton_vacuous(self):
        assert coincidence.strongly_distinct([(3, 1, 0)])

    def test_mixed_totals_rejected(self):
        with pytest.raises(ValueError):
            coincidence.strongly_distinct([(1, 0, 0), (1, 1, 0)])


class TestProductRule:
    def test_intersecting_pair_yields_haar(self):
        r1 = rectangle((2, 0), (0, 0))  # [0,1/4) x [0,1)
        r2 = rectangle((0, 2), (0, 0))  # [0,1) x [0,1/4)
        out = coincidence.product_rule([r1, r2])
        assert out.kind == "haar"
        assert out.rectangle.shape == (2, 2)
        assert out.sign in (-1, 1)

    def test_sign_matches_grid_product(self):
        res = Resolution((3, 3))
        r1 = rectangle((2, 1), (1, 1))
        r2 = rectangle((1, 2), (0, 2))
        out = coincidence.product_rule([r1, r2])
        assert out.kind == "haar"
        prod = grid.mul(oracles.haar_tensor(r1, res), oracles.haar_tensor(r2, res))
        expected = grid.mul(oracles.haar_tensor(out.rectangle, res), out.sign)
        assert oracles.grids_equal(prod, expected)

    def test_disjoint_supports_zero(self):
        r1 = rectangle((2, 0), (0, 0))  # [0,1/4) x [0,1)
        r2 = rectangle((1, 1), (1, 0))  # [1/2,1) x [0,1/2): disjoint in axis 1
        out = coincidence.product_rule([r1, r2])
        assert out.kind == "zero"

    def test_shared_sidelength_not_applicable(self):
        r1 = rectangle((1, 1), (0, 0))
        r2 = rectangle((1, 1), (1, 1))
        out = coincidence.product_rule([r1, r2])
        assert out.kind == "not_applicable"

    def test_triple_product(self):
        rects = [rectangle((2, 0, 1), (0, 0, 0)),
                 rectangle((1, 2, 0), (0, 0, 0)),
                 rectangle((0, 1, 2), (0, 0, 0))]
        out = coincidence.product_rule(rects)
        assert out.kind == "haar"
        assert out.rectangle.shape == (2, 2, 2)


class TestSameVolumeProducts:
    def test_identical_rectangle_gives_indicator(self):
        r = rectangle((1, 1), (1, 0))
        out = coincidence.same_volume_product(r, r)
        assert out.kind == "indicator"
        assert out.rectangle == r

    def test_same_shape_distinct_gives_zero(self):
        out = coincidence.same_volume_product(
            rectangle((1, 1), (0, 0)), rectangle((1, 1), (1, 0)))
        assert out.kind == "zero"

    def test_distinct_shapes_fall_through_to_product_rule(self):
        r1 = rectangle((2, 0), (0, 0))
        r2 = rectangle((0, 2), (0, 0))
        assert coincidence.same_volume_product(r1, r2).kind == "haar"


class TestMeanZeroPredicate:
    def test_strongly_distinct_pair(self):
        r1 = rectangle((2, 0), (0, 0))
        r2 = rectangle((0, 2), (0, 0))
        assert oracles.mean_zero_predicate([r1, r2])
        res = Resolution((3, 3))
        prod = grid.mul(oracles.haar_tensor(r1, res), oracles.haar_tensor(r2, res))
        assert grid.expectation(prod) == 0

    def test_identical_pair_not_mean_zero(self):
        r = rectangle((1, 1), (0, 1))
        assert not oracles.mean_zero_predicate([r, r])
        res = Resolution((2, 2))
        sq = grid.mul(oracles.haar_tensor(r, res), oracles.haar_tensor(r, res))
        assert grid.expectation(sq) == r.volume

    def test_coordinate_tie_not_certified(self):
        r1 = rectangle((1, 1), (0, 0))
        r2 = rectangle((1, 1), (1, 1))
        assert not oracles.mean_zero_predicate([r1, r2])


class TestExhaustiveChecks:
    def test_d3_pairs_and_triples_small(self):
        rep = coincidence.product_rule_exhaustive_check(3, 3, (2, 3))
        assert rep["all_ok"], rep["failures"][:3]
        assert rep["shape_tuples"] == 20

    def test_d2_same_volume_small(self):
        rep = coincidence.same_volume_exhaustive_check(4)
        assert rep["all_ok"], rep["failures"][:3]
        assert rep["distinct_shape_pairs"] == 20


# ---------------------------------------------------------------------------
# coincidence classes
# ---------------------------------------------------------------------------


class TestCoincidenceClasses:
    def test_c2_n2_exact_enumeration(self):
        cls = coincidence.class_c2(2)
        got = {frozenset(pair) for pair in cls.tuples}
        assert got == {
            frozenset({(2, 0, 0), (1, 0, 1)}),
            frozenset({(2, 0, 0), (0, 0, 2)}),
            frozenset({(1, 0, 1), (0, 0, 2)}),
            frozenset({(1, 1, 0), (0, 1, 1)}),
        }

    def test_c2_pairs_share_second_coordinate_only(self):
        for r, s in coincidence.class_c2(4).tuples:
            assert r[1] == s[1]
            assert r != s

    def test_c2_restricted_subset_of_c2(self):
        p = riesz.make_params(4, q=2)
        cross = coincidence.class_c2_restricted(4, p.blocks, 1, 2)
        allpairs = {frozenset(t) for t in coincidence.class_c2(4).tuples}
        for r, s in cross.tuples:
            assert frozenset((r, s)) in allpairs
            assert r in p.blocks[0] and s in p.blocks[1]

    @pytest.mark.parametrize("s, t", [(0, 2), (1, 0), (3, 1), (1, 3)])
    def test_c2_restricted_block_index_checked(self, s, t):
        # index 0 used to wrap to the last block through blocks[-1]
        p = riesz.make_params(4, q=2)
        with pytest.raises(ValueError, match="must lie in 1..2"):
            coincidence.class_c2_restricted(4, p.blocks, s, t)

    def test_c2_restricted_blocks_must_differ(self):
        # (s, t) = (1, 1) held 12 diagonal pairs (r, r) at n=4, q=2 and
        # counted each unordered pair twice
        p = riesz.make_params(4, q=2)
        with pytest.raises(ValueError, match="must differ"):
            coincidence.class_c2_restricted(4, p.blocks, 1, 1)

    def test_c2b_orders_by_first_coordinate(self):
        cls = coincidence.class_c2b(4, 2)
        assert cls.size > 0
        for r, s in cls.tuples:
            assert r[0] == 2 and r[1] == s[1] and r != s

    def test_b4_two_maxima_condition_strictly_filters(self):
        n = 4
        b4 = coincidence.class_b4(n)
        relaxed = 0
        for p1, p2 in [(x, y) for x in coincidence.class_c2(n).tuples
                       for y in coincidence.class_c2(n).tuples]:
            four = (*p1, *p2)
            if len(set(four)) == 4:
                relaxed += 1
        assert 0 < b4.size < relaxed

    def test_b4a_requires_first_coordinate_match(self):
        # the second components s and u of (r, s, t, u) are pinned
        cls = coincidence.class_b4a(4, 2)
        assert cls.size > 0
        for tup in cls.tuples:
            assert tup[1][0] == 2 and tup[3][0] == 2

    def test_enumerate_class_dispatch(self):
        assert coincidence.enumerate_class("C2", 3).kind == "C2"
        with pytest.raises(ValueError):
            coincidence.enumerate_class("no-such-kind", 3)


# ---------------------------------------------------------------------------
# products over classes
# ---------------------------------------------------------------------------


class TestProdOver:
    def test_empty_class_is_zero_function(self):
        field = CoefficientField.random_signs(2, 3, 110)
        out = coincidence.prod_over([], field, Resolution((1, 1, 1)))
        assert not np.any(out.values != 0)

    def test_matches_manual_r_products(self):
        n = 3
        field = CoefficientField.random_signs(n, 3, 111)
        cls = coincidence.class_c2(n)
        res = hyperbolic.minimal_resolution(
            {s for tup in cls.tuples for s in tup}, 3)
        manual = np.zeros(res.grid_shape, dtype=np.int64)
        for r, s in cls.tuples:
            gr = hyperbolic.r_function_grid(hyperbolic.r_function(field, r), res)
            gs = hyperbolic.r_function_grid(hyperbolic.r_function(field, s), res)
            manual += gr.values.astype(np.int64) * gs.values.astype(np.int64)
        out = coincidence.prod_over(cls.tuples, field, res)
        assert np.array_equal(out.values, manual)

    @staticmethod
    def _full_grid_oracle(tuples, field, res):
        # Every shape's r-grid at the full resolution, multiplied cell by
        # cell: no join grids and no refinement.
        r_grids = {}
        manual = np.zeros(res.grid_shape, dtype=np.int64)
        for tup in tuples:
            prod = np.ones(res.grid_shape, dtype=np.int64)
            for s in tup:
                if s not in r_grids:
                    r_grids[s] = hyperbolic.r_function_grid(
                        hyperbolic.r_function(field, s), res).values
                prod *= r_grids[s]
            manual += prod
        return manual

    @staticmethod
    def _class(kind, n):
        if kind == "C2_restricted":
            return coincidence.enumerate_class(
                kind, n, blocks=riesz.make_params(n, q=2).blocks)
        return coincidence.enumerate_class(kind, n, b=1, a=2)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind", sorted(coincidence.PREDICTED_EXPONENT))
    def test_matches_full_grid_oracle(self, kind, n):
        cls = self._class(kind, n)
        assert cls.tuples
        joins = {coincidence._join(tup, 3) for tup in cls.tuples}
        if kind == "B4":
            # many tuples share a join, so the per-join sums carry weight
            assert len(joins) * 3 <= len(cls.tuples)
        if kind == "C2_restricted":
            assert len(joins) == len(cls.tuples)
        field = CoefficientField.random_signs(n, 3, (115, n))
        out = coincidence.prod_over(cls.tuples, field)
        res = hyperbolic.minimal_resolution(
            {s for tup in cls.tuples for s in tup}, 3)
        assert out.resolution == res
        assert np.array_equal(out.values, self._full_grid_oracle(
            cls.tuples, field, res))

    @pytest.mark.parametrize("kind", ["B4", "C2_restricted"])
    def test_finer_resolution_matches_oracle(self, kind):
        n = 4
        cls = self._class(kind, n)
        field = CoefficientField.random_signs(n, 3, 116)
        minimal = hyperbolic.minimal_resolution(
            {s for tup in cls.tuples for s in tup}, 3)
        res = Resolution(tuple(m + e for m, e in zip(minimal.levels, (1, 2, 0))))
        out = coincidence.prod_over(cls.tuples, field, res)
        assert out.resolution == res
        assert np.array_equal(out.values, self._full_grid_oracle(
            cls.tuples, field, res))
        coarse = coincidence.prod_over(cls.tuples, field, minimal)
        assert np.array_equal(grid.refine(coarse, res).values, out.values)

    def test_axis_order_writes_fewest_cells(self):
        # Two sums that differ on axis 0 only: refining axis 0 first merges
        # them at once (2 * 2^8 + 2^9 cells written), refining axis 1 first
        # carries both up to 2^9 cells (2^7 + 2^8 + 2 * 2^9).
        target = (3, 3, 3)
        assert coincidence._axis_order({(1, 2, 3), (2, 2, 3)}, target)[0] == 0
        assert coincidence._axis_order({(2, 1, 3), (2, 2, 3)}, target)[0] == 1

    def test_sup_bounded_by_tuple_count(self):
        n = 4
        field = CoefficientField.random_signs(n, 3, 113)
        cls = coincidence.class_c2(n)
        out = coincidence.prod_over(cls.tuples, field)
        assert grid.sup_norm(out) <= cls.size

    def test_budget_guard(self):
        field = CoefficientField.random_signs(3, 3, 114)
        cls = coincidence.class_c2(3)
        old = coincidence.MAX_TUPLES
        coincidence.MAX_TUPLES = 1
        try:
            with pytest.raises(grid.BudgetExceededError):
                coincidence.prod_over(cls.tuples, field)
        finally:
            coincidence.MAX_TUPLES = old


class TestSecondMomentCrossCheck:
    def test_small_sizes_agree(self):
        for n in (4, 5):
            rep = oracles.c2_restricted_l2_crosscheck(n, seed=7)
            assert rep["equal"], rep

    def test_frozen_moment_value(self):
        rep = oracles.c2_restricted_l2_crosscheck(4, seed=7)
        assert rep["grid_moment"] == Fraction(147, 16)
        assert rep["pair_count"] == 9

    def test_beck_gain_rows_have_csv_columns(self):
        rep = coincidence.beck_gain_measure("C2", [4, 5], [2], seed=3)
        for row in rep["rows"]:
            assert set(row) == {"kind", "n", "p", "norm", "fitted_exponent",
                                "predicted_exponent"}
        assert rep["rows"][0]["predicted_exponent"] == \
            coincidence.PREDICTED_EXPONENT["C2"]

    def test_beck_gain_all_kinds_run(self):
        for kind in coincidence.PREDICTED_EXPONENT:
            # a = 2: B4a with the default pin 0 has no tuples at n = 4, 5
            rep = coincidence.beck_gain_measure(kind, [4, 5], [2], seed=4, a=2)
            assert len(rep["rows"]) == 2, kind
