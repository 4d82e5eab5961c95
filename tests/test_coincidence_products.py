"""Product rule, coincidence classes, and the second-moment cross-check."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hyperhaar import coincidence, grid, hyperbolic, riesz
from hyperhaar.grid import Resolution
from hyperhaar.hyperbolic import CoefficientField

import oracles
from oracles import rectangle


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
        out = oracles.product_rule([r1, r2])
        assert out.kind == "haar"
        assert out.rectangle.shape == (2, 2)
        assert out.sign in (-1, 1)

    def test_sign_matches_grid_product(self):
        res = Resolution((3, 3))
        r1 = rectangle((2, 1), (1, 1))
        r2 = rectangle((1, 2), (0, 2))
        out = oracles.product_rule([r1, r2])
        assert out.kind == "haar"
        prod = oracles.haar_tensor(r1, res) * oracles.haar_tensor(r2, res)
        expected = oracles.haar_tensor(out.rectangle, res) * out.sign
        assert np.array_equal(prod, expected)

    def test_disjoint_supports_zero(self):
        r1 = rectangle((2, 0), (0, 0))  # [0,1/4) x [0,1)
        r2 = rectangle((1, 1), (1, 0))  # [1/2,1) x [0,1/2): disjoint in axis 1
        out = oracles.product_rule([r1, r2])
        assert out.kind == "zero"

    def test_shared_sidelength_not_applicable(self):
        r1 = rectangle((1, 1), (0, 0))
        r2 = rectangle((1, 1), (1, 1))
        out = oracles.product_rule([r1, r2])
        assert out.kind == "not_applicable"

    def test_triple_product(self):
        rects = [rectangle((2, 0, 1), (0, 0, 0)),
                 rectangle((1, 2, 0), (0, 0, 0)),
                 rectangle((0, 1, 2), (0, 0, 0))]
        out = oracles.product_rule(rects)
        assert out.kind == "haar"
        assert out.rectangle.shape == (2, 2, 2)


class TestSameVolumeProducts:
    def test_identical_rectangle_gives_indicator(self):
        r = rectangle((1, 1), (1, 0))
        out = oracles.same_volume_product(r, r)
        assert out.kind == "indicator"
        assert out.rectangle == r

    def test_same_shape_distinct_gives_zero(self):
        out = oracles.same_volume_product(
            rectangle((1, 1), (0, 0)), rectangle((1, 1), (1, 0)))
        assert out.kind == "zero"

    def test_distinct_shapes_fall_through_to_product_rule(self):
        r1 = rectangle((2, 0), (0, 0))
        r2 = rectangle((0, 2), (0, 0))
        assert oracles.same_volume_product(r1, r2).kind == "haar"


class TestMeanZeroPredicate:
    def test_strongly_distinct_pair(self):
        r1 = rectangle((2, 0), (0, 0))
        r2 = rectangle((0, 2), (0, 0))
        assert oracles.mean_zero_predicate([r1, r2])
        res = Resolution((3, 3))
        prod = oracles.haar_tensor(r1, res) * oracles.haar_tensor(r2, res)
        assert oracles.mean(prod) == 0

    def test_identical_pair_not_mean_zero(self):
        r = rectangle((1, 1), (0, 1))
        assert not oracles.mean_zero_predicate([r, r])
        res = Resolution((2, 2))
        h = oracles.haar_tensor(r, res)
        assert oracles.mean(h * h) == r.volume

    def test_coordinate_tie_not_certified(self):
        r1 = rectangle((1, 1), (0, 0))
        r2 = rectangle((1, 1), (1, 1))
        assert not oracles.mean_zero_predicate([r1, r2])


def _product_rule_tuples(n):
    """Every strongly distinct d=3 pair and triple and every d=2 pair of
    distinct shapes, at each total level up to n."""
    for total in range(1, n + 1):
        d3 = hyperbolic.enumerate_shapes(total, 3)
        for size in (2, 3):
            yield from (combo for combo in itertools.combinations(d3, size)
                        if coincidence.strongly_distinct(combo))
        yield from itertools.combinations(hyperbolic.enumerate_shapes(total, 2), 2)


def _join(tup):
    """Per axis, the max level over the tuple's shapes."""
    return tuple(max(col) for col in zip(*tup))


def _max_holders(tup):
    """Per axis, how many of the tuple's shapes hold its max level."""
    return tuple(col.count(max(col)) for col in zip(*tup))


class TestProductSigns:
    def test_matches_rectangle_oracle(self):
        # the predictor against the product rule, rectangle tuple by tuple
        tuples = list(_product_rule_tuples(4))
        # the 88 d=3 shape tuples and 20 d=2 pairs that verify --n 4 checks
        assert len(tuples) == 88 + 20
        for shapes in tuples:
            signs = coincidence.product_signs(shapes)
            join = tuple(max(s[axis] for s in shapes)
                         for axis in range(len(shapes[0])))
            assert signs.dtype == np.int8
            assert signs.shape == tuple(1 << m for m in join)
            for pos in np.ndindex(*signs.shape):
                out = oracles.product_rule(
                    rectangle(s, tuple(p >> (m - r)
                                      for p, m, r in zip(pos, join, s)))
                    for s in shapes)
                assert out.kind == "haar", (shapes, pos)
                assert out.rectangle == rectangle(join, pos)
                assert out.sign == signs[pos], (shapes, pos)


class TestExhaustiveChecks:
    def test_d3_pairs_and_triples_small(self):
        rep = coincidence.product_rule_exhaustive_check(3)
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
        out = oracles.prod_over([], field, Resolution((1, 1, 1)))
        assert not np.any(out != 0)

    @pytest.mark.parametrize("rows", [1, 4, None])
    def test_empty_class_streams_zero_slabs(self, rows):
        # as many slabs as any stream on the grid, so a zip over the
        # streams of a fold does not stop at an empty one
        res = Resolution((4, 3, 2))
        slabs = list(coincidence.product_slabs([], None, res, rows))
        one = {(0, 0, 0): np.ones((1, 1, 1), dtype=np.int8)}
        full = list(hyperbolic.shape_sum_slabs(one, res, True, rows))
        assert [s.shape for s in slabs] == [s.shape for s in full]
        assert not any(s.any() for s in slabs)

    def test_matches_manual_r_products(self):
        n = 3
        field = CoefficientField.random_signs(n, 3, 111)
        cls = coincidence.class_c2(n)
        res = hyperbolic.minimal_resolution(
            {s for tup in cls.tuples for s in tup}, 3)
        manual = np.zeros(res.grid_shape, dtype=np.int64)
        for r, s in cls.tuples:
            gr = oracles.signed_r_sum(field, res, [r])
            gs = oracles.signed_r_sum(field, res, [s])
            manual += gr.astype(np.int64) * gs.astype(np.int64)
        out = oracles.prod_over(cls.tuples, field, res)
        assert np.array_equal(out, manual)

    @staticmethod
    def _full_grid_oracle(tuples, field, res):
        # Every shape's r-grid at the full resolution, by the full-spectrum
        # synthesis, multiplied cell by cell: no join grids and no
        # refinement.
        r_grids = {}
        manual = np.zeros(res.grid_shape, dtype=np.int64)
        for tup in tuples:
            prod = np.ones(res.grid_shape, dtype=np.int64)
            for s in tup:
                if s not in r_grids:
                    r_grids[s] = oracles.full_spectrum_shape_sum(
                        {s: hyperbolic.signs_of(field.values[s])}, res)
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
        joins = {_join(tup) for tup in cls.tuples}
        if kind == "B4":
            # many tuples share a join, so the per-join sums carry weight
            assert len(joins) * 3 <= len(cls.tuples)
        if kind == "C2_restricted":
            assert len(joins) == len(cls.tuples)
        field = CoefficientField.random_signs(n, 3, (115, n))
        out = oracles.prod_over(cls.tuples, field)
        res = hyperbolic.minimal_resolution(
            {s for tup in cls.tuples for s in tup}, 3)
        assert out.shape == res.grid_shape
        assert np.array_equal(out, self._full_grid_oracle(
            cls.tuples, field, res))

    @pytest.mark.parametrize("kind", ["B4", "C2_restricted"])
    def test_finer_resolution_matches_oracle(self, kind):
        n = 4
        cls = self._class(kind, n)
        field = CoefficientField.random_signs(n, 3, 116)
        minimal = hyperbolic.minimal_resolution(
            {s for tup in cls.tuples for s in tup}, 3)
        res = Resolution(tuple(m + e for m, e in zip(minimal.levels, (1, 2, 0))))
        out = oracles.prod_over(cls.tuples, field, res)
        assert out.shape == res.grid_shape
        assert np.array_equal(out, self._full_grid_oracle(
            cls.tuples, field, res))
        coarse = oracles.prod_over(cls.tuples, field, minimal)
        # one and two levels finer on axes 0 and 1: each cell repeated
        assert np.array_equal(np.repeat(np.repeat(coarse, 2, axis=0), 4, axis=1),
                              out)

    @pytest.mark.parametrize("kind", ["B4", "C2", "C2_restricted"])
    def test_slab_stream_matches_full_grid_oracle(self, kind):
        n = 5
        cls = self._class(kind, n)
        field = CoefficientField.random_signs(n, 3, (117, n))
        res = hyperbolic.minimal_resolution(
            {s for tup in cls.tuples for s in tup}, 3)
        oracle = self._full_grid_oracle(cls.tuples, field, res)
        top = res.levels[0]
        dtype = grid.int_dtype(len(cls.tuples))
        for rows in (1, 2, 1 << top):
            slabs = list(coincidence.product_slabs(cls.tuples, field, res, rows))
            assert [len(slab) for slab in slabs] == [rows] * ((1 << top) // rows)
            assert all(slab.dtype == dtype for slab in slabs)
            assert np.array_equal(np.concatenate(slabs), oracle)

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("kind", sorted(coincidence.PREDICTED_EXPONENT))
    def test_class_streams_at_half_the_cells(self, kind, n):
        # every class pins the middle coordinate, so axis 1 is unsigned in
        # every pattern and stops at its finest join level: each slab
        # repeated twice along it is the slab on the shapes' grid, and the
        # power sums are half the full grid's, the peak the same.  Two
        # shapes that agree in two coordinates are equal, so a C2-type pair
        # holds each other max once, and B4's pairs hold theirs twice:
        # B4's axes 0 and 2 are unsigned too, yet keep their extra level
        cls = self._class(kind, n)
        _, odd = coincidence._join_patterns(cls.tuples)
        assert {tuple(p) for p in odd.tolist()} == (
            {(False, False, False)} if kind.startswith("B4")
            else {(True, False, True)})
        field = CoefficientField.random_signs(n, 3, (119, n))
        full = hyperbolic.minimal_resolution(
            {s for tup in cls.tuples for s in tup}, 3)
        coarse = coincidence._checked_resolution(cls.tuples, 3)
        assert coarse == coincidence._stream_resolution(cls.tuples, 3)
        assert coarse.levels == (full.levels[0], full.levels[1] - 1,
                                 full.levels[2])
        assert coincidence._checked_resolution(cls.tuples, 3, full) == full
        rows = hyperbolic.slab_rows(coarse)
        leaf = list(coincidence.product_slabs(cls.tuples, field, coarse, rows))
        whole = list(coincidence.product_slabs(cls.tuples, field, full, rows))
        assert len(leaf) == len(whole)
        for a, b in zip(leaf, whole):
            assert a.dtype == b.dtype
            assert np.array_equal(np.repeat(a, 2, axis=1), b)
        ps = [1, 2, 3, 4, 6]
        sums, peak = grid.abs_power_sums(leaf, ps)
        assert (grid.abs_power_sums(whole, ps)
                == ([2 * total for total in sums], peak))

    @pytest.mark.parametrize("kind", sorted(coincidence.PREDICTED_EXPONENT))
    def test_beck_gain_norms_are_the_full_grids(self, kind):
        n, ps = 5, [1, 2, 4]
        rep = coincidence.beck_gain_measure(kind, [n], ps, 9, b=1, a=2)
        field = CoefficientField.random_signs(n, 3, (9, n))
        out = oracles.prod_over(self._class(kind, n).tuples, field)
        sums, _ = grid.abs_power_sums([out], ps)
        assert [row["norm"] for row in rep["rows"]] == [
            grid.norm_of_power_sum(total, out.size, p)
            for total, p in zip(sums, ps)]

    @pytest.mark.parametrize("tuples, levels", [
        ([((2, 1, 0), (0, 1, 2))], (3, 1, 3)),
        ([((2, 1, 0), (0, 2, 1))], (3, 3, 2)),
        ([((2, 1, 0), (0, 1, 2)), ((1, 2, 0), (0, 0, 3))], (3, 3, 4)),
        ([((1, 1, 1), (0, 1, 2), (2, 1, 0))], (3, 2, 3)),
        ([((1, 1, 1), (1, 1, 1), (0, 1, 2), (2, 1, 0))], (3, 1, 3)),
    ], ids=["pinned", "signed-middle", "mixed", "held-three-times",
            "held-four-times"])
    def test_stream_resolution_follows_the_signs(self, tuples, levels):
        # the largest join level per axis, one more on axis 0, on axis 2
        # and on a middle axis where some join is signed
        assert coincidence._stream_resolution(tuples, 3).levels == levels

    def test_coarser_than_the_joins_refused(self):
        cls = coincidence.class_c2(4)
        coarse = coincidence._stream_resolution(cls.tuples, 3)
        for axis in range(3):
            levels = list(coarse.levels)
            levels[axis] -= 1
            with pytest.raises(grid.InsufficientResolutionError):
                coincidence._checked_resolution(cls.tuples, 3,
                                                Resolution(tuple(levels)))

    def test_ties_and_every_sign_pattern_match_oracle(self):
        # The nsd_3 tuples of riesz n=5, q=3: on axes 1 and 2 the max level
        # is held by one, two or three shapes, and some pairs tie below the
        # max, so all four patterns (axis 0 is always signed) occur.
        n = 5
        params = riesz.make_params(n, q=3)
        tuples = [tup for tup in itertools.product(*params.blocks)
                  if not coincidence.strongly_distinct(tup)]
        holders = {_max_holders(tup)[axis] for tup in tuples for axis in (1, 2)}
        assert holders == {1, 2, 3}
        assert any(col.count(v) == 2
                   for tup in tuples for col in list(zip(*tup))[1:]
                   for v in col if v < max(col))
        patterns = {tuple(c % 2 == 1 for c in _max_holders(tup))
                    for tup in tuples}
        assert patterns == {(True, a, b) for a in (True, False)
                            for b in (True, False)}
        field = CoefficientField.random_signs(n, 3, (118, n))
        res = hyperbolic.field_resolution(field)
        out = oracles.prod_over(tuples, field, res)
        assert out.dtype == grid.int_dtype(len(tuples))
        assert np.array_equal(out, self._full_grid_oracle(tuples, field, res))

    def test_sup_bounded_by_tuple_count(self):
        n = 4
        field = CoefficientField.random_signs(n, 3, 113)
        cls = coincidence.class_c2(n)
        out = oracles.prod_over(cls.tuples, field)
        assert grid.max_abs(out) <= cls.size

    def test_budget_guard(self):
        field = CoefficientField.random_signs(3, 3, 114)
        cls = coincidence.class_c2(3)
        with pytest.raises(grid.BudgetExceededError):
            oracles.prod_over(cls.tuples, field, budget=1)


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

    @pytest.mark.parametrize("kind, n_values, seed, mib", [
        ("C2_restricted", [9], 0, 6.5),
        ("C2", range(4, 9), 3, 11),
    ], ids=["C2_restricted-9", "C2-4..8"])
    def test_beck_gain_streams_its_class_sums(self, kind, n_values, seed, mib):
        # C2_restricted at n=9 sums 2^24 cells (16 MiB of int8), its
        # unsigned middle axis at its finest join level; its join-shape
        # coefficients and one shape-sum stream hold about 4 MiB.  C2 at
        # n=8 sums 2^25 cells in 8-row slabs, about 4.5 MiB, where 16-row
        # slabs and a 32-row coarse block took 15 MiB
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rep = coincidence.beck_gain_measure(kind, n_values, [2, 4], seed)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rep["sup_bound_ok"]
        assert peak <= mib * 2**20, peak / 2**20

    def test_beck_gain_all_kinds_run(self):
        for kind in coincidence.PREDICTED_EXPONENT:
            # a = 2: B4a with the default pin 0 has no tuples at n = 4, 5
            rep = coincidence.beck_gain_measure(kind, [4, 5], [2], seed=4, a=2)
            assert len(rep["rows"]) == 2, kind
