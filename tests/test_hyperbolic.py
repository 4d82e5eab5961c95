"""Shapes, r-functions, hyperbolic sums, and the sup-norm experiments."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperhaar import grid, hyperbolic
from hyperhaar.grid import InsufficientResolutionError, Resolution
from hyperhaar.hyperbolic import CoefficientField

import oracles


# ---------------------------------------------------------------------------
# shapes and tilings
# ---------------------------------------------------------------------------


class TestShapes:
    def test_shapes_n2_d3(self):
        got = set(hyperbolic.enumerate_shapes(2, 3))
        assert got == {(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1),
                       (0, 0, 2)}

    def test_shape_counts(self):
        assert hyperbolic.shape_count(4, 3) == 15
        assert hyperbolic.shape_count(3, 2) == 4
        for n, d in [(0, 1), (5, 2), (4, 3)]:
            assert hyperbolic.shape_count(n, d) == \
                len(hyperbolic.enumerate_shapes(n, d))

    def test_tiling_of_shape(self):
        rects = hyperbolic.rectangles_of_shape((1, 1))
        assert len(rects) == 4
        assert sum(r.volume for r in rects) == 1

    def test_slab_shape(self):
        rects = hyperbolic.rectangles_of_shape((0, 0, 2))
        assert len(rects) == 4
        for r in rects:
            assert r.sides[0].level == 0 and r.sides[1].level == 0
        assert {r.sides[2].position for r in rects} == {0, 1, 2, 3}

    def test_tiling_is_disjoint(self):
        res = Resolution((2, 1))
        total = grid.GridFunction.zero(res)
        for r in hyperbolic.rectangles_of_shape((2, 1)):
            total = grid.add(total, grid.indicator_grid(r, res))
        assert np.all(total.values == 1)


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


class TestCoefficientField:
    def test_requires_all_shapes(self):
        vals = {s: np.ones(tuple(1 << r for r in s), dtype=np.int64)
                for s in hyperbolic.enumerate_shapes(2, 2)[:-1]}
        with pytest.raises(ValueError):
            CoefficientField(2, 2, vals)

    def test_abs_and_square_sums(self):
        f = CoefficientField.constant(2, 2, value=-3)
        count = sum(4 for _ in hyperbolic.enumerate_shapes(2, 2))
        assert f.abs_sum() == 3 * count
        assert oracles.square_sum(f) == 9 * count

    def test_random_signs_reproducible(self):
        a = CoefficientField.random_signs(3, 2, (1, 2))
        b = CoefficientField.random_signs(3, 2, (1, 2))
        for s in a.values:
            assert np.array_equal(a.values[s], b.values[s])

    def test_sgn_of_zero_is_plus_one(self):
        assert hyperbolic.signs_of(np.array([0, -2, 5])).tolist() == [1, -1, 1]

    @pytest.mark.parametrize("mode, dtype", [
        ("exact", object), ("exact", np.float64), ("exact", np.bool_),
        ("float", np.int64), ("float", np.float32), ("float", object),
    ])
    def test_dtype_must_match_mode(self, mode, dtype):
        vals = {s: np.ones(tuple(1 << r for r in s), dtype=dtype)
                for s in hyperbolic.enumerate_shapes(2, 2)}
        with pytest.raises(ValueError, match="dtype"):
            CoefficientField(2, 2, vals, mode)

    def test_coarse_extension(self):
        f = hyperbolic.add_coarse_random(CoefficientField.random_signs(2, 2, 3), 4)
        assert f.coarse_shapes
        assert all(sum(s) < 2 for s in f.coarse_shapes)


# ---------------------------------------------------------------------------
# r-functions
# ---------------------------------------------------------------------------


class TestRFunctions:
    def test_all_plus_r_function_values(self):
        f = CoefficientField.constant(2, 2)
        rf = hyperbolic.r_function(f, (1, 1))
        g = hyperbolic.r_function_grid(rf, Resolution((2, 2)))
        assert set(np.unique(g.values)) <= {-1, 1}
        assert grid.expectation(g) == 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 100))
    def test_r_function_squares_to_one(self, seed):
        f = CoefficientField.random_signs(3, 3, seed)
        shape = hyperbolic.enumerate_shapes(3, 3)[seed % 10]
        g = hyperbolic.r_function_grid(hyperbolic.r_function(f, shape),
                                       hyperbolic.minimal_resolution([shape]))
        assert np.all(g.values * g.values == 1)

    def test_insufficient_resolution_raises(self):
        f = CoefficientField.constant(3, 2)
        with pytest.raises(InsufficientResolutionError):
            hyperbolic.r_function_grid(hyperbolic.r_function(f, (3, 0)),
                                       Resolution((2, 2)))

    def test_signed_r_sum_restricts_to_shapes(self):
        f = CoefficientField.constant(2, 2)
        res = Resolution((3, 3))
        partial = hyperbolic.signed_r_sum(f, res, shapes=[(2, 0)])
        single = hyperbolic.r_function_grid(hyperbolic.r_function(f, (2, 0)), res)
        assert np.array_equal(partial.values, single.values)


# ---------------------------------------------------------------------------
# hyperbolic sums
# ---------------------------------------------------------------------------


class TestHyperbolicSum:
    def test_single_nonzero_coefficient(self):
        n, d = 2, 2
        vals = {s: np.zeros(tuple(1 << r for r in s), dtype=np.int64)
                for s in hyperbolic.enumerate_shapes(n, d)}
        vals[(1, 1)][1, 0] = 5
        f = CoefficientField(n, d, vals)
        h = hyperbolic.hyperbolic_sum(f)
        expected = grid.mul(
            oracles.haar_tensor(grid.rectangle((1, 1), (1, 0)), h.resolution), 5)
        assert oracles.grids_equal(h, expected)

    def test_inner_product_with_matching_r_function(self):
        n, d = 3, 2
        f = CoefficientField.random_integers(n, d, 21)
        h = hyperbolic.hyperbolic_sum(f)
        for shape in hyperbolic.enumerate_shapes(n, d):
            rf = hyperbolic.r_function_grid(hyperbolic.r_function(f, shape),
                                            h.resolution)
            expected = Fraction(
                int(np.sum(np.abs(f.values[shape].astype(np.int64)))), 1 << n)
            assert grid.inner_product(h, rf) == expected

    def test_l2_moment_matches_coefficient_squares(self):
        n, d = 3, 3
        f = CoefficientField.random_integers(n, d, 22)
        h = hyperbolic.hyperbolic_sum(f)
        assert grid.lp_moment(h, 2) == Fraction(oracles.square_sum(f), 1 << n)

    @pytest.mark.parametrize("total, dtype", [
        (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32),
        (2**31 - 1, np.int32), (2**31, np.int64), (2**63 - 1, np.int64),
        (2**63, object),
    ])
    def test_width_follows_the_coefficient_bound(self, total, dtype):
        # two shapes whose coefficients add up to ``total`` in every cell
        first = total // 2
        vals = {(1, 0): np.full((2, 1), first, dtype=object),
                (0, 1): np.full((1, 2), total - first, dtype=object)}
        arr = hyperbolic.shape_sum_grid(vals, Resolution((2, 2)))
        assert arr.dtype == np.dtype(dtype)
        assert grid.max_abs(arr) == total

    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("kind", ["integers", "normal", "coarse_integers",
                                      "coarse_normal"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_placement_matches_full_spectrum(self, d, kind, signed):
        # coarse shapes put several shapes in one placement block, at
        # different levels of the placed axis
        for n in range(5):
            rng = np.random.default_rng((70, d, n))
            field = (CoefficientField.random_normal(n, d, rng) if "normal" in kind
                     else CoefficientField.random_integers(n, d, rng))
            vals = dict(field.values)
            if kind.startswith("coarse"):
                for total in range(n):
                    for s in hyperbolic.enumerate_shapes(total, d):
                        size = tuple(1 << r for r in s)
                        vals[s] = (rng.standard_normal(size) if "normal" in kind
                                   else rng.integers(-3, 4, size=size))
            minimal = hyperbolic.minimal_resolution(vals, d)
            for res in (minimal, Resolution(tuple(m + 1 for m in minimal.levels))):
                got = hyperbolic.shape_sum_grid(vals, res, signed)
                want = oracles.full_spectrum_shape_sum(vals, res, signed)
                assert got.dtype == want.dtype
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), (n, res.levels)

    @pytest.mark.parametrize("signed", [True, False])
    def test_placement_bound_127_stays_int8(self, signed):
        # -127 and +127 fill the int8 bound; -128 would force int16
        vals = {(1, 0, 0): np.array([[[-100]], [[100]]]),
                (0, 1, 1): np.array([[[27, -27], [-27, 27]]])}
        res = Resolution((2, 2, 2))
        got = hyperbolic.shape_sum_grid(vals, res, signed)
        want = oracles.full_spectrum_shape_sum(vals, res, signed)
        assert got.dtype == want.dtype == np.int8
        assert got.tobytes() == want.tobytes()
        assert grid.max_abs(got) == 127
        assert hyperbolic.shape_sum_grid({(0, 0, 1): np.full((1, 1, 2), -128)},
                                         res, signed).dtype == np.int16

    @pytest.mark.parametrize("report", [hyperbolic.hyperbolic_sum,
                                        oracles.coefficient_square_sum,
                                        oracles.trivial_bound_report])
    def test_float_field_refused(self, report):
        # grid functions are exact; only the d=2 product reads float fields
        with pytest.raises(ValueError, match="integer field"):
            report(CoefficientField.random_normal(2, 2, 0))

    def test_coarse_shapes_enter_the_sum(self):
        base = CoefficientField.random_signs(2, 2, 30)
        ext = hyperbolic.add_coarse_random(base, 31)
        h_base = hyperbolic.hyperbolic_sum(base, Resolution((3, 3)))
        h_ext = hyperbolic.hyperbolic_sum(ext, Resolution((3, 3)))
        assert not np.array_equal(h_base.values, h_ext.values)


# ---------------------------------------------------------------------------
# trivial bound and experiments
# ---------------------------------------------------------------------------


class TestTrivialBound:
    def test_all_signs_lhs_is_shape_count(self):
        f = CoefficientField.random_signs(4, 3, 40)
        rep = oracles.trivial_bound_report(f)
        assert rep["lhs"] == hyperbolic.shape_count(4, 3)

    def test_chain_inequality_random(self):
        for seed in range(100):
            f = CoefficientField.random_integers(4, 3, (41, seed))
            rep = oracles.trivial_bound_report(f)
            assert rep["chain_ok"], rep

    def test_d2_n3_bound(self):
        f = CoefficientField.random_signs(3, 2, 42)
        rep = oracles.trivial_bound_report(f)
        assert rep["shape_count"] == 4
        assert rep["lhs"] <= 2 * rep["sup_norm"]


class TestSharpnessExperiment:
    def test_coefficient_sums_and_sup_bound(self):
        rep = hyperbolic.sharpness_experiment([3, 4], 3, 10, 50)
        for row in rep["per_n"]:
            assert row["coeff_sum_ok"]
            assert row["mean_sup"] <= hyperbolic.shape_count(row["n"], 3)

    def test_threaded_matches_serial(self):
        serial = hyperbolic.sharpness_experiment([3, 4, 5], 3, 8, 51, threads=1)
        threaded = hyperbolic.sharpness_experiment([3, 4, 5], 3, 8, 51, threads=2)
        assert serial["per_n"] == threaded["per_n"]


class TestExpIntegrability:
    def test_single_rectangle_ratio_at_most_one(self):
        n, d = 2, 2
        vals = {s: np.zeros(tuple(1 << r for r in s), dtype=np.int64)
                for s in hyperbolic.enumerate_shapes(n, d)}
        vals[(2, 0)][3] = 2
        f = CoefficientField(n, d, vals)
        rep = oracles.exp_integrability_profile(f, 8)
        assert rep["sup_ratio"] <= 1.0 + 1e-12

    def test_random_profile_finite(self):
        f = CoefficientField.random_signs(5, 2, 60)
        rep = oracles.exp_integrability_profile(f, 16)
        assert np.isfinite(rep["sup_ratio"])

    def test_d3_ratio_bounded_across_n(self):
        ratios = []
        for n in range(3, 7):
            f = CoefficientField.random_signs(n, 3, (61, n))
            ratios.append(oracles.exp_integrability_profile(f, 8)["sup_ratio"])
        assert max(ratios) < 10.0
