"""Integer grids, Haar transform, square function, and norm diagnostics."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperhaar import grid, hyperbolic
from hyperhaar.grid import GridTooLargeError, Resolution
from hyperhaar.hyperbolic import CoefficientField

import oracles
from oracles import DyadicInterval, DyadicRectangle, RationalGrid, rectangle


def cell_value(f: np.ndarray, point):
    """Value of a piecewise-constant function at a point of [0,1)**d."""
    return f[tuple(int(Fraction(x) * size) for x, size in zip(point, f.shape))]


# ---------------------------------------------------------------------------
# dyadic geometry
# ---------------------------------------------------------------------------


class TestDyadicGeometry:
    def test_interval_endpoints(self):
        i = DyadicInterval(2, 2)
        assert i.left == Fraction(1, 2)
        assert i.length == Fraction(1, 4)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            DyadicInterval(-1, 0)
        with pytest.raises(ValueError):
            DyadicInterval(1, 2)

    def test_containment(self):
        root = DyadicInterval(0, 0)
        assert root.contains(DyadicInterval(3, 5))
        assert not DyadicInterval(2, 1).contains(DyadicInterval(1, 0))

    def test_haar_sign_on_halves(self):
        root = DyadicInterval(0, 0)
        assert root.haar_sign_on(DyadicInterval(1, 0)) == -1
        assert root.haar_sign_on(DyadicInterval(1, 1)) == 1

    def test_rectangle_shape_and_volume(self):
        r = rectangle((1, 2), (0, 3))
        assert r.shape == (1, 2)
        assert r.volume == Fraction(1, 8)

    def test_rectangle_dimension_bounds(self):
        with pytest.raises(ValueError):
            DyadicRectangle(tuple(DyadicInterval(0, 0) for _ in range(4)))

    def test_resolution_cells(self):
        r = Resolution((2, 3))
        assert r.grid_shape == (4, 8)
        assert r.cells == 32

    def test_resolution_cap(self):
        with pytest.raises(GridTooLargeError):
            Resolution((40, 40))


# ---------------------------------------------------------------------------
# Haar functions on grids
# ---------------------------------------------------------------------------


class TestHaarFunctions:
    def test_unit_interval_haar_values(self):
        h = oracles.haar_1d(DyadicInterval(0, 0), Resolution((3,)))
        assert cell_value(h, (0.25,)) == -1
        assert cell_value(h, (0.75,)) == 1

    def test_haar_vanishes_outside_support(self):
        h = oracles.haar_1d(DyadicInterval(2, 2), Resolution((4,)))
        assert cell_value(h, (0.9,)) == 0
        assert cell_value(h, (0.5,)) == -1

    def test_tensor_haar_left_left(self):
        r = rectangle((0, 0), (0, 0))
        h = oracles.haar_tensor(r, Resolution((2, 2)))
        assert cell_value(h, (0.25, 0.25)) == 1
        assert cell_value(h, (0.25, 0.75)) == -1

    def test_tensor_haar_outside_support(self):
        r = rectangle((0, 1), (0, 0))  # [0,1) x [0,0.5)
        h = oracles.haar_tensor(r, Resolution((2, 2)))
        assert cell_value(h, (0.75, 0.6)) == 0

    def test_haar_self_inner_product_is_volume(self):
        r = rectangle((1, 0), (0, 0))  # [0,0.5) x [0,1)
        res = Resolution((2, 2))
        h = oracles.haar_tensor(r, res)
        assert oracles.mean(h * h) == Fraction(1, 2)

    def test_distinct_same_shape_haars_orthogonal(self):
        res = Resolution((2, 2))
        h1 = oracles.haar_tensor(rectangle((1, 1), (0, 0)), res)
        h2 = oracles.haar_tensor(rectangle((1, 1), (1, 0)), res)
        assert oracles.mean(h1 * h2) == 0

    def test_indicator_grid(self):
        r = rectangle((1, 1), (1, 0))
        ind = oracles.indicator_grid(r, Resolution((2, 2)))
        assert oracles.mean(ind) == r.volume
        assert set(np.unique(ind)) <= {0, 1}


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


class TestGrids:
    def test_haar_squares_to_indicator(self):
        i = DyadicInterval(1, 1)
        res = Resolution((3,))
        h = oracles.haar_1d(i, res)
        ind = oracles.indicator_grid(DyadicRectangle((i,)), res)
        assert np.array_equal(h * h, ind)

    def test_oracle_den_in_lowest_terms(self):
        g = RationalGrid(np.array([6, -6]), 4)
        assert g.den == 2
        assert _fractions(g.values, g.den) == [Fraction(3, 2), Fraction(-3, 2)]
        assert RationalGrid(np.array([6, 0]), 3).den == 1

    # the (values, den) form of the oracles keeps the checks of a grid over
    # a den: integer numerators over a positive int
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
    def test_non_integer_values_refused(self, dtype):
        with pytest.raises(ValueError, match="integer dtype"):
            RationalGrid(np.zeros(2, dtype=dtype))

    @pytest.mark.parametrize("den", [0, -2, 2.0])
    def test_den_must_be_a_positive_int(self, den):
        with pytest.raises(ValueError, match="den"):
            RationalGrid(np.ones(2, dtype=np.int8), den)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_int_dtype_table_keeps_the_iinfo_rule(self, dtype):
        # the rule the width table replaced, at each boundary
        def iinfo_rule(bound):
            for t in (np.int8, np.int16, np.int32, np.int64):
                if bound <= np.iinfo(t).max:
                    return t
            return object

        top = int(np.iinfo(dtype).max)
        for bound in (top - 1, top, top + 1, np.int64(top), 0, 2**63,
                      2**63 - 1, 2**200):
            assert grid.int_dtype(bound) is iinfo_rule(bound)
        assert grid.int_dtype(top) is dtype


# ---------------------------------------------------------------------------
# expectation and norms
# ---------------------------------------------------------------------------


class TestMoments:
    def test_haar_mean_zero(self):
        h = oracles.haar_tensor(rectangle((1, 2), (1, 2)), Resolution((3, 3)))
        assert oracles.mean(h) == 0

    def test_constant_mean_one(self):
        assert oracles.mean(np.ones((4, 4), dtype=np.int8)) == 1

    def test_haar_square_mean_is_length(self):
        h = oracles.haar_1d(DyadicInterval(1, 0), Resolution((2,)))
        assert oracles.mean(h * h) == Fraction(1, 2)

    def test_lp_norm_of_half_interval_haar(self):
        h = oracles.haar_1d(DyadicInterval(1, 0), Resolution((2,)))
        assert grid.lp_norms(h, [2]) == [pytest.approx(2 ** -0.5)]

    def test_sup_norm_is_one(self):
        h = oracles.haar_tensor(rectangle((1, 1), (0, 1)), Resolution((2, 2)))
        assert grid.max_abs(h) == 1

    def test_lp_moment_high_power_exact(self):
        assert grid.abs_power_sums([np.array([3, -5])], [4, 16]) == \
            ([3**4 + 5**4, 3**16 + 5**16], 5)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, object])
    def test_sup_norm_of_most_negative_value(self, dtype):
        # abs() of int8 -128 wraps to -128, which hid the peak
        values = np.array([-128, 5]).astype(dtype)
        assert grid.max_abs(values) == 128
        assert grid.abs_power_sums([values], [1]) == ([133], 128)


# ---------------------------------------------------------------------------
# Haar transform
# ---------------------------------------------------------------------------


class TestHaarTransform:
    def test_analyze_single_haar(self):
        r = rectangle((1, 2), (1, 3))
        res = Resolution((2, 3))
        spectrum = oracles.haar_analyze(oracles.haar_tensor(r, res))
        coeffs = spectrum.coefficients
        # axis index 2**k + j addresses the Haar at (level k, position j)
        idx = tuple((1 << side.level) + side.position for side in r.sides)
        assert coeffs[idx] == 1
        coeffs_copy = np.array(coeffs, copy=True)
        coeffs_copy[idx] = 0
        assert not np.any(coeffs_copy)

    def test_analyze_constant(self):
        spectrum = oracles.haar_analyze(np.ones((4, 4), dtype=np.int8))
        assert spectrum.coefficients[0, 0] == 1
        rest = np.array(spectrum.coefficients, copy=True)
        rest[0, 0] = 0
        assert not np.any(rest)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(0, 3),
        st.integers(0, 200),
    )
    def test_round_trip_random_grids(self, d, level, seed):
        res = Resolution((level,) * d)
        rng = np.random.default_rng(seed)
        f = rng.integers(-9, 10, size=res.grid_shape, dtype=np.int64)
        back = oracles.haar_synthesize(oracles.haar_analyze(f))
        assert back.den == 1
        assert np.array_equal(back.values, f)

    def test_parseval_moment_from_spectrum(self):
        res = Resolution((2, 2))
        rng = np.random.default_rng(6)
        f = rng.integers(-4, 5, size=res.grid_shape, dtype=np.int64)
        assert oracles.parseval_l2_moment(oracles.haar_analyze(f)) == \
            oracles.moment(f, 2)


def _spectrum_rectangle(index):
    """The rectangle of a spectrum entry: side ``(k, j)`` where the axis index
    is ``2**k + j``, and the whole axis ``(0, 0)`` where it is 0 (a constant
    factor)."""
    sides = []
    for i in index:
        k = max(i.bit_length() - 1, 0)
        sides.append(DyadicInterval(k, i - (1 << k)) if i else DyadicInterval(0, 0))
    return DyadicRectangle(tuple(sides))


def _signed_basis(index, res):
    """Tensor Haar function of a spectrum entry: ``haar_tensor`` over the Haar
    axes, constant 1 along the axes whose index is 0."""
    rect = _spectrum_rectangle(index)
    haar_axes = [a for a, i in enumerate(index) if i]
    if not haar_axes:
        return np.ones(res.grid_shape, dtype=np.int8)
    sub = oracles.haar_tensor(
        DyadicRectangle(tuple(rect.sides[a] for a in haar_axes)),
        Resolution(tuple(res.levels[a] for a in haar_axes)))
    const_axes = tuple(a for a, i in enumerate(index) if not i)
    return np.broadcast_to(np.expand_dims(sub, const_axes), res.grid_shape)


class TestSynthesizeOracle:
    """``grid.synthesize`` against a direct sum over spectrum entries."""

    LEVELS = [(5,), (1, 4), (3, 0, 2), (2, 2, 2)]
    DTYPES = [np.int8, np.int16, np.int64, np.float64, object]

    @staticmethod
    def _spectrum(levels, dtype, seed=0):
        res = Resolution(levels)
        rng = np.random.default_rng(seed)
        # |c| <= 3 and at most 27 entries cover a cell, so int8 cannot wrap
        return res, rng.integers(-3, 4, size=res.grid_shape).astype(dtype)

    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("levels", LEVELS)
    def test_matches_direct_sum(self, levels, dtype, signed):
        res, spec = self._spectrum(levels, dtype)
        expected = np.zeros(res.grid_shape, dtype=object)
        for index in np.ndindex(*res.grid_shape):
            c = int(spec[index])
            if not c:
                continue
            basis = (_signed_basis(index, res) if signed else
                     oracles.indicator_grid(_spectrum_rectangle(index), res))
            expected = expected + c * basis.astype(object)
        out = grid.synthesize(spec, signed)
        assert out.dtype == spec.dtype
        assert out.shape == res.grid_shape
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("levels", LEVELS)
    def test_layout_independent_and_read_only(self, levels, dtype, signed):
        _, spec = self._spectrum(levels, dtype, seed=1)
        ref = grid.synthesize(spec, signed)
        assert ref.flags.c_contiguous
        transposed = np.ascontiguousarray(spec.T).T
        for variant in (spec, np.asfortranarray(spec), transposed):
            before = variant.copy()
            out = grid.synthesize(variant, signed)
            assert out.flags.c_contiguous
            assert out.dtype == spec.dtype
            assert np.array_equal(out, ref)
            assert np.array_equal(variant, before)

    @pytest.mark.parametrize("signed", [True, False])
    def test_workspace_reused_across_dtypes_and_shapes(self, signed):
        # one workspace for every case in turn, so each call meets buffers
        # that another width and shape left dirty; outputs stay new arrays
        ws = grid.Workspace()
        last = None
        for levels, dtype in itertools.product(self.LEVELS, self.DTYPES):
            _, spec = self._spectrum(levels, dtype, seed=2)
            before = spec.copy()
            out = grid.synthesize(spec, signed, workspace=ws)
            assert out.flags.c_contiguous and out.dtype == spec.dtype
            assert np.array_equal(out, grid.synthesize(spec, signed))
            assert np.array_equal(spec, before)
            if last is not None:
                assert not np.shares_memory(out, last)
            last = out


# ---------------------------------------------------------------------------
# square function
# ---------------------------------------------------------------------------


class TestSquareFunction:
    def test_square_function_of_single_haar_is_indicator(self):
        i = DyadicInterval(2, 1)
        res = Resolution((3,))
        h = oracles.haar_1d(i, res)
        sq = oracles.square_function_squared(h)
        ind = oracles.indicator_grid(DyadicRectangle((i,)), res)
        assert np.array_equal(sq.values, ind)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 3), st.integers(0, 100))
    def test_parseval_identity_exact(self, d, level, seed):
        res = Resolution((level,) * d)
        rng = np.random.default_rng(seed)
        f = rng.integers(-5, 6, size=res.grid_shape, dtype=np.int64)
        assert oracles.mean(oracles.square_function_squared(f)) == \
            oracles.moment(f, 2)

    def test_homogeneity(self):
        res = Resolution((2, 2))
        rng = np.random.default_rng(7)
        f = rng.integers(-3, 4, size=res.grid_shape, dtype=np.int64)
        # S(-3f) = 3 S(f), checked exactly on the squares
        s1 = oracles.square_function_squared(-3 * f)
        s2 = oracles.square_function_squared(f)
        assert np.array_equal(s1.values * s2.den, 9 * s2.values * s1.den)

    def test_l2_ratio_is_one(self):
        res = Resolution((3, 2))
        rng = np.random.default_rng(8)
        # times the cell count, the spectrum and so S(f)^2 are integers
        f = res.cells * rng.integers(-5, 6, size=res.grid_shape, dtype=np.int64)
        sq = oracles.square_function_squared(f)
        assert sq.den == 1
        prof = grid.lp_profile(f, sq.values, [2])
        assert prof[0]["b_p"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# exact routes against Fraction oracles
# ---------------------------------------------------------------------------


def _oracle_analyze(values):
    """Haar coefficients as a Fraction object array: along every axis, half
    differences and half sums level by level."""
    arr = np.asarray(values).astype(object)
    for axis in range(arr.ndim):
        cur = np.moveaxis(arr, axis, 0)
        m = cur.shape[0].bit_length() - 1
        out = np.empty_like(cur)
        for k in range(m - 1, -1, -1):
            even, odd = cur[0::2], cur[1::2]
            out[1 << k: 1 << (k + 1)] = (odd - even) * Fraction(1, 2)
            cur = (odd + even) * Fraction(1, 2)
        out[0:1] = cur
        arr = np.moveaxis(out, 0, axis)
    return arr


def _oracle_parseval(coef, levels):
    """sum over spectrum entries of c**2 times the support weight, one
    Fraction per entry."""
    per_axis = [[Fraction(1)] + [Fraction(1, 1 << k)
                                 for k in range(m) for _ in range(1 << k)]
                for m in levels]
    return sum((Fraction(c) ** 2 * math.prod(w)
                for c, w in zip(coef.flat, itertools.product(*per_axis))),
               Fraction(0))


def _oracle_conditional(cells, levels, field):
    """Block averages as a Fraction object array."""
    out = np.empty(Resolution(field).grid_shape, dtype=object)
    for idx in np.ndindex(*out.shape):
        block = tuple(slice(i << (m - mf), (i + 1) << (m - mf))
                      for i, m, mf in zip(idx, levels, field))
        out[idx] = Fraction(sum(cells[block].flat, Fraction(0)),
                            cells[block].size)
    return out


def _fractions(values, den):
    return [Fraction(int(v), den) for v in np.asarray(values).flat]


class TestExactRoutesAgainstOracle:
    """Integer numerators over one denominator against cellwise Fractions."""

    @staticmethod
    def _check(f):
        levels = f.resolution.levels
        cells = np.asarray(_fractions(f.values, f.den), dtype=object) \
            .reshape(f.values.shape)
        coef = _oracle_analyze(cells)
        spectrum = oracles.haar_analyze(f)
        assert _fractions(spectrum.coefficients, spectrum.den) == list(coef.flat)
        assert math.gcd(spectrum.den, *map(int, spectrum.coefficients.flat)) == 1

        sq = oracles.square_function_squared(f)
        expected = grid.synthesize(coef * coef, signed=False)
        assert _fractions(sq.values, sq.den) == list(expected.flat)

        moment = _oracle_parseval(coef, levels)
        assert oracles.parseval_l2_moment(spectrum) == moment
        (sum_sq,), _ = grid.abs_power_sums([f.values], [2])
        assert Fraction(sum_sq, f.resolution.cells * f.den ** 2) == moment

        rng = np.random.default_rng(sum(levels))
        field = tuple(int(rng.integers(0, m + 1)) for m in levels)
        for g, g_cells in ((f, cells), (sq, expected)):
            ce = oracles.conditional_expectation(g, Resolution(field))
            oracle = _oracle_conditional(g_cells, levels, field)
            assert _fractions(ce.values, ce.den) == list(oracle.flat)
        return spectrum, sq

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_integer_grids(self, d, level):
        res = Resolution((level,) * d)
        rng = np.random.default_rng((d, level))
        f = RationalGrid(rng.integers(-9, 10, size=res.grid_shape, dtype=np.int64))
        spectrum, sq = self._check(f)
        assert spectrum.coefficients.dtype.kind == "i"
        assert sq.values.dtype.kind == "i"
        back = oracles.haar_synthesize(spectrum)
        assert back.den == 1 and np.array_equal(back.values, f.values)

    def test_mixed_levels_and_fraction_input(self):
        res = Resolution((3, 0, 2))
        rng = np.random.default_rng(11)
        f = RationalGrid(
            3 * rng.integers(-9, 10, size=res.grid_shape, dtype=np.int64), 8)
        assert f.den == 8
        self._check(f)

    def test_python_int_route_past_int64(self):
        # the sum of 16 cells above 2^59 passes 2^63 in the analysis, and
        # squares pass it in the square function and Parseval sums: all
        # take Python ints
        res = Resolution((2, 2))
        rng = np.random.default_rng(12)
        f = RationalGrid((1 << 59) + rng.integers(0, 1000, size=res.grid_shape))
        assert f.values.dtype == np.int64
        spectrum, sq = self._check(f)
        assert spectrum.coefficients.dtype == object
        assert sq.values.dtype == object
        assert grid.abs_power_sums([sq.values], [3]) == (
            [sum(int(v) ** 3 for v in sq.values.flat)],
            max(int(v) for v in sq.values.flat))

    @pytest.mark.parametrize("dtype", ["int64", "object"])
    def test_grid_floats_correctly_rounded(self, dtype):
        # every cell becomes the float64 nearest its exact value, rounded
        # once: int64 cells past 2^53, and Python-int cells of S(H)^2 from
        # coefficients >= 2^32, whose squares pass int64
        rng = np.random.default_rng(84)
        if dtype == "int64":
            values = (2**60 + rng.permutation(256)).reshape(16, 16)
        else:
            shape_values = {
                s: (rng.integers(1, 1000, size=tuple(1 << r for r in s)) << 32)
                + rng.integers(0, 1 << 20, size=tuple(1 << r for r in s))
                for s in hyperbolic.enumerate_shapes(2, 2)}
            values = hyperbolic.square_function_squared(
                CoefficientField(2, 2, shape_values))
        assert values.dtype == dtype
        cells = np.array([float(Fraction(int(v))) for v in values.flat])
        ps = [1, 2, 3, 4]
        rows = grid.lp_profile(values, values, ps)
        assert [row["norm"] for row in rows] == grid.lp_norms(values, ps) == \
            [float(oracles.moment(values, p)) ** (1.0 / p) for p in ps]
        assert [row["square_function_norm"] for row in rows] == \
            [grid.float_lp_norm([np.sqrt(cells)], p) for p in ps]
        assert grid.orlicz_norm_estimate(values, 2.0, 4) == \
            max(float(p) ** -0.5 * grid.float_lp_norm([np.abs(cells)], p)
                for p in ps)

    @pytest.mark.parametrize("nums, den", [
        (2**60 + np.arange(256), 3),  # numerators past 2^53, odd den
        (np.arange(-128, 128), 3**40),  # den past 2^53
        (2**80 + 2**26 * np.arange(256, dtype=object), 3),  # Python ints
        (2**1100 + np.arange(256, dtype=object), 2**1000),  # past float64 range
        (np.arange(1, 257), 2**1030),  # den past float64 range
        (2**60 + np.arange(256), 2**10),  # power of two: the float64 route
    ])
    def test_float_values_correctly_rounded(self, nums, den):
        # a value over a scale leaves for float through norm_of_power_sum,
        # rounded once; dividing the rounded numerator by the rounded scale
        # rounds twice: 2^60 + k over 3 missed float(Fraction) in most cells
        want = [float(Fraction(int(v), den)) for v in nums]
        assert [grid.norm_of_power_sum(int(v), den, 1) for v in nums] == want
        if den.bit_length() <= 64 and not den & (den - 1):
            # a power-of-two scale divides the float64 cells exactly (the
            # float branch of verify_temlyakov)
            assert (nums.astype(np.float64) / den).tolist() == want

    def test_zero_grids_at_the_width_edges(self):
        # the analysis multiplies by 2^7 > int8 though every value is 0;
        # p = 200 exceeds int8 too
        zero = RationalGrid(np.zeros(256, dtype=np.int8))
        spectrum, sq = self._check(zero)
        assert not spectrum.coefficients.any() and not sq.values.any()
        assert grid.abs_power_sums([zero.values], [200]) == ([0], 0)
        assert grid.abs_power_sums([np.zeros((2, 2), np.int8)], [200]) == ([0], 0)


class TestPowerSumsAgainstOracle:
    """``abs_power_sums`` against a per-cell Python-int sum, on both
    routes: the value histogram and the chunked power loop."""

    PS = [1, 2, 3, 4, 16, 200]
    CHUNK = grid._POWER_CHUNK

    CASES = [
        (np.arange(-128, 128, dtype=np.int8), "histogram"),
        (np.resize(np.arange(-3, 4, dtype=np.int8), 2 * CHUNK + 3), "histogram"),
        (np.arange(-32768, 32768, dtype=np.int16), "histogram"),
        (np.arange(-40000, -40000 + CHUNK, dtype=np.int32), "histogram"),
        (np.arange(-40000, -40000 + CHUNK + 1, dtype=np.int32), "wide"),
        (np.array([2**62, -2**62, 2**62 - 1, 3 - 2**62], dtype=np.int64), "wide"),
        (np.arange(2**62 - 5, 2**62 + 6, dtype=np.int64), "histogram"),
        (np.arange(256, dtype=np.uint8), "histogram"),
        (np.array([2**63 + k for k in (0, 7, 3, 7)], dtype=np.uint64), "histogram"),
        (np.array([2**64 - 1, 2**63, 0], dtype=np.uint64), "wide"),
        (np.array([2**70, -2**70, 3, -5, 0], dtype=object), "wide"),
        (np.array([1, -1, 2], dtype=object), "wide"),
        (np.zeros(8, dtype=np.int8), "histogram"),
    ]

    @pytest.mark.parametrize("values, route", CASES)
    def test_every_power_is_exact(self, values, route, monkeypatch):
        calls = []
        histogram = grid._histogram_power_sums
        monkeypatch.setattr(grid, "_histogram_power_sums",
                            lambda *a: calls.append(a) or histogram(*a))
        rng = np.random.default_rng(values.size)
        values = rng.permutation(values)
        oracle = [sum(abs(int(v)) ** p for v in values.tolist()) for p in self.PS]
        assert grid.abs_power_sums([values], self.PS)[0] == oracle
        assert len(calls) == (route == "histogram")

    @pytest.mark.parametrize("values, route", CASES)
    def test_fold_ignores_the_split(self, values, route):
        # the fold's sums and peak are those of the chunks taken as one
        # (whose sums test_every_power_is_exact checks), wherever they are
        # cut, and with empty chunks among them
        rng = np.random.default_rng(values.size + 1)
        values = rng.permutation(values)
        whole = grid.abs_power_sums([values], self.PS)
        assert whole[1] == grid.max_abs(values)
        for _ in range(3):
            cuts = np.sort(rng.integers(0, values.size + 1, size=4))
            chunks = np.split(values, cuts)
            chunks.insert(int(rng.integers(0, len(chunks) + 1)), values[:0])
            assert grid.abs_power_sums(chunks, self.PS) == whole

    def test_fold_edges(self):
        assert grid.abs_power_sums([], [1, 2]) == ([0, 0], 0)
        # -128 alone in a chunk, and int8 and int16 chunks together
        chunks = [np.array([-128], dtype=np.int8), np.array([], dtype=np.int8),
                  np.array([5, -3], dtype=np.int16)]
        assert grid.abs_power_sums(chunks, [1, 2]) == ([136, 128**2 + 34], 128)

    @pytest.mark.parametrize("den", [1, 3])
    def test_lp_norms_root_the_exact_moments(self, den):
        # a grid over a scale den: E|v/den|**p is the power sum over
        # cells * den**p, rooted once
        rng = np.random.default_rng(den)
        f = RationalGrid(rng.integers(-50, 51, size=Resolution((3, 2)).grid_shape),
                         den)
        assert f.den == den
        ps = [1, 2, 3, 4, 7, 16]
        want = [(float(oracles.moment(f, p)) ** (1.0 / p)).hex() for p in ps]
        sums, _ = grid.abs_power_sums([f.values], ps)
        assert [grid.norm_of_power_sum(total, f.values.size * den**p, p).hex()
                for total, p in zip(sums, ps)] == want
        if den == 1:
            assert [v.hex() for v in grid.lp_norms(f.values, ps)] == want

    @pytest.mark.parametrize("p", [2.5, 0, 2.0])
    def test_lp_norms_need_integer_p(self, p):
        h = oracles.haar_1d(DyadicInterval(0, 0), Resolution((1,)))
        with pytest.raises(ValueError, match="integer p"):
            grid.lp_norms(h, [1, p])
        with pytest.raises(ValueError, match="integer p"):
            grid.lp_profile(h, oracles.square_function_squared(h).values, [p])


# ---------------------------------------------------------------------------
# conditional expectation
# ---------------------------------------------------------------------------


class TestConditionalExpectation:
    def test_haar_averages_to_zero_on_coarser_field(self):
        h = oracles.haar_1d(DyadicInterval(1, 0), Resolution((3,)))
        ce = oracles.conditional_expectation(h, Resolution((1,)))
        assert not np.any(ce.values != 0)

    def test_same_resolution_identity(self):
        res = Resolution((2, 2))
        rng = np.random.default_rng(9)
        f = rng.integers(-5, 6, size=res.grid_shape, dtype=np.int64)
        assert oracles.grids_equal(oracles.conditional_expectation(f, res), f)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 100))
    def test_tower_property(self, c1, c2, seed):
        res = Resolution((3, 3))
        rng = np.random.default_rng(seed)
        f = rng.integers(-5, 6, size=res.grid_shape, dtype=np.int64)
        coarse = Resolution((c1, c2))
        assert oracles.mean(oracles.conditional_expectation(f, coarse)) == \
            oracles.mean(f)

    def test_finer_field_rejected(self):
        f = np.ones((2, 2), dtype=np.int8)
        with pytest.raises(ValueError):
            oracles.conditional_expectation(f, Resolution((2, 1)))


# ---------------------------------------------------------------------------
# LP / Orlicz diagnostics
# ---------------------------------------------------------------------------


class TestLPDiagnostics:
    # 2^20 cells in C-order slabs of 2^7 (numpy's pairwise block), 2^10 and
    # 2^14 cells, and as one slab: a numpy whose sum stops halving
    # power-of-two ranges down to 2^7-cell blocks fails here
    @pytest.mark.parametrize("p", [1, 2, 3, 2.5])
    @pytest.mark.parametrize("slab_cells", [1 << 7, 1 << 10, 1 << 14, 1 << 20])
    def test_float_lp_norm_over_slabs_is_np_mean(self, p, slab_cells):
        x = np.abs(np.random.default_rng(7).standard_normal((1 << 10, 1 << 10)))
        want = float(np.mean(x ** p) ** (1 / p))
        rows = slab_cells >> 10 or 1
        slabs = ([x[lo:lo + rows] for lo in range(0, len(x), rows)]
                 if slab_cells >= 1 << 10 else
                 [x.reshape(-1)[lo:lo + slab_cells]
                  for lo in range(0, x.size, slab_cells)])
        assert grid.float_lp_norm(slabs, p) == want
        assert grid.float_lp_norm(iter(slabs), p) == want

    @pytest.mark.parametrize("sizes", [[64, 64], [128, 128, 128], [96, 96],
                                       [128, 256, 128], []])
    def test_float_lp_norm_refuses_slabs_off_the_pairwise_tree(self, sizes):
        x = np.ones(sum(sizes))
        slabs = np.split(x, np.cumsum(sizes)[:-1]) if sizes else []
        with pytest.raises(ValueError, match="slab"):
            grid.float_lp_norm(slabs, 2)

    def test_float_lp_norm_takes_any_single_slab(self):
        x = np.arange(1.0, 25.0).reshape(2, 3, 4)
        assert grid.float_lp_norm([x], 3) == float(np.mean(x ** 3.0) ** (1 / 3))

    def test_full_interval_haar_profile(self):
        h = oracles.haar_1d(DyadicInterval(0, 0), Resolution((1,)))
        assert grid.lp_norms(h, [1, 2, 4, 8]) == pytest.approx([1.0] * 4)
        assert grid.orlicz_norm_estimate(h, 1.0, 4) == pytest.approx(1.0)

    def test_ratio_constant_d1_haar_sums(self):
        # b_p / sqrt(p) stays below the frozen regression constant for
        # one-dimensional Haar sums with random sign coefficients: a field
        # with n=5 and every coarser shape, the 63 signs filling levels
        # 0..5 in order.
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            spec = rng.integers(0, 2, size=63) * 2 - 1
            field = CoefficientField(5, 1, {(k,): spec[(1 << k) - 1:(2 << k) - 1]
                                            for k in range(6)})
            prof = grid.lp_profile(hyperbolic.hyperbolic_sum(field),
                                   hyperbolic.square_function_squared(field),
                                   [2, 4, 8, 16])
            worst = max(worst, max(row["b_p"] / math.sqrt(row["p"]) for row in prof))
        assert worst <= 0.75

    def test_orlicz_requires_positive_alpha(self):
        h = oracles.haar_1d(DyadicInterval(0, 0), Resolution((1,)))
        with pytest.raises(ValueError):
            grid.orlicz_norm_estimate(h, 0.0, 4)

    def test_lp_profile_requires_increasing_ps(self):
        h = oracles.haar_1d(DyadicInterval(0, 0), Resolution((1,)))
        with pytest.raises(ValueError):
            grid.lp_profile(h, oracles.square_function_squared(h).values, [4, 2])

