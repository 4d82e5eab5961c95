"""Shapes, r-functions, hyperbolic sums, and the sup-norm experiments."""

import itertools
import tracemalloc
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
        rects = oracles.rectangles_of_shape((1, 1))
        assert len(rects) == 4
        assert sum(r.volume for r in rects) == 1

    def test_slab_shape(self):
        rects = oracles.rectangles_of_shape((0, 0, 2))
        assert len(rects) == 4
        for r in rects:
            assert r.sides[0].level == 0 and r.sides[1].level == 0
        assert {r.sides[2].position for r in rects} == {0, 1, 2, 3}

    def test_tiling_is_disjoint(self):
        res = Resolution((2, 1))
        total = sum(oracles.indicator_grid(r, res)
                    for r in oracles.rectangles_of_shape((2, 1)))
        assert np.all(total == 1)


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
        f = oracles.constant_field(2, 2, value=-3)
        count = sum(4 for _ in hyperbolic.enumerate_shapes(2, 2))
        assert f.abs_sum() == 3 * count
        assert oracles.square_sum(f) == 9 * count

    @pytest.mark.parametrize("n, d, value", [(1, 2, -2**63), (2, 3, 2**61)])
    def test_abs_and_square_sums_past_int64(self, n, d, value):
        # an int64 sum of |alpha| wrapped: -2^63 has no int64 absolute
        # value, and four cells of 2^61 add up to 2^63 in one shape
        f = oracles.constant_field(n, d, value)
        count = hyperbolic.shape_count(n, d) << n
        assert f.abs_sum() == count * abs(value)
        assert oracles.square_sum(f) == count * value**2

    def test_abs_sum_of_mixed_widths_is_exact(self):
        # the values fold as one chunk; uint64 beside a signed width has a
        # float64 common type, which would round 2^64 - 1
        vals = {s: np.full(tuple(1 << r for r in s), -3, dtype=np.int8)
                for s in hyperbolic.enumerate_shapes(2, 2)}
        vals[(2, 0)] = np.full((4, 1), 2**64 - 1, dtype=np.uint64)
        vals[(1, 1)] = np.full((2, 2), 200, dtype=np.uint8)
        f = CoefficientField(2, 2, vals)
        assert f.abs_sum() == 4 * (3 + 2**64 - 1 + 200)

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
    """The r-function of one shape is ``hyperbolic.r_function``, the pair
    expansion of its signs."""

    #: one shape per d, with levels 0 to 2
    SHAPES = [(2,), (1, 2), (2, 0, 1)]

    @staticmethod
    def _r(field, shape, levels):
        return hyperbolic.r_function(hyperbolic.signs_of(field.values[shape]),
                                     shape, levels)

    def test_all_plus_r_function_values(self):
        f = oracles.constant_field(2, 2)
        g = self._r(f, (1, 1), (2, 2))
        assert set(np.unique(g)) <= {-1, 1}
        assert oracles.mean(g) == 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 100))
    def test_r_function_squares_to_one(self, seed):
        f = CoefficientField.random_signs(3, 3, seed)
        shape = hyperbolic.enumerate_shapes(3, 3)[seed % 10]
        res = hyperbolic.minimal_resolution([shape])
        g = self._r(f, shape, res.levels)
        assert g.shape == res.grid_shape
        assert np.all(g * g == 1)

    def test_insufficient_resolution_raises(self):
        f = oracles.constant_field(3, 2)
        with pytest.raises(InsufficientResolutionError):
            self._r(f, (3, 0), (2, 2))

    def test_restricts_to_its_shape(self):
        # one shape of a field that covers every shape, on a finer grid
        f = oracles.constant_field(2, 2)
        res = Resolution((3, 3))
        single = oracles.full_spectrum_shape_sum(
            {(2, 0): hyperbolic.signs_of(f.values[(2, 0)])}, res)
        assert np.array_equal(self._r(f, (2, 0), res.levels), single)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_level_from_r_to_r_plus_2(self, shape):
        # at level r + 1 and above the full-spectrum synthesis of the
        # shape's signs; at level r the odd cells of the r + 1 synthesis,
        # the right half of each interval
        rng = np.random.default_rng(len(shape))
        values = rng.integers(-3, 4, size=tuple(1 << r for r in shape))
        values.flat[0], values.flat[-1] = -1, 0  # both signs, and sgn(0)
        signs = hyperbolic.signs_of(values)
        for extra in itertools.product(range(3), repeat=len(shape)):
            levels = tuple(r + e for r, e in zip(shape, extra))
            full = oracles.full_spectrum_shape_sum(
                {shape: signs},
                Resolution(tuple(max(m, r + 1) for m, r in zip(levels, shape))))
            expected = full[tuple(slice(1, None, 2) if m == r else slice(None)
                                  for m, r in zip(levels, shape))]
            got = hyperbolic.r_function(signs, shape, levels)
            assert got.dtype == full.dtype, levels
            assert np.array_equal(got, expected), levels

    @pytest.mark.parametrize("shape", SHAPES)
    def test_below_its_level_raises(self, shape):
        signs = np.ones(tuple(1 << r for r in shape), dtype=np.int8)
        lowered = 0
        for axis, r in enumerate(shape):
            if r:
                levels = tuple(q + 1 for q in shape[:axis]) + (r - 1,) + \
                    tuple(q + 1 for q in shape[axis + 1:])
                with pytest.raises(InsufficientResolutionError,
                                   match=f"axis {axis} level {r - 1} < {r}"):
                    hyperbolic.r_function(signs, shape, levels)
                lowered += 1
        assert lowered


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
        h = hyperbolic.shape_sum_grid(f.values, hyperbolic.field_resolution(f))
        haar = oracles.haar_tensor(oracles.rectangle((1, 1), (1, 0)),
                                   hyperbolic.field_resolution(f))
        assert np.array_equal(h, 5 * haar)

    def test_inner_product_with_matching_r_function(self):
        n, d = 3, 2
        f = CoefficientField.random_integers(n, d, 21)
        res = hyperbolic.field_resolution(f)
        h = hyperbolic.shape_sum_grid(f.values, res)
        for shape in hyperbolic.enumerate_shapes(n, d):
            rf = hyperbolic.r_function(hyperbolic.signs_of(f.values[shape]),
                                       shape, res.levels)
            expected = Fraction(
                int(np.sum(np.abs(f.values[shape].astype(np.int64)))), 1 << n)
            inner = Fraction(int(np.sum(h.astype(np.int64) * rf)), res.cells)
            assert inner == expected

    def test_l2_moment_matches_coefficient_squares(self):
        n, d = 3, 3
        f = CoefficientField.random_integers(n, d, 22)
        h = hyperbolic.shape_sum_grid(f.values, hyperbolic.field_resolution(f))
        assert oracles.moment(h, 2) == Fraction(oracles.square_sum(f), 1 << n)

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

    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("rows", [1, 2, None])
    def test_int8_most_negative_placed_wide(self, signed, rows):
        # int8 coefficients of -128 put the sum past int8, and each is
        # negated at the sum's width: in blocks of one shape, and in a
        # block of three shapes of one (axis-0, middle) level pair whose
        # pairs are repeated end to end
        rng = np.random.default_rng(7)
        shapes = [(1, 0, 0), (1, 0, 1), (1, 0, 2), (0, 1, 1), (2, 1, 0)]
        vals = {s: rng.choice(np.array([-128, 127, 0, -1], dtype=np.int8),
                              size=tuple(1 << r for r in s)) for s in shapes}
        vals[(1, 0, 2)][...] = -128
        res = Resolution((3, 2, 4))
        want = oracles.full_spectrum_shape_sum(vals, res, signed)
        assert want.dtype == np.int16
        got = np.concatenate(list(hyperbolic.shape_sum_slabs(vals, res, signed,
                                                             rows)))
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("report", [hyperbolic.square_function_slabs,
                                        oracles.trivial_bound_report])
    def test_float_field_refused(self, report):
        # grids are exact; only the d=2 product reads float fields
        with pytest.raises(ValueError, match="integer field"):
            report(CoefficientField.random_normal(2, 2, 0))

    def test_coarse_shapes_enter_the_sum(self):
        base = CoefficientField.random_signs(2, 2, 30)
        ext = hyperbolic.add_coarse_random(base, 31)
        h_base = hyperbolic.shape_sum_grid(base.values, Resolution((3, 3)))
        h_ext = hyperbolic.shape_sum_grid(ext.values, Resolution((3, 3)))
        assert not np.array_equal(h_base, h_ext)


def _stream_fields(d: int, kind: str):
    """(n, shape values) at n = 0..4: random integers, their squares (the
    unsigned S(H)**2 sums), integers with every coarser shape added, and a
    ``random_normal`` float field."""
    for n in range(5):
        rng = np.random.default_rng((90, d, n))
        if kind == "normal":
            yield n, dict(CoefficientField.random_normal(n, d, rng).values)
            continue
        vals = dict(CoefficientField.random_integers(n, d, rng).values)
        if kind == "squares":
            vals = {s: v * v for s, v in vals.items()}
        if kind == "coarse":
            vals.update(hyperbolic.add_coarse_random(
                CoefficientField(n, d, vals), rng).values)
        yield n, vals


class TestShapeSumSlabs:
    """``shape_sum_slabs`` concatenated against ``shape_sum_grid`` and the
    dense-spectrum oracle, bit for bit, for every slab size."""

    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("kind", ["integers", "squares", "coarse", "normal"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_slabs_match_grid_and_full_spectrum(self, d, kind, signed):
        for n, vals in _stream_fields(d, kind):
            minimal = hyperbolic.minimal_resolution(vals, d)
            for res in (minimal, Resolution(tuple(m + 1 for m in minimal.levels))):
                whole = hyperbolic.shape_sum_grid(vals, res, signed)
                want = oracles.full_spectrum_shape_sum(vals, res, signed)
                assert whole.dtype == want.dtype
                assert whole.tobytes() == want.tobytes(), (n, res.levels)
                m0 = res.levels[0]
                # 1, 2, a middle value and the whole axis
                for rows in sorted({1, 2, 1 << (m0 // 2), 1 << m0}):
                    slabs = list(hyperbolic.shape_sum_slabs(vals, res, signed, rows))
                    assert len(slabs) == (1 << m0) // rows
                    for slab in slabs:
                        assert slab.shape == (rows,) + res.grid_shape[1:]
                        assert slab.dtype == want.dtype
                        assert slab.flags.c_contiguous
                    got = np.concatenate(slabs)
                    assert got.tobytes() == want.tobytes(), (n, res.levels, rows)
                    if kind == "normal":
                        assert np.array_equal(got, whole)

    @pytest.mark.parametrize("kind", ["integers", "coarse", "normal"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_per_axis_flags_match_full_spectrum(self, d, kind):
        # every mix of signed and unsigned axes, against the oracle that
        # synthesizes one axis at a time with that axis's flag
        patterns = [p for p in itertools.product([True, False], repeat=d)
                    if len(set(p)) == 2]
        for n, vals in _stream_fields(d, kind):
            res = hyperbolic.minimal_resolution(vals, d)
            m0 = res.levels[0]
            for signed in patterns:
                want = oracles.full_spectrum_shape_sum(vals, res, signed)
                whole = hyperbolic.shape_sum_grid(vals, res, signed)
                assert whole.tobytes() == want.tobytes(), (n, signed)
                for rows in sorted({1, 2, 1 << m0}):
                    slabs = list(hyperbolic.shape_sum_slabs(vals, res, signed,
                                                            rows))
                    got = np.concatenate(slabs)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (n, signed, rows)
        # a flag per axis differs from both bools
        vals = {(1, 1): np.arange(1, 5).reshape(2, 2)}
        res = Resolution((2, 2))
        mixed = hyperbolic.shape_sum_grid(vals, res, (True, False))
        for signed in (True, False):
            assert not np.array_equal(
                mixed, hyperbolic.shape_sum_grid(vals, res, signed))

    @pytest.mark.parametrize("kind", ["integers", "squares", "coarse", "normal"])
    def test_unsigned_middle_axis_stops_at_its_finest_level(self, kind):
        # on a grid one level coarser on an unsigned axis 1, each slab
        # repeated twice along that axis is the slab of the shapes' grid,
        # bit for bit (floats included: a leaf adds what the butterfly adds)
        patterns = [(True, False, True), (False, False, False),
                    (True, False, False), (False, False, True)]
        for n, vals in _stream_fields(3, kind):
            full = hyperbolic.minimal_resolution(vals, 3)
            m0, m1, m2 = full.levels
            coarse = Resolution((m0, m1 - 1, m2))
            for signed in patterns:
                for rows in sorted({1, 2, 1 << m0}):
                    got = list(hyperbolic.shape_sum_slabs(vals, coarse, signed,
                                                          rows))
                    want = list(hyperbolic.shape_sum_slabs(vals, full, signed,
                                                           rows))
                    assert len(got) == len(want) == (1 << m0) // rows
                    for a, b in zip(got, want):
                        assert a.shape == (rows, 1 << (m1 - 1), 1 << m2)
                        assert a.dtype == b.dtype and a.flags.c_contiguous
                        assert np.repeat(a, 2, axis=1).tobytes() == \
                            b.tobytes(), (n, signed, rows)

    def test_leaf_axis_is_synthesized_first(self, monkeypatch):
        # the leaf halves axis 1 before axis 0 runs, so axis 0 works on
        # half the cells of the slab's Haar column
        calls = []
        real = grid.synthesize_axis0

        def spy(coef, *args, leaf=False, **kwargs):
            calls.append((coef.size, leaf))
            return real(coef, *args, leaf=leaf, **kwargs)

        monkeypatch.setattr(grid, "synthesize_axis0", spy)
        vals = {(1, 2, 1): np.ones((2, 4, 2), dtype=np.int64),
                (2, 1, 1): -np.ones((4, 2, 2), dtype=np.int64)}
        slabs = list(hyperbolic.shape_sum_slabs(
            vals, Resolution((3, 2, 2)), (True, False, True), rows=2))
        column = 2 * 8 * 4  # rows, axis 1 in Haar layout to level 2, axis 2
        # the leaf, its butterfly on the first half, then axis 0
        assert calls == [(column, True), (column // 2, False),
                         (column // 2, False)] * len(slabs)

    @pytest.mark.parametrize("levels, signed", [
        ((3, 3, 2), (False, True, False)),
        ((2, 4, 2), (False,) * 3),
        ((3, 4, 1), (False,) * 3),
    ], ids=["signed-middle", "axis-0", "last-axis"])
    def test_leaf_only_on_an_unsigned_middle_axis(self, levels, signed):
        shape = (2, 3, 1)
        hyperbolic._check_resolution(Resolution((3, 3, 2)), [shape],
                                     (True, False, True))
        with pytest.raises(InsufficientResolutionError, match="level"):
            hyperbolic._check_resolution(Resolution(levels), [shape], signed)
        vals = {shape: np.ones((4, 8, 2), dtype=np.int64)}
        with pytest.raises(InsufficientResolutionError):
            next(hyperbolic.shape_sum_slabs(vals, Resolution(levels), signed))

    @pytest.mark.parametrize("d", [2, 3])
    def test_streams_sharing_a_workspace(self, d):
        # streams of int8, int16, float64 and Python-int sums with several
        # sign patterns, advanced in lockstep on one workspace, each against
        # its own stream on a private workspace and the oracle, bit for bit
        n = 4
        fields = [vals for kind in ("integers", "squares", "coarse", "normal")
                  for m, vals in _stream_fields(d, kind) if m == n]
        fields[1] = {s: v << 3 for s, v in fields[1].items()}  # past int8
        fields.append({s: v.astype(object) << 62 for s, v in fields[0].items()})
        mixed = (True,) + (False,) * (d - 1)
        patterns = [True, False, mixed, tuple(not f for f in mixed), mixed]
        res = Resolution((n + 1,) * d)
        wants = [oracles.full_spectrum_shape_sum(vals, res, signed)
                 for vals, signed in zip(fields, patterns)]
        assert [w.dtype for w in wants] == [np.int8, np.int16, np.int8,
                                           np.float64, object]

        def same(a, b):
            return a.dtype == b.dtype and (a.tolist() == b.tolist()
                                           if a.dtype == object
                                           else a.tobytes() == b.tobytes())

        for rows in (1, 2, 1 << (n + 1) // 2):
            ws = grid.Workspace()
            shared = [hyperbolic.shape_sum_slabs(vals, res, signed, rows, ws)
                      for vals, signed in zip(fields, patterns)]
            got = list(zip(*zip(*shared)))
            assert len(got) == len(fields)
            for slabs, vals, signed, want in zip(got, fields, patterns, wants):
                own = list(hyperbolic.shape_sum_slabs(vals, res, signed, rows))
                assert len(slabs) == len(own) == (1 << (n + 1)) // rows
                assert all(same(a, b) for a, b in zip(slabs, own)), (rows, signed)
                assert same(np.concatenate(slabs), want), (rows, signed)

    @pytest.mark.parametrize("kind", ["integers", "normal"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_listed_slabs_share_no_memory(self, d, kind):
        # every yielded slab is a new array, so a list of them holds the sum
        *_, (n, vals) = _stream_fields(d, kind)
        res = hyperbolic.minimal_resolution(vals, d)
        want = oracles.full_spectrum_shape_sum(vals, res)
        for rows in (1, 2, 1 << res.levels[0]):
            slabs = list(hyperbolic.shape_sum_slabs(vals, res, True, rows))
            assert not any(np.shares_memory(a, b)
                           for a, b in itertools.combinations(slabs, 2))
            assert np.concatenate(slabs).tobytes() == want.tobytes()

    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_bound_127_stays_int8(self, signed, rows):
        vals = {(1, 0, 0): np.array([[[-100]], [[100]]]),
                (0, 1, 1): np.array([[[27, -27], [-27, 27]]])}
        res = Resolution((2, 2, 2))
        slabs = list(hyperbolic.shape_sum_slabs(vals, res, signed, rows))
        want = oracles.full_spectrum_shape_sum(vals, res, signed)
        assert all(slab.dtype == np.int8 for slab in slabs)
        assert np.concatenate(slabs).tobytes() == want.tobytes()
        assert max(grid.max_abs(slab) for slab in slabs) == 127

    @pytest.mark.parametrize("n, rows, count", [(3, 16, 1), (7, 8, 32),
                                                 (8, 8, 64)])
    def test_default_slab_size(self, n, rows, count):
        # d=3 at level n+1 per axis: 2^18 cells are the whole 16-row axis
        # at n=3; they are 4 rows at n=7 and 1 row at n=8, both raised to
        # the floor of 8 rows
        field = CoefficientField.random_signs(n, 3, 91)
        res = hyperbolic.field_resolution(field)
        slabs = hyperbolic.shape_sum_slabs(field.values, res)
        first = next(slabs)
        side = 2 << n
        assert first.shape == (rows, side, side) and first.dtype == np.int8
        assert 1 + sum(1 for _ in slabs) == count

    @pytest.mark.parametrize("rows", [0, 3, 8])
    def test_rows_must_be_a_power_of_two_in_range(self, rows):
        vals = {(1, 1): np.ones((2, 2), dtype=np.int64)}
        with pytest.raises(ValueError, match="power of two"):
            next(hyperbolic.shape_sum_slabs(vals, Resolution((2, 2)), rows=rows))

    @pytest.mark.parametrize("n, mib", [(7, 8), (8, 18), (9, 12)])
    def test_sharpness_trial_peak_bounded(self, n, mib):
        # one d=3 trial streams the level-n grid of the shapes but the
        # corners; the whole sum is never held: at n=8 (2^24 cells, 16 MiB
        # of int8) and at n=9 (128 MiB) the stream holds 8-row slabs and
        # one walk row per coarse level of axis 0
        tracemalloc.start()
        try:
            rep = hyperbolic.sharpness_experiment([n], 3, 1, 92)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep["per_n"][0]["coeff_sum_ok"]
        assert peak < mib << 20, peak / 2**20


def _square_function_squared(field: CoefficientField) -> np.ndarray:
    """The whole grid of ``hyperbolic.square_function_slabs``."""
    return np.concatenate(list(hyperbolic.square_function_slabs(field)))


class TestSquareFunctionSquared:
    """S(H)**2 from the coefficients against the dense Haar analysis of the
    synthesized sum H (``oracles.square_function_squared``)."""

    N_MAX = {1: 8, 2: 6, 3: 4}

    @pytest.mark.parametrize("coarse", [False, True], ids=["exact", "coarse"])
    @pytest.mark.parametrize("maker", ["random_signs", "random_integers"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_dense_analysis(self, d, maker, coarse):
        # random_integers draws zeros too; coarse fields add every coarser shape
        for n in range(self.N_MAX[d] + 1):
            for seed in range(3):
                field = getattr(CoefficientField, maker)(n, d, (80, d, n, seed))
                if coarse:
                    field = hyperbolic.add_coarse_random(field, (81, d, n, seed))
                got = _square_function_squared(field)
                want = oracles.square_function_squared(hyperbolic.shape_sum_grid(
                    field.values, hyperbolic.field_resolution(field)))
                assert want.den == 1
                assert np.array_equal(got, want.values), (n, seed)

    def test_squares_past_int64(self):
        # alpha = k * 2**32 + 1 squares past 2**63, so in int64 the squares
        # wrap; they must become Python ints
        rng = np.random.default_rng(82)
        vals = {s: ((rng.integers(1, 1000, size=tuple(1 << r for r in s)) << 32) + 1)
                * rng.choice([-1, 1], size=tuple(1 << r for r in s))
                for s in hyperbolic.enumerate_shapes(2, 2)}
        field = CoefficientField(2, 2, vals)
        got = _square_function_squared(field)
        assert got.dtype == object
        want = oracles.square_function_squared(hyperbolic.shape_sum_grid(
            field.values, hyperbolic.field_resolution(field)))
        assert want.den == 1
        assert np.array_equal(got, want.values)


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

    def test_threaded_matches_serial(self, monkeypatch):
        serial = hyperbolic.sharpness_experiment([3, 4, 5, 6], 3, 8, 51, threads=1)
        threaded = hyperbolic.sharpness_experiment([3, 4, 5, 6], 3, 8, 51, threads=2)
        assert serial["per_n"] == threaded["per_n"]
        # 2^10-cell slabs fall to the floor of 8 rows, so every n streams
        # 1 to 8 slabs of its level-n grid
        monkeypatch.setattr(grid, "SLAB_CELLS", 1 << 10)
        small = hyperbolic.sharpness_experiment([3, 4, 5, 6], 3, 8, 51, threads=2)
        assert small["per_n"] == serial["per_n"]
        for row in serial["per_n"]:
            n = row["n"]
            fields = [CoefficientField.random_signs(n, 3, (51, n, t))
                      for t in range(8)]
            sups = [grid.max_abs(hyperbolic.shape_sum_grid(
                f.values, hyperbolic.field_resolution(f))) for f in fields]
            assert (row["min_sup"], row["max_sup"]) == (min(sups), max(sups))


    @pytest.mark.parametrize("d, n_max", [(2, 10), (3, 7)])
    def test_sup_is_the_full_grids(self, d, n_max):
        # the level-n stream plus one per corner is the sup over the
        # level-(n+1) grid of every shape; at n = 1 only corners remain
        for n in range(1, n_max + 1):
            for seed in range(5):
                rep = hyperbolic.sharpness_experiment([n], d, 1, seed)
                field = CoefficientField.random_signs(n, d, (seed, n, 0))
                want = grid.max_abs(hyperbolic.shape_sum_grid(
                    field.values, hyperbolic.minimal_resolution(field.values, d)))
                assert rep["per_n"][0]["max_sup"] == want, (n, seed)

    @pytest.mark.parametrize("d, n", [(2, 6), (3, 1), (3, 5)])
    def test_trial_streams_level_n_without_corners(self, d, n, monkeypatch):
        streamed = []

        def spy(shape_values, resolution, *args, **kwargs):
            streamed.append((set(shape_values), resolution))
            return stream(shape_values, resolution, *args, **kwargs)

        stream = hyperbolic.shape_sum_slabs
        monkeypatch.setattr(hyperbolic, "shape_sum_slabs", spy)
        hyperbolic.sharpness_experiment([n], d, 3, 52)
        corners = {tuple(n * (a == j) for a in range(d)) for j in range(d)}
        rest = set(hyperbolic.enumerate_shapes(n, d)) - corners
        assert streamed == [(rest, Resolution.uniform(n, d))] * 3


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
