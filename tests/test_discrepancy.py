"""Point sets, the counting-vs-volume deviation, and its norms."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hyperhaar import discrepancy as dis
from hyperhaar import grid
from hyperhaar.grid import BudgetExceededError

import oracles


ORIGIN = dis.PointSet(2, ((Fraction(0), Fraction(0)),))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


class TestGenerators:
    def test_vdc_two_points(self):
        a = dis.van_der_corput(2)
        assert a.points == ((Fraction(0), Fraction(0)),
                            (Fraction(1, 2), Fraction(1, 2)))

    def test_vdc_second_coordinate_is_bit_reversal(self):
        a = dis.van_der_corput(8)
        got = [p[1] for p in a.points]
        assert got == [Fraction(j, 8) for j in [0, 4, 2, 6, 1, 5, 3, 7]]

    def test_halton_single_point(self):
        a = dis.halton(1)
        assert a.points == ((Fraction(0), Fraction(0), Fraction(0)),)

    def test_halton_noncoprime_bases_rejected(self):
        with pytest.raises(ValueError):
            dis.halton(4, (2, 4, 5))

    def test_random_points_reproducible(self):
        a = dis.random_points(10, 2, 5)
        b = dis.random_points(10, 2, 5)
        assert a.points == b.points
        assert a.n == 10 and a.d == 2

    def test_point_validation(self):
        with pytest.raises(ValueError):
            dis.PointSet(2, ((Fraction(1), Fraction(0)),))  # 1 not in [0,1)
        with pytest.raises(ValueError):
            dis.PointSet(4, ((0, 0, 0, 0),))
        with pytest.raises(ValueError):
            dis.PointSet(2, ())
        for bad in (-0.25, 1.0, 1e300, float("inf"), float("nan"),
                    Fraction(-1, 3 ** 41)):
            with pytest.raises(ValueError):
                dis.PointSet(2, ((0.5, 0.5), (0.25, bad)))
        with pytest.raises(ValueError):
            dis.PointSet(2, ((0.5, 0.5), (0.25,)))

    def test_generators_match_per_point_construction(self):
        # the per-point Fraction and float constructions the integer
        # generators replaced
        def radical_inverse(i, base):
            num, den = 0, 1
            while i:
                i, digit = divmod(i, base)
                num, den = num * base + digit, den * base
            return Fraction(num, den)

        for n in (1, 2, 3, 17, 64, 100):
            assert dis.van_der_corput(n).points == tuple(
                (Fraction(i, n), radical_inverse(i, 2)) for i in range(n))
            for bases in ((2, 3), (2, 3, 5), (3, 7)):
                assert dis.halton(n, bases).points == tuple(
                    tuple(radical_inverse(i, b) for b in bases)
                    for i in range(n))
            for d in (2, 3):
                rows = np.random.default_rng(n).random((n, d))
                got = dis.random_points(n, d, n).points
                assert got == tuple(tuple(float(c) for c in r) for r in rows)
                assert all(type(c) is float for p in got for c in p)

    def test_user_points_kept_as_given(self):
        pts = ((0.5, Fraction(1, 3)), (0, 0.125))
        a = dis.PointSet(2, pts)
        assert a.points is pts
        assert a.dens == (2, 24)
        assert a.nums.tolist() == [[1, 8], [0, 3]]


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------


class TestEvaluation:
    def test_full_box(self):
        assert oracles.discrepancy_eval(ORIGIN, (Fraction(1), Fraction(1))) == 0

    def test_half_box(self):
        got = oracles.discrepancy_eval(ORIGIN, (Fraction(1, 2), Fraction(1, 2)))
        assert got == Fraction(3, 4)

    def test_degenerate_box(self):
        assert oracles.discrepancy_eval(ORIGIN, (Fraction(0), Fraction(1))) == 0

    def test_exact_iff_rational_corner(self):
        exact = oracles.discrepancy_eval(ORIGIN, (Fraction(1, 3), Fraction(1, 2)))
        assert isinstance(exact, Fraction)
        assert isinstance(oracles.discrepancy_eval(ORIGIN, (0.3, 0.5)), float)


# ---------------------------------------------------------------------------
# exact sup enumeration
# ---------------------------------------------------------------------------


class TestSupEnumeration:
    def test_single_point_at_origin(self):
        rec = dis.discrepancy_sup(ORIGIN)
        assert rec["sup"] == 1
        assert rec["inf"] == 0
        assert rec["sup_abs"] == 1

    def test_vdc_two_points(self):
        rec = dis.discrepancy_sup(dis.van_der_corput(2))
        assert rec["sup_abs"] == Fraction(3, 2)
        assert rec["corner_sup"] == (Fraction(1, 2), Fraction(1, 2))

    def test_scan_brackets_exact(self):
        for n in (2, 4, 8, 16):
            a = dis.van_der_corput(n)
            exact = dis.discrepancy_sup(a)
            scan = dis.discrepancy_sup(a, approximate=True, cap=1)
            assert scan["mode"] == "scan-lower-bound"
            assert scan["sup"] <= exact["sup"] <= scan["sup"] + scan["gap_bound"]
            assert scan["inf"] - scan["gap_bound"] <= exact["inf"] <= scan["inf"]

    def test_sup_dominates_sampled_values(self):
        a = dis.random_points(16, 2, 9)
        rec = dis.discrepancy_sup(a)
        rng = np.random.default_rng(10)
        for _ in range(200):
            x = tuple(Fraction(v).limit_denominator(512)
                      for v in rng.uniform(0, 1, 2))
            assert oracles.discrepancy_eval(a, x) <= rec["sup"]

    def test_exact_cap_enforced(self):
        pts = dis.random_points(dis.EXACT_SUP_CAP[2] + 1, 2, 11)
        with pytest.raises(BudgetExceededError):
            dis.discrepancy_sup(pts)
        rec = dis.discrepancy_sup(pts, approximate=True, grid_level=6)
        assert rec["mode"] == "scan-lower-bound"

    def test_three_dimensional_sup(self):
        a = dis.halton(5)
        rec = dis.discrepancy_sup(a)
        assert rec["sup"] >= 1  # the box under the largest point

    def test_exact_sup_streams(self):
        # 130^3 corners: the count and volume grids held whole would take
        # over 60 MiB
        tracemalloc.start()
        try:
            rec = dis.discrepancy_sup(dis.halton(128), cap=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20
        assert rec["mode"] == "exact"
        assert (rec["sup"], rec["inf"]) == (Fraction(14632, 2025),
                                            Fraction(-4487, 1125))
        assert rec["corner_sup"] == (Fraction(85, 128), Fraction(64, 81),
                                     Fraction(61, 125))
        assert rec["corner_inf"] == (Fraction(51, 64), Fraction(47, 81),
                                     Fraction(57, 125))


# ---------------------------------------------------------------------------
# the count kernel against the bisect-over-Fraction loop, and the scan
# against the full grid
# ---------------------------------------------------------------------------


def candidates(a):
    """Per axis the sorted distinct coordinates together with 0 and 1."""
    return [sorted({Fraction(p[j]) for p in a.points} | {Fraction(0),
                                                          Fraction(1)})
            for j in range(a.d)]


# Denominators past int64 on both axes: 2^63 < 3^40 < 2^64 (just past it),
# and 5e-324 = 2^-1074.
OVERFLOW = dis.PointSet(2, ((Fraction(1, 3 ** 40), 5e-324), (Fraction(5, 9), 0.75),
                            (Fraction(2, 3), Fraction(1, 3)), (0, 0.5),
                            (Fraction(1, 3), 5e-324)))

SETS = [dis.van_der_corput(37), dis.van_der_corput(64),
        dis.halton(50, (2, 3)), dis.halton(30), dis.halton(1),
        dis.random_points(40, 2, 3), dis.random_points(25, 3, 4), OVERFLOW]


# The sup of vdC(5) is attained at two corners whose axis-0 coordinates,
# 2/5 and 4/5, land in different slabs at every slab size below.
BRUTE_SETS = [dis.van_der_corput(8), dis.halton(6), dis.halton(7, (2, 3)),
              dis.random_points(6, 2, 1), dis.random_points(5, 3, 2),
              OVERFLOW, dis.van_der_corput(5)]
SLAB_CELLS = [1, 3, 7, 16]


def brute_force(a):
    """Every candidate corner in C order, with the closed-count value (the
    limit of D from above) and D itself (the strict count) at each."""
    corners = list(itertools.product(*candidates(a)))
    sup_vals = [sum(all(pj <= xj for pj, xj in zip(p, x))
                    for p in a.points) - a.n * math.prod(x)
                for x in corners]
    inf_vals = [oracles.discrepancy_eval(a, x) for x in corners]
    return corners, sup_vals, inf_vals


def assert_sup_matches_brute_force(a):
    # the extremes, each at its first corner in C order
    corners, sup_vals, inf_vals = brute_force(a)
    rec = dis.discrepancy_sup(a)
    assert rec["sup"] == max(sup_vals)
    assert rec["inf"] == min(inf_vals)
    assert rec["corner_sup"] == corners[sup_vals.index(max(sup_vals))]
    assert rec["corner_inf"] == corners[inf_vals.index(min(inf_vals))]
    assert all(type(v) is Fraction for v in
               (rec["sup"], rec["inf"], *rec["corner_sup"]))


class TestCountKernel:
    def test_overflow_set_takes_python_int_route(self):
        assert OVERFLOW.nums.dtype == object
        assert OVERFLOW.dens == (3 ** 40, 3 * 2 ** 1074)
        assert all(a.nums.dtype == grid.int_dtype(max(a.dens)) for a in SETS[:-1])

    @pytest.mark.parametrize("a", SETS, ids=lambda a: f"{a.provenance}-{a.n}")
    @pytest.mark.parametrize("strict", [False, True])
    def test_scan_and_midpoint_corners(self, a, strict):
        g = 16
        for nums, den in ((np.arange(1, g + 1), g),
                          (2 * np.arange(g) + 1, 2 * g)):
            corners = [[Fraction(int(k), den) for k in nums]] * a.d
            want = oracles.corner_counts(a, corners, strict)
            # slab boundaries, including row counts that do not divide g,
            # and the whole grid as one slab
            for rows in (1, 3, 5, g):
                slabs = list(dis._count_slabs(a, [nums] * a.d, [den] * a.d,
                                              strict, rows))
                assert [len(s) for s in slabs[:-1]] == [rows] * (len(slabs) - 1)
                assert np.array_equal(np.concatenate(slabs), want)

    @pytest.mark.parametrize("a", SETS, ids=lambda a: f"{a.provenance}-{a.n}")
    @pytest.mark.parametrize("strict", [False, True])
    def test_exact_candidate_corners(self, a, strict):
        cands = candidates(a)
        nums = [np.array([int(c * q) for c in cand], dtype=object)
                for cand, q in zip(cands, a.dens)]
        want = oracles.corner_counts(a, cands, strict)
        for rows in (1, 3, len(cands[0])):
            slabs = dis._count_slabs(a, nums, a.dens, strict, rows)
            assert np.array_equal(np.concatenate(list(slabs)), want)

    @pytest.mark.parametrize("a", BRUTE_SETS,
                             ids=lambda a: f"{a.provenance}-{a.n}")
    def test_exact_sup_against_brute_force(self, a):
        assert_sup_matches_brute_force(a)


class TestSlabFold:
    @pytest.mark.parametrize("a", BRUTE_SETS,
                             ids=lambda a: f"{a.provenance}-{a.n}")
    @pytest.mark.parametrize("cells", SLAB_CELLS)
    def test_exact_sup_across_slabs(self, a, cells, monkeypatch):
        monkeypatch.setattr(dis, "_SLAB_CELLS", cells)
        assert_sup_matches_brute_force(a)

    @pytest.mark.parametrize("cells", SLAB_CELLS)
    def test_tie_spans_slabs(self, cells):
        # a later slab that ties must not replace the first extreme
        a = BRUTE_SETS[-1]
        cands = candidates(a)
        rows = max(1, cells // len(cands[1]))
        corners, sup_vals, _ = brute_force(a)
        slabs = {cands[0].index(x[0]) // rows
                 for x, v in zip(corners, sup_vals) if v == max(sup_vals)}
        assert len(slabs) == 2


# d=3 streams in several slabs from level 6 on, d=2 only past level 8
SCAN_CASES = ([(a, level) for a in SETS for level in (3, 4, 5, 6, 7)]
              + [(a, 10) for a in SETS if a.d == 2])


class TestScanStream:
    @pytest.mark.parametrize(("a", "level"), SCAN_CASES,
                             ids=[f"{a.provenance}-{a.n}-{level}"
                                  for a, level in SCAN_CASES])
    def test_matches_full_grid(self, a, level):
        got = dis.discrepancy_sup(a, approximate=True, grid_level=level,
                                  cap=0)
        want = oracles.scan_bounds_full_grid(a, level)
        assert got["mode"] == "scan-lower-bound"
        assert type(got["sup"]) is float and type(got["inf"]) is float
        for key in ("sup", "inf", "sup_abs"):
            assert got[key] == want[key]

    def test_traced_peak_bounded(self):
        # d=3 at level 8 is 2^24 corners: 128 MiB per float64 grid, which
        # the scan must never hold
        a = dis.halton(512)
        tracemalloc.start()
        try:
            rec = dis.discrepancy_sup(a, approximate=True, grid_level=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec["mode"] == "scan-lower-bound"
        assert peak < 16 << 20


# ---------------------------------------------------------------------------
# L^p estimation and scaling
# ---------------------------------------------------------------------------


class TestLpAndScaling:
    def test_l2_against_closed_form(self):
        # For the single point at the origin the deviation is 1 - x1 x2,
        # whose squared integral over the unit square is 11/18.
        rec = dis.discrepancy_lp(ORIGIN, 2, grid_level=9)
        assert rec["value"] == pytest.approx(math.sqrt(11 / 18),
                                             abs=rec["modulus_bound"])

    def test_l2_below_sup(self):
        for n in (4, 8, 16):
            a = dis.van_der_corput(n)
            sup = dis.discrepancy_sup(a)["sup_abs"]
            l2 = dis.discrepancy_lp(a, 2, grid_level=8)
            assert l2["value"] <= float(sup) + l2["modulus_bound"]

    def test_scaling_report_structure(self):
        rep = dis.scaling_report("vdc", [4, 8, 16, 32])
        assert [r["n"] for r in rep["rows"]] == [4, 8, 16, 32]
        assert all(r["sup_mode"] == "exact" for r in rep["rows"])
        assert rep["sup_log_fit"]["r2"] > 0.9

    def test_vdc_sup_values_frozen(self):
        rep = dis.scaling_report("vdc", [4, 8, 16, 32, 64])
        assert [r["sup_abs"] for r in rep["rows"]] == \
            [2.0, 2.5, 2.75, 3.125, 3.4375]

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            dis.scaling_report("nope", [4])

