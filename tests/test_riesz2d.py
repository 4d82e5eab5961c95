"""The nonnegative two-dimensional product and its inner-product identity."""

from fractions import Fraction

import numpy as np
import pytest

from hyperhaar import hyperbolic, riesz
from hyperhaar.grid import Resolution
from hyperhaar.hyperbolic import CoefficientField

import oracles


class TestTemlyakovProduct:
    def test_all_ones_n1_inner_product(self):
        f = oracles.constant_field(1, 2)
        rec = riesz.verify_temlyakov(f, 1)
        assert rec["ok"], rec
        # 2 shapes x 2 rectangles, each |alpha|=1, scaled by 2**-(n+1)
        assert rec["inner_product"] == 1

    def test_wide_inner_product_takes_python_ints(self):
        # |H| * |Psi numerators| * cells = 2^61 * 9 * 16 passes int64
        f = oracles.constant_field(1, 2, value=2**60)
        rec = riesz.verify_temlyakov(f, 1)
        assert rec["ok"], rec
        assert rec["inner_product"] == 2**60

    def test_nonnegative_and_mean_one_random(self):
        for seed in range(10):
            f = CoefficientField.random_signs(4, 2, (70, seed))
            rec = riesz.verify_temlyakov(f, 4)
            assert rec["ok"], rec
            assert rec["mean"] == 1

    def test_integer_fields_with_zeros(self):
        # sgn(0) = +1 keeps every factor well defined
        f = CoefficientField.random_integers(3, 2, 71)
        rec = riesz.verify_temlyakov(f, 3)
        assert rec["ok"], rec

    def test_zero_field_inner_product_zero(self):
        n = 2
        vals = {s: np.zeros(tuple(1 << r for r in s), dtype=np.int64)
                for s in hyperbolic.enumerate_shapes(n, 2)}
        f = CoefficientField(n, 2, vals)
        rec = riesz.verify_temlyakov(f, n)
        assert rec["ok"], rec
        assert rec["inner_product"] == 0

    def test_coarse_rectangles_cancel(self):
        base = CoefficientField.random_signs(3, 2, 72)
        ext = hyperbolic.add_coarse_random(base, 73)
        rec_base = riesz.verify_temlyakov(base, 3)
        rec_ext = riesz.verify_temlyakov(ext, 3)
        assert rec_ext["ok"], rec_ext
        assert rec_ext["inner_product"] == rec_base["inner_product"]

    def test_product_grid_properties(self):
        f = CoefficientField.random_signs(2, 2, 74)
        psi = riesz.temlyakov_product(f, 2)
        assert oracles.mean(oracles.RationalGrid(psi, 2 ** 3)) == 1
        assert min(psi.reshape(-1)) >= 0

    def test_product_is_the_grid_of_its_factors(self):
        # Psi * 2^(n+1) is prod_s (2 + psi_s) cellwise, each psi_s by the
        # full-spectrum synthesis of its shape's signs (zeros count as +1)
        n = 3
        f = CoefficientField.random_integers(n, 2, 70)
        res = Resolution((n + 1, n + 1))
        want = np.ones(res.grid_shape, dtype=np.int64)
        for s in range(n + 1):
            signs = np.where(f.values[(s, n - s)] >= 0, 1, -1)
            want *= 2 + oracles.full_spectrum_shape_sum({(s, n - s): signs}, res)
        assert np.array_equal(riesz.temlyakov_product(f, n), want)

    def test_float_mode_within_tolerance(self):
        f = CoefficientField.random_normal(4, 2, 75)
        rec = riesz.verify_temlyakov(f, 4)
        assert rec["mode"] == "float"
        assert rec["ok"], rec

    def test_failure_record_structure(self):
        # A cooked-up record: failures name the offending check.
        f = CoefficientField.random_signs(2, 2, 76)
        rec = riesz.verify_temlyakov(f, 2)
        assert rec["failures"] == []
        assert {"nonnegative", "mean_ok", "inner_ok"} <= set(rec)

    def test_d3_field_rejected(self):
        f = CoefficientField.random_signs(2, 3, 77)
        with pytest.raises(ValueError):
            riesz.verify_temlyakov(f, 2)

    def test_n_mismatch_rejected(self):
        f = CoefficientField.random_signs(2, 2, 78)
        with pytest.raises(ValueError):
            riesz.verify_temlyakov(f, 3)

    def test_scaled_values_are_small_integers(self):
        n = 3
        f = CoefficientField.random_signs(n, 2, 79)
        scaled = riesz.temlyakov_product(f, n)
        assert scaled.dtype == np.int64
        assert int(scaled.max()) <= 3 ** (n + 1)
        h = hyperbolic.shape_sum_grid(f.values, hyperbolic.field_resolution(f))
        assert h.shape == scaled.shape
        inner = Fraction(int(np.sum(h.astype(np.int64) * scaled)),
                         h.size * 2 ** (n + 1))
        assert inner == Fraction(f.abs_sum(), 1 << (n + 1))
