"""Short Riesz products in d=3: parameters, decomposition, duality, Gamma."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hyperhaar import coincidence, grid, hyperbolic, riesz
from hyperhaar.hyperbolic import CoefficientField

import oracles


# ---------------------------------------------------------------------------
# parameters and blocks
# ---------------------------------------------------------------------------


class TestParams:
    def test_reference_values_n100(self):
        p = riesz.make_params(100, a=1.0, eps=0.5)
        assert p.q == 10
        assert p.rho_tilde == pytest.approx(10 ** (1 / 6) / 100)
        assert p.rho == pytest.approx(math.sqrt(10) / 100)

    def test_blocks_partition_level_range(self):
        p = riesz.make_params(6, q=3)
        flat = [b for interval in p.intervals for b in interval]
        assert sorted(flat) == list(range(7))
        shapes = [s for block in p.blocks for s in block]
        assert sorted(shapes) == sorted(hyperbolic.enumerate_shapes(6, 3))

    def test_leading_intervals_take_remainder(self):
        p = riesz.make_params(6, q=3)  # 7 values into 3 intervals
        assert [len(i) for i in p.intervals] == [3, 2, 2]

    def test_rho_tilde_below_rho_iff_small_a(self):
        small = riesz.make_params(50, a=0.5, eps=0.5)
        assert small.rho_tilde < small.rho
        big = riesz.make_params(50, a=5.0, eps=0.5)
        assert big.a > big.q ** Fraction(1, 3)
        assert big.rho_tilde > big.rho

    def test_singleton_blocks(self):
        n = 4
        p = riesz.make_params(n, q=n + 1)
        for t, block in enumerate(p.blocks):
            assert all(s[0] == t for s in block)
            assert len(block) == n - t + 1

    def test_explicit_rho_tilde(self):
        p = riesz.make_params(4, q=2, rho_tilde=0.25)
        assert p.rho_tilde_exact == Fraction(1, 4)

    def test_q_validation(self):
        with pytest.raises(ValueError):
            riesz.make_params(4, q=0)
        with pytest.raises(ValueError):
            riesz.make_params(4, q=6)

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, n):
        # rho~ = a q^b / n used to raise ZeroDivisionError at n = 0
        with pytest.raises(ValueError, match="n must be at least 1"):
            riesz.make_params(n, q=1)


class TestBlockSums:
    def test_mean_zero_and_l2(self):
        n = 5
        f = CoefficientField.random_signs(n, 3, 80)
        p = riesz.make_params(n, q=2)
        res = hyperbolic.field_resolution(f)
        for block in p.blocks:
            ft = oracles.signed_r_sum(f, res, block)
            assert oracles.mean(ft) == 0
            assert oracles.moment(ft, 2) == len(block)
            # the oracle's block sum is the sum of the block's r-functions
            assert np.array_equal(ft, sum(
                hyperbolic.r_function(hyperbolic.signs_of(f.values[s]), s,
                                      res.levels).astype(np.int64)
                for s in block))


# ---------------------------------------------------------------------------
# short product
# ---------------------------------------------------------------------------


class TestShortProduct:
    def test_mean_one_small(self):
        f = CoefficientField.random_signs(4, 3, 82)
        sp = riesz.ShortProduct(f, riesz.make_params(4, q=2))
        psi = oracles.short_product(sp)
        assert oracles.mean(psi) == 1
        assert oracles.short_product_mean(sp) == 1

    def test_pooled_mean_matches_grid_mean(self):
        for (n, q) in [(3, 2), (4, 3)]:
            f = CoefficientField.random_signs(n, 3, (83, n, q))
            sp = riesz.ShortProduct(f, riesz.make_params(n, q=q))
            assert oracles.short_product_mean(sp) == \
                oracles.mean(oracles.short_product(sp))

    def test_zero_rho_gives_constant_one(self):
        f = CoefficientField.random_signs(3, 3, 84)
        p = riesz.make_params(3, q=2, rho_tilde=0.0)
        psi = oracles.short_product(riesz.ShortProduct(f, p))
        assert np.all(psi.values == 1)

    def test_cellwise_lower_bound_in_contraction_regime(self):
        # With rho~ * max||F_t||_inf <= 1 every factor is nonnegative and
        # the product obeys the first-order bound 1 - q * rho~ * max||F||.
        f = CoefficientField.random_signs(4, 3, 85)
        p = riesz.make_params(4, q=2, rho_tilde=1 / 16)
        sp = riesz.ShortProduct(f, p)
        psi = oracles.short_product(sp)
        max_sup = max(grid.max_abs(ft) for ft in oracles.block_sums(sp))
        assert p.rho_tilde_exact * max_sup <= 1
        bound = 1 - p.q * p.rho_tilde_exact * max_sup
        assert Fraction(int(psi.values.min()), psi.den) >= bound

    def test_d2_rejected(self):
        f = CoefficientField.random_signs(3, 2, 87)
        with pytest.raises(ValueError):
            riesz.ShortProduct(f, riesz.make_params(3, q=2))

    @pytest.mark.parametrize("build", [riesz.ShortProduct])
    def test_float_field_rejected(self, build):
        exact = CoefficientField.random_signs(3, 3, 86)
        f = CoefficientField(
            3, 3, {s: v.astype(np.float64) for s, v in exact.values.items()},
            "float")
        with pytest.raises(ValueError, match="exact-mode only"):
            build(f, riesz.make_params(3, q=2))


def _corrupt_first_cell(monkeypatch, chosen):
    """Make the first cell of every ``coincidence.product_slabs`` stream
    whose tuples are ``chosen`` one larger."""
    real = coincidence.product_slabs

    def corrupted(tuples, *args):
        slabs = real(tuples, *args)
        if tuples and chosen(tuples[0]):
            first = next(slabs).astype(np.int64)
            first.flat[0] += 1
            slabs = itertools.chain([first], slabs)
        return slabs

    monkeypatch.setattr(coincidence, "product_slabs", corrupted)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


class TestDecomposition:
    def test_q1_complement_vanishes(self):
        n = 3
        f = CoefficientField.random_signs(n, 3, 90)
        p = riesz.make_params(n, q=1)
        sp = riesz.ShortProduct(f, p)
        sd, nsd = oracles.sd_decomposition(sp)
        assert not np.any(nsd.values != 0)
        expected = oracles.block_sums(sp)[0].astype(object) * p.rho_tilde_exact
        assert np.array_equal(_cells(sd), expected)

    def test_identity_and_mean_zero(self):
        f = CoefficientField.random_signs(4, 3, 91)
        p = riesz.make_params(4, q=2)
        rep = riesz.decomposition_report(riesz.ShortProduct(f, p))
        assert rep["identity_ok"]
        assert rep["sd_mean_zero"]

    @pytest.mark.parametrize("rho_tilde", [0.0, None])
    def test_corrupted_sd_cell_breaks_identity(self, rho_tilde, monkeypatch):
        # At rho~ = 0 every layer weight N^u D^(q-u) is zero, so a check of
        # the scaled split alone cannot see a wrong layer cell.
        _corrupt_first_cell(monkeypatch, lambda tup: len(tup) == 2
                            and coincidence.strongly_distinct(tup))
        f = CoefficientField.random_signs(3, 3, 91)
        sp = riesz.ShortProduct(f, riesz.make_params(3, q=2, rho_tilde=rho_tilde))
        assert not riesz.decomposition_report(sp)["identity_ok"]

    def test_decomposition_sums_to_product(self):
        f = CoefficientField.random_signs(4, 3, 92)
        sp = riesz.ShortProduct(f, riesz.make_params(4, q=3))
        psi = oracles.short_product(sp)
        sd, nsd = oracles.sd_decomposition(sp)
        assert np.array_equal(1 + _cells(sd) + _cells(nsd), _cells(psi))

    def test_tuple_budget(self):
        f = CoefficientField.random_signs(4, 3, 93)
        p = riesz.make_params(4, q=2)
        with pytest.raises(grid.BudgetExceededError):
            riesz.decomposition_report(riesz.ShortProduct(f, p, budget=1))


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


class TestDuality:
    def test_certificate_report(self):
        f = CoefficientField.random_signs(4, 3, 94)
        p = riesz.make_params(4, q=2)
        rep = riesz.duality_certificate(riesz.ShortProduct(f, p))
        assert rep["identity_sd1"]["ok"]
        assert rep["higher_layers"]["ok"]
        assert rep["sd_equals_sd1"]
        for cert in rep["certificates"].values():
            assert cert["sound"]

    def test_first_layer_value(self):
        n = 4
        f = CoefficientField.random_signs(n, 3, 95)
        p = riesz.make_params(n, q=2)
        rep = riesz.duality_certificate(riesz.ShortProduct(f, p))
        expected = p.rho_tilde_exact * Fraction(f.abs_sum(), 1 << n)
        assert rep["identity_sd1"]["lhs"] == expected

    def test_zero_rho_edge(self):
        f = CoefficientField.random_signs(3, 3, 96)
        p = riesz.make_params(3, q=2, rho_tilde=0.0)
        rep = riesz.duality_certificate(riesz.ShortProduct(f, p))
        assert rep["certificates"]["psi_sd"]["lower_bound"] == 0
        assert rep["certificates"]["psi_sd"]["sound"]

    def test_wide_h_sums_in_python_ints(self):
        # |H| * cells passes int64, so the chunk sums of H are Python ints
        f = oracles.constant_field(2, 3, value=2**55)
        params = riesz.make_params(2, q=2)
        sp = riesz.ShortProduct(f, params)
        h = hyperbolic.shape_sum_grid(f.values, hyperbolic.field_resolution(f))
        assert grid.int_dtype(grid.max_abs(h) * sp.resolution.cells) is object
        _, duality, _, _, _ = _direct_route(f, params, [])
        assert riesz.duality_certificate(sp) == duality


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------


class TestGamma:
    def test_identity_small(self):
        f = CoefficientField.random_signs(4, 3, 97)
        p = riesz.make_params(4, q=2)
        rep = riesz.gamma_identity_report(riesz.ShortProduct(f, p))
        assert rep["all_ok"], rep

    def test_single_shape_block_gamma_vanishes(self):
        n = 3
        f = CoefficientField.random_signs(n, 3, 98)
        sp = riesz.ShortProduct(f, riesz.make_params(n, q=n + 1))
        # the last block holds only the shape with first coordinate n, so
        # its Gamma stream has no pairs
        assert sp.tuples[2][-1] == []
        assert not np.any(oracles.gamma(sp, n + 1) != 0)
        last = riesz.gamma_identity_report(sp)["per_t"][-1]
        assert last["conditional_identity_ok"] and last["gamma_mean_zero"]

    def test_gamma_mean_zero(self):
        f = CoefficientField.random_signs(5, 3, 99)
        sp = riesz.ShortProduct(f, riesz.make_params(5, q=3))
        for t in (1, 2, 3):
            assert oracles.mean(oracles.gamma(sp, t)) == 0

    def test_corrupted_gamma_cell_fails_both_checks(self, monkeypatch):
        # the report folds F_t^2 - Gamma_t over x1 and Gamma_t over every
        # cell; one wrong cell of the Gamma stream must show in both the
        # conditional identity and the mean
        _corrupt_first_cell(monkeypatch, lambda tup: len(tup) == 2
                            and tup[0][0] == tup[1][0])
        f = CoefficientField.random_signs(4, 3, 97)
        rep = riesz.gamma_identity_report(
            riesz.ShortProduct(f, riesz.make_params(4, q=2)))
        assert not rep["all_ok"]
        for entry in rep["per_t"]:
            assert not entry["conditional_identity_ok"], entry
            assert not entry["gamma_mean_zero"], entry


# ---------------------------------------------------------------------------
# norm report
# ---------------------------------------------------------------------------


class TestNormReport:
    def test_mean_and_negativity(self):
        f = CoefficientField.random_signs(4, 3, 100)
        p = riesz.make_params(4, q=2)
        sp = riesz.ShortProduct(f, p)
        rep = riesz.norm_report(sp, v_list=[(), (1,), (1, 2)])
        assert rep.mean == 1
        max_sup = max(grid.max_abs(ft) for ft in oracles.block_sums(sp))
        if p.rho_tilde_exact * max_sup < 1:
            assert rep.negative_fraction == 0

    def test_empty_partial_product_is_one(self):
        f = CoefficientField.random_signs(3, 3, 101)
        p = riesz.make_params(3, q=2)
        rep = riesz.norm_report(riesz.ShortProduct(f, p), v_list=[()])
        empties = [norm for v, r, norm in rep.partial_norms if v == ()]
        assert empties and all(norm == 1 for norm in empties)

    def test_json_export(self):
        f = CoefficientField.random_signs(3, 3, 102)
        p = riesz.make_params(3, q=2)
        obj = riesz.norm_report(riesz.ShortProduct(f, p)).to_json()
        assert obj["mean"] == "1"
        assert "l2" in obj and "a_prime" in obj


# ---------------------------------------------------------------------------
# pooled route against a direct per-cell oracle
# ---------------------------------------------------------------------------


def _direct_route(field, params, v_list):
    """Every report of the short product recomputed cell by cell: T, the
    scaled sd/nsd layers and all reductions are object arrays of Python
    integers over the full grid, with nothing pooled or cached."""
    res = hyperbolic.field_resolution(field)
    frac = params.rho_tilde_exact
    n_, d_, q = frac.numerator, frac.denominator, params.q
    scale, cells = d_**q, res.cells
    fs = [oracles.signed_r_sum(field, res, block).astype(np.int64)
          for block in params.blocks]
    t = np.ones(res.grid_shape, dtype=object)
    for f in fs:
        t = t * (f.astype(object) * n_ + d_)
    r = {s: hyperbolic.shape_sum_grid(
            {s: hyperbolic.signs_of(field.values[s])}, res).astype(np.int64)
         for block in params.blocks for s in block}
    sd = {u: np.zeros(res.grid_shape, dtype=np.int64) for u in range(1, q + 1)}
    nsd = {u: np.zeros(res.grid_shape, dtype=np.int64) for u in range(1, q + 1)}
    tuples = 0
    for u in range(1, q + 1):
        for subset in itertools.combinations(range(q), u):
            for tup in itertools.product(*[params.blocks[i] for i in subset]):
                prod = np.ones(res.grid_shape, dtype=np.int64)
                for s in tup:
                    prod = prod * r[s]
                (sd if coincidence.strongly_distinct(tup) else nsd)[u] += prod
                tuples += 1

    def combine(by_u):
        out = np.zeros(res.grid_shape, dtype=object)
        for u, arr in by_u.items():
            out = out + arr.astype(object) * (n_**u * d_ ** (q - u))
        return out

    sd_scaled, nsd_scaled = combine(sd), combine(nsd)
    sd_sums = {u: int(np.sum(sd[u])) for u in sd}
    decomposition = {
        "n": params.n, "q": q, "tuples": tuples,
        "identity_ok": bool(np.array_equal(t, scale + sd_scaled + nsd_scaled)),
        "sd_mean_zero": all(v == 0 for v in sd_sums.values()),
        "sd_layer_sums": sd_sums,
    }

    h = hyperbolic.shape_sum_grid(field.values, res).astype(object)
    sup_h = int(np.max(np.abs(h)))
    rho = Fraction(n_, d_)

    def certificate(phi):
        inner, l1 = int(np.sum(h * phi)), int(np.sum(np.abs(phi)))
        bound = Fraction(inner, l1) if l1 else Fraction(0)
        return {"lower_bound": bound, "sup_norm": sup_h, "sound": bound <= sup_h}

    inner_sd1 = rho * Fraction(int(np.sum(h * sd[1])), cells)
    rhs1 = rho * Fraction(int(field.abs_sum()), 2**params.n)
    higher = {u: int(np.sum(h * sd[u])) for u in sd if u >= 2}
    duality = {
        "n": params.n, "q": q,
        "identity_sd1": {"lhs": inner_sd1, "rhs": rhs1, "ok": inner_sd1 == rhs1},
        "higher_layers": {"sums": higher,
                          "ok": all(v == 0 for v in higher.values())},
        "sd_equals_sd1":
            Fraction(int(np.sum(h * sd_scaled)), cells * scale) == inner_sd1,
        "certificates": {"psi": certificate(t), "psi_sd": certificate(sd_scaled)},
        "sup_norm_H": sup_h,
    }

    per_t = []
    for i, block in enumerate(params.blocks):
        g = np.zeros(res.grid_shape, dtype=np.int64)
        for a, b in itertools.permutations(block, 2):
            if a[0] == b[0]:
                g += r[a] * r[b]
        residual = np.sum(fs[i] * fs[i] - len(block) - g, axis=0)
        per_t.append({"t": i + 1, "block_size": len(block),
                      "conditional_identity_ok": bool(np.all(residual == 0)),
                      "gamma_mean_zero": int(np.sum(g)) == 0})
    gamma_rep = {"n": params.n, "q": q, "per_t": per_t,
                 "all_ok": all(p["conditional_identity_ok"] and p["gamma_mean_zero"]
                               for p in per_t)}

    l1 = Fraction(int(np.sum(np.abs(t))), cells * scale)
    l2 = math.sqrt(float(Fraction(int(np.sum(t * t)), cells * scale**2)))
    partial = []
    for v in v_list:
        v = tuple(sorted(v))
        prod = np.ones(res.grid_shape, dtype=object)
        for tt in v:
            prod = prod * (fs[tt - 1].astype(object) * n_ + d_)
        pscale = d_ ** len(v)
        for rr in (1, 2):
            moment = Fraction(int(np.sum(np.abs(prod) ** rr)), cells * pscale**rr)
            partial.append((v, rr, float(moment) ** (1.0 / rr)))
    b2 = 2 * float(riesz.B_EXPONENT)
    norms = riesz.RieszNormReport(
        mean=Fraction(int(np.sum(t)), cells * scale),
        negative_fraction=Fraction(int(np.count_nonzero(t < 0)), cells),
        l1=l1, l2=l2,
        sd_l1=Fraction(int(np.sum(np.abs(sd_scaled))), cells * scale),
        nsd_l1=Fraction(int(np.sum(np.abs(nsd_scaled))), cells * scale),
        partial_norms=tuple(partial),
        a_prime=math.log(l2) / q**b2,
        rho2_last_block=params.rho_tilde**2 * len(params.blocks[-1]),
        a2_q_power=params.a**2 * q ** (b2 - 1),
    )
    unit = Fraction(1, scale)
    grids = (t * unit, sd_scaled * unit, (t - scale - sd_scaled) * unit)
    return decomposition, duality, gamma_rep, norms, grids


# n=4, q=1 is one block of 15 shapes, so #A_t^2 = 225 > 127 and the Gamma
# report squares F_t in int16 there
ORACLE_CASES = [
    pytest.param(n, q, maker, seed, rho_tilde,
                 id=f"n{n}-q{q}-{maker}-s{seed}-rho{rho_tilde}")
    for n, q in [*itertools.product((2, 3, 4), (1, 2, 3)), (3, 4), (4, 4)]
    for maker, seed, rho_tilde in (("random_signs", 0, None),
                                   ("random_signs", 1, None),
                                   ("random_signs", 2, 0.4),
                                   ("random_signs", 5, 0.5),
                                   ("random_integers", 3, None),
                                   ("random_signs", 4, 0.0))
] + [
    # negative rho~: every factor sign D + N F_t flips its thresholds
    pytest.param(n, q, maker, seed, rho_tilde,
                 id=f"n{n}-q{q}-{maker}-s{seed}-rho{rho_tilde}")
    for n, q, maker, seed, rho_tilde in ((3, 3, "random_signs", 6, -0.3),
                                         (4, 2, "random_integers", 7, -1.5))
]


def _cells(g):
    """The exact cell values of a grid, as a Fraction object array."""
    return np.array([Fraction(int(v), g.den) for v in g.values.flat],
                    dtype=object).reshape(g.values.shape)


class TestShortProductOracle:
    @pytest.mark.parametrize("n, q, maker, seed, rho_tilde", ORACLE_CASES)
    def test_reports_and_grids_equal_direct_route(self, n, q, maker, seed,
                                                  rho_tilde):
        field = getattr(CoefficientField, maker)(n, 3, (n, q, seed))
        params = riesz.make_params(n, q=q, rho_tilde=rho_tilde)
        v_list = [(), (1,), tuple(range(1, q + 1))]
        decomposition, duality, gamma_rep, norms, grids = _direct_route(
            field, params, v_list)

        # slabs of one row, two rows, the default and the whole axis; the
        # nsd_1 stream is always empty, and so is a one-shape block's Gamma
        whole = 1 << hyperbolic.field_resolution(field).levels[0]
        for rows in (1, 2, None, whole):
            sp = riesz.ShortProduct(field, params)
            sp.rows = rows or sp.rows
            assert riesz.decomposition_report(sp) == decomposition, rows
            assert riesz.duality_certificate(sp) == duality, rows
            assert riesz.gamma_identity_report(sp) == gamma_rep, rows
            assert riesz.norm_report(sp, v_list=v_list) == norms, rows

        psi, sd_grid, nsd_grid = grids
        assert np.array_equal(_cells(oracles.short_product(sp)), psi)
        sd, nsd = oracles.sd_decomposition(sp)
        assert np.array_equal(_cells(sd), sd_grid)
        assert np.array_equal(_cells(nsd), nsd_grid)
        assert oracles.short_product_mean(sp) == norms.mean

    @pytest.mark.parametrize("n, q, seed", [(3, 2, 0), (4, 3, 1), (4, 4, 2)])
    def test_pieces_inside_one_plane_row_equal_direct_route(self, n, q, seed,
                                                            monkeypatch):
        # pieces of 2^6 cells are parts of one row of the (x2, x3) plane
        # (2^8 cells at n=3), as pieces of 2^16 cells are from n=8 up
        monkeypatch.setattr(grid, "_POWER_CHUNK", 1 << 6)
        field = CoefficientField.random_signs(n, 3, (n, q, seed))
        params = riesz.make_params(n, q=q)
        v_list = [(1,), tuple(range(1, q + 1))]
        decomposition, duality, gamma_rep, norms, _ = _direct_route(
            field, params, v_list)
        for rows in (1, None):
            sp = riesz.ShortProduct(field, params)
            sp.rows = rows or sp.rows
            assert riesz.decomposition_report(sp) == decomposition, rows
            assert riesz.duality_certificate(sp) == duality, rows
            assert riesz.gamma_identity_report(sp) == gamma_rep, rows
            assert riesz.norm_report(sp, v_list=v_list) == norms, rows

    def test_constructor_does_no_grid_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid built at construction")

        monkeypatch.setattr(hyperbolic, "shape_sum_slabs", refuse)
        monkeypatch.setattr(hyperbolic, "shape_sum_grid", refuse)
        f = CoefficientField.random_signs(3, 3, 7)
        riesz.ShortProduct(f, riesz.make_params(3, q=2))

    def test_each_stream_is_opened_once(self, monkeypatch):
        calls = []
        real = hyperbolic.shape_sum_slabs

        def counting(shape_values, *args):
            calls.append(sorted(shape_values))
            return real(shape_values, *args)

        monkeypatch.setattr(hyperbolic, "shape_sum_slabs", counting)
        f = CoefficientField.random_signs(4, 3, 8)
        p = riesz.make_params(4, q=3)
        sp = riesz.ShortProduct(f, p)
        riesz.decomposition_report(sp)
        riesz.duality_certificate(sp)
        riesz.gamma_identity_report(sp)
        riesz.norm_report(sp, v_list=[(1,), (1, 2, 3)])
        opened = len(calls)
        # the fold is kept: the reports that read only it open no stream
        riesz.decomposition_report(sp)
        riesz.duality_certificate(sp)
        riesz.gamma_identity_report(sp)
        riesz.norm_report(sp, v_list=[(1, 2, 3)])
        assert len(calls) == opened

        def patterns(tuples):
            # per axis, whether the tuple's top level occurs an odd number
            # of times: one stream per pattern, and one for no tuples
            return max(1, len({
                tuple(sum(s[axis] == max(x[axis] for x in tup) for s in tup) % 2
                      for axis in range(3))
                for tup in tuples}))

        sd, nsd, pairs = sp.tuples
        assert nsd[0] == []  # its stream is the empty one
        # one F_t per block, H, one stream per sign pattern of each layer
        # and each Gamma_t, and F_1 again for V = (1,); the r-functions
        # are pair expansions, which open none
        assert opened == (p.q + 1 + sum(map(patterns, sd + nsd + pairs)) + 1)


class TestLayerSigns:
    @staticmethod
    def _signs(rho_tilde, layers, bounds=None):
        """``_layer_signs`` of the hand-built int layers L_1..L_q at rho~
        (with their peaks as bounds, unless given), and their signs in
        Python ints."""
        frac = Fraction(rho_tilde)
        num, den, q = frac.numerator, frac.denominator, len(layers)
        arrays = [np.array(layer, dtype=np.int32) for layer in layers]
        exact = [
            (v > 0) - (v < 0) for v in (
                sum(int(a[i]) * num**u * den ** (q - u)
                    for u, a in enumerate(arrays, 1))
                for i in range(arrays[0].size))]
        bounds = bounds or [grid.max_abs(a) for a in arrays]
        return riesz._layer_signs(arrays, num, den, bounds).tolist(), exact

    @staticmethod
    def _spy(monkeypatch):
        """Record the cell count of every exact recheck."""
        seen = []
        real = riesz._exact_signs

        def spy(layers, weights):
            seen.append(layers[0].size)
            return real(layers, weights)

        monkeypatch.setattr(riesz, "_exact_signs", spy)
        return seen

    def test_exact_cancellation_is_rechecked(self, monkeypatch):
        # at rho~ = 1/2, L_1 = 1 and L_2 = -2 cancel: 1/2 - 2/4 = 0; the
        # last cell has every layer 0 and takes sign 0 without a recheck
        seen = self._spy(monkeypatch)
        signs, exact = self._signs(0.5, [[1, 1, -1, 0], [-2, -1, 2, 0]])
        assert signs == exact == [0, 1, 0, 0]
        assert seen == [2]

    @pytest.mark.parametrize("seed", range(4))
    def test_near_cancellation_matches_python_ints(self, monkeypatch, seed):
        # rho~ = 1/2 + j 2^-52 and L_1 = -(L_2/2 + L_3/4): the terms cancel
        # at rho~ = 1/2, so most cells sum to about j 2^-52 times their
        # terms, below what float64 resolves; a third of them are offset
        # by +-1 and decided by the filter
        rng = np.random.default_rng(seed)
        rho = 0.5 + int(rng.integers(1, 5)) * 2.0**-52
        l2 = 2 * rng.integers(-500, 500, size=3000)
        l3 = 4 * rng.integers(-500, 500, size=l2.size)
        l1 = -(l2 // 2 + l3 // 4) + rng.choice([-1, 0, 0, 0, 0, 1], size=l2.size)
        seen = self._spy(monkeypatch)
        signs, exact = self._signs(rho, [l1, l2, l3])
        assert signs == exact
        assert set(exact) == {-1, 1}
        assert len(seen) == 1 and l2.size // 2 < seen[0] < l2.size

    @pytest.mark.parametrize("rho_tilde", [1e-120, -1e-120, 1e-3])
    def test_small_rho_takes_the_leading_layer(self, monkeypatch, rho_tilde):
        # |rho~| times the summed bounds is below 1, so the first nonzero
        # layer decides, with the sign of rho~^k, and nothing is rechecked
        seen = self._spy(monkeypatch)
        signs, exact = self._signs(rho_tilde, [[1, 0, 0, -1, 0],
                                               [-9, 3, 0, 0, 0],
                                               [2, 5, 0, 7, -8]])
        assert signs == exact
        assert {-1, 1} <= set(signs) and signs[2] == 0
        assert seen == []

    def test_subnormal_powers_recheck_every_live_cell(self, monkeypatch):
        # rho~^3 underflows and a huge bound keeps the leading-layer rule
        # off, so the float filter decides no cell
        seen = self._spy(monkeypatch)
        signs, exact = self._signs(1e-120, [[1, 0, 0, -1], [-1, 3, 0, 0],
                                            [2, 5, 0, 7]], [10**130, 3, 7])
        assert signs == exact == [1, 1, 0, -1]
        assert seen == [3]


class TestReportPeaks:
    def test_reports_peak_bounded(self):
        # the four reports of the CLI read one fold of axis-0 slab streams,
        # so no grid of the full resolution (2^21 cells at n=6) is held:
        # they peak under 16 MiB together
        sp = riesz.ShortProduct(CoefficientField.random_signs(6, 3, 0),
                                riesz.make_params(6, q=3))
        tracemalloc.start()
        try:
            riesz.decomposition_report(sp)
            riesz.duality_certificate(sp)
            riesz.gamma_identity_report(sp)
            riesz.norm_report(sp, v_list=[(1,), (1, 2, 3)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20, peak / 2**20
