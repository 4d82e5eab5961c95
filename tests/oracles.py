"""Reference routes that the tests compare the library against.

No subcommand runs any of these, so they live with the tests.  They build
test inputs (Haar functions axis by axis, spectra synthesized back to
grids) or recompute what the library computes by a simpler, independent
route: Parseval sums entry by entry, block averages, corner counts over
the point list, the C2 second moment expanded over pairs of pairs, the
wedge grade of a graph, and the short product's grids expanded from its
pools.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from hyperhaar import coincidence, grid, hyperbolic, riesz
from hyperhaar.coincidence import AdmissibleGraph
from hyperhaar.discrepancy import PointSet
from hyperhaar.grid import (
    DyadicInterval,
    DyadicRectangle,
    GridFunction,
    HaarSpectrum,
    InsufficientResolutionError,
    Resolution,
)
from hyperhaar.hyperbolic import CoefficientField


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def grids_equal(f: GridFunction, g: GridFunction) -> bool:
    """Cellwise equality on the common refinement; lowest terms make the
    numerators and ``den`` unique."""
    a, b = grid.common_refinement(f, g)
    return a.den == b.den and bool(np.all(a.values == b.values))


def haar_1d(interval: DyadicInterval, resolution: Resolution) -> GridFunction:
    """L-infinity normalized Haar function: -1 on the left half of the
    interval, +1 on the right half, 0 outside."""
    if resolution.d != 1:
        raise ValueError("haar_1d needs a 1-dimensional resolution")
    vec = _haar_axis_values(interval, resolution.levels[0])
    return GridFunction(resolution, vec)


def _haar_axis_values(interval: DyadicInterval, m: int) -> np.ndarray:
    if m < interval.level + 1:
        raise InsufficientResolutionError(
            f"insufficient resolution: level {m} cannot represent the halves "
            f"of an interval at level {interval.level}"
        )
    vec = np.zeros(1 << m, dtype=np.int8)
    width = 1 << (m - interval.level)
    start = interval.position * width
    half = width >> 1
    vec[start:start + half] = -1
    vec[start + half:start + width] = 1
    return vec


def haar_tensor(rect: DyadicRectangle, resolution: Resolution) -> GridFunction:
    """Tensor Haar function of a rectangle: the product of per-axis Haar values."""
    if resolution.d != rect.d:
        raise ValueError("dimension mismatch")
    arr = np.ones((1,) * rect.d, dtype=np.int8)
    for axis, side in enumerate(rect.sides):
        vec = _haar_axis_values(side, resolution.levels[axis])
        shape = [1] * rect.d
        shape[axis] = vec.size
        arr = arr * vec.reshape(shape)
    return GridFunction(resolution, arr.astype(np.int8))


def haar_synthesize(spectrum: HaarSpectrum) -> GridFunction:
    """The grid function of a spectrum: ``grid.synthesize`` of the
    numerators, at a width no butterfly intermediate can pass."""
    arr = spectrum.coefficients
    if arr.dtype.kind not in "iuO":
        raise ValueError("a spectrum needs integer or object coefficients")
    bound = grid.max_abs(arr) * grid._cover(spectrum.resolution)
    arr = arr.astype(grid.int_dtype(bound), copy=False)
    return GridFunction(spectrum.resolution, grid.synthesize(arr), spectrum.den)


def _support_weights(m: int) -> np.ndarray:
    """Parseval weight per spectrum index along one axis of level m, times
    2**m: 2**m for the constant factor, 2**(m-k) for an interval of level k."""
    w = np.empty(1 << m, dtype=np.int64)
    w[0] = 1 << m
    for k in range(m):
        w[1 << k: 1 << (k + 1)] = 1 << (m - k)
    return w


def parseval_l2_moment(spectrum: HaarSpectrum):
    """||f||_2**2 from the spectrum: sum of c**2 times support weight."""
    res = spectrum.resolution
    # sum of weights is cells * _cover, each weighting a c**2 <= peak**2;
    # max(peak, 1) keeps the weights themselves (up to cells) in range
    arr = spectrum.coefficients
    bound = max(grid.max_abs(arr), 1) ** 2 * res.cells * grid._cover(res)
    arr = arr.astype(grid.int_dtype(bound), copy=False)
    w = math.prod(np.ix_(*(_support_weights(m).astype(arr.dtype)
                           for m in res.levels)))
    return Fraction(int(np.sum(arr * arr * w)), res.cells * spectrum.den ** 2)


def conditional_expectation(f: GridFunction, field: Resolution) -> GridFunction:
    """Average f over the atoms (cells) of a coarser resolution."""
    if field.d != f.d:
        raise ValueError("dimension mismatch")
    if not f.resolution.refines(field):
        raise ValueError("field finer than f: cannot condition on a finer grid")
    factors = [1 << (m - mf) for m, mf in zip(f.resolution.levels, field.levels)]
    inter_shape: list[int] = []
    for mf, fac in zip(field.levels, factors):
        inter_shape.extend((1 << mf, fac))
    sum_axes = tuple(range(1, 2 * f.d, 2))
    count = math.prod(factors)
    sums = f.values.reshape(inter_shape).sum(
        axis=sum_axes, dtype=grid.int_dtype(grid.max_abs(f.values) * count))
    return GridFunction(field, sums, f.den * count)


# ---------------------------------------------------------------------------
# hyperbolic sums
# ---------------------------------------------------------------------------


def full_spectrum_shape_sum(shape_values, resolution: Resolution,
                            signed: bool = True) -> np.ndarray:
    """``hyperbolic.shape_sum_grid`` by the full-spectrum route: every
    shape's coefficients copied into their block of one zero spectrum, then
    ``grid.synthesize`` over every axis, at the same dtype."""
    hyperbolic._check_resolution(resolution, shape_values.keys())
    if any(np.asarray(v).dtype.kind == "f" for v in shape_values.values()):
        dtype = np.float64
    else:
        dtype = grid.int_dtype(sum(grid.max_abs(v) for v in shape_values.values()))
    spectrum = np.zeros(resolution.grid_shape, dtype=dtype)
    for shape, values in shape_values.items():
        block = tuple(slice(1 << r, 2 << r) for r in shape)
        spectrum[block] = np.asarray(values).astype(dtype, copy=False)
    return grid.synthesize(spectrum, signed)


def square_sum(field: CoefficientField):
    """Sum of alpha(R)**2 over the exact-volume rectangles."""
    total = 0
    for shape in field.exact_volume_shapes:
        arr = field.values[shape]
        total += float(np.sum(arr ** 2)) if field.mode == "float" \
            else int(np.sum(arr.astype(np.int64) ** 2))
    return total


def coefficient_square_sum(field: CoefficientField,
                           resolution: Resolution | None = None) -> GridFunction:
    """sum over exact-volume rectangles of alpha(R)**2 1_R -- the squared
    square function of the hyperbolic sum, exact by the unsigned butterfly."""
    hyperbolic._require_exact(field)
    if resolution is None:
        resolution = hyperbolic.field_resolution(field)
    squares = {s: field.values[s].astype(np.int64) ** 2
               for s in field.exact_volume_shapes}
    return GridFunction(resolution, hyperbolic.shape_sum_grid(squares, resolution,
                                                              signed=False))


def trivial_bound_report(field: CoefficientField) -> dict:
    """The counting bound: 2**-n sum|alpha| <= sqrt(#H_n) ||H||_2
    <= sqrt(#H_n) ||H||_inf, verified exactly via squared comparisons."""
    n, d = field.n, field.d
    count = hyperbolic.shape_count(n, d)
    h = hyperbolic.hyperbolic_sum(field)
    lhs = Fraction(field.abs_sum(), 1 << n)
    l2_sq = grid.lp_moment(h, 2)
    sup = grid.sup_norm(h)
    ortho_rhs = Fraction(square_sum(field), 1 << n)
    chain_first = lhs * lhs <= count * l2_sq
    chain_second = l2_sq <= sup * sup
    return {
        "n": n,
        "d": d,
        "lhs": lhs,
        "shape_count": count,
        "l2_norm": float(l2_sq) ** 0.5,
        "l2_moment": l2_sq,
        "sup_norm": sup,
        "l2_identity_exact": l2_sq == ortho_rhs,
        "chain_ok": bool(chain_first and chain_second),
    }


def exp_integrability_profile(field: CoefficientField, p_max: int) -> dict:
    """sup over p <= p_max of p**-((d-1)/2) ||H_n||_p divided by the sup of
    [sum alpha**2 1_R]**(1/2) -- the measured exponential-integrability
    constant."""
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    h = hyperbolic.hyperbolic_sum(field)
    sq = coefficient_square_sum(field)
    s_inf = float(grid.sup_norm(sq)) ** 0.5
    vals = np.abs(h.float_values())
    d = field.d
    ps = list(range(1, p_max + 1))
    ratios = []
    for p in ps:
        norm_p = grid._float_lp_norm(vals, p)
        ratios.append(norm_p * p ** (-(d - 1) / 2.0) / s_inf if s_inf else float("nan"))
    return {
        "n": field.n,
        "d": d,
        "p": ps,
        "ratio": ratios,
        "sup_ratio": max(ratios) if ratios else float("nan"),
    }


# ---------------------------------------------------------------------------
# coincidence classes and graphs
# ---------------------------------------------------------------------------


def mean_zero_predicate(rects) -> bool:
    """True when some coordinate's minimal sidelength (maximal level) is
    achieved by exactly one rectangle; this forces the product of the Haar
    tensors to have mean zero."""
    rects = list(rects)
    if not rects:
        return False
    d = rects[0].d
    for axis in range(d):
        levels = [r.sides[axis].level for r in rects]
        top = max(levels)
        if levels.count(top) == 1:
            return True
    return False


def c2_restricted_l2_crosscheck(n: int, seed: int, q: int = 2, s: int = 1,
                                t: int = 2) -> dict:
    """Compute ||Prod(C2 across two blocks)||_2**2 twice, exactly.

    Route one is the grid second moment of the product sum.  Route two
    expands the square into ordered pairs of pairs: identical pairs
    contribute 1 (r-functions square to one); pairs sharing exactly one
    shape vanish (the shared middle coordinate forces unique maxima in the
    outer coordinates, hence mean zero); disjoint 4-tuples vanish unless
    both outer-coordinate maxima repeat, and each surviving tuple's mean is
    computed on its own minimal grid.  The two Fractions must be equal.
    """
    params = riesz.make_params(n, q=q)
    cls = coincidence.class_c2_restricted(n, params.blocks, s, t)
    field = CoefficientField.random_signs(n, 3, (seed, n))
    g = coincidence.prod_over(cls.tuples, field)
    lhs = grid.lp_moment(g, 2)

    total = Fraction(len(cls.tuples))
    surviving = 0
    for p1, p2 in itertools.product(cls.tuples, cls.tuples):
        four = (*p1, *p2)
        if p1 == p2:
            continue  # already counted: product is identically 1
        if len(set(four)) != 4:
            continue  # partial overlap: mean zero
        if not coincidence._max_achieved([v[0] for v in four]) or \
           not coincidence._max_achieved([v[2] for v in four]):
            continue  # unique outer max: mean zero
        res = hyperbolic.minimal_resolution(four, 3)
        cache = {shp: hyperbolic.r_function_grid(
                     hyperbolic.r_function(field, shp), res).values
                 for shp in set(four)}
        prod = cache[four[0]].astype(np.int16)
        for shp in four[1:]:
            prod = prod * cache[shp]
        total += Fraction(int(np.sum(prod, dtype=np.int64)), res.cells)
        surviving += 1
    return {
        "n": n,
        "pair_count": len(cls.tuples),
        "surviving_tuples": surviving,
        "grid_moment": lhs,
        "expansion_moment": total,
        "equal": lhs == total,
    }


def grade(g: AdmissibleGraph, cap: int = 6) -> int:
    """Smallest k with g a wedge of k primes (1 for primes); brute force,
    for small graphs only."""
    primes = [h for h in coincidence._subgraphs_edgewise(g)
              if coincidence.is_prime(h)]
    if g in primes:
        return 1
    frontier = {h for h in primes}
    for k in range(2, cap + 1):
        nxt = set()
        for h in frontier:
            for p in primes:
                w = coincidence.wedge(h, p)
                if w == g:
                    return k
                if w is not None:
                    nxt.add(w)
        frontier = nxt
    raise ValueError(f"no wedge decomposition into <= {cap} primes found")


def _pattern_cliques(combo, verts, coord: int) -> tuple[tuple[int, ...], ...]:
    """The cliques a tuple actually realizes in one coordinate: groups of
    two or more vertices whose shapes agree there."""
    groups: dict[int, list[int]] = {}
    for v, shape in zip(verts, combo):
        groups.setdefault(shape[coord], []).append(v)
    return tuple(sorted(tuple(g) for g in groups.values() if len(g) >= 2))


def exact_pattern_tuples(g: AdmissibleGraph, blocks) -> list:
    """The tuples of ``coincidence.X_of_graph`` whose realized coincidence
    pattern equals g's cliques exactly -- no extra agreements."""
    verts = sorted(g.vertices)
    return [combo for combo in coincidence.X_of_graph(g, blocks)
            if _pattern_cliques(combo, verts, 1) == g.cliques2
            and _pattern_cliques(combo, verts, 2) == g.cliques3]


# ---------------------------------------------------------------------------
# discrepancy
# ---------------------------------------------------------------------------


def discrepancy_eval(a: PointSet, x):
    """D_N at one corner: strict count minus N times the box volume.
    Exact (a Fraction) when every coordinate of x is a Fraction or int;
    float otherwise.  Point coordinates compare exactly either way."""
    if len(x) != a.d:
        raise ValueError("corner has wrong dimension")
    if not all(0 <= c <= 1 for c in x):
        raise ValueError("corner outside [0,1]^d")
    count = sum(1 for p in a.points if all(pj < xj for pj, xj in zip(p, x)))
    exact = all(isinstance(c, (Fraction, int)) for c in x)
    return count - a.n * math.prod(x, start=Fraction(1) if exact else 1.0)


# ---------------------------------------------------------------------------
# the short product, materialised from its pools
# ---------------------------------------------------------------------------


def _expand(sp: riesz.ShortProduct, pool, per_key: list[int]) -> GridFunction:
    """The exact grid taking ``per_key[k] / sp.scale`` on the cells of key
    k of ``pool``."""
    values = np.array(per_key, dtype=grid.int_dtype(max(map(abs, per_key))))
    return GridFunction(sp.resolution,
                        values[pool.inverse].reshape(sp.resolution.grid_shape),
                        sp.scale)


def short_product(sp: riesz.ShortProduct) -> GridFunction:
    """Psi = prod over t of (1 + rho~ F_t), exactly, as a grid."""
    return _expand(sp, sp.f_pool, sp.partial_products(range(1, sp.params.q + 1)))


def short_product_mean(sp: riesz.ShortProduct) -> Fraction:
    """E Psi from the pooled per-key products; it is one exactly, for any
    coefficient field."""
    t = sp.partial_products(range(1, sp.params.q + 1))
    return Fraction(sum(map(operator.mul, sp.f_pool.counts, t)),
                    sp.scale * sp.resolution.cells)


def sd_decomposition(sp: riesz.ShortProduct) -> tuple[GridFunction, GridFunction]:
    """(Psi_sd, Psi_nsd) as grids: the enumerated layers weighted by the
    powers of rho~, with Psi = 1 + Psi_sd + Psi_nsd cellwise."""
    sd, nsd = sp.layers
    return (_expand(sp, sp.sd_pool, sp.scaled(sp.sd_pool, sd)),
            _expand(sp, sp.nsd_pool, sp.scaled(sp.nsd_pool, nsd)))
