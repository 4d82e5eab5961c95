"""Reference routes that the tests compare the library against.

No subcommand runs any of these, so they live with the tests.  They build
test inputs (dyadic intervals and rectangles as objects, their indicator
grids, Haar functions axis by axis, spectra synthesized back to grids,
constant coefficient fields) or recompute what the library computes by a
simpler, independent route: the product rule rectangle tuple by rectangle
tuple, the dense Haar analysis of a grid and the squared square function
spread from its spectrum, Parseval sums entry by entry, exact moments from
the sorted distinct values, block averages, corner counts over the
point list, the discrepancy scan over the whole corner grid at once, the
C2 second moment expanded over pairs of pairs, the wedge grade of a
graph, the whole grid of a product sum over tuples (``prod_over``, the
library's slab stream laid end to end), and the short product's grids
built cell by cell in Python ints
from its block sums (one ``signed_r_sum`` per block, a butterfly synthesis
of the block's signs) and layers (one ``prod_over`` per enumerated tuple
list), its Gamma_t grids, and its mean from a histogram of the vectors
(F_1..F_q).

The library's grids are integer arrays over scales their callers pass.
The oracles' fractional grids (the Haar analysis, the square function
spread from it, conditional expectations and the materialized short
product) carry their denominator with them, as a ``RationalGrid``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hyperhaar import coincidence, graphs, grid, hyperbolic, riesz
from hyperhaar.discrepancy import PointSet
from hyperhaar.graphs import AdmissibleGraph
from hyperhaar.grid import InsufficientResolutionError, Resolution
from hyperhaar.hyperbolic import CoefficientField, Shape


# ---------------------------------------------------------------------------
# dyadic geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DyadicInterval:
    """Half-open dyadic interval ``[position * 2**-level, (position+1) * 2**-level)``."""

    level: int
    position: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level must be nonnegative, got {self.level}")
        if not 0 <= self.position < (1 << self.level):
            raise ValueError(
                f"position {self.position} out of range for level {self.level}"
            )

    @property
    def length(self) -> Fraction:
        return Fraction(1, 1 << self.level)

    @property
    def left(self) -> Fraction:
        return Fraction(self.position, 1 << self.level)

    def contains(self, other: "DyadicInterval") -> bool:
        """True iff ``other`` is a subinterval of ``self`` (dyadic nesting)."""
        if other.level < self.level:
            return False
        return (other.position >> (other.level - self.level)) == self.position

    def haar_sign_on(self, sub: "DyadicInterval") -> int:
        """Value of this interval's Haar function on a strict subinterval.

        ``sub`` must be strictly finer and contained in ``self``; the value
        is -1 on the left half and +1 on the right half.
        """
        if sub.level <= self.level or not self.contains(sub):
            raise ValueError("sub must be a strictly finer subinterval")
        bit = (sub.position >> (sub.level - self.level - 1)) & 1
        return 1 if bit else -1


@dataclass(frozen=True, slots=True)
class DyadicRectangle:
    """Product of dyadic intervals, one per coordinate (d in 1..3)."""

    sides: tuple[DyadicInterval, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.sides) <= 3:
            raise ValueError("rectangles live in dimension 1..3")

    @property
    def d(self) -> int:
        return len(self.sides)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(side.level for side in self.sides)

    @property
    def volume(self) -> Fraction:
        return Fraction(1, 1 << sum(side.level for side in self.sides))


def rectangle(shape: tuple[int, ...], positions: tuple[int, ...]) -> DyadicRectangle:
    """Convenience constructor from per-axis levels and positions."""
    return DyadicRectangle(
        tuple(DyadicInterval(k, j) for k, j in zip(shape, positions, strict=True))
    )


def rectangles_of_shape(shape: Shape) -> list[DyadicRectangle]:
    """The 2**n pairwise disjoint rectangles of one shape, tiling [0,1)**d."""
    ranges = [range(1 << r) for r in shape]
    return [rectangle(shape, pos) for pos in itertools.product(*ranges)]


def indicator_grid(rect: DyadicRectangle, resolution: Resolution) -> np.ndarray:
    """Indicator function of a dyadic rectangle on the grid."""
    if resolution.d != rect.d:
        raise ValueError("dimension mismatch")
    arr = np.ones((1,) * rect.d, dtype=np.int8)
    for axis, side in enumerate(rect.sides):
        m = resolution.levels[axis]
        if m < side.level:
            raise InsufficientResolutionError(
                f"insufficient resolution: level {m} < interval level {side.level}"
            )
        vec = np.zeros(1 << m, dtype=np.int8)
        width = 1 << (m - side.level)
        vec[side.position * width:(side.position + 1) * width] = 1
        shape = [1] * rect.d
        shape[axis] = vec.size
        arr = arr * vec.reshape(shape)
    return arr.astype(np.int8)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalGrid:
    """The grid taking ``values / den`` cellwise: integer numerators (Python
    ints in an ``object`` array past int64) over a positive int ``den``,
    reduced to lowest terms, so that the numerators and ``den`` of a
    function are unique."""

    values: np.ndarray
    den: int = 1

    def __post_init__(self) -> None:
        if self.values.dtype.kind not in "iuO":
            raise ValueError(f"grid values need an integer dtype, not {self.values.dtype}")
        if not isinstance(self.den, int) or self.den < 1:
            raise ValueError(f"grids need a positive int den, got {self.den!r}")
        if self.den == 1:
            return
        g = int(np.gcd.reduce(self.values, axis=None))
        if not g:  # the zero grid is 0 / 1
            object.__setattr__(self, "den", 1)
            return
        g = math.gcd(self.den, g)
        if g > 1:
            object.__setattr__(self, "values", self.values // g)
            object.__setattr__(self, "den", self.den // g)

    @property
    def resolution(self) -> Resolution:
        return Resolution(tuple(size.bit_length() - 1 for size in self.values.shape))


def rational(f) -> RationalGrid:
    """``f`` itself if it is a ``RationalGrid``, else the integer grid f
    over 1."""
    return f if isinstance(f, RationalGrid) else RationalGrid(np.asarray(f))


def grids_equal(f, g) -> bool:
    """Cellwise equality of two grids; lowest terms make the numerators and
    ``den`` unique."""
    f, g = rational(f), rational(g)
    return f.den == g.den and np.array_equal(f.values, g.values)


def mean(f) -> Fraction:
    """E f, exactly: the sum of the numerators over ``cells * den``."""
    f = rational(f)
    cells = f.values.size
    total = f.values.sum(dtype=grid.int_dtype(grid.max_abs(f.values) * cells))
    return Fraction(int(total), cells * f.den)


def moment(f, p: int) -> Fraction:
    """E|f|**p in Python ints, from the distinct cell values and their
    counts as ``np.unique`` sorts them out."""
    f = rational(f)
    values, counts = np.unique(f.values, return_counts=True)
    return Fraction(sum(c * abs(v) ** p for v, c in zip(values.tolist(),
                                                         counts.tolist())),
                    f.values.size * f.den ** p)


def haar_1d(interval: DyadicInterval, resolution: Resolution) -> np.ndarray:
    """L-infinity normalized Haar function: -1 on the left half of the
    interval, +1 on the right half, 0 outside."""
    if resolution.d != 1:
        raise ValueError("haar_1d needs a 1-dimensional resolution")
    return _haar_axis_values(interval, resolution.levels[0])


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


def haar_tensor(rect: DyadicRectangle, resolution: Resolution) -> np.ndarray:
    """Tensor Haar function of a rectangle: the product of per-axis Haar values."""
    if resolution.d != rect.d:
        raise ValueError("dimension mismatch")
    arr = np.ones((1,) * rect.d, dtype=np.int8)
    for axis, side in enumerate(rect.sides):
        vec = _haar_axis_values(side, resolution.levels[axis])
        shape = [1] * rect.d
        shape[axis] = vec.size
        arr = arr * vec.reshape(shape)
    return arr.astype(np.int8)


@dataclass(frozen=True)
class HaarSpectrum:
    """Tensor Haar coefficients of a grid.

    ``coefficients`` has the same shape as the value grid: integer
    numerators over ``den``, in lowest terms.  Along each axis, index 0 is
    the constant factor and index ``2**k + j`` is the Haar function of
    interval ``(k, j)``; a tensor entry is the coefficient of the product
    of its per-axis factors.  The support weight of an entry is the product
    of its factor supports (1 for constant factors, ``2**-k`` otherwise),
    which is the Parseval weight for the L-infinity-normalized basis.
    """

    resolution: Resolution
    coefficients: np.ndarray
    den: int = 1


def _cover(resolution: Resolution) -> int:
    """How many spectrum entries cover one cell: prod of (m_i + 1)."""
    return math.prod(m + 1 for m in resolution.levels)


def _analyze_axis0(vals: np.ndarray) -> np.ndarray:
    """Division-free Haar analysis along axis 0 of level m, one level at a
    time: index ``2**k + j`` gets its coefficient times ``2**m`` and index
    0 the sum, so integer input gives integer output of magnitude at most
    ``2**m * max|v|``."""
    m = vals.shape[0].bit_length() - 1
    out = np.empty_like(vals)
    cur = vals
    for k in range(m - 1, -1, -1):
        even, odd = cur[0::2], cur[1::2]
        out[1 << k:2 << k] = (odd - even) * (1 << k)
        cur = odd + even
    out[0:1] = cur
    return out


def haar_analyze(f) -> HaarSpectrum:
    """The dense spectrum of a grid (an integer array or a ``RationalGrid``),
    axis by axis, over ``den * cells``."""
    f = rational(f)
    cells = f.values.size
    # max(peak, 1): the butterfly multiplies by 2**k < cells even when f is 0
    arr = f.values.astype(grid.int_dtype(max(grid.max_abs(f.values), 1) * cells))
    for axis in range(arr.ndim):
        arr = np.moveaxis(_analyze_axis0(np.moveaxis(arr, axis, 0)), 0, axis)
    spectrum = RationalGrid(arr, f.den * cells)
    return HaarSpectrum(f.resolution, spectrum.values, spectrum.den)


def square_function_squared(f) -> RationalGrid:
    """S(f)**2 of any grid: every spectrum entry's squared coefficient
    spread over the entry's support.  In d=1 this is |Ef|**2 + sum over
    intervals of (c_I)**2 1_I; for a pure Haar sum it is sum a_R**2 1_R.
    Exact: the unsigned synthesis of the squared numerators over
    ``den**2``."""
    spectrum = haar_analyze(f)
    # the peak is measured: a priori it can be far below cells * max|f|
    coef = spectrum.coefficients
    coef = coef.astype(
        grid.int_dtype(grid.max_abs(coef) ** 2 * _cover(spectrum.resolution)),
        copy=False)
    return RationalGrid(grid.synthesize(coef * coef, signed=False),
                        spectrum.den ** 2)


def haar_synthesize(spectrum: HaarSpectrum) -> RationalGrid:
    """The grid function of a spectrum: ``grid.synthesize`` of the
    numerators, at a width no butterfly intermediate can pass."""
    arr = spectrum.coefficients
    if arr.dtype.kind not in "iuO":
        raise ValueError("a spectrum needs integer or object coefficients")
    bound = grid.max_abs(arr) * _cover(spectrum.resolution)
    arr = arr.astype(grid.int_dtype(bound), copy=False)
    return RationalGrid(grid.synthesize(arr), spectrum.den)


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
    bound = max(grid.max_abs(arr), 1) ** 2 * res.cells * _cover(res)
    arr = arr.astype(grid.int_dtype(bound), copy=False)
    w = math.prod(np.ix_(*(_support_weights(m).astype(arr.dtype)
                           for m in res.levels)))
    return Fraction(int(np.sum(arr * arr * w)), res.cells * spectrum.den ** 2)


def conditional_expectation(f, field: Resolution) -> RationalGrid:
    """Average f over the atoms (cells) of a coarser resolution."""
    f = rational(f)
    if field.d != f.resolution.d:
        raise ValueError("dimension mismatch")
    if any(m < mf for m, mf in zip(f.resolution.levels, field.levels)):
        raise ValueError("field finer than f: cannot condition on a finer grid")
    factors = [1 << (m - mf) for m, mf in zip(f.resolution.levels, field.levels)]
    inter_shape: list[int] = []
    for mf, fac in zip(field.levels, factors):
        inter_shape.extend((1 << mf, fac))
    sum_axes = tuple(range(1, 2 * f.resolution.d, 2))
    count = math.prod(factors)
    sums = f.values.reshape(inter_shape).sum(
        axis=sum_axes, dtype=grid.int_dtype(grid.max_abs(f.values) * count))
    return RationalGrid(sums, f.den * count)


# ---------------------------------------------------------------------------
# hyperbolic sums
# ---------------------------------------------------------------------------


def full_spectrum_shape_sum(shape_values, resolution: Resolution,
                            signed=True) -> np.ndarray:
    """``hyperbolic.shape_sum_grid`` by the full-spectrum route: every
    shape's coefficients copied into their block of one zero spectrum, then
    ``grid.synthesize`` of one axis at a time, with that axis's flag of
    ``signed`` (one per axis, or a bool for every axis), at the same
    dtype."""
    if isinstance(signed, bool):
        signed = (signed,) * resolution.d
    # the spectrum's blocks need r + 1 on every axis, whatever the signs
    hyperbolic._check_resolution(resolution, shape_values.keys(),
                                 (True,) * resolution.d)
    if any(np.asarray(v).dtype.kind == "f" for v in shape_values.values()):
        dtype = np.float64
    else:
        dtype = grid.int_dtype(sum(grid.max_abs(v) for v in shape_values.values()))
    spectrum = np.zeros(resolution.grid_shape, dtype=dtype)
    for shape, values in shape_values.items():
        block = tuple(slice(1 << r, 2 << r) for r in shape)
        spectrum[block] = np.asarray(values).astype(dtype, copy=False)
    for axis, flag in enumerate(signed):
        spectrum = grid.synthesize(spectrum, flag, [axis])
    return spectrum


def signed_r_sum(field: CoefficientField, resolution: Resolution,
                 shapes) -> np.ndarray:
    """The sum of the alpha-induced r-functions of the given shapes on
    ``resolution``, by one ``hyperbolic.shape_sum_grid`` of their signs:
    the butterfly route, where ``hyperbolic.r_function`` expands one shape
    in pairs."""
    return hyperbolic.shape_sum_grid(
        {s: hyperbolic.signs_of(field.values[s]) for s in shapes}, resolution)


def constant_field(n: int, d: int, value: int = 1) -> CoefficientField:
    """The exact field with the same coefficient on every rectangle."""
    return CoefficientField(n, d, {
        s: np.full(tuple(1 << r for r in s), int(value), dtype=np.int64)
        for s in hyperbolic.enumerate_shapes(n, d)})


def square_sum(field: CoefficientField):
    """Sum of alpha(R)**2 over the exact-volume rectangles."""
    arrays = [field.values[shape] for shape in field.exact_volume_shapes]
    if field.mode == "float":
        return sum(float(np.sum(arr ** 2)) for arr in arrays)
    return grid.abs_power_sums(arrays, [2])[0][0]


def trivial_bound_report(field: CoefficientField) -> dict:
    """The counting bound: 2**-n sum|alpha| <= sqrt(#H_n) ||H||_2
    <= sqrt(#H_n) ||H||_inf, verified exactly via squared comparisons."""
    if field.mode != "exact":
        raise ValueError("the bound is checked exactly: it needs an integer field")
    n, d = field.n, field.d
    count = hyperbolic.shape_count(n, d)
    h = hyperbolic.shape_sum_grid(field.values, hyperbolic.field_resolution(field))
    lhs = Fraction(field.abs_sum(), 1 << n)
    l2_sq = moment(h, 2)
    sup = grid.max_abs(h)
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
    [sum alpha**2 1_R]**(1/2) over the exact-volume rectangles -- the
    measured exponential-integrability constant."""
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    h = hyperbolic.shape_sum_grid(field.values, hyperbolic.field_resolution(field))
    exact_volume = CoefficientField(
        field.n, field.d, {s: field.values[s] for s in field.exact_volume_shapes},
        field.mode)
    sq = hyperbolic.square_function_slabs(exact_volume)
    s_inf = max(map(grid.max_abs, sq)) ** 0.5
    vals = np.abs(h.astype(np.float64))
    d = field.d
    ps = list(range(1, p_max + 1))
    ratios = []
    for p, norm_p in zip(ps, grid.float_lp_norm([vals], ps)):
        ratios.append(norm_p * p ** (-(d - 1) / 2.0) / s_inf if s_inf else float("nan"))
    return {
        "n": field.n,
        "d": d,
        "p": ps,
        "ratio": ratios,
        "sup_ratio": max(ratios) if ratios else float("nan"),
    }


# ---------------------------------------------------------------------------
# the product rule, rectangle by rectangle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductResult:
    """Outcome of multiplying Haar tensors.

    ``kind`` is one of ``"haar"`` (the product is sign * h of ``rectangle``),
    ``"indicator"`` (the product is the indicator of ``rectangle``),
    ``"zero"`` (disjoint supports), or ``"not_applicable"`` (the
    distinct-sidelength hypothesis fails, no structural claim is made).
    """

    kind: str
    sign: int | None = None
    rectangle: DyadicRectangle | None = None


def product_rule(rects) -> ProductResult:
    """Product of the Haar tensors of the given rectangles.

    Hypothesis (checked here): in every coordinate the sidelengths are
    pairwise distinct.  Under it, the product is zero when the rectangles
    fail to intersect, and otherwise equals ``sign * h_S`` where S is the
    intersection (per axis, the finest side) and the sign is the product of
    the coarser sides' Haar values on S.  A single rectangle returns
    ``(+1, R)``.  If the hypothesis fails, ``not_applicable`` is returned
    and no claim is made.
    """
    rects = list(rects)
    if not rects:
        raise ValueError("need at least one rectangle")
    d = rects[0].d
    if any(r.d != d for r in rects):
        raise ValueError("mixed dimensions")
    for axis in range(d):
        levels = [r.sides[axis].level for r in rects]
        if len(set(levels)) != len(levels):
            return ProductResult("not_applicable")
    sign = 1
    finest_sides = []
    for axis in range(d):
        sides = [r.sides[axis] for r in rects]
        finest = max(sides, key=lambda s: s.level)
        for side in sides:
            if side is finest:
                continue
            if not side.contains(finest):
                return ProductResult("zero")
            sign *= side.haar_sign_on(finest)
        finest_sides.append(finest)
    return ProductResult("haar", sign, DyadicRectangle(tuple(finest_sides)))


def same_volume_product(r1: DyadicRectangle, r2: DyadicRectangle) -> ProductResult:
    """Case table for a product of two Haar tensors of equal volume (d=2):
    identical rectangles give the indicator, distinct rectangles of one
    shape are disjoint (zero), and distinct shapes fall under the product
    rule (their sidelengths then differ in both coordinates)."""
    if r1.volume != r2.volume:
        raise ValueError("rectangles must have equal volume")
    if r1 == r2:
        return ProductResult("indicator", 1, r1)
    if r1.shape == r2.shape:
        return ProductResult("zero")
    return product_rule([r1, r2])


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


def prod_over(tuples, field: CoefficientField,
              resolution: Resolution | None = None, *,
              budget: int = coincidence.MAX_TUPLES) -> np.ndarray:
    """Sum over the tuples of the products of the alpha-induced r-functions
    of their shapes, as an integer grid at ``grid.int_dtype`` of the tuple
    count: the slabs of ``coincidence.product_slabs`` laid end to end, on
    the minimal grid of the tuples' shapes by default (level 1 on every
    axis for no tuples), after the library's own checks
    (``coincidence._checked_resolution``)."""
    tuples = list(tuples)
    shapes = {s for tup in tuples for s in tup}
    if resolution is None:
        resolution = (hyperbolic.minimal_resolution(shapes, field.d) if shapes
                      else Resolution((1,) * field.d))
    resolution = coincidence._checked_resolution(tuples, field.d, resolution,
                                                 budget=budget)
    return np.concatenate(list(coincidence.product_slabs(tuples, field,
                                                         resolution)))


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
    g = prod_over(cls.tuples, field)
    lhs = moment(g, 2)

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
        cache = {shp: signed_r_sum(field, res, [shp])
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
    primes = [h for h in graphs._subgraphs_edgewise(g)
              if graphs.is_prime(h)]
    if g in primes:
        return 1
    frontier = {h for h in primes}
    for k in range(2, cap + 1):
        nxt = set()
        for h in frontier:
            for p in primes:
                w = graphs.wedge(h, p)
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
    """The tuples of ``graphs.X_of_graph`` whose realized coincidence
    pattern equals g's cliques exactly -- no extra agreements."""
    verts = sorted(g.vertices)
    return [combo for combo in graphs.X_of_graph(g, blocks)
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


def corner_counts(a: PointSet, corners, strict: bool) -> np.ndarray:
    """#points in the box at every corner of the sorted Fraction
    ``corners`` (one list per axis): one bisect per point and axis, then a
    cumulative sum along each axis of the full grid."""
    counts = np.zeros(tuple(len(g) for g in corners), dtype=np.int64)
    for p in a.points:
        idx = [bisect_right(g, Fraction(c)) if strict
               else bisect_left(g, Fraction(c)) for g, c in zip(corners, p)]
        if all(i < len(g) for i, g in zip(idx, corners)):
            counts[tuple(idx)] += 1
    for axis in range(a.d):
        counts = np.cumsum(counts, axis=axis)
    return counts


def scan_bounds_full_grid(a: PointSet, grid_level: int) -> dict:
    """The scan bounds of ``discrepancy.discrepancy_sup`` with the whole
    corner grid k/2^level held at once, in float64: the volume grid, N times
    it, and count minus volume.  Below 2^53 every step is exact, so the
    values equal the scan's integer fold in bits."""
    g = 1 << grid_level
    corners = [Fraction(k, g) for k in range(1, g + 1)]
    x = np.arange(1, g + 1) / g

    def values(strict):
        vol = x
        for _ in range(a.d - 1):
            vol = np.multiply.outer(vol, x)
        vol *= a.n
        return corner_counts(a, [corners] * a.d, strict) - vol

    sup = float(np.max(values(strict=False)))
    inf = float(np.min(values(strict=True)))
    return {"sup": sup, "inf": inf, "sup_abs": max(sup, -inf)}


def midpoint_lp_full_grid(a: PointSet, p: float, grid_level: int) -> float:
    """The L^p estimate of ``discrepancy.discrepancy_lp`` with the whole
    midpoint grid (2k+1)/2^(level+1) held at once, in float64, and one
    ``np.mean`` of its powers.  Below 2^53 count minus N times the volume
    is exact, as in the scan bounds above."""
    g = 1 << grid_level
    corners = [Fraction(2 * k + 1, 2 * g) for k in range(g)]
    x = (2 * np.arange(g) + 1) / (2 * g)
    vol = x
    for _ in range(a.d - 1):
        vol = np.multiply.outer(vol, x)
    vol *= a.n
    values = np.abs(corner_counts(a, [corners] * a.d, True) - vol)
    return float(np.mean(values ** float(p)) ** (1.0 / float(p)))


# ---------------------------------------------------------------------------
# the short product, materialised cell by cell
# ---------------------------------------------------------------------------


def block_sums(sp: riesz.ShortProduct) -> list[np.ndarray]:
    """F_1..F_q, each the sum of its block's r-functions, synthesized
    whole by ``signed_r_sum``."""
    return [signed_r_sum(sp.field, sp.resolution, block)
            for block in sp.params.blocks]


def layers(sp: riesz.ShortProduct):
    """(sd, nsd): for u = 1..q, the grid sum of the products of the
    r-functions over the u-tuples with one shape from each of u distinct
    blocks, enumerated here, split by the strongly-distinct predicate and
    summed by ``prod_over``."""
    q = sp.params.q
    sd, nsd = {}, {}
    for u in range(1, q + 1):
        tuples = [tup for subset in itertools.combinations(sp.params.blocks, u)
                  for tup in itertools.product(*subset)]
        for out, keep in ((sd, True), (nsd, False)):
            out[u] = prod_over(
                [tup for tup in tuples
                 if coincidence.strongly_distinct(tup) == keep],
                sp.field, sp.resolution)
    return sd, nsd


def gamma(sp: riesz.ShortProduct, t: int) -> np.ndarray:
    """Gamma_t: the sum over ordered pairs of distinct shapes of block t
    that share the first coordinate of the products of their
    r-functions, by ``prod_over``."""
    pairs = [(a, b) for a, b in itertools.permutations(sp.params.blocks[t - 1], 2)
             if a[0] == b[0]]
    return prod_over(pairs, sp.field, sp.resolution)


def _scaled_t(sp: riesz.ShortProduct) -> np.ndarray:
    """T = Psi * D^q = prod over t of (D + N F_t), in Python ints, from the
    block sums."""
    t = np.ones(sp.resolution.grid_shape, dtype=object)
    for f in block_sums(sp):
        t = t * (f.astype(object) * sp.num + sp.den)
    return t


def short_product(sp: riesz.ShortProduct) -> RationalGrid:
    """Psi = prod over t of (1 + rho~ F_t), exactly, as a grid."""
    return RationalGrid(_scaled_t(sp), sp.scale)


def short_product_mean(sp: riesz.ShortProduct) -> Fraction:
    """E Psi, from the cell count of every vector (F_1..F_q), a bincount of
    its mixed-radix key, and the product of its factors in Python ints; it
    is one exactly, for any coefficient field."""
    radices = [2 * size + 1 for size in sp.sizes]  # F_t in [-size, size]
    key = np.zeros(sp.resolution.cells, dtype=np.int64)
    for f, size, radix in zip(block_sums(sp), sp.sizes, radices):
        key = key * radix + (f.reshape(-1).astype(np.int64) + size)
    total = 0
    for k, count in enumerate(np.bincount(key).tolist()):
        t = 1
        for size, radix in zip(reversed(sp.sizes), reversed(radices)):
            k, digit = divmod(k, radix)
            t *= sp.den + sp.num * (digit - size)
        total += count * t
    return Fraction(total, sp.scale * sp.resolution.cells)


def sd_decomposition(sp: riesz.ShortProduct) -> tuple[RationalGrid, RationalGrid]:
    """(Psi_sd, Psi_nsd) as grids: the enumerated layers weighted by the
    powers of rho~, sum over u of N^u D^(q-u) layer_u over D^q in Python
    ints, with Psi = 1 + Psi_sd + Psi_nsd cellwise."""
    q = sp.params.q

    def scaled(by_u):
        out = np.zeros(sp.resolution.grid_shape, dtype=object)
        for u, layer in by_u.items():
            out = out + layer.astype(object) * (sp.num**u * sp.den ** (q - u))
        return RationalGrid(out, sp.scale)

    sd, nsd = layers(sp)
    return scaled(sd), scaled(nsd)
