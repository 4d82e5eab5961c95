"""Exact algebra of piecewise-constant functions on dyadic grids.

Hyperbolic sums, Riesz products and coincidence sums are carried by one
representation, ``GridFunction``: a dense array of cell values on a dyadic
grid in dimension 1-3.  The discrepancy scans use only ``Resolution`` and
its cell cap.  A grid function is exact: integer numerators over one
positive int ``den``, so identities verify with zero tolerance.  A grid
built with ``den > 1`` is reduced to lowest terms, so integer-valued grids
have ``den == 1``.  Operations work on the numerators and compute the new
``den`` directly; numerators take the narrowest width ``int_dtype`` finds
for a bound on the result (int8 up to int64, Python ints in an ``object``
array past).  Floats leave a grid only through the correctly rounded
``GridFunction.float_values``, where a measurement needs them: the cellwise
root of ``square_function``, L^p norms for non-integer p, and the Orlicz
estimate.

Exact L^p moments come from ``_int_abs_power_sums``, which reads a grid
once for every integer p asked for.  Values spanning at most
``_POWER_CHUNK`` integers (every int8 and int16 grid) are counted in one
chunked ``bincount`` pass, and each sum is ``count * |v|**p`` over the
values that occur, in Python ints; wider spans and Python-int grids take a
chunked power loop.  ``lp_norms`` gives several norms from that one read.

Cells are half-open boxes: axis ``i`` at level ``m_i`` splits ``[0,1)`` into
``2**m_i`` intervals ``[j*2**-m_i, (j+1)*2**-m_i)``.  The point ``x = 1`` is
excluded (measure zero).

The Haar transform uses an in-place butterfly layout along each axis: index
``0`` holds the constant (mean) factor and index ``2**k + j`` holds the
coefficient of the L-infinity-normalized Haar function of the interval
``(level k, position j)``.  Synthesis is division-free (children are
``parent -+ coefficient``), so it is exact over integers and costs
O(cells) per axis; that property is what makes the large exact
constructions in the other modules feasible.

``synthesize`` is the one synthesis loop: one ``synthesize_axis0`` call
per axis it is given (every axis by default) through ``apply_along_axis0``.
Dense spectra (``square_function_squared``) take every axis.  Shape sums
(``hyperbolic.shape_sum_grid``) have one level per axis in each shape, so
they are placed already synthesized along one axis and ``synthesize`` runs
over the others only.  The driver views the C-contiguous array as ``(pre,
size, post)`` and hands the kernel the ``(size, pre, post)`` transpose, so
every axis is processed in the array's own memory order.  The kernel
allocates its output and a half-size scratch buffer with the input's
layout and alternates the butterfly levels between the two with ``out=``
ufuncs, so no level allocates; the transpose back is C-contiguous and the
input is never written.  Analysis (``_analyze_axis0``) works the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: Cap on the total level (sum over axes); 2**MAX_TOTAL_LEVEL cells at most.
MAX_TOTAL_LEVEL = 27


class GridError(Exception):
    """Base class for grid-layer failures."""


class InsufficientResolutionError(GridError):
    """A grid is too coarse to represent the requested object exactly."""


class GridTooLargeError(GridError):
    """A construction would exceed the configured cell cap."""


class BudgetExceededError(GridError):
    """A combinatorial enumeration would exceed its configured budget."""


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


@dataclass(frozen=True, slots=True)
class Resolution:
    """Per-axis dyadic levels of a grid; the cell count is ``2**sum(levels)``."""

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.levels) <= 3:
            raise ValueError("resolutions live in dimension 1..3")
        if any(m < 0 for m in self.levels):
            raise ValueError("levels must be nonnegative")
        if sum(self.levels) > MAX_TOTAL_LEVEL:
            raise GridTooLargeError(
                f"grid too large: total level {sum(self.levels)} exceeds cap "
                f"{MAX_TOTAL_LEVEL}"
            )

    @classmethod
    def uniform(cls, level: int, d: int) -> "Resolution":
        return cls((level,) * d)

    @property
    def d(self) -> int:
        return len(self.levels)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(1 << m for m in self.levels)

    @property
    def cells(self) -> int:
        return 1 << sum(self.levels)

    def refines(self, other: "Resolution") -> bool:
        """True iff ``self`` is at least as fine as ``other`` in every axis."""
        if self.d != other.d:
            return False
        return all(a >= b for a, b in zip(self.levels, other.levels))

    def join(self, other: "Resolution") -> "Resolution":
        """Coordinatewise max -- the coarsest common refinement."""
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return Resolution(tuple(max(a, b) for a, b in zip(self.levels, other.levels)))


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------


def int_dtype(bound: int):
    """The narrowest of int8/int16/int32/int64 that holds every integer of
    magnitude at most ``bound``, else Python ints (``object``): the one
    width rule of every exact integer array.  The bound must also cover
    every Python-int scalar that meets the array in its arithmetic."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return object


def max_abs(values) -> int:
    """max |v| of an integer array or scalar (0 if empty), without abs()
    wrapping the most negative value of its dtype."""
    arr = np.asarray(values)
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def _lowest_terms(values: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """``values / den`` with the common factor of ``den`` and all values out."""
    g = int(np.gcd.reduce(values, axis=None))
    if g == 0:
        return values, 1
    g = math.gcd(den, g)
    return (values // g, den // g) if g > 1 else (values, den)


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-constant function on ``[0,1)**d``, one value per grid cell.

    ``values`` is an integer array (Python ints in an ``object`` array past
    int64) of shape ``resolution.grid_shape``, row-major over the cells;
    each cell is ``values / den`` in lowest terms.  Instances are treated
    as immutable.
    """

    resolution: Resolution
    values: np.ndarray
    den: int = 1

    def __post_init__(self) -> None:
        if self.values.shape != self.resolution.grid_shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match resolution "
                f"{self.resolution.grid_shape}"
            )
        if self.values.dtype.kind not in "iuO":
            raise ValueError(f"grid values need an integer dtype, not {self.values.dtype}")
        if not isinstance(self.den, int) or self.den < 1:
            raise ValueError(f"grids need a positive int den, got {self.den!r}")
        if self.den != 1:
            values, den = _lowest_terms(self.values, self.den)
            object.__setattr__(self, "values", values)
            object.__setattr__(self, "den", den)

    @classmethod
    def from_values(cls, resolution: Resolution, values) -> "GridFunction":
        return cls(resolution, np.asarray(values).reshape(resolution.grid_shape))

    @classmethod
    def constant(cls, value, resolution: Resolution) -> "GridFunction":
        num, den = map(int, Fraction(value).as_integer_ratio())
        arr = np.full(resolution.grid_shape, num, dtype=int_dtype(abs(num)))
        return cls(resolution, arr, den)

    @classmethod
    def zero(cls, resolution: Resolution) -> "GridFunction":
        return cls.constant(0, resolution)

    @property
    def d(self) -> int:
        return self.resolution.d

    def float_values(self) -> np.ndarray:
        """Cellwise float64, correctly rounded.  One float64 division rounds
        once when the numerators and ``den`` are exact in float64, or for
        int64 numerators over a power of two up to 2**1022 (an exact
        scaling); otherwise each cell is the Python ``int / int``."""
        den = self.den
        if (den & (den - 1) or den > 1 << 1022 or self.values.dtype == object) \
                and max(max_abs(self.values), den) > 1 << 53:
            return np.array([v / den for v in self.values.ravel().tolist()],
                            dtype=np.float64).reshape(self.values.shape)
        arr = self.values.astype(np.float64)
        if den != 1:
            arr /= den
        return arr


def refine(f: GridFunction, resolution: Resolution) -> GridFunction:
    """Replicate cell values onto a finer grid; preserves all norms exactly."""
    if not resolution.refines(f.resolution):
        raise InsufficientResolutionError(
            f"insufficient resolution: {resolution.levels} does not refine "
            f"{f.resolution.levels}"
        )
    arr = f.values
    for axis, (m_new, m_old) in enumerate(zip(resolution.levels, f.resolution.levels)):
        if m_new > m_old:
            arr = np.repeat(arr, 1 << (m_new - m_old), axis=axis)
    return GridFunction(resolution, arr, f.den)


def common_refinement(f: GridFunction, g: GridFunction) -> tuple[GridFunction, GridFunction]:
    res = f.resolution.join(g.resolution)
    return refine(f, res), refine(g, res)


def _binary(f: GridFunction, g, op) -> GridFunction:
    """Cellwise ``op`` (``np.add``, ``np.subtract`` or ``np.multiply``)
    against a GridFunction or a scalar, exactly: a scalar is taken at its
    exact value (a float too, as in ``GridFunction.constant``); sums go over
    the lcm of the denominators, products over their product."""
    if isinstance(g, GridFunction):
        f, g = common_refinement(f, g)
        g_num, g_den = g.values, g.den
    else:
        g_num, g_den = Fraction(g).as_integer_ratio()
    if op is np.multiply:
        den, f_mul, g_mul = f.den * g_den, 1, 1
        # max(peak, 1): each factor must fit too, not just their product
        bound = max(max_abs(f.values), 1) * max(max_abs(g_num), 1)
    else:
        den = math.lcm(f.den, g_den)
        f_mul, g_mul = den // f.den, den // g_den
        bound = max_abs(f.values) * f_mul + max_abs(g_num) * g_mul
    dtype = int_dtype(max(bound, f_mul, g_mul))
    arr = op(np.asarray(f.values, dtype=dtype) * f_mul,
             np.asarray(g_num, dtype=dtype) * g_mul)
    return GridFunction(f.resolution, arr, den)


def add(f: GridFunction, g) -> GridFunction:
    return _binary(f, g, np.add)


def sub(f: GridFunction, g) -> GridFunction:
    return _binary(f, g, np.subtract)


def mul(f: GridFunction, g) -> GridFunction:
    return _binary(f, g, np.multiply)


# ---------------------------------------------------------------------------
# expectation, inner products, norms
# ---------------------------------------------------------------------------


def expectation(f: GridFunction):
    """Mean value = 2**-(m1+...+md) * sum of cells, as a Fraction."""
    total = f.values.sum(dtype=int_dtype(max_abs(f.values) * f.resolution.cells))
    return Fraction(int(total), f.resolution.cells * f.den)


def inner_product(f: GridFunction, g: GridFunction):
    """E(f*g), exactly."""
    return expectation(mul(f, g))


def lp_moment(f: GridFunction, p: int):
    """E|f|**p for integer p >= 1, as a Fraction: the exact power sum of
    ``_int_abs_power_sums`` over ``cells * den**p``."""
    if not isinstance(p, int) or p < 1:
        raise ValueError("lp_moment needs an integer p >= 1")
    (total,) = _int_abs_power_sums(f.values, [p])
    return Fraction(total, f.resolution.cells * f.den ** p)


#: Cells per chunk of the exact power sums, and the widest value span
#: that they count in one histogram.
_POWER_CHUNK = 1 << 16


def _int_abs_power_sums(values: np.ndarray, ps) -> list[int]:
    """Exact sum of |v|**p over an integer or Python-int array, for each p.

    Histogram route: when the values span at most ``_POWER_CHUNK``
    integers (always for int8 and int16), one chunked ``bincount`` of the
    offsets ``v - min`` counts each value, and every sum is the Python-int
    sum of ``count * |v|**p`` over the values that occur.  The offsets are
    taken in the unsigned type of the same width, modulo 2**bits, so no
    value wraps.  Wide route: wider spans and ``object`` arrays widen and
    ``abs`` each chunk once, then sum its powers per p in the width
    ``int_dtype`` gives a chunk's sum (and the exponent p).
    """
    flat = values.reshape(-1)
    ps = list(ps)
    if flat.size and flat.dtype != object:
        lo, hi = int(flat.min()), int(flat.max())
        if hi - lo < _POWER_CHUNK:
            return _histogram_power_sums(flat, lo, hi, ps)
    peak = max_abs(flat)
    dtypes = [int_dtype(max(peak ** p * min(_POWER_CHUNK, flat.size), p)) for p in ps]
    totals = [0] * len(ps)
    for start in range(0, flat.size, _POWER_CHUNK):
        part = np.abs(flat[start:start + _POWER_CHUNK].astype(int_dtype(peak)))
        for i, (p, dtype) in enumerate(zip(ps, dtypes)):
            totals[i] += int(np.sum(part.astype(dtype, copy=False) ** p))
    return totals


def _histogram_power_sums(flat: np.ndarray, lo: int, hi: int, ps) -> list[int]:
    """``_int_abs_power_sums`` for values in ``[lo, hi]``, a span of at most
    ``_POWER_CHUNK``: one pass of per-chunk value counts."""
    unsigned = flat.view(f"u{flat.itemsize}")
    shift = np.array(lo, dtype=flat.dtype).view(unsigned.dtype)
    counts = np.zeros(hi - lo + 1, dtype=np.int64)
    for start in range(0, flat.size, _POWER_CHUNK):
        offsets = (unsigned[start:start + _POWER_CHUNK] - shift).astype(np.intp)
        counts += np.bincount(offsets, minlength=counts.size)
    seen = np.flatnonzero(counts)
    pairs = [(abs(lo + i), c) for i, c in zip(seen.tolist(), counts[seen].tolist())]
    return [sum(c * v ** p for v, c in pairs) for p in ps]


def lp_norm(f: GridFunction, p) -> float:
    """(E|f|**p)**(1/p).  For integer p the moment is exact (one pass of
    ``_int_abs_power_sums``) and only the final root is floating point;
    other p go through ``float_values``."""
    return lp_norms(f, [p])[0]


def lp_norms(f: GridFunction, ps) -> list[float]:
    """``lp_norm(f, p)`` for every p in ``ps``, bit for bit: the exact
    moments of all integer p come from one read of the values."""
    ps = list(ps)
    if any(p <= 0 for p in ps):
        raise ValueError("p must be positive")
    exact = [p for p in ps if isinstance(p, int)]
    sums = dict(zip(exact, _int_abs_power_sums(f.values, exact))) if exact else {}
    abs_values = None
    norms = []
    for p in ps:
        if isinstance(p, int):
            moment = Fraction(sums[p], f.resolution.cells * f.den ** p)
            norms.append(float(moment) ** (1.0 / p))
        else:
            if abs_values is None:
                abs_values = np.abs(f.float_values())
            norms.append(_float_lp_norm(abs_values, p))
    return norms


def _float_lp_norm(abs_values: np.ndarray, p) -> float:
    """(mean of abs_values**p)**(1/p) in float64: the one float L^p
    expression, for arrays that are already nonnegative."""
    return float(np.mean(abs_values ** float(p)) ** (1.0 / float(p)))


def sup_norm(f: GridFunction):
    """max |cell value| -- exact, since f is piecewise constant on its grid."""
    peak = max_abs(f.values)
    return peak if f.den == 1 else Fraction(peak, f.den)


# ---------------------------------------------------------------------------
# indicators on the grid
# ---------------------------------------------------------------------------


def indicator_grid(rect: DyadicRectangle, resolution: Resolution) -> GridFunction:
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
    return GridFunction(resolution, arr.astype(np.int8))


# -- transform kernels -------------------------------------------------------


def synthesize_axis0(coef: np.ndarray, signed: bool = True) -> np.ndarray:
    """Invert the Haar layout along axis 0 with the division-free butterfly.

    ``signed=True`` is the Haar synthesis (left child = parent - c, right
    child = parent + c).  ``signed=False`` sends both children to
    ``parent + c``, which accumulates coefficients over cell ancestries --
    exactly the map that turns squared coefficients into the squared square
    function.  Works for integer, float and object dtypes alike; exact
    whenever the dtype is.

    The output and one half-size scratch buffer are the only allocations;
    both copy ``coef``'s memory layout, and the levels alternate between
    them so that the last one lands in the output.  ``coef`` is only read.
    """
    size = coef.shape[0]
    m = size.bit_length() - 1
    if size != (1 << m):
        raise ValueError("axis length must be a power of two")
    out = np.empty_like(coef)
    if m == 0:
        out[...] = coef
        return out
    scratch = np.empty_like(coef[:size >> 1])
    cur = coef[0:1]
    for k in range(m):
        nxt = (out if (m - k) % 2 else scratch)[:2 << k]
        c = coef[1 << k:2 << k]
        np.add(cur, c, out=nxt[1::2])
        if signed:
            np.subtract(cur, c, out=nxt[0::2])
        else:
            nxt[0::2] = nxt[1::2]
        cur = nxt
    return out


def _analyze_axis0(vals: np.ndarray) -> np.ndarray:
    """Division-free Haar analysis along axis 0 of level m: index ``2**k + j``
    gets its coefficient times ``2**m`` and index 0 the sum, so integer
    input gives integer output of magnitude at most ``2**m * max|v|``.

    Like ``synthesize_axis0``, it allocates only the output and one
    half-size scratch buffer.  Each level reads the pair sums of the level
    before, writes its differences into their place in the output and its
    sums into the other buffer.  When the sums it reads sit in the output,
    its differences would overwrite them, so they go through the scratch
    buffer's upper half first.  ``vals`` is only read.
    """
    size = vals.shape[0]
    m = size.bit_length() - 1
    if size != (1 << m):
        raise ValueError("axis length must be a power of two")
    out = np.empty_like(vals)
    scratch = np.empty_like(vals[:size >> 1])
    cur, dst = vals, scratch
    for k in range(m - 1, -1, -1):
        even, odd = cur[0::2], cur[1::2]
        via_scratch = dst is scratch and cur is not vals
        diffs = (scratch if via_scratch else out)[1 << k:2 << k]
        np.subtract(odd, even, out=diffs)
        np.multiply(diffs, 1 << k, out=diffs)
        np.add(odd, even, out=dst[:1 << k])
        if via_scratch:
            out[1 << k:2 << k] = diffs
        cur, dst = dst[:1 << k], (out if dst is scratch else scratch)
    out[0:1] = cur
    return out


def apply_along_axis0(fn, arr: np.ndarray, axis: int, *args, **kwargs) -> np.ndarray:
    """Run an axis-0 kernel along ``axis`` of ``arr`` in C order.

    The C-contiguous array (``arr`` itself, or a copy if it is not) is
    viewed as ``(pre, size, post)`` and ``fn`` gets the ``(size, pre, post)``
    transpose of that view, so no data moves.  A kernel that allocates with
    ``np.empty_like`` returns the same layout, and the transpose back is
    C-contiguous, so the final reshape is free.
    """
    shape = arr.shape
    post = int(np.prod(shape[axis + 1:], dtype=np.int64))
    view = np.ascontiguousarray(arr).reshape(-1, shape[axis], post).transpose(1, 0, 2)
    return fn(view, *args, **kwargs).transpose(1, 0, 2).reshape(shape)


def synthesize(arr: np.ndarray, signed: bool = True, axes=None) -> np.ndarray:
    """Synthesize the given axes (default: every axis) of a Haar-layout
    array, in the order given (see ``synthesize_axis0``).

    Returns a C-contiguous array of the same dtype, new unless ``axes`` is
    empty; ``arr`` is only read.
    """
    for axis in range(arr.ndim) if axes is None else axes:
        arr = apply_along_axis0(synthesize_axis0, arr, axis, signed)
    return arr


@dataclass(frozen=True)
class HaarSpectrum:
    """Tensor Haar coefficients of a GridFunction.

    ``coefficients`` has the same shape as the value grid: integer
    numerators over ``den``, in lowest terms.  Along each axis, index 0 is
    the constant factor and index ``2**k + j`` is the Haar function of
    interval ``(k, j)``; a tensor entry is the coefficient of the product
    of its per-axis factors.  The support weight of an entry is
    the product of its factor supports (1 for constant factors, ``2**-k``
    otherwise), which is the Parseval weight for the L-infinity-normalized
    basis.
    """

    resolution: Resolution
    coefficients: np.ndarray
    den: int = 1


def _cover(resolution: Resolution) -> int:
    """How many spectrum entries cover one cell: prod of (m_i + 1)."""
    return math.prod(m + 1 for m in resolution.levels)


def haar_analyze(f: GridFunction) -> HaarSpectrum:
    cells = f.resolution.cells
    # max(peak, 1): the butterfly multiplies by 2**k < cells even when f is 0
    arr = f.values.astype(int_dtype(max(max_abs(f.values), 1) * cells), copy=False)
    for axis in range(f.d):
        arr = apply_along_axis0(_analyze_axis0, arr, axis)
    num, den = _lowest_terms(arr, f.den * cells)
    return HaarSpectrum(f.resolution, num, den)


def square_function_squared(f: GridFunction) -> GridFunction:
    """S(f)**2: for every spectrum entry, its squared coefficient spread over
    the entry's support.  In d=1 this is |Ef|**2 + sum over intervals of
    (c_I)**2 1_I; for a pure Haar sum it is sum a_R**2 1_R.  Exact: the
    unsigned synthesis of the squared numerators over ``den**2``."""
    spectrum = haar_analyze(f)
    # the peak is measured: a priori it can be far below cells * max|f|
    coef = spectrum.coefficients
    coef = coef.astype(int_dtype(max_abs(coef) ** 2 * _cover(f.resolution)), copy=False)
    return GridFunction(f.resolution, synthesize(coef * coef, signed=False),
                        spectrum.den ** 2)


def square_function(f: GridFunction) -> np.ndarray:
    """S(f) as a float64 array (the cellwise square root is irrational),
    taken in place on the one float conversion of S(f)**2."""
    sf = square_function_squared(f).float_values()
    return np.sqrt(sf, out=sf)


# ---------------------------------------------------------------------------
# LP / Orlicz diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LPEntry:
    p: float
    norm: float
    square_function_norm: float
    a_p: float  # ||S(f)||_p / ||f||_p
    b_p: float  # ||f||_p / ||S(f)||_p


@dataclass(frozen=True)
class LPReport:
    entries: tuple[LPEntry, ...]


def lp_profile(f: GridFunction, p_list) -> LPReport:
    """Norms of f and S(f) with the two-sided ratio estimates per p."""
    ps = list(p_list)
    if not ps:
        raise ValueError("p_list must be nonempty")
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError("p_list must be strictly increasing")
    sf = square_function(f)
    entries = []
    for p, nf in zip(ps, lp_norms(f, ps)):
        ns = _float_lp_norm(sf, p)  # S(f) >= 0
        entries.append(LPEntry(
            p=float(p), norm=nf, square_function_norm=ns,
            a_p=(ns / nf) if nf else float("nan"),
            b_p=(nf / ns) if ns else float("nan"),
        ))
    return LPReport(tuple(entries))


def orlicz_norm_estimate(f: GridFunction, alpha: float, p_max: int) -> float:
    """max over integer p in [1, p_max] of p**(-1/alpha) * ||f||_p.

    This is the sup-over-p equivalent of the exponential-integrability norm,
    a surrogate that matches the true norm up to absolute constants; it is
    reported as such, never asserted against one.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    vals = np.abs(f.float_values())
    best = 0.0
    for p in range(1, p_max + 1):
        best = max(best, float(p) ** (-1.0 / alpha) * _float_lp_norm(vals, p))
    return best

