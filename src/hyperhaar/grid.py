"""Piecewise-constant functions on dyadic grids, exactly.

A grid is a C-contiguous integer ndarray of shape
``Resolution.grid_shape``, one value per cell of a dyadic grid in
dimension 1-3, over a scale that the caller passes explicitly (the d=2
product is over 2**(n+1), the short product over D**q); most grids are
over 1.  Identities are integer sums over those scales, so they verify
with zero tolerance.  Values take the narrowest width ``int_dtype`` finds
for a bound on the result (int8 up to int64, Python ints in an ``object``
array past).  Floats leave a grid only through ``astype(np.float64)``,
which rounds each cell correctly, where a measurement needs them: the
cellwise root of the square function in ``lp_profile``, the Orlicz
estimate and the discrepancy's midpoint L^p estimate.  ``float_lp_norm``
is the one float L^p expression.  It takes slabs: the whole grid as one,
or C-order slabs of a power of two of at least 2^7 cells (numpy's
pairwise block), a power of two of them, whose ``np.sum`` values it adds
in a binary tree.  numpy's pairwise sum halves such a grid into the same
tree, so both forms equal ``np.mean`` of the whole grid bit for bit.

Exact L^p moments come from ``abs_power_sums``, a fold over chunks of
values that reads each chunk once for every integer p asked for and also
returns the peak |v|, so a grid can be streamed through it slab by slab.
A chunk whose values span at most ``_POWER_CHUNK`` integers (every int8
and int16 chunk) is counted in one chunked ``bincount`` pass after its
min/max, and each sum is ``count * |v|**p`` over the values that occur, in
Python ints; wider spans and Python-int chunks take a chunked power loop.
``lp_norms`` gives several norms of a grid from one read, as one chunk.

Cells are half-open boxes: axis ``i`` at level ``m_i`` splits ``[0,1)`` into
``2**m_i`` intervals ``[j*2**-m_i, (j+1)*2**-m_i)``.  The point ``x = 1`` is
excluded (measure zero).  The library names a dyadic rectangle only by its
shape and position indices, or as a block of a Haar spectrum; interval and
rectangle objects, and their indicator grids, live only in the test
oracles.

Haar synthesis uses an in-place butterfly layout along each axis: index
``0`` holds the constant (mean) factor and index ``2**k + j`` holds the
coefficient of the L-infinity-normalized Haar function of the interval
``(level k, position j)``.  Synthesis is division-free (children are
``parent -+ coefficient``), so it is exact over integers and costs
O(cells) per axis; that property is what makes the large exact
constructions in the other modules feasible.  No grid is ever analysed.

``synthesize`` is the one synthesis loop: one ``synthesize_axis0`` call
per axis it is given (every axis by default) through ``apply_along_axis0``.
Dense spectra (the product-rule check in ``coincidence``) take every axis.
Shape sums (``hyperbolic.shape_sum_grid``) have one level per axis in each
shape, so they are placed already synthesized along one axis and
``synthesize`` runs over the others only, each with its own signed flag.
``apply_along_axis0`` views the C-contiguous array as ``(pre, size,
post)`` and hands the kernel the ``(size, pre, post)`` transpose, so every
axis is processed in the array's own memory order.  The kernel allocates
its output and a half-size scratch buffer with the input's layout and
alternates the butterfly levels between the two with ``out=`` ufuncs, so
no level allocates; the transpose back is C-contiguous and the input is
never written.  A caller that synthesizes slab after slab passes a
``Workspace``, from which ``synthesize`` takes the scratch and every
output but the last, so only the result is allocated per call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: Cap on the total level (sum over axes); 2**MAX_TOTAL_LEVEL cells at most.
MAX_TOTAL_LEVEL = 27

#: Cells per axis-0 slab of the streamed shape sums, the hyperbolic sums
#: and the r-function product sums alike (256 KiB of int8).
SLAB_CELLS = 1 << 18


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


# ---------------------------------------------------------------------------
# integer grids
# ---------------------------------------------------------------------------


#: (dtype, largest value) of each fixed integer width, narrowest first.
_INT_WIDTHS = tuple((dtype, int(np.iinfo(dtype).max))
                    for dtype in (np.int8, np.int16, np.int32, np.int64))


def int_dtype(bound: int):
    """The narrowest of int8/int16/int32/int64 that holds every integer of
    magnitude at most ``bound``, else Python ints (``object``): the one
    width rule of every exact integer array.  The bound must also cover
    every Python-int scalar that meets the array in its arithmetic."""
    for dtype, top in _INT_WIDTHS:
        if bound <= top:
            return dtype
    return object


def max_abs(values) -> int:
    """max |v| of an integer array or scalar (0 if empty), without abs()
    wrapping the most negative value of its dtype."""
    arr = np.asarray(values)
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


#: Cells per piece that the exact power sums widen or count at once, and
#: the widest value span of a chunk that they count in one histogram.
_POWER_CHUNK = 1 << 16


def abs_power_sums(chunks, ps) -> tuple[list[int], int]:
    """Exact sum of |v|**p for each p, and max |v| (0 if empty), over the
    integer or Python-int arrays ``chunks`` taken as one: a fold that reads
    each chunk once, so a grid can stream through it in slabs.

    Histogram route: when a chunk's values span at most ``_POWER_CHUNK``
    integers (always for int8 and int16), one chunked ``bincount`` of the
    offsets ``v - min`` counts each value, and every sum is the Python-int
    sum of ``count * |v|**p`` over the values that occur.  Wide route:
    wider spans and ``object`` chunks widen and ``abs`` each piece once,
    then sum its powers per p in the width ``int_dtype`` gives a piece's
    sum (and the exponent p).
    """
    ps = list(ps)
    # map holds no chunk while a stream builds the next one
    parts = list(map(_chunk_power_sums, chunks, itertools.repeat(ps)))
    return ([sum(sums[i] for sums, _ in parts) for i in range(len(ps))],
            max((top for _, top in parts), default=0))


def _chunk_power_sums(chunk: np.ndarray, ps) -> tuple[list[int], int]:
    """The power sums and max |v| of ``abs_power_sums`` for one chunk."""
    flat = chunk.reshape(-1)
    if not flat.size:
        return [0] * len(ps), 0
    if flat.dtype != object:
        lo, hi = int(flat.min()), int(flat.max())
        if hi - lo < _POWER_CHUNK:
            return _histogram_power_sums(flat, lo, hi, ps)
    top = max_abs(flat)
    dtypes = [int_dtype(max(top ** p * min(_POWER_CHUNK, flat.size), p))
              for p in ps]
    sums = [0] * len(ps)
    for start in range(0, flat.size, _POWER_CHUNK):
        part = np.abs(flat[start:start + _POWER_CHUNK].astype(int_dtype(top)))
        for i, (p, dtype) in enumerate(zip(ps, dtypes)):
            sums[i] += int(np.sum(part.astype(dtype, copy=False) ** p))
    return sums, top


def _histogram_power_sums(flat: np.ndarray, lo: int, hi: int,
                          ps) -> tuple[list[int], int]:
    """The power sums and max |v| of ``abs_power_sums`` for one chunk of
    values in ``[lo, hi]``, a span of at most ``_POWER_CHUNK``: one pass of
    per-piece value counts.  The offsets are taken in the unsigned type of
    the same width, modulo 2**bits, so no value wraps, and written into one
    ``intp`` buffer that every piece reuses: a fresh one per piece made
    glibc trim and re-fault the heap between the slabs of a stream."""
    unsigned = flat.view(f"u{flat.itemsize}")
    shift = np.array(lo, dtype=flat.dtype).view(unsigned.dtype)
    counts = np.zeros(hi - lo + 1, dtype=np.int64)
    buffer = np.empty(min(flat.size, _POWER_CHUNK), np.intp)
    for start in range(0, flat.size, _POWER_CHUNK):
        piece = unsigned[start:start + _POWER_CHUNK]
        offsets = buffer[:piece.size]
        # the offsets are below _POWER_CHUNK, so the cast to intp is exact
        np.subtract(piece, shift, out=offsets, dtype=unsigned.dtype,
                    casting="unsafe")
        counts += np.bincount(offsets, minlength=counts.size)
    seen = np.flatnonzero(counts)
    pairs = [(abs(lo + i), c) for i, c in zip(seen.tolist(), counts[seen].tolist())]
    return [sum(c * v ** p for v, c in pairs) for p in ps], max(abs(lo), abs(hi))


def norm_of_power_sum(total: int, scale: int, p: int) -> float:
    """(total / scale) ** (1/p) with the exact moment rounded once: the one
    route from an exact power sum to an L^p norm."""
    return float(Fraction(total, scale)) ** (1.0 / p)


def lp_norms(values: np.ndarray, ps) -> list[float]:
    """(E|v|**p)**(1/p) over the cells of an integer grid, for every integer
    p >= 1 in ``ps``: the exact moments come from one read of the values,
    and only the final root is floating point."""
    ps = list(ps)
    if not all(isinstance(p, int) and p >= 1 for p in ps):
        raise ValueError(f"L^p norms need integer p >= 1, got {ps}")
    sums, _ = abs_power_sums([values], ps)
    return [norm_of_power_sum(total, values.size, p) for p, total in zip(ps, sums)]


#: Cells that numpy's pairwise float sum adds in one unrolled block; it
#: halves a longer power-of-two range until the halves are this long.
_PAIRWISE_BLOCK = 1 << 7


def float_lp_norm(slabs, p) -> float:
    """(mean of v**p)**(1/p) in float64 over the nonnegative arrays
    ``slabs`` taken as one grid, in order: the one float L^p expression.

    Each slab's ``np.sum`` of v**p is a leaf of a binary tree of float
    sums, and two subtrees of equal size join as left + right.  With the
    grid as one slab, or in C-order slabs of one power of two of at least
    ``_PAIRWISE_BLOCK`` cells, a power of two of them, that tree is the one
    numpy's pairwise sum builds over the whole grid, so the result equals
    ``np.mean(grid ** p) ** (1 / p)`` bit for bit.  Other slabs raise
    ``ValueError``."""
    p = float(p)
    tree = []  # (cells, sum) of each complete subtree, left to right
    leaves = pairable = 0
    for slab in slabs:
        size = slab.size
        leaves += 1
        pairable += size >= _PAIRWISE_BLOCK and not size & (size - 1)
        node = (size, np.sum(slab ** p))
        while tree and tree[-1][0] == size:
            left = tree.pop()[1]
            size *= 2
            node = (size, left + node[1])
        tree.append(node)
    if len(tree) != 1 or (leaves > 1 and pairable < leaves):
        raise ValueError("float_lp_norm takes one slab, or a power of two "
                         "of C-order slabs of one power of two of at least "
                         f"{_PAIRWISE_BLOCK} cells")
    cells, total = tree[0]
    return float((total / cells) ** (1.0 / p))


# -- transform kernels -------------------------------------------------------


def synthesize_axis0(coef: np.ndarray, signed: bool = True, *,
                     out: np.ndarray | None = None,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """Invert the Haar layout along axis 0 with the division-free butterfly.

    ``signed=True`` is the Haar synthesis (left child = parent - c, right
    child = parent + c).  ``signed=False`` sends both children to
    ``parent + c``, which accumulates coefficients over cell ancestries --
    exactly the map that turns squared coefficients into the squared square
    function.  Works for integer, float and object dtypes alike; exact
    whenever the dtype is.

    The output and one half-size scratch buffer are the only allocations,
    unless the caller passes them (``out`` of ``coef``'s shape, ``scratch``
    of its first half's, neither overlapping ``coef``); allocated, both
    copy ``coef``'s memory layout.  The levels alternate between them so
    that the last one lands in the output, which is returned and written
    whole.  ``coef`` is only read.
    """
    size = coef.shape[0]
    m = size.bit_length() - 1
    if size != (1 << m):
        raise ValueError("axis length must be a power of two")
    if out is None:
        out = np.empty_like(coef)
    if m == 0:
        out[...] = coef
        return out
    if scratch is None:
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


class Workspace:
    """Buffers that a run reuses from one call to the next, one per role,
    each grown to the largest request, so that a stream of slabs does not
    allocate (and fault in) its temporaries afresh for every slab.
    ``take`` returns a role's bytes as an uninitialized C-contiguous array;
    ``object`` arrays are never reused, so ``take`` allocates them.  An
    array is valid until the next ``take`` of its role, so the calls that
    share a workspace must run one after another, never in two threads.
    """

    def __init__(self) -> None:
        self._buffers: dict = {}

    def take(self, role, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        if dtype == object:
            return np.empty(shape, dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(role)
        if buf is None or buf.size < nbytes:
            buf = self._buffers[role] = np.empty(nbytes, np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


def synthesize(arr: np.ndarray, signed=True, axes=None,
               workspace: Workspace | None = None) -> np.ndarray:
    """Synthesize the given axes (default: every axis) of a Haar-layout
    array, in the order given (see ``synthesize_axis0``).  ``signed`` is
    one flag per axis of ``arr``, or a bool for every axis.  With a
    ``workspace``, the butterflies' scratch and the outputs of every axis
    but the last are taken from it.

    Returns a C-contiguous array of the same dtype, new unless ``axes`` is
    empty; ``arr`` is only read.
    """
    if isinstance(signed, bool):
        signed = (signed,) * arr.ndim
    axes = list(range(arr.ndim) if axes is None else axes)
    for i, axis in enumerate(axes):
        buffers = {}
        if workspace is not None:
            # laid out as the (size, pre, post) view of apply_along_axis0
            pre, size = math.prod(arr.shape[:axis]), arr.shape[axis]
            post = math.prod(arr.shape[axis + 1:])
            buffers["scratch"] = workspace.take(
                "scratch", (pre, size >> 1, post), arr.dtype).transpose(1, 0, 2)
            if i + 1 < len(axes):
                buffers["out"] = workspace.take(
                    ("out", i % 2), (pre, size, post), arr.dtype).transpose(1, 0, 2)
        arr = apply_along_axis0(synthesize_axis0, arr, axis, signed[axis],
                                **buffers)
    return arr


# ---------------------------------------------------------------------------
# LP / Orlicz diagnostics
# ---------------------------------------------------------------------------


def lp_profile(values: np.ndarray, sf_squared: np.ndarray, p_list) -> list[dict]:
    """Norms of an integer grid f and of S(f), given as ``sf_squared`` =
    S(f)**2, with the two-sided ratio estimates: one row per p, with the
    keys p, norm, square_function_norm, a_p = ||S(f)||_p / ||f||_p and
    b_p = ||f||_p / ||S(f)||_p.  S(f) is float64, each cell the correctly
    rounded float of its integer, rooted in place; the argument is dropped
    first, so a caller's temporary is freed by then."""
    ps = list(p_list)
    if not ps:
        raise ValueError("p_list must be nonempty")
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError("p_list must be strictly increasing")
    sf = sf_squared.astype(np.float64)
    del sf_squared
    np.sqrt(sf, out=sf)
    rows = []
    for p, nf in zip(ps, lp_norms(values, ps)):
        ns = float_lp_norm([sf], p)  # S(f) >= 0
        rows.append({"p": float(p), "norm": nf, "square_function_norm": ns,
                     "a_p": (ns / nf) if nf else float("nan"),
                     "b_p": (nf / ns) if ns else float("nan")})
    return rows


def orlicz_norm_estimate(values: np.ndarray, alpha: float, p_max: int) -> float:
    """max over integer p in [1, p_max] of p**(-1/alpha) * ||f||_p.

    This is the sup-over-p equivalent of the exponential-integrability norm,
    a surrogate that matches the true norm up to absolute constants; it is
    reported as such, never asserted against one.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    vals = np.abs(values.astype(np.float64))
    best = 0.0
    for p in range(1, p_max + 1):
        best = max(best, float(p) ** (-1.0 / alpha) * float_lp_norm([vals], p))
    return best

