"""Hyperbolic shape enumeration, r-functions, and hyperbolic Haar sums.

A *shape* is a tuple of d nonnegative levels summing to n; its rectangle
family (one rectangle per position tuple) tiles the unit cube with 2**n
congruent dyadic rectangles of volume 2**-n.  A coefficient field assigns a
scalar to every rectangle of every shape; it induces sign patterns
(sgn(0) := +1), r-functions, and the hyperbolic sum over all rectangles.

Fast exact construction: all rectangles of one shape occupy, per axis, the
contiguous Haar-spectrum block [2**r, 2**(r+1)), and distinct shapes occupy
disjoint tensor blocks.  A shape has one level per axis, so along any one
axis its synthesis is a plain repeat of each coefficient's -/+ pair.  A
whole hyperbolic sum is therefore placed already synthesized along one
axis and finished by a division-free synthesis of the other axes --
O(cells) integer work.  The same route with squared coefficients and
unsigned halves gives the squared square function S(H)**2 = sum of
alpha(R)**2 1_R, with no analysis of H, as a stream of slabs
(``square_function_slabs``).  Every whole sum is returned as a grid in
the sense of ``grid``: a C-contiguous integer ndarray over the scale 1.
``r_function`` is the one r-function provider: one shape's pair
expansion of its signs, axis by axis, with no butterfly.

The sum streams in axis-0 slabs (``shape_sum_slabs``); ``shape_sum_grid``
is its one-slab case.  Each axis is signed (Haar functions) or unsigned
(indicators of the same intervals): the square function is unsigned on
every axis, and the products of r-functions in ``coincidence`` are Haar
sums on their join shapes with a pattern of signed and unsigned axes.
A shape of level r needs grid level r + 1 on axis 0 (walked), on the
last axis (placed) and on every signed axis; an unsigned middle axis may
stop at r, and then ends in ``grid``'s leaf step (``_check_resolution``).
Integer sums place the last axis, one block of shapes at a time (the
shapes that share their levels on every other axis), and split axis 0 by
resolution: with 2**c slabs, each slab's base row is the sum of the
shapes of axis-0 level below c on its interval, taken from a depth-first
walk of those coarse levels that holds one row per level, and each slab
finishes from its base and the finer levels inside it.  Float sums place axis 0 and take a
slab as rows of that placement, so every float addition keeps the order
of a full-spectrum synthesis.  A stream reuses one workspace for its
per-slab buffers and yields each slab as a new array.  A sharpness
trial takes its sup over the slabs of the level-n grid of every shape but
the d corners n*e_j, plus one per corner (an identity for sign fields, see
``sharpness_experiment``), so an n=9, d=3 trial holds 8-row slabs of
2 MiB and a walk of 7 rows, never the 2**30 cells of its sum's own grid.
``lp-profile`` folds the slabs of H (twice: exact moments, then Orlicz
floats) and of S(H)**2 through ``grid``'s diagnostics: ``lp-profile --n 8``
runs in 1.1-1.3 s at 79 MB max RSS (one child each, 2-core AMD EPYC),
where the whole grids and their float64 copies took 7.0 s and 2227 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import grid
from .grid import InsufficientResolutionError, Resolution

Shape = tuple[int, ...]


def shape_count(n: int, d: int) -> int:
    """#H_n = C(n+d-1, d-1) -- compositions of n into d nonnegative parts."""
    return math.comb(n + d - 1, d - 1)


def enumerate_shapes(n: int, d: int) -> list[Shape]:
    """All compositions of n into d nonnegative parts, lexicographically
    descending: (n,0,..), ..., (0,..,n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if d not in (1, 2, 3):
        raise ValueError("d must be 1, 2 or 3")
    if d == 1:
        return [(n,)]
    out: list[Shape] = []
    for first in range(n, -1, -1):
        out.extend((first, *rest) for rest in enumerate_shapes(n - first, d - 1))
    return out


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


@dataclass(frozen=True)
class CoefficientField:
    """Map from rectangles of volume 2**-n (all shapes required) to scalars.

    ``values[shape]`` is an array of grid shape ``(2**r_1, ..., 2**r_d)``
    indexed by rectangle positions: integers in exact mode, float64 in
    float mode.  Extended fields may carry additional coarser shapes (level
    sum < n) for the d=2 inequality's right-hand side.
    """

    n: int
    d: int
    values: dict[Shape, np.ndarray]
    mode: str = "exact"

    def __post_init__(self) -> None:
        required = set(enumerate_shapes(self.n, self.d))
        present = set(self.values)
        if not required <= present:
            raise ValueError("field must cover every shape of the exact volume")
        for shape, arr in self.values.items():
            if len(shape) != self.d or any(r < 0 for r in shape):
                raise ValueError(f"bad shape key {shape}")
            if sum(shape) > self.n:
                raise ValueError(f"shape {shape} finer than volume 2**-{self.n}")
            if arr.shape != tuple(1 << r for r in shape):
                raise ValueError(f"values for {shape} have wrong shape {arr.shape}")
            if self.mode == "exact" and arr.dtype.kind not in "iu":
                raise ValueError(f"exact field needs integer values; {shape} "
                                 f"has dtype {arr.dtype}")
            if self.mode == "float" and arr.dtype != np.float64:
                raise ValueError(f"float field needs float64 values; {shape} "
                                 f"has dtype {arr.dtype}")

    @property
    def exact_volume_shapes(self) -> list[Shape]:
        return enumerate_shapes(self.n, self.d)

    @property
    def coarse_shapes(self) -> list[Shape]:
        return sorted((s for s in self.values if sum(s) < self.n), reverse=True)

    def abs_sum(self):
        """Sum of |alpha(R)| over the exact-volume rectangles: a Python int
        from ``grid.abs_power_sums`` of all their values as one chunk for
        ints (``object`` where uint64 would meet a signed width in float64),
        a float per shape for floats."""
        arrays = [self.values[shape] for shape in self.exact_volume_shapes]
        if self.mode == "float":
            return sum(float(np.sum(np.abs(arr))) for arr in arrays)
        dtype = np.result_type(*arrays)
        values = np.concatenate([arr.reshape(-1) for arr in arrays],
                                dtype=dtype if dtype.kind in "iu" else object)
        return grid.abs_power_sums([values], [1])[0][0]

    @classmethod
    def random_signs(cls, n: int, d: int, seed_or_rng) -> "CoefficientField":
        rng = _as_rng(seed_or_rng)
        vals = {
            s: (rng.integers(0, 2, size=tuple(1 << r for r in s), dtype=np.int8) * 2 - 1)
            .astype(np.int64)
            for s in enumerate_shapes(n, d)
        }
        return cls(n, d, vals, "exact")

    @classmethod
    def random_integers(cls, n: int, d: int, seed_or_rng) -> "CoefficientField":
        """Integer-valued field in [-3, 3], zeros included (exercises
        sgn(0))."""
        rng = _as_rng(seed_or_rng)
        vals = {
            s: rng.integers(-3, 4, size=tuple(1 << r for r in s), dtype=np.int64)
            for s in enumerate_shapes(n, d)
        }
        return cls(n, d, vals, "exact")

    @classmethod
    def random_normal(cls, n: int, d: int, seed_or_rng) -> "CoefficientField":
        rng = _as_rng(seed_or_rng)
        vals = {
            s: rng.standard_normal(tuple(1 << r for r in s))
            for s in enumerate_shapes(n, d)
        }
        return cls(n, d, vals, "float")


def add_coarse_random(field: CoefficientField, seed_or_rng) -> CoefficientField:
    """Extended field: add integer coefficients in [-3, 3] on every coarser
    shape (level sum < n).  Used by the d=2 product verification, whose
    identity must be unchanged by any such extension."""
    rng = _as_rng(seed_or_rng)
    vals = dict(field.values)
    for total in range(field.n):
        for s in enumerate_shapes(total, field.d):
            vals[s] = rng.integers(-3, 4, size=tuple(1 << r for r in s),
                                   dtype=np.int64)
    return CoefficientField(field.n, field.d, vals, field.mode)


def signs_of(values: np.ndarray) -> np.ndarray:
    """Sign pattern with the sgn(0) := +1 tie-break."""
    return np.where(values >= 0, 1, -1).astype(np.int8)


def minimal_resolution(shapes, d: int | None = None) -> Resolution:
    """Coarsest grid that represents every Haar function of the given shapes:
    per axis, (max level over shapes) + 1."""
    shapes = list(shapes)
    if not shapes:
        raise ValueError("no shapes given")
    if d is None:
        d = len(shapes[0])
    levels = tuple(max(s[axis] for s in shapes) + 1 for axis in range(d))
    return Resolution(levels)


def field_resolution(field: CoefficientField) -> Resolution:
    return minimal_resolution(field.values.keys(), field.d)


def _check_resolution(resolution: Resolution, shapes, signed) -> None:
    """Refuse a grid too coarse for a shape sum: level r + 1 for a shape's
    r on axis 0, on the last axis and on every signed axis (one flag per
    axis in ``signed``), and r on an unsigned middle axis."""
    ends = (0, resolution.d - 1)
    for s in shapes:
        for axis, r in enumerate(s):
            need = r + (signed[axis] or axis in ends)
            if resolution.levels[axis] < need:
                raise InsufficientResolutionError(
                    f"insufficient resolution: axis {axis} level "
                    f"{resolution.levels[axis]} < {need} needed by shape {s}"
                )


def _pairs(values: np.ndarray, signed: bool, dtype, axis: int) -> np.ndarray:
    """The synthesis of each coefficient c of ``values`` at its own level
    along ``axis``: the pair (-c, +c) (+c twice unless ``signed``), in
    ``dtype`` and interleaved, so that axis is twice as long.  The
    negation is taken at ``dtype``, whose width holds it and every value
    (Python ints included, so their cast is exact)."""
    pair = np.empty(values.shape[:axis + 1] + (2,) + values.shape[axis + 1:],
                    dtype)
    half = (slice(None),) * (axis + 1)
    if signed:
        np.negative(values, out=pair[half + (0,)], dtype=dtype,
                    casting="unsafe")
    else:
        pair[half + (0,)] = values
    pair[half + (1,)] = values
    return pair.reshape(values.shape[:axis] + (-1,) + values.shape[axis + 1:])


def _placed(shape_values: dict[Shape, np.ndarray], resolution: Resolution,
            signed: bool, out: np.ndarray, lo: int) -> np.ndarray:
    """Add rows ``[lo, lo + len(out))`` of the shape sum synthesized along
    axis 0 only, the other axes still in Haar layout, into ``out``, and
    return it.  A shape has one level r on axis 0, so there its synthesis
    is no butterfly: coefficient c becomes -c on the left half of its
    interval and +c on the right half (+c on both unless ``signed``), each
    repeated ``2**(m-r-1)`` times, m the level of axis 0.  Shapes are added
    in the order of ``shape_values``, ascending in axis-0 level: the order
    in which the butterfly adds them."""
    rows = np.arange(lo, lo + len(out))
    for shape, values in shape_values.items():
        block = tuple(slice(1 << q, 2 << q) for q in shape[1:])
        pair = _pairs(values, signed, out.dtype, 0)
        out[(slice(None),) + block] += pair[rows >> (resolution.levels[0]
                                                     - shape[0] - 1)]
    return out


def _last_axis_blocks(shape_values: dict[Shape, np.ndarray],
                      resolution: Resolution) -> dict:
    """The shapes of a sum that places its last axis, by axis-0 level and
    then by the levels of the middle axes, whose shapes all add into one
    block: ``{level: [(middle slices, repeats, [values])]}``.  ``repeats``
    gives each entry of the block's pairs, laid end to end along the last
    axis, its count ``2**(m-r-1)``: m the last axis's level, r its shape's."""
    m = resolution.levels[-1]
    heads: dict = {}
    for shape, values in shape_values.items():
        heads.setdefault(shape[0], {}).setdefault(shape[1:-1], []).append(
            (shape[-1], np.asarray(values)))
    return {level: [(tuple(slice(1 << q, 2 << q) for q in middle),
                     np.repeat([1 << (m - r - 1) for r, _ in members],
                               [2 << r for r, _ in members])
                     if len(members) > 1 else 1 << (m - members[0][0] - 1),
                     [values for _, values in members])
                    for middle, members in blocks.items()]
            for level, blocks in heads.items()}


def _placed_last(blocks, level: int, signed: bool, out: np.ndarray,
                 lo: int) -> None:
    """Add rows ``[lo, lo + len(out))`` of axis 0, in Haar layout, of the
    sum of the shapes of axis-0 level ``level`` synthesized along the last
    axis only (``blocks``, one entry of ``_last_axis_blocks``) into
    ``out``.  The level's shapes occupy the Haar rows
    ``[2**level, 2**(level+1))``, and only the part inside the window is
    written.  Along the last axis a shape's synthesis is its pairs (see
    ``_placed``) repeated, so one block takes its shapes' pairs end to
    end, one ``repeat`` of them all and one add of their sum: a write per
    shape cost several times more in numpy calls, and a strided write of
    rep-long inner loops more again."""
    base = 1 << level
    first, last = max(lo, base), min(lo + len(out), 2 * base)
    if first >= last:
        return
    rows = slice(first - base, last - base)
    for middle, repeats, members in blocks:
        target = out[(slice(first - lo, last - lo),) + middle]
        values = (np.concatenate([v[rows] for v in members], axis=-1)
                  if len(members) > 1 else members[0][rows])
        expanded = _pairs(values, signed, out.dtype, values.ndim - 1).repeat(
            repeats, axis=-1)
        if len(members) > 1:
            expanded = expanded.reshape(target.shape[:-1] + (len(members), -1)
                                        ).sum(axis=-2, dtype=out.dtype)
        target += expanded.reshape(target.shape)


def slab_rows(resolution: Resolution) -> int:
    """The default rows of a ``shape_sum_slabs`` slab: as many as fit in
    ``grid.SLAB_CELLS`` cells, but at least 8 (or the whole axis 0), which
    bounds the integer sums' extra row work per slab."""
    return min(1 << resolution.levels[0],
               max(grid.SLAB_CELLS >> sum(resolution.levels[1:]), 8))


def shape_sum_slabs(shape_values: dict[Shape, np.ndarray], resolution: Resolution,
                    signed=True, rows: int | None = None,
                    workspace: grid.Workspace | None = None):
    """Sum over shapes of the Haar sums with the given per-rectangle
    coefficients, evaluated on the grid and yielded as successive
    C-contiguous axis-0 slabs of ``rows`` rows, a power of two (by default
    ``slab_rows``: as many as fit in ``grid.SLAB_CELLS`` cells, at least
    8).  One axis is synthesized as the coefficients are placed
    (``_placed`` or ``_placed_last``), the others by ``grid.synthesize``.  ``signed`` is one
    flag per axis, or a bool for every axis: an unsigned axis takes each
    coefficient's indicator of its interval in place of its Haar function.

    A middle axis where some shape's level equals the grid's (unsigned,
    by ``_check_resolution``) holds one level more in the slab's Haar
    column and is synthesized first, by ``grid``'s leaf step, so the axes
    after it work on the slab's own cells.

    Float coefficients give float64.  Integer ones give ``grid.int_dtype``
    of the sum over shapes of ``max|values|``: every placed or butterfly
    partial sum is a sum of at most one coefficient per shape, so none can
    wrap, and a coefficient of -2**(b-1) forces a width past b bits, so its
    negation cannot wrap either.

    Integer sums are exact in any order and place the last axis, whose
    butterfly levels write with stride 2 in short inner loops.  With m0
    the level of axis 0, rows = 2**j and c = m0 - j, slab b is the level-c
    interval b of axis 0.  Its Haar column is a base row, the sum of the
    shapes of axis-0 level below c on that interval, followed for t < j by
    the level-(c+t) rows ``2**(c+t) + b*2**t`` onward, ``2**t`` of them;
    one butterfly along axis 0 and the middle axes finish the slab.  The
    bases come from a depth-first walk of axis 0's coarse levels, which
    holds one row per level: ``partial[k]`` is the sum of the shapes of
    axis-0 level below k on the level-k interval ``b >> (c-k)``.  Moving
    to slab b refreshes the depths whose interval changed (k >= c minus
    the trailing zeros of b).  A left child is its parent minus the placed
    Haar row ``2**(k-1) + (b >> (c-k+1))`` of level k-1 (plus, on an
    unsigned axis 0); a right child recovers that row as parent minus left
    and adds it to the parent, so each Haar row is placed once.

    Float sums place axis 0, the butterfly's first axis, so a slab is just
    rows of that placement (so are d=1 integer sums, whose last axis is
    axis 0): in ascending axis-0 level the placement repeats the
    butterfly's additions one for one, and the later axes run in the same
    order within each row, so every float rounds as it would in a
    full-spectrum synthesis, whatever the slab size.

    Each yielded slab is a new array.  The slab's Haar column, the
    butterflies' scratch and all outputs but the last are taken from
    ``workspace`` (by default one of the stream's own), so a stream does
    not allocate them afresh for every slab.  Streams that one consumer
    advances in turn may share a workspace, since each uses it only
    within one ``next``; streams in different threads must not.

    Peak memory: the walk's ``c + 1`` rows (``cells / 2**m0`` cells each)
    and about 3.5 slabs -- the workspace's Haar column, axis-0 output and
    half-size scratch, and the new slab -- plus the previous slab if the
    caller still holds it; a leaf doubles the column and the walk rows.
    At levels 9, 9, 9 (int8; the whole sum is 128 MiB), the grid of an
    n=9, d=3 sharpness trial, that is 8-row slabs of 2 MiB and 7 walk rows
    of 256 KiB: the trial's traced peak is 9.0 MiB, where 16-row slabs
    beside a 32-row coarse block of 8 MiB took 22.2 MiB at these levels.
    """
    if isinstance(signed, bool):
        signed = (signed,) * resolution.d
    _check_resolution(resolution, shape_values.keys(), signed)
    if any(np.asarray(v).dtype.kind == "f" for v in shape_values.values()):
        dtype, axis = np.float64, 0
    else:
        dtype = grid.int_dtype(sum(grid.max_abs(v) for v in shape_values.values()))
        axis = resolution.d - 1
    leaves = [b for b in range(1, resolution.d - 1)
              if any(s[b] == resolution.levels[b] for s in shape_values)]
    m0 = resolution.levels[0]
    rest = tuple(size << (b in leaves)
                 for b, size in enumerate(resolution.grid_shape) if b)
    if rows is None:
        rows = slab_rows(resolution)
    if rows < 1 or rows & (rows - 1) or rows > 1 << m0:
        raise ValueError(f"rows={rows} must be a power of two up to {1 << m0}")
    if workspace is None and rows < 1 << m0:
        workspace = grid.Workspace()
    j = rows.bit_length() - 1
    others = leaves + [b for b in range(resolution.d)
                       if b != axis and b not in leaves]

    def zeros() -> np.ndarray:
        # a slab's Haar column; new when it is the slab itself or when
        # there is no workspace, so that ``synthesize`` frees it early
        if workspace is None or not others:
            return np.zeros((rows,) + rest, dtype)
        col = workspace.take("column", (rows,) + rest, dtype)
        col[...] = 0
        return col

    if axis == 0:
        # in ascending axis-0 level, the butterfly's order
        shape_values = {s: np.asarray(v) for s, v in
                        sorted(shape_values.items(), key=lambda kv: kv[0][0])}
        for lo in range(0, 1 << m0, rows):
            yield grid.synthesize(_placed(shape_values, resolution, signed[0],
                                          zeros(), lo),
                                  signed, others, workspace, leaves)
        return
    c = m0 - j
    by_level = _last_axis_blocks(shape_values, resolution)
    partial = np.zeros((c + 1,) + rest, dtype)

    def column(b: int) -> np.ndarray:
        # the depths whose interval changed: every one at b = 0, else
        # k >= c minus the trailing zeros of b
        for k in range(c - (b & -b).bit_length() + 1 if b else 1, c + 1):
            parent, row = partial[k - 1], partial[k]
            if b >> (c - k) & 1:  # right child; row holds the left one
                if signed[0]:
                    np.subtract(parent, row, out=row)
                    row += parent
                continue
            row[...] = 0
            _placed_last(by_level.get(k - 1, ()), k - 1, signed[axis],
                         partial[k:k + 1], (1 << (k - 1)) + (b >> (c - k + 1)))
            if signed[0]:
                np.subtract(parent, row, out=row)
            else:
                row += parent
        col = zeros()
        col[0] = partial[c]
        for t in range(j):
            _placed_last(by_level.get(c + t, ()), c + t, signed[axis],
                         col[1 << t:2 << t], (1 << (c + t)) + (b << t))
        return col

    # each column is passed inline, so that without a workspace
    # ``synthesize`` holds its only reference and frees it after one axis
    for b in range(1 << c):
        yield grid.synthesize(column(b), signed, others, workspace, leaves)


def shape_sum_grid(shape_values: dict[Shape, np.ndarray], resolution: Resolution,
                   signed=True) -> np.ndarray:
    """The whole shape sum on the grid: ``shape_sum_slabs`` with one slab.

    Integer sums: with c = 0 the base row is row 0 of the placement,
    which no shape reaches, so the slab's Haar column is the whole
    placement along the last axis, synthesized along every other axis.
    One slab reuses nothing, so it takes no workspace, and the column is
    freed as soon as axis 0 is synthesized.
    Float sums: the slab is the whole placement along axis 0, whose
    additions, in ascending axis-0 level, are the butterfly's own, so every
    float rounds as in a full-spectrum synthesis.  See ``shape_sum_slabs``
    for the widths and the split of axis 0.
    """
    return next(shape_sum_slabs(shape_values, resolution, signed,
                                1 << resolution.levels[0]))


def square_function_slabs(field: CoefficientField):
    """The axis-0 slabs of S(H)**2 of the field's hyperbolic sum H (coarse
    shapes included), on the field's minimal grid: sum over all rectangles
    of alpha(R)**2 1_R, the unsigned ``shape_sum_slabs`` of the squared
    coefficients.  Each square is taken in ``grid.int_dtype`` of its peak,
    so squares past int64 are Python ints, never wrapped.  A float field
    is refused here, before any slab: grids are exact."""
    if field.mode != "exact":
        raise ValueError("grids are exact: this needs an integer field")
    squares = {}
    for shape, values in field.values.items():
        wide = values.astype(grid.int_dtype(grid.max_abs(values) ** 2), copy=False)
        squares[shape] = wide * wide
    return shape_sum_slabs(squares, field_resolution(field), signed=False)


def r_function(signs: np.ndarray, shape: Shape, levels) -> np.ndarray:
    """The r-function of one shape with the given rectangle signs, on the
    grid of ``levels`` per axis, at the signs' dtype.  A shape has one
    level r per axis, so on an axis of level m > r its synthesis is a pair
    expansion: each sign c becomes (-c, +c), each entry repeated
    2**(m-r-1) times.  An axis with m = r keeps c, the value on the right
    half of each interval, where its Haar function is +1.  Below r the
    grid cannot hold the shape's rectangles."""
    out = signs
    for axis, (r, m) in enumerate(zip(shape, levels)):
        if m < r:
            raise InsufficientResolutionError(
                f"insufficient resolution: axis {axis} level {m} < {r} "
                f"needed by shape {shape}")
        if m > r:
            out = _pairs(out, True, out.dtype, axis)
            if m > r + 1:
                out = out.repeat(1 << (m - r - 1), axis=axis)
    return out


# ---------------------------------------------------------------------------
# reports and experiments
# ---------------------------------------------------------------------------


def sharpness_experiment(n_values, d: int, trials: int, seed: int,
                         threads: int = 1) -> dict:
    """Random-sign hyperbolic sums: per-n mean sup norm (exact per trial),
    the per-trial coefficient-sum check, and the fitted growth exponent of
    the mean sup norm against n.  Per-trial RNG streams are derived from
    (seed, n, trial), so results do not depend on execution order or the
    thread count.

    A trial streams the level-n grid, not the sum's own level n + 1, by an
    identity that holds for sign fields: sup |f| = max |x| over the
    level-n grid + #corners (d for n >= 1), where x sums every shape but
    the corners n*e_j.  Each other shape has level at most n - 1 on every
    axis, so x is constant on a level-n cell.  There the corner n*e_j is
    +-1 times a Haar function of axis j's finest bit (its level-0 factors
    are constant for n >= 1), and those d bits are independent, so some
    child of the cell gives every corner the sign of x."""
    if isinstance(n_values, int):
        n_values = [n_values]
    n_values = sorted(n_values)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # every n's grid, so that an oversize n is refused before any trial
    resolutions = [Resolution.uniform(n, d) for n in n_values]
    per_n = []
    for n, res in zip(n_values, resolutions):
        count = shape_count(n, d)
        corners = {tuple(n * (a == j) for a in range(d)) for j in range(d)}

        def one_trial(t: int, n=n, res=res, count=count, corners=corners):
            field = CoefficientField.random_signs(n, d, (seed, n, t))
            ok = Fraction(field.abs_sum(), 1 << n) == count
            rest = {s: v for s, v in field.values.items() if s not in corners}
            # map holds no slab while the stream builds the next one
            return max(map(grid.max_abs, shape_sum_slabs(rest, res))) \
                + len(corners), ok

        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(one_trial, range(trials)))
        else:
            results = [one_trial(t) for t in range(trials)]
        sups = np.array([r[0] for r in results], dtype=np.int64)
        coeff_ok = all(r[1] for r in results)
        per_n.append({
            "n": n,
            "mean_sup": float(np.mean(sups)),
            "min_sup": int(np.min(sups)),
            "max_sup": int(np.max(sups)),
            "shape_count": count,
            "coeff_sum_ok": bool(coeff_ok),
        })
    exponent = None
    if len(n_values) >= 2:
        xs = np.log([row["n"] for row in per_n])
        ys = np.log([row["mean_sup"] for row in per_n])
        exponent = float(np.polyfit(xs, ys, 1)[0])
    return {
        "d": d,
        "trials": trials,
        "seed": seed,
        "per_n": per_n,
        "fitted_exponent": exponent,
    }
