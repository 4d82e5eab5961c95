"""Point sets in the unit cube and their discrepancy function.

``D_N(x) = #(A ∩ [0, x)) - N * vol[0, x)`` for half-open anchored boxes.
Coordinates are integers, ``nums[i, j] / dens[j]`` (over b^m for radical
inverses, 2^53 for random floats, the lcm of exact denominators for user
input).  One kernel counts points in the boxes at all corners of a grid,
in axis-0 slabs, on the volumes' scale: per axis it scales points and
corners to the lcm of their denominators and places them with
``searchsorted``, once for the closed and the strict count; per slab each
occupied line is one ``np.repeat`` of its sorted points, and the lines
and rows that hold a point are summed, carrying the last row into the
next slab.  Integers take ``grid.int_dtype`` of their bound
(that lcm, or N times the corner denominators' product): Python ints only
past int64.  One fold of the slabs gives the sup: the running max of the
closed-count value (the limit from above) and min of the strict-count one
(attained), so no grid-sized array is allocated.  Its corners make it
exact (per axis the coordinates with 0 and 1, sorted and deduplicated by
``_distinct``, as ``np.unique`` would without loading ``numpy.ma``) or,
for large sets, a labeled grid-scan lower bound (k/2^level).  L^p norms
are estimated by midpoint sampling with the volume-term modulus recorded:
the midpoint grid streams through the same count slabs into
``grid.float_lp_norm``, whose tree of slab sums equals ``np.mean`` over
the whole grid bit for bit.  Slabs are ``_SLAB_CELLS`` cells, so the
fold's peak is the per-point sort of the count kernel plus a few slabs."""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from . import grid
from .grid import BudgetExceededError, GridTooLargeError, Resolution

#: Largest N for which the exact corner enumeration runs by default.  It
#: does not bound memory, since the corners stream: it keeps the default
#: outputs (raising it moves the scan rows to exact ones) and bounds the
#: O((N+2)^d) work.
EXACT_SUP_CAP = {2: 100, 3: 40}

#: Cells per axis-0 slab of the sup's fold and of the L^p estimate (128 KiB
#: per int64 array, so a slab's count and volume arrays stay in L2); a slab
#: holds at least one row.  The discrepancy benchmark workload (vdc,
#: N = 2..16384; medians of 5 alternating runs on a 2-core Xeon), its
#: eight level-10 scans in process (min-max of 3 runs after a warm-up) and
#: the traced peak of the N=16384 scan:
#:
#:     cells   wall_s   peak_rss_mb   eight scans      traced peak
#:     2^16    0.241    33.44         0.065-0.085 s    1.81 MiB
#:     2^15    0.223    32.66         0.067-0.085 s    1.06 MiB
#:     2^14    0.219    32.41         0.061-0.062 s    0.69 MiB
#:     2^13    0.284    32.42         0.096-0.113 s    0.53 MiB
_SLAB_CELLS = 1 << 14


class PointSet:
    """N points in [0,1)^d; coordinate j of point i is ``nums[i, j] / dens[j]``.
    ``points`` keeps user coordinates as given; for a set built from ``nums``
    it is derived on first use (floats if ``floats``, else Fractions)."""

    def __init__(self, d: int, points, provenance: str = "user", *,
                 nums=None, dens=(), floats: bool = False):
        if d not in (2, 3):
            raise ValueError("d must be 2 or 3")
        if nums is None:
            if not points or any(len(p) != d for p in points):
                raise ValueError(f"need one or more points of dimension {d}")
            try:
                cols = [[Fraction(c) for c in col] for col in zip(*points)]
            except OverflowError:
                raise ValueError("point coordinates must be finite") from None
            dens = [math.lcm(*(c.denominator for c in col)) for col in cols]
            nums = np.array([[c.numerator * (q // c.denominator) for c in col]
                             for col, q in zip(cols, dens)], dtype=object).T
        self.d, self.dens, self.provenance = d, tuple(dens), provenance
        self._points, self._floats = points, floats
        dens_arr = np.array(self.dens, dtype=grid.int_dtype(max(self.dens)))
        bad = ((nums < 0) | (nums >= dens_arr)).any(axis=1)
        if bad.any():
            raise ValueError(
                f"point {self.points[int(np.argmax(bad))]} outside [0,1)^d")
        self.nums = nums.astype(dens_arr.dtype, copy=False)

    @property
    def points(self) -> tuple:
        if self._points is None:
            coord = (lambda k, q: k / q) if self._floats else Fraction
            self._points = tuple(tuple(map(coord, row, self.dens))
                                 for row in self.nums.tolist())
        return self._points

    @property
    def n(self) -> int:
        return len(self.nums)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _radical_inverses(n: int, base: int) -> tuple[np.ndarray, int]:
    """Base-b radical inverses of 0..n-1 as numerators over b^m, the
    fewest digits that write n - 1: a digit loop over all points at once."""
    den, digits = 1, 0
    while den < n:
        den, digits = den * base, digits + 1
    q, num = np.arange(n), np.zeros(n, dtype=grid.int_dtype(den))
    for _ in range(digits):
        q, digit = np.divmod(q, base)
        num = num * base + digit
    return num, den


def van_der_corput(n: int) -> PointSet:
    """d=2: point i is (i/N, base-2 radical inverse of i) -- exact rationals."""
    if n < 1:
        raise ValueError("N must be at least 1")
    rev, den = _radical_inverses(n, 2)
    return PointSet(2, None, "vdC", nums=np.column_stack([np.arange(n), rev]),
                    dens=(n, den))


def halton(n: int, bases=(2, 3, 5)) -> PointSet:
    """Radical-inverse sequence in pairwise coprime bases, one per axis."""
    if n < 1:
        raise ValueError("N must be at least 1")
    bases = tuple(bases)
    if min(bases) < 2 or math.lcm(*bases) != math.prod(bases):
        raise ValueError(f"bases {bases} must be pairwise coprime and >= 2")
    nums, dens = zip(*(_radical_inverses(n, b) for b in bases))
    return PointSet(len(bases), None, "Halton", nums=np.column_stack(nums),
                    dens=dens)


def random_points(n: int, d: int, seed: int) -> PointSet:
    """Uniform floats; each is k * 2^-53 for an integer k, stored over 2^53."""
    if n < 1:
        raise ValueError("N must be at least 1")
    rng = np.random.default_rng(seed)
    nums = (rng.random((n, d)) * 2.0 ** 53).astype(np.int64)
    return PointSet(d, None, f"random({seed})", nums=nums,
                    dens=(1 << 53,) * d, floats=True)


GENERATORS = {"vdc": van_der_corput, "halton": halton, "random": random_points}


# ---------------------------------------------------------------------------
# supremum
# ---------------------------------------------------------------------------


def discrepancy_sup(a: PointSet, approximate: bool = False,
                    grid_level: int = 10, cap: int | None = None) -> dict:
    """Exact sup/inf of D over the unit cube (see module docstring), or a
    labeled grid-scan lower bound when the set is too large and
    ``approximate`` is set: the same fold over other corners."""
    limit = cap if cap is not None else EXACT_SUP_CAP[a.d]
    if a.n <= limit:
        nums = [_distinct(np.append(a.nums[:, j], np.array([0, q], a.nums.dtype)))
                for j, q in enumerate(a.dens)]
        (sup, sup_idx), (inf, inf_idx) = _extremes(a, nums, a.dens)
        corner_sup, corner_inf = (
            tuple(Fraction(int(c[i]), q) for c, i, q in zip(nums, idx, a.dens))
            for idx in (sup_idx, inf_idx))
        return {"n": a.n, "d": a.d, "mode": "exact", "sup": sup, "inf": inf,
                "sup_abs": max(sup, -inf), "corner_sup": corner_sup,
                "corner_inf": corner_inf}
    if not approximate:
        raise BudgetExceededError(
            f"N={a.n} exceeds the exact-sup cap {limit}; "
            "pass approximate=True for a sampled lower bound"
        )
    _check_grid_level(grid_level, a.d)
    g = 1 << grid_level
    (sup, _), (inf, _) = _extremes(a, [np.arange(1, g + 1)] * a.d, [g] * a.d)
    sup, inf = float(sup), float(inf)  # exact while N * g^d < 2^53
    return {"n": a.n, "d": a.d, "mode": "scan-lower-bound",
            "grid_level": grid_level, "sup": sup, "inf": inf,
            "sup_abs": max(sup, -inf), "gap_bound": a.n * a.d / g}


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-d integer or Python-int array, as
    ``np.unique`` gives them, from one sort and a mask of the entries that
    differ from their left neighbour (``np.unique`` loads ``numpy.ma``)."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _extremes(a: PointSet, corner_nums, corner_dens):
    """(max, index) of the closed-count values (the limit of D from above)
    and (min, index) of the strict-count ones (D itself) over the corner
    grid of ``_count_slabs``, each at its first index in C order, as
    Fractions.  One stream of both counts folds slab by slab into
    D * prod(corner_dens) as integers, in place."""
    shape = tuple(len(c) for c in corner_nums)
    row_cells = math.prod(shape[1:])
    rows = max(1, _SLAB_CELLS // row_cells)
    den = math.prod(corner_dens)
    counts = _count_slabs(a, corner_nums, corner_dens, (False, True), rows)
    vols = _volume_slabs(a.n, corner_nums, rows, grid.int_dtype(a.n * den))
    best = [None, None]  # (value, flat index) of the max and of the min
    for lo, vol in zip(range(0, shape[0], rows), vols):
        for i, (slab, arg, better) in enumerate(zip(
                next(counts), (np.argmax, np.argmin), (operator.gt, operator.lt))):
            slab -= vol  # D * den, in place
            k = int(arg(slab))  # the first extreme in C order
            # a later slab wins only when strictly better
            if best[i] is None or better(slab.flat[k], best[i][0]):
                best[i] = (int(slab.flat[k]), lo * row_cells + k)
        del slab  # before the stream makes its next slabs
    (sup, i), (inf, j) = best
    return ((Fraction(sup, den), np.unravel_index(i, shape)),
            (Fraction(inf, den), np.unravel_index(j, shape)))


def _volume_slabs(n: int, corner_nums, rows: int, dtype):
    """N * vol[0, x) * prod(corner_dens) at ``dtype`` at the corners whose
    axis j holds the numerators ``corner_nums[j]``, as the axis-0 slabs of
    ``_count_slabs`` in one reused buffer; the factors are cast once."""
    head = corner_nums[0].astype(dtype) * n
    tail = np.ones((), dtype)
    for c in corner_nums[1:]:
        tail = np.multiply.outer(tail, c.astype(dtype))
    workspace = grid.Workspace()
    for lo in range(0, len(head), rows):
        x = head[lo:lo + rows]
        vol = workspace.take("vol", x.shape + tail.shape, dtype)
        yield np.multiply.outer(x, tail, out=vol)


def _count_slabs(a: PointSet, corner_nums, corner_dens, stricts, rows: int):
    """#points inside the box at every corner of the grid whose axis j holds
    the sorted corners ``corner_nums[j] / corner_dens[j]``, times
    prod(corner_dens) at ``grid.int_dtype`` of N times it, as successive
    axis-0 slabs of ``rows`` rows (the last may be shorter), one per flag of
    ``stricts`` in each tuple: strict counts p_j < corner_j, non-strict
    p_j <= corner_j (the limit from above).  A point past an axis's last
    corner is in no box.  Each axis places the points once for every flag,
    scaled to the lcm (which picks the dtype); each flag sorts once."""
    shape = tuple(len(c) for c in corner_nums)
    den = math.prod(corner_dens)
    # those of points past a last corner are dropped, but must not wrap
    flats = [np.zeros(a.n, grid.int_dtype(math.prod(s + 1 for s in shape)))
             for _ in stricts]
    inside = [np.ones(a.n, bool) for _ in stricts]
    for j, (cnums, cden) in enumerate(zip(corner_nums, corner_dens)):
        lcm = math.lcm(a.dens[j], cden)
        dtype = grid.int_dtype(lcm)
        pts = a.nums[:, j].astype(dtype) * (lcm // a.dens[j])
        corners = cnums.astype(dtype) * (lcm // cden)
        for flat, ins, strict in zip(flats, inside, stricts):
            pos = np.searchsorted(corners, pts, side="right" if strict else "left")
            ins &= pos < shape[j]
            flat *= shape[j]
            flat += pos
        del pts, pos  # per point: only the sorted flat indices stay
    for k, (flat, ins) in enumerate(zip(flats, inside)):
        flats[k] = flat[ins]
        flats[k].sort()
    del flat, inside
    row_cells = math.prod(shape[1:])
    starts = range(0, shape[0], rows)
    cuts = [np.searchsorted(flat, [lo * row_cells for lo in starts]
                            + [shape[0] * row_cells]) for flat in flats]
    carries = [np.zeros(row_cells, grid.int_dtype(a.n * den))] * len(stricts)
    for s, lo in enumerate(starts):
        hi = min(lo + rows, shape[0])
        slabs = []
        for k, (flat, cut) in enumerate(zip(flats, cuts)):
            slabs.append(_slab_counts(flat[cut[s]:cut[s + 1]] - lo * row_cells,
                                      hi - lo, shape, carries[k], den))
            # a copy: the slab is the caller's to change or free
            carries[k] = slabs[-1][-1].copy()
        yield tuple(counts.reshape((hi - lo,) + shape[1:]) for counts in slabs)
        del slabs  # the consumer's to free before the next are made


def _slab_counts(flat: np.ndarray, rows: int, shape, carry,
                 den: int) -> np.ndarray:
    """``den`` times the counts of a slab of ``rows`` rows, as (rows, row
    cells), from its points' sorted flat indices and the row before it,
    ``carry``.  An occupied line (last axis) is a step function: the
    running count by one ``np.repeat``, less the count before the line.
    The middle axis (d=3), from 0 in each row, and the rows, from
    ``carry``, are summed over occupied lines and rows, an empty one
    repeating the state before it."""
    size, mid = shape[-1], math.prod(shape[1:-1])
    line = flat // size
    new = np.empty(len(flat), bool)
    new[:1] = True
    np.not_equal(line[1:], line[:-1], out=new[1:])
    starts = np.flatnonzero(new)  # each occupied line's first point
    row = line[starts]
    if len(starts) < rows * mid:  # index the occupied lines alone
        flat = flat - (line - np.cumsum(new) + 1) * size
    running = np.arange(len(flat) + 1, dtype=carry.dtype) * den
    counts = np.repeat(running, _runs(flat, len(starts) * size))
    counts = counts.reshape(len(starts), size)
    counts -= running[starts][:, None]
    if mid > 1:
        row, k = np.divmod(row, mid)
        first = np.ones(len(row), bool)
        first[1:] = row[1:] != row[:-1]
        for i in np.flatnonzero(~first):
            counts[i] += counts[i - 1]
        firsts = np.flatnonzero(first)
        if len(k) < len(firsts) * mid:
            ends = np.append(k[1:], mid)
            ends[firsts[1:] - 1] = mid
            counts = np.repeat(np.insert(counts, firsts, 0, axis=0),
                               np.insert(ends - k, firsts, k[firsts]), axis=0)
        row = row[firsts]
    counts = counts.reshape(len(row), mid * size)
    state = carry
    for plane in counts:
        plane += state
        state = plane
    if len(row) < rows:
        counts = np.repeat(np.concatenate([carry[None], counts]),
                           _runs(row, rows), axis=0)
    return counts


def _runs(marks: np.ndarray, end: int) -> np.ndarray:
    """The run lengths from 0 to the sorted ``marks`` and on to ``end``."""
    bounds = np.empty(len(marks) + 2, np.intp)
    bounds[0], bounds[1:-1], bounds[-1] = 0, marks, end
    return bounds[1:] - bounds[:-1]


def _check_grid_level(grid_level: int, d: int) -> None:
    """Refuse a grid of 2^(grid_level*d) corners before starting, naming the
    corner count and the level that would fit.  The scan streams its grid,
    so for it the cap bounds work, not memory."""
    try:
        Resolution.uniform(grid_level, d)
    except GridTooLargeError as exc:
        raise GridTooLargeError(
            f"{exc}: --grid-level {grid_level} in d={d} scans "
            f"{1 << (grid_level * d)} corners; "
            f"--grid-level {grid.MAX_TOTAL_LEVEL // d} or lower fits"
        ) from None


# ---------------------------------------------------------------------------
# L^p and scaling
# ---------------------------------------------------------------------------


def discrepancy_lp(a: PointSet, p: float, grid_level: int = 8) -> dict:
    """L^p norm of D estimated at cell midpoints of a 2^(level*d) grid.

    The reported ``modulus_bound`` N * d * 2^-level covers the volume
    term's variation across a cell (the count term is piecewise constant;
    cells cut by a point's coordinate slab may deviate further)."""
    if p < 1:
        raise ValueError("p must be at least 1")
    _check_grid_level(grid_level, a.d)
    g = 1 << grid_level
    return {"n": a.n, "d": a.d, "p": p, "grid_level": grid_level,
            "value": grid.float_lp_norm(_midpoint_slabs(a, g), [p])[0],
            "modulus_bound": a.n * a.d / g}


def _midpoint_slabs(a: PointSet, g: int):
    """|D| at the midpoints (2k+1)/2g of a g^d grid, in float64, as the
    axis-0 slabs ``grid.float_lp_norm`` pairs into np.mean's sum: of a
    power of two of rows near ``_SLAB_CELLS`` cells, or the whole grid
    when that is under ``grid._PAIRWISE_BLOCK`` cells."""
    nums, den = 2 * np.arange(g) + 1, (2 * g) ** a.d
    dtype = grid.int_dtype(a.n * den)
    row_cells = g ** (a.d - 1)
    rows = 1 << (max(1, _SLAB_CELLS // row_cells).bit_length() - 1)
    if rows * row_cells < grid._PAIRWISE_BLOCK:
        rows = g
    counts = _count_slabs(a, [nums] * a.d, [2 * g] * a.d, (True,), rows)
    for (slab,), vol in zip(counts, _volume_slabs(a.n, [nums] * a.d, rows,
                                                  dtype)):
        slab -= vol
        values = slab / den  # by a power of two: exact below 2^53
        yield np.abs(values, out=values)


def scaling_report(generator: str, n_list, grid_level: int = 10,
                   seed: int = 0, d: int = 2) -> dict:
    """Sup and L2 norms across N with growth fitted against log N.

    Sets within the exact cap get the exact sup; larger ones get the
    labeled scan lower bound.  Two fits run over the rows with N >= 4:
    the slope of log(sup) against log(log N) (the fitted exponent), and
    a linear regression of sup against log N whose R^2 measures how
    well the sup follows c * log N growth.  The additive constant in
    the sup keeps the log-log exponent visibly below 1 at practical N,
    so the R^2 of the linear model is the meaningful growth check.
    """
    rows = []
    for n in n_list:
        if generator == "vdc":
            a = van_der_corput(n)
        elif generator == "halton":
            a = halton(n, (2, 3, 5)[:d])
        elif generator == "random":
            a = random_points(n, d, seed)
        else:
            raise ValueError(f"unknown generator {generator!r}")
        rec = discrepancy_sup(a, approximate=True, grid_level=grid_level)
        lp = discrepancy_lp(a, 2, grid_level=min(grid_level, 8) if a.d == 2 else 5)
        rows.append({"generator": generator, "n": n,
                     "sup_abs": float(rec["sup_abs"]),
                     "sup_mode": rec["mode"], "l2": lp["value"]})
    fit_rows = [r for r in rows if r["n"] >= 4 and r["sup_abs"] > 0]
    if len(fit_rows) >= 2:
        logn = np.array([math.log(r["n"]) for r in fit_rows])
        xs = np.log(logn)
        sups = np.array([r["sup_abs"] for r in fit_rows])
        sup_exp = float(np.polyfit(xs, np.log(sups), 1)[0])
        l2_exp = float(np.polyfit(xs, np.log([max(r["l2"], 1e-300) for r in fit_rows]), 1)[0])
        slope, intercept = np.polyfit(logn, sups, 1)
        resid = sups - (slope * logn + intercept)
        total = sups - sups.mean()
        ss_tot = float(total @ total)
        r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else float("nan")
        linear = {"slope": float(slope), "intercept": float(intercept), "r2": r2}
    else:
        sup_exp = l2_exp = float("nan")
        linear = dict.fromkeys(("slope", "intercept", "r2"), float("nan"))
    return {"rows": rows, "fitted_sup_exponent": sup_exp,
            "fitted_l2_exponent": l2_exp, "sup_log_fit": linear}

