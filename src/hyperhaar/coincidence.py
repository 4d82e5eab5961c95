"""Products of Haar tensors and coincidence classes.

Two layers live here:

* the pointwise product rule for tensor Haar functions (products of
  rectangles with pairwise distinct sidelengths per coordinate collapse to
  a single signed Haar function of the intersection), predicted as one
  sign array per shape tuple and checked exhaustively against grid
  products; rectangles are addressed by join-grid positions, and the
  rectangle objects with the tuple-by-tuple rule live only in the test
  oracles;
* coincidence classes of shape tuples (pairs agreeing in the middle
  coordinate, and the 4-tuple classes with repeated coordinate maxima)
  together with their product sums and empirical norm-exponent tables.
  By the same rule a product of r-functions is, axis by axis, a signed
  Haar function or an indicator of its join interval, so every product
  sum is a Haar sum on the tuples' join shapes, one per sign pattern,
  streamed in slabs by ``hyperbolic.shape_sum_slabs``.

A sum needs one level more than its finest join only on its signed axes,
axis 0 and the last axis.  Every ``beck-gain`` class pins the middle
coordinate, which is then unsigned in every pattern, so its sums stream
at half the cells of the shapes' grid (``_stream_resolution``).

``first_coordinate_blocks`` builds the blocks by first coordinate, those
of ``C2_restricted``, of the short product in ``riesz`` and of the
admissible graphs in ``graphs``, so ``beck-gain`` loads neither module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import grid, hyperbolic
from .grid import BudgetExceededError, InsufficientResolutionError, Resolution
from .hyperbolic import CoefficientField, Shape

#: Default budget: refuse class and graph enumerations beyond this many
#: tuples.  Every enumeration takes its budget as an argument.
MAX_TUPLES = 10**7


# ---------------------------------------------------------------------------
# product rule
# ---------------------------------------------------------------------------


def strongly_distinct(shapes) -> bool:
    """True iff in every coordinate the shape levels are pairwise distinct.

    All shapes must share the same total level (mixed totals are an error);
    a singleton (or empty) list is vacuously strongly distinct.
    """
    shapes = list(shapes)
    if len(shapes) <= 1:
        return True
    totals = {sum(s) for s in shapes}
    if len(totals) > 1:
        raise ValueError(f"shapes have mixed totals {sorted(totals)}")
    d = len(shapes[0])
    for axis in range(d):
        vals = [s[axis] for s in shapes]
        if len(set(vals)) != len(vals):
            return False
    return True


def product_signs(shapes: tuple[Shape, ...]) -> np.ndarray:
    """The product rule's sign for every rectangle tuple of strongly
    distinct shapes, as an int8 array over the cells of their join (per
    axis, the max level m).

    The rectangles of the shapes that meet at join cell ``pos`` multiply to
    ``sign * h`` of that cell.  Each coarser side (level r < m) contributes
    its Haar value on the half that holds the cell: -1 on the left, +1 on
    the right, read off bit ``m - r - 1`` of ``pos``.  The sign therefore
    factors over the axes into an outer product of one vector per axis.
    """
    signs = np.ones((), dtype=np.int8)
    for axis in range(len(shapes[0])):
        m = max(s[axis] for s in shapes)
        pos = np.arange(1 << m)
        vec = np.ones(1 << m, dtype=np.int8)
        for s in shapes:
            if s[axis] < m:
                vec *= (2 * ((pos >> (m - s[axis] - 1)) & 1) - 1).astype(np.int8)
        signs = np.multiply.outer(signs, vec)
    return signs


# ---------------------------------------------------------------------------
# exhaustive product-rule verification (grid oracle)
# ---------------------------------------------------------------------------


def _all_ones_r_grid(shape: Shape, resolution: Resolution) -> np.ndarray:
    signs = np.ones(tuple(1 << r for r in shape), dtype=np.int8)
    return hyperbolic.r_function(signs, shape, resolution.levels)


def _verify_shape_tuple(shapes: tuple[Shape, ...]) -> tuple[int, list]:
    """Verify the product rule on every intersecting rectangle tuple of the
    given strongly distinct shapes at once.

    The product of the shapes' (all-plus) r-functions expands into the sum
    over all rectangle tuples of the product of their Haar tensors; the
    intersecting tuples correspond one-to-one to the cells of the joined
    shape (per axis, the max level).  Placing every tuple's predicted sign
    at its join cell in a Haar spectrum and synthesizing must therefore
    reproduce the grid product exactly -- which verifies sign, support and
    completeness for every tuple simultaneously.  The two sides take
    independent routes: the r-functions are pair expansions
    (``hyperbolic.r_function``), the spectrum a butterfly synthesis.  A
    mismatch names the join position of the first differing grid cell.
    """
    d = len(shapes[0])
    join = tuple(max(s[axis] for s in shapes) for axis in range(d))
    res = Resolution(tuple(m + 1 for m in join))
    gridprod = _all_ones_r_grid(shapes[0], res)
    for s in shapes[1:]:
        gridprod = gridprod * _all_ones_r_grid(s, res)
    spectrum = np.zeros(res.grid_shape, dtype=np.int8)
    spectrum[tuple(slice(1 << m, 2 << m) for m in join)] = product_signs(shapes)
    differ = np.argwhere(grid.synthesize(spectrum) != gridprod)
    failures = []
    if len(differ):
        position = tuple(int(i) >> 1 for i in differ[0])
        failures.append({"shapes": shapes, "position": position,
                         "kind": "grid mismatch"})
    return 1 << sum(join), failures


def product_rule_exhaustive_check(n: int, *, budget: int = MAX_TUPLES) -> dict:
    """Grid verification of the product rule over all strongly distinct
    d=3 pairs and triples of shapes with total level up to n.  More than
    ``budget`` shape tuples (88 at n=4, 2,728 at n=7) are refused before
    any grid is built."""
    shape_tuples = []
    for total in range(1, n + 1):
        shapes = hyperbolic.enumerate_shapes(total, 3)
        for size in (2, 3):
            for combo in itertools.combinations(shapes, size):
                if strongly_distinct(combo):
                    shape_tuples.append(combo)
    check_budget(len(shape_tuples), budget)
    rect_tuples = 0
    failures = []
    for combo in shape_tuples:
        checked, fails = _verify_shape_tuple(combo)
        rect_tuples += checked
        failures.extend(fails)
    return {
        "n": n,
        "d": 3,
        "shape_tuples": len(shape_tuples),
        "rect_tuples": rect_tuples,
        "all_ok": not failures,
        "failures": failures[:10],
    }


def same_volume_exhaustive_check(n: int) -> dict:
    """d=2 oracle for the same-volume case table at every total level <= n.

    Distinct-shape pairs are verified tuple-by-tuple through the same
    synthesis comparison as the d=3 rule.  Same-shape pairs are covered by
    the structural facts that imply the whole diagonal of the table: each
    shape's rectangles tile the unit square (every rectangle holds the same
    number of grid cells, so distinct rectangles are disjoint and their
    Haar products vanish) and the all-plus r-function of the shape squares
    to one (so h_R * h_R = 1_R rectangle by rectangle).
    """
    failures = []
    pair_count = 0
    for total in range(1, n + 1):
        shapes = hyperbolic.enumerate_shapes(total, 2)
        res = Resolution((total + 1, total + 1))
        for s in shapes:
            rgrid = _all_ones_r_grid(s, res).astype(np.int16)
            if not np.all(rgrid * rgrid == 1):
                failures.append({"shape": s, "kind": "square != 1"})
            # the id of the rectangle of s that holds each cell
            ids = np.ravel_multi_index(
                np.ix_(*(np.arange(1 << m) >> (m - r)
                         for m, r in zip(res.levels, s))),
                tuple(1 << r for r in s))
            counts = np.bincount(ids.ravel(), minlength=1 << total)
            if not np.all(counts == 1 << (sum(res.levels) - total)):
                failures.append({"shape": s, "kind": "not a tiling"})
        for s1, s2 in itertools.combinations(shapes, 2):
            pair_count += 1
            checked, fails = _verify_shape_tuple((s1, s2))
            failures.extend(fails)
    return {"n": n, "distinct_shape_pairs": pair_count,
            "all_ok": not failures, "failures": failures[:10]}


# ---------------------------------------------------------------------------
# coincidence classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoincidenceClass:
    kind: str
    n: int
    params: tuple
    tuples: tuple[tuple[Shape, ...], ...]

    @property
    def size(self) -> int:
        return len(self.tuples)


def class_c2(n: int) -> CoincidenceClass:
    """Unordered pairs of distinct d=3 shapes agreeing in the middle
    coordinate."""
    shapes = hyperbolic.enumerate_shapes(n, 3)
    pairs = [
        (r, s)
        for r, s in itertools.combinations(shapes, 2)
        if r[1] == s[1]
    ]
    return CoincidenceClass("C2", n, (), tuple(pairs))


def first_coordinate_blocks(n: int, q: int) -> tuple[tuple, tuple]:
    """The q blocks of the d=3 shapes of volume 2**-n, as (intervals,
    blocks): the first-coordinate values {0..n} split into q consecutive
    intervals as equally as possible, the leading intervals taking the
    remainder, and block t the shapes whose first coordinate falls in
    interval t.  q must lie in 1..n+1, so that no block is empty."""
    if not 1 <= q <= n + 1:
        raise ValueError(f"q={q} must lie in 1..{n + 1} (blocks would be empty)")
    base, extra = divmod(n + 1, q)
    bounds = [t * base + min(t, extra) for t in range(q + 1)]
    intervals = tuple(tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]))
    shapes = hyperbolic.enumerate_shapes(n, 3)
    return intervals, tuple(tuple(s for s in shapes if s[0] in interval)
                            for interval in intervals)


def class_c2_restricted(n: int, blocks, s: int, t: int) -> CoincidenceClass:
    """Cross-block pairs (first component from block s, second from block t)
    agreeing in the middle coordinate.  The blocks must differ: with s == t
    the class would hold the diagonal pairs (r, r) and each unordered pair
    twice."""
    if not (1 <= s <= len(blocks) and 1 <= t <= len(blocks)):
        raise ValueError(f"blocks s={s}, t={t} must lie in 1..{len(blocks)}")
    if s == t:
        raise ValueError(f"blocks s={s}, t={t} must differ: C2_restricted "
                         f"pairs two different blocks")
    pairs = [
        (r, u)
        for r in blocks[s - 1]
        for u in blocks[t - 1]
        if r[1] == u[1]
    ]
    return CoincidenceClass("C2_restricted", n, (s, t), tuple(pairs))


def class_c2b(n: int, b: int) -> CoincidenceClass:
    """Ordered distinct pairs agreeing in the middle coordinate whose first
    component has first coordinate b."""
    shapes = hyperbolic.enumerate_shapes(n, 3)
    pairs = [
        (r, s)
        for r in shapes
        if r[0] == b
        for s in shapes
        if s != r and s[1] == r[1]
    ]
    return CoincidenceClass("C2b", n, (b,), tuple(pairs))


def _max_achieved(values) -> bool:
    return values.count(max(values)) >= 2


def check_budget(estimate: int, budget: int) -> None:
    """Refuse an enumeration of about ``estimate`` tuples over ``budget``."""
    if estimate > budget:
        raise BudgetExceededError(f"the enumeration needs about {estimate} "
                                  f"tuples, over the budget {budget} (--budget)")


def _b4_tuples(n: int, *, budget: int = MAX_TUPLES):
    """Ordered 4-tuples (r,s,t,u) of pairwise distinct shapes with the two
    middle-coordinate agreements r2=s2, t2=u2, and the coordinate-1 and
    coordinate-3 maxima achieved at least twice."""
    shapes = hyperbolic.enumerate_shapes(n, 3)
    pairs = [
        (r, s)
        for r in shapes
        for s in shapes
        if r != s and r[1] == s[1]
    ]
    check_budget(len(pairs) ** 2, budget)
    for (r, s), (t, u) in itertools.product(pairs, pairs):
        four = (r, s, t, u)
        if len(set(four)) != 4:
            continue
        if not _max_achieved([v[0] for v in four]):
            continue
        if not _max_achieved([v[2] for v in four]):
            continue
        yield four


def class_b4(n: int, *, budget: int = MAX_TUPLES) -> CoincidenceClass:
    return CoincidenceClass("B4", n, (), tuple(_b4_tuples(n, budget=budget)))


def class_b4a(n: int, a: int, *, budget: int = MAX_TUPLES) -> CoincidenceClass:
    """B4 tuples with the second components of both pairs pinned to first
    coordinate a and some two of the four agreeing in the third
    coordinate."""
    tuples = []
    for four in _b4_tuples(n, budget=budget):
        r, s, t, u = four
        if s[0] != a or u[0] != a:
            continue
        if any(x[2] == y[2] for x, y in itertools.combinations(four, 2)):
            tuples.append(four)
    return CoincidenceClass("B4a", n, (a,), tuple(tuples))


def enumerate_class(kind: str, n: int, *, budget: int = MAX_TUPLES,
                    **params) -> CoincidenceClass:
    if kind == "C2":
        return class_c2(n)
    if kind == "C2_restricted":
        return class_c2_restricted(n, params["blocks"],
                                   params.get("s", 1), params.get("t", 2))
    if kind == "C2b":
        return class_c2b(n, params["b"])
    if kind == "B4":
        return class_b4(n, budget=budget)
    if kind == "B4a":
        return class_b4a(n, params["a"], budget=budget)
    raise ValueError(f"unknown class kind {kind!r}")


def _join_patterns(tuples) -> tuple[np.ndarray, np.ndarray]:
    """Each tuple's join (per axis, the max level m over its shapes) and
    its pattern of signed axes (m held by an odd number of its shapes)."""
    levels = np.array(tuples)  # (tuple, shape, axis)
    joins = levels.max(axis=1)
    return joins, (levels == joins[:, None]).sum(axis=1) % 2 == 1


def _stream_resolution(tuples, d: int) -> Resolution:
    """The coarsest grid on which ``product_slabs`` streams the tuples'
    product sum (level 1 on every axis for no tuples): per axis, the
    largest join level, one more on axis 0, on the last axis and where
    some join is signed (``hyperbolic._check_resolution``)."""
    if not tuples:
        return Resolution((1,) * d)
    joins, odd = _join_patterns(tuples)
    odd[:, [0, -1]] = True
    return Resolution(tuple((joins + odd).max(axis=0).tolist()))


def _join_sums(tuples, field: CoefficientField) -> dict:
    """The sum over the tuples (all of one length) of the products of their
    shapes' r-functions as Haar sums on their join shapes (per axis, the
    max level m over a tuple's shapes): ``{pattern: {join: coefficients}}``.

    By the product rule each product is, per axis, the Haar function of its
    level-m interval where m occurs an odd number of times among the
    tuple's levels and its indicator where it occurs an even number (h**2 =
    1): the pattern flags the signed axes.  A coefficient is the product
    read on the right half of its interval, where that Haar function is +1:
    each shape's ``hyperbolic.r_function`` on the join's levels, which keeps
    the sign where r = m.  Each sum is over some of the tuples, so it takes
    ``grid.int_dtype`` of their count."""
    if not tuples:
        return {}
    acc_dtype = grid.int_dtype(len(tuples))
    joins, odd = _join_patterns(tuples)
    groups: dict[tuple[int, ...], list] = {}
    for tup, join, pattern in zip(tuples, joins.tolist(), odd.tolist()):
        groups.setdefault(tuple(join), []).append((tup, tuple(pattern)))
    signs = {s: hyperbolic.signs_of(field.values[s])
             for s in {s for tup in tuples for s in tup}}
    sums: dict[tuple[bool, ...], dict] = {}
    for join, members in groups.items():
        # the reads of one join at a time: the joins of a class are often
        # all distinct, so keeping them across joins only raises the peak
        reads = {s: hyperbolic.r_function(signs[s], s, join)
                 for s in {s for tup, _ in members for s in tup}}
        for tup, pattern in members:
            prod = reads[tup[0]]
            for s in tup[1:]:
                prod = prod * reads[s]
            by_join = sums.setdefault(pattern, {})
            if join in by_join:
                by_join[join] += prod
            else:
                by_join[join] = prod.astype(acc_dtype)
    return sums


def product_slabs(tuples, field: CoefficientField,
                  resolution: Resolution, rows: int | None = None,
                  workspace: grid.Workspace | None = None):
    """The sum over the tuples of the products of their shapes'
    alpha-induced r-functions -- the one kernel for such sums -- on
    ``resolution``, as successive axis-0 slabs of ``rows`` rows (by
    default those of ``hyperbolic.shape_sum_slabs``).  One shape sum stream
    per sign pattern of ``_join_sums``, at most 2**d of them, is added
    slab by slab at ``grid.int_dtype`` of the tuple count; the streams
    share ``workspace`` (by default one of their own), as they advance in
    turn; ``resolution`` may be as coarse as ``_stream_resolution``.  No
    tuples give the empty shape sum, whose slabs are zeros, so the stream
    has as many slabs as any other on ``resolution``.  Each
    part is dropped once added and each slab once yielded, so no stream
    builds its next slab while this one holds the last."""
    tuples = list(tuples)
    dtype = grid.int_dtype(len(tuples))
    if workspace is None:
        workspace = grid.Workspace()
    streams = [hyperbolic.shape_sum_slabs(coeffs, resolution, pattern, rows,
                                          workspace)
               for pattern, coeffs in _join_sums(tuples, field).items()]
    streams = streams or [hyperbolic.shape_sum_slabs({}, resolution, True, rows,
                                                     workspace)]
    # not zip, whose result tuple holds each stream's last slab while that
    # stream builds the next
    for slab in streams[0]:
        slab = slab.astype(dtype, copy=False)
        for stream in streams[1:]:
            slab += next(stream)
        yield slab
        del slab


def _checked_resolution(tuples, d: int, resolution: Resolution | None = None,
                        *, budget: int = MAX_TUPLES) -> Resolution:
    """The checks of every class-product sum, made before any r-function is
    read: at most ``budget`` tuples, and a ``resolution`` no coarser than
    ``_stream_resolution`` on any axis (by default that one), which is
    returned."""
    check_budget(len(tuples), budget)
    floor = _stream_resolution(tuples, d)
    resolution = resolution or floor
    for axis, (level, need) in enumerate(zip(resolution.levels, floor.levels)):
        if level < need:
            raise InsufficientResolutionError(
                f"insufficient resolution: axis {axis} level {level} < "
                f"{need} needed by the tuples' joins")
    return resolution


PREDICTED_EXPONENT = {
    "C2": 7 / 4,
    "C2_restricted": 3 / 2,
    "C2b": 5 / 4,
    "B4": 7 / 2,
    "B4a": 5 / 2,
}


def beck_gain_measure(kind: str, n_values, p_list, seed: int, *, q: int = 2,
                      s: int = 1, t: int = 2, b: int = 0, a: int = 0,
                      budget: int = MAX_TUPLES) -> dict:
    """Exact L^p norms of the class product sums across n, with fitted
    n-exponents per p against each predicted exponent.  Each sum streams
    from ``product_slabs`` into ``grid.abs_power_sums``, which gives every
    power sum and the sup from one read, so its full grid is never built.
    It streams on ``_stream_resolution``, where a cell stands for two equal
    cells of the shapes' grid, so the power sums and the cell count both
    halve and every moment, norm and sup is unchanged.

    The coefficient field is random signs from (seed, n).  ``q`` is the
    block count of ``C2_restricted``, whose blocks s and t are paired;
    ``b`` and ``a`` pin ``C2b`` and ``B4a``; the other kinds ignore them.
    A class whose enumeration passes ``budget`` tuples is refused before
    any r-function is read.  Rows carry the CSV columns (kind, n, p, norm,
    fitted_exponent, predicted_exponent); the dict adds the tuple count per
    n and the sup-norm triangle bound check.

    Raises ``ValueError`` for q < 1 and for a class with no tuples at some
    n, whose norms and fit would measure nothing.
    """
    if q < 1:
        raise ValueError(f"--q must be at least 1, got {q}")
    n_values = sorted(n_values)
    per_np: dict[float, list[tuple[int, float]]] = {float(p): [] for p in p_list}
    int_ps = [int(p) for p in p_list]
    counts = {}
    sup_bound_ok = True
    for n in n_values:
        blocks = (first_coordinate_blocks(n, q)[1] if kind == "C2_restricted"
                  else None)
        cls = enumerate_class(kind, n, budget=budget, blocks=blocks, s=s, t=t,
                              b=b, a=a)
        if not cls.size:
            pin = {"C2b": b, "B4a": a}
            where = f" with --pin {pin[kind]}" if kind in pin else ""
            raise ValueError(f"the {kind} class has no tuples at n={n}{where}")
        counts[n] = cls.size
        field = CoefficientField.random_signs(n, 3, (seed, n))
        res = _checked_resolution(cls.tuples, 3, budget=budget)
        totals, peak = grid.abs_power_sums(
            product_slabs(cls.tuples, field, res), int_ps)
        sup_bound_ok &= peak <= cls.size
        for p, total in zip(p_list, totals):
            per_np[float(p)].append(
                (n, grid.norm_of_power_sum(total, res.cells, p)))
    rows = []
    fitted = {}
    for p, series in per_np.items():
        xs = np.log([n for n, _ in series])
        ys = np.log([max(v, 1e-300) for _, v in series])
        slope = float(np.polyfit(xs, ys, 1)[0]) if len(series) >= 2 else float("nan")
        fitted[p] = slope
        for n, norm in series:
            rows.append({
                "kind": kind,
                "n": n,
                "p": p,
                "norm": norm,
                "fitted_exponent": slope,
                "predicted_exponent": PREDICTED_EXPONENT[kind],
            })
    return {"rows": rows, "fitted": fitted, "counts": counts,
            "sup_bound_ok": bool(sup_bound_ok)}
