"""Products of Haar tensors, coincidence classes, and colored-graph analysis.

Three layers live here:

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
  streamed in slabs by ``hyperbolic.shape_sum_slabs``;
* admissible two-colored graphs: enumeration, wedge/prime structure, the
  inclusion-exclusion identity with derived coefficients, the disjoint-
  union factorization, and the recursive 3/2 / 1/2 vertex classification
  with its exponent.

Graph vertices are block indices; the block lists themselves are passed in
as plain sequences of shapes.  ``first_coordinate_blocks`` builds the
blocks by first coordinate, those of ``C2_restricted`` and of the short
product in ``riesz``, so ``beck-gain`` never loads ``riesz``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import grid, hyperbolic
from .grid import BudgetExceededError, Resolution
from .hyperbolic import CoefficientField, Shape

#: Default budget: refuse class and graph enumerations beyond this many
#: tuples.  Every enumeration takes its budget as an argument.
MAX_TUPLES = 10**7

#: Vertex cap for graph enumeration.
GRAPH_VERTEX_CAP = 6


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
    levels = np.array(tuples)  # (tuple, shape, axis)
    joins = levels.max(axis=1)
    odd = (levels == joins[:, None]).sum(axis=1) % 2 == 1
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
    turn.  No tuples give the empty shape sum, whose slabs are zeros, so
    the stream has as many slabs as any other on ``resolution``.  Each
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
    read: at most ``budget`` tuples, and a ``resolution`` fine enough
    for each of their shapes (by default the minimal one, or level 1 on
    every axis for no tuples), which is returned."""
    check_budget(len(tuples), budget)
    shapes = {s for tup in tuples for s in tup}
    if resolution is None:
        resolution = (hyperbolic.minimal_resolution(shapes, d) if shapes
                      else Resolution((1,) * d))
    hyperbolic._check_resolution(resolution, shapes)
    return resolution


def prod_over(tuples, field: CoefficientField,
              resolution: Resolution | None = None, *,
              budget: int = MAX_TUPLES) -> np.ndarray:
    """Sum over the tuples of the products of the alpha-induced r-functions
    of their shapes, as an integer grid at ``grid.int_dtype`` of the tuple
    count, filled slab by slab from ``product_slabs``.  The default
    resolution is the minimal one for the tuples' shapes."""
    tuples = list(tuples)
    resolution = _checked_resolution(tuples, field.d, resolution, budget=budget)
    out = np.zeros(resolution.grid_shape, dtype=grid.int_dtype(len(tuples)))
    r0 = 0
    for slab in product_slabs(tuples, field, resolution):
        out[r0:r0 + len(slab)] = slab
        r0 += len(slab)
    return out


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


# ---------------------------------------------------------------------------
# admissible graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibleGraph:
    """Two-colored coincidence pattern: per color, a family of disjoint
    cliques (size >= 2) on the vertex set."""

    vertices: tuple[int, ...]
    cliques2: tuple[tuple[int, ...], ...]
    cliques3: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, vertices, cliques2, cliques3) -> "AdmissibleGraph":
        verts = tuple(sorted(set(vertices)))
        c2 = tuple(sorted(tuple(sorted(set(q))) for q in cliques2))
        c3 = tuple(sorted(tuple(sorted(set(q))) for q in cliques3))
        return cls(verts, c2, c3)

    def cliques(self, color: int) -> tuple[tuple[int, ...], ...]:
        if color == 2:
            return self.cliques2
        if color == 3:
            return self.cliques3
        raise ValueError("color must be 2 or 3")

    def edges(self, color: int) -> frozenset[frozenset[int]]:
        return frozenset(
            frozenset(pair)
            for q in self.cliques(color)
            for pair in itertools.combinations(q, 2)
        )


def is_admissible(g: AdmissibleGraph) -> bool:
    """The three structural conditions: per color the cliques are disjoint
    subsets of the vertices of size >= 2; a color-2 and a color-3 clique
    share at most one vertex; every vertex lies in at least one clique."""
    vset = set(g.vertices)
    covered: set[int] = set()
    for color in (2, 3):
        seen: set[int] = set()
        for q in g.cliques(color):
            qset = set(q)
            if len(qset) < 2 or not qset <= vset or len(qset) != len(q):
                return False
            if qset & seen:
                return False
            seen |= qset
        covered |= seen
    for q2 in g.cliques2:
        for q3 in g.cliques3:
            if len(set(q2) & set(q3)) > 1:
                return False
    return covered == vset


def is_connected(g: AdmissibleGraph) -> bool:
    return len(connected_components(g)) <= 1


def connected_components(g: AdmissibleGraph) -> list[AdmissibleGraph]:
    remaining = set(g.vertices)
    adjacency: dict[int, set[int]] = {v: set() for v in g.vertices}
    for color in (2, 3):
        for q in g.cliques(color):
            for v, w in itertools.combinations(q, 2):
                adjacency[v].add(w)
                adjacency[w].add(v)
    comps = []
    while remaining:
        start = min(remaining)
        seen = {start}
        stack = [start]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        remaining -= seen
        comps.append(AdmissibleGraph.make(
            seen,
            [q for q in g.cliques2 if set(q) <= seen],
            [q for q in g.cliques3 if set(q) <= seen],
        ))
    return comps


def _partial_partitions_min2(items: tuple[int, ...]):
    """All families of disjoint blocks of size >= 2 drawn from items (not
    necessarily covering), blocks ordered by least element."""
    if not items:
        yield ()
        return
    x, rest = items[0], items[1:]
    for p in _partial_partitions_min2(rest):
        yield p
    for size in range(1, len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            taken = set(combo)
            remaining = tuple(i for i in rest if i not in taken)
            block = (x, *combo)
            for p in _partial_partitions_min2(remaining):
                yield (block, *p)


def enumerate_admissible(vertices) -> list[AdmissibleGraph]:
    """Every admissible graph on exactly this vertex set (each vertex
    covered)."""
    verts = tuple(sorted(set(vertices)))
    if len(verts) > GRAPH_VERTEX_CAP:
        raise BudgetExceededError(
            f"graph enumeration capped at {GRAPH_VERTEX_CAP} vertices"
        )
    partitions = list(_partial_partitions_min2(verts))
    out = []
    for p2 in partitions:
        covered2 = {v for q in p2 for v in q}
        for p3 in partitions:
            g = AdmissibleGraph(verts, p2, p3)
            if covered2 | {v for q in p3 for v in q} != set(verts):
                continue
            if any(len(set(q2) & set(q3)) > 1 for q2 in p2 for q3 in p3):
                continue
            out.append(g)
    return out


def enumerate_connected_admissible(vertices) -> list[AdmissibleGraph]:
    return [g for g in enumerate_admissible(vertices) if is_connected(g)]


def wedge(g1: AdmissibleGraph, g2: AdmissibleGraph) -> AdmissibleGraph | None:
    """Smallest admissible graph containing both edge sets: per color, merge
    overlapping cliques until disjoint; undefined (None) when the closure
    violates admissibility."""
    verts = tuple(sorted(set(g1.vertices) | set(g2.vertices)))
    merged = {}
    for color in (2, 3):
        blocks = [set(q) for q in g1.cliques(color)] + [set(q) for q in g2.cliques(color)]
        changed = True
        while changed:
            changed = False
            for i in range(len(blocks)):
                for j in range(i + 1, len(blocks)):
                    if blocks[i] & blocks[j]:
                        blocks[i] |= blocks[j]
                        del blocks[j]
                        changed = True
                        break
                if changed:
                    break
        merged[color] = blocks
    g = AdmissibleGraph.make(verts, merged[2], merged[3])
    return g if is_admissible(g) else None


def _subgraphs_edgewise(g: AdmissibleGraph) -> list[AdmissibleGraph]:
    """All admissible graphs (on any subset of g's vertices) whose edges are
    contained in g's edges, per color."""
    out = []
    e2, e3 = g.edges(2), g.edges(3)
    for verts in _nonempty_subsets(g.vertices):
        for h in enumerate_admissible(verts):
            if h.edges(2) <= e2 and h.edges(3) <= e3:
                out.append(h)
    return out


def _nonempty_subsets(items):
    items = tuple(items)
    for size in range(1, len(items) + 1):
        yield from itertools.combinations(items, size)


def is_prime(g: AdmissibleGraph) -> bool:
    """No decomposition g = wedge(g1, g2) with both factors different from g."""
    if not is_admissible(g):
        raise ValueError("graph is not admissible")
    candidates = [h for h in _subgraphs_edgewise(g) if h != g]
    for h1, h2 in itertools.combinations_with_replacement(candidates, 2):
        if wedge(h1, h2) == g:
            return False
    return True


# ---------------------------------------------------------------------------
# X(G), NSD, inclusion-exclusion, factorization
# ---------------------------------------------------------------------------


def X_of_graph(g: AdmissibleGraph, blocks, *,
               budget: int = MAX_TUPLES) -> list[tuple[Shape, ...]]:
    """Shape tuples (one per vertex, drawn from that vertex's block) whose
    coordinates satisfy at least the coincidences demanded by g's edges
    (color 2 pins coordinate 2, color 3 pins coordinate 3).  These at-least
    semantics are the ones the inclusion-exclusion identity is stated for.
    """
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    check_budget(math.prod(len(blocks[v - 1]) for v in verts), budget)
    constraints = []
    for color, coord in ((2, 1), (3, 2)):
        for q in g.cliques(color):
            chain = sorted(q)
            constraints.extend(
                (coord, index[v], index[w]) for v, w in zip(chain, chain[1:])
            )
    out = []
    for combo in itertools.product(*[blocks[v - 1] for v in verts]):
        if all(combo[i][c] == combo[j][c] for c, i, j in constraints):
            out.append(combo)
    return out


def nsd_tuples(vertices, blocks, *,
               budget: int = MAX_TUPLES) -> list[tuple[Shape, ...]]:
    """Tuples in which every component shares coordinate 2 or 3 with some
    other component (no component is coincidence-free; first coordinates
    cannot collide across distinct blocks)."""
    verts = sorted(set(vertices))
    if not verts:
        return []
    check_budget(math.prod(len(blocks[v - 1]) for v in verts), budget)
    out = []
    k = len(verts)
    for combo in itertools.product(*[blocks[v - 1] for v in verts]):
        ok = True
        for i in range(k):
            if not any(
                j != i and any(combo[i][c] == combo[j][c]
                               for c in range(1, len(combo[i])))
                for j in range(k)
            ):
                ok = False
                break
        if ok:
            out.append(combo)
    return out


def inclusion_exclusion_coefficients(
        graphs: list[AdmissibleGraph]) -> dict[AdmissibleGraph, int]:
    """Coefficients c_G with sum over {covering G <= P} of c_G equal to 1
    for every covering admissible P: c_G = 1 - sum of c_H over proper
    edgewise subgraphs H in the family.  Derived, not copied: the ordering
    is by per-color edge-set inclusion and the exact identity test is the
    arbiter."""
    keyed = sorted(graphs, key=lambda g: len(g.edges(2)) + len(g.edges(3)))
    coeffs: dict[AdmissibleGraph, int] = {}
    for g in keyed:
        e2, e3 = g.edges(2), g.edges(3)
        below = sum(
            coeffs[h]
            for h in keyed
            if h != g and h in coeffs and h.edges(2) <= e2 and h.edges(3) <= e3
        )
        coeffs[g] = 1 - below
    return coeffs


def inclusion_exclusion_check(vertices, field: CoefficientField, blocks, *,
                              budget: int = MAX_TUPLES) -> dict:
    """Cellwise identity: Prod over the not-strongly-distinct tuples equals
    the signed sum over admissible graphs of Prod(X(G))."""
    verts = tuple(sorted(set(vertices)))
    if not verts:
        return {"vertices": verts, "graph_count": 0, "equal": True,
                "coefficients": []}
    graphs = enumerate_admissible(verts)
    coeffs = inclusion_exclusion_coefficients(graphs)
    shapes = {s for v in verts for s in blocks[v - 1]}
    resolution = hyperbolic.minimal_resolution(shapes, field.d)
    lhs = prod_over(nsd_tuples(verts, blocks, budget=budget), field, resolution,
                    budget=budget)
    rhs = np.zeros(resolution.grid_shape, dtype=np.int64)
    for g in graphs:
        contrib = prod_over(X_of_graph(g, blocks, budget=budget), field,
                            resolution, budget=budget)
        # widened first: c_G times a narrow X(G) sum can pass its width
        rhs += coeffs[g] * contrib.astype(np.int64)
    return {
        "vertices": verts,
        "graph_count": len(graphs),
        "coefficients": [
            {"cliques2": g.cliques2, "cliques3": g.cliques3, "c": coeffs[g]}
            for g in graphs
        ],
        "equal": bool(np.array_equal(lhs, rhs)),
    }


def factorization_check(g: AdmissibleGraph, field: CoefficientField,
                        blocks, *, budget: int = MAX_TUPLES) -> dict:
    """Prod(X(G)) of a disjoint union equals the product of the components'
    Prod(X(G_t)), cellwise exactly."""
    comps = connected_components(g)
    shapes = {s for v in g.vertices for s in blocks[v - 1]}
    resolution = hyperbolic.minimal_resolution(shapes, field.d)
    whole = prod_over(X_of_graph(g, blocks, budget=budget), field, resolution,
                      budget=budget)
    # int64 from the start: a product of component sums outgrows each one
    prod = np.ones(resolution.grid_shape, dtype=np.int64)
    for comp in comps:
        prod = prod * prod_over(X_of_graph(comp, blocks, budget=budget), field,
                                resolution, budget=budget)
    return {
        "components": len(comps),
        "equal": bool(np.array_equal(whole, prod)),
    }


# ---------------------------------------------------------------------------
# exponent recursion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentReport:
    graph: AdmissibleGraph
    v32: tuple[int, ...]
    v12: tuple[int, ...]
    determined: tuple[int, ...]
    unclassified: tuple[int, ...]
    exponent: Fraction
    steps: tuple[str, ...]


def exponent_recursion(g: AdmissibleGraph) -> ExponentReport:
    """Recursive vertex classification of a connected admissible graph.

    Working from the largest vertex index downward, a vertex none of whose
    cliques are fixed yet joins V_{3/2} and fixes all its cliques; a vertex
    touching a fixed clique but still owning an unfixed one joins V_{1/2}
    and fixes the rest.  A vertex is *determined* once at least two of its
    coordinates are pinned (coordinate 1 by membership in V_{3/2} or
    V_{1/2}; coordinate 2 or 3 by a fixed clique of that color), and
    determined vertices are skipped.  An undetermined vertex all of whose
    cliques are already fixed is terminal: the recursion has nothing left
    to fix through it, and it stays unclassified.  The exponent is
    [(3/2)|V_{3/2}| + (1/2)|V_{1/2}| - |V|] / |V|.
    """
    if not is_admissible(g):
        raise ValueError("graph is not admissible")
    if not is_connected(g):
        raise ValueError("graph is not connected")
    cliques = [(2, q) for q in g.cliques2] + [(3, q) for q in g.cliques3]
    of_vertex = {v: [i for i, (_, q) in enumerate(cliques) if v in q]
                 for v in g.vertices}
    fixed: set[int] = set()
    v32: list[int] = []
    v12: list[int] = []
    steps: list[str] = []

    def pinned_coords(v: int) -> int:
        count = 1 if (v in v32 or v in v12) else 0
        for color in (2, 3):
            if any(i in fixed and cliques[i][0] == color for i in of_vertex[v]):
                count += 1
        return count

    while True:
        candidate = None
        for v in sorted(g.vertices, reverse=True):
            if pinned_coords(v) >= 2:
                continue
            touches_fixed = any(i in fixed for i in of_vertex[v])
            has_unfixed = any(i not in fixed for i in of_vertex[v])
            if not touches_fixed or has_unfixed:
                candidate = (v, touches_fixed)
                break
        if candidate is None:
            break
        v, touches_fixed = candidate
        if not touches_fixed:
            v32.append(v)
            steps.append(f"v{v} -> V_3/2, fixing cliques "
                         f"{[cliques[i][1] for i in of_vertex[v] if i not in fixed]}")
        else:
            v12.append(v)
            steps.append(f"v{v} -> V_1/2, fixing cliques "
                         f"{[cliques[i][1] for i in of_vertex[v] if i not in fixed]}")
        fixed.update(of_vertex[v])

    determined = tuple(v for v in g.vertices
                       if v not in v32 and v not in v12 and pinned_coords(v) >= 2)
    unclassified = tuple(v for v in g.vertices
                         if v not in v32 and v not in v12 and v not in determined)
    size = len(g.vertices)
    exponent = (Fraction(3, 2) * len(v32) + Fraction(1, 2) * len(v12) - size) \
        / size
    return ExponentReport(
        graph=g,
        v32=tuple(sorted(v32)),
        v12=tuple(sorted(v12)),
        determined=determined,
        unclassified=unclassified,
        exponent=exponent,
        steps=tuple(steps),
    )

