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
O(cells) integer work.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import grid
from .grid import (
    DyadicInterval,
    DyadicRectangle,
    GridFunction,
    InsufficientResolutionError,
    Resolution,
)

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


def rectangles_of_shape(shape: Shape) -> list[DyadicRectangle]:
    """The 2**n pairwise disjoint rectangles of one shape, tiling [0,1)**d."""
    ranges = [range(1 << r) for r in shape]
    return [
        DyadicRectangle(tuple(DyadicInterval(r, j) for r, j in zip(shape, pos)))
        for pos in itertools.product(*ranges)
    ]


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
        """Sum of |alpha(R)| over the exact-volume rectangles (exact for ints)."""
        total = 0
        for shape in self.exact_volume_shapes:
            arr = self.values[shape]
            total += float(np.sum(np.abs(arr))) if self.mode == "float" \
                else int(np.sum(np.abs(arr.astype(np.int64))))
        return total

    @classmethod
    def constant(cls, n: int, d: int, value: int = 1) -> "CoefficientField":
        vals = {
            s: np.full(tuple(1 << r for r in s), int(value), dtype=np.int64)
            for s in enumerate_shapes(n, d)
        }
        return cls(n, d, vals, "exact")

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
    def random_integers(cls, n: int, d: int, seed_or_rng, low: int = -3,
                        high: int = 3) -> "CoefficientField":
        """Integer-valued field with zeros included (exercises sgn(0))."""
        rng = _as_rng(seed_or_rng)
        vals = {
            s: rng.integers(low, high + 1, size=tuple(1 << r for r in s), dtype=np.int64)
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


def add_coarse_random(field: CoefficientField, seed_or_rng, low: int = -3,
                      high: int = 3) -> CoefficientField:
    """Extended field: add integer coefficients on every coarser shape
    (level sum < n).  Used by the d=2 product verification, whose identity
    must be unchanged by any such extension."""
    rng = _as_rng(seed_or_rng)
    vals = dict(field.values)
    for total in range(field.n):
        for s in enumerate_shapes(total, field.d):
            vals[s] = rng.integers(low, high + 1, size=tuple(1 << r for r in s),
                                   dtype=np.int64)
    return CoefficientField(field.n, field.d, vals, field.mode)


@dataclass(frozen=True)
class RFunction:
    """Sign pattern of one shape: the induced grid function is the sum of
    one signed Haar function per rectangle and takes values in {-1,+1}
    everywhere (its square is identically 1)."""

    shape: Shape
    signs: np.ndarray  # int8 array of +-1, indexed by rectangle positions


def signs_of(values: np.ndarray) -> np.ndarray:
    """Sign pattern with the sgn(0) := +1 tie-break."""
    return np.where(values >= 0, 1, -1).astype(np.int8)


def r_function(field: CoefficientField, shape: Shape) -> RFunction:
    if shape not in field.values:
        raise KeyError(f"field has no shape {shape}")
    return RFunction(shape, signs_of(field.values[shape]))


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


def _check_resolution(resolution: Resolution, shapes) -> None:
    for s in shapes:
        for axis, r in enumerate(s):
            if resolution.levels[axis] < r + 1:
                raise InsufficientResolutionError(
                    f"insufficient resolution: axis {axis} level "
                    f"{resolution.levels[axis]} < {r + 1} needed by shape {s}"
                )


def _placed(shape_values: dict[Shape, np.ndarray], resolution: Resolution,
            dtype, signed: bool, axis: int) -> np.ndarray:
    """The shape sum synthesized along ``axis`` only, the other axes still
    in Haar layout.  A shape has one level r on ``axis``, so there its
    synthesis is no butterfly: coefficient c becomes -c on the left half of
    its interval and +c on the right half (+c on both unless ``signed``),
    each repeated ``2**(m-r-1)`` times.  Shapes are added in ascending
    level on ``axis``, the order in which the butterfly adds them."""
    m = resolution.levels[axis]
    out = np.zeros(resolution.grid_shape, dtype=dtype)
    for shape in sorted(shape_values, key=lambda s: s[axis]):
        r = shape[axis]
        values = np.asarray(shape_values[shape]).astype(dtype, copy=False)
        pair = np.stack((-values if signed else values, values), axis=axis + 1)
        pair = pair.reshape(values.shape[:axis] + (2 << r,) + values.shape[axis + 1:])
        block = tuple(slice(None) if b == axis else slice(1 << q, 2 << q)
                      for b, q in enumerate(shape))
        out[block] += np.repeat(pair, 1 << (m - r - 1), axis=axis)
    return out


def shape_sum_grid(shape_values: dict[Shape, np.ndarray], resolution: Resolution,
                   signed: bool = True) -> np.ndarray:
    """Sum over shapes of the Haar sums with the given per-rectangle
    coefficients, evaluated on the grid: one axis is synthesized as the
    coefficients are placed (``_placed``), the others by
    ``grid.synthesize``.

    Float coefficients give float64.  Integer ones give ``grid.int_dtype``
    of the sum over shapes of ``max|values|``: every placed or butterfly
    partial sum is a sum of at most one coefficient per shape, so none can
    wrap, and a coefficient of -2**(b-1) forces a width past b bits, so its
    negation cannot wrap either.

    Integer sums are exact in any order and place the last axis, whose
    butterfly levels write with stride 2 in short inner loops.  Float sums
    place axis 0, the butterfly's first axis: in ascending axis-0 level the
    placement repeats its additions one for one, and the later axes run in
    the same order, so every float rounds as it would in a full-spectrum
    synthesis.
    """
    _check_resolution(resolution, shape_values.keys())
    if any(np.asarray(v).dtype.kind == "f" for v in shape_values.values()):
        dtype, axis = np.float64, 0
    else:
        dtype = grid.int_dtype(sum(grid.max_abs(v) for v in shape_values.values()))
        axis = resolution.d - 1
    others = [b for b in range(resolution.d) if b != axis]
    # Built inline so that ``synthesize`` holds the placed array's only
    # reference and frees it once the next axis is done.
    return grid.synthesize(_placed(shape_values, resolution, dtype, signed, axis),
                           signed, others)


def r_function_grid(rf: RFunction, resolution: Resolution) -> GridFunction:
    return GridFunction(resolution, shape_sum_grid({rf.shape: rf.signs}, resolution))


def _require_exact(field: CoefficientField) -> None:
    if field.mode != "exact":
        raise ValueError("grid functions are exact: this needs an integer field")


def hyperbolic_sum(field: CoefficientField,
                   resolution: Resolution | None = None) -> GridFunction:
    """H_n = sum over all rectangles (every shape in the field, coarse shapes
    included for extended fields) of alpha(R) h_R, exactly on the grid."""
    _require_exact(field)
    if resolution is None:
        resolution = field_resolution(field)
    return GridFunction(resolution, shape_sum_grid(field.values, resolution))


def signed_r_sum(field: CoefficientField, resolution: Resolution | None = None,
                 shapes=None) -> GridFunction:
    """Sum over the given shapes (default: all exact-volume shapes) of the
    alpha-induced r-functions -- integer valued, one synthesis."""
    chosen = list(shapes) if shapes is not None else field.exact_volume_shapes
    if resolution is None:
        resolution = minimal_resolution(chosen, field.d)
    sign_arrays = {s: signs_of(field.values[s]) for s in chosen}
    return GridFunction(resolution, shape_sum_grid(sign_arrays, resolution))


# ---------------------------------------------------------------------------
# reports and experiments
# ---------------------------------------------------------------------------


def sharpness_experiment(n_values, d: int, trials: int, seed: int,
                         threads: int = 1) -> dict:
    """Random-sign hyperbolic sums: per-n mean sup norm (exact per trial),
    the per-trial coefficient-sum check, and the fitted growth exponent of
    the mean sup norm against n.  Per-trial RNG streams are derived from
    (seed, n, trial), so results do not depend on execution order or the
    thread count."""
    if isinstance(n_values, int):
        n_values = [n_values]
    n_values = sorted(n_values)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    per_n = []
    for n in n_values:
        res = minimal_resolution(enumerate_shapes(n, d), d)
        count = shape_count(n, d)

        def one_trial(t: int, n=n, res=res, count=count):
            field = CoefficientField.random_signs(n, d, (seed, n, t))
            ok = Fraction(field.abs_sum(), 1 << n) == count
            return grid.sup_norm(hyperbolic_sum(field, res)), ok

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
