"""Riesz products over dyadic rectangles.

Two constructions:

* the classical d=2 product ``prod_s (1 + psi_s / 2)`` over all n+1 shapes
  of a fixed volume, whose inner product against the hyperbolic sum equals
  ``2^{-n-1} * sum |alpha(R)|`` exactly — verified cellwise;
* the d=3 *short* product ``prod_t (1 + rho~ F_t)`` over q block sums,
  with the strongly-distinct / not-strongly-distinct decomposition, the
  same-first-coordinate pair sums Gamma_t, exact duality certificates, and
  measured norm reports.

Exactness strategy: every identity is checked in scaled integers.  A grid
is an integer array over a scale that is passed explicitly (see ``grid``).
The d=2 product is the array ``prod (2 + psi_s)`` over ``2^{n+1}``; the
short product writes the scalar ``rho~`` as the exact rational N/D of its
float64 value and scales by D^q, so that ``T = Psi * D^q = prod (D + N
F_t)`` and the scaled sd/nsd layers ``sum_u N^u D^(q-u) sd_u`` are
integers over D^q.  All stated identities
hold for *any* rational value of ``rho~``, so pinning it to the float's
exact rational loses nothing.  Psi depends only on the coefficient signs,
so it is an exact grid for float fields too; a float field (the d=2 check
only) meets it through its float64 hyperbolic sum and float64 sums.

The reports never build per-cell Python integers.  Each quantity is a
polynomial in rho~ = N/D with integer grids as coefficients: T = sum_u
N^u D^(q-u) e_u(F_1..F_q), and the scaled sd/nsd sums weight their layers
the same way.  One pass (``ShortProduct.sums``) takes every integer sum
the reports read, each at the width of its bound, and the weights N^u
D^(q-u) combine them in Python ints.  The L1 norms need each cell's sign:
T's is the product of the signs of D + N F_t, exact from integer
thresholds; those of Psi_sd and Psi_nsd come from a float filter,
rechecked in Python ints where its error bound cannot decide.  The split
itself is checked per power of rho~, on integer grids.

No grid of the full resolution is kept.  The pass reads aligned axis-0
slab streams, in pieces of 2^16 cells: F_1..F_q and H from
``hyperbolic.shape_sum_slabs``, and each sd/nsd layer and each Gamma_t
from ``coincidence.product_slabs`` over its enumerated tuples, as Haar
sums on their join shapes read off each shape's pair expansion
(``hyperbolic.r_function``) on the join's levels.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import coincidence, grid, hyperbolic
from .grid import Resolution
from .hyperbolic import CoefficientField, Shape

#: Exponent b in rho~ = a * q**b / n.
B_EXPONENT = Fraction(1, 6)


# ---------------------------------------------------------------------------
# d=2: the classical product
# ---------------------------------------------------------------------------


def _check_d2_exact_volume(field: CoefficientField, n: int) -> None:
    if field.d != 2:
        raise ValueError("the d=2 product needs a two-dimensional field")
    if field.n != n:
        raise ValueError(f"field has volume parameter {field.n}, not {n}")


def temlyakov_product(field: CoefficientField, n: int) -> np.ndarray:
    """Psi = prod over all n+1 shapes s of (1 + psi_s/2), where psi_s is the
    sign-pattern r-function of shape (s, n-s), as the integer grid over
    2^(n+1): the product of the factors (2 + psi_s) on the full grid, with
    |values| <= 3^(n+1).  Nonnegative with mean one.  Exact for float
    fields too: Psi depends only on the signs."""
    _check_d2_exact_volume(field, n)
    res = Resolution((n + 1, n + 1))
    # int64: the running product is not bounded by any one factor
    out = np.ones(res.grid_shape, dtype=np.int64)
    for s in range(n + 1):
        shape = (s, n - s)
        out *= 2 + hyperbolic.r_function(
            hyperbolic.signs_of(field.values[shape]), shape, res.levels)
    return out


def verify_temlyakov(field: CoefficientField, n: int) -> dict:
    """Check: Psi >= 0 cellwise, E(Psi) = 1, and <H, Psi> = 2^(-n-1) * sum
    of |alpha(R)| over the exact-volume rectangles.  Coarser-rectangle
    coefficients may be present in the field; they change H but cancel
    from the inner product.  Exact for integer fields: <H, Psi> is one
    integer sum of H times Psi's grid over ``cells * 2^(n+1)``, at the
    width ``int_dtype`` gives its bound.  A float field's H is a float64
    array, and the mean and inner product are float64 sums checked to
    1e-10.

    Returns a record with per-check results; failures are structured (the
    offending identity and, for negativity, a witness cell), not raised.
    """
    _check_d2_exact_volume(field, n)
    res = Resolution((n + 1, n + 1))
    failures = []
    psi = temlyakov_product(field, n)
    scale = 2 ** (n + 1)
    h = hyperbolic.shape_sum_grid(field.values, res)
    if field.mode == "float":
        tol = 1e-10
        expected = field.abs_sum() / scale
        psi_values = psi.astype(np.float64) / scale  # exact: a power of two
        mean = float(np.sum(psi_values)) / res.cells
        inner = float(np.sum(h * psi_values)) / res.cells
    else:
        tol = 0
        expected = Fraction(field.abs_sum(), scale)
        dtype = grid.int_dtype(grid.max_abs(psi) * res.cells)
        mean = Fraction(int(psi.sum(dtype=dtype)), res.cells * scale)
        dtype = grid.int_dtype(grid.max_abs(h) * grid.max_abs(psi) * res.cells)
        total = np.multiply(h, psi, dtype=dtype).sum(dtype=dtype)
        inner = Fraction(int(total), res.cells * scale)
    nonneg = bool(np.min(psi) >= 0)
    mean_ok = abs(mean - 1) <= tol
    inner_ok = abs(inner - expected) <= tol * max(1, abs(expected))
    if not nonneg:
        idx = np.unravel_index(int(np.argmin(psi)), psi.shape)
        failures.append({"check": "nonnegative", "cell": tuple(int(i) for i in idx)})
    if not mean_ok:
        failures.append({"check": "mean", "lhs": mean, "rhs": 1})
    if not inner_ok:
        failures.append({"check": "inner_product", "lhs": inner, "rhs": expected})
    return {
        "n": n,
        "mode": field.mode,
        "nonnegative": nonneg,
        "mean": mean,
        "mean_ok": mean_ok,
        "inner_product": inner,
        "expected_inner": expected,
        "inner_ok": inner_ok,
        "ok": nonneg and mean_ok and inner_ok,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# short-product parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RieszParams:
    """Parameters of the short product: q blocks of first-coordinate values,
    the scalars rho~ = a q^b / n (b = 1/6) and rho = sqrt(q)/n, and the
    shape blocks A_t themselves."""

    n: int
    d: int
    a: float
    eps: float
    q: int
    rho_tilde: float
    rho: float
    intervals: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[Shape, ...], ...]

    @property
    def rho_tilde_exact(self) -> Fraction:
        return Fraction(self.rho_tilde)


def make_params(n: int, q: int | None = None, a: float = 1.0,
                eps: float = 0.5, rho_tilde: float | None = None) -> RieszParams:
    """Build short-product parameters for d=3.

    q defaults to round(a * n**eps), clamped to at least 1; it may also be
    given directly, and must lie in 1..n+1.  The intervals of
    first-coordinate values and the shape blocks are those of
    ``coincidence.first_coordinate_blocks``.  ``rho_tilde`` may be
    overridden (for instance to 0) for edge-case experiments.

    Raises ``OverflowError``, naming ``--a``/``--eps`` and their values,
    when ``a * n**eps`` or the bound prod_t (1 + |rho~| #B_t)**2 of the
    product's moments is past the float range, before anything is built.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n} (rho~ divides by n)")
    if not (0 < a < math.inf and math.isfinite(eps)):
        raise ValueError(f"a must be positive and finite and eps finite, not "
                         f"a={a}, eps={eps}")
    if q is None:
        try:
            scale = a * n**eps
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):
            raise OverflowError(f"--a {a} times n**--eps = {n}**{eps} is past "
                                f"the float range")
        q = max(1, round(scale))
    intervals, blocks = coincidence.first_coordinate_blocks(n, q)
    if rho_tilde is None:
        rho_tilde = a * q ** float(B_EXPONENT) / n
    # |1 + rho~ F_t| <= 1 + |rho~| #B_t, so this bounds every product moment
    # the norm report turns into a float
    log_l2_squared = math.fsum(2 * math.log1p(abs(rho_tilde) * len(block))
                               for block in blocks)
    if not log_l2_squared < math.log(sys.float_info.max):
        raise OverflowError(
            f"rho~ = {rho_tilde:g} (--a {a}, q={q}, n={n}) puts the product "
            f"bound prod_t (1 + rho~ #B_t)**2 = e**{log_l2_squared:g} past the "
            f"float range")
    return RieszParams(
        n=n, d=3, a=a, eps=eps, q=q,
        rho_tilde=float(rho_tilde), rho=math.sqrt(q) / n,
        intervals=intervals, blocks=blocks,
    )


def _check_short_inputs(field: CoefficientField, params: RieszParams) -> None:
    if field.d != 3:
        raise ValueError("short product is a d=3 construction")
    if field.n != params.n:
        raise ValueError("field and params disagree on n")
    if field.coarse_shapes:
        raise ValueError("short product expects exact-volume coefficients only")
    if field.mode != "exact":
        raise ValueError("short product is exact-mode only")


# ---------------------------------------------------------------------------
# exact sums over slab chunks
# ---------------------------------------------------------------------------


def _elementary(values) -> list[int]:
    """e_0..e_k of the numbers.  Of the block sizes these are the u-tuple
    counts with one shape from each of u distinct blocks, which bound
    |e_u(F_1..F_k)|, |sd_u| and |nsd_u|."""
    e = [1]
    for x in values:
        e = [a + x * b for a, b in zip(e + [0], [0] + e)]
    return e


def _chunks(*slabs):
    """Matching flat pieces of ``grid._POWER_CHUNK`` cells of the slabs,
    each with its offset in the slab."""
    flats = [s.reshape(-1) for s in slabs]
    for start in range(0, flats[0].size, grid._POWER_CHUNK):
        yield start, [f[start:start + grid._POWER_CHUNK] for f in flats]


def _isum(a: np.ndarray, b: np.ndarray, bound: int) -> int:
    """The exact sum of a * b over a chunk whose products are at most
    ``bound`` in magnitude, at the width ``grid.int_dtype`` gives the
    chunk's sum (Python ints past int64)."""
    dtype = grid.int_dtype(bound * a.size)
    return int(np.multiply(a, b, dtype=dtype).sum(dtype=dtype))


def _factor_signs(f: np.ndarray, bound: int, num: int, den: int) -> np.ndarray:
    """sign(D + N f) on a chunk with |f| <= bound, as int8: f against the
    floor and the ceiling of -D/N (D > 0), clipped to +-(bound + 1)."""
    if not num:
        return np.ones(f.size, dtype=np.int8)
    lo, hi = -bound - 1, bound + 1
    above = f > min(max(-den // num, lo), hi)
    below = f < min(max(-(den // num), lo), hi)
    signs = above.view(np.int8) - below.view(np.int8)
    return signs if num > 0 else -signs


def _weights(num: int, den: int, k: int) -> list[int]:
    """N^u D^(k-u) for u = 0..k: the weight of e_u in prod of k factors
    (D + N F_t), and of the layer u in the scaled sd/nsd sums (k = q)."""
    return [num**u * den ** (k - u) for u in range(k + 1)]


def _weighted(weights, sums) -> int:
    """sum_u w_u sums[u], in Python ints."""
    return sum(map(operator.mul, weights, sums))


def _product_chunk(fs, sizes, num: int, den: int):
    """e_0..e_k of chunks of F_1..F_k (e_0 = 1), each at the width of its
    bound e_u(sizes), and sign(prod_t (D + N F_t)) as int8; |F_t| <=
    sizes[t-1]."""
    e = [np.ones(fs[0].size, dtype=np.int8)]
    e += [np.zeros(fs[0].size, dtype=grid.int_dtype(b))
          for b in _elementary(sizes)[1:]]
    signs = np.ones(fs[0].size, dtype=np.int8)
    for t, (f, bound) in enumerate(zip(fs, sizes), 1):
        for u in range(t, 0, -1):
            e[u] += np.multiply(f, e[u - 1], dtype=e[u].dtype)
        signs *= _factor_signs(f, bound, num, den)
    return e, signs


def _layer_signs(layers, num: int, den: int, bounds) -> np.ndarray:
    """sign(S), S = sum_u N^u D^(q-u) L_u, on every cell of the chunks of
    the layers L_1..L_q, |L_u| <= bounds[u-1], as int8.

    When |rho~| sum_u bound_u < 1 (rho~ = 0 too), sign(rho~^k L_k) at the
    first nonzero layer L_k: the later terms sum to less than |rho~|^k in
    magnitude.  Otherwise a float filter (Shewchuk 1997): the float64
    value of S / D^q = sum_u rho~^u L_u decides every cell where it
    exceeds ``error``, and the cells it leaves open are decided by
    ``_exact_signs``, except those whose layers are all 0, where the
    value is exactly 0.
    """
    q = len(layers)
    if abs(num) * sum(bounds) < den:
        signs = np.zeros(layers[0].size, dtype=np.int8)
        sign = (num > 0) - (num < 0)
        for u, layer in reversed(list(enumerate(layers, 1))):
            lead = np.sign(layer).astype(np.int8) * sign**u
            signs = np.where(layer != 0, lead, signs)
        return signs
    powers = [num**u / den**u for u in range(1, q + 1)]  # correctly rounded
    # Over twice the forward error bound of the float64 sum of the terms
    # fl(rho~^u) L_u, each rounded once, summed in order: (q + 1) eps/2
    # sum_u |rho~^u| bound_u to first order, if every power is normal.
    error = ((q + 2) * sys.float_info.epsilon
             * math.fsum(map(operator.mul, map(abs, powers), bounds))
             if min(map(abs, powers)) >= sys.float_info.min else math.inf)
    value = np.multiply(layers[0], powers[0], dtype=np.float64)
    for power, layer in zip(powers[1:], layers[1:]):
        value += np.multiply(layer, power, dtype=np.float64)
    signs = np.sign(value).astype(np.int8)
    cells = np.flatnonzero(np.abs(value, out=value) <= error)
    if cells.size:
        open_ = [layer[cells] for layer in layers]
        live = np.logical_or.reduce([layer != 0 for layer in open_])
        if live.any():
            signs[cells[live]] = _exact_signs([layer[live] for layer in open_],
                                              _weights(num, den, q)[1:])
    return signs


def _exact_signs(layers, weights) -> np.ndarray:
    """sign(sum_u w_u L_u) of every cell, in Python ints."""
    total = sum(w * layer.astype(object) for w, layer in zip(weights, layers))
    return np.sign(total).astype(np.int8)


class _Terms:
    """Exact sums over the cells of the terms x_u of a sum S = sum_u w_u
    x_u, folded chunk by chunk: sum x_u, sum sign(S) x_u, the count of
    cells with S < 0 and, when asked, sum H x_u and sum x_u x_v (``cross``:
    then x_0 = 1, so sum x_0 x_v is sum x_v).  ``bounds`` bound the |x_u|,
    and ``h_bound`` bounds |H|."""

    def __init__(self, weights, bounds, h_bound: int = 0) -> None:
        k = len(weights)
        self.weights, self.bounds, self.h_bound = weights, bounds, h_bound
        self.total, self.signed, self.h = [0] * k, [0] * k, [0] * k
        self.cross = [[0] * k for _ in range(k)]
        self.negative = 0

    def add(self, terms, signs, h=None, cross: bool = False) -> None:
        self.negative += int(np.count_nonzero(signs < 0))
        for u, (x, bound) in enumerate(zip(terms, self.bounds)):
            self.total[u] += int(x.sum(dtype=grid.int_dtype(bound * x.size)))
            self.signed[u] += _isum(signs, x, bound)
            if h is not None:
                self.h[u] += _isum(h, x, bound * self.h_bound)
            for v in range(u, len(terms)) if cross and u else ():
                self.cross[u][v] += _isum(x, terms[v], bound * self.bounds[v])

    def square_sum(self) -> int:
        """The sum of S^2 = sum_(u,v) w_u w_v x_u x_v, from ``cross``."""
        w, c = self.weights, [self.total] + self.cross[1:]
        return sum(w[u] * w[v] * c[u][v] * (1 if u == v else 2)
                   for u in range(len(w)) for v in range(u, len(w)))


# ---------------------------------------------------------------------------
# the short product
# ---------------------------------------------------------------------------

#: Default budget: refuse sd/nsd enumerations beyond this many tuples.
SD_TUPLE_BUDGET = 200_000


class _Sums(NamedTuple):
    """The fold of ``ShortProduct.sums``; ``planes`` and ``gamma`` hold,
    per block, the sums over x1 of F_t^2 - Gamma_t and the sum of Gamma_t."""

    product: _Terms
    sd: _Terms
    nsd: _Terms
    identity: bool
    sup_h: int
    planes: list
    gamma: list


class ShortProduct:
    """The d=3 short product Psi = prod_t (1 + rho~ F_t) of one exact-mode
    coefficient field, with its strongly-distinct split
    Psi = 1 + Psi_sd + Psi_nsd.

    The constructor only validates.  It keeps, each built on first use,
    the enumerated ``tuples`` and ``sums``, the one fold that the reports
    read, of streams of ``rows`` = min(2**(m0 // 2),
    ``hyperbolic.slab_rows``) rows (m0 the level of axis 0; 8 rows from
    n=5 up) on one shared workspace.
    With rho~ = N/D exactly, values are scaled by ``scale`` = D^q:
    T = Psi * D^q = prod_t (D + N F_t).  ``budget`` caps the u-tuples.
    """

    def __init__(self, field: CoefficientField, params: RieszParams, *,
                 budget: int = SD_TUPLE_BUDGET) -> None:
        _check_short_inputs(field, params)
        self.field = field
        self.params = params
        self.budget = budget
        self.resolution = hyperbolic.field_resolution(field)
        # the streams' default from n=7 up; below it, the fold's many
        # streams each hold smaller slabs
        self.rows = min(1 << self.resolution.levels[0] // 2,
                        hyperbolic.slab_rows(self.resolution))
        frac = params.rho_tilde_exact
        self.num, self.den = frac.numerator, frac.denominator
        self.scale = self.den ** params.q
        self.sizes = [len(block) for block in params.blocks]
        #: u-tuple counts, u = 0..q
        self.tuple_counts = _elementary(self.sizes)

    @cached_property
    def tuples(self) -> tuple[list[list], list[list], list[list]]:
        """(sd, nsd, pairs): for u = 1..q, the u-tuples with one shape from
        each of u distinct blocks, split by the strongly-distinct
        predicate; for t = 1..q, the unordered pairs of shapes of block t
        that share the first coordinate."""
        blocks = self.params.blocks
        coincidence.check_budget(sum(self.tuple_counts[1:]), self.budget)
        sd, nsd = [[] for _ in blocks], [[] for _ in blocks]
        for u in range(1, len(blocks) + 1):
            for subset in itertools.combinations(blocks, u):
                for tup in itertools.product(*subset):
                    (sd if coincidence.strongly_distinct(tup)
                     else nsd)[u - 1].append(tup)
        pairs = [[(a, b) for a, b in itertools.combinations(block, 2)
                  if a[0] == b[0]] for block in blocks]
        return sd, nsd, pairs

    def block_slabs(self, t: int, workspace: grid.Workspace | None = None):
        """The slabs of F_t, the sum of the r-functions of block t."""
        signs = {s: hyperbolic.signs_of(self.field.values[s])
                 for s in self.params.blocks[t - 1]}
        return hyperbolic.shape_sum_slabs(signs, self.resolution, True, self.rows,
                                          workspace)

    @cached_property
    def sums(self) -> _Sums:
        """One pass over the aligned slab streams of F_1..F_q, H, the sd and
        nsd layers and Gamma_t, in pieces of ``grid._POWER_CHUNK`` cells:
        the exact sums of the e_u(F_1..F_q) (the terms of T) with sign(T),
        each other and H, of the sd layers with sign(Psi_sd) and H, of the
        nsd layers with sign(Psi_nsd), max |H|, whether e_u(F) = sd_u +
        nsd_u on every cell, and the Gamma_t sums.  Products with H take
        the bound of its width, the sum over shapes of max |alpha|."""
        q, sizes, num, den = self.params.q, self.sizes, self.num, self.den
        counts = self.tuple_counts
        sd_tuples, nsd_tuples, pairs = self.tuples
        h_bound = sum(grid.max_abs(v) for v in self.field.values.values())
        product = _Terms(_weights(num, den, q), counts, h_bound)
        sd_sums = _Terms(_weights(num, den, q)[1:], counts[1:], h_bound)
        nsd_sums = _Terms(_weights(num, den, q)[1:], counts[1:])
        plane = self.resolution.cells >> self.resolution.levels[0]
        planes = [np.zeros(plane, dtype=np.int64) for _ in range(q)]
        gamma = [0] * q
        sup_h, identity = 0, True
        # the streams advance in turn, so they share one workspace
        ws = grid.Workspace()
        streams = [*(self.block_slabs(t, ws) for t in range(1, q + 1)),
                   hyperbolic.shape_sum_slabs(self.field.values, self.resolution,
                                              True, self.rows, ws),
                   *(coincidence.product_slabs(tuples, self.field,
                                               self.resolution, self.rows, ws)
                     for tuples in sd_tuples + nsd_tuples + pairs)]
        for slabs in zip(*streams):
            sup_h = max(sup_h, grid.max_abs(slabs[q]))
            for start, pieces in _chunks(*slabs):
                fs, h = pieces[:q], pieces[q]
                sd, nsd, gs = (pieces[q + 1 + i * q:q + 1 + (i + 1) * q]
                               for i in range(3))
                e, signs = _product_chunk(fs, sizes, num, den)
                product.add(e, signs, h, cross=True)
                sd_sums.add(sd, _layer_signs(sd, num, den, counts[1:]), h)
                nsd_sums.add(nsd, _layer_signs(nsd, num, den, counts[1:]))
                identity &= all(
                    np.array_equal(eu, np.add(a, b, dtype=eu.dtype))
                    for eu, a, b in zip(e[1:], sd, nsd))
                # a piece is whole rows of the plane or a part of one row
                width = min(h.size, plane)
                col = start % plane
                for t, (f, g) in enumerate(zip(fs, gs)):
                    # F_t^2 - Gamma_t, Gamma_t twice the pair sum g
                    residual = np.multiply(f, f, dtype=grid.int_dtype(
                        sizes[t] ** 2 + 2 * len(pairs[t])))
                    residual -= g
                    residual -= g
                    planes[t][col:col + width] += residual.reshape(-1, width).sum(
                        axis=0, dtype=np.int64)
                    gamma[t] += 2 * int(g.sum(dtype=np.int64))
            # the slabs and all the fold still binds: zip then reuses its
            # tuple and frees each stream's slab as that stream yields the
            # next, so the streams do not hold two slabs each
            del slabs, pieces, fs, h, sd, nsd, gs, e, signs, residual, f, g
        return _Sums(product, sd_sums, nsd_sums, identity, sup_h, planes, gamma)


# ---------------------------------------------------------------------------
# sd / not-sd decomposition
# ---------------------------------------------------------------------------


def decomposition_report(sp: ShortProduct) -> dict:
    """Exact decomposition checks on one grid:

    * ``identity_ok``   — Psi = 1 + Psi_sd + Psi_nsd, with *both* pieces
      from direct enumeration.  Since T = sum_u N^u D^(q-u) e_u(F_1..F_q),
      it is checked per u, as e_u(F) = sd_u + nsd_u cellwise on integer
      grids, so it holds for every value of rho~, 0 included;
    * ``sd_mean_zero``  — every sd layer has exact mean zero;
    * tuple counts per layer.
    """
    sums = sp.sums
    sd_sums = dict(enumerate(sums.sd.total, 1))
    return {
        "n": sp.params.n,
        "q": sp.params.q,
        "tuples": sum(sp.tuple_counts[1:]),
        "identity_ok": sums.identity,
        "sd_mean_zero": all(v == 0 for v in sd_sums.values()),
        "sd_layer_sums": sd_sums,
    }


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def duality_certificate(sp: ShortProduct) -> dict:
    """Exact duality record:

    (i)   <H, Psi_sd_1> = rho~ * 2^(-n) * sum |alpha(R)|;
    (ii)  <H, Psi_sd_u> = 0 for every u >= 2;
    (iii) for Phi in {Psi, Psi_sd}: the certified lower bound
          <H, Phi> / ||Phi||_1 <= ||H||_inf, all three quantities exact.

    The certificate is sound unconditionally -- it is the duality
    inequality itself, so (iii) failing would mean an arithmetic bug.
    Every quantity is a sum over u of N^u D^(q-u) times an integer sum
    over the cells, read from ``ShortProduct.sums``: <H, e_u> and
    sign(T) e_u for Psi, <H, sd_u> and sign(Psi_sd) sd_u for Psi_sd.
    """
    cells = sp.resolution.cells
    product, sd, sup_h = sp.sums.product, sp.sums.sd, sp.sums.sup_h
    rho = Fraction(sp.num, sp.den)

    rhs1 = rho * Fraction(int(sp.field.abs_sum()), 2**sp.params.n)
    inner_sd1 = rho * Fraction(sd.h[0], cells)
    identity_1 = inner_sd1 == rhs1

    higher = dict(enumerate(sd.h[1:], 2))
    higher_ok = all(v == 0 for v in higher.values())

    inner_sd = _weighted(sd.weights, sd.h)
    certificates = {
        "psi": _certificate(_weighted(product.weights, product.h),
                            _weighted(product.weights, product.signed), sup_h),
        "psi_sd": _certificate(inner_sd, _weighted(sd.weights, sd.signed),
                               sup_h),
    }
    inner_sd_total = Fraction(inner_sd, cells * sp.scale)
    return {
        "n": sp.params.n,
        "q": sp.params.q,
        "identity_sd1": {"lhs": inner_sd1, "rhs": rhs1, "ok": identity_1},
        "higher_layers": {"sums": higher, "ok": higher_ok},
        "sd_equals_sd1": inner_sd_total == inner_sd1,
        "certificates": certificates,
        "sup_norm_H": sup_h,
    }


def _certificate(inner_scaled: int, l1_scaled: int, sup_h: int) -> dict:
    bound = Fraction(inner_scaled, l1_scaled) if l1_scaled else Fraction(0)
    return {"lower_bound": bound, "sup_norm": sup_h, "sound": bound <= sup_h}


# ---------------------------------------------------------------------------
# Gamma_t
# ---------------------------------------------------------------------------


def gamma_identity_report(sp: ShortProduct) -> dict:
    """For every block t, check exactly that averaging over the first
    coordinate gives  E_x1(F_t^2) = #A_t + E_x1(Gamma_t)  cellwise in the
    remaining coordinates, and that E(Gamma_t) = 0 (each contributing pair
    has a unique maximal level in both remaining coordinates).

    Both come from ``ShortProduct.sums``: the (x2, x3) plane of the sums
    over x1 of F_t^2 - Gamma_t, in int64, minus #A_t times the 2^L0 cells
    of the x1 axis, must vanish, and so must the sum of Gamma_t."""
    params = sp.params
    sums = sp.sums
    per_t = []
    all_ok = True
    for t in range(1, params.q + 1):
        count = len(params.blocks[t - 1])
        residual = sums.planes[t - 1] - count * (1 << sp.resolution.levels[0])
        ok = not residual.any()
        mean_zero = sums.gamma[t - 1] == 0
        all_ok &= ok and mean_zero
        per_t.append({
            "t": t,
            "block_size": count,
            "conditional_identity_ok": ok,
            "gamma_mean_zero": mean_zero,
        })
    return {"n": params.n, "q": params.q, "per_t": per_t, "all_ok": bool(all_ok)}


# ---------------------------------------------------------------------------
# norm report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RieszNormReport:
    mean: Fraction
    negative_fraction: Fraction
    l1: Fraction
    l2: float
    sd_l1: Fraction
    nsd_l1: Fraction
    partial_norms: tuple
    a_prime: float
    rho2_last_block: float
    a2_q_power: float

    def to_json(self) -> dict:
        return {
            "mean": str(self.mean),
            "negative_fraction": str(self.negative_fraction),
            "l1": float(self.l1),
            "l2": self.l2,
            "sd_l1": float(self.sd_l1),
            "nsd_l1": float(self.nsd_l1),
            "partial_norms": [
                {"V": list(v), "r": r, "norm": norm}
                for v, r, norm in self.partial_norms
            ],
            "a_prime": self.a_prime,
            "rho2_last_block": self.rho2_last_block,
            "a2_q_power": self.a2_q_power,
        }


def norm_report(sp: ShortProduct, v_list=()) -> RieszNormReport:
    """Measured norms of the short product: exact mean, exact fraction of
    negative cells, exact L1, L2, the sd/nsd L1 norms, and the partial
    product norms N(V; r) = || prod over t in V of (1 + rho~ F_t) ||_r.

    Every moment is a sum over powers of rho~ of integer sums over the
    cells, read from ``ShortProduct.sums``; a proper nonempty subset V
    streams the F_t of its own blocks again and folds them the same way.
    Only the L2 norm and N(V; r) are floats of them.

    Also reports, without asserting anything: a' = log||Psi||_2 / q^(2b)
    (the measured constant in the L2 growth), and the two sides of the
    heuristic identification rho~^2 #A_q with a^2 q^(2b-1).
    """
    params = sp.params
    scale = sp.scale
    cells = sp.resolution.cells
    product, sd, nsd = sp.sums.product, sp.sums.sd, sp.sums.nsd
    w = product.weights
    mean = Fraction(_weighted(w, product.total), cells * scale)
    negative = Fraction(product.negative, cells)
    l1 = Fraction(_weighted(w, product.signed), cells * scale)
    second = Fraction(product.square_sum(), cells * scale**2)
    l2 = math.sqrt(float(second))
    sd_l1, nsd_l1 = (Fraction(_weighted(layers.weights, layers.signed),
                              cells * scale) for layers in (sd, nsd))
    partial = []
    for v in v_list:
        v = tuple(sorted(v))
        sizes = [sp.sizes[t - 1] for t in v]
        if v == tuple(range(1, params.q + 1)):
            part = product
        elif v:
            part = _Terms(_weights(sp.num, sp.den, len(v)), _elementary(sizes))
            ws = grid.Workspace()
            for slabs in zip(*(sp.block_slabs(t, ws) for t in v)):
                for _, fs in _chunks(*slabs):
                    part.add(*_product_chunk(fs, sizes, sp.num, sp.den),
                             cross=True)
        pscale = sp.den ** len(v)
        moments = ((1, 1) if not v else  # the empty product is 1
                   (Fraction(_weighted(part.weights, part.signed),
                             cells * pscale),
                    Fraction(part.square_sum(), cells * pscale**2)))
        partial += [(v, r, float(moment) ** (1.0 / r))
                    for r, moment in zip((1, 2), moments)]
    b2 = 2 * float(B_EXPONENT)
    a_prime = math.log(l2) / params.q**b2 if l2 > 0 else float("nan")
    rho2_last = params.rho_tilde**2 * len(params.blocks[-1])
    a2_q = params.a**2 * params.q ** (b2 - 1)
    return RieszNormReport(
        mean=mean, negative_fraction=negative, l1=l1, l2=l2,
        sd_l1=sd_l1, nsd_l1=nsd_l1, partial_norms=tuple(partial),
        a_prime=a_prime, rho2_last_block=rho2_last, a2_q_power=a2_q,
    )
