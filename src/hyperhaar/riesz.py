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

The reports never build per-cell Python integers.  Each nonlinear
quantity pools the cells by the small-integer vector it depends on:
(F_1..F_q) for T and the partial products, (sd_1..sd_q) for Psi_sd and
(nsd_2..nsd_q) for Psi_nsd.  The big-integer arithmetic is done once per
distinct vector, weighted by int64 cell counts or by int64 sums of H over
the vector's cells.  A pool folds its columns into one mixed-radix int64
key per cell, in place, and numbers the distinct keys in the narrowest
width that holds their count.  A key whose span-sized presence table
needs fewer bytes than an argsort of the cells (every q=3 key up to n=7)
is numbered through that table; only wider keys (the q=4 sd and nsd keys
at n=6 and 7) are argsorted.  The split itself is
checked per power of rho~, on integer grids.  One ``ShortProduct`` holds
the grids and pools of a field, builds each on first use, and serves
every report.

Every r-function is synthesized once, by ``hyperbolic.signed_r_sum``.
The short product keeps each one on its own grid (per axis, its level
+ 1); the sd/nsd layers and Gamma_t are sums of r-function products over
shape tuples and are computed by ``coincidence.sum_products``, which also
serves ``coincidence.prod_over``: each sum is a Haar sum on the tuples'
join shapes, read off those own grids and synthesized by
``hyperbolic.shape_sum_slabs``.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

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
        out *= 2 + hyperbolic.signed_r_sum(field, res, shapes=[(s, n - s)])
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
    if field.mode == "float":
        tol = 1e-10
        expected = field.abs_sum() / scale
        h = hyperbolic.shape_sum_grid(field.values, res)
        psi_values = psi.astype(np.float64) / scale  # exact: a power of two
        mean = float(np.sum(psi_values)) / res.cells
        inner = float(np.sum(h * psi_values)) / res.cells
    else:
        tol = 0
        expected = Fraction(field.abs_sum(), scale)
        dtype = grid.int_dtype(grid.max_abs(psi) * res.cells)
        mean = Fraction(int(psi.sum(dtype=dtype)), res.cells * scale)
        h = hyperbolic.hyperbolic_sum(field, res)
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
    given directly.  The first-coordinate values {0..n} are split into q
    consecutive intervals as equally as possible, the leading intervals
    taking the remainder, and block t collects the shapes whose first
    coordinate falls in interval t.  ``rho_tilde`` may be overridden (for
    instance to 0) for edge-case experiments.

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
    if not 1 <= q <= n + 1:
        raise ValueError(f"q={q} must lie in 1..{n + 1} (blocks would be empty)")
    values = list(range(n + 1))
    base, extra = divmod(len(values), q)
    intervals = []
    start = 0
    for t in range(q):
        size = base + (1 if t < extra else 0)
        intervals.append(tuple(values[start:start + size]))
        start += size
    shapes = hyperbolic.enumerate_shapes(n, 3)
    blocks = tuple(
        tuple(s for s in shapes if s[0] in interval) for interval in intervals
    )
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
        intervals=tuple(intervals), blocks=blocks,
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


def _check_block_index(params: RieszParams, t: int) -> None:
    if not 1 <= t <= params.q:
        raise ValueError(f"t={t} out of range 1..{params.q}")


# ---------------------------------------------------------------------------
# pooling cells by small-integer keys
# ---------------------------------------------------------------------------

#: Bound on every intermediate pooling key; int64 holds twice this.
KEY_LIMIT = 1 << 62


def _fold_key(columns, limit: int = KEY_LIMIT) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct per-cell vectors of small-integer columns.

    Returns (inverse, counts): for every cell the index of its vector among
    the k distinct vectors in lexicographic order, in ``grid.int_dtype(k)``,
    and each vector's int64 cell count.  The columns are folded one at a
    time into a mixed-radix int64 key, in place: ``key * width + col - lo``.
    Before a column would take the product of spans past ``limit``, the key
    is renumbered densely, so no intermediate key reaches ``limit``.
    """
    key = np.zeros(np.asarray(columns[0]).size, dtype=np.int64)
    span = 1
    for col in columns:
        col = np.asarray(col).reshape(-1)
        lo = int(col.min())
        width = int(col.max()) - lo + 1
        if span * width > limit:
            dense, span = _densify(key, span)
            key[...] = dense
            if span * width > limit:
                raise grid.GridTooLargeError(
                    f"pooling key needs {span} x {width} values (limit {limit})")
        # int64 wraps modulo 2^64 and the result is below ``limit``, so a
        # wrap in ``+= col`` is undone by ``-= lo``
        key *= width
        key += col
        key -= lo
        span *= width
    inverse, span = _densify(key, span)
    counts = np.zeros(span, dtype=np.int64)
    np.add.at(counts, inverse, 1)
    return inverse, counts


def _densify(key: np.ndarray, span: int) -> tuple[np.ndarray, int]:
    """Renumber the int64 keys in [0, span) as 0..k-1, keeping their order.

    Returns the new numbering in ``grid.int_dtype(k)`` and k.  A span whose
    table needs fewer bytes than the sort is renumbered through it: a
    ``bool`` presence array over the span, cast to the narrow width and
    cumsummed in place, and one lookup per cell, which is the result.  A
    wider span is argsorted and ranked in ``key`` itself, which is then
    narrowed; the boundary mask of the sorted keys is written over them and
    cumsummed in place.  The table route is also the faster wherever it is
    the smaller.
    """
    # Bytes each route holds beyond the key and the result: per value of the
    # span, the presence flag and the table entry; per cell, the order, the
    # sorted keys and their boundary mask.
    entry = np.dtype(grid.int_dtype(min(span, key.size))).itemsize
    if span * (1 + entry) <= key.size * (8 + 8 + 1):
        present = np.zeros(span, dtype=bool)
        present[key] = True
        k = int(np.count_nonzero(present))
        table = present.astype(grid.int_dtype(k))
        del present
        np.cumsum(table, out=table)
        table -= 1
        return table[key], k
    order = np.argsort(key)
    ranks = key[order]
    new = ranks[1:] != ranks[:-1]
    ranks[1:] = new
    del new
    ranks[0] = 0
    np.cumsum(ranks, out=ranks)
    key[order] = ranks
    k = int(ranks[-1]) + 1
    del order, ranks
    return key.astype(grid.int_dtype(k), copy=False), k


class _Pool:
    """Cells pooled by equal key vectors: each cell's key index, in the
    narrowest width that numbers the keys, and the cell count of every
    key."""

    def __init__(self, columns) -> None:
        self.inverse, counts = _fold_key(columns)
        self.counts = counts.tolist()

    def at_keys(self, values: np.ndarray) -> list[int]:
        """A grid that is constant on every key, as one value per key: each
        cell writes its value at its key."""
        out = np.empty(len(self.counts), dtype=values.dtype)
        out[self.inverse] = values.reshape(-1)
        return out.tolist()

    def sums(self, values: np.ndarray) -> list[int]:
        """Exact int64 segment sums of an integer grid, one per key."""
        out = np.zeros(len(self.counts), dtype=np.int64)
        np.add.at(out, self.inverse, values.reshape(-1))
        return out.tolist()


def _dot(a, b) -> int:
    return sum(map(operator.mul, a, b))


# ---------------------------------------------------------------------------
# the short product
# ---------------------------------------------------------------------------

#: Default budget: refuse sd/nsd enumerations beyond this many tuples.
SD_TUPLE_BUDGET = 200_000


def _sd_tuple_counts(params: RieszParams) -> dict[int, int]:
    """The number of u-tuples with one shape from each of u distinct
    blocks, for u = 1..q."""
    sizes = [len(b) for b in params.blocks]
    return {u: sum(math.prod(combo) for combo in itertools.combinations(sizes, u))
            for u in range(1, params.q + 1)}


class ShortProduct:
    """The d=3 short product Psi = prod_t (1 + rho~ F_t) of one exact-mode
    coefficient field, with its strongly-distinct split
    Psi = 1 + Psi_sd + Psi_nsd.

    The constructor only validates.  Every grid is built once, on first
    use, and shared by all the reports.  With rho~ = N/D exactly, values
    are scaled by ``scale`` = D^q: T = Psi * D^q = prod_t (D + N F_t).
    ``budget`` caps the u-tuples that ``layers`` enumerates.
    """

    def __init__(self, field: CoefficientField, params: RieszParams, *,
                 budget: int = SD_TUPLE_BUDGET) -> None:
        _check_short_inputs(field, params)
        self.field = field
        self.params = params
        self.budget = budget
        self.resolution = hyperbolic.field_resolution(field)
        frac = params.rho_tilde_exact
        self.num, self.den = frac.numerator, frac.denominator
        self.scale = self.den ** params.q

    @cached_property
    def r_grids(self) -> dict[Shape, np.ndarray]:
        """The r-function of every shape on its own grid, one synthesis
        each."""
        return coincidence.own_r_grids(
            self.field, [s for block in self.params.blocks for s in block])

    @cached_property
    def block_sums(self) -> list[np.ndarray]:
        """F_1..F_q: the sums of the r-functions of each block."""
        return [
            hyperbolic.signed_r_sum(self.field, self.resolution, shapes=block)
            for block in self.params.blocks
        ]

    @cached_property
    def h(self) -> np.ndarray:
        """The hyperbolic sum H as an int64 grid (int64 so that
        ``np.add.at`` into the int64 segment sums keeps its fast path)."""
        return hyperbolic.hyperbolic_sum(self.field, self.resolution) \
            .astype(np.int64)

    @cached_property
    def layers(self) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
        """(sd, nsd): for every u, the grid sum of the products of the
        r-functions over the u-tuples with one shape from each of u
        distinct blocks, split by the strongly-distinct predicate and
        summed by ``coincidence.sum_products``."""
        params = self.params
        coincidence.check_budget(sum(_sd_tuple_counts(params).values()),
                                 self.budget)
        sd, nsd = {}, {}
        for u in range(1, params.q + 1):
            sd_tuples, nsd_tuples = [], []
            for subset in itertools.combinations(params.blocks, u):
                for tup in itertools.product(*subset):
                    (sd_tuples if coincidence.strongly_distinct(tup)
                     else nsd_tuples).append(tup)
            sd[u] = coincidence.sum_products(sd_tuples, self.r_grids,
                                             self.resolution)
            nsd[u] = coincidence.sum_products(nsd_tuples, self.r_grids,
                                              self.resolution)
        return sd, nsd

    @cached_property
    def f_pool(self) -> _Pool:
        """Cells pooled by (F_1..F_q)."""
        return _Pool(self.block_sums)

    @cached_property
    def sd_pool(self) -> _Pool:
        """Cells pooled by (sd_1..sd_q)."""
        return _Pool(list(self.layers[0].values()))

    @cached_property
    def nsd_pool(self) -> _Pool:
        """Cells pooled by (nsd_2..nsd_q).  nsd_1 is always zero (a single
        shape is strongly distinct); it is the whole key only when q = 1."""
        nsd = list(self.layers[1].values())
        return _Pool(nsd[1:] or nsd)

    @cached_property
    def f_values(self) -> list[tuple[int, ...]]:
        """(F_1..F_q) at every key of ``f_pool``."""
        return list(zip(*(self.f_pool.at_keys(f) for f in self.block_sums)))

    def partial_products(self, v) -> list[int]:
        """prod over t in v of (D + N F_t) at every key of ``f_pool``."""
        n_, d_ = self.num, self.den
        return [math.prod(d_ + n_ * fs[t - 1] for t in v) for fs in self.f_values]

    def scaled(self, pool: _Pool, by_u: dict[int, np.ndarray]) -> list[int]:
        """sum over u of N^u D^(q-u) * layer_u at every key of ``pool``,
        whose key must fix every layer in ``by_u``."""
        q = self.params.q
        weights = [self.num**u * self.den ** (q - u) for u in by_u]
        return [_dot(weights, vals) for vals in
                zip(*(pool.at_keys(layer) for layer in by_u.values()))]

    def gamma(self, t: int) -> np.ndarray:
        """Gamma_t as an integer grid: the sum over ordered pairs of
        distinct shapes in block t sharing the first coordinate of the
        product of their r-functions.  (The unordered sum is half of
        this.)"""
        _check_block_index(self.params, t)
        return _gamma_grid(self.params.blocks[t - 1], self.r_grids,
                           self.resolution)


def _gamma_grid(block, r_own, resolution: Resolution) -> np.ndarray:
    """Gamma_t of one block from the own-grid r-functions of its shapes:
    each unordered pair sharing the first coordinate is summed once and the
    total doubled, at the width ``grid.int_dtype`` gives twice the pair
    count."""
    pairs = [(a, b) for a, b in itertools.combinations(block, 2)
             if a[0] == b[0]]
    out = coincidence.sum_products(pairs, r_own, resolution) \
        .astype(grid.int_dtype(2 * len(pairs)), copy=False)
    out *= 2
    return out


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
    sd, nsd = sp.layers
    bounds = _sd_tuple_counts(sp.params)
    # |e_u(F)| <= e_u(#A_1..#A_q), the u-tuple count; so is every partial
    # sum and product of the recurrence e_u += F_t e_(u-1)
    e = {u: np.zeros(sp.resolution.grid_shape, dtype=grid.int_dtype(bound))
         for u, bound in bounds.items()}
    for t, f in enumerate(sp.block_sums, 1):
        for u in range(t, 1, -1):
            e[u] += np.multiply(f, e[u - 1], dtype=e[u].dtype)
        e[1] += f
    identity_ok = all(
        np.array_equal(e[u], np.add(sd[u], nsd[u], dtype=e[u].dtype))
        for u in e)
    sd_sums = {u: int(layer.sum()) for u, layer in sd.items()}
    return {
        "n": sp.params.n,
        "q": sp.params.q,
        "tuples": sum(bounds.values()),
        "identity_ok": identity_ok,
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
    Inner products pair the per-key values with the int64 sums of H over
    each key's cells: ``f_pool`` keys for Psi, ``sd_pool`` keys for Psi_sd
    and its layers.
    """
    cells = sp.resolution.cells
    sup_h = grid.max_abs(sp.h)
    if grid.int_dtype(sup_h * cells) is object:
        raise grid.GridTooLargeError("segment sums of H could overflow int64")
    sd, _ = sp.layers
    pool = sp.sd_pool
    h_sums = pool.sums(sp.h)
    rho = Fraction(sp.num, sp.den)

    rhs1 = rho * Fraction(int(sp.field.abs_sum()), 2**sp.params.n)
    layer_inner = {u: _dot(h_sums, pool.at_keys(layer))
                   for u, layer in sd.items()}
    inner_sd1 = rho * Fraction(layer_inner[1], cells)
    identity_1 = inner_sd1 == rhs1

    higher = {u: v for u, v in layer_inner.items() if u >= 2}
    higher_ok = all(v == 0 for v in higher.values())

    sd_scaled = sp.scaled(pool, sd)
    inner_sd = _dot(h_sums, sd_scaled)
    t = sp.partial_products(range(1, sp.params.q + 1))
    certificates = {
        "psi": _certificate(_dot(sp.f_pool.sums(sp.h), t),
                            _dot(sp.f_pool.counts, map(abs, t)), sup_h),
        "psi_sd": _certificate(inner_sd,
                               _dot(pool.counts, map(abs, sd_scaled)), sup_h),
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
    if l1_scaled == 0:
        bound = Fraction(0)
    else:
        bound = Fraction(inner_scaled, l1_scaled)
    return {"lower_bound": bound, "sup_norm": sup_h, "sound": bound <= sup_h}


# ---------------------------------------------------------------------------
# Gamma_t
# ---------------------------------------------------------------------------


def gamma_identity_report(sp: ShortProduct) -> dict:
    """For every block t, check exactly that averaging over the first
    coordinate gives  E_x1(F_t^2) = #A_t + E_x1(Gamma_t)  cellwise in the
    remaining coordinates, and that E(Gamma_t) = 0 (each contributing pair
    has a unique maximal level in both remaining coordinates).

    Each side is summed over x1 on its own, in int64: the squares F_t^2 at
    the width of their bound #A_t^2 (|F_t| <= #A_t), then #A_t times the
    2^L0 cells of the x1 axis and the sum of Gamma_t come off.  No
    full-size grid is wider than its bound."""
    params = sp.params
    per_t = []
    all_ok = True
    for t in range(1, params.q + 1):
        f = sp.block_sums[t - 1]
        count = len(params.blocks[t - 1])
        residual = np.sum(np.multiply(f, f, dtype=grid.int_dtype(count**2)),
                          axis=0, dtype=np.int64)
        residual -= count * f.shape[0]
        g = sp.gamma(t)
        residual -= np.sum(g, axis=0, dtype=np.int64)
        ok = not residual.any()
        mean_zero = int(np.sum(g, dtype=np.int64)) == 0
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


#: The orders r of the partial product norms N(V; r).
PARTIAL_NORM_ORDERS = (1, 2)


def norm_report(sp: ShortProduct, v_list=()) -> RieszNormReport:
    """Measured norms of the short product: exact mean, exact fraction of
    negative cells, exact L1, L2, the sd/nsd L1 norms, and the partial
    product norms N(V; r) = || prod over t in V of (1 + rho~ F_t) ||_r.

    Also reports, without asserting anything: a' = log||Psi||_2 / q^(2b)
    (the measured constant in the L2 growth), and the two sides of the
    heuristic identification rho~^2 #A_q with a^2 q^(2b-1).
    """
    params = sp.params
    scale = sp.scale
    cells = sp.resolution.cells
    counts = sp.f_pool.counts
    t = sp.partial_products(range(1, params.q + 1))
    mean = Fraction(_dot(counts, t), cells * scale)
    negative = Fraction(sum(c for c, v in zip(counts, t) if v < 0), cells)
    l1 = Fraction(_dot(counts, map(abs, t)), cells * scale)
    second = Fraction(sum(c * v * v for c, v in zip(counts, t)),
                      cells * scale**2)
    l2 = math.sqrt(float(second))
    sd_l1, nsd_l1 = (
        Fraction(_dot(pool.counts, map(abs, sp.scaled(pool, by_u))),
                 cells * scale)
        for pool, by_u in zip((sp.sd_pool, sp.nsd_pool), sp.layers))
    partial = []
    for v in v_list:
        v = tuple(sorted(v))
        prods = [abs(p) for p in sp.partial_products(v)]
        pscale = sp.den ** len(v)
        for r in PARTIAL_NORM_ORDERS:
            moment = Fraction(_dot(counts, (p**r for p in prods)),
                              cells * pscale**r)
            partial.append((v, r, float(moment) ** (1.0 / r)))
    b2 = 2 * float(B_EXPONENT)
    a_prime = math.log(l2) / params.q**b2 if l2 > 0 else float("nan")
    rho2_last = params.rho_tilde**2 * len(params.blocks[-1])
    a2_q = params.a**2 * params.q ** (b2 - 1)
    return RieszNormReport(
        mean=mean, negative_fraction=negative, l1=l1, l2=l2,
        sd_l1=sd_l1, nsd_l1=nsd_l1, partial_norms=tuple(partial),
        a_prime=a_prime, rho2_last_block=rho2_last, a2_q_power=a2_q,
    )
