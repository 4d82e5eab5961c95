"""Point sets in the unit cube and their discrepancy function.

``D_N(x) = #(A ∩ [0, x)) - N * vol[0, x)`` for half-open anchored boxes.
The supremum norm is computed *exactly* by the critical-corner
enumeration: per axis the candidates are the point coordinates together
with 0 and 1; the supremum of D is the maximum over corners of the
closed-count value (the limit of D from above), and the infimum is the
minimum over corners of the strict-count value (attained).  Counts for
all corners at once come from a scatter-and-cumulative-sum pass, volumes
are exact rationals (float coordinates are promoted to their exact
binary rationals), so the results are exact for every input.

Large sets fall back to a labeled grid-scan lower bound; L^p norms are
estimated by midpoint sampling with the volume-term modulus recorded.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import grid
from .grid import BudgetExceededError, GridTooLargeError, Resolution

#: Largest N for which the exact corner enumeration runs by default.
EXACT_SUP_CAP = {2: 100, 3: 40}


@dataclass(frozen=True)
class PointSet:
    d: int
    points: tuple
    provenance: str = "user"

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError("d must be 2 or 3")
        if not self.points:
            raise ValueError("need at least one point")
        for p in self.points:
            if len(p) != self.d:
                raise ValueError(f"point {p} has wrong dimension")
            if not all(0 <= c < 1 for c in p):
                raise ValueError(f"point {p} outside [0,1)^d")

    @property
    def n(self) -> int:
        return len(self.points)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _radical_inverse(i: int, base: int) -> Fraction:
    num, den = 0, 1
    while i:
        i, digit = divmod(i, base)
        num = num * base + digit
        den *= base
    return Fraction(num, den)


def van_der_corput(n: int) -> PointSet:
    """d=2: point i is (i/N, base-2 radical inverse of i) -- exact rationals."""
    if n < 1:
        raise ValueError("N must be at least 1")
    pts = tuple((Fraction(i, n), _radical_inverse(i, 2)) for i in range(n))
    return PointSet(2, pts, "vdC")


def halton(n: int, bases=(2, 3, 5)) -> PointSet:
    """Radical-inverse sequence in pairwise coprime bases, one per axis."""
    if n < 1:
        raise ValueError("N must be at least 1")
    bases = tuple(bases)
    for i, b1 in enumerate(bases):
        if b1 < 2:
            raise ValueError(f"base {b1} invalid")
        for b2 in bases[i + 1:]:
            if math.gcd(b1, b2) != 1:
                raise ValueError(f"bases {b1}, {b2} are not coprime")
    pts = tuple(tuple(_radical_inverse(i, b) for b in bases) for i in range(n))
    return PointSet(len(bases), pts, "Halton")


def random_points(n: int, d: int, seed: int) -> PointSet:
    if n < 1:
        raise ValueError("N must be at least 1")
    rng = np.random.default_rng(seed)
    pts = tuple(tuple(float(c) for c in row) for row in rng.random((n, d)))
    return PointSet(d, pts, f"random({seed})")


GENERATORS = {"vdc": van_der_corput, "halton": halton, "random": random_points}


# ---------------------------------------------------------------------------
# evaluation
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
    vol = Fraction(1) if exact else 1.0
    for c in x:
        vol = vol * c
    return count - a.n * vol


# ---------------------------------------------------------------------------
# exact supremum
# ---------------------------------------------------------------------------


def _candidates(a: PointSet) -> list[list[Fraction]]:
    cands = []
    for axis in range(a.d):
        vals = {Fraction(p[axis]) for p in a.points}
        vals.update((Fraction(0), Fraction(1)))
        cands.append(sorted(vals))
    return cands


def _extreme(values: np.ndarray, maximize: bool):
    """Extreme value with the lexicographically smallest attaining index."""
    idx = np.unravel_index(np.argmax(values) if maximize else np.argmin(values),
                           values.shape)
    return values[idx], idx


def discrepancy_sup(a: PointSet, approximate: bool = False,
                    grid_level: int = 10, cap: int | None = None) -> dict:
    """Exact sup/inf of D over the unit cube (see module docstring), or a
    labeled grid-scan lower bound when the set is too large and
    ``approximate`` is set."""
    limit = cap if cap is not None else EXACT_SUP_CAP[a.d]
    if a.n > limit:
        if not approximate:
            raise BudgetExceededError(
                f"N={a.n} exceeds the exact-sup cap {limit}; "
                "pass approximate=True for a sampled lower bound"
            )
        return _scan_bounds(a, grid_level)
    cands = _candidates(a)
    vol = np.array([Fraction(1)], dtype=object)
    for c in cands:
        vol = np.multiply.outer(vol, np.array(c, dtype=object))
    vol = vol[0] * a.n
    le = _scan_grid_counts(a, cands, strict=False).astype(object)
    lt = _scan_grid_counts(a, cands, strict=True).astype(object)
    sup, sup_idx = _extreme(le - vol, maximize=True)
    inf, inf_idx = _extreme(lt - vol, maximize=False)
    return {
        "n": a.n,
        "d": a.d,
        "mode": "exact",
        "sup": sup,
        "inf": inf,
        "sup_abs": max(sup, -inf),
        "corner_sup": tuple(cands[j][i] for j, i in enumerate(sup_idx)),
        "corner_inf": tuple(cands[j][i] for j, i in enumerate(inf_idx)),
    }


def _scan_grid_counts(a: PointSet, corners, strict: bool) -> np.ndarray:
    """#points inside the box at every corner of the per-axis sorted
    ``corners``: strict uses p_j < corner_j, non-strict p_j <= corner_j (the
    limit from above).  A point past an axis's last corner is in no box.
    The exact candidates always end in 1, which no coordinate reaches."""
    shape = tuple(len(g) for g in corners)
    counts = np.zeros(shape, dtype=np.int64)
    for p in a.points:
        idx = []
        ok = True
        for axis, g in enumerate(corners):
            pj = Fraction(p[axis])
            pos = bisect_right(g, pj) if strict else bisect_left(g, pj)
            if pos >= len(g):
                ok = False
                break
            idx.append(pos)
        if ok:
            counts[tuple(idx)] += 1
    for axis in range(a.d):
        counts = np.cumsum(counts, axis=axis)
    return counts


def _check_grid_level(grid_level: int, d: int) -> None:
    """Refuse a scan grid of 2^(grid_level*d) corners before allocating it,
    naming the byte estimate and the level that would fit."""
    try:
        Resolution.uniform(grid_level, d)
    except GridTooLargeError as exc:
        cells = 1 << (grid_level * d)
        raise GridTooLargeError(
            f"{exc}: --grid-level {grid_level} in d={d} means {cells} corners, "
            f"{8 * cells} bytes ({8 * cells / 2**30:g} GiB) per int64/float64 "
            f"grid; --grid-level {grid.MAX_TOTAL_LEVEL // d} or lower fits"
        ) from None


def _scan_bounds(a: PointSet, grid_level: int) -> dict:
    """Evaluate D (and its limit from above) on the corner grid k/2^level,
    k = 1..2^level: a certified lower bound on the sup and upper bound on
    the inf, each within N * d * 2^-level of exact."""
    _check_grid_level(grid_level, a.d)
    g = 1 << grid_level
    axis_vals = [Fraction(k, g) for k in range(1, g + 1)]
    corners = [axis_vals] * a.d
    vol = np.array(axis_vals, dtype=np.float64)
    for _ in range(a.d - 1):
        vol = np.multiply.outer(vol, np.array(axis_vals, dtype=np.float64))
    vol = vol * a.n
    le = _scan_grid_counts(a, corners, strict=False)
    lt = _scan_grid_counts(a, corners, strict=True)
    sup = float(np.max(le - vol))
    inf = float(np.min(lt - vol))
    return {
        "n": a.n,
        "d": a.d,
        "mode": "scan-lower-bound",
        "grid_level": grid_level,
        "sup": sup,
        "inf": inf,
        "sup_abs": max(sup, -inf),
        "gap_bound": a.n * a.d / g,
    }


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
    mids = [Fraction(2 * k + 1, 2 * g) for k in range(g)]
    corners = [mids] * a.d
    counts = _scan_grid_counts(a, corners, strict=True).astype(np.float64)
    vol = np.array(mids, dtype=np.float64)
    for _ in range(a.d - 1):
        vol = np.multiply.outer(vol, np.array(mids, dtype=np.float64))
    values = counts - a.n * vol
    norm = float(np.mean(np.abs(values) ** p) ** (1.0 / p))
    return {
        "n": a.n,
        "d": a.d,
        "p": p,
        "grid_level": grid_level,
        "value": norm,
        "modulus_bound": a.n * a.d / g,
    }


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
        rows.append({
            "generator": generator,
            "n": n,
            "sup_abs": float(rec["sup_abs"]),
            "sup_mode": rec["mode"],
            "l2": lp["value"],
        })
    fit_rows = [r for r in rows if r["n"] >= 4 and r["sup_abs"] > 0]
    if len(fit_rows) >= 2:
        xs = np.log([math.log(r["n"]) for r in fit_rows])
        sups = np.array([r["sup_abs"] for r in fit_rows])
        sup_exp = float(np.polyfit(xs, np.log(sups), 1)[0])
        l2_exp = float(np.polyfit(xs, np.log([max(r["l2"], 1e-300) for r in fit_rows]), 1)[0])
        logn = np.array([math.log(r["n"]) for r in fit_rows])
        slope, intercept = np.polyfit(logn, sups, 1)
        resid = sups - (slope * logn + intercept)
        total = sups - sups.mean()
        ss_tot = float(total @ total)
        r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else float("nan")
        linear = {"slope": float(slope), "intercept": float(intercept), "r2": r2}
    else:
        sup_exp = l2_exp = float("nan")
        linear = {"slope": float("nan"), "intercept": float("nan"),
                  "r2": float("nan")}
    return {"rows": rows, "fitted_sup_exponent": sup_exp,
            "fitted_l2_exponent": l2_exp, "sup_log_fit": linear}

