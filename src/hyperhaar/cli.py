"""Command-line driver: verification suites and experiment runners.

Every subcommand is a pure function of its flags and seed; outputs are
deterministic (sorted JSON keys, no timestamps) and embed provenance:
the parsed config, the library version, and the scalar mode.

Exit codes: 0 all checks pass / output written; 1 an exact identity
failed; 2 validation or budget errors (argparse uses the same code);
3 I/O errors.

Importing this module and building its parser load only the standard
library, and not ``fractions`` or ``csv``, which the output imports where
it needs them; each subcommand imports the library modules it runs (numpy
with them), so ``discrepancy`` never loads ``hyperbolic``, ``sharpness``
never loads ``coincidence``, ``riesz`` or ``discrepancy``, and only
``verify`` and ``graphs`` load ``graphs``.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from . import __version__


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _jsonify(obj):
    from fractions import Fraction  # already loaded by the library modules
    import numpy as np  # already loaded: main imports grid
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _render(payload: dict, rows, args) -> str:
    provenance = {
        "config": {k: _jsonify(v) for k, v in sorted(vars(args).items())
                   if k not in ("func",)},
        "version": __version__,
        "scalar_mode": "exact" if getattr(args, "exact", True) else "float",
    }
    if args.format == "csv":
        import csv
        out = io.StringIO()
        out.write("# provenance: " + json.dumps(_jsonify(provenance),
                                                sort_keys=True) + "\n")
        rows = rows or []
        if rows:
            writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _jsonify(v) for k, v in row.items()})
        return out.getvalue()
    body = dict(payload)
    body["provenance"] = provenance
    return json.dumps(_jsonify(body), sort_keys=True, indent=2) + "\n"


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------


def _range_bounds(text: str) -> tuple[int, int]:
    lo, hi = (int(v) for v in text.split(".."))
    if hi < lo:
        raise ValueError(f"empty range {text!r}: {hi} < {lo}")
    return lo, hi


def _parse_int_range(text: str) -> list[int]:
    """"4..8" -> [4,5,6,7,8]; "5" -> [5].  Every n must be at least 1."""
    lo, hi = _range_bounds(text) if ".." in text else (int(text),) * 2
    if lo < 1:
        raise ValueError(f"--n-range values must be at least 1: {text!r}")
    return list(range(lo, hi + 1))


def _parse_doubling(text: str) -> list[int]:
    """"2..1024" -> [2,4,...,1024] (doubling); plain comma list otherwise."""
    if ".." in text:
        lo, hi = _range_bounds(text)
        if lo < 1:
            raise ValueError(f"doubling range {text!r} must start at 1 or more")
        out = []
        n = lo
        while n <= hi:
            out.append(n)
            n *= 2
        return out
    return [int(v) for v in text.split(",")]


def _parse_p_list(text: str) -> list[int]:
    """"2,4" -> [2, 4]; the entries must be positive integers, strictly
    increasing."""
    ps = [int(v) for v in text.split(",")]
    if min(ps) < 1:
        raise ValueError(f"--p-list entries must be positive: {text!r}")
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError(f"--p-list must be strictly increasing: {text!r}")
    return ps


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {value}")
    return value


#: Defaults of the common flags that some subcommand ignores, by dest
#: (``exact`` is ``--float``).  --seed, --out and --format serve all.
_COMMON_DEFAULTS = {"n": 4, "d": 3, "q": None, "a": 1.0, "eps": 0.5,
                    "exact": True, "threads": 1, "budget": None}

#: Per subcommand, the common flags it ignores and what it runs instead.
#: Set off its default, such a flag is refused rather than recorded in the
#: provenance as if it had selected something.  Only riesz2d computes in
#: float64, and only verify, riesz3d and beck-gain enumerate tuples.
_IGNORED_FLAGS = {
    "verify": (("d", "q", "a", "eps", "exact", "threads"),
               "verify runs fixed exact d=2 and d=3 suites up to --n"),
    "riesz2d": (("q", "a", "eps", "threads", "budget"),
                "riesz2d checks the d=2 product of --n over --trials fields"),
    "riesz3d": (("d", "exact", "threads"),
                "riesz3d builds the exact d=3 short product"),
    "beck-gain": (("n", "d", "a", "eps", "exact", "threads"),
                  "beck-gain measures exact d=3 classes over --n-range"),
    "sharpness": (("n", "q", "a", "eps", "exact", "budget"),
                  "sharpness measures exact hyperbolic sums over --n-range"),
    "lp-profile": (("q", "a", "eps", "exact", "threads", "budget"),
                   "lp-profile measures one exact hyperbolic sum of --n"),
    "discrepancy": (("n", "q", "a", "eps", "exact", "threads", "budget"),
                    "discrepancy scans point sets over --n-range"),
    "graphs": (("n", "d", "q", "a", "eps", "exact", "threads", "budget"),
               "graphs enumerates the admissible graphs on --vertices"),
}


def _check_ignored_flags(args) -> None:
    names, runs = _IGNORED_FLAGS[args.command]
    ignored = ["--float" if name == "exact" else f"--{name}" for name in names
               if getattr(args, name) != _COMMON_DEFAULTS[name]]
    if ignored:
        raise ValueError(f"{runs}; {', '.join(ignored)} would be ignored")


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=_COMMON_DEFAULTS["n"])
    sub.add_argument("--d", type=int, default=_COMMON_DEFAULTS["d"],
                     choices=(2, 3))
    sub.add_argument("--q", type=int, default=_COMMON_DEFAULTS["q"])
    sub.add_argument("--a", type=float, default=_COMMON_DEFAULTS["a"])
    sub.add_argument("--eps", type=float, default=_COMMON_DEFAULTS["eps"])
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--float", dest="exact", action="store_false",
                     default=_COMMON_DEFAULTS["exact"],
                     help="float64 scalars, not exact rationals; riesz2d only")
    sub.add_argument("--threads", type=_positive_int,
                     default=_COMMON_DEFAULTS["threads"])
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    # positive when given, so `args.budget or DEFAULT` falls back only on None
    sub.add_argument("--budget", type=_positive_int,
                     default=_COMMON_DEFAULTS["budget"],
                     help="cap on the tuples of each enumeration (default 10^7, "
                          "200,000 for the short product's sd/nsd tuples); "
                          "verify, riesz3d and beck-gain only")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperhaar",
        description="dyadic products, hyperbolic Haar sums, and discrepancy",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="run the exact-identity suites")
    _common_flags(p)

    p = subs.add_parser("riesz2d", help="d=2 product identity checks")
    _common_flags(p)
    p.add_argument("--trials", type=_positive_int, default=5)

    p = subs.add_parser("riesz3d", help="short-product construction report")
    _common_flags(p)

    p = subs.add_parser("beck-gain", help="coincidence-class norm growth")
    _common_flags(p)
    # sorted(PREDICTED_EXPONENT), spelled out: the parser loads no library
    p.add_argument("--kind", default="C2",
                   choices=("B4", "B4a", "C2", "C2_restricted", "C2b"))
    p.add_argument("--n-range", default="4..8")
    p.add_argument("--p-list", default="2,4")
    p.add_argument("--block-s", type=int, default=1)
    p.add_argument("--block-t", type=int, default=2)
    p.add_argument("--pin", type=int, default=0,
                   help="pinned first coordinate for C2b / B4a")

    p = subs.add_parser("sharpness", help="sup-norm growth of hyperbolic sums")
    _common_flags(p)
    p.add_argument("--n-range", default="3..7")
    p.add_argument("--trials", type=_positive_int, default=50)

    p = subs.add_parser("lp-profile", help="L^p growth of a hyperbolic sum")
    _common_flags(p)
    p.add_argument("--p-list", default="2,4,6,8")

    p = subs.add_parser("discrepancy", help="point-set discrepancy scaling")
    _common_flags(p)
    p.add_argument("--generator", default="vdc",  # sorted(GENERATORS)
                   choices=("halton", "random", "vdc"))
    p.add_argument("--n-range", default="2..1024",
                   help="doubling range lo..hi, or comma list")
    p.add_argument("--grid-level", type=int, default=10)

    p = subs.add_parser("graphs", help="admissible coincidence graphs")
    _common_flags(p)
    p.add_argument("--vertices", type=_positive_int, default=3)
    p.add_argument("--primes", action="store_true",
                   help="also decide primality (small vertex counts only)")
    return parser


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def run_verify(args) -> tuple[int, dict, list]:
    """Exact-identity suites across the library; exit 0 iff all pass."""
    from fractions import Fraction

    from . import coincidence, graphs, grid, hyperbolic, riesz
    from .hyperbolic import CoefficientField
    grid.Resolution.uniform(args.n + 1, 3)  # the short product's, before any suite
    suites = []
    failures = []

    def record(name: str, ok: bool, details) -> None:
        suites.append({"name": name, "ok": bool(ok), "details": details})
        if not ok:
            failures.append({"suite": name, "details": details})

    n = args.n
    tuple_budget = args.budget or coincidence.MAX_TUPLES
    rep = coincidence.product_rule_exhaustive_check(n, budget=tuple_budget)
    record("product-rule-d3", rep["all_ok"],
           {k: rep[k] for k in ("shape_tuples", "rect_tuples", "failures")})

    rep = coincidence.same_volume_exhaustive_check(n)
    record("product-rule-d2-same-volume", rep["all_ok"],
           {k: rep[k] for k in ("distinct_shape_pairs", "failures")})

    d2_ok = True
    d2_details = []
    for nn in range(1, n + 1):
        for trial in range(2):
            field = CoefficientField.random_integers(nn, 2, (args.seed, nn, trial))
            if trial == 1:
                field = hyperbolic.add_coarse_random(field, (args.seed, nn, 99))
            rec = riesz.verify_temlyakov(field, nn)
            d2_ok &= rec["ok"]
            if not rec["ok"]:
                d2_details.append(rec["failures"])
    record("riesz-d2-identity", d2_ok, d2_details)

    params = riesz.make_params(n, q=min(2, n + 1))
    field = CoefficientField.random_signs(n, 3, args.seed)
    short = riesz.ShortProduct(field, params,
                               budget=args.budget or riesz.SD_TUPLE_BUDGET)
    rep = riesz.decomposition_report(short)
    record("short-product-decomposition",
           rep["identity_ok"] and rep["sd_mean_zero"], rep)

    dual = riesz.duality_certificate(short)
    dual_ok = (dual["identity_sd1"]["ok"] and dual["higher_layers"]["ok"]
               and dual["sd_equals_sd1"]
               and all(c["sound"] for c in dual["certificates"].values()))
    record("short-product-duality", dual_ok, _jsonify(dual))

    rep = riesz.gamma_identity_report(short)
    record("gamma-identity", rep["all_ok"], rep)

    ie_ok = True
    ie_details = []
    for q in (2, min(3, n + 1)):
        pq = riesz.make_params(n, q=q)
        f3 = CoefficientField.random_signs(n, 3, (args.seed, q))
        rep = graphs.inclusion_exclusion_check(
            range(1, q + 1), f3, pq.blocks, budget=tuple_budget)
        ie_ok &= rep["equal"]
        ie_details.append({"q": q, "graphs": rep["graph_count"],
                           "equal": rep["equal"]})
    record("inclusion-exclusion", ie_ok, ie_details)

    q4 = min(4, n + 1)
    pq = riesz.make_params(n, q=q4)
    f3 = CoefficientField.random_signs(n, 3, (args.seed, 4))
    g = graphs.AdmissibleGraph.make(
        range(1, q4 + 1),
        [(1, 2)] + ([(3, 4)] if q4 >= 4 else []),
        [],
    )
    if graphs.is_admissible(g):
        rep = graphs.factorization_check(g, f3, pq.blocks,
                                         budget=tuple_budget)
        record("factorization", rep["equal"], rep)

    # Known worst-case exponents per vertex count.  The uniform -1/10 bound
    # applies from four vertices on; a lone pair of two-cliques can sit at 0.
    expected_worst = {2: Fraction(-1, 4), 3: Fraction(0), 4: Fraction(-1, 8)}
    exp_ok = True
    exp_details = []
    for size, expected in expected_worst.items():
        connected = graphs.enumerate_connected_admissible(range(1, size + 1))
        worst = max(graphs.exponent_recursion(gg).exponent for gg in connected)
        exp_ok &= worst == expected
        exp_details.append({"vertices": size, "graphs": len(connected),
                            "max_exponent": str(worst)})
    record("exponent-recursion", exp_ok, exp_details)

    payload = {"ok": not failures, "suites": suites, "failures": failures}
    rows = [{"suite": s["name"], "ok": s["ok"]} for s in suites]
    return (0 if not failures else 1), payload, rows


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _cmd_riesz2d(args) -> tuple[int, dict, list]:
    from . import grid, riesz
    from .hyperbolic import CoefficientField
    grid.Resolution.uniform(args.n + 1, 2)  # the product's grid, before any draw
    rows = []
    ok = True
    for trial in range(args.trials):
        if args.exact:
            field = CoefficientField.random_integers(args.n, 2,
                                                     (args.seed, trial))
        else:
            field = CoefficientField.random_normal(args.n, 2,
                                                   (args.seed, trial))
        rec = riesz.verify_temlyakov(field, args.n)
        ok &= rec["ok"]
        rows.append({
            "trial": trial,
            "nonnegative": rec["nonnegative"],
            "mean": rec["mean"],
            "inner_product": rec["inner_product"],
            "expected_inner": rec["expected_inner"],
            "ok": rec["ok"],
        })
    return (0 if ok else 1), {"n": args.n, "trials": rows, "ok": ok}, rows


def _cmd_riesz3d(args) -> tuple[int, dict, list]:
    from . import grid, riesz
    from .hyperbolic import CoefficientField
    params = riesz.make_params(args.n, q=args.q, a=args.a, eps=args.eps)
    grid.Resolution.uniform(args.n + 1, 3)  # the short product's, before the draw
    field = CoefficientField.random_signs(args.n, 3, args.seed)
    short = riesz.ShortProduct(field, params,
                               budget=args.budget or riesz.SD_TUPLE_BUDGET)
    decomposition = riesz.decomposition_report(short)
    dual = riesz.duality_certificate(short)
    gamma_rep = riesz.gamma_identity_report(short)
    norms = riesz.norm_report(short, v_list=[(1,), tuple(range(1, params.q + 1))])
    checks = [
        {"name": "decomposition", "ok": decomposition["identity_ok"]},
        {"name": "sd-mean-zero", "ok": decomposition["sd_mean_zero"]},
        {"name": "duality-sd1", "ok": dual["identity_sd1"]["ok"]},
        {"name": "duality-higher", "ok": dual["higher_layers"]["ok"]},
        {"name": "certificate-sound",
         "ok": all(c["sound"] for c in dual["certificates"].values())},
        {"name": "gamma", "ok": gamma_rep["all_ok"]},
    ]
    ok = all(c["ok"] for c in checks)
    payload = {
        "params": {
            "n": params.n, "q": params.q, "a": params.a, "eps": params.eps,
            "rho_tilde": params.rho_tilde, "rho": params.rho,
            "intervals": params.intervals,
        },
        "checks": checks,
        "norms": norms.to_json(),
        "certificate": _jsonify(dual["certificates"]),
        "ok": ok,
    }
    return (0 if ok else 1), payload, checks


def _cmd_beck_gain(args) -> tuple[int, dict, list]:
    from . import coincidence
    # a block or pin flag off its parser default must select something
    if args.kind != "C2_restricted" and (
            (args.block_s, args.block_t) != (1, 2) or args.q is not None):
        raise ValueError(f"--q/--block-s/--block-t choose the blocks of "
                         f"C2_restricted only, not of {args.kind}")
    if args.pin and args.kind not in ("C2b", "B4a"):
        raise ValueError(f"--pin pins C2b and B4a only, not {args.kind}")
    rep = coincidence.beck_gain_measure(
        args.kind, _parse_int_range(args.n_range),
        _parse_p_list(args.p_list),
        args.seed, q=2 if args.q is None else args.q,
        s=args.block_s, t=args.block_t, b=args.pin, a=args.pin,
        budget=args.budget or coincidence.MAX_TUPLES,
    )
    payload = {"kind": args.kind, "rows": rep["rows"],
               "fitted": rep["fitted"], "counts": rep["counts"],
               "sup_bound_ok": rep["sup_bound_ok"]}
    return 0, payload, rep["rows"]


def _cmd_sharpness(args) -> tuple[int, dict, list]:
    from . import hyperbolic
    rep = hyperbolic.sharpness_experiment(
        _parse_int_range(args.n_range), args.d, args.trials, args.seed,
        threads=args.threads,
    )
    return 0, rep, rep["per_n"]


def _cmd_lp_profile(args) -> tuple[int, dict, list]:
    from . import grid, hyperbolic
    p_list = _parse_p_list(args.p_list)
    res = grid.Resolution.uniform(args.n + 1, args.d)  # the field's grid
    field = hyperbolic.CoefficientField.random_signs(args.n, args.d, args.seed)
    # H streams twice (exact moments, then Orlicz floats), S(H)^2 once
    rows = grid.lp_profile(hyperbolic.shape_sum_slabs(field.values, res),
                           hyperbolic.square_function_slabs(field), p_list)
    orlicz = grid.orlicz_norm_estimate(
        hyperbolic.shape_sum_slabs(field.values, res), 2.0, max(p_list))
    payload = {"n": args.n, "d": args.d, "rows": rows,
               "orlicz_estimate": orlicz}
    return 0, payload, rows


def _cmd_discrepancy(args) -> tuple[int, dict, list]:
    from . import discrepancy
    if args.generator == "vdc" and args.d != _COMMON_DEFAULTS["d"]:
        raise ValueError("--generator vdc is the d=2 van der Corput set; "
                         f"--d {args.d} would be ignored")
    rep = discrepancy.scaling_report(
        args.generator, _parse_doubling(args.n_range),
        grid_level=args.grid_level, seed=args.seed,
        d=2 if args.generator == "vdc" else args.d,
    )
    return 0, rep, rep["rows"]


def _cmd_graphs(args) -> tuple[int, dict, list]:
    from . import graphs
    verts = range(1, args.vertices + 1)
    rows = []
    for i, g in enumerate(graphs.enumerate_connected_admissible(verts)):
        rep = graphs.exponent_recursion(g)
        row = {
            "index": i,
            "cliques2": json.dumps(g.cliques2),
            "cliques3": json.dumps(g.cliques3),
            "exponent": rep.exponent,
            "v32": json.dumps(rep.v32),
            "v12": json.dumps(rep.v12),
        }
        if args.primes:
            row["prime"] = graphs.is_prime(g)
        rows.append(row)
    payload = {"vertices": args.vertices, "count": len(rows), "rows": rows}
    return 0, payload, rows


def run_experiment(args) -> tuple[int, dict, list]:
    handlers = {
        "riesz2d": _cmd_riesz2d,
        "riesz3d": _cmd_riesz3d,
        "beck-gain": _cmd_beck_gain,
        "sharpness": _cmd_sharpness,
        "lp-profile": _cmd_lp_profile,
        "discrepancy": _cmd_discrepancy,
        "graphs": _cmd_graphs,
    }
    return handlers[args.command](args)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .grid import BudgetExceededError, GridTooLargeError
    try:
        _check_ignored_flags(args)
        if args.command == "verify":
            code, payload, rows = run_verify(args)
        else:
            code, payload, rows = run_experiment(args)
    except BudgetExceededError as exc:
        sys.stderr.write(json.dumps(
            {"error": "budget", "detail": str(exc)}) + "\n")
        return 2
    except (GridTooLargeError, OverflowError) as exc:
        # OverflowError: a scalar past the float range, such as n**eps
        sys.stderr.write(json.dumps(
            {"error": "limit", "detail": str(exc)}) + "\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(json.dumps(
            {"error": "validation", "detail": str(exc)}) + "\n")
        return 2
    except MemoryError as exc:
        # numpy's failed allocations too; exit 1 means an identity failed
        sys.stderr.write(json.dumps(
            {"error": "memory", "detail": str(exc)}) + "\n")
        return 2
    try:
        _emit(_render(payload, rows, args), args)
    except OSError as exc:
        sys.stderr.write(json.dumps(
            {"error": "io", "path": args.out, "detail": str(exc)}) + "\n")
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
