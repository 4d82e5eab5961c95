"""The benchmark's four CLI workloads, their output gates and the commands
deliberately left out.

Each workload is one ``hyperhaar`` subcommand run as a child process with
``--seed <workload seed>`` appended.  ``loads`` and ``bypasses`` name the
layers (modules of ``src/hyperhaar``) the workload exercises and skips;
``shares`` are the self-time shares of the traced wall time that the
workload was chosen for, measured with ``--trace 1`` on a 2-core x86-64
Xeon (Python 3.11, numpy 2.4).

Sizes are chosen so that one invocation takes 2-9 s: a run then holds
several invocations and reports their median, and every run of every
workload fits the benchmark's time budget.  The larger sizes this suite
was first planned with are listed in ``LEFT_OUT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    why: str
    loads: tuple[str, ...]
    bypasses: tuple[str, ...]
    shares: dict[str, float]
    # Seed-0 stdout sha256, frozen from the commit that added the benchmark.
    seed0_digest: str
    # The payload's own verdict: True when every flag the CLI reports holds.
    flags_ok: Callable[[dict], bool]
    # sha256 of the payload without its provenance, for workloads whose
    # payload does not depend on the seed; None otherwise.
    seed_free_digest: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sharpness",
            argv=("sharpness", "--n-range", "3..7", "--trials", "4",
                  "--d", "3", "--threads", "1"),
            why=("Large int16 Haar syntheses: each n=7 trial synthesizes one "
                 "2^24-cell spectrum, so the per-axis butterfly dominates."),
            loads=("grid.synthesize_axis0", "hyperbolic.shape_sum_grid",
                   "hyperbolic.sharpness_experiment"),
            bypasses=("riesz", "coincidence", "discrepancy"),
            shares={"grid.synthesize_axis0": 0.86},
            seed0_digest=(
                "a3fcd7f6f365285de63a94f99dd64739330f727d697f0f9871a3bb04a96cc502"),
            flags_ok=lambda p: bool(p["per_n"])
            and all(row["coeff_sum_ok"] is True for row in p["per_n"]),
        ),
        Workload(
            name="riesz3d",
            argv=("riesz3d", "--n", "5", "--q", "3"),
            why=("The d=3 short product: exact object-array reductions in four "
                 "reports, each re-enumerating the 383 sd tuples (1149 tests) "
                 "and rebuilding r-grids (100 builds of 25 distinct)."),
            loads=("riesz", "coincidence.strongly_distinct",
                   "hyperbolic.shape_sum_grid", "grid.synthesize_axis0"),
            bypasses=("discrepancy", "coincidence.prod_over"),
            shares={"riesz.norm_report": 0.43,
                    "riesz.decomposition_report": 0.21,
                    "riesz.duality_certificate": 0.21,
                    "grid.synthesize_axis0": 0.04},
            seed0_digest=(
                "7f699c4766857bc2ceaafa7f851ff88a1c6ad9e350b8a6bf8a0d4d9f72d60afd"),
            flags_ok=lambda p: p["ok"] is True,
        ),
        Workload(
            name="beck-gain",
            argv=("beck-gain", "--kind", "C2_restricted", "--n-range", "4..9",
                  "--p-list", "2,4"),
            why=("Both prod_over branches (dense n<=8, join grids n=9), many "
                 "mid-size int8 syntheses and exact p=4 power sums."),
            loads=("coincidence.prod_over", "coincidence.class_c2_restricted",
                   "grid.synthesize_axis0", "grid.lp_norm", "grid.sup_norm"),
            bypasses=("riesz (only make_params)", "discrepancy"),
            shares={"coincidence.prod_over": 0.52,
                    "grid.synthesize_axis0": 0.32, "grid.lp_norm": 0.10},
            seed0_digest=(
                "38392b9a5a343c238a15a92916c784989b3db121177691a2a37075fcd3ed7ff6"),
            flags_ok=lambda p: p["sup_bound_ok"] is True,
        ),
        Workload(
            name="discrepancy",
            argv=("discrepancy", "--generator", "vdc", "--n-range",
                  "2..16384"),
            why=("Pure-Python Fraction corner counts for van der Corput sets; "
                 "no grid or hyperbolic calls, so it bypasses every other layer."),
            loads=("discrepancy.discrepancy_sup", "discrepancy.discrepancy_lp",
                   "discrepancy.van_der_corput"),
            bypasses=("grid", "hyperbolic", "riesz", "coincidence"),
            shares={"discrepancy.discrepancy_sup": 0.66,
                    "discrepancy.discrepancy_lp": 0.17,
                    "discrepancy.van_der_corput": 0.08},
            seed0_digest=(
                "9c1b6a504b788b6a8349d16bb9e66d4e776689e079d087a6372d763bd21c8e7d"),
            flags_ok=lambda p: len(p["rows"]) == 14,
            seed_free_digest=(
                "806924db4527929b1222462d9283c75a6c53e2183a17d6414bc340522e5e91d6"),
        ),
    )
}

# Commands considered and deliberately not run.
LEFT_OUT = {
    "discrepancy --generator halton --d 3":
        "at the default --grid-level 10 it dies on an 8 GiB allocation with a "
        "traceback and exit 1: a limits bug, not a load",
    "riesz3d --n 7":
        "not run: the n=6 peak is 738 MB and n=7 risks exhausting memory",
    "riesz3d --n 6 --q 3":
        "the scale target (30-36 s, 738 MB, 1821 sd tests, 128 r-grid "
        "builds) gives one sample per run; --n 5 keeps the same code path",
    "sharpness --n-range 3..7 --trials 20":
        "12-14 s per invocation; --trials 4 keeps the 2^24-cell syntheses",
    "discrepancy --generator vdc --n-range 2..65536":
        "10-12 s per invocation; 2..16384 keeps the exact and scan rows",
}
