"""Run ``hyperhaar.cli.main(argv)`` in this process with span tracing.

Usage: ``python3 perfbench/traced_main.py <run-id> <cli args...>`` with
``src`` on ``PYTHONPATH``.  Prints one JSON object: the CLI's exit code and
captured stdout, the spans, the strongly-distinct counters and the names
that could not be traced.

Tracing replaces module attributes of the library with wrappers; every
cross-module call in ``src/hyperhaar`` looks the function up on its module
at call time, so the wrappers see those calls and the intra-module ones.
A span is ``[name, start_ns, end_ns, parent_index, attrs]``; spans stay in
memory until the CLI returns.  Single-threaded runs only: the span stack
is not shared between threads.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time

# Functions that get a span, with the counts recorded from each call.
# Each measure takes (args, result) and returns a dict of counts.
SPANNED = {
    "grid.synthesize_axis0":
        lambda a, r: {"cells": a[0].size,
                      "bytes_computed": 2 * a[0].size * a[0].itemsize},
    "grid.lp_norm": None,
    "grid.sup_norm": None,
    "hyperbolic.shape_sum_grid":
        lambda a, r: {"cells": r.size,
                      "key": [sorted(a[0]), list(a[1].grid_shape)]},
    "hyperbolic.signed_r_sum": None,
    "hyperbolic.hyperbolic_sum": None,
    "hyperbolic.sharpness_experiment": None,
    "riesz.decomposition_report": None,
    "riesz.duality_certificate": None,
    "riesz.gamma_identity_report": None,
    "riesz.norm_report": None,
    "coincidence.beck_gain_measure": None,
    "coincidence.class_c2_restricted": None,
    "coincidence.prod_over":
        lambda a, r: {"tuples": len(a[0]), "cells": r.values.size},
    "discrepancy.scaling_report": None,
    "discrepancy.discrepancy_sup":
        lambda a, r: {"points": a[0].n,
                      "exact_calls": int(r["mode"] == "exact")},
    "discrepancy.discrepancy_lp":
        lambda a, r: {"cells": (1 << r["grid_level"]) ** r["d"]},
    "discrepancy.van_der_corput": None,
}

# Called too often for a span each: counted only, under riesz spans.
COUNTED = "coincidence.strongly_distinct"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.untraced: list[str] = []
        self.unmeasured: set[str] = set()
        self.sd_calls = 0
        self.sd_distinct: set = set()

    def _under_riesz(self) -> bool:
        return any(self.spans[i][0].startswith("riesz.") for i in self.stack)

    def spanned(self, name, fn, measure):
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, self.stack[-1] if self.stack else None, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                self.stack.pop()
            if measure is not None:
                try:
                    rec[4] = measure(args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.unmeasured.add(name)
            return result
        return wrapper

    def counted(self, fn):
        def wrapper(*args, **kwargs):
            if self._under_riesz():
                self.sd_calls += 1
                self.sd_distinct.add(tuple(args[0]))
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for name in [*SPANNED, COUNTED]:
            modname, attr = name.split(".")
            try:
                module = importlib.import_module("hyperhaar." + modname)
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.untraced.append(name)
                continue
            wrapped = (self.counted(fn) if name == COUNTED
                       else self.spanned(name, fn, SPANNED[name]))
            setattr(module, attr, wrapped)


def main(argv: list[str]) -> int:
    run_id, cli_args = argv[0], argv[1:]
    import hyperhaar.cli

    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    root = ["cli.main", 0, 0, None, None]
    tracer.spans.append(root)
    tracer.stack.append(0)
    root[1] = time.perf_counter_ns()
    with contextlib.redirect_stdout(captured):
        code = hyperhaar.cli.main(cli_args)
    root[2] = time.perf_counter_ns()
    tracer.stack.pop()
    json.dump({
        "run_id": run_id,
        "exit_code": code,
        "stdout": captured.getvalue(),
        "spans": tracer.spans,
        "strongly_distinct": {"calls": tracer.sd_calls,
                              "distinct": len(tracer.sd_distinct)},
        "untraced": tracer.untraced,
        "unmeasured": sorted(tracer.unmeasured),
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
