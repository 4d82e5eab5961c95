"""Benchmark of the hyperhaar command line, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sharpness --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Closed loop, one client: each invocation is a child process
(``python3 -m hyperhaar.cli <workload argv> --seed <seed>``) started only
after the previous one exited, with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP
pinned to one thread.  Invocations repeat for about ``--seconds`` (at least
one); the last one started is the one expected to end nearest that mark.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``setup_s``: median wall time of a child that imports ``hyperhaar.cli``,
  builds the parser and exits (one warm-up, then SETUP_RUNS timed).
* ``wall_s``: median wall time of one invocation, spawn to exit.
* ``peak_rss_mb``: median of each invocation's peak RSS (``wait4`` rusage).

``--trace 1`` makes the same untraced invocations, then one traced child
(``traced_main.py``), and reports the per-layer metrics of BENCHMARK.json.

Every invocation passes the output gate: exit code 0, the payload's own
flags true, and stdout identical across the run's invocations and equal to
the frozen digest for seed 0.  ``failed`` counts invocations that miss it.
The last line of stdout is the JSON result; the lines before it record the
environment, the samples and the gate.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from traced_main import SPANNED  # noqa: E402
from workloads import LEFT_OUT, WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
CLI_SOURCE = ROOT / "src" / "hyperhaar" / "cli.py"
TRACE_OUT = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 9
# Every run must end within 180 s; leave a margin for the parent itself.
RUN_DEADLINE_S = 170.0
CHILD_ENV = {"PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1"}
SETUP_CODE = "import hyperhaar.cli as c; c.build_parser()"


@dataclass
class Child:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], timeout_s: float) -> Child:
    """Run one child to completion and return its wall time and rusage.

    The child is reaped with ``wait4`` (not ``Popen.wait``) so that its own
    peak RSS and CPU time are read.  A child still running after
    ``timeout_s`` is killed and reported with exit code -9.
    """
    env = dict(os.environ, **CHILD_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lock = threading.Lock()
    reaped = False

    def kill() -> None:
        with lock:
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    # Wait without reaping, so the pid cannot be reused before the timer
    # learns that the child has ended; then reap it for its rusage.
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    with lock:
        reaped = True
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    timer.cancel()
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 usage.ru_utime + usage.ru_stime, out, err[0])


def cli_argv(w: Workload, seed: int) -> list[str]:
    return [sys.executable, "-m", "hyperhaar.cli", *w.argv, "--seed", str(seed)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gate(w: Workload, seed: int, child: Child, digests: list[str]) -> str | None:
    """Why the invocation's output is wrong, or None when it passes."""
    if child.exit_code != 0:
        return f"exit code {child.exit_code}: {child.stderr[-400:]!r}"
    try:
        payload = json.loads(child.stdout)
        flags = w.flags_ok(payload)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable payload: {exc!r}"
    if not flags:
        return "a flag of the payload is false"
    digest = sha256(child.stdout)
    digests.append(digest)
    if seed == 0 and digest != w.seed0_digest:
        return f"stdout sha256 {digest} differs from the frozen seed-0 digest"
    if w.seed_free_digest is not None:
        payload.pop("provenance", None)
        body = sha256(json.dumps(payload, sort_keys=True).encode())
        if body != w.seed_free_digest:
            return f"payload sha256 {body} differs from the frozen digest"
    if digest != digests[0]:
        return f"stdout sha256 {digest} differs from this run's first {digests[0]}"
    return None


def environment() -> dict:
    def read(path: str, default: str = "unknown") -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return default

    model = next((line.split(":", 1)[1].strip()
                  for line in read("/proc/cpuinfo", "").splitlines()
                  if line.startswith("model name")), platform.processor())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "child_env": {k: v for k, v in CHILD_ENV.items() if k != "PYTHONPATH"},
        "loop": "closed, 1 client, 1 child process at a time",
    }


def measure_setup(deadline: float) -> list[float]:
    """Wall times of set-up children after one untimed warm-up."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        child = run_child([sys.executable, "-c", SETUP_CODE],
                          deadline - time.perf_counter())
        if child.exit_code != 0:
            raise SystemExit(f"perfbench: set-up child exit code "
                             f"{child.exit_code}: {child.stderr[-400:]!r}")
        times.append(child.wall_s)
    return times[1:]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer numbers from the traced child's spans and counters."""
    spans = trace["spans"]
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    flat: dict[str, float] = {}
    for name in SPANNED:
        flat[f"{name}.calls"] = 0
        flat[f"{name}.self_s"] = 0.0
    r_grid_keys = []
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        self_s = (end - start - covered[i]) / 1e9
        flat[f"{name}.calls"] = flat.get(f"{name}.calls", 0) + 1
        flat[f"{name}.self_s"] = flat.get(f"{name}.self_s", 0.0) + self_s
        for key, value in (attrs or {}).items():
            if key != "key":
                flat[f"{name}.{key}"] = flat.get(f"{name}.{key}", 0) + value
        if name == "hyperbolic.shape_sum_grid" and attrs:
            p = parent
            while p is not None and not spans[p][0].startswith("riesz."):
                p = spans[p][3]
            if p is not None:
                r_grid_keys.append(json.dumps(attrs["key"]))
    synth_s = flat["grid.synthesize_axis0.self_s"]
    flat["grid.synthesize_axis0.cells_per_s"] = (
        flat.get("grid.synthesize_axis0.cells", 0) / synth_s if synth_s else 0.0)
    sd = trace["strongly_distinct"]
    flat["riesz.tuples_enumerated"] = sd["calls"]
    flat["riesz.tuples_distinct"] = sd["distinct"]
    flat["riesz.tuple_reuse_ratio"] = (
        sd["distinct"] / sd["calls"] if sd["calls"] else 0.0)
    flat["riesz.r_grid_builds"] = len(r_grid_keys)
    flat["riesz.r_grid_distinct"] = len(set(r_grid_keys))
    flat["riesz.r_grid_reuse_ratio"] = (
        len(set(r_grid_keys)) / len(r_grid_keys) if r_grid_keys else 0.0)
    flat["cli.self_s"] = flat.pop("cli.main.self_s")
    flat["cli.output_bytes"] = len(trace["stdout"].encode())
    flat["trace.spans"] = len(spans)
    return flat


def write_spans(trace: dict, workload: str, seed: int) -> Path:
    TRACE_OUT.mkdir(exist_ok=True)
    path = TRACE_OUT / f"spans-{workload}-seed{seed}.json"
    run_id = trace["run_id"]
    with open(path, "w") as fh:
        json.dump({"run_id": run_id, "spans": [
            {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
             "run_id": run_id, "attrs": attrs}
            for name, start, end, parent, attrs in trace["spans"]]}, fh)
    return path


def run_workload(w: Workload, seed: int, seconds: float, traced: bool,
                 spec: dict) -> dict:
    """One run: set-up children, untraced invocations for ``seconds``, and
    with ``traced`` one traced invocation.  Returns the result object."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    failures: list[str] = []
    setup_times: list[float] = []
    if not traced:
        setup_times = measure_setup(deadline)
    digests: list[str] = []
    samples: list[Child] = []
    loop_start = time.perf_counter()
    while True:
        child = run_child(cli_argv(w, seed), deadline - time.perf_counter())
        samples.append(child)
        reason = gate(w, seed, child, digests)
        if reason:
            failures.append(reason)
        # Start another invocation only if it should end nearer to
        # ``seconds`` than this one did, and well before the deadline.
        now = time.perf_counter()
        if (now - loop_start + child.wall_s / 2 >= seconds
                or deadline - now < 2.5 * child.wall_s):
            break
    ok_samples = [c for c in samples if c.exit_code == 0] or samples
    wall = statistics.median(c.wall_s for c in ok_samples)
    detail = {
        "workload": w.name, "seed": seed, "trace": int(traced),
        "command": ["python3", "-m", "hyperhaar.cli", *w.argv,
                    "--seed", str(seed)],
        "why": w.why, "loads": w.loads, "bypasses": w.bypasses,
        "environment": environment(),
        "wall_s": [round(c.wall_s, 4) for c in samples],
        "peak_rss_mb": [round(c.peak_rss_mb, 2) for c in samples],
        "cpu_s": [round(c.cpu_s, 3) for c in samples],
        "setup_s": [round(t, 4) for t in setup_times],
    }
    attempted = len(samples)
    if traced:
        attempted += 1
        trace = run_traced(w, seed, deadline, digests, failures)
        metrics = layer_metrics(trace["parsed"]) if trace["parsed"] else {}
        metrics["cli.cpu_s"] = statistics.median(c.cpu_s for c in ok_samples)
        metrics["trace.wall_s"] = trace["wall_s"]
        metrics["trace.overhead_s"] = trace["wall_s"] - wall
        trace["shares"] = {
            name: {"predicted": share,
                   "measured": metrics.get(f"{name}.self_s", 0.0) / trace["wall_s"]}
            for name, share in w.shares.items()}
        detail["traced_run"] = {k: v for k, v in trace.items()
                                if k != "parsed"}
        specs = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in ok_samples),
        }
        specs = spec["end_to_end"]
    detail["stdout_sha256"] = sorted(set(digests))
    detail["gate_failures"] = failures
    print(json.dumps(detail))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0),
                                "unit": m["unit"]} for m in specs},
    }


def run_traced(w: Workload, seed: int, deadline: float, digests: list[str],
               failures: list[str]) -> dict:
    """One in-process ``cli.main`` under tracing, gated like the others."""
    run_id = f"{w.name}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    argv = [sys.executable, str(Path(__file__).resolve().parent / "traced_main.py"),
            run_id, *w.argv, "--seed", str(seed)]
    child = run_child(argv, deadline - time.perf_counter())
    result = {"wall_s": child.wall_s, "peak_rss_mb": child.peak_rss_mb,
              "parsed": None}
    if child.exit_code != 0:
        failures.append(f"traced child exit code {child.exit_code}: "
                        f"{child.stderr[-400:]!r}")
        return result
    parsed = json.loads(child.stdout)
    cli_out = Child(parsed["exit_code"], child.wall_s, child.peak_rss_mb,
                    child.cpu_s, parsed["stdout"].encode(), child.stderr)
    reason = gate(w, seed, cli_out, digests)
    if reason:
        failures.append("traced: " + reason)
    result.update(parsed=parsed, untraced=parsed["untraced"],
                  unmeasured=parsed["unmeasured"],
                  spans_file=str(write_spans(parsed, w.name, seed)
                                 .relative_to(ROOT)))
    return result


def summary_line(name: str, result: dict) -> str:
    parts = [f"{name:<12}"]
    for metric, m in result["metrics"].items():
        parts.append(f"{metric} {m['value']:.4g} {m['unit']}")
    parts.append(f"failed_frac {result['failed'] / result['attempted']:.3g} "
                 f"ratio ({result['failed']} of {result['attempted']} "
                 "invocations)")
    return "  ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not CLI_SOURCE.is_file() or not SPEC.is_file():
        sys.stderr.write(f"perfbench: {CLI_SOURCE.relative_to(ROOT)} or "
                         f"{SPEC.name} is missing; run from a full checkout\n")
        return 2
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed, seconds,
                              bool(args.trace), spec)
        print(summary_line(args.workload, result))
        print(json.dumps(result))
        return 0
    results = {}
    for name, w in WORKLOADS.items():
        results[name] = run_workload(w, args.seed, seconds, bool(args.trace),
                                     spec)
    print("left out: " + json.dumps(LEFT_OUT))
    for name, result in results.items():
        print(summary_line(name, result))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
