"""Benchmark harness of impact_games: seeded workloads, output checks, traces.

One workload per process:

    python3 bench/run.py --workload theta_desk --seed 1 --seconds 20 --trace 0

runs the workload's ops in a closed loop (one op at a time, each started when
the previous one has been checked) until ``--seconds`` of op time have passed
and at least the workload's minimum op count has run. It prints the workload
record, the environment and every metric by name and unit, and as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics (``--trace 1``). The full record, with the spans of a traced run, is
written under ``.bench_out/``. The exit code is non-zero when an output check
fails.

With ``--trace 1`` ops run in pairs on the same input, once untraced and once
traced, alternating which goes first; per-layer metrics come from the traced
ops and ``trace.overhead_s`` is the median traced-minus-untraced op time.

Without ``--workload`` every workload runs, one process after the other, and
the exit code is non-zero if any check failed. ``--small`` runs reduced sizes
(used by ``bench/test_smoke.py``).
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Workload -> BLAS threads (None: the machine's default). Only venue_hetero's
# large LU gains from a second thread (2.2 s against 2.7 s per op on 2 vCPUs).
# theta_desk's N=300 solves do not, and with two spin-waiting OpenBLAS threads
# one busy neighbouring core stretched its op from 5 s to 19 s. scenario_risk
# runs many small solves and is the plain single-threaded baseline.
BLAS_THREADS = {"theta_desk": 1, "venue_hetero": None, "scenario_risk": 1}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# By default glibc hands freed blocks back to the kernel, so every large
# temporary array is faulted in afresh. On a 2-vCPU VM that was 20-30% of
# theta_desk and scenario_risk op time (1.6M page faults per theta_desk op)
# and drifted with the host's load. The harness keeps freed memory in the
# heap instead; blocks above the mmap threshold cap (32 MiB) are still mapped.
MALLOPT = {"M_TRIM_THRESHOLD": (-1, 1 << 30), "M_MMAP_THRESHOLD": (-3, 32 << 20)}

# set-up (input generation and one small warm-up op) is repeated and its
# median reported; imports happen once per process and are added to it
SETUP_REPEATS = 5
# largest allowed |sum of span self times - op wall time| / op wall time
TRACE_SUM_BOUND = 0.01
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "fraction",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(BLAS_THREADS), help="default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes")
    return parser.parse_args(argv)


def _load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _keep_freed_memory() -> dict:
    """Apply MALLOPT to this process; returns the settings that took effect."""
    import ctypes
    import ctypes.util

    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError):  # not glibc
        return {}
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return {name: value for name, (param, value) in MALLOPT.items() if mallopt(param, value) == 1}


def _openblas(libs_dir: Path) -> dict:
    """Runtime configuration and thread count of a bundled OpenBLAS."""
    import ctypes

    for path in sorted(libs_dir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                config = getattr(lib, f"{prefix}get_config{suffix}")
                config.restype = ctypes.c_char_p
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                threads.restype = ctypes.c_int
                return {"config": config().decode(), "threads": threads()}
    return {"config": "unavailable", "threads": None}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unavailable"


def environment(threads) -> dict:
    import numpy
    import scipy

    blas = {}
    for pkg in (numpy, scipy):
        build = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        runtime = _openblas(Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs")
        blas[pkg.__name__] = {"vendor": build["name"], "version": build["version"], **runtime}
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads_requested": "machine default" if threads is None else threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "computed_counts": "*.flops_computed and *.bytes_computed are computed from array sizes",
    }


def _run_op(workload, op_input):
    """Run one op; returns (seconds, output or None if it raised, error messages)."""
    started = time.perf_counter()
    try:
        output = workload.run(op_input)
    except Exception as exc:  # a raising op is a failed op; keep measuring
        return time.perf_counter() - started, None, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - started, output, []


def _check(workload, op_input, output, errors):
    return errors if output is None else workload.check(op_input, output)


def _tail(durations):
    """Highest percentile of op time with at least 10 ops beyond it."""
    if len(durations) < 11:
        return None
    return sorted(durations)[len(durations) - 11]


def _measure(workload, seconds):
    """Closed loop of untraced ops; returns one (seconds, completed, failures) per op."""
    ops = []
    while len(ops) < workload.min_ops or sum(op[0] for op in ops) < seconds:
        op_input = workload.prepare(len(ops))
        elapsed, output, errors = _run_op(workload, op_input)
        ops.append((elapsed, output is not None, _check(workload, op_input, output, errors)))
    return ops


def _measure_traced(workload, seconds, tracing):
    """Pairs of untraced and traced ops on one input; per-layer metrics of the traced ones."""
    tracer = tracing.Tracer()
    ops, pairs, per_op, probe_s, extra = [], [], [], [], []
    index = 0
    while index < workload.min_ops or sum(op[0] for op in ops) < seconds:
        times = {}
        for with_trace in (index % 2 == 1, index % 2 == 0):
            op_input = workload.prepare(index)
            if not with_trace:
                elapsed, output, errors = _run_op(workload, op_input)
            else:
                start = len(tracer.spans)
                with tracer.installed():
                    started = time.perf_counter()
                    with tracer.op(index):
                        elapsed, output, errors = _run_op(workload, op_input)
                    wall = time.perf_counter() - started
                metrics, probes = tracing.op_metrics(tracer.spans[start:])
                metrics["trace.self_sum_error"] = abs(metrics.pop("trace.self_sum_s") - wall) / wall
                per_op.append(metrics)
                probe_s += probes
                if output is not None:
                    extra.append(workload.output_metrics(op_input, output))
            times[with_trace] = elapsed
            ops.append((elapsed, output is not None, _check(workload, op_input, output, errors)))
        pairs.append(times[True] - times[False])
        index += 1
    metrics = tracing.aggregate(per_op, probe_s)
    metrics["trace.self_sum_error"] = max(m["trace.self_sum_error"] for m in per_op)
    metrics["trace.overhead_s"] = statistics.median(pairs)
    for key in tracing.OUTPUT_COUNTS:
        values = [m[key] for m in extra if key in m]
        metrics[key] = statistics.median_low(values) if values else 0
    return ops, metrics, tracer.spans


def _fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run_workload(args) -> int:
    threads = BLAS_THREADS[args.workload]
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        if threads is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = str(threads)
    if not (SRC / "impact_games" / "__init__.py").is_file():
        print(f"error: no impact_games package under {SRC}", file=sys.stderr)
        return 2
    malloc = _keep_freed_memory()
    sys.path.insert(0, str(SRC))
    import impact_games
    import tracing
    import workloads

    import_s = time.perf_counter() - _STARTED
    if SRC not in Path(impact_games.__file__).resolve().parents:
        print(f"error: impact_games imported from {impact_games.__file__}", file=sys.stderr)
        return 2
    spec = _load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    scratch = OUT / "cli-out"
    cls = workloads.WORKLOADS[args.workload]

    setup = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload = cls(args.seed, args.small, scratch)
        warm = cls(args.seed, True, scratch)
        op_input = warm.prepare(0)
        _, output, errors = _run_op(warm, op_input)
        failures = _check(warm, op_input, output, errors)
        setup.append(time.perf_counter() - started)
        if failures:
            print(f"error: warm-up op failed: {failures}", file=sys.stderr)
            return 1

    run_failures = []
    if args.trace:
        ops, metrics, spans = _measure_traced(workload, seconds, tracing)
        units = {key: tracing.unit_of(key) for key in metrics}
        if metrics["trace.self_sum_error"] > TRACE_SUM_BOUND:
            run_failures.append(
                f"span self times differ from op wall time by {metrics['trace.self_sum_error']:.2e}"
                f" (bound {TRACE_SUM_BOUND})"
            )
    else:
        ops = _measure(workload, seconds)
        spans = None
        durations = [op[0] for op in ops]
        metrics = {
            "setup_s": import_s + statistics.median(setup),
            "ops_per_s": sum(op[1] for op in ops) / sum(durations),
            "op_p50_s": statistics.median(durations),
            "op_tail_s": _tail(durations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error_rate": sum(1 for op in ops if op[2]) / len(ops),
        }
        units = E2E_UNITS
    attempted = len(ops)
    failed = sum(1 for op in ops if op[2])
    failures = [f"op {i}: {msg}" for i, op in enumerate(ops) for msg in op[2]] + run_failures

    record = {
        "workload": {
            "name": workload.name,
            "why": workload.why,
            "seed": args.seed,
            "sizes": workload.sizes,
            "layers": workload.layers,
            "blas_threads": "machine default" if threads is None else threads,
            "seconds": seconds,
        },
        "environment": {**environment(threads), "mallopt": malloc or "glibc defaults"},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_runs_s": setup,
        "import_s": import_s,
        "op_s": [op[0] for op in ops],
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in metrics},
    }
    OUT.mkdir(exist_ok=True)
    size = "-small" if args.small else ""
    result_file = OUT / f"{workload.name}{size}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        origin = spans[0][tracing.START] if spans else 0.0
        rows = [s[:5] + [s[5] - origin, s[6] - origin, s[7]] for s in spans]
        spans_file = result_file.with_name(result_file.stem + "-spans.json")
        spans_file.write_text(json.dumps({"fields": tracing.SPAN_FIELDS, "spans": rows}) + "\n")

    wl = record["workload"]
    print(f"== {wl['name']} seed={args.seed} seconds={seconds} trace={args.trace} ==")
    print(f"why: {wl['why']}")
    print("sizes: " + " ".join(f"{k}={v}" for k, v in wl["sizes"].items()))
    print(f"env: {json.dumps(record['environment'])}")
    for key, entry in record["metrics"].items():
        if args.trace and not key.startswith(workload.layers + ("trace",)):
            continue
        note = ""
        if key == "op_tail_s":
            note = f"  ({attempted} ops)"
        elif key == "error_rate":
            note = f"  ({failed}/{attempted})"
        print(f"{key:48s} {_fmt(entry['value']):>14s} {entry['unit']}{note}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"results: {result_file.relative_to(ROOT)}")

    listed = spec["per_layer" if args.trace else "end_to_end"]
    line = {}
    for entry in listed:
        name = entry["name"]
        if record["metrics"][name]["unit"] != entry["unit"]:
            raise ValueError(f"{name}: unit {record['metrics'][name]['unit']} != {entry['unit']}")
        line[name] = record["metrics"][name]
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": line}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    bad = []
    for name in BLAS_THREADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.small:
            cmd.append("--small")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0:
            bad.append(name)
    print("all workloads correct" if not bad else f"FAILED workloads: {', '.join(bad)}")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
