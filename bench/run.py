"""Benchmark of fuzzids on seeded NSL-KDD-shaped corpora.

Run from the repository root:

    python3 bench/run.py --workload grid-multiclass --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced operation plus the tracing overhead.
``--smoke`` runs the same code path at a tiny size. Set-up runs in this
process; the operations run in a child process so that its peak RSS
belongs to them alone. Work files go under ``.bench_work/`` and are removed
at exit. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so report.json names no absolute path
# set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_S have
# passed, so that cheap set-ups still give a steady median
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_S = 1.0
DEADLINE_S = 170.0

# (name, unit, better, bound); mirrored in BENCHMARK.json
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("artifact_mb", "MB", "lower", 0.25),
    ("test_f1", "1", "higher", 0.2),
    ("ops_ok", "ratio", "higher", 0.01),
)


def _import_fuzzids() -> None:
    """Put the checkout's sources first on the path, or exit non-zero."""
    if not (SRC / "fuzzids" / "__init__.py").is_file():
        sys.exit(f"bench: no fuzzids sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import fuzzids
    if Path(fuzzids.__file__).resolve().parent != SRC / "fuzzids":
        sys.exit(f"bench: imported fuzzids from {fuzzids.__file__}, not {SRC}")


def _blas_threads() -> int | None:
    """OpenBLAS thread count of numpy's bundled library, if it can be read."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    import numpy as np
    return {
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------- worker

def _run_operations(ctx: dict) -> dict:
    """Run operations until ctx['seconds'] have passed; traced runs alternate
    untraced and traced operations so that both are measured."""
    import resource

    import spans
    import workloads

    workload = workloads.make(ctx["workload"], Path(ctx["work"]), ctx["smoke"])
    workload.prepare()
    tracer = spans.Tracer() if ctx["trace"] else None
    ops = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        traced = tracer is not None and i % 2 == 1
        op = {"traced": traced, "error": None, "warnings": 0}
        workload.reset()

        def count_warning(message, category, filename, lineno, file=None, line=None):
            op["warnings"] += 1

        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = count_warning
            cpu0 = os.times()
            t0 = time.perf_counter()
            try:
                if traced:
                    tracer.op = i
                    with tracer.patch(), tracer.span("op"):
                        result = workload.operation()
                else:
                    result = workload.operation()
            except Exception:
                op["error"] = traceback.format_exc()
            op["wall_s"] = time.perf_counter() - t0
            cpu1 = os.times()
        op["cpu_s"] = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
        if op["error"] is None:
            try:
                outcome = workload.check(result)
            except Exception:
                op["error"] = traceback.format_exc()
            else:
                op.update(error=outcome.error, fingerprint=outcome.fingerprint,
                          test_f1=outcome.test_f1, artifact_bytes=outcome.artifact_bytes)
        if traced:
            op["layers"] = tracer.layer_metrics(i)
        ops.append(op)
        elapsed = time.perf_counter() - start
        enough = len(ops) >= (2 if tracer is not None else 1)
        if enough and elapsed >= ctx["seconds"]:
            break
    work_counts = {}
    if tracer is not None and ops[-1]["error"] is None:
        work_counts = workloads.model_work(workload)
    return {
        "ops": ops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "work_counts": work_counts,
    }


def worker_main(ctx_path: str) -> None:
    _import_fuzzids()
    ctx = json.loads(Path(ctx_path).read_text(encoding="utf-8"))
    out = _run_operations(ctx)
    Path(ctx["result"]).write_text(json.dumps(out), encoding="utf-8")


# ---------------------------------------------------------------- parent

def _summarize(ops: list[dict], setup_times: list[float], worker: dict,
               trace: bool) -> tuple[dict, int]:
    """Metrics by name, and the number of failed operations."""
    import spans

    good = [op for op in ops if op["error"] is None]
    reference = good[0]["fingerprint"] if good else None
    for op in good:
        if op["fingerprint"] != reference:
            op["error"] = "output differs from the run's first operation"
    failed = sum(op["error"] is not None for op in ops)
    good = [op for op in ops if op["error"] is None]
    plain = [op for op in good if not op["traced"]]
    traced = [op for op in good if op["traced"]]
    if not plain or (trace and not traced):
        return {}, failed

    if not trace:
        values = {
            "wall_s": statistics.median(op["wall_s"] for op in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": worker["peak_rss_kb"] * 1024 / 1e6,
            "artifact_mb": good[0]["artifact_bytes"] / 1e6,
            "test_f1": good[0]["test_f1"],
            "ops_ok": (len(ops) - failed) / len(ops),
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
    else:
        values = {
            name: statistics.median(op["layers"][name] for op in traced)
            for name, _, _ in spans.PER_LAYER
        }
        values.update(worker["work_counts"])
        values["process.cpu_s"] = statistics.median(op["cpu_s"] for op in traced)
        values["process.warnings"] = statistics.median(op["warnings"] for op in traced)
        values["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced)
                                      - statistics.median(op["wall_s"] for op in plain))
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name in units}, failed


def _more_setups(times: list[float]) -> bool:
    if len(times) >= SETUP_MAX_REPEATS:
        return False
    return len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, same code path (for the benchmark's tests)")
    if argv is None and "--worker" in sys.argv:
        worker_main(sys.argv[sys.argv.index("--worker") + 1])
        return 0
    args = parser.parse_args(argv)
    # a terminated run still stops its worker (subprocess.run kills it on
    # any exception) and removes its work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    started = time.perf_counter()
    os.chdir(ROOT)
    _import_fuzzids()
    import workloads
    if args.workload not in workloads.SPEC["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.SPEC['workloads'])}")

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = workloads.make(args.workload, work, args.smoke)
        setup_times = []
        while not setup_times or (not args.trace and _more_setups(setup_times)):
            shutil.rmtree(workload.data, ignore_errors=True)
            t0 = time.perf_counter()
            workload.setup(args.seed)
            setup_times.append(time.perf_counter() - t0)
        workload.save_reference()

        ctx = {"workload": args.workload, "work": str(work), "smoke": args.smoke,
               "seconds": args.seconds, "trace": args.trace,
               "result": str(work / "worker.json")}
        ctx_path = work / "worker-context.json"
        ctx_path.write_text(json.dumps(ctx), encoding="utf-8")
        remaining = DEADLINE_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--worker", str(ctx_path)], timeout=remaining)
        except subprocess.TimeoutExpired:
            print(f"bench: operations did not finish within {DEADLINE_S:.0f} s",
                  file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"bench: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        worker = json.loads(Path(ctx["result"]).read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another workload's run still uses it

    ops = worker["ops"]
    metrics, failed = _summarize(ops, setup_times, worker, bool(args.trace))
    for op in ops:
        if op["error"] is not None:
            print(f"bench: operation failed: {op['error']}", file=sys.stderr)
    if not metrics:
        print("bench: no operation succeeded", file=sys.stderr)
        return 1
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "setup_runs": len(setup_times)}))
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
