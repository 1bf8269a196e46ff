"""chunkreader benchmark: one workload, one seed, one fresh process.

    python3 bench/run.py --workload train-paper --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ./src and
writes only under ./.bench_work. With --trace 0 it measures the
end-to-end metrics with tracing off; with --trace 1 it makes the traced
run that gives the per-layer metrics. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it is a JSON report with the run environment, the inputs and
the workload's named metrics. The exit code is 0 only when every output
check passed. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def _blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS reports, when numpy bundles one."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment(np, nproc: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def code_hash() -> str:
    """Identifies the commit under test: the package sources plus the
    benchmark's own code, which together fix every number a run checks."""
    h = hashlib.sha256()
    files = glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)
    files += glob.glob(os.path.join(ROOT, "bench", "*.py"))
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_digest(store_path: str, key: str, value: str, out) -> None:
    """Every run of one commit and seed must produce the same output digest;
    the first run records it, later runs compare against it."""
    store = {}
    if os.path.exists(store_path):
        with open(store_path, encoding="utf-8") as fh:
            store = json.load(fh)
    seen = store.setdefault(key, value)
    out.check(seen == value, f"output digest {value[:12]} differs from {seen[:12]} of an earlier run")
    tmp = store_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, store_path)


def execute(wl, seed: int, seconds: float, trace: bool, workdir: str, spans_path: str,
            store_path: str, commit: str):
    """Run one workload; returns (result line, report)."""
    # imported here because they import chunkreader, which main() first
    # puts on the path
    from tracing import TracedRun
    from workloads import (
        CpuRotation, Outcome, describe_inputs, peak_rss_mb, per_cpu_median, run_predict, run_train,
        timed_setup, write_inputs,
    )

    out = Outcome()
    files = write_inputs(wl, seed, workdir)
    if trace:
        traced = TracedRun(wl, files, seed, out, workdir)
        metrics = traced.run(seconds)
        traced.tracer.write(spans_path)
        report = {"spans_file": os.path.relpath(spans_path, ROOT), "spans": len(traced.tracer.spans)}
        world = traced.world
    else:
        cpus = CpuRotation()
        try:
            world, setup_s = timed_setup(wl, files, seed, cpus)
            if wl.kind == "train":
                timed, report = run_train(wl, world, seed, seconds, workdir, out, cpus)
                digest = report.get("epoch_log_digest")
            else:
                timed, report = run_predict(world, seconds, out, cpus)
                digest = report.get("span_digest")
        finally:
            cpus.release()
        metrics = {"setup_s": (per_cpu_median(setup_s), "s"), **timed, "peak_rss_mb": (peak_rss_mb(), "MB")}
        report["setup_s_samples"] = [[cpu, round(s, 6)] for cpu, s in setup_s]
        if digest is not None:
            check_digest(store_path, f"{wl.name}|seed={seed}|code={commit}", digest, out)
    report.update({
        "workload": wl.name,
        "trace": int(trace),
        "inputs": describe_inputs(wl, world, seed),
        "ops_attempted": out.attempted,
        "ops_failed": out.failed,
        "ops_failed_ratio": out.failed / max(1, out.attempted),
        "problems": out.problems,
    })
    result = {
        "correct": out.correct,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "chunkreader", "__init__.py")):
        print(f"bench: no chunkreader package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    nproc = cap_blas_threads()
    sys.path.insert(0, SRC)
    import numpy as np

    import chunkreader
    from workloads import WORKLOADS

    if not os.path.abspath(chunkreader.__file__).startswith(SRC + os.sep):
        print(f"bench: imported chunkreader from {chunkreader.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result, report = execute(
            wl, args.seed, args.seconds, bool(args.trace), workdir,
            spans_path=os.path.join(WORK, "spans", f"{wl.name}-seed{args.seed}.jsonl"),
            store_path=os.path.join(WORK, "digests.json"),
            commit=code_hash(),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["environment"] = environment(np, nproc)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    for problem in report["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    return 0 if result["correct"] and result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
