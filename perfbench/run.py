"""Benchmark of the maximin package: four workloads, end-to-end metrics with
tracing off, per-layer metrics from a separate traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli_fit, penalty_path, wide_solvers, cv_groups, or ``all``
to run each in turn.  The run sets up the workload's inputs again and again
for at least SETUP_MIN_S seconds and at least three times (the median set-up
time is ``setup_s``), then a fresh worker process repeats
the workload's op in a closed loop for S seconds and checks every op's
outputs.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  README.md describes the workloads
and the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
# a single cv_groups set-up takes about 15 ms; the median of five of them
# ranged from 10 to 19 ms over ten fresh processes, the median of 1.5 s of
# them from 14.2 to 16.0 ms (2-vCPU sandbox)
SETUP_MIN_S = 1.5
# the worker gets --seconds plus this for loading, its last op and its result
WORKER_MARGIN_S = 120.0

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
              "peak_rss_mib": "MiB", "worst_group_v": "value"}
PER_LAYER_UNITS = {"io.read_csv_rows_per_s": "1/s", "select.fits_per_s": "1/s",
                   "lp.rss_growth_mib": "MiB", "lp.tableau_bytes_computed": "bytes",
                   "lp.bytes_per_pivot_computed": "bytes", "oracle.fw_gap": "value",
                   "select.parallel_efficiency": "ratio"}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """What a result depends on besides the code: compare runs only when
    these agree."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": blas_threads(),
            "thread_env": {k: os.environ[k] for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}}


def digest(work: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(work.iterdir()):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def set_up(workload, work: Path, seed: int, trace: bool):
    """Set the inputs up for at least SETUP_MIN_S seconds and at least three
    times; returns the set-up times, the simulate-layer self times and
    whether every repetition wrote the same bytes."""
    import spans

    times, gen, digests = [], [], []
    while len(times) < 3 or sum(times) < SETUP_MIN_S:
        tracer = spans.Tracer() if trace and not workload.subprocess_ops else None
        spans_file = work.parent / "setup-spans.json" if trace and not tracer else None
        uninstall = tracer.install() if tracer else None
        t0 = time.perf_counter()
        try:
            workload.setup(work, seed, spans_file)
        finally:
            times.append(time.perf_counter() - t0)
            if uninstall:
                uninstall()
        if trace:
            sets = ([tracer.spans] if tracer else
                    [json.loads(spans_file.read_text(encoding="utf-8"))["spans"]])
            gen.append(spans.layer_metrics(sets)["simulate.self_s"])
            if spans_file:
                spans_file.unlink()
        digests.append(digest(work))
    return times, gen, len(set(digests)) == 1


def run_worker(work: Path, seconds: int) -> dict:
    import workloads

    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(work)],
                            env=workloads.child_env(), stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=seconds + WORKER_MARGIN_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def tail(times) -> float:
    """Time at the highest percentile with at least ten ops beyond it, once
    that percentile is the 90th or higher (100 ops or more); the slowest op
    before then, because with 11 to 99 ops that rule would pick a percentile
    below the 90th, down to the fastest op at 11."""
    ordered = sorted(times)
    return ordered[len(ordered) - 11] if len(ordered) >= 100 else ordered[-1]


def end_to_end_metrics(result: dict, setup_times) -> dict:
    ops = result["ops"]
    times = [op["seconds"] for op in ops]
    worst = [op["worst_group_v"] for op in ops if op["ok"]]
    return {"setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail(times),
            "ops_per_s": sum(op["ok"] for op in ops) / result["wall_s"],
            "peak_rss_mib": result["peak_rss_mib"],
            "worst_group_v": worst[0] if worst else 0.0}


def per_layer_metrics(result: dict, gen_times) -> tuple[dict, list]:
    """Mean over traced ops for times and rates; counts from the first traced
    op, with the names of counts that did not repeat on every traced op.
    Only the process's first large allocation can raise its rss high-water
    mark, so the rss growth is the largest over the traced ops."""
    import spans

    runs = result["layers"] or [spans.layer_metrics([])]  # every traced op failed
    metrics, unsteady = {}, []
    for name in runs[0]:
        values = [run[name] for run in runs]
        if name == "lp.rss_growth_mib":
            metrics[name] = max(values)
        elif per_layer_unit(name) in ("count", "bytes"):
            metrics[name] = values[0]
            if len(set(values)) > 1:
                unsteady.append(name)
        else:
            metrics[name] = statistics.mean(values)
    metrics["simulate.gen_s"] = statistics.median(gen_times)
    traced = [op["seconds"] for op in result["ops"] if op["traced"]]
    plain = [op["seconds"] for op in result["ops"] if not op["traced"]]
    metrics["bench.trace_overhead_s"] = (
        statistics.median(traced) - statistics.median(plain) if plain else 0.0)
    unsteady += [n for n in spans.EXACT_COUNTS if n not in metrics]
    return metrics, unsteady


def run_one(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]
    run_dir = WORK_ROOT / f"{name}-{os.getpid()}"
    work = run_dir / "inputs"
    shutil.rmtree(run_dir, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times, gen_times, same_inputs = set_up(workload, work, seed, trace)
        reference = workload.reference(work, seed)
        (work / "task.json").write_text(json.dumps({
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "reference": reference}), encoding="utf-8")
        result = run_worker(work, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = result["ops"]
    failed = [i for i, op in enumerate(ops) if not op["ok"]]
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print("  op seconds " + " ".join(f"{op['seconds']:.3f}" for op in ops))
    for i in failed:
        print(f"  op {i} failed: {ops[i]['why']}")
    if not same_inputs:
        print("  set-up wrote different inputs on repetitions of one seed")
    if trace:
        metrics, unsteady = per_layer_metrics(result, gen_times)
        traced = sum(op["traced"] for op in ops)
        print(f"  {traced} traced ops of {len(ops)}; per-layer values are per op")
        if unsteady:
            print(f"  counts that did not repeat on every traced op: {', '.join(unsteady)}")
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics, units = end_to_end_metrics(result, setup_times), END_TO_END
    for key, value in metrics.items():
        print(f"  {key:40s} {value:16.6g} {units[key]}")
    if not trace:
        print(f"  {'fail_ratio':40s} {len(failed) / len(ops):16.6g} ratio"
              f"  ({len(failed)} of {len(ops)} ops; tail over {len(ops)} ops"
              f"{', the slowest op' if len(ops) < 100 else ''}; "
              f"median of {len(setup_times)} set-ups)")
    print(f"  env {json.dumps(environment(), sort_keys=True)}")
    return {"correct": not failed and same_inputs, "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "maximin" / "__init__.py").is_file():
        print(f"error: no maximin package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    # byte-compile once so that no timed interpreter start compiles sources
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
    finally:
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{n}.{k}": v for n, r in results.items()
                               for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
