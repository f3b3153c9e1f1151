"""The fresh process that runs one workload's closed loop.

Usage: python3 perfbench/worker.py WORK_DIR

Reads ``task.json`` from WORK_DIR, loads the inputs the parent wrote there,
then runs one op after another (one client, the next op starts when the
previous one has ended) until ``seconds`` have passed, checking every op's
outputs.  In a traced run every other op, starting with the first, is
traced, and the untraced ops give the tracing overhead.  Writes
``result.json`` to WORK_DIR.
"""

import json
import resource
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS


def run(work: Path) -> dict:
    task = json.loads((work / "task.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[task["workload"]]
    state = workload.load(work, task["seed"], task["reference"])
    ops, layer_runs = [], []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < task["seconds"]:
        traced = task["trace"] and len(ops) % 2 == 0
        tracer = spans.Tracer() if traced and not workload.subprocess_ops else None
        uninstall = tracer.install() if tracer else None
        t0 = time.perf_counter()
        try:
            out = workload.op(state, traced)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            out, why = None, f"{type(exc).__name__}: {exc}"
        finally:
            seconds = time.perf_counter() - t0
            if uninstall:
                uninstall()
        ok, worst_v = False, None
        if out is not None:
            try:
                ok, why, worst_v = workload.check(state, out)
            except Exception as exc:
                why = f"check raised {type(exc).__name__}: {exc}"
        ops.append({"seconds": seconds, "ok": ok, "why": why, "traced": traced,
                    "worst_group_v": worst_v})
        if traced and out is not None:
            if tracer:
                layer_runs.append(spans.layer_metrics([tracer.spans]))
            else:
                layer_runs.append(spans.layer_metrics(out["span_sets"], out["import_s"]))
    wall = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if workload.subprocess_ops else resource.RUSAGE_SELF
    return {"ops": ops, "wall_s": wall, "layers": layer_runs,
            "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0}


def main() -> int:
    work = Path(sys.argv[1])
    result = run(work)
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
