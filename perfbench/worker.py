"""One operation (or one set-up) in a fresh process; prints a JSON result line.

Usage: python3 perfbench/worker.py '<task json>'

The task names the workload, variant, smoke flag, mode ("op" or "setup"),
whether to trace, the operation id and the output directory.  Running each
operation in its own process means it starts, as every CLI run does, with
empty lru caches and no stable-law grid.
"""

import json
import resource
import sys
import time

_t0 = time.perf_counter()
import sudlerlab.cli  # noqa: E402,F401  (the timed import: the whole package)

_import_s = time.perf_counter() - _t0

import traceback  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    task = json.loads(sys.argv[1])
    wl, variant = task["workload"], task["variant"]
    inp = workloads.prepare(wl, variant, task["smoke"], task["out_dir"], task["op_id"])
    result = {"import_s": _import_s, "setup_s": time.perf_counter() - _t0}
    if task["mode"] == "setup":
        print(json.dumps(result))
        return 0

    tracer = tracing.Tracer() if task["trace"] else None
    if tracer:
        tracer.install()
    t_start = time.perf_counter()
    try:
        out = workloads.RUN[wl](inp)
        result["wall_s"] = time.perf_counter() - t_start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        chk = workloads.check(wl, variant, inp, out)
    except Exception:  # an operation or its check that raises is a failed operation
        result.update(ok=False, misses=[traceback.format_exc(limit=5)])
        print(json.dumps(result))
        return 0
    result.update(
        ok=not chk.misses,
        misses=chk.misses[:5],
        compared=chk.compared,
        max_rel_err=chk.max_rel_err,
        failing_verdicts=workloads.failing_verdicts(wl, out),
    )
    if tracer:
        extra = workloads.extra_counts(wl, inp, out)
        extra["import_s"] = _import_s
        result["layers"] = tracing.layer_metrics(tracer, extra)
        with open(task["trace_file"], "a", encoding="utf-8") as fh:
            tracer.write_jsonl(fh, task["op_id"], t_start)
    else:
        result["h_eval_s"] = out.get("h_eval_s", [])
    workloads.cleanup(inp)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
