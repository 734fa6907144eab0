"""Layered benchmark for sudlerlab: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload farey_dist --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload h_window --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload identity_checks --seed 1 --seconds 2 --trace 0 --smoke

Every operation runs in a fresh worker process (see worker.py), one at a time
and single-threaded, until --seconds have passed.  Outputs are checked against
the stored references; the last stdout line is
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced operations and
reports the per-layer metrics from the traced ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0  # the whole run, operations included

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def environment() -> dict:
    env = {"python": sys.version.split()[0], "nproc": os.cpu_count()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = "missing"
    env["cpu"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                "unknown")
    except OSError:
        pass
    env["commit"] = _git_commit()
    return env


def _git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(task: dict, env: dict, timeout: float) -> dict:
    """One worker process; a crash, timeout or unreadable result is a failed operation."""
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(task)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "misses": [f"worker timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "misses": [f"worker exit {proc.returncode}: {proc.stderr[-800:]}"]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"ok": False, "misses": [f"unreadable worker output: {lines[-1][:200]}"]}


def quantile(sorted_vals: list[float], p: float) -> float:
    """Nearest-rank quantile."""
    return sorted_vals[max(0, math.ceil(p * len(sorted_vals)) - 1)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sudlerlab", "__init__.py")):
        print("error: run from a sudlerlab checkout (src/sudlerlab not found)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    t_begin = time.perf_counter()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    variant = workloads.variant_of(args.seed)
    base = {"workload": args.workload, "variant": variant, "smoke": args.smoke,
            "out_dir": OUT_DIR}
    trace_file = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    if args.trace:
        open(trace_file, "w").close()

    def remaining() -> float:
        return TIME_LIMIT_S - (time.perf_counter() - t_begin)

    setups = []
    for i in range(1 if args.smoke else SETUP_PROBES):
        res = run_worker({**base, "mode": "setup", "trace": False, "op_id": -1 - i},
                         env, remaining())
        if "setup_s" in res:
            setups.append(res["setup_s"])

    # operations run back to back; the next starts only if it should end within
    # --seconds (at least one, and in a traced run one traced and one untraced)
    ops, spans = [], []
    t_measure = time.perf_counter()
    while remaining() > 5:
        traced = bool(args.trace) and len(ops) % 2 == 1
        task = {**base, "mode": "op", "trace": traced, "op_id": len(ops),
                "trace_file": trace_file}
        t_op = time.perf_counter()
        res = run_worker(task, env, remaining())
        spans.append(time.perf_counter() - t_op)
        res["traced"] = traced
        ops.append(res)
        if "setup_s" in res:
            setups.append(res["setup_s"])
        elapsed = time.perf_counter() - t_measure
        if elapsed + statistics.median(spans) > args.seconds and len(ops) >= 1 + args.trace:
            break

    failed = [op for op in ops if not op.get("ok")]
    plain = [op for op in ops if not op["traced"] and "wall_s" in op]
    traced = [op for op in ops if op["traced"] and "layers" in op]
    h_ms = sorted(1e3 * t for op in plain for t in op.get("h_eval_s", []))

    lines = [f"workload {args.workload}  seed {args.seed}  variant {variant}"
             f"{'  smoke' if args.smoke else ''}  ops {len(ops)}  failed {len(failed)}"]
    metrics: dict[str, dict] = {}
    if not args.trace:
        if plain and setups:
            values = {
                "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
                "wall_s": (statistics.median(op["wall_s"] for op in plain),
                           f"median of {len(plain)} operations"),
                "peak_rss_mb": (statistics.median(op["peak_rss_mb"] for op in plain),
                                f"median of {len(plain)} operations"),
            }
            for name, (value, basis) in values.items():
                metrics[name] = {"value": value, "unit": E2E_UNITS[name]}
                lines.append(f"  {name:<16} {value:12.6g} {E2E_UNITS[name]:<3} ({basis})")
        if h_ms:  # h_window only: its per-call latency, outside the gated metrics
            for p in (0.50, 0.99):
                lines.append(f"  {f'h_eval_ms.p{round(100 * p)}':<16} {quantile(h_ms, p):12.6g} "
                             f"ms  ({len(h_ms)} h_eval calls)")
    elif traced and plain:
        units = _per_layer_units()
        layer_keys = traced[0]["layers"].keys()
        values = {k: statistics.median(op["layers"][k] for op in traced) for k in layer_keys}
        values["trace.overhead_frac"] = (
            statistics.median(op["wall_s"] for op in traced)
            / statistics.median(op["wall_s"] for op in plain) - 1.0)
        values["check.max_rel_err"] = max(op.get("max_rel_err", 0.0) for op in ops)
        for name, unit in units.items():
            metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
            lines.append(f"  {name:<42} {metrics[name]['value']:12.6g} {unit}")
        lines.append(f"  (per-layer medians of {len(traced)} traced operations; spans in "
                     f"{os.path.relpath(trace_file, ROOT)})")
    rate = len(failed) / len(ops) if ops else 1.0
    lines.append(f"  {'fail_rate':<16} {rate:12.6g} {'1':<3} ({len(failed)} of {len(ops)} "
                 f"operations failed)")
    worst = max((op.get("max_rel_err", 0.0) for op in ops), default=0.0)
    compared = sum(op.get("compared", 0) for op in ops)
    lines.append(f"  {'check.max_rel_err':<16} {worst:12.3g}     ({compared} values compared "
                 f"with the references)")
    verdicts = max((op.get("failing_verdicts", 0) for op in ops), default=0)
    if verdicts:
        lines.append(f"  {verdicts} check case(s) fail at this commit, as in the references")
    for op in failed:
        for miss in op.get("misses", ["no result"]):
            lines.append(f"  FAILED op: {miss}")
    env_rec = environment()
    lines.append("  env: " + ", ".join(f"{k} {v}" for k, v in env_rec.items()))
    print("\n".join(lines))

    record = {"workload": args.workload, "seed": args.seed, "variant": variant,
              "smoke": args.smoke, "trace": args.trace, "env": env_rec, "metrics": metrics,
              "ops": [{k: v for k, v in op.items() if k != "h_eval_s"} for op in ops]}
    if h_ms:
        record["h_eval_ms"] = {"p50": quantile(h_ms, 0.50), "p99": quantile(h_ms, 0.99),
                               "calls": len(h_ms)}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": not failed and bool(metrics), "attempted": max(len(ops), 1),
                      "failed": len(failed) if ops else 1, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
