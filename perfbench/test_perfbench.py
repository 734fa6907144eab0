"""Tests of the benchmark itself: smoke runs, the trace, and the reference check.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_smoke_trace_reports_per_layer_metrics_and_spans():
    proc = run_bench("--workload", "identity_checks", "--seed", "5", "--seconds", "1",
                     "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["trig.product_form_logs.self_s"]["value"] > 0
    assert metrics["verify.tail.cases"]["value"] > 0
    with open(os.path.join(HERE, "out", "trace-identity_checks-seed5.jsonl")) as fh:
        spans = [json.loads(line) for line in fh]
    assert spans and all({"op", "id", "parent", "name", "start", "end"} <= set(s) for s in spans)
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)


def test_self_time_subtracts_children():
    spans = [
        (0, None, "a", 0.0, 10.0, None),
        (1, 0, "b", 1.0, 4.0, 7),
        (2, 0, "b", 5.0, 6.0, 3),
        (3, 1, "c", 2.0, 3.0, None),
    ]
    agg = tracing.self_times(spans)
    assert agg["a"]["self_s"] == pytest.approx(6.0)
    assert agg["b"] == pytest.approx({"calls": 2, "incl_s": 4.0, "self_s": 3.0, "work": 10})
    assert agg["c"]["self_s"] == pytest.approx(1.0)


def test_reference_check_flags_perturbed_h_value():
    inp = wl.prepare("h_window", 2, True, "", 0)
    out = wl.run_h_window(inp)
    assert len(out["xs"]) > 5
    chk = wl.check("h_window", 2, inp, out)
    assert not chk.misses and chk.compared > 0
    h, psi, psi_star = out["vals"][3]
    out["vals"][3] = (h * (1 + 1e-7), psi, psi_star)
    chk = wl.check("h_window", 2, inp, out)
    assert chk.misses and chk.max_rel_err > wl.TOL["h"]


def test_reference_check_flags_flipped_verdict():
    inp = wl.prepare("identity_checks", 1, True, "", 0)
    out = wl.run_identity_checks(inp)
    assert not wl.check("identity_checks", 1, inp, out).misses
    case = out["suites"]["epsilon"][0]
    out["suites"]["epsilon"][0] = case.__class__(
        case.check_id, case.case_id, case.lhs, case.rhs, -abs(case.margin) - 1.0, False)
    assert wl.check("identity_checks", 1, inp, out).misses


def test_reference_check_flags_perturbed_dist_csv(tmp_path):
    inp = wl.prepare("farey_dist", 0, True, str(tmp_path), 0)
    out = wl.run_farey_dist(inp)
    assert not wl.check("farey_dist", 0, inp, out).misses
    with open(inp["out_csv"]) as fh:
        lines = fh.read().splitlines()
    cells = lines[10].split(",")
    cells[3] = repr(float(cells[3]) * (1 + 1e-9))
    lines[10] = ",".join(cells)
    with open(inp["out_csv"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    chk = wl.check("farey_dist", 0, inp, out)
    assert any(m.startswith("dist logJ") for m in chk.misses)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "h_window", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
