"""The three workloads: inputs from a seed, the timed operation, the reference check.

The seed selects one of VARIANTS input variants; each variant has reference
outputs in `ref/`, produced by `make_refs.py` at the commit that added the
benchmark.  Smoke mode runs the same code on tiny inputs.

Nothing here imports sudlerlab at module level: the worker times that import.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "ref")
VARIANTS = 8
WORKLOADS = ("farey_dist", "h_window", "identity_checks")
SUITES = ("identities", "epsilon", "cotangent", "factor", "tail", "local56", "concentration")

# farey_dist: N = FAREY_N0 + variant, a narrow band around 500
FAREY_N0 = 496
FAREY_NMAX = FAREY_N0 + VARIANTS - 1
SMOKE_N = 60
# h_window: 4 stratified centers in (0.05, 0.5) and their mirrors 1 - c
H_QCAP, SMOKE_QCAP = 8000, 300
H_HALF_WIDTH = Fraction(3, 80000)
H_STRATA = 4
# identity_checks: product form vs direct prefix logs on seeded fractions
ID_FRACTIONS, SMOKE_FRACTIONS = 3000, 20
ID_QMIN, ID_QMAX = 100, 300
PF_TOL = 1e-9  # the product-form check's own threshold (as in acceptance gate 02)

# reference tolerances, on |got - ref| / max(1, |ref|)
TOL = {
    "logJ": 1e-11,
    "stat_logJ": 1e-10,
    "stat_pq": 1e-12,
    "D": 1e-10,
    "KS": 5e-5,          # the stable-law CDF may be re-evaluated, not only re-interpolated
    "stable_cdf": 5e-5,
    "emp_cdf": 1e-15,
    "h": 1e-9,
    "psi": 1e-9,
    "psi_star": 1e-9,
    "pf_margin": 1e-11,
    "suite_margin": 1e-9,
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


# -- inputs -----------------------------------------------------------------------


def farey_N(variant: int, smoke: bool) -> int:
    return SMOKE_N if smoke else FAREY_N0 + variant


def h_windows(variant: int) -> list[tuple[Fraction, Fraction]]:
    """Closed windows [lo, hi]: centers stratified over (0.05, 0.5), then mirrored.

    h_eval costs grow like q (1 + x), so the mirrored pairs keep every
    variant's total cost and latency spread the same.
    """
    u = Fraction(2 * variant + 1, 2 * VARIANTS)
    centers = [Fraction(1, 20) + Fraction(9, 20) * (j + u) / H_STRATA for j in range(H_STRATA)]
    centers += [1 - c for c in reversed(centers)]
    return [(c - H_HALF_WIDTH, c + H_HALF_WIDTH) for c in centers]


def identity_fractions(variant: int, count: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng([variant, 2021])
    out = []
    while len(out) < count:
        q = int(rng.integers(ID_QMIN, ID_QMAX + 1))
        p = int(rng.integers(1, q))
        if math.gcd(p, q) == 1:
            out.append((p, q))
    return out


def prepare(workload: str, variant: int, smoke: bool, out_dir: str, op_id: int) -> dict:
    if workload == "farey_dist":
        N = farey_N(variant, smoke)
        out_csv = os.path.join(out_dir, f"farey_op{op_id}.csv")
        rep_csv = os.path.join(out_dir, f"farey_op{op_id}_report.csv")
        argv = ["dist", "--N", str(N), "--stat", "logJ", "--threads", "1",
                "--out", out_csv, "--report", rep_csv]
        return {"N": N, "argv": argv, "out_csv": out_csv, "rep_csv": rep_csv}
    if workload == "h_window":
        return {"windows": h_windows(variant), "qcap": SMOKE_QCAP if smoke else H_QCAP}
    if workload == "identity_checks":
        n = SMOKE_FRACTIONS if smoke else ID_FRACTIONS
        return {"fractions": identity_fractions(variant, n), "suite_seed": variant}
    raise ValueError(f"unknown workload {workload!r}")


# -- operations -------------------------------------------------------------------


def run_farey_dist(inp: dict) -> dict:
    from sudlerlab import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(inp["argv"])
    return {"rc": rc, "stdout": buf.getvalue()}


def run_h_window(inp: dict) -> dict:
    from sudlerlab import cfrac, jones

    clock = time.perf_counter
    xs, vals, lat = [], [], []
    for lo, hi in inp["windows"]:
        window = list(cfrac.rationals_in_interval(lo, hi, inp["qcap"]))
        for x in window:
            t0 = clock()
            hv = jones.h_eval(x)
            lat.append(clock() - t0)
            vals.append((hv.h, hv.psi, hv.psi_star))
        xs.extend(window)
    return {"xs": xs, "vals": vals, "h_eval_s": lat}


def run_identity_checks(inp: dict) -> dict:
    from sudlerlab import cfrac, trig, verify

    margins = []
    for p, q in inp["fractions"]:
        r = Fraction(p, q)
        cf = cfrac.cf_expand(r)
        table = cfrac.convergents(cf, cf.L)
        direct = trig.sudler_prefix_logmags(r, q - 1)
        batch = trig.product_form_logs(table, cf.L)
        err = float(np.max(np.abs(batch - direct) / (1.0 + np.abs(direct))))
        margins.append(PF_TOL - err)
    suites = {}
    for suite in SUITES:
        kwargs = {} if suite == "concentration" else {"seed": inp["suite_seed"]}
        suites[suite] = verify.run_suite(suite, **kwargs)
    return {"pf_margin": margins, "suites": suites}


RUN = {
    "farey_dist": run_farey_dist,
    "h_window": run_h_window,
    "identity_checks": run_identity_checks,
}


# -- reference check --------------------------------------------------------------


class Checker:
    """Compares outputs with references; any miss fails the operation."""

    def __init__(self):
        self.compared = 0
        self.max_rel_err = 0.0
        self.misses: list[str] = []

    def close(self, what: str, got, ref, tol: float) -> None:
        got = np.asarray(got, dtype=np.float64)
        ref = np.asarray(ref, dtype=np.float64)
        if got.shape != ref.shape:
            self.misses.append(f"{what}: shape {got.shape} != reference {ref.shape}")
            return
        self.compared += got.size
        if got.size == 0:
            return
        with np.errstate(invalid="ignore"):
            err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        # equal infinities (an empty selection's margin) agree; any other nan is a miss
        err = np.where(got == ref, 0.0, np.where(np.isnan(err), np.inf, err))
        worst = float(np.max(err))
        self.max_rel_err = max(self.max_rel_err, worst)
        if worst > tol:
            i = int(np.argmax(err))
            self.misses.append(
                f"{what}: {int(np.sum(err > tol))} of {got.size} beyond {tol:g}; "
                f"worst at {i}: {got.flat[i]!r} vs {ref.flat[i]!r}"
            )

    def equal(self, what: str, got, ref) -> None:
        got, ref = list(got), list(ref)
        self.compared += len(ref)
        if got != ref:
            bad = next((i for i, (a, b) in enumerate(zip(got, ref)) if a != b), min(len(got), len(ref)))
            self.misses.append(f"{what}: differs from reference at {bad} "
                               f"(lengths {len(got)} vs {len(ref)})")


def _load(workload: str):
    return np.load(os.path.join(REF_DIR, f"{workload}.npz"))


def farey_fractions(N: int) -> tuple[list[int], list[int]]:
    """F_N in the dist sweep's order (q, then p), by plain gcd."""
    ps, qs = [], []
    for q in range(2, N + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                ps.append(p)
                qs.append(q)
    return ps, qs


def cf_digit_sum(p: int, q: int) -> int:
    s = 0
    while q:
        s += p // q
        p, q = q, p % q
    return s


def stdout_value(text: str, key: str) -> float:
    for line in text.splitlines():
        if line.startswith(f"{key} = "):
            return float(line.split("=", 1)[1].split()[0])
    raise ValueError(f"{key} missing from dist output")


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_farey_dist(inp: dict, out: dict, chk: Checker) -> None:
    ref = _load("farey_dist")
    N = inp["N"]
    chk.equal("dist exit code", [out["rc"]], [0])
    if out["rc"] != 0:
        return
    ps, qs = farey_fractions(N)
    header, rows = read_csv(inp["out_csv"])
    chk.equal("dist header", header,
              ["p", "q", "sum_partial_quotients", "logJ", "stat_logJ", "stat_pq"])
    cols = list(zip(*rows)) if rows else [()] * 6
    chk.equal("dist p", map(int, cols[0]), ps)
    chk.equal("dist q", map(int, cols[1]), qs)
    sum_a = [cf_digit_sum(int(p), int(q)) for p, q in zip(ps, qs)]
    chk.equal("dist sum_partial_quotients", map(int, cols[2]), sum_a)
    logJ_ref = ref["logJ"][: len(ps)]
    chk.close("dist logJ", [float(v) for v in cols[3]], logJ_ref, TOL["logJ"])

    # the statistics, from the reference logJ, D and Vol by their definitions
    vol = float(ref["vol"])
    D_ref = float(ref[f"D_{min(N, 200)}"])
    logN = math.log(N)
    stat_ref = (logJ_ref / ((3.0 * vol / math.pi**2) * logN)
                - (2.0 / math.pi) * math.log(logN) - D_ref)
    chk.close("dist stat_logJ", [float(v) for v in cols[4]], stat_ref, TOL["stat_logJ"])
    center = (2.0 * math.log(logN) - 2.0 * float(np.euler_gamma)
              + 2.0 * math.log(6.0 / math.pi)) / math.pi
    pq_ref = math.pi * np.array(sum_a, dtype=np.float64) / (6.0 * logN) - center
    chk.close("dist stat_pq", [float(v) for v in cols[5]], pq_ref, TOL["stat_pq"])
    chk.close("dist D", [stdout_value(out["stdout"], "D")], [D_ref], TOL["D"])
    chk.close("dist KS", [stdout_value(out["stdout"], "KS")], [ref[f"KS_{N}"]], TOL["KS"])

    header, rows = read_csv(inp["rep_csv"])
    chk.equal("report header", header, ["y", "emp_cdf", "stable_cdf"])
    cols = list(zip(*rows)) if rows else [()] * 3
    n = stat_ref.size
    chk.close("report y", [float(v) for v in cols[0]], np.sort(stat_ref), TOL["stat_logJ"])
    chk.close("report emp_cdf", [float(v) for v in cols[1]],
              np.arange(1, n + 1) / n, TOL["emp_cdf"])
    y = np.sort(stat_ref)
    gy, gF = ref["grid_y"], ref["grid_F"]
    want = np.where(y > gy[-1], 1.0 - (2.0 / math.pi) / np.maximum(y, 1.0),
                    np.interp(y, gy, gF, left=0.0, right=1.0))
    chk.close("report stable_cdf", [float(v) for v in cols[2]], want, TOL["stable_cdf"])


def check_h_window(inp: dict, out: dict, chk: Checker, variant: int) -> None:
    ref = _load("h_window")
    p_ref, q_ref, h_ref = (ref[f"v{variant}_{k}"] for k in ("p", "q", "h"))
    keep = q_ref <= inp["qcap"]
    p_ref, q_ref, h_ref = p_ref[keep], q_ref[keep], h_ref[keep]
    chk.equal("h_window p", [x.numerator for x in out["xs"]], p_ref.tolist())
    chk.equal("h_window q", [x.denominator for x in out["xs"]], q_ref.tolist())
    vals = np.array(out["vals"], dtype=np.float64).reshape(-1, 3)
    if vals.shape[0] != h_ref.size:
        return
    vol = float(ref["vol"])
    x = np.array([float(Fraction(int(p), int(q))) for p, q in zip(p_ref, q_ref)])
    chk.close("h", vals[:, 0], h_ref, TOL["h"])
    chk.close("psi", vals[:, 1], h_ref - vol / (2 * math.pi * x) + 1.5 * np.log(x), TOL["psi"])
    chk.close("psi_star", vals[:, 2], h_ref + vol / (2 * math.pi) * (x - 1 / x), TOL["psi_star"])


def check_identity_checks(inp: dict, out: dict, chk: Checker, variant: int) -> None:
    ref = _load("identity_checks")
    n = len(inp["fractions"])
    chk.equal("identity fractions", [tuple(f) for f in inp["fractions"]],
              list(zip(ref[f"v{variant}_p"][:n].tolist(), ref[f"v{variant}_q"][:n].tolist())))
    margins = np.array(out["pf_margin"])
    chk.equal("product_form verdicts", (margins >= 0).tolist(),
              (ref[f"v{variant}_pf_margin"][:n] >= 0).tolist())
    chk.close("product_form margins", margins, ref[f"v{variant}_pf_margin"][:n], TOL["pf_margin"])
    for suite in SUITES:
        cases = out["suites"][suite]
        key = f"v{variant}_{suite}"
        chk.equal(f"{suite} case ids", [c.case_id for c in cases], ref[f"{key}_case"].tolist())
        chk.equal(f"{suite} verdicts", [bool(c.passed) for c in cases],
                  ref[f"{key}_passed"].tolist())
        if len(cases) == ref[f"{key}_margin"].size:
            chk.close(f"{suite} margins", [c.margin for c in cases], ref[f"{key}_margin"],
                      TOL["suite_margin"])


def check(workload: str, variant: int, inp: dict, out: dict) -> Checker:
    chk = Checker()
    if workload == "farey_dist":
        check_farey_dist(inp, out, chk)
    elif workload == "h_window":
        check_h_window(inp, out, chk, variant)
    else:
        check_identity_checks(inp, out, chk, variant)
    return chk


def failing_verdicts(workload: str, out: dict) -> int:
    """Check cases that fail at this commit (kept as reference verdicts, not hidden)."""
    if workload != "identity_checks":
        return 0
    bad = sum(m < 0 for m in out["pf_margin"])
    return bad + sum(not c.passed for cases in out["suites"].values() for c in cases)


def extra_counts(workload: str, inp: dict, out: dict) -> dict:
    """Per-operation counts the trace reports beside its spans."""
    extra = {}
    if workload == "identity_checks":
        extra["suite_cases"] = {s: len(c) for s, c in out["suites"].items()}
    if workload == "farey_dist":
        extra["csv_bytes"] = sum(
            os.path.getsize(p) for p in (inp["out_csv"], inp["rep_csv"]) if os.path.exists(p)
        )
    return extra


def cleanup(inp: dict) -> None:
    for key in ("out_csv", "rep_csv"):
        if key in inp and os.path.exists(inp[key]):
            os.remove(inp[key])
