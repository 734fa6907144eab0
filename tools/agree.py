"""Compare the outputs of this tree with those of another revision.

    python3 tools/agree.py --against REV [--out FILE]

REV is exported with `git archive` into a temporary directory.  One fixed
list of cases (CASES) runs on it and on the tree that holds this file, as it
is on disk, uncommitted edits included, each case in a fresh Python
process with PYTHONPATH set to the tree's src/ and its own working
directory: CLI commands through `python -m sudlerlab.cli`, and library
dumps that write CSV or .npy files.  For every output of a case (exit code,
stdout, stderr, each file it writes) the summary says "identical" when the
bytes are, and otherwise, per CSV column (per leading label of a text line,
per .npy array), how many values moved and the worst |d|/max(1, |ref|),
the measure perfbench uses, with REV's value as ref.

The summary is JSON, printed and, with --out, written to FILE.  The exit
status is 0 when every output is identical and 1 otherwise.  It needs git
and the repository, nothing else.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEEDED_SUITES = ("cotangent", "epsilon", "factor", "identities", "local56", "tail")
ALL_SUITES = (*SEEDED_SUITES, "concentration", "continuity", "th3")

# library dumps: each snippet writes its files into the working directory
_SUITE_ROWS = f"""
from sudlerlab import verify
with open("run_suite.csv", "w") as fh:
    fh.write("suite,seed,check_id,case_id,lhs,rhs,margin,passed\\n")
    for name in {SEEDED_SUITES!r}:
        for seed in range(8):
            for c in verify.run_suite(name, seed=seed):
                fh.write("%s,%d,%s,%s,%.17g,%.17g,%.17g,%s\\n" % (
                    name, seed, c.check_id, c.case_id, c.lhs, c.rhs, c.margin, c.passed))
"""
_ESTIMATE_D = """
from sudlerlab.dist import estimate_D
with open("estimate_D.csv", "w") as fh:
    fh.write("Ncap,D\\n200,%.17g\\n" % estimate_D(200))
"""
_SWEEP = """
from sudlerlab.dist import sweep
rows = sweep(500)
with open("sweep500.csv", "w") as fh:
    fh.write("p,q,logJ\\n")
    fh.writelines("%d,%d,%.17g\\n" % r for r in zip(
        rows["p"].tolist(), rows["q"].tolist(), rows["logJ"].tolist()))
"""
# gate 02's corpus: every reduced p/q with q <= 300; the logs of all
# fractions, in (q, p) order, as one array
_PRODUCT_FORM = """
import math
from fractions import Fraction
import numpy as np
from sudlerlab.cfrac import cf_expand, convergents
from sudlerlab.trig import product_form_logs
logs = []
for q in range(2, 301):
    for p in range(1, q):
        if math.gcd(p, q) == 1:
            cf = cf_expand(Fraction(p, q))
            logs.append(product_form_logs(convergents(cf, cf.L), cf.L))
np.save("product_form_q300.npy", np.concatenate(logs))
"""

# every reduced p/q with q <= 60, l = 1..L-1 and x = k/12, 0 < |k| <= 11: the
# outcome ("value" or the exception's name) apart from the log, which is nan
# when the call raised
_EXPLICIT_FORMULA = """
import math
from fractions import Fraction
from sudlerlab.cfrac import cf_expand, convergents
from sudlerlab.trig import explicit_formula_eval
with open("explicit_formula_q60.csv", "w") as fh:
    fh.write("p,q,ell,k,outcome,log\\n")
    for q in range(2, 61):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            cf = cf_expand(Fraction(p, q))
            table = convergents(cf, cf.L)
            for ell in range(1, cf.L):
                for k in (*range(-11, 0), *range(1, 12)):
                    try:
                        out, log = "value", explicit_formula_eval(ell, Fraction(k, 12), table)
                    except ArithmeticError as e:  # ZeroFactorError or PoleError
                        out, log = type(e).__name__, math.nan
                    fh.write("%d,%d,%d,%d,%s,%.17g\\n" % (p, q, ell, k, out, log))
"""


def _cli(*argv: str) -> list[str]:
    return ["-m", "sudlerlab.cli", *argv]


# name -> python arguments; CLI files go to out.csv and report.csv
CASES: dict[str, list[str]] = {
    "eval 5/12": _cli("eval", "5/12"),
    "scan --qmax 80": _cli("scan", "--qmax", "80", "--out", "out.csv"),
    "scan --qmax 90 --threads 2": _cli("scan", "--qmax", "90", "--threads", "2",
                                       "--out", "out.csv"),
    "scan --near": _cli("scan", "--qmax", "3000", "--near", "0.381966", "--radius",
                        "1e-4", "--out", "out.csv"),
    "dist --N 200": _cli("dist", "--N", "200", "--out", "out.csv"),
    "dist --N 499 --stat logJ --report": _cli(
        "dist", "--N", "499", "--stat", "logJ", "--out", "out.csv", "--report", "report.csv"),
    **{
        f"dist --N 300 --stat pq --threads {t}": _cli(
            "dist", "--N", "300", "--stat", "pq", "--threads", str(t), "--out", "out.csv")
        for t in (1, 2)
    },
    "dist --N 400 --ncap 400 --threads 2": _cli(
        "dist", "--N", "400", "--ncap", "400", "--threads", "2", "--out", "out.csv"),
    **{f"verify --suite {s}": _cli("verify", "--suite", s, "--out", "out.csv")
       for s in ALL_SUITES},
    "verify --suite th3 --ncap 150": _cli(
        "verify", "--suite", "th3", "--ncap", "150", "--out", "out.csv"),
    "verify --suite continuity --qcap 4000": _cli(
        "verify", "--suite", "continuity", "--qcap", "4000", "--out", "out.csv"),
    "run_suite seeds 0-7": ["-c", _SUITE_ROWS],
    "estimate_D(200)": ["-c", _ESTIMATE_D],
    "sweep(500) logJ": ["-c", _SWEEP],
    "product_form_logs gate 02": ["-c", _PRODUCT_FORM],
    "explicit_formula q <= 60": ["-c", _EXPLICIT_FORMULA],
}

# a number, but not the digits of a name such as th3 or F_200
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")


def _rel(new: float, ref: float) -> float:
    if new == ref or (math.isnan(new) and math.isnan(ref)):
        return 0.0
    return abs(new - ref) / max(1.0, abs(ref))


class _Moves:
    """Moved-value count and worst relative change, per column label."""

    def __init__(self):
        self.columns: dict[str, dict] = {}

    def add(self, label: str, new: str, ref: str) -> None:
        if new == ref:
            return
        try:
            rel = _rel(float(new), float(ref))
        except ValueError:
            rel = math.inf  # a non-numeric cell changed
        col = self.columns.setdefault(label, {"moved": 0, "worst_rel": 0.0})
        col["moved"] += 1
        col["worst_rel"] = max(col["worst_rel"], rel)

    def result(self, unit: str, count: int) -> dict:
        for col in self.columns.values():
            if math.isinf(col["worst_rel"]):
                col["worst_rel"] = "non-numeric"
        return {unit: count, "columns": self.columns}


def compare_csv(new: bytes, ref: bytes) -> dict:
    """Per-column moves between two CSV files of the same header and length."""
    a = list(csv.reader(io.StringIO(new.decode())))
    b = list(csv.reader(io.StringIO(ref.decode())))
    if not a or not b or a[0] != b[0]:
        return {"differs": "header"}
    if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
        return {"differs": f"shape: {len(a) - 1} rows against {len(b) - 1}"}
    moves = _Moves()
    for r, s in zip(a[1:], b[1:]):
        for label, new_cell, ref_cell in zip(b[0], r, s):
            moves.add(label, new_cell, ref_cell)
    return moves.result("rows", len(b) - 1)


def compare_text(new: bytes, ref: bytes) -> dict:
    """Moves of the numbers in two texts that agree once numbers are masked.

    A number's label is the text before the first number on its line, so
    `KS = 0.25` is reported under "KS =".
    """
    a, b = new.decode().splitlines(), ref.decode().splitlines()
    if len(a) != len(b) or any(_NUMBER.sub("#", r) != _NUMBER.sub("#", s)
                               for r, s in zip(a, b)):
        return {"differs": "text"}
    moves, values = _Moves(), 0
    for r, s in zip(a, b):
        label = _NUMBER.split(s, 1)[0].strip() or s
        nums = _NUMBER.findall(s)
        values += len(nums)
        for new_num, ref_num in zip(_NUMBER.findall(r), nums):
            moves.add(label, new_num, ref_num)
    return moves.result("values", values)


def compare_npy(new: bytes, ref: bytes) -> dict:
    a, b = np.load(io.BytesIO(new)), np.load(io.BytesIO(ref))
    if a.shape != b.shape:
        return {"differs": f"shape: {a.shape} against {b.shape}"}
    moved = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    worst = np.abs(a - b)[moved] / np.maximum(1.0, np.abs(b[moved]))
    return {"values": int(b.size), "columns": {"array": {
        "moved": int(moved.sum()), "worst_rel": float(worst.max(initial=0.0))}}}


def compare(name: str, new: bytes, ref: bytes):
    """"identical", or what moved between two outputs of the given file name."""
    if new == ref:
        return "identical"
    if name == "exit":
        return f"{ref.decode()} -> {new.decode()}"
    if name.endswith(".csv"):
        return compare_csv(new, ref)
    if name.endswith(".npy"):
        return compare_npy(new, ref)
    return compare_text(new, ref)


def run_case(tree: str, args: list[str], workdir: str) -> dict[str, bytes]:
    """The outputs of one case on one tree: exit code, stdout, stderr, files."""
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("SUDLERLAB_CONFIG", None)  # a REV older than the flag-only CLI reads it
    res = subprocess.run([sys.executable, *args], cwd=workdir, env=env,
                         capture_output=True)
    outputs = {"exit": str(res.returncode).encode(), "stdout": res.stdout,
               "stderr": res.stderr}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            outputs[name] = fh.read()
    return outputs


def export(rev: str, dest: str) -> str:
    """git archive of REV extracted into dest; returns the full commit hash."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        # extraction filters exist from 3.10.12 and 3.11.4 on; the archive is
        # the repository's own, so older releases extract it unfiltered
        if hasattr(tarfile, "data_filter"):
            tf.extractall(dest, filter="data")
        else:
            tf.extractall(dest)
    return sha


def agree(rev: str, tree: str = ROOT, only: list[str] | None = None) -> dict:
    names = only or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown case(s) {unknown}; choose from {list(CASES)}")
    tree = os.path.abspath(tree)  # the cases run in their own directories
    t0 = time.perf_counter()
    cases = {}
    with tempfile.TemporaryDirectory(prefix="agree-") as tmp:
        ref_tree = os.path.join(tmp, "ref")
        sha = export(rev, ref_tree)
        for i, name in enumerate(names):
            ref = run_case(ref_tree, CASES[name], os.path.join(tmp, f"{i}-ref"))
            new = run_case(tree, CASES[name], os.path.join(tmp, f"{i}-new"))
            cases[name] = {
                out: compare(out, new[out], ref[out]) if out in new else "missing"
                for out in ref
            }
            cases[name].update({out: "extra" for out in new if out not in ref})
    moved = sorted(name for name, outs in cases.items()
                   if any(v != "identical" for v in outs.values()))
    return {"against": rev, "commit": sha, "tree": tree,
            "identical": not moved, "moved": moved,
            "seconds": round(time.perf_counter() - t0, 1), "cases": cases}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", required=True, metavar="REV")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    summary = agree(args.against)
    text = json.dumps(summary, indent=1) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if summary["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
